"""Start one untraced op: `python3 launch.py FD ARGS...` runs `becimpurity ARGS...`.

It does what `python -m becimpurity` does, and writes to file descriptor FD
two CLOCK_MONOTONIC stamps: when `import becimpurity.cli` (and so the whole
package and numpy) has finished, and when the subcommand has returned. The
benchmark reads the same clock just before spawning, so the first stamp gives
the op's setup time. Then it writes the process's peak RSS (VmHWM, in KiB).
The ru_maxrss that wait4 returns will not do: Linux carries the spawning
parent's peak over into the child's at exec. PYTHONPATH must reach the
package.
"""

import os
import sys
import time

import becimpurity.cli as cli

fd = int(sys.argv[1])
os.write(fd, b"%d\n" % time.clock_gettime_ns(time.CLOCK_MONOTONIC))
code = cli.main(sys.argv[2:])
done = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
os.write(fd, b"%d\n%d\n" % (done, peak_kb))
os.close(fd)
sys.exit(code)
