"""End-to-end benchmark of the becimpurity CLI, run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the inputs and correctness gates):
  sweep   `rates --grid a:b:N --config <M>`: quadrature, rates and bogoliubov
          do nearly all the work; the lattice kernels do none.
  box     `box-oracle --L L --eta 3/L --grid q:q':k`: the lattice sums of
          _kernels do nearly all the work; quadrature does none.
  verify  `check`, with `--output` on every other op: every layer in small
          doses, and import is about half of each op.
  all     the three in turn; metric names gain a `<workload>.` prefix.

Load: a closed loop with one client. Each op is a fresh process; the next
starts only after the previous one has exited, so at most one op runs.

--trace 0 measures end to end. Before the timed loop the second op of the
seed runs twice and the bytes must match (the rerun contract; it also warms
the file cache). Then ops run in pairs until --seconds have passed. Per op:
setup is spawn to the end of `import becimpurity.cli`, reported by
launch.py; wall is spawn to exit; compute is wall minus setup; launch.py
also reports the op's peak RSS. Reported: medians of setup_s, wall_s,
compute_s and peak_rss_mb, and work_per_s, the work units of all ops over
their summed wall time.

--trace 1 is the per-layer run. It runs the first 2 ops of the seed, each
once plainly and once under traced.py, which records a span around every
public layer function; it does not depend on --seconds, so its counts repeat
exactly for a seed. It adds `python -X importtime` figures, the op's CPU
time, and the tracing overhead: traced minus plain compute time, both taken
between two clock stamps around the op, so that writing out the spans and
interpreter exit are left out.

Every op's output is gated and hashed; a failed op counts in "failed".
Results, environment and per-op records go to .bench_work/; the last line of
stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans as span_math
import workloads as W
from traced import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

OP_TIMEOUT_S = 60.0
TRACED_OPS = 2
IMPORT_PROBES = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "compute_s": "s",
             "work_per_s": "1/s", "peak_rss_mb": "MB"}
WORK_NAMES = {"sweep": "rate points", "box": "lattice modes", "verify": "checks"}
LAYER_FUNCTIONS = tuple(f"{m}.{f}" for m, f in TARGETS if (m, f) != ("cli", "main"))


def metric_name(span_name: str) -> str:
    """Metric names start with a letter: `_kernels.x` is reported as `kernels.x`."""
    return span_name.lstrip("_")


def per_layer_units() -> dict:
    """Name -> unit of every metric the traced run reports."""
    units = {}
    for name in map(metric_name, LAYER_FUNCTIONS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "bogoliubov.dispersion.elems": "count",
        "quadrature.integrand.calls": "count",
        "quadrature.integrand.nodes": "count",
        "quadrature.integrand.s": "s",
        "rates.box_rate.modes_per_s": "1/s",
        "kernels.lorentzian_sums.calls_per_box_rate": "ratio",
        "cli.main.self_s": "s",
        "import.numpy_s": "s",
        "import.becimpurity_s": "s",
        "proc.cpu_s": "s",
        "trace.overhead_s": "s",
        "work.units": "count",
    })
    units.update({f"checks.{name}.s": "s" for name in W.VERIFY_NAMES})
    return units


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "becimpurity").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from becimpurity import _kernels

    try:
        import numba
        numba_state = f"installed {numba.__version__}"
    except ImportError:
        numba_state = "not installed, so the numba kernel backend cannot be timed here"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_active_backend": _kernels.ACTIVE_BACKEND,
        "numba": numba_state,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "load": "closed loop, 1 client, 1 op at a time, each op a fresh process",
    }


# ---------------------------------------------------------------------------
# running ops


def spawn(cmd: list, cwd: Path, stdout: Path) -> dict:
    """Run `python3 SCRIPT FD ARGS...` to exit, SCRIPT being launch.py or
    traced.py: wall time, setup time (spawn to the first clock stamp the
    script writes to FD), op time (first to second stamp, the op alone,
    without writing out spans or interpreter exit), the peak RSS launch.py
    reports, exit code and CPU time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_fd, write_fd = os.pipe()
    cmd = [cmd[0], cmd[1], str(write_fd), *cmd[2:]]
    with open(stdout, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, pass_fds=(write_fd,))
    os.close(write_fd)
    pidfd = os.pidfd_open(proc.pid)
    status = None
    try:
        ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
        t1 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
        if status is None:  # interrupted: leave no op running
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(read_fd, "rb") as fh:
        stamps = [int(t) for t in fh.read().split()]
    return {
        "exit": proc.returncode,
        "timed_out": not ready,
        "wall_s": (t1 - t0) / 1e9,
        "setup_s": (stamps[0] - t0) / 1e9 if stamps else None,
        "op_s": (stamps[1] - stamps[0]) / 1e9 if len(stamps) >= 2 else None,
        "rss_mb": stamps[2] / 1024.0 if len(stamps) == 3 else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stderr": (cwd / "stderr.txt").read_text(errors="replace")[-2000:],
    }


def execute(op: W.Op, workdir: Path, traced_spec: dict | None = None) -> dict:
    """Run one op as a fresh process, gate its output and hash it."""
    for name, text in op.files.items():
        (workdir / name).write_text(text)
    stdout = workdir / "stdout.txt"
    if traced_spec is None:
        cmd = [sys.executable, str(HERE / "launch.py"), *op.argv]
    else:
        spec_path = workdir / "traced-spec.json"
        spec_path.write_text(json.dumps(traced_spec))
        cmd = [sys.executable, str(HERE / "traced.py"), str(spec_path)]
    rec = spawn(cmd, workdir, stdout)
    out_bytes = stdout.read_bytes()
    file_bytes = None
    if op.output is not None and traced_spec is None:
        path = workdir / op.output
        file_bytes = path.read_bytes() if path.exists() else b""
    if rec["timed_out"]:
        error = f"timed out after {OP_TIMEOUT_S} s"
    else:
        error = W.gate(op, rec["exit"], out_bytes.decode(errors="replace"),
                       file_bytes.decode(errors="replace") if file_bytes is not None else None)
    digest = hashlib.sha256(out_bytes + b"\0" + (file_bytes or b"")).hexdigest()
    for name in [*op.files, op.output]:
        if name is not None:
            (workdir / name).unlink(missing_ok=True)
    rec.update(index=op.index, argv=list(op.argv), work=op.work, sha256=digest,
               error=error, stdout=out_bytes.decode(errors="replace"))
    if error is None and rec["exit"] == op.expect_exit:
        rec["stderr"] = ""
    return rec


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else float("nan")


def rerun_check(op: W.Op, workdir: Path) -> tuple:
    """Run one op twice; (records, error) where error flags differing bytes."""
    first, second = execute(op, workdir), execute(op, workdir)
    error = None
    if first["sha256"] != second["sha256"]:
        error = f"rerun of op {op.index} is not byte-identical"
    return [first, second], error


# ---------------------------------------------------------------------------
# trace 0: end to end


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    ops = W.generate(workload, seed)
    # op 1: for verify, the one that also writes the JSON report
    rerun, rerun_error = rerun_check(next(itertools.islice(W.generate(workload, seed), 1, None)),
                                     workdir)
    records = []
    deadline = time.monotonic() + seconds
    while not records or time.monotonic() < deadline:
        # whole antithetic pairs keep the median op at the middle cost
        records += [execute(next(ops), workdir), execute(next(ops), workdir)]
    for rec in rerun + records:
        rec.pop("stdout")
    ok = [r for r in records if not r["timed_out"]]
    setups = [r["setup_s"] for r in ok if r["setup_s"] is not None]
    rss = [r["rss_mb"] for r in ok if r["rss_mb"] is not None]
    total_wall = sum(r["wall_s"] for r in ok)
    metrics = {
        "setup_s": (_median(setups), len(setups)),
        "wall_s": (_median([r["wall_s"] for r in ok]), len(ok)),
        "compute_s": (_median([r["wall_s"] - r["setup_s"] for r in ok if r["setup_s"] is not None]),
                      len(setups)),
        "work_per_s": (sum(r["work"] for r in ok) / total_wall if total_wall else float("nan"), len(ok)),
        "peak_rss_mb": (_median(rss), len(rss)),
    }
    failed = sum(r["error"] is not None for r in records + rerun) + (rerun_error is not None)
    attempted = len(records) + len(rerun)
    return {
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k], "samples": n} for k, (v, n) in metrics.items()},
        "attempted": attempted,
        "failed": min(failed, attempted),
        "rerun": {"identical": rerun_error is None, "sha256": rerun[0]["sha256"]},
        "ops": rerun + records,
        "work_total": sum(r["work"] for r in records),
    }


# ---------------------------------------------------------------------------
# trace 1: per layer


def import_times() -> dict:
    """Median cumulative import time of numpy and of becimpurity after it."""
    samples = {"numpy": [], "becimpurity": []}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import numpy; import becimpurity"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {name: _median(values) for name, values in samples.items()}


def _modes(attrs: dict, cache: dict) -> int:
    key = (attrs["L"], attrs["p_cut"])
    if key not in cache:
        cache[key] = W.lattice_modes(*key)
    return cache[key]


def layer_metrics(spans: list, absent: set, imports: dict, cpu: list, overhead: float,
                  work: int) -> dict:
    modes_cache: dict = {}
    for s in spans:
        if s[span_math.NAME] == "rates.box_rate" and s[span_math.ATTRS]:
            s[span_math.ATTRS] = {"modes": _modes(s[span_math.ATTRS], modes_cache)}
    agg = span_math.aggregate(spans)

    def row(name):
        return agg.get(name, {})

    values = {}
    for name in LAYER_FUNCTIONS:
        values[f"{metric_name(name)}.calls"] = row(name).get("calls", 0)
        values[f"{metric_name(name)}.self_s"] = row(name).get("self_ns", 0) / 1e9
    box = row("rates.box_rate")
    lor_calls = row("_kernels.lorentzian_sums").get("calls", 0)
    values.update({
        "bogoliubov.dispersion.elems": row("bogoliubov.dispersion").get("elems", 0),
        "quadrature.integrand.calls": row("quadrature.integrand").get("calls", 0),
        "quadrature.integrand.nodes": row("quadrature.integrand").get("nodes", 0),
        "quadrature.integrand.s": row("quadrature.integrand").get("total_ns", 0) / 1e9,
        "rates.box_rate.modes_per_s": (box["modes"] / (box["total_ns"] / 1e9)
                                       if box.get("total_ns") else 0.0),
        "kernels.lorentzian_sums.calls_per_box_rate": (lor_calls / box["calls"]
                                                        if box.get("calls") else 0.0),
        "cli.main.self_s": row("cli.main").get("self_ns", 0) / 1e9,
        "import.numpy_s": imports["numpy"],
        "import.becimpurity_s": imports["becimpurity"],
        "proc.cpu_s": _median(cpu),
        "trace.overhead_s": overhead,
        "work.units": work,
    })
    for name in W.VERIFY_NAMES:
        values[f"checks.{name}.s"] = row(f"checks.{name}").get("total_ns", 0) / 1e9
    units = per_layer_units()
    absent = {metric_name(name) for name in absent}
    return {k: {"value": values[k], "unit": units[k],
                **({"absent": True} if k.rsplit(".", 1)[0] in absent else {})}
            for k in units}


def trace_run(workload: str, seed: int, workdir: Path) -> dict:
    ops = W.generate(workload, seed)
    records, all_spans, absent = [], [], set()
    plain_op, traced_op, cpu = [], [], []
    for _ in range(TRACED_OPS):
        op = next(ops)
        base = execute(op, workdir)
        base_out = base.pop("stdout")
        records.append(base)
        spans_path = workdir / f"spans-{op.index}.json"
        spec = {"op": op.index, "spans_out": str(spans_path)}
        if workload == "verify":
            names, _ = W.check_outcomes(base_out) if base["error"] is None else (list(W.VERIFY_NAMES), None)
            spec["checks"] = names
            absent.update(f"checks.{n}" for n in W.VERIFY_NAMES if n not in names)
        else:
            spec["argv"] = list(op.argv)
        traced = execute(op, workdir, traced_spec=spec)
        traced_out = traced.pop("stdout")
        if traced["error"] is None and workload != "verify" and traced_out != base_out:
            traced["error"] = "traced output differs from the plain op"
        records.append(traced)
        if spans_path.exists():
            doc = json.loads(spans_path.read_text())
            spans_path.unlink()
            offset = len(all_spans)
            all_spans.extend([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4], s[5]]
                             for s in doc["spans"])
            absent.update(doc["absent"])
        for rec, into in ((base, plain_op), (traced, traced_op)):
            if rec["op_s"] is not None:
                into.append(rec["op_s"])
        cpu.append(base["cpu_s"])
    overhead = _median(traced_op) - _median(plain_op)
    work = sum(r["work"] for r in records[::2])
    metrics = layer_metrics(all_spans, absent, import_times(), cpu, overhead, work)
    names = [s[span_math.NAME] for s in all_spans]
    counts = {
        "quadrature.integrand calls per work unit": names.count("quadrature.integrand") / work,
        "lorentzian_sums calls per box_rate":
            metrics["kernels.lorentzian_sums.calls_per_box_rate"]["value"],
        "check spans per op": sum(n.startswith("checks.") for n in names) / TRACED_OPS,
    }
    return {
        "metrics": metrics,
        "counts": counts,
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "absent": sorted(absent),
        "ops": records,
        "spans": all_spans,
        "work_total": work,
    }


# ---------------------------------------------------------------------------
# report


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, result: dict, trace: int) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}: {attempted} ops attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g}, {result['work_total']} {WORK_NAMES[workload]}")
    for op in result["ops"]:
        if op["error"] is not None:
            print(f"   FAILED op {op['index']} {' '.join(op['argv'])}: {op['error']}"
                  + (f" | stderr: {op['stderr'].strip()}" if op["stderr"].strip() else ""))
    if not trace:
        print(f"   rerun byte-identical: {'yes' if result['rerun']['identical'] else 'NO'}"
              f" (sha256 {result['rerun']['sha256'][:16]})")
        print(f"   {'metric':<14}{'median':>14}  {'unit':<6}samples")
        for name, m in result["metrics"].items():
            print(f"   {name:<14}{_fmt(m['value']):>14}  {m['unit']:<6}{m['samples']}")
        return
    print(f"   absent from this version: {', '.join(result['absent']) or 'none'}")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if m["value"] or m.get("absent"):
            print(f"   {name:<52}{_fmt(m['value']):>14}  {m['unit']}"
                  + ("  (absent)" if m.get("absent") else ""))
    print("   " + "; ".join(f"{k}: {_fmt(v)}" for k, v in result["counts"].items()))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = environment(workload, seed, seconds, trace)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"tmp-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = trace_run(workload, seed, workdir) if trace else measure(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = WORK / f"{workload}-seed{seed}-trace{trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "op", "attrs"], "spans": spans},
            separators=(",", ":")))
    Path(f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))
    print(f"== env {json.dumps(env)}")
    report(workload, result, trace)
    print(f"   results in {stem.relative_to(ROOT)}.json")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the becimpurity CLI.")
    ap.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "becimpurity" / "__init__.py").is_file():
        print(f"error: no becimpurity sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    prefix = args.workload == "all"
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": m["value"], "unit": m["unit"]}
        for name, res in results.items() for key, m in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
