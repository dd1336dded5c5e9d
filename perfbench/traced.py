"""Run one op in a fresh process with a span around each public layer function.

    python3 traced.py FD SPEC.json

SPEC holds {"op": id, "argv": [...]} for a CLI op, or {"op": id, "checks":
[names]} for the check suite, plus "spans_out", the file the spans go to
when the op ends. PYTHONPATH must reach the package. Like launch.py, it
writes two CLOCK_MONOTONIC stamps to fd FD: once the package is imported and
the wrappers are in, and when the op has returned, before the spans are
written out.

Each function is replaced at every module that binds it (rates and
selfenergy hold their own `integrate`, almost every module holds `derive`),
so internal calls are traced too. A function missing from the package is
listed as absent instead of failing the run. Checks run one by one through
the public run_check in the order given, which is registry order, in one
process, so the lru_cache sharing between checks matches run_all.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

from spans import Recorder

TARGETS = (
    ("params", "derive"),
    ("bogoliubov", "dispersion"),
    ("kinematics", "emission_window"),
    ("kinematics", "max_emission_momentum"),
    ("quadrature", "integrate"),
    ("quadrature", "integrate_semi_infinite"),
    ("quadrature", "second_derivative"),
    ("rates", "transition_rate"),
    ("rates", "transition_rate_quadrature"),
    ("rates", "box_rate"),
    ("rates", "survival_probability"),
    ("rates", "survival_lower_bound"),
    ("_kernels", "lorentzian_sums"),
    ("_kernels", "finite_time_sum"),
    ("_kernels", "inverse_square_sum"),
    ("selfenergy", "energy_shift_quadrature"),
    ("selfenergy", "effective_mass_quadrature"),
    ("selfenergy", "effective_mass_finite_difference"),
    ("cli", "main"),
)


def _elems(p, *_args, **_kwargs):
    return {"elems": int(np.size(p))}


def _box(*args, **kwargs):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    return {"L": cfg.L, "p_cut": cfg.p_cut} if cfg is not None else None


def _integrate_wrapper(recorder: Recorder, name: str, fn):
    """Trace integrate, and each call of the integrand handed to it."""

    def nodes(x):
        return {"nodes": int(np.size(x))}

    def integrate(f, *args, **kwargs):
        return fn(recorder.wrap("quadrature.integrand", f, nodes), *args, **kwargs)

    return recorder.wrap(name, integrate)


def install(recorder: Recorder) -> list:
    """Wrap every target at each binding; return the names found absent."""
    package = [m for n, m in sys.modules.items() if n == "becimpurity" or n.startswith("becimpurity.")]
    absent = []
    for module_name, fn_name in TARGETS:
        name = f"{module_name}.{fn_name}"
        try:
            module = importlib.import_module(f"becimpurity.{module_name}")
        except ImportError:
            absent.append(name)
            continue
        original = getattr(module, fn_name, None)
        if not callable(original):
            absent.append(name)
            continue
        if name == "quadrature.integrate":
            wrapped = _integrate_wrapper(recorder, name, original)
        else:
            attrs = {"bogoliubov.dispersion": _elems, "rates.box_rate": _box}.get(name)
            wrapped = recorder.wrap(name, original, attrs)
        for mod in package:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, wrapped)
    return absent


def main() -> int:
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    from becimpurity import checks, cli

    recorder = Recorder(spec["op"])
    absent = install(recorder)
    fd = int(sys.argv[1])
    os.write(fd, b"%d\n" % time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    start = time.perf_counter_ns()
    if "checks" in spec:
        failed = 0
        for name in spec["checks"]:
            r = recorder.wrap(f"checks.{name}", checks.run_check)(name)
            failed += not r.passed
            sys.stdout.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: measured {r.measured:.6g}\n")
        sys.stdout.write(f"{len(spec['checks']) - failed} passed, {failed} failed\n")
        code = 1 if failed else 0
    else:
        code = cli.main(spec["argv"])
    os.write(fd, b"%d\n" % time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    os.close(fd)
    with open(spec["spans_out"], "w", encoding="utf-8") as fh:
        json.dump({"op": spec["op"], "absent": absent,
                   "spans": [[s[0], s[1] - start, s[2] - start, s[3], s[4], s[5]]
                             for s in recorder.spans]}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
