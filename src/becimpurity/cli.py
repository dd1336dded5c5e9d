"""Command-line front end.

Each subcommand is declared once, as a row of ``_COMMANDS``: its handler,
help text, default sweep grid and the settings it reads. That row alone
decides which flags the parser registers and which keys a JSON config file
may set (flag > file > default); any other flag is a usage error and any
other config key a configuration error. Table commands return
(header, rows, extra), rendered once as CSV or JSON; the check subcommand runs
the built-in verification suite. Output is deterministic: floats are
serialized with 17 significant digits, lines end with a bare newline, and
rerunning a command with the same config reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import asdict, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bogoliubov import coupling_weight, dispersion, transform_coefficients
from .checks import run_all
from .errors import ConfigurationError, DomainError, NumericalError
from .kinematics import emission_window
from .params import SystemParams
from .quadrature import _DEFAULT_REL_TOL, _check_rel_tol
from .rates import BoxOracleConfig, box_rate, transition_rate, transition_rate_quadrature
from .selfenergy import (
    I0,
    I1,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_spectrum,
)

_FMT = "%.17g"

# the flags each setting adds to a command's parser, in registration order
_FLAGS = {
    "format": (("--format", {"choices": ("csv", "json")}),),
    "grid": (("--grid", {"help": "sweep grid start:stop:count"}),),
    "tol": (("--tol", {"type": float, "help": "quadrature relative tolerance"}),),
    "box": (
        ("--L", {"type": float, "help": "box side length"}),
        ("--eta", {"type": float, "help": "Lorentzian width"}),
        ("--pcut", {"type": float, "dest": "p_cut", "metavar": "PCUT",
                    "help": "lattice momentum cap"}),
    ),
}


def _fail_config(msg: str):
    raise ConfigurationError(msg)


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail_config(f"{where} must be a number, got {value!r}")
    return float(value)


def _load_config(path: str, keys) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail_config(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail_config(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail_config(f"config {path} must be a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        _fail_config(f"unknown config keys {unknown}; allowed: {sorted(keys)}")
    return doc


def _fields(value, name: str, schema) -> dict:
    """Numeric keyword arguments for the dataclass schema from a config object."""
    if not isinstance(value, dict):
        _fail_config(f"{name} must be an object")
    allowed = sorted(f.name for f in fields(schema))
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        _fail_config(f"unknown {name} keys {unknown}; allowed: {allowed}")
    return {k: _as_number(v, f"{name}.{k}") for k, v in value.items()}


def _parse_grid(text) -> np.ndarray:
    if not isinstance(text, str):
        _fail_config("grid must be a 'start:stop:count' string")
    parts = text.split(":")
    if len(parts) != 3:
        _fail_config(f"grid must be 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        _fail_config(f"grid must be 'start:stop:count' with numeric fields, got {text!r}")
    if not (np.isfinite(start) and np.isfinite(stop)) or count < 0:
        _fail_config(f"grid bounds must be finite and count nonnegative, got {text!r}")
    if count >= 2 and not stop > start:
        _fail_config(f"grid must be strictly increasing, got {text!r}")
    return np.linspace(start, stop, count)


def _resolve(args, keys) -> dict:
    """Validate and build the settings in keys (flag > config file > default)."""
    raw = {} if args.config is None else _load_config(args.config, keys)
    raw.update({k: v for k in keys if (v := getattr(args, k, None)) is not None})
    cfg = {"output": raw.get("output")}
    if "params" in keys:
        kwargs = _fields(raw.get("params", {}), "params", SystemParams)
        if "g" not in kwargs and "a" not in kwargs:
            kwargs["g"] = 1.0  # the coupling when neither g nor a is given
        cfg["params"] = SystemParams(**kwargs)
    if "box" in keys:
        box = raw.get("box", {})
        if isinstance(box, dict):  # the box flags override the file field by field
            box = {**box, **{k: v for k in ("L", "eta", "p_cut")
                             if (v := getattr(args, k)) is not None}}
        kwargs = _fields(box, "box", BoxOracleConfig)
        if "max_points" in kwargs:
            points = kwargs["max_points"]
            if not (math.isfinite(points) and points.is_integer()):
                _fail_config(f"box.max_points must be a whole number, got {points!r}")
            kwargs["max_points"] = int(points)
        cfg["box"] = BoxOracleConfig(**kwargs)
    if "tol" in keys:
        cfg["tol"] = _as_number(raw.get("tol", _DEFAULT_REL_TOL), "tol")
        _check_rel_tol(cfg["tol"])
    if "tolerances" in keys:
        cfg["tolerances"] = raw.get("tolerances", {})
        if not isinstance(cfg["tolerances"], dict):
            _fail_config("tolerances must be an object of check-name: value")
    if "format" in keys:
        cfg["format"] = raw.get("format", "csv")
        if cfg["format"] not in ("csv", "json"):
            _fail_config(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    if cfg["output"] is not None and not isinstance(cfg["output"], str):
        _fail_config("output must be a path string")
    if "grid" in keys:
        cfg["grid"] = raw.get("grid")
    return cfg


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return _FMT % value


def _csv_rows(rows) -> list:
    """Each row as ",".join(map(_cell, row)), with one row format per table.

    A column of Python floats only is formatted by _FMT inside the row
    format; any other column (bools, strings, a None among floats) goes
    through _cell.
    """
    columns = list(zip(*rows))
    plain = [{float}.issuperset(map(type, col)) for col in columns]
    row_format = ",".join(_FMT if p else "%s" for p in plain)
    cells = zip(*(col if p else map(_cell, col) for col, p in zip(columns, plain)))
    return [row_format % row for row in cells]


def _render(cfg: dict, command: str, grid, header, rows, extra: dict) -> str:
    """CSV with extra as '# k = v' comments, or JSON with extra among the results."""
    if cfg["format"] == "csv":
        lines = [f"# {k} = {_FMT % v}" for k, v in extra.items()]
        lines.append(",".join(header))
        lines.extend(_csv_rows(rows))
        return "\n".join(lines) + "\n"
    inputs = {"command": command, "params": asdict(cfg["params"]), "grid": grid}
    if "box" in cfg:
        inputs["box"] = asdict(cfg["box"])
    meta = {"version": __version__}
    if "tol" in cfg:  # only commands that read a quadrature tolerance echo it
        meta["tolerances"] = {"tol": cfg["tol"]}
    doc = {
        "inputs": inputs,
        "results": {"rows": [dict(zip(header, row)) for row in rows], **extra},
        "meta": meta,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        # newline="" so the '\n' endings survive untranslated on any platform
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_config(f"cannot write output {path}: {exc}")


def cmd_dispersion(cfg: dict, grid):
    params = cfg["params"]
    rows = []
    for p in grid.tolist():
        eps = dispersion(p, params)
        w = coupling_weight(p, params)
        if p == 0.0:
            alpha = beta = None  # transform is singular at p = 0
        else:
            co = transform_coefficients(p, params)
            alpha, beta = co.alpha, co.beta
        rows.append([p, eps, alpha, beta, w])
    return ["p", "epsilon", "alpha", "beta", "w"], rows, {}


def cmd_rates(cfg: dict, grid):
    params = cfg["params"]
    header = [
        "q_i", "p_M", "theta_M_deg", "gamma_T_closed", "gamma_T_quad",
        "gamma_E", "dissipative", "smallness",
    ]
    # closed route first: on an increasing grid it leaves the float range before the
    # quadrature does, and every window failure is a closed failure at the same point
    closed = transition_rate(grid, params)
    win = emission_window(grid, params)
    quad = transition_rate_quadrature(grid, params, tol=cfg["tol"])
    columns = zip(grid.tolist(), win.p_max.tolist(), win.cos_theta_max.tolist(),
                  closed.gamma_T.tolist(), quad.gamma_T.tolist(), closed.gamma_E.tolist(),
                  win.dissipative.tolist(), closed.smallness.tolist())
    rows = [
        [q_i, p_max, math.degrees(math.acos(cos_max)), g_closed, g_quad, g_E, dissipative, small]
        for q_i, p_max, cos_max, g_closed, g_quad, g_E, dissipative, small in columns
    ]
    return header, rows, {}


def cmd_spectrum(cfg: dict, grid):
    params = cfg["params"]
    points = energy_spectrum(grid, params) if grid.size else []
    mass = effective_mass_closed(params)
    rows = [
        [pt.q_i, pt.energy, pt.components["mean_field"], pt.components["fluctuation"]]
        for pt in points
    ]
    extra = {"M_ef": mass.M_ef, "correction": mass.correction}
    return ["q_i", "E_p", "mean_field", "fluctuation"], rows, extra


def cmd_effective_mass(cfg: dict, grid):
    params = cfg["params"]
    results = [
        effective_mass_closed(params),
        effective_mass_quadrature(params, tol=cfg["tol"]),
        effective_mass_finite_difference(params),
    ]
    rows = [[r.method, r.M_ef, r.correction] for r in results]
    return ["method", "M_ef", "correction"], rows, {}


def cmd_fig1(cfg: dict, grid):
    rows = [[x, I0(x), I1(x)] for x in grid.tolist()]
    return ["x", "I0", "I1"], rows, {}


def cmd_box_oracle(cfg: dict, grid):
    params = cfg["params"]
    box = cfg["box"]
    header = [
        "q_i", "L", "eta", "p_cut", "gamma_T_box", "gamma_T_closed",
        "rel_dev", "est_error",
    ]
    try:
        closed = transition_rate(grid, params).gamma_T
    except NumericalError:
        # per point the closed rate comes before the box rate, so a box failure at an
        # earlier point comes first: replay the points in that order to raise it
        for q_i in grid.tolist():
            transition_rate(q_i, params)
            box_rate(q_i, params, box)
        raise
    oracle = box_rate(grid, params, box)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(closed != 0.0, (oracle.gamma_T - closed) / closed, math.nan)
    columns = zip(grid.tolist(), oracle.gamma_T.tolist(), closed.tolist(), rel.tolist(),
                  oracle.est_error.tolist())
    rows = [[q_i, box.L, box.eta, box.p_cut, g_box, g_closed, dev, est]
            for q_i, g_box, g_closed, dev, est in columns]
    return header, rows, {}


def cmd_check(cfg: dict) -> int:
    overrides = cfg["tolerances"] or None
    results = run_all(overrides)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{status} {r.name}: measured {r.measured:.6g} vs tolerance "
            f"{r.tolerance:.6g}; {r.detail}\n"
        )
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)} passed, {len(failed)} failed\n")
    if cfg["output"] is not None:
        doc = {
            "inputs": {"tolerances": overrides or {}},
            "results": [asdict(r) for r in results],
            "meta": {
                "version": __version__,
                "tolerances": {r.name: r.tolerance for r in results},
            },
        }
        _emit(cfg["output"], json.dumps(doc, indent=2) + "\n")
    return 1 if failed else 0


class _Command(NamedTuple):
    run: Callable
    help: str
    grid: str | None = None  # default sweep grid "start:stop:count", None if no sweep
    reads: tuple = ()        # settings read besides params, format, grid and output
    table: bool = True       # run(cfg, grid) returns (header, rows, extra) to render

    @property
    def keys(self) -> tuple:
        """Every setting the command reads, in flag-registration order."""
        table = ("params", "format") if self.table else ()
        grid = ("grid",) if self.grid is not None else ()
        return table + grid + self.reads + ("output",)


_COMMANDS = {
    "dispersion": _Command(
        cmd_dispersion, "excitation spectrum, transform coefficients, coupling weight",
        grid="0:3:7"),
    "rates": _Command(
        cmd_rates, "transition and dissipation rates over a momentum grid",
        grid="0.25:3:12", reads=("tol",)),
    "spectrum": _Command(
        cmd_spectrum, "subcritical impurity energy and its components", grid="0:0.9:10"),
    "effective-mass": _Command(
        cmd_effective_mass, "dressed mass by closed form, integral, and stencil",
        reads=("tol",)),
    "fig1": _Command(
        cmd_fig1, "fluctuation integrals I0 and I1 over a mass-ratio grid", grid="0.02:5:250"),
    "box-oracle": _Command(
        cmd_box_oracle, "finite-box golden-rule rate vs the closed form",
        grid="2:2:1", reads=("box",)),
    "check": _Command(
        cmd_check, "run the verification suite (JSON report via --output)",
        reads=("tolerances",), table=False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becimpurity",
        description="Impurity-in-condensate rates, spectra, and self-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help=(
            "write the table here instead of stdout" if command.table else
            "write the JSON report here; PASS/FAIL lines stay on stdout"))
        for key in command.keys:
            for flag, options in _FLAGS.get(key, ()):
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Run one becimpurity subcommand; the exit code is 0, 1 (a failed check), 2 or 3.

    This is a process entry point: the console script and ``python -m
    becimpurity``. Its first act is ``gc.freeze()``. The objects the imports
    left alive, numpy's included, move to the permanent generation, which no
    later collection scans, not even the ones interpreter exit runs; that is
    most of the exit time of a short run. The freeze outlasts the call: in a
    caller's own process, whatever was alive at the call stays until the
    process exits, so a long-lived caller should use the library functions.
    """
    gc.freeze()
    args = _build_parser().parse_args(argv)
    # argparse leaves ~350 objects in reference cycles, and the freeze restarts the
    # allocation count that triggers a collection, so a short command could run
    # none and hold them through its run (0.1 MB more peak RSS on a box-oracle op);
    # this collection scans only what was made since the freeze
    gc.collect()
    command = _COMMANDS[args.command]
    try:
        cfg = _resolve(args, command.keys)
        if not command.table:
            return command.run(cfg)
        grid = command.grid if cfg.get("grid") is None else cfg["grid"]
        header, rows, extra = command.run(cfg, None if grid is None else _parse_grid(grid))
        _emit(cfg["output"], _render(cfg, args.command, grid, header, rows, extra))
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
