"""Command-line front end.

Reads a JSON configuration, runs sweeps, and emits plot-ready CSV or JSON
tables; the check subcommand runs the built-in verification suite. Output is
deterministic: floats are serialized with 17 significant digits, lines end
with a bare newline, and rerunning a command with the same config reproduces
the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bogoliubov import coupling_weight, dispersion, transform_coefficients
from .checks import run_all
from .errors import ConfigurationError, DomainError, NumericalError
from .kinematics import emission_window
from .params import SystemParams
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

_CONFIG_KEYS = {"params", "grid", "tol", "box", "tolerances", "output", "format"}
_PARAM_KEYS = {"m", "M", "n", "U0", "g", "a"}
_BOX_KEYS = {"L", "eta", "p_cut", "max_points"}

_DEFAULT_PARAMS = {"m": 1.0, "M": 1.0, "n": 1.0, "U0": 1.0, "g": 1.0}
_DEFAULT_BOX = {"L": 60.0, "eta": 0.05, "p_cut": 3.0}

# per-command default grids, "start:stop:count"
_DEFAULT_GRIDS = {
    "dispersion": "0:3:7",
    "rates": "0.25:3:12",
    "spectrum": "0:0.9:10",
    "fig1": "0.02:5:250",
    "box-oracle": "2:2:1",
}


def _fail_config(msg: str):
    raise ConfigurationError(msg)


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail_config(f"{where} must be a number, got {value!r}")
    return float(value)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail_config(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail_config(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail_config(f"config {path} must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        _fail_config(f"unknown config keys {unknown}; allowed: {sorted(_CONFIG_KEYS)}")
    return doc


def _parse_grid(text: str) -> np.ndarray:
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


def _resolve(args) -> dict:
    """Merge defaults, config file, and flags (flag > file > default)."""
    cfg = {
        "params": dict(_DEFAULT_PARAMS),
        "grid": None,
        "tol": 1e-10,
        "box": dict(_DEFAULT_BOX),
        "tolerances": {},
        "output": None,
        "format": "csv",
    }
    if args.config is not None:
        file_cfg = _load_config(args.config)
        for key, value in file_cfg.items():
            cfg[key] = value
    # a command registers only the flags it reads; absent ones are None
    for key in ("output", "format", "grid", "tol"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for flag, key in (("L", "L"), ("eta", "eta"), ("pcut", "p_cut")):
        value = getattr(args, flag, None)
        if value is not None:
            box = dict(cfg["box"])
            box[key] = value
            cfg["box"] = box

    if not isinstance(cfg["params"], dict):
        _fail_config("params must be an object")
    unknown = sorted(set(cfg["params"]) - _PARAM_KEYS)
    if unknown:
        _fail_config(f"unknown params keys {unknown}; allowed: {sorted(_PARAM_KEYS)}")
    kwargs = {k: _as_number(v, f"params.{k}") for k, v in cfg["params"].items()}
    cfg["system"] = SystemParams(**kwargs)

    if not isinstance(cfg["box"], dict):
        _fail_config("box must be an object")
    unknown = sorted(set(cfg["box"]) - _BOX_KEYS)
    if unknown:
        _fail_config(f"unknown box keys {unknown}; allowed: {sorted(_BOX_KEYS)}")
    box_kwargs = {k: _as_number(v, f"box.{k}") for k, v in cfg["box"].items()}
    if "max_points" in box_kwargs:
        box_kwargs["max_points"] = int(box_kwargs["max_points"])
    cfg["box_config"] = BoxOracleConfig(**box_kwargs)

    tol = _as_number(cfg["tol"], "tol")
    if not (math.isfinite(tol) and tol > 0):
        _fail_config(f"tol must be positive, got {tol!r}")
    cfg["tol"] = tol

    if not isinstance(cfg["tolerances"], dict):
        _fail_config("tolerances must be an object of check-name: value")
    if cfg["format"] not in ("csv", "json"):
        _fail_config(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    if cfg["output"] is not None and not isinstance(cfg["output"], str):
        _fail_config("output must be a path string")
    if cfg["grid"] is not None and not isinstance(cfg["grid"], str):
        _fail_config("grid must be a 'start:stop:count' string")
    return cfg


def _grid_values(cfg: dict, command: str) -> np.ndarray:
    text = cfg["grid"] if cfg["grid"] is not None else _DEFAULT_GRIDS[command]
    cfg["grid"] = text
    return _parse_grid(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return _FMT % value


def _to_csv(header, rows, comments=()) -> str:
    lines = ["# " + c for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_rows(header, rows) -> list:
    return [dict(zip(header, row)) for row in rows]


def _inputs_snapshot(cfg: dict, command: str, with_box: bool = False) -> dict:
    p = cfg["system"]
    snap = {
        "command": command,
        "params": {"m": p.m, "M": p.M, "n": p.n, "U0": p.U0, "g": p.g, "a": p.a},
        "grid": cfg.get("grid"),
    }
    if with_box:
        b = cfg["box_config"]
        snap["box"] = {"L": b.L, "eta": b.eta, "p_cut": b.p_cut, "max_points": b.max_points}
    return snap


def _emit(cfg: dict, text: str):
    path = cfg["output"]
    if path is None:
        sys.stdout.write(text)
        return
    try:
        # newline="" so the '\n' endings survive untranslated on any platform
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_config(f"cannot write output {path}: {exc}")


def _render(cfg, command, header, rows, comments=(), extra_results=None, with_box=False) -> str:
    if cfg["format"] == "csv":
        return _to_csv(header, rows, comments)
    results = {"rows": _json_rows(header, rows)}
    if extra_results:
        results.update(extra_results)
    doc = {
        "inputs": _inputs_snapshot(cfg, command, with_box=with_box),
        "results": results,
        "meta": {"version": __version__, "tolerances": {"tol": cfg["tol"]}},
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_dispersion(cfg: dict) -> int:
    params = cfg["system"]
    header = ["p", "epsilon", "alpha", "beta", "w"]
    rows = []
    for p in _grid_values(cfg, "dispersion"):
        p = float(p)
        eps = dispersion(p, params)
        w = coupling_weight(p, params)
        if p == 0.0:
            alpha = beta = None  # transform is singular at p = 0
        else:
            co = transform_coefficients(p, params)
            alpha, beta = co.alpha, co.beta
        rows.append([p, eps, alpha, beta, w])
    _emit(cfg, _render(cfg, "dispersion", header, rows))
    return 0


def cmd_rates(cfg: dict) -> int:
    params = cfg["system"]
    header = [
        "q_i", "p_M", "theta_M_deg", "gamma_T_closed", "gamma_T_quad",
        "gamma_E", "dissipative", "smallness",
    ]
    rows = []
    for q_i in _grid_values(cfg, "rates"):
        q_i = float(q_i)
        win = emission_window(q_i, params)
        closed = transition_rate(q_i, params)
        quad = transition_rate_quadrature(q_i, params, tol=cfg["tol"])
        theta = math.degrees(math.acos(win.cos_theta_max))
        rows.append([
            q_i, win.p_max, theta, closed.gamma_T, quad.gamma_T,
            closed.gamma_E, win.dissipative, closed.smallness,
        ])
    _emit(cfg, _render(cfg, "rates", header, rows))
    return 0


def cmd_spectrum(cfg: dict) -> int:
    params = cfg["system"]
    grid = _grid_values(cfg, "spectrum")
    points = energy_spectrum(grid, params) if grid.size else []
    mass = effective_mass_closed(params)
    header = ["q_i", "E_p", "mean_field", "fluctuation"]
    rows = [
        [pt.q_i, pt.energy, pt.components["mean_field"], pt.components["fluctuation"]]
        for pt in points
    ]
    comments = ["M_ef = " + (_FMT % mass.M_ef), "correction = " + (_FMT % mass.correction)]
    extra = {"M_ef": mass.M_ef, "correction": mass.correction}
    _emit(cfg, _render(cfg, "spectrum", header, rows, comments=comments, extra_results=extra))
    return 0


def cmd_effective_mass(cfg: dict) -> int:
    params = cfg["system"]
    header = ["method", "M_ef", "correction"]
    results = [
        effective_mass_closed(params),
        effective_mass_quadrature(params, tol=cfg["tol"]),
        effective_mass_finite_difference(params),
    ]
    rows = [[r.method, r.M_ef, r.correction] for r in results]
    _emit(cfg, _render(cfg, "effective-mass", header, rows))
    return 0


def cmd_fig1(cfg: dict) -> int:
    header = ["x", "I0", "I1"]
    rows = []
    for x in _grid_values(cfg, "fig1"):
        x = float(x)
        rows.append([x, I0(x), I1(x)])
    _emit(cfg, _render(cfg, "fig1", header, rows))
    return 0


def cmd_box_oracle(cfg: dict) -> int:
    params = cfg["system"]
    box = cfg["box_config"]
    header = [
        "q_i", "L", "eta", "p_cut", "gamma_T_box", "gamma_T_closed",
        "rel_dev", "est_error",
    ]
    rows = []
    for q_i in _grid_values(cfg, "box-oracle"):
        q_i = float(q_i)
        closed = transition_rate(q_i, params).gamma_T
        oracle = box_rate(q_i, params, box)
        rel = (oracle.gamma_T - closed) / closed if closed != 0.0 else math.nan
        rows.append([q_i, box.L, box.eta, box.p_cut, oracle.gamma_T, closed, rel,
                     oracle.est_error])
    _emit(cfg, _render(cfg, "box-oracle", header, rows, with_box=True))
    return 0


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
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in results
            ],
            "meta": {
                "version": __version__,
                "tolerances": {r.name: r.tolerance for r in results},
            },
        }
        _emit(cfg, json.dumps(doc, indent=2) + "\n")
    return 1 if failed else 0


_COMMANDS = {
    "dispersion": cmd_dispersion,
    "rates": cmd_rates,
    "spectrum": cmd_spectrum,
    "effective-mass": cmd_effective_mass,
    "fig1": cmd_fig1,
    "box-oracle": cmd_box_oracle,
    "check": cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becimpurity",
        description="Impurity-in-condensate rates, spectra, and self-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "dispersion": "excitation spectrum, transform coefficients, coupling weight",
        "rates": "transition and dissipation rates over a momentum grid",
        "spectrum": "subcritical impurity energy and its components",
        "effective-mass": "dressed mass by closed form, integral, and stencil",
        "fig1": "fluctuation integrals I0 and I1 over a mass-ratio grid",
        "box-oracle": "finite-box golden-rule rate vs the closed form",
        "check": "run the verification suite (JSON report via --output)",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="write the table here instead of stdout")
        if name != "check":
            p.add_argument("--format", choices=("csv", "json"))
        if name in _DEFAULT_GRIDS:
            p.add_argument("--grid", help="sweep grid start:stop:count")
        if name in ("rates", "effective-mass"):
            p.add_argument("--tol", type=float, help="quadrature relative tolerance")
        if name == "box-oracle":
            p.add_argument("--L", type=float, help="box side length")
            p.add_argument("--eta", type=float, help="Lorentzian width")
            p.add_argument("--pcut", type=float, help="lattice momentum cap")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
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
