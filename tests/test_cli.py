import dataclasses
import json
import math
import os
import pathlib
import platform
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import becimpurity
from becimpurity import DEFAULT_TOLERANCES
from becimpurity import cli
from becimpurity.cli import _CHUNK, _COMMANDS, _cell, _csv_rows, _emit, _render, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dispersion_csv_golden(capsys):
    code, out, err = run(capsys, "dispersion")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "p,epsilon,alpha,beta,w"
    assert lines[1] == "0,0,,,0"  # transform is singular at p = 0
    assert len(lines) == 8  # header + 7 grid points
    assert out.endswith("\n")


def test_empty_grid_gives_header_only(capsys):
    code, out, _ = run(capsys, "dispersion", "--grid", "0:1:0")
    assert code == 0
    assert out == "p,epsilon,alpha,beta,w\n"


def test_json_format_carries_version_and_inputs(capsys):
    code, out, _ = run(capsys, "dispersion", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["version"] == becimpurity.__version__
    assert doc["inputs"]["command"] == "dispersion"
    assert doc["inputs"]["params"]["g"] == 1.0
    assert len(doc["results"]["rows"]) == 7
    assert doc["results"]["rows"][0]["alpha"] is None


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rates", "--output", str(a)]) == 0
    assert main(["rates", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_config_file_params_reach_the_physics(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"a": 0.01}}))
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert out.startswith("# M_ef = 1.0002845253")


def test_flag_overrides_config_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "0:1:3"}))
    code, out, _ = run(capsys, "dispersion", "--config", str(cfg), "--grid", "0:1:5")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": "0:1:3"}))
    code, _, err = run(capsys, "dispersion", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_unknown_params_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"mass": 2.0}}))
    code, _, err = run(capsys, "dispersion", "--config", str(cfg))
    assert code == 2
    assert "params" in err


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(capsys, "dispersion", "--config", str(cfg))[0] == 2
    cfg.write_text("{not json")
    assert run(capsys, "dispersion", "--config", str(cfg))[0] == 2
    missing = tmp_path / "nope.json"
    assert run(capsys, "dispersion", "--config", str(missing))[0] == 2


@pytest.mark.parametrize("grid", ["1:2", "2:1:5", "a:b:3", "0:1:-2"])
def test_bad_grids_rejected(grid, capsys):
    code, _, err = run(capsys, "dispersion", "--grid", grid)
    assert code == 2
    assert "grid" in err


def test_nonpositive_tol_rejected(capsys):
    code, _, err = run(capsys, "rates", "--tol", "-1")
    assert code == 2
    assert "tol" in err


def test_unreachable_tol_is_a_numerical_failure(capsys):
    code, _, err = run(capsys, "rates", "--tol", "1e-18", "--grid", "2:2:1")
    assert code == 3
    assert "numerical failure" in err


# gamma_E = s_max**4/(pi*v) is in range up to q_i of about 2.08e103 at unit parameters
@pytest.mark.parametrize("grid", ["1e104:1e106:3", "1e200:1e201:2"])
def test_rates_beyond_the_float_range_are_a_numerical_failure(grid, capsys):
    code, out, err = run(capsys, "rates", "--grid", grid)
    assert code == 3
    assert err.startswith("numerical failure: ") and "float range" in err
    assert out == ""


# the first error of a grid, as the point-by-point sweep reported it: the
# closed route and the window come before the quadrature. gamma_E leaves the
# float range from q_i of about 2.08e103, while p_max is in range at 1e200
@pytest.mark.parametrize("argv,err", [
    (("--grid", "1e102:1e104:3"), "closed-form rates at q_i = 5.05e+103 leave the float range"),
    (("--grid", "1e104:1e106:3"), "closed-form rates at q_i = 1e+104 leave the float range"),
    (("--grid", "1e200:1e201:2"), "closed-form rates at q_i = 1e+200 leave the float range"),
    (("--tol", "1e-18", "--grid", "2:2:1"),
     "subdivision budget (200) exhausted: error estimate 1.356e-15 above target 1.222e-19"),
    (("--grid", "1e78:1e200:3"), "closed-form rates at q_i = 5e+199 leave the float range"),
])
def test_rates_failures_report_the_first_error_of_the_grid(argv, err, capsys):
    code, out, got = run(capsys, "rates", *argv)
    assert (code, out, got) == (3, "", f"numerical failure: {err}\n")


@pytest.mark.parametrize("params", [{}, {"m": 1.3, "M": 2.0, "n": 0.7, "U0": 1.1, "g": 0.9}])
def test_rates_match_a_point_by_point_reference(params, tmp_path, capsys):
    from becimpurity import (
        SystemParams, emission_window, transition_rate, transition_rate_quadrature,
    )

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    code, out, _ = run(capsys, "rates", "--grid", "0.5:6:60", "--config", str(cfg))
    assert code == 0
    sp = SystemParams(**{"g": 1.0, **params})
    lines = ["q_i,p_M,theta_M_deg,gamma_T_closed,gamma_T_quad,gamma_E,dissipative,smallness"]
    for q_i in np.linspace(0.5, 6.0, 60).tolist():
        win = emission_window(q_i, sp)
        closed = transition_rate(q_i, sp)
        quad = transition_rate_quadrature(q_i, sp)
        cells = [q_i, win.p_max, math.degrees(math.acos(win.cos_theta_max)), closed.gamma_T,
                 quad.gamma_T, closed.gamma_E]
        lines.append(",".join(["%.17g" % v for v in cells]
                              + ["true" if win.dissipative else "false", "%.17g" % closed.smallness]))
    assert out == "\n".join(lines) + "\n"
    assert "false" in out and "true" in out


def test_dispersion_beyond_the_float_range_is_a_numerical_failure(capsys):
    code, out, err = run(capsys, "dispersion", "--grid", "0:1e155:2")
    assert (code, out) == (3, "")
    assert err == "numerical failure: excitation energy at p = 1e+155 leaves the float range\n"


def _child_env():
    """The environment of a fresh interpreter that imports this source tree's becimpurity."""
    src = pathlib.Path(becimpurity.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(src)}


def _python(*args):
    """Run a fresh interpreter that imports this source tree's becimpurity."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env=_child_env())


def test_dispersion_overflow_leaks_no_warning():
    proc = _python("-W", "always", "-m", "becimpurity", "dispersion", "--grid", "0:1e155:2")
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == b"numerical failure: excitation energy at p = 1e+155 leaves the float range\n"


def test_spectrum_beyond_critical_momentum_is_domain_error(capsys):
    code, _, err = run(capsys, "spectrum", "--grid", "0:2:5")
    assert code == 2
    assert "domain error" in err


def test_output_to_missing_directory_rejected(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    code, _, err = run(capsys, "dispersion", "--output", str(target))
    assert code == 2
    assert "cannot write output" in err


def test_check_reports_designed_failures(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 1
    lines = out.splitlines()
    failed = {ln.split()[1].rstrip(":") for ln in lines if ln.startswith("FAIL ")}
    assert failed == {
        "heavy_mass_dissipation_limit",
        "box_schedule_monotone",
        "branch_point_one_sided",
    }
    assert lines[-1] == "19 passed, 3 failed"


def test_check_json_report_covers_every_check(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["check", "--output", str(report)])
    capsys.readouterr()
    assert code == 1
    doc = json.loads(report.read_text())
    names = [r["name"] for r in doc["results"]]
    assert names == list(DEFAULT_TOLERANCES)
    assert doc["meta"]["version"] == becimpurity.__version__
    assert all(isinstance(r["passed"], bool) for r in doc["results"])


def test_check_passes_with_relaxed_tolerances(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {
        "heavy_mass_dissipation_limit": 0.06,
        "box_schedule_monotone": 0.009,
        "branch_point_one_sided": 2e-5,
    }}))
    code, out, _ = run(capsys, "check", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[-1] == "22 passed, 0 failed"


def test_check_rejects_negative_tolerance_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"landau_exact_zero": -1.0}}))
    code, _, err = run(capsys, "check", "--config", str(cfg))
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize("argv", [
    ("dispersion", "--tol", "1e-3"),
    ("check", "--grid", "0:1:2"),
    ("check", "--format", "json"),
])
def test_flags_a_command_ignores_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_box_oracle_flags_reach_the_row(capsys):
    code, out, _ = run(capsys, "box-oracle", "--L", "30", "--eta", "0.1")
    assert code == 0
    header, row = out.splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["L"] == "30"
    assert cols["eta"] == "0.10000000000000001"  # %.17g of 0.1
    assert cols["p_cut"] == "3"
    assert float(cols["est_error"]) > 0.0


def test_box_oracle_grid_rows_match_one_point_runs(capsys):
    flags = ("--L", "30", "--eta", "0.1")
    code, out, _ = run(capsys, "box-oracle", *flags, "--grid", "0.5:2.5:5")
    assert code == 0
    header, *rows = out.splitlines()
    for row in rows:
        q_i = row.split(",")[0]
        code, one, _ = run(capsys, "box-oracle", *flags, "--grid", f"{q_i}:{q_i}:1")
        assert code == 0 and one == f"{header}\n{row}\n"


@pytest.mark.parametrize("params, argv, code, err", [
    # the window of 5.0 fails before the closed rate of 1e80 is formed
    ({}, ("--grid", "5:1e80:2"), 2,
     "configuration error: p_cut = 3.0 does not cover the emission window (p_max = 4.8)\n"),
    # the closed rate of 2.0 fails before the window of 5.0 is checked
    ({"g": 1e160}, ("--L", "30", "--eta", "0.1", "--grid", "2:5:2"), 3,
     "numerical failure: closed-form rates at q_i = 2.0 leave the float range\n"),
    # the box rate of 0.5 (closed rate 0) fails before the closed rate of 2.0
    ({"g": 1e160}, ("--L", "20", "--eta", "0.3", "--grid", "0.5:2:2"), 3,
     "numerical failure: smallness at q_i = 0.5 leaves the float range\n"),
], ids=["window-first", "closed-first", "box-first"])
def test_box_oracle_raises_at_the_first_failing_point(params, argv, code, err, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    assert run(capsys, "box-oracle", "--config", str(cfg), *argv) == (code, "", err)


def test_effective_mass_lists_all_three_methods(capsys):
    code, out, _ = run(capsys, "effective-mass")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,M_ef,correction"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "closed", "quadrature", "finite_difference",
    ]


def test_fig1_equal_mass_row_is_exact(capsys):
    code, out, _ = run(capsys, "fig1", "--grid", "1:1:1")
    assert code == 0
    assert out.splitlines()[1] == "1,1.3333333333333333,0.13333333333333333"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert becimpurity.__version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _help_text(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping


def test_output_help_names_what_each_command_writes(capsys):
    assert ("--output OUTPUT write the JSON report here; PASS/FAIL lines stay on stdout"
            in _help_text(capsys, "check"))
    assert "--output OUTPUT write the table here instead of stdout" in _help_text(capsys, "rates")


def test_config_params_fall_back_to_defaults_field_by_field(tmp_path, capsys):
    partial, full = tmp_path / "partial.json", tmp_path / "full.json"
    partial.write_text(json.dumps({"params": {"M": 2.0}}))
    full.write_text(json.dumps(
        {"params": {"m": 1.0, "M": 2.0, "n": 1.0, "U0": 1.0, "g": 1.0}}))
    got = run(capsys, "rates", "--config", str(partial))
    want = run(capsys, "rates", "--config", str(full))
    assert got[0] == 0
    assert got == want


def test_scattering_length_alone_derives_g_without_warning(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"a": 0.01}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "rates", "--config", str(cfg), "--format", "json")
    assert code == 0 and err == ""
    params = json.loads(out)["inputs"]["params"]
    assert params["a"] == 0.01
    assert params["g"] == pytest.approx(2 * math.pi * 0.01 / 0.5, rel=1e-15)  # 2*pi*a/m_r


@pytest.mark.parametrize("command, doc", [
    ("fig1", {"box": {"L": 30.0}}),
    ("check", {"params": {"M": 2.0}}),
    ("check", {"format": "json"}),
    ("check", {"tol": 1e-3}),
    ("check", {"grid": "0:1:2"}),
    ("dispersion", {"tol": 1e-3}),
], ids=["fig1-box", "check-params", "check-format", "check-tol", "check-grid", "dispersion-tol"])
def test_config_keys_a_command_ignores_are_rejected(command, doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"unknown config keys {sorted(doc)}" in err


@pytest.mark.parametrize("points", [math.inf, 2.7])
def test_box_max_points_must_be_a_whole_number(points, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": {"max_points": points}}))  # inf -> Infinity
    code, out, err = run(capsys, "box-oracle", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "configuration error: box.max_points must be a whole number" in err


@pytest.mark.parametrize("argv, message", [
    (("--L", "1e-110", "--grid", "2:2:1"), "box volume L**3 with L = 1e-110 leaves the float range"),
    (("--L", "1e120", "--pcut", "1e-118", "--grid", "0.5:0.5:1"),
     "box volume L**3 with L = 1e+120 leaves the float range"),
], ids=["zero", "inf"])
def test_box_volume_outside_the_float_range_is_a_configuration_error(argv, message, capsys):
    assert run(capsys, "box-oracle", *argv) == (2, "", f"configuration error: {message}\n")


# one row per rejection branch of the config file's settings
@pytest.mark.parametrize("command, doc, message", [
    ("rates", {"params": {"m": "1"}}, "params.m must be a number, got '1'"),
    ("rates", {"params": 3}, "params must be an object"),
    ("box-oracle", {"box": []}, "box must be an object"),
    ("rates", {"grid": 3}, "grid must be a 'start:stop:count' string"),
    ("check", {"tolerances": []}, "tolerances must be an object of check-name: value"),
    ("rates", {"format": "xml"}, "format must be 'csv' or 'json', got 'xml'"),
    ("rates", {"output": 3}, "output must be a path string"),
    ("check", {"tolerances": {"landau_exact_zero": "x"}},
     "tolerance for 'landau_exact_zero' must be a number, got 'x'"),
    ("check", {"tolerances": {"landau_exact_zero": True}},
     "tolerance for 'landau_exact_zero' must be a number, got True"),
], ids=["params-field", "params", "box", "grid", "tolerances", "format", "output",
        "tolerance-str", "tolerance-bool"])
def test_config_values_of_the_wrong_type_are_rejected(command, doc, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(capsys, command, "--config", str(cfg)) == (2, "", f"configuration error: {message}\n")


def test_box_max_points_accepts_an_integral_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": {"max_points": 1e6}, "format": "json"}))
    code, out, err = run(capsys, "box-oracle", "--config", str(cfg))
    assert code == 0 and err == ""
    assert json.loads(out)["inputs"]["box"]["max_points"] == 1_000_000
    assert '"max_points": 1000000\n' in out  # an int, not 1000000.0


@pytest.mark.parametrize("command", [n for n, c in _COMMANDS.items() if c.table])
def test_json_meta_echoes_tol_only_where_it_is_read(command, capsys):
    grid = ("--grid", "0.5:0.9:2") if _COMMANDS[command].grid is not None else ()
    code, out, _ = run(capsys, command, "--format", "json", *grid)
    assert code == 0
    meta = json.loads(out)["meta"]
    if "tol" in _COMMANDS[command].keys:
        assert meta == {"version": becimpurity.__version__, "tolerances": {"tol": 1e-10}}
    else:
        assert meta == {"version": becimpurity.__version__}


def test_json_meta_echoes_the_tol_a_command_ran_with(capsys):
    code, out, _ = run(capsys, "rates", "--format", "json", "--grid", "2:2:1", "--tol", "1e-9")
    assert code == 0
    assert json.loads(out)["meta"]["tolerances"] == {"tol": 1e-9}


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line, comments=True) for block in blocks
            for line in block.splitlines() if line.startswith("becimpurity ")]


def _readme_config_rows():
    rows = re.findall(r"^\| ([a-z0-9-]+) +\| (`[^|]*`) +\| `(\{.*\})` +\|$",
                      README.read_text(), re.M)
    return [(name, re.findall(r"`(\w+)`", keys), json.loads(example))
            for name, keys, example in rows]


def test_readme_examples_cover_every_command():
    assert {argv[1] for argv in _readme_command_lines()} <= set(_COMMANDS)
    assert [name for name, _, _ in _readme_config_rows()] == list(_COMMANDS)


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_examples_run(argv, capsys):
    expected = 1 if argv[1] == "check" else 0  # the three designed failures
    assert run(capsys, *argv[1:])[0] == expected


def test_readme_library_examples_run():
    # in order and in one namespace, as a reader runs them: a later block reads params
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("name, keys, example", _readme_config_rows(),
                         ids=[row[0] for row in _readme_config_rows()])
def test_readme_config_table_matches_the_command(name, keys, example, tmp_path, capsys):
    assert keys + ["output"] == list(_COMMANDS[name].keys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(example))
    expected = 1 if name == "check" else 0
    code, _, err = run(capsys, name, "--config", str(cfg))
    assert (code, err) == (expected, "")


def test_csv_rows_keep_the_bytes_of_cell_by_cell_formatting():
    rows = [
        [0.0, None, True, "closed", 1e-310, np.float64(2.5), 3],
        [-0.0, 0.1, False, "quadrature", float("inf"), 1.0, 4],
        [1 / 3, float("nan"), True, "", -1e308, np.float64(-0.0), 5],
    ]
    assert _csv_rows(rows) == [",".join(map(_cell, row)) for row in rows]
    floats = [[x, -x, x * 1e300] for x in np.linspace(-3.0, 3.0, 101).tolist()]
    assert _csv_rows(floats) == [",".join(map(_cell, row)) for row in floats]
    assert _csv_rows([]) == []


def _one_shot_csv(header, rows, extra):
    """The CSV of a table in one pass, cell by cell."""
    lines = [f"# {k} = {_cell(v)}" for k, v in extra.items()]
    lines.append(",".join(header))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


# the dispersion table has None cells in its first chunk only; the rates grid
# crosses q_c = 1 inside the first chunk and has more than one chunk
@pytest.mark.parametrize("argv", [
    ("dispersion", "--grid", "0:3:600"),
    ("rates", "--grid", "0.5:3:700"),
    ("rates", "--grid", "0:1:0"),
    ("spectrum", "--grid", "0:0.9:300"),
    ("rates", "--grid", "0.5:3:700", "--format", "json"),
], ids=" ".join)
def test_chunked_output_equals_a_one_shot_rendering(argv, tmp_path, capsys):
    from becimpurity import SystemParams

    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    target = tmp_path / "table.out"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()
    params = SystemParams(g=1.0)
    start, stop, count = argv[2].split(":")
    grid = np.linspace(float(start), float(stop), int(count))
    header, rows, extra = _COMMANDS[argv[0]].run({"params": params, "tol": 1e-10}, grid)
    rows = list(rows)
    if "json" in argv:
        doc = {
            "inputs": {"command": argv[0], "params": dataclasses.asdict(params), "grid": argv[2]},
            "results": {"rows": [dict(zip(header, row)) for row in rows], **extra},
            "meta": {"version": becimpurity.__version__, "tolerances": {"tol": 1e-10}},
        }
        assert out == json.dumps(doc, indent=2) + "\n"
    else:
        assert out == _one_shot_csv(header, rows, extra)
    assert len(rows) == 0 or len(rows) > _CHUNK


def test_writing_a_table_holds_no_whole_copy_of_its_text(tmp_path):
    rows = [[x, x / 3, -x * 1e-7] for x in np.linspace(0.0, 1.0, 50_000).tolist()]
    target = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        _emit(str(target), _render({"format": "csv"}, "fig1", "0:1:50000", ["x", "I0", "I1"],
                                   rows, {}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = target.read_text(encoding="utf-8")
    assert text == _one_shot_csv(["x", "I0", "I1"], rows, {})
    assert peak < len(text) / 10, (peak, len(text))


def _one_json_document(argv):
    """json.dumps of a JSON table's whole document, as one call forms it."""
    cfg = cli._resolve(cli._build_parser().parse_args(argv), _COMMANDS[argv[0]].keys)
    grid = cfg["grid"]
    header, rows, extra = _COMMANDS[argv[0]].run(cfg, cli._parse_grid(grid))
    inputs = {"command": argv[0], "params": dataclasses.asdict(cfg["params"]), "grid": grid}
    if "box" in cfg:
        inputs["box"] = dataclasses.asdict(cfg["box"])
    meta = {"version": becimpurity.__version__}
    if "tol" in cfg:
        meta["tolerances"] = {"tol": cfg["tol"]}
    rows = [dict(zip(header, row)) for row in rows]
    doc = {"inputs": inputs, "results": {"rows": rows, **extra}, "meta": meta}
    return json.dumps(doc, indent=2) + "\n", len(rows)


# rates across a chunk boundary and on the empty grid, box-oracle with a NaN
# rel_dev (a subcritical point), spectrum with extra after its rows, and
# dispersion with null cells
@pytest.mark.parametrize("argv", [
    ("rates", "--grid", "0.5:3:700"),
    ("rates", "--grid", "0:1:0"),
    ("box-oracle", "--grid", "0.5:2:3", "--L", "20", "--eta", "0.15"),
    ("spectrum", "--grid", "0:0.9:300"),
    ("dispersion", "--grid", "0:3:5"),
], ids=" ".join)
def test_a_streamed_json_table_is_one_json_document(argv, tmp_path, capsys):
    argv = [*argv, "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    target = tmp_path / "table.json"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()
    want, count = _one_json_document(argv)
    assert out == want
    assert argv[2] != "0.5:3:700" or count > _CHUNK


def test_writing_a_json_table_holds_no_whole_copy_of_its_text(tmp_path):
    rows = [[x, x / 3, -x * 1e-7] for x in np.linspace(0.0, 1.0, 50_000).tolist()]
    cfg = {"format": "json", "params": becimpurity.SystemParams(g=1.0)}
    target = tmp_path / "table.json"
    tracemalloc.start()
    try:
        _emit(str(target), _render(cfg, "fig1", "0:1:50000", ["x", "I0", "I1"], rows, {}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = target.read_text(encoding="utf-8")
    assert json.loads(text)["results"]["rows"][-1] == {"x": 1.0, "I0": 1 / 3, "I1": -1e-7}
    assert peak < len(text) / 10, (peak, len(text))


def test_main_freezes_the_import_time_heap_on_every_exit(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": "0:1:3"}))
    argvs = [["dispersion"], ["check", "--output", str(tmp_path / "report.json")],
             ["dispersion", "--config", str(cfg)], ["dispersion", "--no-such-flag"]]
    script = textwrap.dedent("""
        import argparse, contextlib, gc, io, json, sys
        from becimpurity.cli import main
        seen = []
        for argv in json.loads(sys.argv[1]):
            gc.unfreeze()  # each call starts from an unfrozen heap
            before = gc.get_freeze_count()
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
            after = gc.get_freeze_count()
            gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds, to look at it
            gc.collect()
            parser_garbage = any(isinstance(o, argparse.HelpFormatter) for o in gc.garbage)
            gc.set_debug(0)
            gc.garbage.clear()
            seen.append([code, before, after, parser_garbage])
        print(json.dumps(seen))
    """)
    proc = _python("-c", script, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert [code for code, *_ in seen] == [0, 1, 2, 2]
    assert all(before == 0 and after > 0 for _, before, after, _ in seen), seen
    # the parser's reference cycles are freed before the command runs; a usage
    # error exits from inside the parser, before that collection
    assert [garbage for *_, garbage in seen] == [False, False, False, True]


@pytest.mark.parametrize("argv", [["rates", "--grid", "1.1:3:50"],
                                  ["box-oracle", "--L", "30", "--eta", "0.1"]], ids=" ".join)
def test_a_fresh_process_prints_what_main_prints_in_process(argv, capsys):
    proc = _python("-m", "becimpurity", *argv)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")


# a reader that closes the pipe after one line, or before the first: the
# command stops writing, says nothing on stderr and keeps its exit status;
# --help and --version print from inside the parser, and exit 0
@pytest.mark.parametrize("argv, lines, code", [
    (("rates", "--grid", "1.5:8:3000"), 1, 0),
    (("check",), 0, 1),
    (("rates", "--help"), 0, 0),
    (("--version",), 0, 0),
], ids=["rates", "check", "rates-help", "version"])
def test_a_closed_pipe_ends_the_output_quietly(argv, lines, code):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a shell pipeline
    with subprocess.Popen([sys.executable, "-m", "becimpurity", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once the command has exited
    assert (proc.returncode, err) == (code, b"")


# the commands whose outputs the dispatch test compares; check with its report
_DISPATCH_ARGV = [
    ["rates", "--grid", "1.1:3:2000"],
    ["rates", "--grid", "0.2:40:500"],
    ["rates", "--grid", "1.0001:30:300"],
    ["box-oracle", "--L", "240", "--eta", "0.0125", "--grid", "0.5:2.6:6"],
    ["effective-mass"],
    ["spectrum"],
    ["fig1"],
    ["dispersion"],
    ["check", "--output"],
]
# the environments of the children that the dispatch test compares with the
# first: numpy's own loops and OpenBLAS's own kernel; numpy without its AVX-512
# loops, then without its AVX2 loops as well; OpenBLAS under two kernels that
# every x86-64-v2 CPU runs (Haswell or SkylakeX would crash a CPU without AVX2
# or AVX-512)
_DISPATCH_SETTINGS = [
    {},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
]


def _cpu_features() -> dict:
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath.__cpu_features__


def _unavailable(setting: dict) -> str | None:
    """Why this host cannot run a dispatch setting, or None where it can."""
    features = setting.get("NPY_DISABLE_CPU_FEATURES", "").split()
    unknown = sorted(set(features) - set(_cpu_features()))
    if unknown:  # numpy ignores names it does not know, as 1.24 does these
        return f"numpy does not report {unknown}"
    if "OPENBLAS_CORETYPE" in setting:
        if platform.machine().lower() not in ("x86_64", "amd64"):
            return f"OpenBLAS's x86-64 kernels do not run on {platform.machine()}"
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # numpy before 1.26 takes no mode
            return "numpy does not report its BLAS build"
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", "").split():
            return "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so it reads no OPENBLAS_CORETYPE"
    return None


def test_outputs_do_not_depend_on_numpys_cpu_dispatch(tmp_path):
    script = textwrap.dedent("""
        import contextlib, hashlib, io, json, sys
        from becimpurity.cli import main
        digests = []
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            text = out.getvalue()
            if argv[-1].endswith(".json"):
                with open(argv[-1], encoding="utf-8") as fh:
                    text += fh.read()
            digests.append([code, hashlib.sha256(text.encode()).hexdigest()])
        print(json.dumps(digests))
    """)
    argvs = [argv + [str(tmp_path / "report.json")] if argv[-1] == "--output" else argv
             for argv in _DISPATCH_ARGV]
    runs = {}
    for setting in _DISPATCH_SETTINGS:
        name = " ".join(f"{key}={value}" for key, value in setting.items()) or "default"
        reason = _unavailable(setting)
        if reason:
            warnings.warn(f"dispatch setting {name} not compared: {reason}")
            continue
        env = _child_env()
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        env.pop("OPENBLAS_CORETYPE", None)
        env.update(setting)
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                               json.dumps(argvs)], capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        runs[name] = json.loads(proc.stdout)
    assert [code for code, _ in runs["default"]] == [0] * 8 + [1]
    for name, digests in runs.items():
        moved = [" ".join(argv) for argv, a, b in zip(_DISPATCH_ARGV, runs["default"], digests)
                 if a != b]
        assert moved == [], name


# argv that name their command first, then argv that the full parser reads
_PARSER_ARGV = [(argv, [argv[0]]) for argv in (
    ["rates", "--bogus"], ["rates", "x"], ["rates", "--help"], ["check", "--grid"],
    ["rates", "--version"], ["box-oracle", "-h"], ["dispersion", "--tol", "1e-3"],
)] + [(argv, list(_COMMANDS)) for argv in (
    [], ["--help"], ["-h", "rates"], ["frobnicate"], ["--version"],
)]


@pytest.mark.parametrize("argv, registered", _PARSER_ARGV,
                         ids=[" ".join(argv) or "no-args" for argv, _ in _PARSER_ARGV])
def test_main_builds_the_parser_of_its_command_alone(argv, registered, capsys, monkeypatch):
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    want = (full.value.code, *capsys.readouterr())
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names: built.append(list(names)) or build(names))
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert (got.value.code, *capsys.readouterr()) == want
    assert built == [registered]
