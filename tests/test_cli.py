import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import becimpurity
from becimpurity import DEFAULT_TOLERANCES
from becimpurity.cli import _COMMANDS, main


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


@pytest.mark.parametrize("grid", ["1e78:1e80:3", "1e200:1e201:2"])
def test_rates_beyond_the_float_range_are_a_numerical_failure(grid, capsys):
    code, out, err = run(capsys, "rates", "--grid", grid)
    assert code == 3
    assert err.startswith("numerical failure: ") and "float range" in err
    assert out == ""


# the first error of a grid, as the point-by-point sweep reported it: the
# closed route and the window come before the quadrature
@pytest.mark.parametrize("argv,err", [
    (("--grid", "1e76:1e80:3"), "closed-form rates at q_i = 5.0005e+79 leave the float range"),
    (("--grid", "1e78:1e80:3"), "closed-form rates at q_i = 1e+78 leave the float range"),
    (("--grid", "1e200:1e201:2"), "largest emitted momentum at q_i = 1e+200 leaves the float range"),
    (("--tol", "1e-18", "--grid", "2:2:1"),
     "subdivision budget (200) exhausted: error estimate 1.085e-14 above target 9.774e-19"),
    (("--grid", "1e78:1e200:3"), "closed-form rates at q_i = 1e+78 leave the float range"),
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


def _python(*args):
    """Run a fresh interpreter that imports this source tree's becimpurity."""
    src = pathlib.Path(becimpurity.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


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
    from becimpurity.cli import _cell, _csv_rows

    rows = [
        [0.0, None, True, "closed", 1e-310, np.float64(2.5), 3],
        [-0.0, 0.1, False, "quadrature", float("inf"), 1.0, 4],
        [1 / 3, float("nan"), True, "", -1e308, np.float64(-0.0), 5],
    ]
    assert _csv_rows(rows) == [",".join(map(_cell, row)) for row in rows]
    floats = [[x, -x, x * 1e300] for x in np.linspace(-3.0, 3.0, 101).tolist()]
    assert _csv_rows(floats) == [",".join(map(_cell, row)) for row in floats]
    assert _csv_rows([]) == []


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
