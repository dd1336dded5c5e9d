import json
import math
import pathlib
import re
import shlex
import warnings

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
