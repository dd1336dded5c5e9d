"""Smoke test of the benchmark itself: python3 -m pytest -q perfbench

One tiny op per workload goes through the plain and the traced path, the
self-time arithmetic is checked against a hand-built trace, and the metric
names are checked against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

TINY = {
    "sweep": W.sweep_op(0, 2.0, 2.2, 6.0, 5),
    "box": W.box_op(0, 160.0, 2.0, 2.0, 1),
    "verify": W.verify_op(1),
}


def test_self_time_subtracts_the_union_of_children():
    trace = [
        ["root", 0, 100, -1, 0, None],
        ["a", 10, 30, 0, 0, {"n": 2}],
        ["b", 20, 50, 0, 0, None],       # overlaps a
        ["c", 60, 70, 0, 0, None],
        ["d", 90, 120, 0, 0, None],      # runs past the end of root
        ["e", 12, 18, 1, 0, {"n": 3}],   # grandchild: not subtracted from root
    ]
    assert spans.self_times(trace) == [40, 14, 30, 10, 30, 6]
    agg = spans.aggregate(trace + [["a", 200, 201, -1, 1, {"n": 5}]])
    assert agg["a"]["calls"] == 2 and agg["a"]["n"] == 7
    assert agg["a"]["self_ns"] == 15 and agg["a"]["total_ns"] == 21


def test_recorder_links_nested_calls():
    rec = spans.Recorder(op=7)
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.OP]) for s in rec.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]
    assert all(s[spans.END] >= s[spans.START] for s in rec.spans)


def test_ops_follow_the_seed():
    for workload in W.WORKLOADS:
        first = [next(it) for it in [W.generate(workload, 3)] for _ in range(4)]
        again = [next(it) for it in [W.generate(workload, 3)] for _ in range(4)]
        assert first == again
    other = W.generate("sweep", 4)
    assert next(other) != next(W.generate("sweep", 3))


def test_lattice_modes_match_a_brute_force_count():
    L, p_cut = 20.0, 3.0
    dk = 2 * 3.141592653589793 / L
    n = int(p_cut / dk) + 1
    brute = sum(
        1
        for x in range(-n, n + 1) for y in range(-n, n + 1) for z in range(-n, n + 1)
        if 0 < x * x + y * y + z * z and (x * x + y * y + z * z) * dk * dk <= p_cut * p_cut
    )
    assert W.lattice_modes(L, p_cut) == brute


def test_one_tiny_op_per_workload_plain_and_traced(tmp_path):
    for workload, op in TINY.items():
        plain = run.execute(op, tmp_path)
        assert plain["error"] is None, (workload, plain["error"], plain["stderr"])
        assert plain["exit"] == op.expect_exit
        assert 0 < plain["setup_s"] < plain["setup_s"] + plain["op_s"] < plain["wall_s"]
        assert 10 < plain["rss_mb"] < 500

        spans_out = tmp_path / "spans.json"
        spec = {"op": 0, "spans_out": str(spans_out)}
        if workload == "verify":
            spec["checks"] = W.check_outcomes(plain["stdout"])[0]
        else:
            spec["argv"] = list(op.argv)
        traced = run.execute(op, tmp_path, traced_spec=spec)
        assert traced["error"] is None, (workload, traced["error"], traced["stderr"])
        doc = json.loads(spans_out.read_text())
        assert doc["absent"] == []
        names = [s[0] for s in doc["spans"]]
        if workload == "sweep":
            assert traced["stdout"] == plain["stdout"]
            assert names.count("quadrature.integrand") == 16 * op.work
        elif workload == "box":
            assert traced["stdout"] == plain["stdout"]
            assert names.count("_kernels.lorentzian_sums") == 2 * names.count("rates.box_rate")
        else:
            assert sum(n.startswith("checks.") for n in names) == len(W.VERIFY_NAMES)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
