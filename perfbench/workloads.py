"""Seeded CLI ops, their work units, and the correctness gate of each workload.

An op is one `becimpurity <subcommand>` invocation. Every input an op gets is
drawn from the workload seed; the program sees only the generated flags and
config files.

The size of an op (the sweep length N; the box side L with the number of box
momenta k) is set by a cost quantile u. Ops come in antithetic pairs u and
1 - u, with u stepping along a golden-ratio sequence from a seeded start, and
u maps monotonically to the op's cost. So every run of whole pairs has its
median op at cost quantile 1/2, whatever the seed, and the op medians of two
seeds differ only by timing noise. N and L still cover their whole ranges
with the intended distributions. The cheap parameters (mass ratio, grid ends,
box momenta) are plain seeded draws.

The gates never call the package: the sweep reference is computed here with
numpy, and the verify gate pins the suite's seed outcome by name.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep", "box", "verify")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SWEEP_POINTS = (1000, 2000)
SWEEP_START = (1.05, 1.5)    # times q_c
SWEEP_STOP = (2.0, 10.0)     # times q_c
SWEEP_MASS_LOG10 = (-1.0, 1.0)
# package tolerance of closed_vs_quadrature; the gate may not be looser
SWEEP_REL_TOL = 1e-8

BOX_L = (160.0, 240.0)
BOX_Q_LOW = (1.5, 2.0)
BOX_Q_HIGH = (2.1, 2.6)
BOX_COUNTS = (2, 3, 4)
BOX_P_CUT = 3.0
# box_schedule_agreement tolerance of the package
BOX_REL_FLOOR = 0.02

# The seed suite in registry order: 22 checks, of which exactly these three
# fail by design and the other 19 pass.
VERIFY_NAMES = (
    "landau_exact_zero", "closed_vs_quadrature", "energy_rate_identity",
    "threshold_exponent", "threshold_prefactor", "high_momentum_limit",
    "quasiparticle_smallness", "heavy_mass_dissipation_limit",
    "box_schedule_agreement", "box_schedule_monotone",
    "branch_point_symmetric_value", "small_ratio_endpoints",
    "branch_point_one_sided", "cutoff_scaling_slope", "cutoff_residual_2000",
    "effective_mass_integral_vs_closed", "effective_mass_fd_vs_closed",
    "effective_mass_heavy_limit", "vanishing_linear_term",
    "golden_rule_linear_regime", "subcritical_survival_bound",
    "subcritical_survival_floor",
)
VERIFY_FAILURES = frozenset({
    "heavy_mass_dissipation_limit",
    "box_schedule_monotone",
    "branch_point_one_sided",
})

SWEEP_HEADER = ["q_i", "p_M", "theta_M_deg", "gamma_T_closed", "gamma_T_quad",
                "gamma_E", "dissipative", "smallness"]
BOX_HEADER = ["q_i", "L", "eta", "p_cut", "gamma_T_box", "gamma_T_closed",
              "rel_dev", "est_error"]


@dataclass(frozen=True)
class Op:
    """One CLI invocation, run with the run's working directory as cwd.

    files maps a file name to the text written before the op starts;
    output names the --output file the op writes, if any.
    """

    workload: str
    index: int
    argv: tuple
    work: int
    expect_exit: int
    spec: dict
    files: dict = field(default_factory=dict)
    output: str | None = None


def cost_quantiles(rng: random.Random):
    """Endless antithetic pairs u, 1 - u of cost quantiles in [0, 1)."""
    u = rng.random()
    while True:
        yield u
        yield 1.0 - u
        u = (u + _GOLDEN) % 1.0


def box_size(u: float, rng: random.Random) -> tuple:
    """(L, k) at quantile u of the box cost k*L**3, with L ~ U(BOX_L) and k
    uniform over BOX_COUNTS, independent; the k*L**3 proxy is monotone in
    the op's lattice work."""
    lo, hi = BOX_L

    def cdf(c):
        return sum(min(max(((c / k) ** (1 / 3) - lo) / (hi - lo), 0.0), 1.0)
                   for k in BOX_COUNTS) / len(BOX_COUNTS)

    c_lo, c_hi = min(BOX_COUNTS) * lo**3, max(BOX_COUNTS) * hi**3
    for _ in range(100):
        mid = 0.5 * (c_lo + c_hi)
        c_lo, c_hi = (mid, c_hi) if cdf(mid) < u else (c_lo, mid)
    cost = 0.5 * (c_lo + c_hi)
    # given the cost, k is distributed with the density of L at (cost/k)**(1/3)
    feasible = [k for k in BOX_COUNTS
                if lo * (1 - 1e-9) <= (cost / k) ** (1 / 3) <= hi * (1 + 1e-9)]
    k = rng.choices(feasible, weights=[k ** (-1 / 3) for k in feasible])[0]
    return min(max((cost / k) ** (1 / 3), lo), hi), k


def _unit_params(M: float) -> dict:
    return {"params": {"m": 1.0, "M": M, "n": 1.0, "U0": 1.0, "g": 1.0}}


def sweep_op(index: int, M: float, start: float, stop: float, points: int) -> Op:
    config = f"sweep-{index}.json"
    grid = f"{start!r}:{stop!r}:{points}"
    return Op(
        workload="sweep",
        index=index,
        argv=("rates", "--grid", grid, "--config", config),
        work=points,
        expect_exit=0,
        spec={"M": M, "start": start, "stop": stop, "points": points},
        files={config: json.dumps(_unit_params(M))},
    )


def box_op(index: int, L: float, q_low: float, q_high: float, count: int) -> Op:
    eta = 3.0 / L
    grid = f"{q_low!r}:{q_high!r}:{count}"
    return Op(
        workload="box",
        index=index,
        argv=("box-oracle", "--L", repr(L), "--eta", repr(eta), "--grid", grid),
        work=count * lattice_modes(L, BOX_P_CUT),
        expect_exit=0,
        spec={"L": L, "eta": eta, "q_low": q_low, "q_high": q_high, "count": count},
    )


def verify_op(index: int) -> Op:
    output = f"check-{index}.json" if index % 2 else None
    argv = ("check", "--output", output) if output else ("check",)
    return Op(workload="verify", index=index, argv=argv, work=len(VERIFY_NAMES),
              expect_exit=1, spec={}, output=output)


def generate(workload: str, seed: int):
    """Yield the endless op sequence of a workload; the seed fixes every op."""
    rng = random.Random(f"{workload}:{seed}")
    for index, u in enumerate(cost_quantiles(rng)):
        if workload == "sweep":
            M = 10.0 ** rng.uniform(*SWEEP_MASS_LOG10)
            q_c = M  # c = 1 for m = n = U0 = 1
            yield sweep_op(
                index, M,
                rng.uniform(*SWEEP_START) * q_c,
                rng.uniform(*SWEEP_STOP) * q_c,
                SWEEP_POINTS[0] + round(u * (SWEEP_POINTS[1] - SWEEP_POINTS[0])),
            )
        elif workload == "box":
            L, k = box_size(u, rng)
            yield box_op(index, L, rng.uniform(*BOX_Q_LOW), rng.uniform(*BOX_Q_HIGH), k)
        elif workload == "verify":
            yield verify_op(index)
        else:
            raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# work units


def lattice_modes(L: float, p_cut: float) -> int:
    """Lattice modes with 0 < |n|*2*pi/L <= p_cut.

    Uses the float test n2*dk*dk <= p_cut**2 of the box oracle, so the count
    is the number of modes the oracle must visit for one momentum.
    """
    dk = 2.0 * math.pi / L
    p_cut2 = p_cut * p_cut
    n_max = math.ceil(p_cut / dk)
    top = int(p_cut2 / (dk * dk))
    while (top + 1) * dk * dk <= p_cut2:
        top += 1
    while top * dk * dk > p_cut2:
        top -= 1
    idx = np.arange(-n_max, n_max + 1, dtype=np.int64)
    perp2 = np.sort((idx[:, None] ** 2 + idx[None, :] ** 2).ravel())
    inside = np.searchsorted(perp2, top - idx * idx, side="right")
    return int(inside.sum()) - 1  # drop the origin


# ---------------------------------------------------------------------------
# references and gates


def reference_gamma_T(q: np.ndarray, M: float, nodes: int = 48) -> np.ndarray:
    """Golden-rule rate for m = n = U0 = g = 1 by Gauss-Legendre quadrature.

    gamma_T = M/(4*pi*q) * int_0^p_max 2*p**2/sqrt(p**2 + 4) dp, with p_max the
    positive root of eps(p) + p**2/(2M) = q*p/M. The integrand is analytic on
    the window, so 48 nodes reach rounding.
    """
    q = np.asarray(q, dtype=float)
    gap = (q - M) * (q + M)
    p_max = 2.0 * gap / (q + M * np.sqrt(1.0 + gap))
    x, w = np.polynomial.legendre.leggauss(nodes)
    p = 0.5 * p_max[:, None] * (x[None, :] + 1.0)
    integral = 0.5 * p_max * ((2.0 * p * p / np.sqrt(p * p + 4.0)) @ w)
    return M / (4.0 * math.pi * q) * integral


def _table(text: str, header: list) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} is not {header}")
    cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * len(header)
    return dict(zip(header, cols))


def _floats(col) -> np.ndarray:
    return np.array([float(v) for v in col], dtype=float)


def _rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref) / np.abs(ref))) if ref.size else 0.0


def check_sweep(op: Op, stdout: str, _output: str | None) -> str | None:
    s = op.spec
    table = _table(stdout, SWEEP_HEADER)
    q = _floats(table["q_i"])
    grid = np.linspace(s["start"], s["stop"], s["points"])
    if q.shape != grid.shape or not np.array_equal(q, grid):
        return "q_i column is not the requested grid"
    if any(v != "true" for v in table["dissipative"]):
        return "a supercritical point is reported as not dissipative"
    ref = reference_gamma_T(q, s["M"])
    for name in ("gamma_T_closed", "gamma_T_quad"):
        err = _rel_err(_floats(table[name]), ref)
        if not err <= SWEEP_REL_TOL:
            return f"{name} is off the numpy reference by {err:.3g} relative"
    return None


def check_box(op: Op, stdout: str, _output: str | None) -> str | None:
    s = op.spec
    table = _table(stdout, BOX_HEADER)
    q = _floats(table["q_i"])
    if not np.array_equal(q, np.linspace(s["q_low"], s["q_high"], s["count"])):
        return "q_i column is not the requested grid"
    echo = (_floats(table["L"]), _floats(table["eta"]), _floats(table["p_cut"]))
    if not (np.all(echo[0] == s["L"]) and np.all(echo[1] == s["eta"])
            and np.all(echo[2] == BOX_P_CUT)):
        return "box parameters are not echoed back"
    values = np.array([_floats(table[name]) for name in BOX_HEADER])
    if not np.all(np.isfinite(values)):
        return "non-finite output"
    rel, est = _floats(table["rel_dev"]), _floats(table["est_error"])
    allowed = np.maximum(BOX_REL_FLOOR, 3.0 * est)
    if np.any(np.abs(rel) > allowed):
        worst = int(np.argmax(np.abs(rel) - allowed))
        return f"|rel_dev| = {abs(rel[worst]):.3g} above {allowed[worst]:.3g} at q_i = {q[worst]!r}"
    return None


def check_outcomes(stdout: str) -> tuple:
    """(names in printed order, names that failed) from `check` output."""
    names, failed = [], set()
    lines = stdout.splitlines()
    for line in lines[:-1]:
        status, _, rest = line.partition(" ")
        name = rest.partition(":")[0]
        if status not in ("PASS", "FAIL") or not name:
            raise ValueError(f"unexpected check line {line!r}")
        names.append(name)
        if status == "FAIL":
            failed.add(name)
    expected_tail = f"{len(names) - len(failed)} passed, {len(failed)} failed"
    if not lines or lines[-1] != expected_tail:
        raise ValueError(f"summary line is not {expected_tail!r}")
    return names, failed


def check_verify(_op: Op, stdout: str, output: str | None) -> str | None:
    names, failed = check_outcomes(stdout)
    if sorted(names) != sorted(VERIFY_NAMES):
        return f"check set differs from the seed suite: {sorted(set(names) ^ set(VERIFY_NAMES))}"
    if failed != VERIFY_FAILURES:
        return f"failures {sorted(failed)} are not the designed {sorted(VERIFY_FAILURES)}"
    if output is not None:
        doc = json.loads(output)
        report = {r["name"]: r["passed"] for r in doc["results"]}
        if report != {n: n not in failed for n in names}:
            return "JSON report disagrees with the printed outcomes"
    return None


GATES = {"sweep": check_sweep, "box": check_box, "verify": check_verify}


def gate(op: Op, exit_code: int, stdout: str, output: str | None) -> str | None:
    """None when the op's result is correct, else the reason it is not."""
    if exit_code != op.expect_exit:
        return f"exit code {exit_code}, expected {op.expect_exit}"
    try:
        return GATES[op.workload](op, stdout, output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc}"
