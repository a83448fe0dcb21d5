"""Independent verification routes: grid oracle, projection, perturbation."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cranopt.oracle as oracle
from cranopt import (
    CERTIFICATION_TOL,
    ChannelInstance,
    DownlinkDesign,
    InconsistencyError,
    InvalidInputError,
    ProjectionError,
    UnsupportedSizeError,
    UplinkDesign,
    check_downlink_feasible,
    check_uplink_feasible,
    feasibility_projection,
    grid_oracle_scalar,
    perturbation_search,
    solve_instance,
    subchannel_rate,
)


def test_grid_oracle_single_subchannel_closed_form():
    for P in (0.5, 1.0, 2.0):
        for C in (0.5, 1.0, 3.0):
            a = grid_oracle_scalar(np.array([1.5]), P, C, 1.0, "uplink", resolution=101)
            expect = subchannel_rate(1.5**2 * P, C, 1.0)
            assert np.isclose(a.diagnostics["rate"], expect, atol=1e-9)


def test_grid_oracle_finds_concentration():
    a = grid_oracle_scalar(np.array([1.0, 1.0]), 2.0, 2.0, 1.0, "uplink", resolution=201)
    assert np.isclose(a.diagnostics["rate"], 1.0, atol=1e-9)


def test_grid_oracle_three_subchannels_budget_feasible():
    a = grid_oracle_scalar(np.array([2.0, 1.0, 0.5]), 3.0, 4.0, 1.0, "downlink", resolution=41)
    assert a.power.sum() <= 3.0 + 1e-9
    assert a.share.sum() <= 4.0 + 1e-9
    assert a.diagnostics["rate"] > 0


def test_grid_oracle_rejects_large_problems():
    with pytest.raises(UnsupportedSizeError):
        grid_oracle_scalar(np.ones(4), 1.0, 1.0, 1.0, "uplink")


def test_grid_oracle_rejects_bad_resolution():
    with pytest.raises(InvalidInputError):
        grid_oracle_scalar(np.ones(2), 1.0, 1.0, 1.0, "uplink", resolution=1)


def test_grid_oracle_zero_budget():
    a = grid_oracle_scalar(np.array([1.0, 2.0]), 0.0, 3.0, 1.0, "uplink")
    assert a.diagnostics["rate"] == 0.0


def _identity_instance(P=2.0, C=2.0, n=2):
    return ChannelInstance(H=np.eye(n), P=P, C=C, sigma2=1.0)


def test_projection_uplink_activates_both_budgets():
    rng = np.random.default_rng(2)
    inst = _identity_instance(P=3.0, C=4.0)
    for seed in range(10):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S = X @ X.conj().T
        Q = Y @ Y.conj().T + 1e-3 * np.eye(2)
        d = feasibility_projection(inst, "uplink", S, Q)
        rep = check_uplink_feasible(inst, d)
        assert rep.feasible, rep.diagnostics
        assert abs(rep.slack_power) <= 1e-8
        assert abs(rep.slack_fronthaul) <= 1e-7


def test_projection_downlink_activates_both_budgets():
    rng = np.random.default_rng(4)
    inst = _identity_instance(P=3.0, C=4.0)
    for seed in range(10):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        S = X @ X.conj().T
        Q = Y @ Y.conj().T + 1e-3 * np.eye(2)
        d = feasibility_projection(inst, "downlink", S, Q)
        rep = check_downlink_feasible(inst, d)
        assert rep.feasible, rep.diagnostics
        assert abs(rep.slack_power) <= 1e-8
        assert abs(rep.slack_fronthaul) <= 1e-7


def test_projection_uplink_zero_fronthaul_impossible():
    inst = _identity_instance(C=0.0)
    with pytest.raises(ProjectionError):
        feasibility_projection(inst, "uplink", np.eye(2), np.eye(2))


def test_projection_downlink_zero_fronthaul_gives_silence():
    inst = _identity_instance(C=0.0)
    d = feasibility_projection(inst, "downlink", np.eye(2), np.eye(2))
    assert np.allclose(d.S, 0.0)
    rep = check_downlink_feasible(inst, d)
    assert rep.feasible
    assert rep.rate == 0.0


def _bisection_level(ev, C):
    """log rho with sum(log2(1 + rho ev)) = C by bisection: every term is at
    most the largest, so the root lies between the levels at which the
    largest eigenvalue alone spends C / n and C."""
    top = np.log(ev.max())
    lo = np.log(np.expm1(C * np.log(2) / ev.size)) - top
    hi = np.log(np.expm1(C * np.log(2))) - top
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.log1p(ev * np.exp(mid)).sum() / np.log(2) > C:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_fronthaul_level_matches_bisection_reference():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        ev = 10.0 ** rng.uniform(-12, 12, n)
        ev[rng.random(n) < 0.25] = 0.0
        ev[rng.integers(n)] = 10.0 ** rng.uniform(-12, 12)  # one positive entry
        C = 10.0 ** rng.uniform(-6, np.log10(60.0))
        rho = oracle._fronthaul_level(ev, C)
        worst = max(worst, abs(np.log(rho) - _bisection_level(ev, C)))
    assert worst <= 1e-13


def test_fronthaul_level_raises_when_it_does_not_converge(monkeypatch):
    monkeypatch.setattr(oracle, "_LEVEL_MAX_ITERATIONS", 1)
    with pytest.raises(InconsistencyError):
        oracle._fronthaul_level(np.array([4.0, 1.0]), 1.0)


def test_import_does_not_load_scipy():
    # the fresh interpreter loads cranopt from where this one found it
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cranopt; "
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_certification_accepts_solver_output():
    rng = np.random.default_rng(11)
    for seed in range(4):
        H = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        inst = ChannelInstance(H=H, P=2.0, C=3.0, sigma2=1.0)
        for direction in ("uplink", "downlink"):
            design, rep, _ = solve_instance(inst, direction)
            report = perturbation_search(inst, direction, design, trials=60, seed=seed)
            assert report.verdict, report
            assert report.margin >= -CERTIFICATION_TOL
            assert np.isclose(report.diagonal_rate, rep.rate, rtol=1e-12)


def test_certification_flags_planted_half_power():
    inst = _identity_instance(P=2.0, C=4.0)
    design, _, _ = solve_instance(inst, "uplink")
    weak = UplinkDesign(S=0.5 * design.S, Q=design.Q, active_basis=design.active_basis)
    report = perturbation_search(inst, "uplink", weak, trials=100, seed=3)
    assert not report.verdict
    assert report.margin < -0.01


def test_certification_rejects_infeasible_base():
    inst = _identity_instance(P=1.0)
    fat = UplinkDesign(S=np.eye(2), Q=np.eye(2))  # trace 2 > P
    with pytest.raises(InvalidInputError):
        perturbation_search(inst, "uplink", fat, trials=10, seed=0)


def test_certification_zero_trials():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    report = perturbation_search(inst, "uplink", design, trials=0, seed=0)
    assert report.verdict
    assert report.margin == 0.0
    assert report.trials == 0


def test_certification_with_no_evaluated_candidate_fails(monkeypatch):
    # a search whose every candidate failed projection has no evidence; it
    # used to report margin = base rate and pass
    def refuse(*args, **kwargs):
        raise ProjectionError("refused")

    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    monkeypatch.setattr(oracle, "feasibility_projection", refuse)
    report = perturbation_search(inst, "uplink", design, trials=12, seed=0)
    assert report.verdict is False
    assert report.diagnostics["evaluated"] == 0
    assert report.diagnostics["projection_failures"] == 12


def test_certification_deterministic():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "downlink")
    r1 = perturbation_search(inst, "downlink", design, trials=40, seed=9)
    r2 = perturbation_search(inst, "downlink", design, trials=40, seed=9)
    assert r1.best_perturbed_rate == r2.best_perturbed_rate
    assert r1.margin == r2.margin


def test_certification_validates_arguments():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    with pytest.raises(InvalidInputError):
        perturbation_search(inst, "sideways", design, trials=10, seed=0)
    with pytest.raises(InvalidInputError):
        perturbation_search(inst, "uplink", design, trials=-1, seed=0)
    dl = DownlinkDesign(S=np.eye(2), Q=np.eye(2))
    with pytest.raises(InvalidInputError):
        perturbation_search(inst, "uplink", dl, trials=10, seed=0)
