"""Independent verification routes: certified bound, projection, perturbation."""

import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cranopt.oracle as oracle
from cranopt import (
    CERTIFICATION_TOL,
    ChannelInstance,
    DomainError,
    DownlinkDesign,
    InconsistencyError,
    InvalidInputError,
    SubchannelAllocation,
    TOL,
    UplinkDesign,
    certified_gap_bits,
    check_downlink_feasible,
    check_uplink_feasible,
    downlink_rate,
    feasibility_projection,
    perturbation_search,
    random_channel,
    random_unitary,
    solve_instance,
    solve_scalar_allocation,
    subchannel_rate,
    uplink_rate,
)
from cranopt.allocation import _rates
from cranopt.downlink import downlink_rate_stacked
from cranopt.kernels import whitened_eigvalsh
from cranopt.problem import validate_covariance
from cranopt.uplink import uplink_rate_stacked


def _solved_gap(gains, P, C, sigma2=1.0):
    a = solve_scalar_allocation(gains, P, C, sigma2)
    return a, certified_gap_bits(gains, P, C, sigma2, a)


def test_bound_single_subchannel_closed_form():
    # at D = 1 the root box's corner bound is the closed-form optimum
    for P in (0.5, 1.0, 2.0):
        for C in (0.5, 1.0, 3.0):
            a, gap = _solved_gap(np.array([1.5]), P, C)
            expect = subchannel_rate(1.5**2 * P, C, 1.0)
            assert abs(a.diagnostics["rate"] + gap - expect) <= 1e-9


def test_bound_certifies_concentration():
    # small budgets reward putting everything on one of two equal gains
    a, gap = _solved_gap(np.array([1.0, 1.0]), 2.0, 2.0)
    assert abs(a.diagnostics["rate"] - 1.0) <= 1e-9
    assert abs(gap) <= 1e-9


@pytest.mark.parametrize(
    "gains, P, C",
    [([1.0, 2.0], 0.0, 3.0), ([1.0, 2.0], 2.0, 0.0), ([0.0, 0.0], 2.0, 3.0)],
    ids=["zero-P", "zero-C", "zero-gains"],
)
def test_bound_of_an_empty_problem_is_zero(gains, P, C):
    a, gap = _solved_gap(np.array(gains), P, C)
    assert gap == 0.0 and a.diagnostics["rate"] == 0.0


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, -np.inf, 0.0], ids=repr)
def test_certified_bound_rejects_bad_noise(sigma2):
    # a NaN, infinite or zero sigma2 is refused before the search reads it
    a = solve_scalar_allocation(np.array([1.0, 0.5]), 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="sigma2"):
        certified_gap_bits(np.array([1.0, 0.5]), 1.0, 1.0, sigma2, a)


def test_bound_refutes_a_half_power_incumbent():
    # a feasible point beats the planted allocation within a few boxes,
    # also at three near-equal gains, where the bound once took 2 s, and at
    # 32 subchannels, where it took 9 s before the root witness
    rng = np.random.default_rng(777)
    cases = []
    for k in range(6):
        gains = np.sort(rng.uniform(0.3, 2.5, 2 + k % 2))[::-1]
        cases.append((gains, rng.uniform(0.5, 4.0), rng.uniform(0.5, 8.0), 1.0))
    cases.append((np.array([7.598, 7.553, 8.955]), 81.8, 5.23, 1.32))
    wide = ChannelInstance(random_channel(32, 32, 1), 32.0, 64.0, 1.0)
    cases.append((wide.spectrum.singular_values, 32.0, 64.0, 1.0))
    for k, (gains, P, C, sigma2) in enumerate(cases):
        a = solve_scalar_allocation(gains, P, C, sigma2)
        half = SubchannelAllocation(a.power / 2, a.share)
        t0 = time.perf_counter()
        gap = certified_gap_bits(gains, P, C, sigma2, half)
        assert gap > 1e-6 and time.perf_counter() - t0 < 0.1, k


def test_bound_returns_its_open_gap_when_the_box_budget_runs_out(monkeypatch):
    # an 8 x 8 channel whose bound needs more than three boxes to close
    gains = ChannelInstance(random_channel(8, 8, 11), 4.0, 8.0, 1.0).spectrum.singular_values
    a, certified = _solved_gap(gains, 4.0, 8.0)
    monkeypatch.setattr(oracle, "_BOX_BUDGET", 3)
    open_gap = certified_gap_bits(gains, 4.0, 8.0, 1.0, a)
    assert certified <= CERTIFICATION_TOL < open_gap < 0.1


def test_side_maximum_matches_a_fine_grid():
    # bound (b) takes each side's maximum of phi(c; lam) - mu c at its
    # lower end or at the closed-form peak share; no point of a 40,001-point
    # grid on the side may exceed it by more than rounding.  Half the sides
    # are drawn around the peak, so the interior case is well covered
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for k in range(500):
        snr = 10.0 ** rng.uniform(-6.0, 18.0)
        lam = 10.0 ** rng.uniform(-8.0, 3.0)
        small = 10.0 ** rng.uniform(-12.0, -1.0)
        mu = (0.0, small, rng.uniform(), 1.0 - small)[k % 4]
        g = np.array([snr])
        peak = oracle._peak_share(g, lam, mu)
        if k % 8 >= 4 and peak[0] < 200.0:
            width = 10.0 ** rng.uniform(-3.0, 2.0)
            lo = max(0.0, peak[0] - width * rng.uniform())
            hi = min(200.0, peak[0] + width * rng.uniform())
        else:
            lo = 200.0 * rng.uniform() ** 2
            hi = lo + (200.0 - lo) * 10.0 ** rng.uniform(-4.0, 0.0)
        side = oracle._side_bound(g, np.array([[lo]]), np.array([[hi]]), 0.0, 0.0, lam, mu, peak)
        c = np.linspace(lo, hi, 40_001)
        c[-1] = hi
        p = oracle._response(snr, np.power(2.0, -c), 1.0 / lam)
        h = _rates(snr * p, c, 1.0) - lam * p - mu * c
        worst = max(worst, h.max() - side[0])
    assert worst <= 1e-12, worst


# Gaussian channels up to 4 x 4 with P in [1e-2, 1e2], C in [0.1, 10^1.5]
# and sigma2 in [0.1, 10], as in the solver's property tests
_INSTANCES = st.builds(
    lambda n_r, n_u, seed, log_p, log_c, log_s2: ChannelInstance(
        H=random_channel(n_r, n_u, seed), P=10.0**log_p, C=10.0**log_c, sigma2=10.0**log_s2
    ),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**31),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.5),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_INSTANCES, st.integers(0, 2**31))
def test_no_feasible_allocation_beats_the_bound(inst, seed):
    # random splits of both budgets, and moves of the solved allocation
    # along both budget faces, stay below the solver's rate plus its gap
    gains, P, C, sigma2 = inst.spectrum.singular_values, inst.P, inst.C, inst.sigma2
    a = solve_scalar_allocation(gains, P, C, sigma2)
    bound = a.diagnostics["rate"] + certified_gap_bits(gains, P, C, sigma2, a)
    rng = np.random.default_rng(seed)
    D, n = gains.size, 500
    p = rng.dirichlet(np.ones(D), n) * P
    c = rng.dirichlet(np.ones(D), n) * C
    near_p = a.power * rng.uniform(0.9, 1.1, (n, D))
    near_c = a.share * rng.uniform(0.9, 1.1, (n, D))
    p = np.vstack([p, near_p * (P / near_p.sum(axis=1, keepdims=True))])
    c = np.vstack([c, near_c * (C / near_c.sum(axis=1, keepdims=True))])
    rates = _rates(gains**2 * p, c, sigma2).sum(axis=1)
    assert rates.max() <= bound + 1e-12


@st.composite
def _allocations_above_60_bits(draw):
    """Up to three gains in [1, 1e9], P in [0.1, 10], C in [61, 200], and a
    feasible allocation with every power positive and one share above 60
    bits, the others splitting part of what is left of C."""
    D = draw(st.integers(1, 3))
    gains = [10.0 ** draw(st.floats(0.0, 9.0)) for _ in range(D)]
    P = 10.0 ** draw(st.floats(-1.0, 1.0))
    C = draw(st.floats(61.0, 200.0))
    weights = np.array([draw(st.floats(0.01, 1.0)) for _ in range(D)])
    share = np.array([draw(st.floats(0.0, 1.0)) for _ in range(D)])
    top = draw(st.integers(0, D - 1))
    share[top] = 60.0 + draw(st.floats(0.5, 1.0)) * (C - 60.0)
    rest = np.arange(D) != top
    share[rest] *= (C - share[top]) / max(D - 1, 1)
    return gains, P, C, SubchannelAllocation(P * weights / weights.sum(), share)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_allocations_above_60_bits())
@example(([1e9], 1.0, 200.0, SubchannelAllocation([1.0], [100.0])))
@example(([1e8, 1e8], 1.0, 150.0, SubchannelAllocation([0.5, 0.5], [70.0, 70.0])))
def test_the_bound_holds_for_shares_above_60_bits(case):
    # the scalar problem caps no share: an allocation whose shares pass 60
    # bits at high SNR stays below the bound
    gains, P, C, a = case
    assert certified_gap_bits(gains, P, C, 1.0, a) >= -TOL.certification


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
    with pytest.raises(DomainError, match="zero fronthaul cost"):
        feasibility_projection(inst, "uplink", np.eye(2), np.eye(2))


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_projection_rejects_a_zero_quantizer(direction):
    # a zero quantization covariance costs infinite fronthaul: no scale
    # factor reaches the constraint set
    inst = _identity_instance()
    with pytest.raises(DomainError, match="singular or zero"):
        feasibility_projection(inst, direction, np.eye(2), np.zeros((2, 2)))


def test_block_projection_masks_every_uplink_lane_at_zero_fronthaul():
    # the stacked projection has no uplink design at C = 0 either: it masks
    # every lane, without a level solve and so without a warning
    inst = _identity_instance(C=0.0)
    rng = np.random.default_rng(5)
    S, Q = _random_psd_stack(2, rng, lanes=16), _random_psd_stack(2, rng, lanes=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, ok = oracle._project(inst, "uplink", S, Q)
    assert ok.shape == (16,) and not ok.any()


def test_projection_downlink_zero_fronthaul_gives_silence():
    inst = _identity_instance(C=0.0)
    d = feasibility_projection(inst, "downlink", np.eye(2), np.eye(2))
    assert np.allclose(d.S, 0.0)
    rep = check_downlink_feasible(inst, d)
    assert rep.feasible
    assert rep.rate == 0.0


def _projection_instance(name):
    """A 3x3 channel whose base uses every subchannel ("3x3-full"), the
    same channel at a fronthaul budget that turns one off ("3x3-off"), or a
    1x4 channel with rank-1 transmit covariances ("1x4")."""
    if name == "1x4":
        return ChannelInstance(H=random_channel(1, 4, 32_003), P=1.0, C=2.0, sigma2=1.0)
    U, V = random_unitary(3, 32_001), random_unitary(3, 32_002)
    H = (U * np.array([1.5, 1.2, 1.0])) @ V.conj().T
    return ChannelInstance(H=H, P=4.0, C=12.0 if name == "3x3-full" else 8.0, sigma2=1.0)


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("name", ["3x3-full", "3x3-off", "1x4"])
def test_block_projection_of_candidates_lands_on_the_boundary(name, direction):
    inst = _projection_instance(name)
    # the search hands _project its candidates unclipped; every lane it
    # marks ok must still be a valid design that spends P (so the power
    # budget is active) and at most C
    design, _, _ = solve_instance(inst, direction)
    assert (design.active_basis is not None) == (name == "3x3-off")
    S0, Q0 = design.S, design.Q
    kind, check = (UplinkDesign, check_uplink_feasible) if direction == "uplink" else (
        DownlinkDesign, check_downlink_feasible)
    checked = 0
    for block in oracle._blocks(6, 200, len(S0), len(Q0)):
        for _, S_c, Q_c, W_c in oracle._candidates(S0, Q0, design.active_basis, block):
            # each rotated lane carries its own subspace, the random pairs none
            assert (W_c is None) == (design.active_basis is None or S_c is block.S_rand)
            S, Q, ok = oracle._project(inst, direction, S_c, Q_c, W_c)
            for t in np.flatnonzero(ok):
                validate_covariance(S[t], "S")
                validate_covariance(Q[t], "Q")
                w = None if W_c is None else W_c[t]
                report = check(inst, kind(S=S[t], Q=Q[t], active_basis=w))
                assert abs(report.power_used - inst.P) <= TOL.feasibility
                assert report.fronthaul_used <= inst.C + TOL.feasibility
                checked += 1
    assert checked > 150


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_search_does_no_eigendecomposition_per_trial(monkeypatch, direction):
    # the search clips nothing: the base's factors were checked when the
    # design was built, and the candidates are projected as they are,
    # however many trials run
    inst = _projection_instance("3x3-off")
    design, _, _ = solve_instance(inst, direction)
    calls = [0]
    real = oracle.psd_part

    def counting(M):
        calls[0] += 1
        return real(M)

    monkeypatch.setattr(oracle, "psd_part", counting)
    counts = []
    for trials in (7, 1000):
        calls[0] = 0
        perturbation_search(inst, design, trials=trials, seed=0)
        counts.append(calls[0])
    assert counts == [0, 0]


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_search_whitens_exactly_hermitian_stacks(direction, monkeypatch):
    # whitened_eigvalsh does not symmetrize its arguments: every stack the
    # search hands it must equal its conjugate transpose bit for bit
    inst = _projection_instance("3x3-off")
    design, _, _ = solve_instance(inst, direction)
    seen = []

    def recording(M, B):
        seen.append((M, B))
        return whitened_eigvalsh(M, B)

    monkeypatch.setattr(oracle, "whitened_eigvalsh", recording)
    perturbation_search(inst, design, trials=1000, seed=0)
    assert seen
    for A in (A for pair in seen for A in pair):
        assert np.array_equal(A, A.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_projection_clips_an_indefinite_pair(direction):
    inst = _identity_instance(P=3.0, C=4.0)
    U = random_unitary(2, 9)
    S = (U * np.array([1.0, -0.5])) @ U.conj().T  # Hermitian, one eigenvalue < 0
    Q = np.diag([0.5, 0.2]) + 0.0j
    d = feasibility_projection(inst, direction, S, Q)
    assert np.linalg.eigvalsh(d.S)[0] >= -TOL.psd  # the negative part is gone
    assert np.linalg.matrix_rank(d.S, tol=1e-9) == 1
    check = check_uplink_feasible if direction == "uplink" else check_downlink_feasible
    rep = check(inst, d)
    assert rep.feasible
    assert abs(rep.slack_power) <= 1e-8


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
    padded = np.zeros((2000, 8))  # zero eigenvalues spend nothing
    Cs, refs = np.empty(2000), np.empty(2000)
    for k in range(2000):
        n = int(rng.integers(1, 9))
        ev = 10.0 ** rng.uniform(-12, 12, n)
        ev[rng.random(n) < 0.25] = 0.0
        ev[rng.integers(n)] = 10.0 ** rng.uniform(-12, 12)  # one positive entry
        C = 10.0 ** rng.uniform(-6, np.log10(60.0))
        padded[k, :n], Cs[k], refs[k] = ev, C, _bisection_level(ev, C)
        rho = oracle._fronthaul_level(ev[None], C)[0]
        worst = max(worst, abs(np.log(rho) - refs[k]))
    assert worst <= 1e-13
    # the same spectra solved at once, as one stack; each row steps on its
    # own, so its level is the one it gets alone
    rho = oracle._fronthaul_level(padded, Cs)
    assert np.max(np.abs(np.log(rho) - refs)) <= 1e-13
    alone = [oracle._fronthaul_level(padded[k : k + 1], Cs[k])[0] for k in range(2000)]
    assert np.array_equal(rho, alone)


def test_fronthaul_level_raises_when_it_does_not_converge(monkeypatch):
    monkeypatch.setattr(oracle, "_LEVEL_MAX_ITERATIONS", 1)
    with pytest.raises(InconsistencyError):
        oracle._fronthaul_level(np.array([[4.0, 1.0]]), 1.0)
    # one unresolved spectrum fails the whole stack; the first spectrum has
    # one positive eigenvalue, so it starts at its root
    with pytest.raises(InconsistencyError, match="1 of 2 spectra"):
        oracle._fronthaul_level(np.array([[4.0, 0.0], [4.0, 1.0]]), 1.0)


def test_import_does_not_load_scipy():
    # the fresh interpreter loads cranopt from where this one found it; the
    # CLI (and argparse with it) loads only when asked for
    src = str(Path(oracle.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cranopt; "
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'"
        " or k in ('cranopt.cli', 'argparse')))"
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
            report = perturbation_search(inst, design, trials=60, seed=seed)
            assert report.verdict, report
            assert report.margin >= -CERTIFICATION_TOL
            assert np.isclose(report.diagonal_rate, rep.rate, rtol=1e-12)


def test_certification_flags_planted_half_power():
    inst = _identity_instance(P=2.0, C=4.0)
    design, _, _ = solve_instance(inst, "uplink")
    weak = UplinkDesign(S=0.5 * design.S, Q=design.Q, active_basis=design.active_basis)
    report = perturbation_search(inst, weak, trials=100, seed=3)
    assert not report.verdict
    assert report.margin < -0.01


def test_certification_rejects_infeasible_base():
    inst = _identity_instance(P=1.0)
    fat = UplinkDesign(S=np.eye(2), Q=np.eye(2))  # trace 2 > P
    with pytest.raises(InvalidInputError):
        perturbation_search(inst, fat, trials=10, seed=0)


def test_certification_zero_trials():
    # a zero-trial search used to return a hand-built passing report
    # (margin 0) that had evaluated nothing
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    with pytest.raises(InvalidInputError, match="trials"):
        perturbation_search(inst, design, trials=0, seed=0)


def test_certification_with_no_evaluated_candidate_fails(monkeypatch):
    # a search whose every candidate failed projection has no evidence; it
    # used to report margin = base rate and pass.  Every quantizer is
    # planted singular, so no candidate has a design
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    _plant_singular_quantizers(monkeypatch, range(12))
    report = perturbation_search(inst, design, trials=12, seed=0)
    assert report.verdict is False
    assert report.diagnostics["evaluated"] == 0
    assert report.diagnostics["projection_failures"] == 12
    assert report.margin == np.inf


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_an_empty_described_subspace_is_searched_as_the_silent_design(direction):
    # at C = 0 the solved design describes nothing, so its rotated candidates
    # are the silent design (no bits, rate 0) and the search passes with
    # margin 0; the uplink's random pairs have no design at C = 0
    inst = _identity_instance(C=0.0)
    design, _, _ = solve_instance(inst, direction)
    assert design.active_basis.shape == (2, 0)
    report = perturbation_search(inst, design, trials=12, seed=0)
    assert report.verdict and report.margin == 0.0
    assert report.diagnostics["evaluated"] == (9 if direction == "uplink" else 12)
    # at C > 0 and P > 0 a planted design that describes nothing loses to the
    # full-rank random pairs
    inst = _identity_instance(P=2.0, C=2.0)
    empty = np.zeros((2, 0))
    S = np.eye(2) if direction == "uplink" else np.zeros((2, 2))
    planted = type(design)(S=S, Q=np.zeros((2, 2)), active_basis=empty)
    report = perturbation_search(inst, planted, trials=12, seed=0)
    assert report.diagonal_rate == 0.0
    assert not report.verdict and report.margin < -0.1
    assert report.diagnostics["best_trial"] % 4 == 3  # a random pair


def test_certification_deterministic():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "downlink")
    r1 = perturbation_search(inst, design, trials=40, seed=9)
    r2 = perturbation_search(inst, design, trials=40, seed=9)
    assert r1.best_perturbed_rate == r2.best_perturbed_rate
    assert r1.margin == r2.margin


def test_certification_validates_arguments():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    with pytest.raises(InvalidInputError):
        perturbation_search(inst, design, trials=-1, seed=0)
    # the direction is the design's; a base that is not a design has none
    with pytest.raises(InvalidInputError, match="UplinkDesign or a DownlinkDesign"):
        perturbation_search(inst, (design.S, design.Q), trials=10, seed=0)


@pytest.mark.parametrize("trials", [-1, 2.5, True, "3", None], ids=repr)
def test_certification_rejects_bad_trial_count(trials):
    # trials=True used to run a one-trial search, and 2.5 raised numpy's TypeError
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    with pytest.raises(InvalidInputError, match="trials"):
        perturbation_search(inst, design, trials=trials, seed=0)


def test_certification_accepts_numpy_integer_trials():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    report = perturbation_search(inst, design, trials=np.int64(8), seed=0)
    assert report.trials == 8


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None], ids=repr)
def test_certification_rejects_bad_seed(seed):
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    for trials in (1, 10):
        with pytest.raises(InvalidInputError, match="seed"):
            perturbation_search(inst, design, trials=trials, seed=seed)


def _reference_rotation(n, eps, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = 0.5 * (G + G.conj().T)
    nrm = float(np.linalg.norm(A))
    if nrm > 0:
        A = A / nrm
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * eps * w)) @ V.conj().T


def _reference_psd(n, rng):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X @ X.conj().T) / n


def _reference_design(inst, direction, S, Q, W):
    """One candidate pair rescaled onto the constraint boundary as the
    public design it stands for, restricted to its described subspace W
    (None: the whole space), with the fronthaul level from
    _bisection_level; None where it has no design (a quantizer that is not
    positive definite on W)."""
    def on_W(M):
        return M if W is None else W.conj().T @ M @ W

    Q_W = on_W(Q)
    try:
        np.linalg.cholesky(Q_W)
    except np.linalg.LinAlgError:
        return None
    if direction == "uplink":
        S = inst.P / np.trace(S).real * S
        # the spectrum of H S H^H + sigma2 I relative to Q, on W: the
        # fronthaul is sum(log2(1 + rho ev)) at quantizer Q / rho
        Phi = on_W(inst.H @ S @ inst.H.conj().T) + inst.sigma2 * np.eye(len(Q_W))
        ev = np.linalg.eigvals(np.linalg.solve(Q_W, Phi)).real
        rho = np.exp(_bisection_level(ev, inst.C))
        return UplinkDesign(S=S, Q=Q / rho, active_basis=W)
    # the downlink sends its signal only where it is described; the
    # fronthaul reads the ratio rho of the signal's scale to the quantizer's
    S_W = on_W(S)
    ev = np.clip(np.linalg.eigvals(np.linalg.solve(Q_W, S_W)).real, 0.0, None)
    rho = np.exp(_bisection_level(ev, inst.C))
    beta = inst.P / (rho * np.trace(S_W).real + np.trace(Q_W).real)
    S = S if W is None else W @ S_W @ W.conj().T
    return DownlinkDesign(S=rho * beta * S, Q=beta * Q, active_basis=W)


def _reference_rates(inst, direction, base, trials, seed):
    """The per-candidate search loop that the block evaluation replaced,
    built from the public designs and rate functions: the rate of every
    trial's candidate, None where it failed.  A rotated candidate carries
    its own described subspace, the base's rotated with its quantizer."""
    S0, Q0, W = base.S, base.Q, base.active_basis
    nS, nQ = S0.shape[0], Q0.shape[0]
    rate_fn = uplink_rate if direction == "uplink" else downlink_rate
    rng = np.random.default_rng(seed)
    rates = []
    for t in range(trials):
        kind = t % (len(oracle.GEODESIC_STEPS) + 1)
        if kind < len(oracle.GEODESIC_STEPS):
            eps = oracle.GEODESIC_STEPS[kind]
            Us = _reference_rotation(nS, eps, rng)
            Uq = _reference_rotation(nQ, eps, rng)
            S_c = Us @ S0 @ Us.conj().T
            Q_c = Uq @ Q0 @ Uq.conj().T
            W_c = None if W is None else Uq @ W
        else:
            S_c = _reference_psd(nS, rng)
            Q_c = _reference_psd(nQ, rng) + 1e-6 * np.eye(nQ)
            W_c = None
        design = _reference_design(inst, direction, S_c, Q_c, W_c)
        try:
            rates.append(None if design is None else rate_fn(inst, design))
        except DomainError:
            rates.append(None)
    return rates


def _reference_outcome(rates):
    """(evaluated, failures, best_trial, best_rate) of the loop's search."""
    best_rate, best_trial = -np.inf, -1
    for t, r in enumerate(rates):
        if r is not None and r > best_rate:
            best_rate, best_trial = r, t
    evaluated = sum(r is not None for r in rates)
    return evaluated, len(rates) - evaluated, best_trial, best_rate


_DIFFERENTIAL_SHAPES = [(n_r, n_u) for n_r in (1, 2, 3) for n_u in (1, 2, 3)] + [(1, 4)]


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("shape", _DIFFERENTIAL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_block_search_matches_per_candidate_loop(shape, direction):
    # 7, 128 and 1000 trials read prefixes of one random stream, so one
    # reference run serves every count (each count is one block of the
    # search; block boundaries are tested below); the loop takes ~0.5 ms a
    # candidate, so 1000 trials are run on the widest shapes only
    k = _DIFFERENTIAL_SHAPES.index(shape)
    inst = ChannelInstance(
        H=random_channel(*shape, seed=30_000 + k),
        P=(0.5, 1.0, 4.0)[k % 3],
        C=(0.5, 2.0, 8.0)[(k // 3) % 3],
        sigma2=1.0,
    )
    design, _, _ = solve_instance(inst, direction)
    counts = (7, 128, 1000) if shape in ((3, 3), (1, 4)) else (7, 128)
    rates = _reference_rates(inst, direction, design, counts[-1], seed=k)
    for trials in counts:
        report = perturbation_search(inst, design, trials=trials, seed=k)
        evaluated, failures, _, best_rate = _reference_outcome(rates[:trials])
        d = report.diagnostics
        assert (d["evaluated"], d["projection_failures"]) == (evaluated, failures), trials
        # the reference rounds differently, so the best trial is one whose
        # reference rate ties with the best within 1e-12: the rotated
        # candidates of a 1 x 1 quantizer are the base pair itself
        assert rates[d["best_trial"]] >= best_rate - 1e-12, trials
        assert abs(report.best_perturbed_rate - best_rate) <= 1e-12, trials
        ref_margin = report.diagonal_rate - best_rate
        assert report.verdict == (2 * evaluated >= trials and ref_margin >= -CERTIFICATION_TOL)


def _reference_directions(trial, nS, nQ, rng):
    """The directions of one block as the search drew them before they were
    memoized: from the search's own generator, as it reached the block."""
    T = len(trial)
    z = rng.standard_normal((T, 2 * nS * nS + 2 * nQ * nQ))
    cut = np.cumsum([nS * nS, nS * nS, nQ * nQ])
    s_re, s_im, q_re, q_im = np.split(z, cut, axis=1)
    Gs = (s_re + 1j * s_im).reshape(T, nS, nS)
    Gq = (q_re + 1j * q_im).reshape(T, nQ, nQ)
    kind = trial % (len(oracle.GEODESIC_STEPS) + 1)
    rot = kind < len(oracle.GEODESIC_STEPS)
    eps = np.asarray(oracle.GEODESIC_STEPS)[kind[rot]]
    return oracle._Directions(
        trial,
        rot,
        oracle._random_rotations(Gs[rot], eps),
        oracle._random_rotations(Gq[rot], eps),
        oracle._random_psd(Gs[~rot]),
        oracle._random_psd(Gq[~rot]) + 1e-6 * np.eye(nQ),
    )


def _reference_search(monkeypatch, inst, base, trials, seed):
    """The search's report with its directions drawn block by block by
    _reference_directions, with no plan memo."""

    def per_block(seed, trials, nS, nQ):
        rng = np.random.default_rng(seed)
        size = oracle._block_trials(nS, nQ)
        for start in range(0, trials, size):
            yield _reference_directions(np.arange(start, min(start + size, trials)), nS, nQ, rng)

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_blocks", per_block)
        return perturbation_search(inst, base, trials=trials, seed=seed)


_MEMO_SHAPES = [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4)]
# the fewest trials whose 4x4 plan is over the size cap, so it is not stored
_OVER_CAP = oracle._PLAN_MAX_BYTES // oracle._plan_nbytes(1, 4, 4) + 1


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("shape", _MEMO_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_memoized_directions_match_the_per_block_draw(monkeypatch, shape, direction):
    # with b trials per block at the byte budget (1024 to 16384 here, by
    # shape and direction), 1 and b - 1 trials fill part of one block, b
    # exactly one, and b + 1 end on a one-trial second block; 1000 is the
    # benchmark's count.  Each count runs on a cold memo and a warm one
    k = _MEMO_SHAPES.index(shape)
    inst = ChannelInstance(
        H=random_channel(*shape, seed=33_000 + k),
        P=(0.5, 1.0, 4.0)[k % 3],
        C=(0.5, 2.0, 8.0)[(k + 1) % 3],
        sigma2=1.0,
    )
    design, _, _ = solve_instance(inst, direction)
    nS = inst.n_u if direction == "uplink" else inst.n_r
    b = oracle._block_trials(nS, inst.n_r)
    counts = (1, b - 1, b, b + 1, 1000) + ((_OVER_CAP,) if shape == (4, 4) else ())
    expected = {t: _reference_search(monkeypatch, inst, design, t, seed=k) for t in counts}
    stored = sum(oracle._plan_nbytes(t, nS, inst.n_r) <= oracle._PLAN_MAX_BYTES for t in counts)
    oracle._plan.cache_clear()
    for memo, calls in (("cold", (0, stored)), ("warm", (stored, stored))):
        for trials in counts:
            report = perturbation_search(inst, design, trials=trials, seed=k)
            assert report == expected[trials], (memo, trials)
        assert oracle._plan.cache_info()[:2] == calls, memo


# Lane independence: the search's report does not depend on its block size
# only because no kernel's result for one lane depends on the other lanes or
# on the stack's size.  Each kernel is run on the first T lanes of one
# 1000-lane stack and compared, lane by lane, with its run on that lane
# alone.  Lane 7 is planted so that its Cholesky factorization fails: the
# stacks of up to 7 lanes are factored at once, the longer ones by halving
# until the failed lane is alone.
_LANE_COUNTS = (1, 2, 3, 7, 128, 1000)
_LANE_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (1, 4), (4, 1)]
_BAD_LANE = 7


def _random_psd_stack(n, rng, lanes=1000):
    """PSD stacks with eigenvalue spreads and scales over several decades."""
    X = rng.standard_normal((lanes, n, n)) + 1j * rng.standard_normal((lanes, n, n))
    X *= 10.0 ** rng.uniform(-3, 3, (lanes, 1, n))
    return oracle._random_psd(X)


def _assert_lanes_match_their_own_results(kernel, *stacks):
    alone = [kernel(*(a[t : t + 1] for a in stacks)) for t in range(len(stacks[0]))]
    for T in _LANE_COUNTS:
        out = kernel(*(a[:T] for a in stacks))
        for t in range(T):
            for x, y in zip(out, alone[t]):
                assert np.array_equal(x[t], y[0], equal_nan=True), (T, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_whitened_eigvalsh_lanes_do_not_depend_on_the_stack(n):
    rng = np.random.default_rng(35_000 + n)
    M, B = _random_psd_stack(n, rng), _random_psd_stack(n, rng) + 1e-9 * np.eye(n)
    B[_BAD_LANE] = -np.eye(n)
    assert not whitened_eigvalsh(M[:8], B[:8])[1][_BAD_LANE]
    _assert_lanes_match_their_own_results(whitened_eigvalsh, M, B)


# the shapes, and the width k of a per-lane described subspace (None: the
# whole space), as the search restricts its rotated candidates
_LANE_CASES = [
    pytest.param(shape, width, id=f"{shape[0]}x{shape[1]}" + (f"-W{width}" if width else ""))
    for shape, width in [(shape, None) for shape in _LANE_SHAPES] + [((3, 3), 2), ((4, 1), 1)]
]


@pytest.mark.parametrize("kernel", ["projection", "rate"])
@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("shape, width", _LANE_CASES)
def test_stacked_kernel_lanes_do_not_depend_on_the_stack(shape, width, direction, kernel):
    k = _LANE_SHAPES.index(shape)
    rng = np.random.default_rng(36_000 + k)
    inst = ChannelInstance(H=random_channel(*shape, seed=36_000 + k), P=2.0, C=4.0, sigma2=1.0)
    nS = inst.n_u if direction == "uplink" else inst.n_r
    S, Q = _random_psd_stack(nS, rng), _random_psd_stack(inst.n_r, rng)
    W = None
    if width is not None:
        G = rng.standard_normal((len(Q), inst.n_r, width)) + 1j * rng.standard_normal(
            (len(Q), inst.n_r, width))
        W = np.linalg.qr(G)[0]
    if kernel == "projection":
        Q[_BAD_LANE] = 0.0  # a singular quantizer has no design

        def run(S, Q, W=None):
            return oracle._project(inst, direction, S, Q, W)
    else:
        Q[_BAD_LANE] = -1e6 * np.eye(inst.n_r)  # the base of the ratio is not positive definite
        stacked = uplink_rate_stacked if direction == "uplink" else downlink_rate_stacked

        def run(S, Q, W=None):
            return stacked(inst, S, Q, W)
    stacks = (S, Q) if W is None else (S, Q, W)
    ok = run(*(a[:8] for a in stacks))[-1]
    assert not ok[_BAD_LANE] and ok[:_BAD_LANE].all()
    _assert_lanes_match_their_own_results(run, *stacks)


def _blocks_of_128_trials(monkeypatch, nS, nQ):
    """Shrink the block byte budget to 128 trials of nS x nS and nQ x nQ
    candidate pairs, and empty the plan memo, whose keys do not hold the
    block size."""
    monkeypatch.setattr(oracle, "_BLOCK_MAX_BYTES", 128 * 16 * (nS * nS + nQ * nQ))
    assert oracle._block_trials(nS, nQ) == 128
    oracle._plan.cache_clear()


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("shape", [(3, 3), (1, 4), (4, 4)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_search_report_does_not_depend_on_the_block_size(monkeypatch, shape, direction):
    # 1000 trials are one block at the byte budget and eight blocks of 128
    # (the last one ragged); the 4x4 count is a plan over the size cap, drawn
    # block by block as the search goes, in 4 blocks and in 32.  Every lane's
    # projection and rate are independent of its block, so every report
    # field is bit-identical
    k = [(3, 3), (1, 4), (4, 4)].index(shape)
    inst = ChannelInstance(
        H=random_channel(*shape, seed=34_000 + k), P=1.0, C=(2.0, 8.0, 0.5)[k], sigma2=1.0
    )
    design, _, _ = solve_instance(inst, direction)
    nS = inst.n_u if direction == "uplink" else inst.n_r
    trials = _OVER_CAP if shape == (4, 4) else 1000
    assert (oracle._plan_nbytes(trials, nS, inst.n_r) > oracle._PLAN_MAX_BYTES) == (shape == (4, 4))
    oracle._plan.cache_clear()
    budget = perturbation_search(inst, design, trials=trials, seed=k)
    _blocks_of_128_trials(monkeypatch, nS, inst.n_r)
    small = perturbation_search(inst, design, trials=trials, seed=k)
    assert small == budget
    assert budget.diagnostics["evaluated"] > trials // 2


def test_direction_plans_are_read_only_and_bounded():
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    oracle._plan.cache_clear()
    for seed in range(oracle._PLANS + 3):
        perturbation_search(inst, design, trials=300, seed=seed)
    info = oracle._plan.cache_info()
    assert (info.maxsize, info.currsize) == (oracle._PLANS, oracle._PLANS)
    # the least recently used plans were evicted, the others are kept
    perturbation_search(inst, design, trials=300, seed=oracle._PLANS + 2)
    assert oracle._plan.cache_info().hits == info.hits + 1
    perturbation_search(inst, design, trials=300, seed=0)
    assert oracle._plan.cache_info().misses == info.misses + 1
    plan = oracle._plan(0, 300, 2, 2)
    arrays = [a for block in plan for a in block]
    assert sum(a.nbytes for a in arrays) == oracle._plan_nbytes(300, 2, 2)
    assert oracle._plan_nbytes(300, 2, 2) <= oracle._PLAN_MAX_BYTES
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # a search over the size cap draws its directions and stores nothing
    trials = oracle._PLAN_MAX_BYTES // oracle._plan_nbytes(1, 2, 2) + 1
    before = oracle._plan.cache_info()
    perturbation_search(inst, design, trials=trials, seed=1)
    assert oracle._plan.cache_info() == before


_CANDIDATES = oracle._candidates


def _plant_singular_quantizers(monkeypatch, planted):
    """Zero the quantizer of the candidates of the given trial numbers before
    the block projection sees them."""

    def candidates(S0, Q0, W, block):
        for trial, S, Q, W_c in _CANDIDATES(S0, Q0, W, block):
            Q = Q.copy()
            Q[np.isin(trial, list(planted))] = 0.0
            yield trial, S, Q, W_c

    monkeypatch.setattr(oracle, "_candidates", candidates)


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_singular_quantizer_fails_only_its_lane(monkeypatch, direction):
    # the planted lane fails alone in the search's one block, and in 128-trial
    # blocks, where it sits past the first block
    inst = ChannelInstance(H=random_channel(3, 3, 31_000), P=1.0, C=2.0, sigma2=1.0)
    design, _, _ = solve_instance(inst, direction)
    rates = _reference_rates(inst, direction, design, 300, seed=6)
    winner = _reference_outcome(rates)[2]
    assert winner >= 128
    rates[winner] = None
    _, _, best_trial, best_rate = _reference_outcome(rates)
    for blocks in ("budget", "128-trial"):
        if blocks == "128-trial":
            _blocks_of_128_trials(monkeypatch, 3, 3)
        _plant_singular_quantizers(monkeypatch, [winner])
        report = perturbation_search(inst, design, trials=300, seed=6)
        d = report.diagnostics
        assert (d["evaluated"], d["projection_failures"]) == (299, 1), blocks
        assert d["best_trial"] == best_trial != winner, blocks
        assert abs(report.best_perturbed_rate - best_rate) <= 1e-12, blocks


def test_certification_needs_half_its_trials_evaluated(monkeypatch):
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "downlink")
    _plant_singular_quantizers(monkeypatch, range(6))
    half = perturbation_search(inst, design, trials=12, seed=0)
    assert half.diagnostics["evaluated"] == 6
    assert half.verdict
    _plant_singular_quantizers(monkeypatch, range(7))
    short = perturbation_search(inst, design, trials=12, seed=0)
    assert short.diagnostics["evaluated"] == 5
    assert short.margin >= -CERTIFICATION_TOL  # the margin alone would pass
    assert not short.verdict


# Faults planted where the search's candidates come from.  The search
# validates its random directions once per plan, the projection's scale
# factors and the finiteness of the projected stacks, instead of running the
# covariance check on every candidate (the base's factors were checked when
# the design was built); each planted fault must still stop the search.


def _poison_first_lane(W):
    W = W.copy()
    W[0, 0, 0] = np.nan
    return W


def _overflow_first_lane(project):
    def overflowing(inst, direction, S, Q, W=None):
        S, Q, ok = project(inst, direction, S, Q, W)
        S = S.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            S[np.argmax(ok)] *= 1e308 * 1e308
        return S, Q, ok

    return overflowing


_PSD = "Hermitian positive semidefinite"
# fault -> (patched oracle name, wrapper of the real function, error raised,
# and a pattern of its message)
_FAULTS = {
    "nan-direction": (
        "_random_rotations",
        lambda f: lambda G, eps: _poison_first_lane(f(G, eps)),
        InconsistencyError,
        "not unitary",
    ),
    "non-unitary-rotation": (
        "_random_rotations",
        lambda f: lambda G, eps: 1.001 * f(G, eps),
        InconsistencyError,
        "not unitary",
    ),
    "non-psd-random-pair": ("_random_psd", lambda f: lambda X: -f(X), InvalidInputError, _PSD),
    "negative-scale": (
        "_fronthaul_level",
        lambda f: lambda ev, C: -f(ev, C),
        InconsistencyError,
        "scale factor",
    ),
    "nan-scale": (
        "_fronthaul_level",
        lambda f: lambda ev, C: np.full(len(ev), np.nan),
        InconsistencyError,
        "scale factor",
    ),
    "inf-projected-stack": ("_project", _overflow_first_lane, InconsistencyError, "non-finite"),
}


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_planted_candidate_faults_stop_the_search(monkeypatch, fault, direction):
    name, wrap, error, message = _FAULTS[fault]
    inst = _projection_instance("3x3-off")
    design, _, _ = solve_instance(inst, direction)
    assert perturbation_search(inst, design, trials=200, seed=4).verdict
    # the plan of this key is drawn again under the fault, not read from the memo
    oracle._plan.cache_clear()
    monkeypatch.setattr(oracle, name, wrap(getattr(oracle, name)))
    with pytest.raises(error, match=message):
        perturbation_search(inst, design, trials=200, seed=4)
    if name in ("_random_rotations", "_random_psd"):
        assert oracle._plan.cache_info().currsize == 0  # a rejected plan is not kept
