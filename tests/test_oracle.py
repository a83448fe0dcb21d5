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
    DomainError,
    DownlinkDesign,
    InconsistencyError,
    InvalidInputError,
    ProjectionError,
    TOL,
    UnsupportedSizeError,
    UplinkDesign,
    check_downlink_feasible,
    check_uplink_feasible,
    downlink_fronthaul,
    downlink_rate,
    feasibility_projection,
    grid_oracle_scalar,
    perturbation_search,
    random_channel,
    random_unitary,
    solve_instance,
    subchannel_rate,
    uplink_fronthaul,
    uplink_rate,
)
from cranopt.problem import validate_covariance


def test_grid_oracle_single_subchannel_closed_form():
    for P in (0.5, 1.0, 2.0):
        for C in (0.5, 1.0, 3.0):
            a = grid_oracle_scalar(np.array([1.5]), P, C, 1.0, resolution=101)
            expect = subchannel_rate(1.5**2 * P, C, 1.0)
            assert np.isclose(a.diagnostics["rate"], expect, atol=1e-9)


def test_grid_oracle_finds_concentration():
    a = grid_oracle_scalar(np.array([1.0, 1.0]), 2.0, 2.0, 1.0, resolution=201)
    assert np.isclose(a.diagnostics["rate"], 1.0, atol=1e-9)


def test_grid_oracle_three_subchannels_budget_feasible():
    a = grid_oracle_scalar(np.array([2.0, 1.0, 0.5]), 3.0, 4.0, 1.0, resolution=41)
    assert a.power.sum() <= 3.0 + 1e-9
    assert a.share.sum() <= 4.0 + 1e-9
    assert a.diagnostics["rate"] > 0


def test_grid_oracle_powers_are_nonnegative():
    # the third power, a complement P - p1 - p2, used to round below 0 on
    # both grids (joint, and power-only at C >= 3 c_max), which the
    # allocation rejected
    for gains, P, C in [
        ([2.638, 1.663, 0.446], 4.0, 8.0),
        ([2.380407918, 2.0272577, 0.16425855], 0.13968077701261164, 200.0),
    ]:
        a = grid_oracle_scalar(gains, P, C, 1.0)
        assert np.all(a.power >= 0)
        assert abs(a.power.sum() - P) <= 1e-12


def test_grid_oracle_rejects_large_problems():
    with pytest.raises(UnsupportedSizeError):
        grid_oracle_scalar(np.ones(4), 1.0, 1.0, 1.0)


def test_grid_oracle_rejects_bad_resolution():
    with pytest.raises(InvalidInputError):
        grid_oracle_scalar(np.ones(2), 1.0, 1.0, 1.0, resolution=1)


def test_grid_oracle_zero_budget():
    a = grid_oracle_scalar(np.array([1.0, 2.0]), 0.0, 3.0, 1.0)
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
    S0, Q0 = oracle._densify(inst, direction, design)
    rng = np.random.default_rng(6)
    S_c, Q_c = oracle._candidates(S0, Q0, np.arange(200), rng)
    S, Q, ok = oracle._project(inst, direction, S_c, Q_c)
    assert ok.any()
    # _densify's dead-dimension quantizer puts ~1e-8-bit noise on uplink
    # fronthaul (the level solve and its evaluation alike), the noise the
    # search's rate comparisons already allow for
    dense = direction == "uplink" and design.active_basis is not None
    fronthaul_tol = 1e-7 if dense else TOL.feasibility
    for s, q in zip(S[ok], Q[ok]):
        validate_covariance(s, "S")
        validate_covariance(q, "Q")
        if direction == "uplink":
            power = np.trace(s).real
            fronthaul = uplink_fronthaul(inst, UplinkDesign(S=s, Q=q))
        else:
            power = np.trace(s + q).real
            fronthaul = downlink_fronthaul(DownlinkDesign(S=s, Q=q))
        assert abs(power - inst.P) <= TOL.feasibility
        assert fronthaul <= inst.C + fronthaul_tol


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_search_does_no_eigendecomposition_per_trial(monkeypatch, direction):
    # only _densify clips (once per search); the projection of the
    # candidates must not, however many trials run
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
        perturbation_search(inst, direction, design, trials=trials, seed=0)
        counts.append(calls[0])
    assert counts[0] == counts[1] == 1


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
    monkeypatch.setattr(oracle, "_project", refuse)
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


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None], ids=repr)
def test_certification_rejects_bad_seed(seed):
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "uplink")
    for trials in (0, 10):
        with pytest.raises(InvalidInputError, match="seed"):
            perturbation_search(inst, "uplink", design, trials=trials, seed=seed)


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


def _reference_rates(inst, direction, base, trials, seed):
    """The per-candidate search loop that the block evaluation replaced,
    built from the public projection and rate functions: the rate of every
    trial's candidate, None where it failed."""
    S0, Q0 = oracle._densify(inst, direction, base)
    nS, nQ = S0.shape[0], Q0.shape[0]
    rate_fn = uplink_rate if direction == "uplink" else downlink_rate
    rng = np.random.default_rng(seed)
    rates = []
    for t in range(trials):
        kind = t % (len(oracle.GEODESIC_STEPS) + 1)
        if kind < len(oracle.GEODESIC_STEPS):
            eps = oracle.GEODESIC_STEPS[kind]
            Ws = _reference_rotation(nS, eps, rng)
            Wq = _reference_rotation(nQ, eps, rng)
            S_c = Ws @ S0 @ Ws.conj().T
            Q_c = Wq @ Q0 @ Wq.conj().T
        else:
            S_c = _reference_psd(nS, rng)
            Q_c = _reference_psd(nQ, rng) + 1e-6 * np.eye(nQ)
        try:
            rates.append(rate_fn(inst, feasibility_projection(inst, direction, S_c, Q_c)))
        except (ProjectionError, DomainError):
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
    # 7 trials fill part of one block, 128 exactly one, and 1000 end on a
    # ragged block.  All of them read prefixes of one random stream, so one
    # reference run serves every count; the loop takes ~0.5 ms a candidate,
    # so 1000 trials are run on the widest shapes only
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
    # uplink candidates are evaluated with ~1e-8-bit noise (the dead-dimension
    # quantizer of _densify), so their rates get a wider tolerance
    tol = 1e-7 if direction == "uplink" else 1e-12
    for trials in counts:
        report = perturbation_search(inst, direction, design, trials=trials, seed=k)
        evaluated, failures, best_trial, best_rate = _reference_outcome(rates[:trials])
        d = report.diagnostics
        assert (d["evaluated"], d["projection_failures"], d["best_trial"]) == (
            evaluated,
            failures,
            best_trial,
        ), trials
        assert abs(report.best_perturbed_rate - best_rate) <= tol, trials
        ref_margin = report.diagonal_rate - best_rate
        assert report.verdict == (2 * evaluated >= trials and ref_margin >= -CERTIFICATION_TOL)


_BLOCK_PROJECTION = oracle._project


def _plant_singular_quantizers(monkeypatch, planted):
    """Zero the quantizer of the candidates of the given trial numbers before
    the block projection sees them."""
    real = _BLOCK_PROJECTION
    offset = [0]

    def project(inst, direction, S, Q):
        start = offset[0]
        offset[0] += len(Q)
        Q = Q.copy()
        for t in planted:
            if start <= t < start + len(Q):
                Q[t - start] = 0.0
        return real(inst, direction, S, Q)

    monkeypatch.setattr(oracle, "_project", project)


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_singular_quantizer_fails_only_its_lane(monkeypatch, direction):
    inst = ChannelInstance(H=random_channel(3, 3, 31_000), P=1.0, C=2.0, sigma2=1.0)
    design, _, _ = solve_instance(inst, direction)
    rates = _reference_rates(inst, direction, design, 300, seed=3)
    winner = _reference_outcome(rates)[2]
    assert winner >= 128  # the planted lane sits past the first block
    rates[winner] = None
    _plant_singular_quantizers(monkeypatch, [winner])
    report = perturbation_search(inst, direction, design, trials=300, seed=3)
    d = report.diagnostics
    assert (d["evaluated"], d["projection_failures"]) == (299, 1)
    _, _, best_trial, best_rate = _reference_outcome(rates)
    assert d["best_trial"] == best_trial != winner
    tol = 1e-7 if direction == "uplink" else 1e-12
    assert abs(report.best_perturbed_rate - best_rate) <= tol


def test_certification_needs_half_its_trials_evaluated(monkeypatch):
    inst = _identity_instance()
    design, _, _ = solve_instance(inst, "downlink")
    _plant_singular_quantizers(monkeypatch, range(6))
    half = perturbation_search(inst, "downlink", design, trials=12, seed=0)
    assert half.diagnostics["evaluated"] == 6
    assert half.verdict
    _plant_singular_quantizers(monkeypatch, range(7))
    short = perturbation_search(inst, "downlink", design, trials=12, seed=0)
    assert short.diagnostics["evaluated"] == 5
    assert short.margin >= -CERTIFICATION_TOL  # the margin alone would pass
    assert not short.verdict
