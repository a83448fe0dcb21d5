"""Independent verification routes: grid oracle, projection, perturbation."""

import itertools
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cranopt.oracle as oracle
from cranopt import (
    CERTIFICATION_TOL,
    LN2,
    CertificationReport,
    ChannelInstance,
    DomainError,
    DownlinkDesign,
    InconsistencyError,
    InvalidInputError,
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
from cranopt.allocation import _rates
from cranopt.downlink import downlink_rate_stacked
from cranopt.kernels import whitened_eigvalsh
from cranopt.oracle import _objective
from cranopt.problem import validate_covariance
from cranopt.uplink import uplink_rate_stacked


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


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, -np.inf, 0.0], ids=repr)
def test_grid_oracle_rejects_bad_noise(sigma2):
    # a NaN or infinite sigma2 used to pass: rate nan, or a divide warning
    with pytest.raises(InvalidInputError, match="sigma2"):
        grid_oracle_scalar(np.array([1.0, 0.5]), 1.0, 1.0, sigma2)


# The grid enumerations the oracle had before it enumerated every size with
# one simplex scan, kept verbatim as the reference of the differential test.
def _grid_power_only(g2, P, c_max, sigma2, res):
    n = len(g2)
    c = np.full(n, c_max)
    if n == 1:
        return np.array([P]), c, _objective(g2, np.array([P]), c, sigma2)
    pgrid = np.linspace(0.0, P, res)
    best = (-np.inf, None)
    if n == 2:
        rates = _rates(g2[0] * pgrid, c_max, sigma2) + _rates(
            g2[1] * (P - pgrid), c_max, sigma2
        )
        k = int(np.argmax(rates))
        return np.array([pgrid[k], P - pgrid[k]]), c, float(rates[k])
    for i in range(res):
        rem = P - pgrid[i]
        sub = pgrid[: res - i]
        rates = (
            _rates(g2[0] * pgrid[i], c_max, sigma2)
            + _rates(g2[1] * sub, c_max, sigma2)
            + _rates(g2[2] * (rem - sub), c_max, sigma2)
        )
        k = int(np.argmax(rates))
        if rates[k] > best[0]:
            best = (float(rates[k]), np.array([pgrid[i], sub[k], rem - sub[k]]))
    return np.clip(best[1], 0.0, None), c, best[0]  # rem - sub can round below 0


def _grid_joint(g2, P, Ct, c_max, sigma2, res):
    n = len(g2)
    if n == 1:
        p = np.array([P])
        c = np.array([min(Ct, c_max)])
        return p, c, _objective(g2, p, c, sigma2)
    pgrid = np.linspace(0.0, P, res)
    cgrid = np.linspace(0.0, Ct, res)
    c_ok = cgrid <= c_max
    if n == 2:
        # rate tables indexed [power point, share point]
        R = [
            _rates(g2[d] * pgrid[:, None], cgrid[None, :], sigma2) for d in range(2)
        ]
        best = (-np.inf, 0, 0)
        for i in range(res):
            # share index m pairs with its complement res-1-m
            row = R[0][i] + R[1][res - 1 - i][::-1]
            mask = c_ok & c_ok[::-1]
            row = np.where(mask, row, -np.inf)
            m = int(np.argmax(row))
            if row[m] > best[0]:
                best = (float(row[m]), i, m)
        rate, i, m = best
        if not np.isfinite(rate):
            # Ct within one grid step of every cap: fall back to the
            # midpoint split, always inside the cap box.
            p = np.full(2, P / 2)
            c = np.full(2, Ct / 2)
            return p, c, _objective(g2, p, c, sigma2)
        p = np.array([pgrid[i], P - pgrid[i]])
        c = np.array([cgrid[m], Ct - cgrid[m]])
        return p, c, rate
    # n == 3: exact simplex via index complements
    R = [_rates(g2[d] * pgrid[:, None], cgrid[None, :], sigma2) for d in range(3)]
    M, N = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    K_c = res - 1 - M - N
    inner_ok = (K_c >= 0) & c_ok[M] & c_ok[N] & c_ok[np.clip(K_c, 0, res - 1)]
    K_c = np.clip(K_c, 0, res - 1)
    best = (-np.inf, 0, 0, 0, 0)
    for i in range(res):
        for j in range(res - i):
            k = res - 1 - i - j
            T = R[0][i][:, None] + R[1][j][None, :] + R[2][k][K_c]
            T = np.where(inner_ok, T, -np.inf)
            flat = int(np.argmax(T))
            m, nn = divmod(flat, res)
            if T[m, nn] > best[0]:
                best = (float(T[m, nn]), i, j, m, nn)
    rate, i, j, m, nn = best
    if not np.isfinite(rate):
        p = np.full(3, P / 3)
        c = np.full(3, Ct / 3)
        return p, c, _objective(g2, p, c, sigma2)
    # the complements can round below 0
    p = np.array([pgrid[i], pgrid[j], P - pgrid[i] - pgrid[j]])
    c = np.array([cgrid[m], cgrid[nn], Ct - cgrid[m] - cgrid[nn]])
    return np.clip(p, 0.0, None), np.clip(c, 0.0, None), rate


def _reference_grid(g2, P, C, c_max, sigma2, res):
    # the dispatch grid_oracle_scalar made between the two enumerations
    n = len(g2)
    if C >= n * c_max:
        return _grid_power_only(g2, P, c_max, sigma2, res)
    return _grid_joint(g2, P, min(C, n * c_max), c_max, sigma2, res)


def _grid_case(rng, k):
    """Case k of the differential corpus: D = 1..3, resolution 11/41/61,
    c_max 60/2/0.7, and C drawn below 8, at 200 (every share capped), within
    one share-grid step below D c_max, anywhere below D c_max, or anywhere
    up to 200; every fourth case has P = 0."""
    D = 1 + k % 3
    res = (11, 41, 61)[(k // 3) % 3]
    c_max = (60.0, 2.0, 0.7)[(k // 9) % 3]
    g2 = np.sqrt(rng.exponential(3.0, D)) ** 2  # squares of the oracle's gains
    P = 0.0 if k % 4 == 3 else float(rng.uniform(0.0, 5.0))
    cap = D * c_max
    C = (
        float(rng.uniform(0.0, 8.0)),
        200.0,
        cap - float(rng.uniform(0.0, 1.0)) * cap / (res - 1),
        float(rng.uniform(0.0, cap)),
        float(rng.uniform(0.0, 200.0)),
    )[(k // 27) % 5]
    return g2, P, C, c_max, res


def _has_share_split_inside_caps(D, C, c_max, res):
    cgrid = np.linspace(0.0, C, res)
    return any(
        sum(split) == res - 1 and all(cgrid[m] <= c_max for m in split)
        for split in itertools.product(range(res), repeat=D)
    )


def test_unified_grid_matches_the_parent_enumerations():
    rng = np.random.default_rng(13)
    counts = {"capped": 0, "fallback": 0, "p0": 0, "near_cap": 0}
    for k in range(405):
        g2, P, C, c_max, res = _grid_case(rng, k)
        D = len(g2)
        capped = C >= D * c_max
        counts["capped"] += capped
        counts["p0"] += P == 0.0
        counts["near_cap"] += 0 < D * c_max - C <= D * c_max / (res - 1)
        if not capped and not _has_share_split_inside_caps(D, C, c_max, res):
            counts["fallback"] += 1
        p_ref, c_ref, rate_ref = _reference_grid(g2, P, C, c_max, 1.0, res)
        p, c, rate = oracle._grid(g2, P, C, c_max, 1.0, res)
        assert np.array_equal(p, p_ref), k
        assert np.array_equal(c, c_ref), k
        # the old capped enumeration rated the last subchannel at the
        # complement P - p of the others, not at its grid point
        assert rate == rate_ref or (capped and abs(rate - rate_ref) <= 1e-15), k
        if c_max == oracle.C_MAX_DEFAULT and P > 0:
            # the polished oracle answer starts from the same point
            a = grid_oracle_scalar(np.sqrt(g2), P, C, 1.0, resolution=res)
            polished = oracle._pattern_polish(g2, p_ref, c_ref, P, C, 1.0, c_max)
            assert np.array_equal(a.power, polished[0]), k
            assert np.array_equal(a.share, np.where(a.power > 0, polished[1], 0.0)), k
            assert a.diagnostics["rate"] == polished[2], k
    assert all(n > 0 for n in counts.values()), counts


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
    S0, Q0 = oracle._densify(inst, direction, design)
    blocks = oracle._blocks(6, 200, S0.shape[0], Q0.shape[0])
    S_c, Q_c = (np.concatenate(x) for x in zip(*(oracle._candidates(S0, Q0, b) for b in blocks)))
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
        perturbation_search(inst, design, trials=trials, seed=0)
        counts.append(calls[0])
    assert counts[0] == counts[1] == 1


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


def test_certification_with_no_evaluated_candidate_fails():
    # a search whose every candidate failed projection has no evidence; it
    # used to report margin = base rate and pass.  No uplink candidate has
    # a design at C = 0
    inst = _identity_instance(C=0.0)
    design, _, _ = solve_instance(inst, "uplink")
    report = perturbation_search(inst, design, trials=12, seed=0)
    assert report.verdict is False
    assert report.diagnostics["evaluated"] == 0
    assert report.diagnostics["projection_failures"] == 12


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
    # uplink candidates are evaluated with ~1e-8-bit noise (the dead-dimension
    # quantizer of _densify), so their rates get a wider tolerance
    tol = 1e-7 if direction == "uplink" else 1e-12
    for trials in counts:
        report = perturbation_search(inst, design, trials=trials, seed=k)
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


def _reference_candidates(S0, Q0, trial, rng):
    """The candidates of one block as the search drew them before its
    directions were memoized: from the search's own generator, as it
    reached the block."""
    T, nS, nQ = len(trial), S0.shape[0], Q0.shape[0]
    z = rng.standard_normal((T, 2 * nS * nS + 2 * nQ * nQ))
    cut = np.cumsum([nS * nS, nS * nS, nQ * nQ])
    s_re, s_im, q_re, q_im = np.split(z, cut, axis=1)
    Gs = (s_re + 1j * s_im).reshape(T, nS, nS)
    Gq = (q_re + 1j * q_im).reshape(T, nQ, nQ)
    kind = trial % (len(oracle.GEODESIC_STEPS) + 1)
    rot = kind < len(oracle.GEODESIC_STEPS)
    eps = np.asarray(oracle.GEODESIC_STEPS)[kind[rot]]
    S = np.empty_like(Gs)
    Q = np.empty_like(Gq)
    S[rot] = oracle._conjugate(oracle._random_rotations(Gs[rot], eps), S0)
    Q[rot] = oracle._conjugate(oracle._random_rotations(Gq[rot], eps), Q0)
    S[~rot] = oracle._random_psd(Gs[~rot])
    Q[~rot] = oracle._random_psd(Gq[~rot]) + 1e-6 * np.eye(nQ)
    return S, Q


def _reference_search(inst, direction, base, trials, seed):
    """The report of the block search drawing its candidates per block with
    _reference_candidates."""
    S0, Q0 = oracle._densify(inst, direction, base)
    uplink = direction == "uplink"
    rate_stacked = uplink_rate_stacked if uplink else downlink_rate_stacked
    rng = np.random.default_rng(seed)
    best_rate, best_trial, evaluated = -np.inf, -1, 0
    size = oracle._block_trials(S0.shape[0], Q0.shape[0])
    for start in range(0, trials, size):
        trial = np.arange(start, min(start + size, trials))
        S_c, Q_c = _reference_candidates(S0, Q0, trial, rng)
        S, Q, ok = oracle._project(inst, direction, S_c, Q_c)
        nats, defined = rate_stacked(inst, S[ok], Q[ok])
        rate, trial = nats[defined] / LN2, trial[ok][defined]
        evaluated += rate.size
        if rate.size and rate.max() > best_rate:
            k = int(np.argmax(rate))
            best_rate, best_trial = float(rate[k]), int(trial[k])
    diagonal = (check_uplink_feasible if uplink else check_downlink_feasible)(inst, base).rate
    margin = diagonal - best_rate
    return CertificationReport(
        instance_id="",
        direction=direction,
        diagonal_rate=diagonal,
        best_perturbed_rate=best_rate,
        margin=margin,
        trials=trials,
        seed=seed,
        verdict=bool(2 * evaluated >= trials and margin >= -CERTIFICATION_TOL),
        diagnostics={
            "evaluated": evaluated,
            "projection_failures": trials - evaluated,
            "best_trial": best_trial,
        },
    )


_MEMO_SHAPES = [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4)]
# the fewest trials whose 4x4 plan is over the size cap, so it is not stored
_OVER_CAP = oracle._PLAN_MAX_BYTES // oracle._plan_nbytes(1, 4, 4) + 1


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("shape", _MEMO_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_memoized_directions_match_the_per_block_draw(shape, direction):
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
    expected = {t: _reference_search(inst, direction, design, t, seed=k) for t in counts}
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


@pytest.mark.parametrize("kernel", ["projection", "rate"])
@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("shape", _LANE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_stacked_kernel_lanes_do_not_depend_on_the_stack(shape, direction, kernel):
    k = _LANE_SHAPES.index(shape)
    rng = np.random.default_rng(36_000 + k)
    inst = ChannelInstance(H=random_channel(*shape, seed=36_000 + k), P=2.0, C=4.0, sigma2=1.0)
    nS = inst.n_u if direction == "uplink" else inst.n_r
    S, Q = _random_psd_stack(nS, rng), _random_psd_stack(inst.n_r, rng)
    if kernel == "projection":
        Q[_BAD_LANE] = 0.0  # a singular quantizer has no design

        def run(S, Q):
            return oracle._project(inst, direction, S, Q)
    else:
        Q[_BAD_LANE] = -1e6 * np.eye(inst.n_r)  # the base of the ratio is not positive definite
        stacked = uplink_rate_stacked if direction == "uplink" else downlink_rate_stacked

        def run(S, Q):
            return stacked(inst, S, Q)
    ok = run(S[:8], Q[:8])[-1]
    assert not ok[_BAD_LANE] and ok[:_BAD_LANE].all()
    _assert_lanes_match_their_own_results(run, S, Q)


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
    # the planted lane fails alone in the search's one block, and in 128-trial
    # blocks, where it sits past the first block
    inst = ChannelInstance(H=random_channel(3, 3, 31_000), P=1.0, C=2.0, sigma2=1.0)
    design, _, _ = solve_instance(inst, direction)
    rates = _reference_rates(inst, direction, design, 300, seed=3)
    winner = _reference_outcome(rates)[2]
    assert winner >= 128
    rates[winner] = None
    _, _, best_trial, best_rate = _reference_outcome(rates)
    tol = 1e-7 if direction == "uplink" else 1e-12
    for blocks in ("budget", "128-trial"):
        if blocks == "128-trial":
            _blocks_of_128_trials(monkeypatch, 3, 3)
        _plant_singular_quantizers(monkeypatch, [winner])
        report = perturbation_search(inst, design, trials=300, seed=3)
        d = report.diagnostics
        assert (d["evaluated"], d["projection_failures"]) == (299, 1), blocks
        assert d["best_trial"] == best_trial != winner, blocks
        assert abs(report.best_perturbed_rate - best_rate) <= tol, blocks


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
# validates its random directions once per plan, its densified base once per
# search, the projection's scale factors and the finiteness of the projected
# stacks, instead of running the covariance check on every candidate; each
# planted fault must still stop the search.


def _poison_first_lane(W):
    W = W.copy()
    W[0, 0, 0] = np.nan
    return W


def _overflow_first_lane(project):
    def overflowing(inst, direction, S, Q):
        S, Q, ok = project(inst, direction, S, Q)
        S = S.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            S[np.argmax(ok)] *= 1e308 * 1e308
        return S, Q, ok

    return overflowing


def _alter_base(k, alter):
    """A wrapper of _densify that alters the k-th matrix (0: S, 1: Q) of
    the densified base pair."""

    def densify(real):
        def altered(inst, direction, base):
            pair = list(real(inst, direction, base))
            pair[k] = alter(pair[k])
            return tuple(pair)

        return altered

    return densify


def _skew(A):
    return A + 0.1 * np.triu(np.ones_like(A), 1)


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
    "non-psd-base-S": ("_densify", _alter_base(0, np.negative), InvalidInputError, _PSD),
    "non-psd-base-Q": ("_densify", _alter_base(1, np.negative), InvalidInputError, _PSD),
    "non-hermitian-base": ("_densify", _alter_base(0, _skew), InvalidInputError, _PSD),
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
