"""Per-subchannel allocation: closed forms, solver, and its realization in
both directions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import cranopt.allocation as allocation
from cranopt import (
    C_MAX_DEFAULT,
    LN2,
    ChannelInstance,
    InconsistencyError,
    InvalidInputError,
    SubchannelAllocation,
    assemble_downlink,
    assemble_uplink,
    downlink_rate,
    random_channel,
    solve_scalar_allocation,
    subchannel_rate,
    svd,
    tight_quantizer_downlink,
    tight_quantizer_uplink,
    uplink_rate,
    waterfilling_capacity,
)
from test_solver import _INSTANCES

RATE_3_2_1 = 1.1926450779423958       # 4 - log2(7) = subchannel_rate(3, 2, 1)
WF_CAP_4_1 = 2.3398500028846247       # log2(81/16), gains^2 = [4, 1], P = 1
DUALITY_EXAMPLE = 0.41503749927884376  # log2(4/3)


def test_subchannel_rate_frozen_value():
    assert np.isclose(subchannel_rate(3.0, 2.0, 1.0), RATE_3_2_1, rtol=1e-14)


def test_subchannel_rate_limits():
    assert subchannel_rate(5.0, 0.0, 1.0) == 0.0
    assert subchannel_rate(0.0, 3.0, 1.0) == 0.0
    # c -> inf recovers the interference-free capacity
    assert np.isclose(subchannel_rate(3.0, 60.0, 1.0), np.log2(4.0), atol=1e-15)


def test_subchannel_rate_vectorized():
    s = np.array([3.0, 0.0])
    c = np.array([2.0, 2.0])
    r = subchannel_rate(s, c, 1.0)
    assert r.shape == (2,)
    assert np.isclose(r[0], RATE_3_2_1)
    assert r[1] == 0.0


def test_tight_quantizer_uplink_meets_budget():
    # q = (h^2 p + sigma2) / (2^c - 1) makes the per-subchannel fronthaul
    # log2((h^2 p + sigma2 + q) / q) equal c exactly
    h2, p, c, sigma2 = 4.0, 1.5, 2.5, 0.8
    q = tight_quantizer_uplink(h2, p, c, sigma2)
    used = np.log2((h2 * p + sigma2 + q) / q)
    assert np.isclose(used, c, rtol=1e-14)


def test_tight_quantizer_downlink_splits_budget():
    x, c = 2.0, 3.0
    q, p_tilde = tight_quantizer_downlink(x, c)
    assert np.isclose(q, x * 2.0**-c, rtol=1e-15)
    assert np.isclose(p_tilde + q, x, rtol=1e-15)
    assert np.isclose(np.log2((p_tilde + q) / q), c, rtol=1e-14)


def test_tight_quantizer_downlink_split_never_exceeds_the_power():
    # x - q can round up so that p~ + q lands an ulp above x, as on the
    # extreme corpus's case 339, where the summed split overshot P
    rng = np.random.default_rng(339)
    x = 10.0 ** rng.uniform(-8, 9, 20_000)
    c = 10.0 ** rng.uniform(-3, 2.5, 20_000)
    q, p_tilde = tight_quantizer_downlink(x, c)
    assert np.all(p_tilde + q <= x)
    assert np.all(p_tilde >= np.nextafter(x - q, 0.0))  # lowered by one step at most


def test_tight_quantizer_downlink_rejects_zero_share():
    import cranopt

    with pytest.raises(cranopt.DomainError):
        tight_quantizer_downlink(1.0, 0.0)


def test_tight_quantizers_reject_non_finite_inputs():
    # NaN used to pass through both quantizers
    for args in [
        (np.nan, 1.0, 1.0, 1.0),
        (1.0, np.nan, 1.0, 1.0),
        (1.0, 1.0, np.nan, 1.0),
        (1.0, 1.0, 1.0, np.nan),
        (1.0, np.inf, 1.0, 1.0),
        (np.array([1.0, 2.0]), np.array([1.0, np.nan]), np.array([1.0, 1.0]), 1.0),
    ]:
        with pytest.raises(InvalidInputError):
            tight_quantizer_uplink(*args)
    for args in [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)]:
        with pytest.raises(InvalidInputError):
            tight_quantizer_downlink(*args)


def test_waterfilling_frozen_value():
    p, cap = waterfilling_capacity(np.array([2.0, 1.0]), 1.0, 1.0)
    assert np.allclose(p, [0.875, 0.125], atol=1e-12)
    assert np.isclose(cap, WF_CAP_4_1, rtol=1e-12)


def test_waterfilling_shuts_weak_channel():
    p, cap = waterfilling_capacity(np.array([2.0, 0.1]), 0.5, 1.0)
    assert p[1] == 0.0
    assert np.isclose(p[0], 0.5)
    assert np.isclose(cap, np.log2(1.0 + 4.0 * 0.5), rtol=1e-14)


@pytest.mark.parametrize(
    "gains, P", [([0.0, 0.0], 1.0), ([2.0, 1.0], 0.0)], ids=["zero-gains", "zero-power"]
)
def test_waterfilling_without_gain_or_power_has_capacity_zero(gains, P):
    p, cap = waterfilling_capacity(gains, P, 1.0)
    assert np.array_equal(p, [0.0, 0.0])
    assert cap == 0.0


def test_waterfilling_exhausts_power():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.uniform(0.1, 3.0, rng.integers(1, 5))
        P = rng.uniform(0.1, 5.0)
        p, cap = waterfilling_capacity(g, P, 1.0)
        assert np.isclose(p.sum(), P, rtol=1e-12)
        assert np.all(p >= 0)
        assert cap >= 0


def test_degenerate_budgets_stay_finite_without_warnings():
    # P below the rounding unit of the water level, and c_max below that of
    # log2 s with equal signal powers, so that every kink of the share
    # step's budget curve coincides; these gave NaN powers with a
    # divide-by-zero warning, and a ZeroDivisionError
    g2 = np.ones(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, cap = waterfilling_capacity([1.0, 1.0], 1e-20, 1.0)
        ascents = [
            allocation._ascend(p0, g2, 1.0, 1e-17, 1.0, 1e-17)
            for p0 in allocation._start_points(g2, 1.0)
        ]
        c = allocation._share_step(np.array([5e-324] * 3), 1e-300, 1e-300)
    assert np.all(np.isfinite(p)) and np.all(p >= 0) and p.sum() <= 1e-20
    assert np.isfinite(cap) and cap >= 0
    for rate, power, share, _ in ascents:
        assert np.all(np.isfinite(power)) and np.all(power >= 0) and power.sum() <= 1.0
        assert np.all(np.isfinite(share)) and np.all(share >= 0)
        assert share.sum() <= 1e-17 and share.max() <= 1e-17
        assert np.isfinite(rate)
    assert np.all(np.isfinite(c)) and np.all(c >= 0) and c.sum() <= 1e-300


def test_solver_concentrates_at_small_budgets():
    # equal gains, tight fronthaul: all budget on one subchannel beats the
    # symmetric split (1.0 bit vs log2(3/1.5 * ...) for the spread)
    a = solve_scalar_allocation(np.array([1.0, 1.0]), 2.0, 2.0, 1.0)
    assert np.isclose(a.diagnostics["rate"], 1.0, atol=1e-12)
    assert np.allclose(a.power, [0.0, 2.0], atol=1e-9)
    assert np.allclose(a.share, [0.0, 2.0], atol=1e-9)


def test_solver_zero_budgets():
    for P, C in [(0.0, 2.0), (2.0, 0.0), (0.0, 0.0)]:
        a = solve_scalar_allocation(np.array([1.0, 2.0]), P, C, 1.0)
        assert a.diagnostics["rate"] == 0.0
        assert np.all(a.power == 0)
        assert np.all(a.share == 0)


def test_solver_respects_budgets():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.uniform(0.2, 2.5, rng.integers(1, 5))
        P = rng.uniform(0.2, 4.0)
        C = rng.uniform(0.2, 8.0)
        a = solve_scalar_allocation(g, P, C, 1.0)
        assert a.power.sum() <= P + 1e-9
        assert a.share.sum() <= C + 1e-9
        assert np.all(a.power >= 0)
        assert np.all(a.share >= 0)


def test_solver_deterministic():
    # no randomness is left in the solver: a repeat solve is bit-identical
    g = np.array([1.7, 0.9, 0.4, 0.4])
    a1 = solve_scalar_allocation(g, 2.0, 3.0, 1.0)
    a2 = solve_scalar_allocation(g, 2.0, 3.0, 1.0)
    assert np.array_equal(a1.power, a2.power)
    assert np.array_equal(a1.share, a2.share)
    assert a1.diagnostics == a2.diagnostics
    assert a1.diagnostics["starts"] == 4  # top-1..top-4 concentration


def test_solver_rate_invariant_under_gain_permutation():
    rng = np.random.default_rng(17)
    for k in range(40):
        D = 2 + k % 5
        g = rng.uniform(0.05, 3.0, D)
        P = rng.uniform(0.1, 8.0)
        C = rng.uniform(0.1, 12.0)
        base = solve_scalar_allocation(g, P, C, 1.0)
        perm = rng.permutation(D)
        shuffled = solve_scalar_allocation(g[perm], P, C, 1.0)
        assert abs(shuffled.diagnostics["rate"] - base.diagnostics["rate"]) <= 1e-12, k


def _bisection_power_step(g2, c, P, sigma2):
    """Reference for allocation._power_step: the original bisection on the
    multiplier lambda (halve it until the budget is covered, then 100
    bisection steps), evaluated independently of the Newton solve.

    The per-subchannel root is taken in rationalized form.  The textbook
    form (sqrt(disc) - u sigma2 (1 + b)) / (2 u b) it was first written with
    cancels to noise as b = 2^-c -> 0, and put all power on one subchannel
    at c = c_max.
    """
    p = np.zeros_like(g2, dtype=float)
    beta = np.power(2.0, -np.asarray(c, dtype=float))
    act = (g2 > 0) & (beta < 1.0)
    if not act.any() or P <= 0:
        return p
    if act.sum() == 1:
        p[act] = P
        return p
    g2a = g2[act]
    ba = beta[act]

    def powers(lam):
        u = lam * LN2 / g2a
        disc = (u * sigma2 * (1 - ba)) ** 2 + 4 * u * ba * sigma2 * (1 - ba)
        s = 2 * sigma2 * (1 - ba - u * sigma2) / (np.sqrt(disc) + u * sigma2 * (1 + ba))
        return np.maximum(s, 0.0) / g2a

    hi = float((g2a * (1 - ba) / (sigma2 * LN2)).max())
    lo = hi
    while powers(lo).sum() < P:
        lo *= 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if powers(mid).sum() >= P:
            lo = mid
        else:
            hi = mid
    pa = powers(lo)
    pa *= P / pa.sum()
    p[act] = pa
    return p


def test_power_step_matches_bisection_reference():
    # Both solves fix the water level to machine precision, so a power
    # p_d = level - sigma2/g_d^2 is resolved to eps times the level, not
    # to eps times p_d; errors are measured against the highest level.
    rng = np.random.default_rng(2018)
    worst_power = worst_rate = 0.0
    for k in range(800):
        D = 2 + k % 7
        g2 = (10.0 ** rng.uniform(-3.0, 3.0, D)) ** 2
        near_zero = rng.uniform(0.0, 1e-3, D)
        c = (
            near_zero,
            np.full(D, C_MAX_DEFAULT),
            np.where(rng.random(D) < 0.5, C_MAX_DEFAULT, near_zero),
            rng.uniform(0.0, C_MAX_DEFAULT, D),
        )[k % 4]
        P = 10.0 ** rng.uniform(-2.0, 4.0)
        sigma2 = 10.0 ** rng.uniform(-1.0, 1.0)
        p_new = allocation._power_step(g2, c, P, sigma2)
        p_ref = _bisection_power_step(g2, c, P, sigma2)
        on = p_ref > 0
        level = np.max(p_ref[on] + sigma2 / g2[on])
        worst_power = max(worst_power, np.max(np.abs(p_new - p_ref)) / level)
        r_new = np.sum(subchannel_rate(g2 * p_new, c, sigma2))
        r_ref = np.sum(subchannel_rate(g2 * p_ref, c, sigma2))
        worst_rate = max(worst_rate, abs(r_new - r_ref))
    assert worst_power <= 1e-12
    assert worst_rate <= 1e-12


def test_power_step_at_share_cap_is_waterfilling():
    # at c = c_max the quantization noise is negligible: classic water-filling
    g = np.array([2.0, 1.0, 0.5])
    p = allocation._power_step(g**2, np.full(3, C_MAX_DEFAULT), 1.0, 1.0)
    p_wf, _ = waterfilling_capacity(g, 1.0, 1.0)
    assert np.allclose(p, p_wf, rtol=0.0, atol=1e-12)


def test_power_step_raises_when_the_level_does_not_converge(monkeypatch):
    monkeypatch.setattr(allocation, "_LEVEL_MAX_ITERATIONS", 1)
    with pytest.raises(InconsistencyError):
        allocation._power_step(np.array([4.0, 1.0]), np.array([2.0, 1.0]), 1.0, 1.0)


def test_power_step_raises_on_a_spend_without_a_slope():
    # at a subnormal sigma2 the marginal rate overflows, so the spend's
    # slope at the first level is nan
    with pytest.raises(InconsistencyError, match="slope"):
        solve_scalar_allocation([3.0, 2.0], 1.0, 2.0, 1e-310)


def test_power_step_stops_on_a_two_cycle():
    # Newton alternates between levels 79.86119164346896 and ...903, five
    # ulps apart: each step just misses the 4 eps T exit, so the step used
    # to run out of iterations and raise on this valid input
    g2 = np.array([1111.0481127558676, 2853.12409502676])
    c = np.array([5.469053489723143, 6.8504218653620255])
    P = 4.227569194955969
    p = allocation._power_step(g2, c, P, 1.0)
    assert np.all(p > 0) and abs(p.sum() - P) <= 1e-15 * P
    assert np.allclose(p, _bisection_power_step(g2, c, P, 1.0), rtol=0.0, atol=1e-13)
    gains = [0.021294525535174014, 0.1083151475882899, 33.332388344609626,
             0.31772273833383213, 53.41464307684514, 0.08900967597941549]
    a = solve_scalar_allocation(gains, P, 12.319475355085169, 1.0)
    assert abs(a.power.sum() - P) <= 1e-12 * P


def test_power_step_converges_at_extreme_gain_spreads(monkeypatch):
    # squared-gain spreads up to 1e24 with the active subchannels in the
    # square-root regime: Newton steps kept inside a bracket used to fall
    # back to bisection here and need 21-45 level evaluations in ~4% of cases
    monkeypatch.setattr(allocation, "_LEVEL_MAX_ITERATIONS", 20)
    rng = np.random.default_rng(77)
    for k in range(2000):
        D = int(rng.integers(2, 9))
        g2 = (10.0 ** rng.uniform(-6.0, 6.0, D)) ** 2
        c = 10.0 ** rng.uniform(-9.0, np.log10(C_MAX_DEFAULT), D)
        c[rng.random(D) < 0.2] = C_MAX_DEFAULT
        P = 10.0 ** rng.uniform(-4.0, 8.0)
        p = allocation._power_step(g2, c, P, 1.0)
        assert np.all(np.isfinite(p)) and np.all(p >= 0), k
        assert abs(p.sum() - P) <= 1e-12 * P, k


def test_random_solves_do_not_raise():
    # gains, budgets and sizes spanning several decades; draw 357 of this
    # stream used to raise on a power-step two-cycle like the one above
    rng = np.random.default_rng(14)
    for k in range(400):
        D = int(rng.integers(2, 9))
        g = np.exp(rng.uniform(-5.0, 5.0, D))
        P = float(np.exp(rng.uniform(-3.0, 5.0)))
        C = float(np.exp(rng.uniform(-3.0, 4.0)))
        a = solve_scalar_allocation(g, P, C, 1.0)
        assert abs(a.power.sum() - P) <= 1e-12 * P, k


def _numpy_share_step(s: np.ndarray, C: float, c_max: float) -> np.ndarray:
    """Reference for allocation._share_step: the numpy version it replaced,
    kept verbatim."""
    c = np.zeros_like(s, dtype=float)
    pos = s > 0
    n = int(pos.sum())
    if n == 0 or C <= 0:
        return c
    ls = np.log2(s[pos])
    if C >= n * c_max:
        c[pos] = c_max
        return c
    # repeated kinks are harmless: the interpolation below reads a segment
    # with g[j - 1] > C >= g[j], whose two kinks always differ
    kinks = np.sort(np.concatenate([ls, ls - c_max]))
    g = np.clip(ls[None, :] - kinks[:, None], 0.0, c_max).sum(axis=1)
    j = int(np.argmax(g <= C))  # first kink at or below the budget; j >= 1
    if g[j] == C:
        u = kinks[j]
    else:
        u = kinks[j - 1] + (g[j - 1] - C) * (kinks[j] - kinks[j - 1]) / (g[j - 1] - g[j])
    cp = np.clip(ls - u, 0.0, c_max)
    tot = cp.sum()
    if tot > C > 0:
        cp *= C / tot
    c[pos] = cp
    return c


def _numpy_power_step(g2: np.ndarray, c: np.ndarray, P: float, sigma2: float) -> np.ndarray:
    """Reference for allocation._power_step: the numpy version it replaced,
    kept verbatim but for the module prefix of the iteration cap."""
    p = np.zeros_like(g2, dtype=float)
    beta = np.power(2.0, -np.asarray(c, dtype=float))
    act = (g2 > 0) & (beta < 1.0)
    if not act.any() or P <= 0:
        return p
    if act.sum() == 1:
        p[act] = P
        return p
    g2a = g2[act]
    ba = beta[act]
    m = g2a * (1 - ba) / (sigma2 * LN2)
    t_on = 1.0 / m  # level at which each subchannel switches on

    def powers(T):
        # comparing T with t_on, not m T with 1, keeps the first subchannel
        # on at T = min(t_on) whatever the rounding of m T
        y = m * T
        root = np.sqrt((1 - ba) ** 2 + 4 * ba * y)
        on = T >= t_on
        pa = np.where(on, 2 * sigma2 * np.maximum(y - 1, 0.0) / (root + 1 + ba) / g2a, 0.0)
        slope = np.where(on, (1 - ba) / (LN2 * root), 0.0)
        return pa, slope

    levels = np.sort(t_on)
    pa_on, slope_on = powers(levels[:, None])
    # rounding at the first level can already overshoot a tiny P
    below = np.flatnonzero(pa_on.sum(axis=1) <= P)
    k = below[-1] if below.size else 0
    T, pa, slope = levels[k], pa_on[k], slope_on[k]
    for _ in range(allocation._LEVEL_MAX_ITERATIONS):
        excess = pa.sum() - P
        if excess >= 0.0:
            break
        T_next = T - excess / slope.sum()
        if T_next <= T:
            break
        T = T_next
        pa, slope = powers(T)
    else:
        raise InconsistencyError(
            f"power-step water level unresolved after {allocation._LEVEL_MAX_ITERATIONS} "
            f"iterations: level {T!r}, excess {excess!r}"
        )
    tot = pa.sum()
    if tot > 0:
        pa *= P / tot
    p[act] = pa
    return p


def test_sum_follows_numpy_order():
    # numpy adds left to right only below 8 terms; _sum follows it to 128
    rng = np.random.default_rng(8)
    for n in range(1, 129):
        for _ in range(20):
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            assert allocation._sum(a.tolist()) == a.sum(), n
    for n in (1, 9):
        assert np.signbit(allocation._sum([-0.0] * n)) == np.signbit(np.full(n, -0.0).sum())

def _step_case(rng, D):
    """One seeded input of both block steps: squared gains from gains
    log-uniform in 1e-6..1e6 with some zero, shares at 0, near 0, c_max or
    mixed, P log-uniform in 1e-4..1e8, and c_max at times below C/n so the
    share step takes its all-at-cap branch."""
    g2 = (10.0 ** rng.uniform(-6.0, 6.0, D)) ** 2
    g2[rng.random(D) < 0.2] = 0.0
    C = 10.0 ** rng.uniform(-3.0, 2.5)
    c_max = (C_MAX_DEFAULT, 10.0 ** rng.uniform(-1.0, 1.5), C / D * rng.uniform(0.1, 1.0))[
        int(rng.integers(3))
    ]
    near_zero = rng.uniform(0.0, 1e-9, D)
    c = (
        np.zeros(D),
        near_zero,
        np.full(D, c_max),
        np.where(rng.random(D) < 0.5, c_max, near_zero),
        rng.uniform(0.0, c_max, D),
    )[int(rng.integers(5))]
    P = 10.0 ** rng.uniform(-4.0, 8.0)
    sigma2 = 10.0 ** rng.uniform(-1.0, 1.0)
    s = g2 * P * rng.dirichlet(np.ones(D))
    return g2, c, s, P, C, c_max, sigma2


def test_steps_match_the_numpy_reference_bit_for_bit():
    # the float steps keep numpy's log2 and 2^-c and its summation order,
    # so they equal the array versions exactly, also from D = 8 on where
    # numpy stops summing left to right
    rng = np.random.default_rng(909)
    for k in range(2400):
        D = 1 + k % 16
        g2, c, s, P, C, c_max, sigma2 = _step_case(rng, D)
        p_new = allocation._power_step(g2, c, P, sigma2)
        assert np.array_equal(p_new, _numpy_power_step(g2, c, P, sigma2)), k
        c_new = allocation._share_step(s, C, c_max)
        assert np.array_equal(c_new, _numpy_share_step(s, C, c_max)), k
        assert p_new.dtype == c_new.dtype == np.float64, k


def _solve(g, P, C, sigma2, c_max):
    """The solver's allocation as (power, share, diagnostics) at the
    instance's share cap (c_max None), or the top-k ascents of the
    reference solve loop at share cap c_max."""
    if c_max is None:
        a = solve_scalar_allocation(g, P, C, sigma2)
        return a.power, a.share, a.diagnostics
    return _solve_with_waterfilling_start(g, P, C, sigma2, c_max)[0]


def test_solves_match_the_numpy_steps_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(4242)
    cases = []
    for k in range(400):
        D = 1 + k % 8
        g = 10.0 ** rng.uniform(-2.0, 2.0, D)
        if k % 5 == 1:
            g[:] = g[0]  # equal gains: the canonical order decides
        if k % 5 == 2:
            g[rng.random(D) < 0.4] = 0.0
        P = 10.0 ** rng.uniform(-2.0, 3.0)
        C = 10.0 ** rng.uniform(-2.0, 2.0)
        c_max = (None, 2.0, C / D)[k % 3]
        cases.append((g, P, C, 10.0 ** rng.uniform(-1.0, 1.0), c_max))
    with monkeypatch.context() as m:
        m.setattr(allocation, "_share_step", _numpy_share_step)
        m.setattr(allocation, "_power_step", _numpy_power_step)
        refs = [_solve(*case) for case in cases]
    for k, (case, ref) in enumerate(zip(cases, refs)):
        p, c, diagnostics = _solve(*case)
        assert np.array_equal(p, ref[0]) and np.array_equal(c, ref[1]), k
        assert diagnostics == ref[2], k  # rate, iterations, starts


def _solve_with_waterfilling_start(gains, P, C, sigma2, c_max=None):
    """Reference for solve_scalar_allocation: the former solve loop, which
    ran block ascent from the water-filling powers as well, after the top-k
    concentrations, at share cap c_max (by default the instance's).
    Returns the outcome of the top-k starts alone, then of all the starts,
    each as (power, share, diagnostics).  Covers P, C and some gain above
    0."""
    g = np.asarray(gains, dtype=float)
    g2 = g**2
    if c_max is None:
        c_max = allocation._share_cap(g, P, C, sigma2)
    order = np.argsort(-g2, kind="stable")
    idx = order[g2[order] > 0]
    starts = []
    for k in range(1, idx.size + 1):
        v = np.zeros(g.size)
        v[idx[:k]] = P / k
        starts.append(v)
    starts.append(waterfilling_capacity(g, P, sigma2)[0])
    best = (-np.inf, None, None)
    total_rounds = 0
    outcomes = []
    for k, p0 in enumerate(starts, 1):
        rate, p, c, rounds = allocation._ascend(p0, g2, P, C, sigma2, c_max)
        total_rounds += rounds
        if rate > best[0] + 1e-12:
            best = (rate, p, c)
        if k >= len(starts) - 1:  # after the top-k starts, then after all
            p, c = allocation._canonicalize(g, best[1], best[2])
            rate = float(allocation._rates(g2 * p, c, sigma2).sum())
            outcomes.append((p, c, {"rate": rate, "iterations": total_rounds, "starts": k}))
    return outcomes


def _start_family_corpus():
    """The 144 criterion-1 duality strata, then random solves with D <= 8
    under the instance's cap (c_max None), c_max = 2 and c_max = C/D, every
    fifth with equal gains."""
    cases = []
    for k in range(144):
        H = random_channel(1 + k % 4, 1 + (k // 4) % 4, 500 + k)
        P, C = (0.5, 1.0, 4.0)[k % 3], (0.5, 2.0, 8.0)[(k // 3) % 3]
        cases.append((svd(H).singular_values, P, C, 1.0, None))
    rng = np.random.default_rng(20261018)
    for k in range(450):
        D = 1 + k % 8
        g = 10.0 ** rng.uniform(-1.0, 1.0, D)
        if k % 5 == 4:
            g[:] = g[0]
        P = 10.0 ** rng.uniform(-2.0, 2.0)
        C = 10.0 ** rng.uniform(-1.0, 1.7)
        c_max = (None, 2.0, C / D)[k % 3]
        cases.append((g, P, C, 10.0 ** rng.uniform(-1.0, 1.0), c_max))
    return cases


def test_water_filling_start_decides_no_solve():
    # the water-filling start never gained 1e-12 bits over the top-k
    # concentrations, so dropping it moves no allocation; it only saves
    # its ascent rounds.  At the instance's cap the top-k outcome is the
    # solver's
    for k, (g, P, C, sigma2, c_max) in enumerate(_start_family_corpus()):
        (p, c, top_k), (p_all, c_all, ref) = _solve_with_waterfilling_start(
            g, P, C, sigma2, c_max
        )
        assert np.array_equal(p, p_all) and np.array_equal(c, c_all), k
        assert top_k["rate"] == ref["rate"], k
        assert top_k["starts"] == ref["starts"] - 1, k
        assert top_k["iterations"] < ref["iterations"], k
        if c_max is None:
            a = solve_scalar_allocation(g, P, C, sigma2)
            assert np.array_equal(a.power, p) and np.array_equal(a.share, c), k
            assert a.diagnostics == top_k, k


def test_solver_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        solve_scalar_allocation(np.array([-1.0]), 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        solve_scalar_allocation(np.array([1.0]), -1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        solve_scalar_allocation(np.array([1.0]), 1.0, -1.0, 1.0)
    with pytest.raises(TypeError):  # a stale direction argument fails
        solve_scalar_allocation(np.array([1.0]), 1.0, 1.0, 1.0, "uplink")
    with pytest.raises(InvalidInputError):
        solve_scalar_allocation(np.array([1.0]), 1.0, 1.0, -1.0)


def test_share_cap_far_above_the_budget_poses_the_same_problem():
    # the instance's cap log2(P max g^2 / sigma2) + 40 grows with the gains,
    # but a cap far above C is inactive, while the share step's kinks
    # log2 s - c_max cancel as it grows (c_max = 1e12 lost 4e-5 bits, and
    # 1e16 gave all-zero powers at rate 0); so a cap above max(C, 60) is
    # lowered to it, and the solve at any gain runs at that cap
    g = np.array([1.0, 0.5])
    assert solve_scalar_allocation(g, 1.0, 1.0, 1.0).diagnostics["rate"] == DUALITY_EXAMPLE
    for scale in (1e9, 1e100, 1e150):
        assert allocation._share_cap(scale * g, 1.0, 1.0, 1.0) == C_MAX_DEFAULT, scale
        wide = allocation._share_cap(scale * g, 1.0, 300.0, 1.0)
        assert wide == pytest.approx(min(300.0, 2.0 * np.log2(scale) + 40.0)), scale
        a = solve_scalar_allocation(scale * g, 1.0, 1.0, 1.0)
        (p, c, diagnostics), _ = _solve_with_waterfilling_start(
            scale * g, 1.0, 1.0, 1.0, C_MAX_DEFAULT
        )
        assert np.array_equal(a.power, p) and np.array_equal(a.share, c), scale
        assert a.diagnostics == diagnostics, scale
        assert abs(a.diagnostics["rate"] - 1.0) <= 1e-12, scale


def test_allocation_container_validation():
    for power, share in [
        ([-1.0], [1.0]),          # negative power
        ([1.0], [np.inf]),        # non-finite share
        ([1.0, 1.0], [1.0]),      # lengths differ
        ([], []),                 # no subchannel
    ]:
        with pytest.raises(InvalidInputError):
            SubchannelAllocation(np.array(power), np.array(share))
    # a subchannel without power carries no share
    a = SubchannelAllocation(np.array([1.0, 0.0]), np.array([2.0, 3.0]))
    assert np.array_equal(a.share, [2.0, 0.0])


def test_one_allocation_gives_equal_rates_in_both_assemblies():
    # subchannel 1 has power but no share: it adds no rate either way, the
    # uplink never forwards it and the downlink leaves it off
    inst = ChannelInstance(H=random_channel(3, 3, 4), P=2.0, C=4.0, sigma2=1.0)
    spec = svd(inst.H)
    p, c = np.array([1.0, 0.8, 0.2]), np.array([3.0, 0.0, 1.0])
    a = SubchannelAllocation(p, c)
    ul = assemble_uplink(spec, a, inst.sigma2)
    dl = assemble_downlink(spec, a)
    expect = np.sum(subchannel_rate(spec.singular_values**2 * p, c, inst.sigma2))
    assert np.isclose(uplink_rate(inst, ul), expect, rtol=1e-12)
    assert np.isclose(downlink_rate(inst, dl), uplink_rate(inst, ul), rtol=1e-12)
    assert np.isclose(np.trace(ul.S).real, 2.0, rtol=1e-12)
    assert np.isclose(np.trace(dl.S + dl.Q).real, 1.2, rtol=1e-12)


def test_duality_example_single_subchannel():
    # h = 1, P = 1, C = 1: r = log2(2 / 1.5) = log2(4/3) on both sides
    a = solve_scalar_allocation(np.array([1.0]), 1.0, 1.0, 1.0)
    assert np.isclose(a.diagnostics["rate"], DUALITY_EXAMPLE, atol=1e-12)


def test_share_cap_default():
    assert C_MAX_DEFAULT == 60.0
    a = solve_scalar_allocation(np.array([1.0]), 1.0, 200.0, 1.0)
    assert a.share.max() <= 60.0 + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_INSTANCES)
def test_rate_monotone_in_budgets(inst):
    gains = inst.spectrum.singular_values

    def rate(P, C):
        return solve_scalar_allocation(gains, P, C, inst.sigma2).diagnostics["rate"]

    base = rate(inst.P, inst.C)
    assert rate(2.0 * inst.P, inst.C) >= base - 1e-9
    assert rate(inst.P, 2.0 * inst.C) >= base - 1e-9
