"""Scalar subchannel allocation.

On the channel's singular-value coordinates both link directions reduce to
the same separable problem: split the power budget P and the fronthaul
budget C (bits) across subchannels with gains h_d, where a subchannel
carrying signal power s = h^2 p under fronthaul share c contributes

    r(s, c) = log2( (s + sigma2) / (sigma2 + 2^-c s) )

bits.  One (power, share) allocation is therefore optimal in both
directions, and it carries no quantizer: each assembly realizes a share with
its own "tight" quantizer, the one that meets the share exactly (shrinking
it further would overrun the share, growing it only wastes rate).  The joint
problem is not convex (small budgets reward concentrating everything on
one subchannel), but each block is: for fixed powers the share allocation
is an exact water-filling in the log2 domain, and for fixed shares the
power allocation is concave with a closed-form KKT solution.  The solver
therefore runs block-coordinate ascent with exact block maximizers from a
fixed family of starts (top-k concentration and water-filling), so its
answer is a deterministic function of the inputs.

The block steps see the 1-8 entries of a typical channel, where numpy's
per-call cost dwarfs the arithmetic, so they compute on Python floats.
Only log2 of the signal powers and 2^-c of the shares stay in numpy, whose
vector kernels for them can differ from ``math.log2`` and ``2.0 ** x`` in
the last bit.  The rest (+, -, *, /, sqrt, comparisons) rounds correctly in
both, and ``_sum`` adds in numpy's order, left to right only below 8 terms,
so the steps match their numpy formulation bit for bit up to D = 128 (numpy
splits longer sums in halves, which ``_sum`` does not follow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import inf, sqrt
from operator import add

import numpy as np

from .errors import DomainError, InconsistencyError, InvalidInputError
from .kernels import LN2

C_MAX_DEFAULT = 60.0


@dataclass
class SubchannelAllocation:
    """Per-subchannel budgets, length = channel rank: power p_d and
    fronthaul share c_d (bits).  A subchannel without power carries no
    share; its share is dropped here."""

    power: np.ndarray
    share: np.ndarray
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.power, dtype=float))
        c = np.atleast_1d(np.asarray(self.share, dtype=float))
        if len(p) == 0:
            raise InvalidInputError("allocation must cover at least one subchannel")
        if len(c) != len(p):
            raise InvalidInputError("allocation arrays must share one length")
        if not (np.all(np.isfinite(p)) and np.all(p >= 0)):
            raise InvalidInputError("power entries must be finite and >= 0")
        if not (np.all(np.isfinite(c)) and np.all(c >= 0)):
            raise InvalidInputError("share entries must be finite and >= 0")
        self.power = p
        self.share = np.where(p > 0, c, 0.0)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for solve_scalar_allocation: c_max caps each share (bits,
    finite and > 0)."""

    c_max: float = C_MAX_DEFAULT

    def __post_init__(self):
        if not (np.isfinite(self.c_max) and self.c_max > 0):
            raise InvalidInputError(
                f"c_max in SolverOptions must be finite and positive, got {self.c_max}"
            )


def subchannel_rate(s, c, sigma2):
    """Rate of one subchannel: log2((s + sigma2)/(sigma2 + 2^-c s)) bits.

    Nondecreasing in both s and c; bounded by the share (r <= c) and by the
    uncompressed limit (r <= log2(1 + s/sigma2)).  Exactly 0 at c = 0 or
    s = 0.  Accepts scalars or equally shaped arrays.
    """
    s_a = np.asarray(s, dtype=float)
    c_a = np.asarray(c, dtype=float)
    if np.any(s_a < 0) or not np.all(np.isfinite(s_a)):
        raise InvalidInputError("signal power must be finite and >= 0")
    if np.any(c_a < 0) or not np.all(np.isfinite(c_a)):
        raise InvalidInputError("share must be finite and >= 0")
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise InvalidInputError(f"sigma2 must be > 0, got {sigma2}")
    out = _rates(s_a, c_a, sigma2)
    return float(out) if out.ndim == 0 else out


def _rates(s, c, sigma2):
    # unchecked vector core of subchannel_rate, for solver loops
    return np.log2((s + sigma2) / (sigma2 + np.power(2.0, -c) * s))


def tight_quantizer_uplink(h2, p, c, sigma2):
    """Smallest quantizer meeting share c exactly for squared gain h2:
    q = (h2 p + sigma2)/(2^c - 1).

    Substituting back reproduces the share to rounding:
    log2((h2 p + q + sigma2)/q) = log1p((h2 p + sigma2)/q)/ln 2 = c.
    """
    h2_a = np.asarray(h2, dtype=float)
    p_a = np.asarray(p, dtype=float)
    c_a = np.asarray(c, dtype=float)
    if not (
        np.isfinite(h2_a).all()
        and np.isfinite(p_a).all()
        and np.isfinite(c_a).all()
        and np.isfinite(sigma2)
    ):
        raise InvalidInputError("gains, powers, shares and sigma2 must be finite")
    if np.any(h2_a < 0) or np.any(p_a < 0) or sigma2 <= 0:
        raise InvalidInputError("gains and powers must be >= 0 and sigma2 > 0")
    if np.any(c_a <= 0):
        raise DomainError("zero share cannot carry a description; q would be infinite")
    out = (h2_a * p_a + sigma2) / np.expm1(c_a * LN2)
    return float(out) if out.ndim == 0 else out


def tight_quantizer_downlink(x, c):
    """Split total subchannel power x into (q, p~) with the share met
    exactly: q = x 2^-c, p~ = x - q, so log2((p~ + q)/q) = c.

    x = 0 returns (0, 0): the subchannel is off.
    """
    x_a = np.asarray(x, dtype=float)
    c_a = np.asarray(c, dtype=float)
    if np.any(x_a < 0) or not np.all(np.isfinite(x_a)):
        raise InvalidInputError("total subchannel power must be finite and >= 0")
    if not np.isfinite(c_a).all():
        raise InvalidInputError("share must be finite")
    if np.any(c_a <= 0):
        raise DomainError("zero share cannot carry a description")
    q = x_a * np.power(2.0, -c_a)
    pt = x_a - q
    if q.ndim == 0:
        return float(q), float(pt)
    return q, pt


def _sum(xs: list) -> float:
    """Sum floats in numpy's order, so the result equals ndarray.sum bit for
    bit up to 128 terms: from +0.0, left to right below 8 terms, else eight
    interleaved running sums added as a tree, then the rest left to right.
    (The builtin sum compensates rounding from Python 3.12 on.)"""
    if len(xs) < 8:
        t = 0.0
        for x in xs:
            t += x
        return t
    m = len(xs) - len(xs) % 8
    r = [reduce(add, xs[j:m:8]) for j in range(8)]
    t = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, xs[m:], 0.0 + t)


def _share_step(s: np.ndarray, C: float, c_max: float) -> np.ndarray:
    """Exact share water-filling: maximize sum r(s_d, c_d) over
    {0 <= c <= c_max, sum c <= C} for fixed signal powers s.

    KKT equalizes the compressed residual s_d 2^-c_d, giving
    c_d = clip(log2 s_d - u, 0, c_max) with the level u solved exactly on
    the piecewise-linear budget curve.  The clip passes NaN on, as np.clip
    does.
    """
    c = [0.0] * len(s)
    pos = [d for d, x in enumerate(s.tolist()) if x > 0]
    if not pos or C <= 0:
        return np.array(c)
    ls = np.log2(s[pos]).tolist()

    def clipped(u):
        out = []
        for x in ls:
            x -= u
            out.append(0.0 if x < 0.0 else (c_max if x > c_max else x))
        return out

    if C >= len(ls) * c_max:
        cp = [c_max] * len(ls)
    else:
        # walk the budget curve down the sorted kinks to the first at or
        # below C (inside the walk g0 > C >= g, so repeated kinks are
        # harmless); if rounding puts the first kink there already, the
        # segment wraps to the last kink, where the curve is 0, as in numpy
        kinks = sorted(ls + [x - c_max for x in ls])
        k0, g0 = kinks[-1], 0.0
        for k in kinks:
            g = _sum(clipped(k))
            if g <= C:
                break
            k0, g0 = k, g
        if g0 == g:
            # every kink coincides (equal powers, c_max below the rounding
            # unit of log2 s), so no level spends C: split it evenly
            cp = [C / len(ls)] * len(ls)
        else:
            cp = clipped(k if g == C else k0 + (g0 - C) * (k - k0) / (g0 - g))
        tot = _sum(cp)
        if tot > C:
            cp = [x * (C / tot) for x in cp]
    for d, x in zip(pos, cp):
        c[d] = x
    return np.array(c, dtype=float)


# Newton iterations allowed for the power step's water level; a solve that
# needs more is a numerical fault, not a slow case (a handful is typical)
_LEVEL_MAX_ITERATIONS = 100


def _power_step(g2: np.ndarray, c: np.ndarray, P: float, sigma2: float) -> np.ndarray:
    """Exact power allocation for fixed shares: the objective is concave,
    and the stationarity condition per subchannel is a quadratic in
    s = g^2 p, solved in closed form; the water level is found by Newton
    steps from the activation level just below it.

    With T = 1/lambda the level, m = g^2 (1 - b) / (sigma2 ln 2) the
    marginal rate at zero power, b = 2^-c and y = m T, the positive root is

        s = 2 sigma2 (y - 1) / (sqrt((1 - b)^2 + 4 b y) + 1 + b),

    written without the cancellation of the textbook root
    (sqrt(e + k T) - a) / (2 b), which loses every digit as b -> 0.  Each
    p_d(T) is zero below T = 1/m_d and concave above, since its slope
    (1 - b) / (ln 2 sqrt((1 - b)^2 + 4 b y)) falls as T grows.  The spend is
    evaluated at every activation level; between the last level that spends
    at most P and the next one every active p_d is concave, so Newton steps
    from that level rise monotonically onto the root without reaching the
    next level.  A level that is not resolved within the iteration cap
    raises InconsistencyError.  The expressions keep the array version's
    order of operations ((1 - b)^2 is (1 - b) * (1 - b)), and max(y - 1, 0)
    passes NaN on, as np.maximum does.
    """
    beta = np.power(2.0, -np.asarray(c, dtype=float)).tolist()
    g2l = g2.tolist()
    p = [0.0] * len(g2l)
    act = [d for d, (g, b) in enumerate(zip(g2l, beta)) if g > 0 and b < 1.0]
    if not act or P <= 0:
        return np.array(p)
    if len(act) == 1:
        p[act[0]] = P
        return np.array(p, dtype=float)
    # per active subchannel: m, its switch-on level 1/m (inf, as in numpy,
    # should m underflow), g^2, b, and 1 - b, (1 - b)^2, 4 b for the root
    s2ln2, w = sigma2 * LN2, 2 * sigma2
    sub = []
    for d in act:
        g, b = g2l[d], beta[d]
        m = g * (1 - b) / s2ln2
        sub.append((m, 1.0 / m if m else inf, g, b, 1 - b, (1 - b) * (1 - b), 4 * b))

    def powers(T):
        # comparing T with 1/m, not m T with 1, keeps each subchannel on at
        # its own level whatever the rounding of m T
        pa, slope = [], []
        for m, t_on, g, b, a, a2, b4 in sub:
            if T >= t_on:
                y = m * T
                root = sqrt(a2 + b4 * y)
                pa.append(w * (0.0 if y < 1 else y - 1) / (root + 1 + b) / g)
                slope.append(a / (LN2 * root))
            else:
                pa.append(0.0)
                slope.append(0.0)
        return pa, slope

    # rounding at the first level can already overshoot a tiny P
    levels = sorted(x[1] for x in sub)
    T, (pa, slope) = levels[0], powers(levels[0])
    for level in levels[1:]:
        at_level = powers(level)
        if _sum(at_level[0]) <= P:
            T, (pa, slope) = level, at_level
    for _ in range(_LEVEL_MAX_ITERATIONS):
        excess = _sum(pa) - P
        if excess >= 0.0:
            break
        rise = _sum(slope)
        if not rise > 0.0:  # a spend rises wherever it is finite: T or m overflowed
            raise InconsistencyError(f"power-step spend has slope {rise!r} at level {T!r}")
        T_next = T - excess / rise
        if T_next <= T:
            break
        T = T_next
        pa, slope = powers(T)
    else:
        raise InconsistencyError(
            f"power-step water level unresolved after {_LEVEL_MAX_ITERATIONS} "
            f"iterations: level {T!r}, excess {excess!r}"
        )
    tot = _sum(pa)
    scale = P / tot if tot > 0 else 1.0
    for d, x in zip(act, pa):
        p[d] = x * scale
    return np.array(p, dtype=float)


def _waterfilling_powers_g2(g2: np.ndarray, P: float, sigma2: float) -> np.ndarray:
    p = np.zeros_like(g2, dtype=float)
    pos = np.flatnonzero(g2 > 0)
    if pos.size == 0 or P <= 0:
        return p
    inv = sigma2 / g2[pos]
    order = np.argsort(inv, kind="stable")
    inv_s = inv[order]
    k_best = 1
    for k in range(1, pos.size + 1):
        mu = (P + inv_s[:k].sum()) / k
        if mu > inv_s[k - 1]:
            k_best = k
    mu = (P + inv_s[:k_best].sum()) / k_best
    alloc = np.maximum(mu - inv, 0.0)
    tot = alloc.sum()
    if tot > 0:
        alloc *= P / tot
    else:
        # P is below the rounding unit of the water level: the strongest
        # subchannels share it
        top = inv == inv_s[0]
        alloc = np.where(top, P / np.count_nonzero(top), 0.0)
    p[pos] = alloc
    return p


def waterfilling_capacity(gains, P: float, sigma2: float):
    """Water-filling powers and capacity of the parallel channel without a
    fronthaul limit; the reference the solved rate approaches as C grows.

    Returns (powers, capacity_bits).  All-zero gains give capacity 0.
    """
    g2 = _validate_gains(gains) ** 2
    _validate_budgets(P, 0.0, sigma2)
    p = _waterfilling_powers_g2(g2, P, sigma2)
    return p, float(np.sum(np.log2(1.0 + g2 * p / sigma2)))


def _validate_gains(gains) -> np.ndarray:
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.ndim != 1 or g.size == 0:
        raise InvalidInputError("gains must be a nonempty 1-D vector")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise InvalidInputError("gains must be finite and >= 0")
    return g


def _validate_budgets(P: float, C: float, sigma2: float) -> None:
    for name, v in (("P", P), ("C", C)):
        if not np.isfinite(v) or v < 0:
            raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise InvalidInputError(f"sigma2 must be > 0, got {sigma2}")


def _canonicalize(gains: np.ndarray, p: np.ndarray, c: np.ndarray):
    """Among subchannels with exactly equal gains, order (power, share)
    ascending so ties resolve to the lexicographically smallest power
    vector.  Permuting within an equal-gain group changes nothing else."""
    g, p, c = gains.tolist(), p.tolist(), c.tolist()
    for v in set(g):
        idx = [d for d, x in enumerate(g) if x == v]
        if len(idx) > 1:
            for d, pair in zip(idx, sorted((p[d], c[d]) for d in idx)):
                p[d], c[d] = pair
    return np.array(p), np.array(c)


# block-ascent rounds per start, and the rate gain (bits) below which a
# round counts as converged
_ASCENT_MAX_ROUNDS = 200
_ASCENT_TOL = 1e-12


def _ascend(p0, g2, P, C, sigma2, c_max):
    p = p0
    s = g2 * p
    best = -np.inf
    rounds = 0
    for rounds in range(1, _ASCENT_MAX_ROUNDS + 1):
        c = _share_step(s, C, c_max)
        p = _power_step(g2, c, P, sigma2)
        s = g2 * p
        rate = _sum(_rates(s, c, sigma2).tolist())
        if rate <= best + _ASCENT_TOL:
            break
        best = rate
    c = _share_step(s, C, c_max)
    rate = _sum(_rates(s, c, sigma2).tolist())
    return rate, p, c, rounds


def _start_points(g2, P, sigma2):
    D = len(g2)
    order = np.argsort(-g2, kind="stable")
    idx = order[g2[order] > 0]
    starts = []
    for k in range(1, idx.size + 1):  # top-k concentration; k = size is uniform
        v = np.zeros(D)
        v[idx[:k]] = P / k
        starts.append(v)
    starts.append(_waterfilling_powers_g2(g2, P, sigma2))
    return starts


def solve_scalar_allocation(
    gains,
    P: float,
    C: float,
    sigma2: float,
    *,
    opts: SolverOptions | None = None,
) -> SubchannelAllocation:
    """Maximize the summed subchannel rate under the power and fronthaul
    budgets.  The allocation serves both directions; the assemblies realize
    its shares with tight quantizers.

    Deterministic: block ascent runs from a fixed sequence of starts (top-k
    concentration on the k strongest subchannels for every k, then
    water-filling), and a start replaces the incumbent only if it gains
    more than 1e-12 bits, so near-ties resolve to the earliest start.
    Equal-gain subchannels are then ordered by (power, share).  The
    achieved rate, block-ascent round count and number of starts are
    stored in the allocation's diagnostics.
    """
    g = _validate_gains(gains)
    _validate_budgets(P, C, sigma2)
    opts = opts or SolverOptions()
    D = g.size
    g2 = g**2
    if P <= 0 or C <= 0 or not np.any(g2 > 0):
        diagnostics = {"rate": 0.0, "iterations": 0, "starts": 0}
        return SubchannelAllocation(np.zeros(D), np.zeros(D), diagnostics)

    # no share exceeds C, so a cap above max(C, C_MAX_DEFAULT) poses the same
    # problem; lowering it keeps the share step's level u, interpolated from
    # the kinks log2 s - c_max, from cancelling when c_max >> C
    c_max = min(opts.c_max, max(C, C_MAX_DEFAULT))
    starts = _start_points(g2, P, sigma2)
    best = (-np.inf, None, None)
    total_rounds = 0
    for p0 in starts:
        rate, p, c, rounds = _ascend(p0, g2, P, C, sigma2, c_max)
        total_rounds += rounds
        if rate > best[0] + 1e-12:
            best = (rate, p, c)

    _, p, c = best
    p, c = _canonicalize(g, p, c)
    rate = float(_rates(g2 * p, c, sigma2).sum())
    diagnostics = {"rate": rate, "iterations": total_rounds, "starts": len(starts)}
    return SubchannelAllocation(p, c, diagnostics)
