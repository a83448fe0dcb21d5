"""Scalar subchannel allocation.

On the channel's singular-value coordinates both link directions reduce to
the same separable problem: split the power budget P and the fronthaul
budget C (bits) across subchannels with gains h_d, where a subchannel
carrying signal power s = h^2 p under fronthaul share c contributes

    r(s, c) = log2( (s + sigma2) / (sigma2 + 2^-c s) )

bits.  The quantizer that meets a share exactly is "tight": shrinking it
further would overrun the share, growing it only wastes rate.  The joint
problem is not convex (small budgets reward concentrating everything on
one subchannel), but each block is: for fixed powers the share allocation
is an exact water-filling in the log2 domain, and for fixed shares the
power allocation is concave with a closed-form KKT solution.  The solver
therefore runs block-coordinate ascent with exact block maximizers from a
fixed family of starts (top-k concentration and water-filling), so its
answer is a deterministic function of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistencyError, InvalidInputError
from .kernels import LN2

UPLINK = "uplink"
DOWNLINK = "downlink"
DIRECTIONS = (UPLINK, DOWNLINK)

C_MAX_DEFAULT = 60.0


@dataclass
class SubchannelAllocation:
    """Per-subchannel budgets, length = channel rank.

    power    uplink: transmit power p_d; downlink: total x_d = p~_d + q_d
    share    fronthaul bits c_d
    quantizer  quantization noise q_d; +inf marks an uplink subchannel that
               is never forwarded (share 0), 0 marks a downlink subchannel
               that is off
    signal_power  downlink only: described signal power p~_d
    """

    direction: str
    power: np.ndarray
    share: np.ndarray
    quantizer: np.ndarray
    signal_power: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise InvalidInputError(f"direction must be one of {DIRECTIONS}")
        for name in ("power", "share", "quantizer"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            setattr(self, name, v)
        n = len(self.power)
        if n == 0:
            raise InvalidInputError("allocation must cover at least one subchannel")
        if len(self.share) != n or len(self.quantizer) != n:
            raise InvalidInputError("allocation arrays must share one length")
        if not (np.all(np.isfinite(self.power)) and np.all(self.power >= 0)):
            raise InvalidInputError("power entries must be finite and >= 0")
        if not (np.all(np.isfinite(self.share)) and np.all(self.share >= 0)):
            raise InvalidInputError("share entries must be finite and >= 0")
        if np.any(self.quantizer < 0) or np.any(np.isnan(self.quantizer)):
            raise InvalidInputError("quantizer entries must be >= 0")
        if self.direction == UPLINK:
            if self.signal_power is not None:
                raise InvalidInputError("signal_power is a downlink field")
        else:
            if self.signal_power is None:
                raise InvalidInputError("downlink allocations need signal_power")
            pt = np.atleast_1d(np.asarray(self.signal_power, dtype=float))
            self.signal_power = pt
            if len(pt) != n or not np.all(np.isfinite(pt)) or np.any(pt < 0):
                raise InvalidInputError("signal_power entries must be finite and >= 0")
            if not np.all(np.isfinite(self.quantizer)):
                raise InvalidInputError("downlink quantizer entries must be finite")
            gap = np.abs(self.power - (pt + self.quantizer))
            if np.any(gap > 1e-12 * np.maximum(1.0, self.power)):
                raise InvalidInputError("power must equal signal_power + quantizer")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for solve_scalar_allocation: c_max caps each share (bits, > 0)."""

    c_max: float = C_MAX_DEFAULT

    def __post_init__(self):
        if self.c_max <= 0:
            raise InvalidInputError("c_max in SolverOptions must be positive")


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
    out = np.log2((s_a + sigma2) / (sigma2 + np.power(2.0, -c_a) * s_a))
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
    if np.any(c_a <= 0):
        raise DomainError("zero share cannot carry a description")
    q = x_a * np.power(2.0, -c_a)
    pt = x_a - q
    if q.ndim == 0:
        return float(q), float(pt)
    return q, pt


def _share_step(s: np.ndarray, C: float, c_max: float) -> np.ndarray:
    """Exact share water-filling: maximize sum r(s_d, c_d) over
    {0 <= c <= c_max, sum c <= C} for fixed signal powers s.

    KKT equalizes the compressed residual s_d 2^-c_d, giving
    c_d = clip(log2 s_d - u, 0, c_max) with the level u solved exactly on
    the piecewise-linear budget curve.
    """
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
    evaluated at every activation level at once; between the last level
    that spends at most P and the next one every active p_d is concave, so
    Newton steps from that level rise monotonically onto the root without
    reaching the next level.  A level that is not resolved within the
    iteration cap raises InconsistencyError.
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
    for _ in range(_LEVEL_MAX_ITERATIONS):
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
            f"power-step water level unresolved after {_LEVEL_MAX_ITERATIONS} "
            f"iterations: level {T!r}, excess {excess!r}"
        )
    tot = pa.sum()
    if tot > 0:
        pa *= P / tot
    p[act] = pa
    return p


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
    alloc *= P / alloc.sum()
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
    p = p.copy()
    c = c.copy()
    for g in np.unique(gains):
        idx = np.flatnonzero(gains == g)
        if idx.size > 1:
            order = np.lexsort((c[idx], p[idx]))
            p[idx] = p[idx][order]
            c[idx] = c[idx][order]
    return p, c


# block-ascent rounds per start, and the rate gain (bits) below which a
# round counts as converged
_ASCENT_MAX_ROUNDS = 200
_ASCENT_TOL = 1e-12


def _ascend(p0, g2, P, C, sigma2, c_max):
    p = p0
    best = -np.inf
    rounds = 0
    for rounds in range(1, _ASCENT_MAX_ROUNDS + 1):
        c = _share_step(g2 * p, C, c_max)
        p = _power_step(g2, c, P, sigma2)
        rate = float(_rates(g2 * p, c, sigma2).sum())
        if rate <= best + _ASCENT_TOL:
            break
        best = rate
    c = _share_step(g2 * p, C, c_max)
    rate = float(_rates(g2 * p, c, sigma2).sum())
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
    direction: str,
    opts: SolverOptions | None = None,
) -> SubchannelAllocation:
    """Maximize the summed subchannel rate under the power and fronthaul
    budgets, returning a tight-quantizer allocation.

    Deterministic: block ascent runs from a fixed sequence of starts (top-k
    concentration on the k strongest subchannels for every k, then
    water-filling), and a start replaces the incumbent only if it gains
    more than 1e-12 bits, so near-ties resolve to the earliest start.
    Equal-gain subchannels are then ordered by (power, share).  The
    achieved rate, block-ascent round count and number of starts are
    stored in the allocation's diagnostics.
    """
    if direction not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}")
    g = _validate_gains(gains)
    _validate_budgets(P, C, sigma2)
    opts = opts or SolverOptions()
    D = g.size
    g2 = g**2
    if P <= 0 or C <= 0 or not np.any(g2 > 0):
        a = realize_allocation(direction, g, np.zeros(D), np.zeros(D), sigma2)
        a.diagnostics.update({"rate": 0.0, "iterations": 0, "starts": 0})
        return a

    starts = _start_points(g2, P, sigma2)
    best = (-np.inf, None, None)
    total_rounds = 0
    for p0 in starts:
        rate, p, c, rounds = _ascend(p0, g2, P, C, sigma2, opts.c_max)
        total_rounds += rounds
        if rate > best[0] + 1e-12:
            best = (rate, p, c)

    _, p, c = best
    p, c = _canonicalize(g, p, c)
    rate = float(_rates(g2 * p, c, sigma2).sum())

    alloc = realize_allocation(direction, g, p, c, sigma2)
    alloc.diagnostics.update(
        {"rate": rate, "iterations": total_rounds, "starts": len(starts)}
    )
    return alloc


def realize_allocation(direction, gains, power, share, sigma2) -> SubchannelAllocation:
    """Turn a (power, share) point into a tight-quantizer allocation.

    Shares on zero-power subchannels are dropped; uplink subchannels with
    zero share keep quantizer +inf, downlink ones are off entirely.
    """
    if direction not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}")
    g = _validate_gains(gains)
    D = g.size
    p = np.asarray(power, dtype=float).copy()
    c = np.where(p > 0, np.asarray(share, dtype=float), 0.0)
    if direction == UPLINK:
        q = np.full(D, np.inf)
        on = c > 0
        if on.any():
            q[on] = np.atleast_1d(
                tight_quantizer_uplink(g[on] ** 2, p[on], c[on], sigma2)
            )
        return SubchannelAllocation(UPLINK, p, c, q)
    return _tight_downlink(p, c)


def _tight_downlink(power, share) -> SubchannelAllocation:
    """Downlink allocation with the tight split x = q + p~ on every
    subchannel with a positive share; the others are off (x = 0)."""
    on = share > 0
    x = np.where(on, power, 0.0)
    q = np.zeros(len(x))
    pt = np.zeros(len(x))
    if on.any():
        q[on], pt[on] = tight_quantizer_downlink(x[on], share[on])
    return SubchannelAllocation(DOWNLINK, x, share, q, signal_power=pt)


def allocation_rate(gains, a: SubchannelAllocation, sigma2: float) -> float:
    """Summed subchannel rate of an allocation, from its stored quantizers.

    Uses the direction's own rate expression (not the tight-share shortcut),
    so it is valid for hand-built allocations too.
    """
    g = _validate_gains(gains)
    if len(g) != len(a.power):
        raise InvalidInputError("gains and allocation length mismatch")
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise InvalidInputError(f"sigma2 must be > 0, got {sigma2}")
    g2 = g**2
    if a.direction == UPLINK:
        with np.errstate(divide="ignore"):
            terms = np.log2(1.0 + g2 * a.power / (a.quantizer + sigma2))
        terms[~np.isfinite(a.quantizer)] = 0.0
        return float(terms.sum())
    return float(
        np.sum(np.log2(1.0 + g2 * a.signal_power / (g2 * a.quantizer + sigma2)))
    )


def uplink_to_downlink(a: SubchannelAllocation) -> SubchannelAllocation:
    """Map an uplink allocation to the downlink allocation achieving the
    same rate on every subchannel: x_d = p_d, shares unchanged, tight split.

    Subchannels with zero share map to off (x = 0): power parked there
    contributes zero rate on both sides and has no finite downlink
    representation.
    """
    if a.direction != UPLINK:
        raise InvalidInputError(f"expected an uplink allocation, got {a.direction!r}")
    return _tight_downlink(a.power, a.share.copy())
