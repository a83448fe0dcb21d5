"""Certification by a bound on the optimum and by random perturbation.

Two independent routes check the solver's optimality claims:

  * :func:`certified_gap_bits` bounds the optimum of the scalar problem
    both directions share, at any D, by monotonic branch and bound over the
    share box (Tuy, SIAM J. Optim. 11(2), 2000; the BRB algorithm of
    Bjornson and Jorswieck, FnT Comm. Inf. Theory, 2013), so one bound
    checks the solver for both.  It shares only the subchannel rate and the
    input checks with the solver, none of its KKT machinery.
  * :func:`perturbation_search` attacks an assembled matrix design with
    random covariance candidates, each rescaled onto the constraint
    boundary, and reports the worst-case margin.  It draws, projects and
    evaluates its candidates in blocks of stacked (T, n, n) arrays, as
    many trials as a fixed byte budget holds (a 1000-trial search on 3 x 3
    channels is one block); a candidate that cannot be projected or
    evaluated fails alone, not its block, and each candidate's outcome is
    the same whatever block it is in.  The random directions (unitaries
    and random pairs) depend only on the seed, the trial count and the two
    matrix sizes, so they are computed once per such key, kept read-only
    in a small memo and reused by every search with that key, both
    directions included; only the conjugation of the base pair is per
    search.  A rotated candidate keeps the base's described subspace,
    rotated with its quantizer.  The candidates are PSD by construction, so
    the search projects them as they are, with no eigendecomposition per
    trial, and checks where they come from rather than each one: the base's
    factors when the design is built, a plan's unitaries (unitary within
    TOL.unitary) and random pairs (the covariance check) when it is drawn,
    the projection's scale factors (nonnegative) and each projected stack
    (finite).  They are measured by the same stacked rate functional of
    their direction as the base design, on their own subspace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .allocation import SubchannelAllocation, _rates, _validate_budgets, _validate_gains
from .downlink import DownlinkDesign, check_downlink_feasible, downlink_rate_stacked
from .errors import DomainError, InconsistencyError, InvalidInputError
from .kernels import (
    LN2,
    TOL,
    as_complex_matrix,
    check_count,
    hermitian_part,
    whitened_eigvalsh,
)
from .problem import DOWNLINK, UPLINK, check_direction
from .problem import ChannelInstance, psd_part, restrict, validate_covariance
from .uplink import UplinkDesign, check_uplink_feasible, uplink_rate_stacked

CERTIFICATION_TOL = TOL.certification
GEODESIC_STEPS = (0.3, 0.1, 0.03)
# perturbation_search draws, projects and evaluates its candidates in blocks
# whose candidate pairs take at most this many bytes: stacked arrays remove
# the per-candidate Python and LAPACK dispatch overhead, a 1000-trial search
# on 3 x 3 channels is one block, and larger matrices get fewer trials per
# block, so the search's peak memory stays flat
_BLOCK_MAX_BYTES = 1 << 19


def _block_trials(nS: int, nQ: int) -> int:
    """Trials per block: as many complex nS x nS and nQ x nQ candidate
    pairs as fit the byte budget, and at least one."""
    return max(1, _BLOCK_MAX_BYTES // (16 * (nS * nS + nQ * nQ)))


@dataclass
class CertificationReport:
    """Outcome of a perturbation search around a base (diagonal) design."""

    instance_id: str
    direction: str
    diagonal_rate: float
    best_perturbed_rate: float
    margin: float  # diagonal_rate - best_perturbed_rate; negative means beaten
    trials: int
    seed: int
    verdict: bool  # margin >= -CERTIFICATION_TOL with at least half the trials evaluated
    diagnostics: dict = field(default_factory=dict)


# best-first boxes bounded before an open case returns its gap
_BOX_BUDGET = 20_000
# bound (a)'s multiplier search: rounds, each cutting the bracket on log
# lambda into this many steps (64^6 = 2^36 in all)
_MULTIPLIER_POINTS = 64
_MULTIPLIER_ROUNDS = 6


def _response(snr, b, t):
    """The power p >= 0 that maximizes r(snr p, c) - p / t at unit noise,
    with b = 2^-c.  r is concave in s = snr p, and its stationary point
    solves (s + 1)(1 + b s) = K with K = snr (1 - b) t / ln 2; the positive
    root is written without the textbook form's cancellation:

        s = 2 max(K - 1, 0) / (1 + b + sqrt((1 - b)^2 + 4 b K))
    """
    K = snr * (1.0 - b) * t / LN2
    return 2.0 * np.maximum(K - 1.0, 0.0) / (1.0 + b + np.sqrt((1.0 - b) ** 2 + 4.0 * b * K)) / snr


def _corner_bound(snr, hi, P):
    """Bound (a) per box (row of hi), min over lambda of lambda P +
    sum_d phi_d(hi_d; lambda) with phi_d(c; lambda) = max_p r(snr_d p, c) -
    lambda p, and the powers at its lambda.  The sum is convex in lambda
    with slope P minus the powers' spend.  On log lambda the spend is
    bracketed in closed form: at max_d m_d, with m_d the marginal rate at
    zero power, nothing is spent; at m_d / (1 + P snr_d)^2 subchannel d
    alone spends P, since s >= sqrt(m_d / lambda) - 1.  Each round cuts the
    bracket into _MULTIPLIER_POINTS steps and keeps the one where the spend
    falls to P.  Any lambda gives a valid bound."""
    b = np.power(2.0, -hi)[:, None, :]
    with np.errstate(divide="ignore"):
        log_m = np.log(snr * (1.0 - b[:, 0]) / LN2)
    top = log_m.max(axis=1)
    low = (log_m - 2.0 * np.log1p(P * snr)).max(axis=1)
    rows, steps = np.arange(len(hi)), np.linspace(0.0, 1.0, _MULTIPLIER_POINTS + 1)
    for _ in range(_MULTIPLIER_ROUNDS):
        grid = low[:, None] + (top - low)[:, None] * steps
        spend = _response(snr, b, np.exp(-grid)[..., None]).sum(axis=2)
        k = np.clip(np.count_nonzero(spend > P, axis=1), 1, _MULTIPLIER_POINTS)
        low, top = grid[rows, k - 1], grid[rows, k]
    t = np.exp(-top)[:, None]
    p = _response(snr, b[:, 0], t)
    return P / t[:, 0] + (_rates(snr * p, hi, 1.0) - p / t).sum(axis=1), p


def _peak_share(snr, lam, mu):
    """The share c*_d at which phi_d(c; lam) - mu c peaks, per subchannel.

    By the envelope theorem phi_d'(c) = z / (1 + z) with z = b s*, b = 2^-c
    and s* the response of :func:`_response`, so the term's slope is
    z / (1 + z) - mu and vanishes where z = mu / (1 - mu).  The response's
    stationarity (1 + s)(1 + b s) = k (1 - b), k = snr / (lam ln 2), reads
    (b + z)(1 + z) = k b (1 - b) in z: it gives z = 0 at b = 0 and at
    b >= 1 - 1/k, and between them z is positive and concave in b, since
    z = ((1 - b)(1 - b + 4 k b))^(1/2) / 2 - (1 + b) / 2 is a concave root
    (the product of two nonnegative affine factors) plus an affine term.  So
    {z > mu / (1 - mu)} is one interval of b, whose ends are the roots of

        a b^2 + beta b + gamma = 0,  a = -4 k,  beta = 4 k - 4 - 4 z,
        gamma = -4 z (1 + z),  z = mu / (1 - mu),

    and as c rises (b falls) the term falls, rises to the share of the
    smaller root and falls again.  That root is gamma / q with
    q = -(beta + sqrt(beta^2 - 4 a gamma)) / 2: when it is positive beta is,
    so neither the sum nor gamma cancels.  With no root in (0, 1) the term
    only falls, and with mu = 0 (root 0) it only rises: c* is +inf, so that
    a side clipped to it keeps its upper end."""
    k = snr / (lam * LN2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = mu / (1.0 - mu)
        beta = 4.0 * k - 4.0 - 4.0 * z
        gamma = -4.0 * z * (1.0 + z)
        q = -0.5 * (beta + np.sqrt(beta * beta - 64.0 * k * z * (1.0 + z)))
        b = gamma / q
        return np.where((b > 0) & (b < 1), -np.log2(b), np.inf)


def _side_bound(snr, lo, hi, P, C, lam, mu, peak):
    """Bound (b) per box: lam P + mu C + sum_d max over [lo_d, hi_d] of
    h_d(c) = phi_d(c; lam) - mu c, for any lam > 0 and mu >= 0.  h_d falls,
    rises to its peak share and falls again (:func:`_peak_share`), so its
    maximum on a side is at the side's lower end or at the peak clipped to
    the side."""
    c = np.stack([lo, np.clip(peak, lo, hi)], axis=-1)
    p = _response(snr[:, None], np.power(2.0, -c), 1.0 / lam)
    h = _rates(snr[:, None] * p, c, 1.0) - lam * p - mu * c
    return lam * P + mu * C + h.max(axis=-1).sum(axis=1)


def _incumbent(gains, P, C, sigma2, allocation):
    """The allocation's powers, shares and rate, after checking that it
    covers the gains and keeps both budgets."""
    if not isinstance(allocation, SubchannelAllocation):
        raise InvalidInputError(
            f"allocation must be a SubchannelAllocation, got {type(allocation).__name__}"
        )
    p, c = allocation.power, allocation.share
    if p.size != gains.size:
        raise InvalidInputError(f"allocation length {p.size} != {gains.size} gains")
    for used, budget, name in ((p.sum(), P, "power"), (c.sum(), C, "share")):
        if used > budget + TOL.feasibility:
            raise InvalidInputError(
                f"allocation {name} {used:.12g} exceeds its budget {budget:.12g}"
            )
    return p, c, float(_rates(gains**2 * p, c, sigma2).sum())


def certified_gap_bits(gains, P: float, C: float, sigma2: float, allocation) -> float:
    """A certified upper bound on the scalar optimum minus the rate of
    ``allocation``, which must cover ``gains`` and keep both budgets.

    The scalar problem has no share cap: the search is a best-first
    monotonic branch and bound over the share box [0, C]^D of the positive
    gains.  A box [lo, hi] is reduced to hi_d <= lo_d + (C - sum lo), or
    dropped when sum lo > C, and bounded by the smaller of bound (a), which
    prices the power budget at its upper corner, and bound (b), which also
    prices the share budget, at the allocation's own marginals lam and mu
    (dr/dp and dr/dc on its powered subchannels that carry a share).  Bound
    (b) is lam P + mu C plus, per side, the exact maximum of
    phi_d(c; lam) - mu c: the larger of its values at lo_d and at the
    closed-form peak share clipped to the side (:func:`_peak_share`, computed
    once per call), two evaluations per side and box.  The best box splits
    at the midpoint of its widest side.  A box's lower corner, with the
    powers of its bound (a) scaled onto P, is a feasible point: the
    allocation's own shares c, as the box [c, c], are tried before any
    branching, then each child.  The search stops when the best bound is
    within TOL.certification of the rate (certified), when a feasible point
    beats the rate by more than that (refuted, at the root box if c does),
    or after _BOX_BUDGET boxes, and returns the best open bound minus the
    rate at that moment.  Zero P, zero C or all-zero gains give
    0.0.  Deterministic.

    The bound is meant to close at up to 8 subchannels: the acceptance
    suite holds it to 1e-6 bits, in under 1 s per case, at D = 3..8.  Where
    no single pair (lam, mu) prices every box tightly (one case at D = 8,
    and D = 32 at P = D, C = 2 D) it returns an open gap of about 1e-2 bits
    or less at the box budget.
    """
    g = _validate_gains(gains)
    _validate_budgets(P, C, sigma2)
    p, c, rate = _incumbent(g, P, C, sigma2, allocation)
    pos = g > 0
    if not pos.any() or P <= 0 or C <= 0:
        return 0.0
    # r(s, c) reads s / sigma2 only: the search runs at unit noise
    snr, p, c = g[pos] ** 2 / sigma2, p[pos], c[pos]

    # the allocation's marginals price bound (b); without a powered
    # subchannel that carries a share there is no lambda* and no bound (b)
    s, b = snr * p, np.power(2.0, -c)
    dr_dp = snr * (1.0 - b) / (LN2 * (s + 1.0) * (1.0 + b * s))
    dr_dc = b * s / (1.0 + b * s)
    on = (p > 0) & (c > 0)
    lam = float(dr_dp[on].mean()) if on.any() else 0.0
    mu = float(dr_dc[on].mean()) if on.any() else 0.0
    peak = _peak_share(snr, lam, mu) if lam > 0 else None

    def bound(lo, hi):
        upper, powers = _corner_bound(snr, hi, P)
        if lam > 0:
            upper = np.minimum(upper, _side_bound(snr, lo, hi, P, C, lam, mu, peak))
        return upper, powers

    lo, hi = np.zeros(snr.size), np.full(snr.size, float(C))
    upper, _ = bound(lo[None], hi[None])
    heap = [(-float(upper[0]), 0, lo, hi)]
    boxes = 1
    # the feasible points: a box's lower corner, with the powers of its bound
    # (a) scaled onto P; first the box [c, c], then each child
    los, powers = c[None], _corner_bound(snr, c[None], P)[1]
    while True:
        spent = powers.sum(axis=1, keepdims=True)
        scaled = powers * (P / np.where(spent > 0, spent, np.inf))
        if _rates(snr * scaled, los, 1.0).sum(axis=1).max() > rate + TOL.certification:
            break
        if -heap[0][0] - rate <= TOL.certification or boxes >= _BOX_BUDGET:
            break
        _, _, lo, hi = heapq.heappop(heap)
        d = int(np.argmax(hi - lo))
        los, his = np.array([lo, lo]), np.array([hi, hi])
        his[0, d] = los[1, d] = 0.5 * (lo[d] + hi[d])
        slack = C - los.sum(axis=1)
        keep = slack >= 0
        los, his = los[keep], np.minimum(his[keep], los[keep] + slack[keep, None])
        upper, powers = bound(los, his)
        for k in range(len(los)):
            heapq.heappush(heap, (-float(upper[k]), boxes + k, los[k], his[k]))
        boxes += len(los)
    return -heap[0][0] - rate


# Newton iterations allowed for the fronthaul level; a solve that needs more
# is a numerical fault, not a slow case (a handful is typical)
_LEVEL_MAX_ITERATIONS = 100


def _fronthaul_level(ev: np.ndarray, C) -> np.ndarray:
    """The levels rho > 0 with sum(log2(1 + rho * ev)) = C, one per row of a
    (T, n) stack of spectra ev >= 0, each with a positive entry, for C > 0
    given once or per row.

    Newton steps in v = log rho start from the closed-form upper end
    log(expm1(C ln 2) / max ev), where the largest eigenvalue alone spends
    C.  In v the left side is a sum of softplus terms: increasing and
    convex, with second derivative at most its first, so the iterates fall
    monotonically onto the root and, within unit distance of it, a step s
    leaves an error below 2 s^2: a step under 1e-8 is the last one needed.
    Each row steps until it has converged, independently of the others.  A
    level that is not resolved within the iteration cap raises
    InconsistencyError.
    """
    with np.errstate(divide="ignore"):
        log_ev = np.log(ev)  # zero eigenvalues give -inf: they spend nothing
    x = np.asarray(C, dtype=float) * LN2
    # log(expm1(x)), written so it neither overflows nor cancels
    v = x + np.log(-np.expm1(-x)) - log_ev.max(axis=-1)
    going = np.ones(v.shape, dtype=bool)  # the rows still stepping
    for _ in range(_LEVEL_MAX_ITERATIONS):
        t = log_ev + v[:, None]
        spent = np.logaddexp(0.0, t)  # ln(1 + rho ev) per eigenvalue
        excess = spent.sum(axis=-1) - x
        going &= ~(excess <= 0.0)
        step = excess / np.exp(t - spent).sum(axis=-1)  # slope: sum rho ev / (1 + rho ev)
        v -= np.where(going, step, 0.0)
        going &= ~(step <= 1e-8)
        if not going.any():
            break
    else:
        k = int(np.argmax(going))
        raise InconsistencyError(
            f"fronthaul level unresolved after {_LEVEL_MAX_ITERATIONS} "
            f"iterations in {int(going.sum())} of {len(v)} spectra: log rho "
            f"{v[k]!r} in spectrum {k}"
        )
    return np.exp(v)


def _project(inst: ChannelInstance, direction: str, S: np.ndarray, Q: np.ndarray, W=None):
    """Batched core of :func:`feasibility_projection` for stacks of
    candidate pairs S (T, nS, nS) and Q (T, nQ, nQ) of the instance's
    shapes, each restricted to its described subspace when a stack of
    bases W (T, n_r, k) is given: the fronthaul level is solved on the
    restricted whitened spectrum, and a downlink signal is sent (and
    returned) only where it is described.  An empty subspace (k = 0) is the
    silent design, rate 0.  Returns the rescaled stacks and a mask of the
    lanes that have a design.  The other lanes hold none: their quantizer
    is singular or zero, or the instance is an uplink with C = 0 and the
    lane forwards something (compressing even pure noise costs bits).

    The stacks must be PSD up to rounding; only their Hermitian part is
    taken, nothing is clipped.  The scale factors are nonnegative, so the
    rescaled stacks stay PSD and are returned without a second clip; a
    factor that is negative or NaN raises InconsistencyError."""
    S = hermitian_part(S)
    Q = hermitian_part(Q)
    Q_W = hermitian_part(restrict(Q, W))
    T, k = len(S), Q_W.shape[-1]
    if direction == UPLINK:
        tS = np.trace(S, axis1=-2, axis2=-1).real
        alpha = np.divide(inst.P, tS, out=np.ones(T), where=tS > 0)
        Phi = restrict(inst.H @ (alpha[:, None, None] * S) @ inst.H.conj().T, W)
        gev, ok = whitened_eigvalsh(hermitian_part(Phi) + inst.sigma2 * np.eye(k), Q_W)
        ok &= (inst.C > 0) | (k == 0)
        beta = np.ones(T)
        if k and ok.any():  # gev >= sigma2/||Q|| > 0 in exact arithmetic
            beta[ok] = 1.0 / _fronthaul_level(np.clip(gev[ok], 0.0, None), inst.C)
    else:
        S_W = hermitian_part(restrict(S, W))
        tS = np.trace(S_W, axis1=-2, axis2=-1).real
        tQ = np.trace(Q_W, axis1=-2, axis2=-1).real
        ev, ok = whitened_eigvalsh(S_W, Q_W)
        ok &= (tQ > 0) | (k == 0)
        ev = np.clip(ev, 0.0, None)
        # a lane with no signal or no fronthaul is silent: all power goes to
        # the quantizer; the others spend C exactly, then P
        live = ok & (tS > 0) & (ev.sum(axis=-1) > 0) & (inst.C > 0)
        rho = _fronthaul_level(ev[live], inst.C) if live.any() else 0.0
        alpha = np.zeros(T)
        beta = np.divide(inst.P, tQ, out=np.ones(T), where=tQ > 0)
        beta[live] = inst.P / (rho * tS[live] + tQ[live])
        alpha[live] = rho * beta[live]
        if W is not None:
            S = W @ S_W @ W.conj().swapaxes(-1, -2)
    if not (np.all(alpha >= 0.0) and np.all(beta >= 0.0)):
        raise InconsistencyError("a projection scale factor is negative or NaN")
    return alpha[:, None, None] * S, beta[:, None, None] * Q, ok


def feasibility_projection(
    inst: ChannelInstance, direction: str, S_like, Q_like
):
    """Rescale a covariance pair onto the constraint boundary.

    Finds scale factors (alpha for the signal side, beta for the quantizer)
    so the power and fronthaul budgets both hold with at least one active.
    Uplink: alpha saturates the power budget, then the fronthaul equation
    in 1/beta is solved exactly (it is strictly monotone).  Downlink: the
    fronthaul depends only on alpha/beta, solved first, then both are
    scaled together onto the power budget.  The pair need not be PSD: it
    is clipped once to its PSD part (Hermitian part, negative eigenvalues
    zeroed) and then goes through the stacked projection
    :func:`perturbation_search` runs on its blocks of PSD candidates.

    Raises DomainError when no scaling works: a singular quantizer
    covariance, or an uplink instance with C = 0 (compressing even pure
    noise costs bits, so only the C -> 0 limit exists).  The stacked
    projection raises nothing there: it masks such lanes instead.
    """
    check_direction(direction)
    S = as_complex_matrix(S_like, "S")
    Q = as_complex_matrix(Q_like, "Q")
    nS = inst.n_u if direction == UPLINK else inst.n_r
    if S.shape != (nS, nS) or Q.shape != (inst.n_r, inst.n_r):
        raise InvalidInputError("covariance shapes do not match the instance")
    if direction == UPLINK and inst.C <= 0:
        raise DomainError("no finite uplink design has zero fronthaul cost")
    S, Q, ok = _project(inst, direction, psd_part(S)[None], psd_part(Q)[None])
    if not ok[0]:
        raise DomainError("quantization covariance is singular or zero")
    design = UplinkDesign if direction == UPLINK else DownlinkDesign
    return design(S=S[0], Q=Q[0])


def _frobenius(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (T, n, n) stack, summed as
    np.linalg.norm sums one matrix (a dot product of the real parts plus
    one of the imaginary parts), so that each lane matches it exactly."""
    T, m, n = A.shape
    x = A.reshape(T, 1, m * n)
    sq = x.real @ x.real.swapaxes(-1, -2) + x.imag @ x.imag.swapaxes(-1, -2)
    return np.sqrt(sq[:, 0, 0])


def _random_rotations(G: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """exp(i * eps * A) for the normalized Hermitian part A of each matrix
    of a Gaussian stack G: unitaries a geodesic distance ~eps from the
    identity."""
    A = hermitian_part(G)
    nrm = _frobenius(A)
    A = A / np.where(nrm > 0, nrm, 1.0)[:, None, None]
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * eps[:, None] * w)[:, None, :]) @ V.conj().swapaxes(-1, -2)


def _conjugate(U: np.ndarray, M: np.ndarray) -> np.ndarray:
    return U @ M @ U.conj().swapaxes(-1, -2)


def _random_psd(X: np.ndarray) -> np.ndarray:
    return (X @ X.conj().swapaxes(-1, -2)) / X.shape[-1]


class _Directions(NamedTuple):
    """The random part of one block of candidates, independent of the base
    pair: the trial numbers, the mask of the rotated lanes, the S- and
    Q-side unitaries of those lanes, and the random pairs of the others."""

    trial: np.ndarray
    rot: np.ndarray
    U_S: np.ndarray
    U_Q: np.ndarray
    S_rand: np.ndarray
    Q_rand: np.ndarray


def _directions(trial: np.ndarray, nS: int, nQ: int, rng) -> _Directions:
    """The directions of the given trial numbers, in trial order.

    Trial t with t % 4 < 3 is a pair of random unitaries at geodesic step
    GEODESIC_STEPS[t % 4]; the others are fully random pairs.  Either kind
    draws nS^2 real, nS^2 imaginary, nQ^2 real and nQ^2 imaginary normals,
    in that order, so one draw for the whole block is the stream a draw per
    matrix would read.  The arrays are read-only: a plan shares them."""
    T = len(trial)
    z = rng.standard_normal((T, 2 * nS * nS + 2 * nQ * nQ))
    cut = np.cumsum([nS * nS, nS * nS, nQ * nQ])
    s_re, s_im, q_re, q_im = np.split(z, cut, axis=1)
    Gs = (s_re + 1j * s_im).reshape(T, nS, nS)
    Gq = (q_re + 1j * q_im).reshape(T, nQ, nQ)
    kind = trial % (len(GEODESIC_STEPS) + 1)
    rot = kind < len(GEODESIC_STEPS)
    eps = np.asarray(GEODESIC_STEPS)[kind[rot]]
    block = _Directions(
        trial,
        rot,
        _random_rotations(Gs[rot], eps),
        _random_rotations(Gq[rot], eps),
        _random_psd(Gs[~rot]),
        _random_psd(Gq[~rot]) + 1e-6 * np.eye(nQ),
    )
    for a in block:
        a.flags.writeable = False
    return block


def _check_directions(block: _Directions) -> None:
    """The check that stands in for validating every candidate: the
    unitaries are unitary within TOL.unitary (so a rotated candidate is a
    congruence of the base pair, and PSD when it is), and the random pairs
    are finite Hermitian PSD.  Raises InconsistencyError or
    InvalidInputError."""
    for U in (block.U_S, block.U_Q):
        n = U.shape[-1]
        defect = _frobenius(U.conj().swapaxes(-1, -2) @ U - np.eye(n))
        if not np.all(defect <= TOL.unitary):
            raise InconsistencyError("a candidate rotation is not unitary")
    validate_covariance(block.S_rand, "S")
    validate_covariance(block.Q_rand, "Q")


def _draw(seed: int, trials: int, nS: int, nQ: int):
    """The directions of trials 0 .. trials-1, drawn block by block from
    one generator seeded with seed, each block checked as it is drawn."""
    rng = np.random.default_rng(seed)
    size = _block_trials(nS, nQ)
    for start in range(0, trials, size):
        block = _directions(np.arange(start, min(start + size, trials)), nS, nQ, rng)
        _check_directions(block)
        yield block


# the directions depend only on (seed, trials, nS, nQ), and a CLI run
# certifies every design with one seed, so a few plans are kept; one over the
# size cap is drawn as the search goes, keeping its peak memory flat
_PLANS = 8
_PLAN_MAX_BYTES = 2 << 20


def _plan_nbytes(trials: int, nS: int, nQ: int) -> int:
    """Bytes of a plan's arrays: a trial number, a mask entry and one
    complex nS x nS and nQ x nQ matrix per trial."""
    return trials * (8 + 1 + 16 * (nS * nS + nQ * nQ))


@lru_cache(maxsize=_PLANS)
def _plan(seed: int, trials: int, nS: int, nQ: int) -> tuple:
    return tuple(_draw(seed, trials, nS, nQ))


def _blocks(seed: int, trials: int, nS: int, nQ: int):
    """The search's directions, block by block: the memoized plan when it
    fits the size cap, else a fresh draw of the same stream."""
    key = int(seed), int(trials), nS, nQ
    if _plan_nbytes(trials, nS, nQ) > _PLAN_MAX_BYTES:
        return _draw(*key)
    return _plan(*key)


def _candidates(S0: np.ndarray, Q0: np.ndarray, W, block: _Directions):
    """The candidate lane groups (trial, S, Q, W) of one block: the base
    pair conjugated by the block's unitaries, each lane with the described
    subspace U_Q W (None when the base's W is), U_Q its Q-side unitary; and
    the random pairs, full-rank with no W, so that a base whose subspace is
    too small can still be beaten."""
    rot, U_Q = block.rot, block.U_Q
    W_rot = None if W is None else U_Q @ W
    return (
        (block.trial[rot], _conjugate(block.U_S, S0), _conjugate(U_Q, Q0), W_rot),
        (block.trial[~rot], block.S_rand, block.Q_rand, None),
    )


def perturbation_search(
    inst: ChannelInstance,
    base,
    trials: int,
    seed: int,
    instance_id: str = "",
) -> CertificationReport:
    """Try to beat a feasible base design with random feasible candidates.

    The base design's class sets the direction: an UplinkDesign is
    certified by the uplink functionals, a DownlinkDesign by the downlink
    ones, and any other base raises InvalidInputError.

    Candidates alternate between conjugating the base covariances by
    random unitaries near the identity (geodesic steps 0.3, 0.1, 0.03),
    each keeping the base's described subspace rotated with its quantizer,
    and fully random full-rank pairs; every candidate is rescaled onto the
    constraint boundary on its subspace before evaluation (an empty one,
    as at C = 0, is the silent design, rate 0).  The margin is the base
    rate minus the best candidate rate; a clearly negative margin disproves
    optimality of the base.

    The candidates are drawn, projected and evaluated in blocks of stacked
    arrays, as many trials as 512 KiB of candidate pairs hold (1820 on a
    3 x 3 channel), reading the random stream in trial order; the report
    does not depend on the block size.  The random directions are computed
    once per (seed, trials, shapes) and reused by later searches with the
    same key (a handful of keys is kept, and a plan over 2 MiB is drawn
    afresh each time); the candidates and the report are the same either
    way.  A plan's directions are checked once, when drawn, and the base's
    factors when the design was built; a negative or NaN projection scale
    factor, or a non-finite projected candidate, raises
    InconsistencyError.  A candidate that has no projected design (a
    singular quantizer, or an uplink random pair at C = 0) or whose rate
    fails (an ill-conditioned quantizer) is counted in
    ``projection_failures`` and skipped.  A search that evaluated fewer
    than half of its trials has too little evidence and fails its verdict,
    whatever its margin; with no candidate evaluated the margin is +inf.
    ``best_trial`` is the trial number of the best candidate.
    Deterministic given the seed.

    ``trials`` must be at least 1 (InvalidInputError otherwise): every
    report comes out of the block loop, and a search that tried nothing
    has no evidence to report.
    """
    check_count(trials, "trials", 1)
    check_count(seed, "seed")
    if isinstance(base, UplinkDesign):
        direction, rate_stacked = UPLINK, uplink_rate_stacked
        report = check_uplink_feasible(inst, base)
    elif isinstance(base, DownlinkDesign):
        direction, rate_stacked = DOWNLINK, downlink_rate_stacked
        report = check_downlink_feasible(inst, base)
    else:
        raise InvalidInputError("base must be an UplinkDesign or a DownlinkDesign")
    if not report.feasible:
        raise InvalidInputError(
            f"base design is infeasible: power slack {report.slack_power:.3e}, "
            f"fronthaul slack {report.slack_fronthaul:.3e}"
        )
    base_rate = report.rate
    best_rate = -np.inf
    best_trial = -1
    evaluated = 0
    for block in _blocks(seed, trials, len(base.S), len(base.Q)):
        rates, picked = [], []
        for trial, S, Q, W in _candidates(base.S, base.Q, base.active_basis, block):
            S, Q, projected = _project(inst, direction, S, Q, W)
            S, Q, trial = S[projected], Q[projected], trial[projected]
            if not (np.all(np.isfinite(S)) and np.all(np.isfinite(Q))):
                raise InconsistencyError("a projected candidate has a non-finite entry")
            # a lane whose rate is undefined (quantizer too ill-conditioned to
            # evaluate) is skipped rather than aborting the campaign
            nats, defined = rate_stacked(inst, S, Q, None if W is None else W[projected])
            rates.append(nats[defined] / LN2)
            picked.append(trial[defined])
        rate, trial = np.concatenate(rates), np.concatenate(picked)
        evaluated += rate.size
        if rate.size and rate.max() > best_rate:
            best_rate = float(rate.max())
            best_trial = int(trial[rate == best_rate].min())  # the earliest among equal rates
    failures = trials - evaluated
    # with no candidate evaluated best_rate stays -inf (the maximum over an
    # empty set) and the margin is +inf; the verdict needs at least half the
    # trials evaluated, so such a search fails
    margin = base_rate - best_rate
    return CertificationReport(
        instance_id=instance_id,
        direction=direction,
        diagonal_rate=base_rate,
        best_perturbed_rate=best_rate,
        margin=margin,
        trials=trials,
        seed=seed,
        verdict=bool(2 * evaluated >= trials and margin >= -CERTIFICATION_TOL),
        diagnostics={
            "evaluated": evaluated,
            "projection_failures": failures,
            "best_trial": best_trial,
        },
    )
