"""Certification against brute force and random perturbation.

Two independent routes check the solver's optimality claims:

  * :func:`grid_oracle_scalar` enumerates the scalar problem on dense
    budget-simplex grids (D <= 3) and refines the best grid point with a
    derivative-free pattern search.  It shares only the objective function
    with the solver, none of its KKT machinery.
  * :func:`perturbation_search` attacks an assembled matrix design with
    random covariance candidates, each rescaled onto the constraint
    boundary, and reports the worst-case margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import (
    C_MAX_DEFAULT,
    DIRECTIONS,
    UPLINK,
    SubchannelAllocation,
    _rates,
    realize_allocation,
)
from .downlink import DownlinkDesign, check_downlink_feasible, downlink_rate
from .errors import (
    DomainError,
    InconsistencyError,
    InvalidInputError,
    ProjectionError,
    UnsupportedSizeError,
)
from .kernels import LN2, TOL, as_complex_matrix, hermitian_part, whitened_eigvalsh
from .problem import ChannelInstance, psd_part
from .uplink import UplinkDesign, check_uplink_feasible, uplink_rate

CERTIFICATION_TOL = TOL.certification
GEODESIC_STEPS = (0.3, 0.1, 0.03)


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
    verdict: bool  # margin >= -CERTIFICATION_TOL with at least one candidate evaluated
    diagnostics: dict = field(default_factory=dict)


def _objective(g2, p, c, sigma2) -> float:
    return float(_rates(g2 * p, c, sigma2).sum())


def _pattern_polish(g2, p, c, P, C, sigma2, c_max):
    """Derivative-free refinement: repeatedly try transferring a shrinking
    step between coordinate pairs of the power vector and of the share
    vector, keeping both budget faces exact.  Deterministic."""
    p = p.copy()
    c = c.copy()
    rate = _objective(g2, p, c, sigma2)
    D = len(p)
    if D == 1:
        return p, c, rate
    frac = 0.25
    while frac > 1e-9:
        improved = False
        for i in range(D):
            for j in range(D):
                if i == j:
                    continue
                if P > 0 and p[i] > 0:
                    step = min(frac * P, p[i])
                    p2 = p.copy()
                    p2[i] -= step
                    p2[j] += step
                    r2 = _objective(g2, p2, c, sigma2)
                    if r2 > rate + 1e-14:
                        p, rate, improved = p2, r2, True
                if C > 0 and c[i] > 0 and c[j] < c_max:
                    step = min(frac * min(C, D * c_max), c[i], c_max - c[j])
                    c2 = c.copy()
                    c2[i] -= step
                    c2[j] += step
                    r2 = _objective(g2, p, c2, sigma2)
                    if r2 > rate + 1e-14:
                        c, rate, improved = c2, r2, True
        if not improved:
            frac *= 0.5
    return p, c, rate


def grid_oracle_scalar(
    gains,
    P: float,
    C: float,
    sigma2: float,
    direction: str,
    resolution: int = 101,
) -> SubchannelAllocation:
    """Exhaustive scalar-problem search on budget-simplex grids, D <= 3.

    Enumerates every grid split of the power and share budgets (the
    optimum saturates both, since the subchannel rate is nondecreasing in
    each), refines the best grid point by pattern search, and realizes the
    result with tight quantizers.  Deterministic.
    """
    if direction not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}")
    if resolution < 2:
        raise InvalidInputError(f"resolution must be >= 2, got {resolution}")
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.size == 0 or np.any(g < 0) or not np.all(np.isfinite(g)):
        raise InvalidInputError("gains must be nonempty, finite and >= 0")
    if g.size > 3:
        raise UnsupportedSizeError(
            f"grid oracle enumerates at most 3 subchannels, got {g.size}"
        )
    if not np.isfinite(P) or P < 0 or not np.isfinite(C) or C < 0 or sigma2 <= 0:
        raise InvalidInputError("budgets must be >= 0 and sigma2 > 0")

    D = g.size
    g2 = g**2
    pos = np.flatnonzero(g2 > 0)
    p_full = np.zeros(D)
    c_full = np.zeros(D)
    if pos.size == 0 or P <= 0 or C <= 0:
        alloc = realize_allocation(direction, g, p_full, c_full, sigma2)
        alloc.diagnostics.update({"rate": 0.0, "grid_rate": 0.0, "resolution": resolution})
        return alloc

    c_max = C_MAX_DEFAULT
    ga = g2[pos]
    n = pos.size
    if C >= n * c_max:
        # every share capped; only the power split remains
        pbest, cbest, grid_rate = _grid_power_only(ga, P, c_max, sigma2, resolution)
    else:
        pbest, cbest, grid_rate = _grid_joint(ga, P, min(C, n * c_max), c_max, sigma2, resolution)
    pbest, cbest, rate = _pattern_polish(ga, pbest, cbest, P, C, sigma2, c_max)

    p_full[pos] = pbest
    c_full[pos] = cbest
    alloc = realize_allocation(direction, g, p_full, c_full, sigma2)
    alloc.diagnostics.update(
        {"rate": rate, "grid_rate": grid_rate, "resolution": resolution}
    )
    return alloc


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
    return best[1], c, best[0]


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
    p = np.array([pgrid[i], pgrid[j], P - pgrid[i] - pgrid[j]])
    c = np.array([cgrid[m], cgrid[nn], Ct - cgrid[m] - cgrid[nn]])
    return p, np.clip(c, 0.0, None), rate


def _whitened_spectrum(M, Q):
    """Eigenvalues of Q^-1/2 M Q^-1/2; ProjectionError when Q is singular."""
    try:
        return whitened_eigvalsh(M, Q)
    except DomainError as exc:
        raise ProjectionError("quantization covariance is singular") from exc


# Newton iterations allowed for the fronthaul level; a solve that needs more
# is a numerical fault, not a slow case (a handful is typical)
_LEVEL_MAX_ITERATIONS = 100


def _fronthaul_level(ev: np.ndarray, C: float) -> float:
    """The level rho > 0 with sum(log2(1 + rho * ev)) = C, for a spectrum
    ev >= 0 with a positive entry and C > 0.

    Newton steps in v = log rho start from the closed-form upper end
    log(expm1(C ln 2) / max ev), where the largest eigenvalue alone spends
    C.  In v the left side is a sum of softplus terms: increasing and
    convex, with second derivative at most its first, so the iterates fall
    monotonically onto the root and, within unit distance of it, a step s
    leaves an error below 2 s^2: a step under 1e-8 is the last one needed.
    A level that is not resolved within the iteration cap raises
    InconsistencyError.
    """
    with np.errstate(divide="ignore"):
        log_ev = np.log(ev)  # zero eigenvalues give -inf: they spend nothing
    x = C * LN2
    # log(expm1(x)), written so it neither overflows nor cancels
    v = x + np.log(-np.expm1(-x)) - log_ev.max()
    for _ in range(_LEVEL_MAX_ITERATIONS):
        t = log_ev + v
        spent = np.logaddexp(0.0, t)  # ln(1 + rho ev) per eigenvalue
        excess = spent.sum() - x
        if excess <= 0.0:
            break
        step = excess / np.exp(t - spent).sum()  # slope: sum rho ev / (1 + rho ev)
        v -= step
        if step <= 1e-8:
            break
    else:
        raise InconsistencyError(
            f"fronthaul level unresolved after {_LEVEL_MAX_ITERATIONS} "
            f"iterations: log rho {v!r}, excess {excess!r} nats"
        )
    return float(np.exp(v))


def feasibility_projection(
    inst: ChannelInstance, direction: str, S_like, Q_like
):
    """Rescale a covariance pair onto the constraint boundary.

    Finds scale factors (alpha for the signal side, beta for the quantizer)
    so the power and fronthaul budgets both hold with at least one active.
    Uplink: alpha saturates the power budget, then the fronthaul equation
    in 1/beta is solved exactly (it is strictly monotone).  Downlink: the
    fronthaul depends only on alpha/beta, solved first, then both are
    scaled together onto the power budget.

    Raises ProjectionError when no scaling works: a singular quantizer
    covariance, or an uplink instance with C = 0 (compressing even pure
    noise costs bits, so only the C -> 0 limit exists).
    """
    if direction not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}")
    S = psd_part(as_complex_matrix(S_like, "S"))
    Q = psd_part(as_complex_matrix(Q_like, "Q"))
    if direction == UPLINK:
        if S.shape != (inst.n_u, inst.n_u) or Q.shape != (inst.n_r, inst.n_r):
            raise InvalidInputError("covariance shapes do not match the instance")
        if inst.C <= 0:
            raise ProjectionError("no finite uplink design has zero fronthaul cost")
        tS = float(np.trace(S).real)
        alpha = inst.P / tS if tS > 0 else 1.0
        Phi = inst.H @ (alpha * S) @ inst.H.conj().T
        gev = _whitened_spectrum(
            hermitian_part(Phi) + inst.sigma2 * np.eye(inst.n_r), Q
        )
        gev = np.clip(gev, 0.0, None)  # >= sigma2/||Q|| in exact arithmetic
        beta = 1.0 / _fronthaul_level(gev, inst.C)
        return UplinkDesign(S=psd_part(alpha * S), Q=psd_part(beta * Q))

    if S.shape != (inst.n_r, inst.n_r) or Q.shape != (inst.n_r, inst.n_r):
        raise InvalidInputError("covariance shapes do not match the instance")
    tS = float(np.trace(S).real)
    tQ = float(np.trace(Q).real)
    if tQ <= 0:
        raise ProjectionError("quantization covariance is zero")
    ev = np.clip(_whitened_spectrum(S, Q), 0.0, None)
    if inst.C <= 0 or tS <= 0 or ev.max() <= 0:
        return DownlinkDesign(S=np.zeros_like(S), Q=psd_part((inst.P / tQ) * Q))
    rho = _fronthaul_level(ev, inst.C)
    beta = inst.P / (rho * tS + tQ)
    alpha = rho * beta
    return DownlinkDesign(S=psd_part(alpha * S), Q=psd_part(beta * Q))


def _random_rotation(n: int, eps: float, rng) -> np.ndarray:
    """exp(i * eps * A) for a normalized random Hermitian A: a unitary a
    geodesic distance ~eps from the identity."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = hermitian_part(G)
    nrm = float(np.linalg.norm(A))
    if nrm > 0:
        A = A / nrm
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * eps * w)) @ V.conj().T


def _random_psd(n: int, rng) -> np.ndarray:
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X @ X.conj().T) / n


def _densify(inst: ChannelInstance, direction: str, base) -> tuple:
    """Full-space covariance seeds nearly equivalent to a base design whose
    fronthaul skips some dimensions: the skipped subspace gets a quantizer
    large enough (uplink) or a zero-signal noise floor (downlink) that its
    fronthaul cost is negligible, keeping candidate quantizers invertible.

    The dead-dimension quantizer is capped at 2^22 times the signal scale:
    its rate and fronthaul leakage stays below 4e-7 bits (well inside the
    certification tolerance) while the conjugated candidates remain within
    float64 Cholesky range."""
    W = base.active_basis
    n = inst.n_r
    if W is None:
        return base.S.copy(), base.Q.copy()
    P_dead = np.eye(n, dtype=complex) - W @ W.conj().T
    if direction == UPLINK:
        Phi = inst.H @ base.S @ inst.H.conj().T
        scale = float(np.trace(hermitian_part(Phi)).real) + inst.sigma2
        q_big = scale * 2.0**22
        return base.S.copy(), psd_part(base.Q + q_big * P_dead)
    return base.S.copy(), psd_part(base.Q + inst.sigma2 * P_dead)


def perturbation_search(
    inst: ChannelInstance,
    direction: str,
    base,
    trials: int,
    seed: int,
    instance_id: str = "",
) -> CertificationReport:
    """Try to beat a feasible base design with random feasible candidates.

    Candidates alternate between conjugating the base covariances by
    random unitaries near the identity (geodesic steps 0.3, 0.1, 0.03) and
    fully random covariance pairs; every candidate is rescaled onto the
    constraint boundary before evaluation.  The margin is the base rate
    minus the best candidate rate; a clearly negative margin disproves
    optimality of the base.  A search in which every candidate failed
    projection has no evidence and fails its verdict (margin +inf).
    Deterministic given the seed.
    """
    if direction not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}")
    if trials < 0:
        raise InvalidInputError(f"trials must be >= 0, got {trials}")
    if direction == UPLINK:
        if not isinstance(base, UplinkDesign):
            raise InvalidInputError("uplink certification needs an UplinkDesign")
        report = check_uplink_feasible(inst, base)
        rate_fn = uplink_rate
    else:
        if not isinstance(base, DownlinkDesign):
            raise InvalidInputError("downlink certification needs a DownlinkDesign")
        report = check_downlink_feasible(inst, base)
        rate_fn = downlink_rate
    if not report.feasible:
        raise InvalidInputError(
            f"base design is infeasible: power slack {report.slack_power:.3e}, "
            f"fronthaul slack {report.slack_fronthaul:.3e}"
        )
    base_rate = report.rate
    if trials == 0:
        return CertificationReport(
            instance_id=instance_id,
            direction=direction,
            diagonal_rate=base_rate,
            best_perturbed_rate=base_rate,
            margin=0.0,
            trials=0,
            seed=seed,
            verdict=True,
        )

    S0, Q0 = _densify(inst, direction, base)
    nS = S0.shape[0]
    nQ = Q0.shape[0]
    rng = np.random.default_rng(seed)
    best_rate = -np.inf
    best_trial = -1
    evaluated = 0
    failures = 0
    for t in range(trials):
        kind = t % (len(GEODESIC_STEPS) + 1)
        if kind < len(GEODESIC_STEPS):
            eps = GEODESIC_STEPS[kind]
            Ws = _random_rotation(nS, eps, rng)
            Wq = _random_rotation(nQ, eps, rng)
            S_c = Ws @ S0 @ Ws.conj().T
            Q_c = Wq @ Q0 @ Wq.conj().T
        else:
            S_c = _random_psd(nS, rng)
            Q_c = _random_psd(nQ, rng) + 1e-6 * np.eye(nQ)
        try:
            cand = feasibility_projection(inst, direction, S_c, Q_c)
            r = rate_fn(inst, cand)
        except (ProjectionError, DomainError):
            # candidate too ill-conditioned to evaluate (extreme quantizer
            # spread); skip it rather than abort the campaign
            failures += 1
            continue
        evaluated += 1
        if r > best_rate:
            best_rate = r
            best_trial = t
    # with no candidate evaluated best_rate stays -inf (the maximum over an
    # empty set): the margin is +inf and proves nothing, so the verdict fails
    margin = base_rate - best_rate
    return CertificationReport(
        instance_id=instance_id,
        direction=direction,
        diagonal_rate=base_rate,
        best_perturbed_rate=best_rate,
        margin=margin,
        trials=trials,
        seed=seed,
        verdict=bool(evaluated > 0 and margin >= -CERTIFICATION_TOL),
        diagnostics={
            "evaluated": evaluated,
            "projection_failures": failures,
            "best_trial": best_trial,
        },
    )
