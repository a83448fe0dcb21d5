"""Uplink functionals: achievable rate and fronthaul cost of a covariance
pair, assembly of diagonal designs from scalar allocations, and the
feasibility report.

The remote radio head observes y = H x + z (z with covariance sigma2 I),
compresses y with quantization-noise covariance Q and forwards the
description to the central processor.  For a transmit covariance S the
achievable rate and the fronthaul cost are

    rate      = log2 |H S H^H + Q + sigma2 I| - log2 |Q + sigma2 I|
    fronthaul = log2 |H S H^H + Q + sigma2 I| - log2 |Q|

in bits, both restricted to the forwarded subspace when the design carries
an ``active_basis`` (dimensions the RRH never forwards cost zero bits).
The one-design functionals read a design's eigen-factors and H, both from
one Cholesky factorization; the perturbation search measures its dense
candidates with :func:`uplink_rate_stacked`.

A scalar allocation (power p_d, share c_d on the channel's singular values)
is realized here: the uplink meets each share with the tight quantizer
q_d = (h_d^2 p_d + sigma2) / (2^c_d - 1).
"""

from __future__ import annotations

import numpy as np

from .allocation import tight_quantizer_uplink
from .errors import DomainError, InvalidInputError
from .kernels import (
    LN2,
    ChannelSpectrum,
    check_positive,
    logdet_ratio_stacked,
    logdet_whitened,
)
from .problem import ChannelInstance, RateReport, UplinkDesign, check_design, restrict


def uplink_rate_stacked(
    inst: ChannelInstance, S: np.ndarray, Q: np.ndarray, W: np.ndarray | None = None
):
    """The uplink rate in nats of each design of the (T, n_u, n_u) and
    (T, n_r, n_r) stacks S and Q, restricted to the forwarded subspace W,
    one basis (n_r, k) or one per lane (T, n_r, k) (None: all of it); and
    a mask of the lanes where the rate is defined.
    Other lanes hold no rate.  No input validation."""
    Phi = inst.H @ S @ inst.H.conj().T
    base = Q + inst.sigma2 * np.eye(inst.n_r)
    return logdet_ratio_stacked(restrict(Phi, W), restrict(base, W))


def _forwarded(inst: ChannelInstance, d: UplinkDesign) -> tuple[float, np.ndarray]:
    """The uplink rate in nats and lam_Q.  In the Q factor's basis B_Q the
    rate is log|I + A diag(lam_S) A^H| with
    A = diag(lam_Q + sigma2)^-1/2 B_Q^H H B_S."""
    check_design(d, UplinkDesign, inst)
    (B_S, lam_S), (B_Q, lam_Q) = d.S_factor, d.Q_factor
    A = (B_Q.conj().T @ inst.H @ B_S) / np.sqrt(lam_Q + inst.sigma2)[:, None]
    return logdet_whitened(A, lam_S), lam_Q


def _fronthaul_bits(nats: float, lam_Q: np.ndarray, sigma2: float) -> float:
    # the fronthaul exceeds the rate by log|Q + sigma2 I| - log|Q|
    if not (lam_Q > 0).all():
        raise DomainError("Q is singular on the forwarded subspace")
    return (nats + float(np.log1p(sigma2 / lam_Q).sum())) / LN2


def uplink_rate(inst: ChannelInstance, d: UplinkDesign) -> float:
    """Achievable uplink rate in bits per channel use.  Always >= 0 and
    never exceeds uplink_fronthaul for the same design."""
    return _forwarded(inst, d)[0] / LN2


def uplink_fronthaul(inst: ChannelInstance, d: UplinkDesign) -> float:
    """Bits per channel use the RRH needs to forward its observation.

    Requires Q positive definite on the active subspace; a singular Q there
    would cost infinitely many bits and raises DomainError.
    """
    return _fronthaul_bits(*_forwarded(inst, d), inst.sigma2)


def assemble_uplink(spec: ChannelSpectrum, a, sigma2: float) -> UplinkDesign:
    """Build the diagonal design S = V diag(p) V^H, Q = U diag(q) U^H from a
    scalar allocation, with the tight quantizer q_d = (h_d^2 p_d + sigma2) /
    (2^c_d - 1) on every subchannel that has a share, and hand over its
    eigen-factors (V, p) and (U_a, q_a) on the forwarded subchannels a.

    Subchannels with no share (or a quantizer that overflows) and receive
    dimensions beyond the channel rank are left out of the forwarded
    subspace, so their fronthaul cost is exactly zero.
    """
    check_positive(sigma2, "sigma2")
    D = spec.rank
    if len(a.power) != D:
        raise InvalidInputError(f"allocation length {len(a.power)} != rank {D}")
    q = np.full(D, np.inf)
    on = a.share > 0
    if on.any():
        g2 = spec.singular_values[on] ** 2
        q[on] = tight_quantizer_uplink(g2, a.power[on], a.share[on], sigma2)
    active = np.isfinite(q)
    return UplinkDesign._from_factors(
        (spec.right_basis, a.power), (spec.left_basis[:, active], q[active])
    )


def check_uplink_feasible(inst: ChannelInstance, d: UplinkDesign) -> RateReport:
    """Evaluate both functionals, from one Cholesky factorization, and the
    transmit power trace(S), the sum of S's eigenvalues, against the
    budgets."""
    nats, lam_Q = _forwarded(inst, d)
    fronthaul = _fronthaul_bits(nats, lam_Q, inst.sigma2)
    return RateReport(inst, nats / LN2, fronthaul, float(d.S_factor[1].sum()))
