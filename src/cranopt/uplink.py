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
The rate is defined once, by :func:`uplink_rate_stacked` on stacks of
designs; :func:`uplink_rate` is its one-design case, and the perturbation
search measures its candidates with the stacked form.

A scalar allocation (power p_d, share c_d on the channel's singular values)
is realized here: the uplink meets each share with the tight quantizer
q_d = (h_d^2 p_d + sigma2) / (2^c_d - 1).
"""

from __future__ import annotations

import numpy as np

from .allocation import tight_quantizer_uplink
from .errors import InvalidInputError
from .kernels import (
    LN2,
    ChannelSpectrum,
    check_positive,
    logdet_ratio,
    logdet_ratio_stacked,
    one_lane,
)
from .problem import ChannelInstance, RateReport, UplinkDesign, check_design, restrict


def uplink_rate_stacked(
    inst: ChannelInstance, S: np.ndarray, Q: np.ndarray, W: np.ndarray | None = None
):
    """The uplink rate in nats of each design of the (T, n_u, n_u) and
    (T, n_r, n_r) stacks S and Q, restricted to the forwarded subspace W
    (None: all of it); and a mask of the lanes where the rate is defined.
    Other lanes hold no rate.  No input validation."""
    Phi = inst.H @ S @ inst.H.conj().T
    base = Q + inst.sigma2 * np.eye(inst.n_r)
    return logdet_ratio_stacked(restrict(Phi, W), restrict(base, W))


def uplink_rate(inst: ChannelInstance, d: UplinkDesign) -> float:
    """Achievable uplink rate in bits per channel use.  Always >= 0 and
    never exceeds uplink_fronthaul for the same design."""
    check_design(d, UplinkDesign, inst)
    return one_lane(uplink_rate_stacked(inst, d.S[None], d.Q[None], d.active_basis)) / LN2


def uplink_fronthaul(inst: ChannelInstance, d: UplinkDesign) -> float:
    """Bits per channel use the RRH needs to forward its observation.

    Requires Q positive definite on the active subspace; a singular Q there
    would cost infinitely many bits and raises DomainError.
    """
    check_design(d, UplinkDesign, inst)
    W = d.active_basis
    M = inst.H @ d.S @ inst.H.conj().T + inst.sigma2 * np.eye(inst.n_r)
    return logdet_ratio(restrict(M, W), restrict(d.Q, W)) / LN2


def assemble_uplink(spec: ChannelSpectrum, a, sigma2: float) -> UplinkDesign:
    """Build the diagonal design S = V diag(p) V^H, Q = U diag(q) U^H from a
    scalar allocation, with the tight quantizer q_d = (h_d^2 p_d + sigma2) /
    (2^c_d - 1) on every subchannel that has a share.

    Subchannels with no share (or a quantizer that overflows) and receive
    dimensions beyond the channel rank are left out of the forwarded
    subspace, so their fronthaul cost is exactly zero.
    """
    check_positive(sigma2, "sigma2")
    D = spec.rank
    if len(a.power) != D:
        raise InvalidInputError(f"allocation length {len(a.power)} != rank {D}")
    V = spec.right_basis
    S = (V * a.power) @ V.conj().T

    q = np.full(D, np.inf)
    on = a.share > 0
    if on.any():
        g2 = spec.singular_values[on] ** 2
        q[on] = tight_quantizer_uplink(g2, a.power[on], a.share[on], sigma2)
    active = np.isfinite(q)
    U = spec.left_basis
    Q = (U * np.where(active, q, 0.0)) @ U.conj().T

    basis = None if D == spec.n_r and active.all() else U[:, active]
    return UplinkDesign(S=S, Q=Q, active_basis=basis)


def check_uplink_feasible(inst: ChannelInstance, d: UplinkDesign) -> RateReport:
    """Evaluate both functionals and the transmit power trace(S) against
    the budgets."""
    power = float(np.trace(d.S).real)
    return RateReport(inst, uplink_rate(inst, d), uplink_fronthaul(inst, d), power)
