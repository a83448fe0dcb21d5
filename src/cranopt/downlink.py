"""Downlink functionals: the central processor precodes, compresses the
precoded signal over the fronthaul, and the RRH transmits the sum of the
described signal and the compression noise.

For precoded-signal covariance S and compression covariance Q (both
n_r x n_r; the transmitted covariance is S + Q),

    rate      = log2 |H^H (S + Q) H + sigma2 I| - log2 |H^H Q H + sigma2 I|
    fronthaul = log2 |S + Q| - log2 |Q|
    power     = trace(S + Q)

in bits.  Both ratios are restricted to the described subspace when the
design carries an ``active_basis``, as the uplink's are to the forwarded
one: dimensions carrying nothing (S and Q both zero there) cost zero bits
and add nothing to the rate.  The one-design functionals read a design's
eigen-factors, and the channel through H V, V its right singular basis;
the perturbation search measures its dense candidates with
:func:`downlink_rate_stacked`, which reads H V too.

A scalar allocation (power p_d, share c_d on the channel's singular values)
is realized here: the downlink meets each share by splitting p_d into the
described signal p~_d and the quantizer q_d = p_d 2^-c_d.
"""

from __future__ import annotations

import numpy as np

from .allocation import tight_quantizer_downlink
from .errors import DomainError, InvalidInputError
from .kernels import (
    LN2,
    ChannelSpectrum,
    logdet,
    logdet_ratio_stacked,
    logdet_whitened,
)
from .problem import ChannelInstance, DownlinkDesign, RateReport, check_design, restrict


def downlink_rate_stacked(
    inst: ChannelInstance, S: np.ndarray, Q: np.ndarray, W: np.ndarray | None = None
):
    """The downlink rate in nats of each design of the (T, n_r, n_r) stacks
    S and Q, restricted to the described subspace W, one basis (n_r, k) or
    one per lane (T, n_r, k) (None: all of it); and a mask of the lanes
    where the rate is defined.  Other lanes hold no rate.  No input
    validation.

    The ratio is taken on the channel's D = min(n_r, n_u) subchannels: H's
    rows lie in the span of the right singular basis V (n_u x D), so with
    G = H V, H^H X H = V G^H X G V^H and |H^H X H + sigma2 I| =
    |G^H X G + sigma2 I_D| sigma2^(n_u - D), and the sigma2 factor cancels
    in the ratio.  V serves only as coordinates: the gains are read from H.
    Restricted to W, X reads W^H X W and G reads W^H G."""
    G = inst.H @ inst.spectrum.right_basis
    if W is not None:
        S, Q, G = restrict(S, W), restrict(Q, W), W.conj().swapaxes(-1, -2) @ G
    Gh = G.conj().swapaxes(-1, -2)
    signal = Gh @ S @ G
    base = Gh @ Q @ G + inst.sigma2 * np.eye(G.shape[-1])
    return logdet_ratio_stacked(signal, base)


def downlink_rate(inst: ChannelInstance, d: DownlinkDesign) -> float:
    """Achievable downlink rate in bits per channel use, on the D subchannels
    (:func:`downlink_rate_stacked`) in the Q factor's basis B_Q: with
    A = B_Q^H H V, E = B_S^H B_Q A, it adds E^H diag(lam_S) E to the base."""
    check_design(d, DownlinkDesign, inst)
    (B_S, lam_S), (B_Q, lam_Q) = d.S_factor, d.Q_factor
    A = B_Q.conj().T @ inst.H @ inst.spectrum.right_basis
    E = (B_S.conj().T @ B_Q) @ A
    base = (A.conj().T * lam_Q) @ A
    base.flat[:: len(base) + 1] += inst.sigma2
    return (logdet(base + (E.conj().T * lam_S) @ E) - logdet(base)) / LN2


def downlink_fronthaul(d: DownlinkDesign) -> float:
    """Bits per channel use needed to describe the precoded signal; depends
    only on the design, not on the channel: log2|I + C diag(lam_S) C^H|
    with C = diag(lam_Q)^-1/2 B_Q^H B_S.

    Requires Q positive definite on the described subspace (DomainError
    otherwise: a noiseless description would take infinitely many bits).
    """
    check_design(d, DownlinkDesign)
    (B_S, lam_S), (B_Q, lam_Q) = d.S_factor, d.Q_factor
    if not (lam_Q > 0).all():
        raise DomainError("Q is singular on the described subspace")
    return logdet_whitened((B_Q.conj().T @ B_S) / np.sqrt(lam_Q)[:, None], lam_S) / LN2


def assemble_downlink(spec: ChannelSpectrum, a) -> DownlinkDesign:
    """Build the diagonal design S = U diag(p~) U^H, Q = U diag(q) U^H from
    a scalar allocation, with the tight split p_d = p~_d + q_d,
    q_d = p_d 2^-c_d on every subchannel that has a share, and hand over its
    eigen-factors (U, p~) and (U_a, q_a) on the described subchannels a.

    The other subchannels are off (signal and quantizer both 0) and, like
    dimensions beyond the channel rank, excluded from the described
    subspace.  A quantizer that underflows to 0 under nonzero signal power
    is rejected: its description would cost infinitely many bits.
    """
    D = spec.rank
    if len(a.power) != D:
        raise InvalidInputError(f"allocation length {len(a.power)} != rank {D}")
    q = np.zeros(D)
    pt = np.zeros(D)
    on = a.share > 0
    if on.any():
        q[on], pt[on] = tight_quantizer_downlink(a.power[on], a.share[on])
    bad = (q == 0) & (pt > 0)
    if bad.any():
        raise DomainError(
            f"zero quantizer with nonzero signal power on subchannel {int(np.argmax(bad))}"
        )
    U = spec.left_basis
    active = q > 0
    return DownlinkDesign._from_factors((U, pt), (U[:, active], q[active]))


def check_downlink_feasible(inst: ChannelInstance, d: DownlinkDesign) -> RateReport:
    """Evaluate the functionals against the budgets; power counts signal
    plus compression noise, trace(S + Q): both sides' eigenvalues."""
    power = float(d.S_factor[1].sum() + d.Q_factor[1].sum())
    return RateReport(inst, downlink_rate(inst, d), downlink_fronthaul(d), power)
