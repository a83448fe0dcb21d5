"""Downlink functionals: the central processor precodes, compresses the
precoded signal over the fronthaul, and the RRH transmits the sum of the
described signal and the compression noise.

For precoded-signal covariance S and compression covariance Q (both
n_r x n_r; the transmitted covariance is S + Q),

    rate      = log2 |H^H (S + Q) H + sigma2 I| - log2 |H^H Q H + sigma2 I|
    fronthaul = log2 |S + Q| - log2 |Q|
    power     = trace(S + Q)

in bits.  The fronthaul ratio is restricted to the described subspace when
the design carries an ``active_basis``: dimensions carrying nothing
(S and Q both zero there) cost zero bits.  The rate is defined once, by
:func:`downlink_rate_stacked` on stacks of designs; :func:`downlink_rate` is
its one-design case, and the perturbation search measures its candidates
with the stacked form.

A scalar allocation (power p_d, share c_d on the channel's singular values)
is realized here: the downlink meets each share by splitting p_d into the
described signal p~_d and the quantizer q_d = p_d 2^-c_d.
"""

from __future__ import annotations

import numpy as np

from .allocation import tight_quantizer_downlink
from .errors import DomainError, InvalidInputError
from .kernels import LN2, ChannelSpectrum, logdet_ratio, logdet_ratio_stacked, one_lane
from .problem import ChannelInstance, DownlinkDesign, RateReport, restrict


def _check_dims(inst: ChannelInstance, d: DownlinkDesign) -> None:
    if d.S.shape != (inst.n_r, inst.n_r):
        raise InvalidInputError(f"S must be {inst.n_r}x{inst.n_r}, got {d.S.shape}")


def downlink_rate_stacked(inst: ChannelInstance, S: np.ndarray, Q: np.ndarray):
    """The downlink rate in nats of each design of the (T, n_r, n_r) stacks
    S and Q, and a mask of the lanes where the rate is defined.  Other
    lanes hold no rate.  No input validation."""
    Hh = inst.H.conj().T
    signal = Hh @ S @ inst.H
    base = Hh @ Q @ inst.H + inst.sigma2 * np.eye(inst.n_u)
    return logdet_ratio_stacked(signal, base)


def downlink_rate(inst: ChannelInstance, d: DownlinkDesign) -> float:
    """Achievable downlink rate in bits per channel use."""
    _check_dims(inst, d)
    return one_lane(downlink_rate_stacked(inst, d.S[None], d.Q[None])) / LN2


def downlink_fronthaul(d: DownlinkDesign) -> float:
    """Bits per channel use needed to describe the precoded signal; depends
    only on the design, not on the channel.

    Requires Q positive definite on the described subspace (DomainError
    otherwise: a noiseless description would take infinitely many bits).
    """
    W = d.active_basis
    return logdet_ratio(restrict(d.S, W), restrict(d.Q, W)) / LN2


def assemble_downlink(spec: ChannelSpectrum, a) -> DownlinkDesign:
    """Build the diagonal design S = U diag(p~) U^H, Q = U diag(q) U^H from
    a scalar allocation, with the tight split p_d = p~_d + q_d,
    q_d = p_d 2^-c_d on every subchannel that has a share.

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
    S = (U * pt) @ U.conj().T
    Q = (U * q) @ U.conj().T

    active = q > 0
    basis = None if D == spec.n_r and active.all() else U[:, active]
    return DownlinkDesign(S=S, Q=Q, active_basis=basis)


def check_downlink_feasible(inst: ChannelInstance, d: DownlinkDesign) -> RateReport:
    """Evaluate the functionals against the budgets; power counts signal
    plus compression noise, trace(S + Q)."""
    power = float(np.trace(d.S + d.Q).real)
    return RateReport(inst, downlink_rate(inst, d), downlink_fronthaul(d), power)
