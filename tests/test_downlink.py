"""Downlink compression functionals and design assembly."""

import numpy as np
import pytest

from cranopt import (
    LN2,
    ChannelInstance,
    DomainError,
    DownlinkDesign,
    SubchannelAllocation,
    assemble_downlink,
    check_downlink_feasible,
    downlink_fronthaul,
    downlink_rate,
    random_unitary,
    solve_instance,
    solve_scalar_allocation,
    svd,
)
from cranopt.downlink import downlink_rate_stacked

TWO_LOG2_3_2 = 1.1699250014423124  # 2*log2(3/2)


def _identity_instance(P=4.0, C=4.0):
    return ChannelInstance(H=np.eye(2), P=P, C=C, sigma2=1.0)


def test_rate_identity_channel():
    inst = _identity_instance()
    d = DownlinkDesign(S=np.eye(2), Q=np.eye(2))
    assert np.isclose(downlink_rate(inst, d), TWO_LOG2_3_2, rtol=1e-14)


def test_fronthaul_is_design_only():
    d = DownlinkDesign(S=np.eye(2), Q=np.eye(2))
    assert np.isclose(downlink_fronthaul(d), 2.0, rtol=1e-14)  # log2|2I| - log2|I|


def test_zero_signal_zero_everything():
    inst = _identity_instance()
    d = DownlinkDesign(S=np.zeros((2, 2)), Q=np.eye(2))
    assert downlink_rate(inst, d) == 0.0
    assert np.isclose(downlink_fronthaul(d), 0.0)


def test_power_is_trace_of_sum():
    inst = _identity_instance(P=10.0)
    d = DownlinkDesign(S=2.0 * np.eye(2), Q=np.eye(2))
    rep = check_downlink_feasible(inst, d)
    assert np.isclose(rep.power_used, 6.0)
    assert rep.feasible


def test_assemble_matches_scalar_objective():
    rng = np.random.default_rng(21)
    for _ in range(5):
        H = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2)
        inst = ChannelInstance(H=H, P=2.0, C=3.5, sigma2=1.0)
        spec = svd(inst.H)
        a = solve_scalar_allocation(spec.singular_values, inst.P, inst.C, inst.sigma2)
        d = assemble_downlink(spec, a)
        rep = check_downlink_feasible(inst, d)
        assert rep.feasible, rep.diagnostics
        assert np.isclose(rep.rate, a.diagnostics["rate"], rtol=1e-10, atol=1e-12)


def test_off_subchannels_are_excluded():
    spec = svd(np.diag([2.0, 1.0]))
    a = SubchannelAllocation(np.array([2.0, 0.0]), np.array([3.0, 0.0]))
    d = assemble_downlink(spec, a)
    assert d.active_basis is not None
    assert d.active_basis.shape == (2, 1)
    assert np.isclose(downlink_fronthaul(d), 3.0, rtol=1e-10)


def test_assemble_rejects_signal_without_quantizer():
    # p_tilde > 0 with q = 0 has unbounded fronthaul cost; q = x 2^-c
    # underflows to 0 at c = 1100
    spec = svd(np.eye(2))
    a = SubchannelAllocation(np.array([1.0, 0.0]), np.array([1100.0, 0.0]))
    with pytest.raises(DomainError):
        assemble_downlink(spec, a)


def test_check_flags_fronthaul_violation():
    inst = _identity_instance(C=1.0)
    d = DownlinkDesign(S=np.eye(2), Q=np.eye(2))
    rep = check_downlink_feasible(inst, d)
    assert not rep.feasible
    assert rep.slack_fronthaul < 0


def test_rate_reads_the_described_subspace():
    # the RRH radiates only what the fronthaul describes: an assembled
    # design with one subchannel off has the rate of its full-space twin,
    # and signal outside the described subspace adds nothing
    spec = svd(np.diag([2.0, 1.0]))
    a = SubchannelAllocation(np.array([2.0, 0.0]), np.array([3.0, 0.0]))
    d = assemble_downlink(spec, a)
    inst = ChannelInstance(H=np.diag([2.0, 1.0]), P=2.0, C=3.0, sigma2=1.0)
    full = DownlinkDesign(S=d.S, Q=d.Q + 1e-30 * np.eye(2))
    assert np.isclose(downlink_rate(inst, d), downlink_rate(inst, full), rtol=1e-9)
    W = np.eye(2)[:, :1]
    leak = DownlinkDesign(S=np.diag([1.5, 1.0]), Q=np.diag([0.5, 0.0]), active_basis=W)
    alone = DownlinkDesign(S=np.diag([1.5, 0.0]), Q=np.diag([0.5, 0.0]), active_basis=W)
    assert downlink_rate(inst, leak) == downlink_rate(inst, alone)
    assert np.isclose(downlink_rate(inst, alone), np.log2(3.0), rtol=1e-14)


def test_stacked_rate_is_the_one_design_rate():
    # downlink_rate, read from the design's eigen-factors, is the rate
    # downlink_rate_stacked gives the dense pair, to rounding, with no
    # restriction, a 1-dim and an empty described subspace
    rng = np.random.default_rng(22)
    H = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / np.sqrt(2)
    inst = ChannelInstance(H=H, P=2.0, C=3.0, sigma2=0.8)
    X = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
    M = X @ X.conj().swapaxes(-1, -2) / 3
    S, Q = M[:4], M[4:]
    for W in (None, np.eye(3, dtype=complex)[:, :1], np.eye(3, dtype=complex)[:, :0]):
        nats, ok = downlink_rate_stacked(inst, S, Q, W)
        assert ok.all()
        for t in range(4):
            d = DownlinkDesign(S=S[t], Q=Q[t], active_basis=W)
            assert downlink_rate(inst, d) == pytest.approx(nats[t] / LN2, rel=1e-13, abs=0.0)
    assert not nats.any()  # the empty subspace carries nothing
    assert downlink_rate(inst, d) == 0.0


def test_assembled_rate_skips_the_rounding_of_switched_off_subchannels():
    # case 396 of the extreme-input corpus, rebuilt from its rounded gains
    # and budgets: all power goes to subchannel 1, and the dense S carries
    # about eps times that power on the others, where the gain 2.1e5
    # weighs it against sigma2.  Read over the whole space, this channel's
    # downlink rate was 0.057 bits off the scalar rate (the corpus's own
    # case: -0.457 bits against +0.034)
    s = np.array([2.2e5, 2.1e5, 2.2e-6, 1.9e-11])
    H = (random_unitary(6, 3)[:, :4] * s) @ random_unitary(4, 4)[:, :4].conj().T
    inst = ChannelInstance(H=H, P=4.4e7, C=0.034, sigma2=2.9)
    _, report, alloc = solve_instance(inst, "downlink")
    assert np.count_nonzero(alloc.share) == 1
    assert abs(report.rate - alloc.diagnostics["rate"]) <= 1e-9


def test_rank_one_downlink_rate_matches_the_scalar_rate():
    # a 1 x 7 channel with one gain of 8e5: whitening over all 7 transmit
    # dimensions put ~eps of the 1.5e13 signal eigenvalue on the six the
    # channel cannot reach, 8.9e-4 bits in all; the rate on the channel's
    # one subchannel carries none of it
    V = random_unitary(7, 5)[:, :1]
    inst = ChannelInstance(H=8e5 * V.conj().T, P=23.4, C=8.0, sigma2=1.0)
    _, report, alloc = solve_instance(inst, "downlink")
    assert abs(report.rate - alloc.diagnostics["rate"]) <= 1e-9
