"""Uplink compress-and-forward functionals and design assembly."""

import numpy as np
import pytest

from cranopt import (
    LN2,
    ChannelInstance,
    DomainError,
    UplinkDesign,
    assemble_uplink,
    SubchannelAllocation,
    check_uplink_feasible,
    solve_scalar_allocation,
    svd,
    uplink_fronthaul,
    uplink_rate,
)
from cranopt.uplink import uplink_rate_stacked

TWO_LOG2_3_2 = 1.1699250014423124  # 2*log2(3/2)
TWO_LOG2_3 = 3.169925001442312    # 2*log2(3)


def _identity_instance(P=2.0, C=2.0):
    return ChannelInstance(H=np.eye(2), P=P, C=C, sigma2=1.0)


def test_rate_identity_channel():
    inst = _identity_instance()
    d = UplinkDesign(S=np.eye(2), Q=np.eye(2))
    assert np.isclose(uplink_rate(inst, d), TWO_LOG2_3_2, rtol=1e-14)


def test_fronthaul_identity_channel():
    inst = _identity_instance()
    d = UplinkDesign(S=np.eye(2), Q=np.eye(2))
    assert np.isclose(uplink_fronthaul(inst, d), TWO_LOG2_3, rtol=1e-14)


def test_rate_zero_signal():
    inst = _identity_instance()
    d = UplinkDesign(S=np.zeros((2, 2)), Q=np.eye(2))
    assert uplink_rate(inst, d) == 0.0


def test_rate_invariant_under_receive_rotation():
    # rate depends on H S H^H and Q; rotating both bases together is a no-op
    rng = np.random.default_rng(5)
    H = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
    inst = ChannelInstance(H=H, P=3.0, C=4.0, sigma2=0.7)
    S = np.diag([1.5, 1.0, 0.5]).astype(complex)
    Q = np.diag([0.3, 0.6, 0.9]).astype(complex)
    base = uplink_rate(inst, UplinkDesign(S=S, Q=Q))
    from cranopt import random_unitary

    U = random_unitary(3, 9)
    inst2 = ChannelInstance(H=U @ H, P=3.0, C=4.0, sigma2=0.7)
    d2 = UplinkDesign(S=S, Q=U @ Q @ U.conj().T)
    assert np.isclose(uplink_rate(inst2, d2), base, rtol=1e-12)


def test_assemble_matches_scalar_objective():
    rng = np.random.default_rng(12)
    for seed in range(5):
        H = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / np.sqrt(2)
        inst = ChannelInstance(H=H, P=2.5, C=3.0, sigma2=1.0)
        spec = svd(inst.H)
        a = solve_scalar_allocation(spec.singular_values, inst.P, inst.C, inst.sigma2)
        d = assemble_uplink(spec, a, inst.sigma2)
        rep = check_uplink_feasible(inst, d)
        assert rep.feasible, rep.diagnostics
        assert np.isclose(rep.rate, a.diagnostics["rate"], rtol=1e-10, atol=1e-12)
        # tight quantizers meet the fronthaul budget exactly on active subchannels
        assert rep.fronthaul_used <= inst.C + 1e-9


def test_assembled_design_diagonalizes_on_channel_bases():
    H = np.array([[2.0, 0.0], [0.0, 1.0]])
    inst = ChannelInstance(H=H, P=2.0, C=3.0, sigma2=1.0)
    spec = svd(inst.H)
    a = solve_scalar_allocation(spec.singular_values, inst.P, inst.C, inst.sigma2)
    d = assemble_uplink(spec, a, inst.sigma2)
    # identity bases here, so S and Q must be literally diagonal
    assert np.allclose(d.S, np.diag(np.diag(d.S)))
    assert np.allclose(d.Q, np.diag(np.diag(d.Q)))
    assert np.isclose(np.trace(d.S).real, inst.P)


def test_excluded_dimension_carries_no_fronthaul():
    # put all fronthaul on subchannel 0; subchannel 1 is off and excluded
    spec = svd(np.diag([2.0, 1.0]))
    a = SubchannelAllocation(np.array([2.0, 0.0]), np.array([3.0, 0.0]))
    d = assemble_uplink(spec, a, 1.0)
    assert d.active_basis is not None
    assert d.active_basis.shape == (2, 1)
    inst = ChannelInstance(H=np.diag([2.0, 1.0]), P=2.0, C=3.0, sigma2=1.0)
    assert np.isclose(uplink_fronthaul(inst, d), 3.0, rtol=1e-10)
    rep = check_uplink_feasible(inst, d)
    assert rep.feasible


def test_fronthaul_rejects_singular_quantizer_on_active_dim():
    inst = _identity_instance()
    d = UplinkDesign(S=np.eye(2), Q=np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        uplink_fronthaul(inst, d)


def test_check_reports_slacks():
    inst = _identity_instance(P=4.0, C=8.0)
    d = UplinkDesign(S=np.eye(2), Q=np.eye(2))
    rep = check_uplink_feasible(inst, d)
    assert rep.feasible
    assert np.isclose(rep.power_used, 2.0)
    assert np.isclose(rep.slack_power, 2.0)
    assert np.isclose(rep.slack_fronthaul, 8.0 - TWO_LOG2_3, rtol=1e-12)


def test_check_flags_power_violation():
    inst = _identity_instance(P=1.0)
    d = UplinkDesign(S=np.eye(2), Q=np.eye(2))
    rep = check_uplink_feasible(inst, d)
    assert not rep.feasible
    assert rep.slack_power < 0


def _rand_psd(n, rng):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return X @ X.conj().T / n


@pytest.mark.parametrize("k", [None, 1, 0])
def test_stacked_rate_is_the_one_design_rate(k):
    # uplink_rate, read from the design's eigen-factors, is the rate
    # uplink_rate_stacked gives the dense pair, to rounding, with no
    # restriction, a 1-dim and an empty forwarded subspace
    rng = np.random.default_rng(21)
    H = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / np.sqrt(2)
    inst = ChannelInstance(H=H, P=2.0, C=3.0, sigma2=0.8)
    W = None if k is None else np.eye(3, dtype=complex)[:, :k]
    S = np.stack([_rand_psd(2, rng) for _ in range(4)])
    Q = np.stack([_rand_psd(3, rng) + 0.1 * np.eye(3) for _ in range(4)])
    nats, ok = uplink_rate_stacked(inst, S, Q, W)
    assert ok.all()
    for t in range(4):
        d = UplinkDesign(S=S[t], Q=Q[t], active_basis=W)
        assert uplink_rate(inst, d) == pytest.approx(nats[t] / LN2, rel=1e-13, abs=0.0)
    if k == 0:
        assert not nats.any()
        assert uplink_rate(inst, d) == 0.0
