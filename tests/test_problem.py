"""Instance and design containers: validation, projections, restrictions."""

import numpy as np
import pytest

from cranopt import (
    ChannelInstance,
    DownlinkDesign,
    TOL,
    InvalidInputError,
    RateReport,
    UplinkDesign,
    check_uplink_feasible,
    psd_part,
    restrict,
)
from cranopt.kernels import hermitian_defect
from cranopt.problem import validate_covariance


def _inst(H=None, P=2.0, C=2.0, sigma2=1.0):
    if H is None:
        H = np.eye(2)
    return ChannelInstance(H=H, P=P, C=C, sigma2=sigma2)


def test_instance_shapes_and_fields():
    inst = _inst(H=np.ones((3, 2)))
    assert inst.n_r == 3
    assert inst.n_u == 2
    assert inst.H.dtype == np.complex128


def test_instance_rejects_bad_budgets():
    with pytest.raises(InvalidInputError):
        _inst(P=-0.5)
    with pytest.raises(InvalidInputError):
        _inst(C=-1.0)
    with pytest.raises(InvalidInputError):
        _inst(sigma2=0.0)
    with pytest.raises(InvalidInputError):
        _inst(P=np.nan)


def test_instance_rejects_bad_matrix():
    with pytest.raises(InvalidInputError):
        _inst(H=np.ones(3))


def test_instance_is_frozen():
    inst = _inst()
    with pytest.raises(AttributeError):
        inst.P = 5.0


def test_with_budgets_shares_the_channel_and_its_spectrum():
    inst = _inst(H=np.array([[1.0, 0.3], [0.2, 0.8]]), P=2.0, C=4.0, sigma2=0.5)
    spectrum = inst.spectrum
    point = inst.with_budgets(3, 1.5)
    assert (point.P, point.C, point.sigma2) == (3.0, 1.5, 0.5)
    assert type(point.P) is float
    assert point.H is inst.H and point.spectrum is spectrum
    assert (inst.P, inst.C) == (2.0, 4.0)  # the source is unchanged
    with pytest.raises(AttributeError):
        point.P = 5.0
    for P, C in ((-1.0, 1.0), (1.0, -0.5), (np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(InvalidInputError):
            inst.with_budgets(P, C)


def test_designs_validate_psd():
    ok = UplinkDesign(S=np.eye(2), Q=np.eye(2))
    assert ok.active_basis is None
    with pytest.raises(InvalidInputError):
        DownlinkDesign(S=np.eye(2), Q=np.diag([-0.1, 1.0]))
    # the eigenvalue floor is relative at every scale: an absolute floor
    # below unit scale once accepted S = 1e-12 diag(1, -0.5)
    for scale in (1e-12, 1.0, 1e12):
        UplinkDesign(S=scale * np.diag([1.0, 0.0]), Q=scale * np.eye(2))
        with pytest.raises(InvalidInputError, match="positive semidefinite"):
            UplinkDesign(S=scale * np.diag([1.0, -0.5]), Q=scale * np.eye(2))


def test_validate_covariance_checks_each_matrix_of_a_stack():
    good = np.stack([np.eye(2), np.diag([2.0, 0.0])]).astype(complex)
    validate_covariance(good, "S")
    validate_covariance(good[0], "S")
    bad_psd = good.copy()
    bad_psd[1] = np.diag([1.0, -0.1])
    bad_finite = good.copy()
    bad_finite[0, 0, 1] = np.nan
    for A in (bad_psd, bad_finite, np.zeros((2, 2, 3), complex)):
        with pytest.raises(InvalidInputError):
            validate_covariance(A, "S")


@pytest.mark.parametrize("defect, ok", [(5e-10, True), (2e-9, False)])
def test_validate_covariance_bounds_the_relative_hermitian_defect(defect, ok):
    # TOL.psd (1e-9) bounds ||A - A^H||_F / ||A||_F: for
    # A = 10 I + x [[0, 1], [-1, 0]] that ratio is x / 5 to first order
    x = 5.0 * defect
    A = np.array([[10.0, x], [-x, 10.0]], dtype=complex)
    assert hermitian_defect(A) == pytest.approx(defect, rel=1e-6)
    if ok:
        validate_covariance(A, "S")
    else:
        with pytest.raises(InvalidInputError, match="Hermitian"):
            validate_covariance(A, "S")


def test_rate_report_derives_slacks_and_verdict():
    inst = _inst(P=2.0, C=3.0)
    rep = RateReport(inst, 1.0, 3.0 + 0.5 * TOL.feasibility, 1.5)
    assert (rep.slack_power, rep.slack_fronthaul) == (0.5, 3.0 - rep.fronthaul_used)
    assert rep.feasible and rep.diagnostics == {}
    assert not RateReport(inst, 1.0, 3.0, 2.0 + 2 * TOL.feasibility).feasible
    assert not RateReport(inst, 1.0, np.nan, 1.0).feasible


def test_designs_validate_active_basis():
    W = np.array([[1.0], [0.0]])
    d = UplinkDesign(S=np.eye(2), Q=np.eye(2), active_basis=W)
    assert d.active_basis.shape == (2, 1)
    with pytest.raises(InvalidInputError):
        UplinkDesign(S=np.eye(2), Q=np.eye(2), active_basis=2.0 * W)
    with pytest.raises(InvalidInputError):
        UplinkDesign(S=np.eye(2), Q=np.eye(2), active_basis=np.ones((2, 3)))


def test_psd_part_clips_negative_eigenvalues():
    M = np.diag([2.0, -1.0])
    P = psd_part(M)
    assert np.allclose(P, np.diag([2.0, 0.0]))
    ev = np.linalg.eigvalsh(psd_part(M + 0.1j * np.array([[0, 1], [-1, 0]])))
    assert ev.min() >= -1e-12


def test_restrict():
    M = np.diag([3.0, 5.0]).astype(complex)
    W = np.array([[0.0], [1.0]], dtype=complex)
    assert np.allclose(restrict(M, W), [[5.0]])
    assert restrict(M, None) is M


def test_instance_channel_is_read_only_and_the_callers_array_stays_writable():
    H = np.array([[1.0 + 0.5j, 0.3], [0.2, 0.8]])
    inst = _inst(H=H)
    spectrum = inst.spectrum
    assert inst.spectrum is spectrum  # taken once
    with pytest.raises(ValueError, match="read-only"):
        inst.H[0, 0] = 0.0
    # the instance holds a copy: the caller's array stays writable, and
    # writing it changes neither the channel nor its spectrum
    assert H.flags.writeable
    H[0, 0] = 5.0
    assert inst.H[0, 0] == 1.0 + 0.5j
    assert np.allclose((spectrum.left_basis * spectrum.singular_values)
                       @ spectrum.right_basis.conj().T, inst.H)
    # a view and an instance's own read-only channel are copied too
    view = _inst(H=H[:, :1])
    assert not np.may_share_memory(view.H, H)
    again = _inst(H=inst.H)
    assert not np.may_share_memory(again.H, inst.H)
    assert not again.H.flags.writeable


def test_designs_keep_read_only_copies_and_the_callers_arrays_stay_writable():
    # a design used to keep the caller's complex S itself: writing an
    # indefinite S into it after validation changed the design's report
    S = np.eye(2, dtype=complex)
    Q = 0.5 * np.eye(2, dtype=complex)
    W = np.eye(2, dtype=complex)
    inst = _inst(P=2.0, C=8.0)
    d = UplinkDesign(S=S, Q=Q, active_basis=W)
    before = check_uplink_feasible(inst, d)
    S[1, 1] = -0.4
    Q[0, 0] = 7.0
    W[:, 0] = 0.0
    after = check_uplink_feasible(inst, d)
    assert (after.rate, after.power_used, after.feasible) == (
        before.rate, before.power_used, before.feasible
    )
    assert before.power_used == 2.0
    for mine, theirs in ((d.S, S), (d.Q, Q), (d.active_basis, W)):
        assert not np.may_share_memory(mine, theirs)
        assert not mine.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mine[0, 0] = 0.0
        assert theirs.flags.writeable
    assert np.array_equal(d.S, np.eye(2)) and d.Q[0, 0] == 0.5
    # arrays from another design are copied too, and lists are read-only
    again = DownlinkDesign(S=d.S, Q=[[1.0, 0.0], [0.0, 1.0]])
    assert not np.may_share_memory(again.S, d.S)
    assert not again.Q.flags.writeable


def test_factors_are_checked_whole():
    # a factor (B, lam) needs orthonormal columns and one finite lam >= 0
    # per column; the dense pair is formed from it, (B * lam) @ B^H
    B = np.linalg.qr(np.array([[1.0, 2.0], [0.5, -1.0]]))[0]
    ok = (B, np.array([1.0, 0.0]))
    d = UplinkDesign._from_factors(ok, ok)
    assert np.array_equal(d.S, (B * ok[1]) @ B.conj().T)
    assert d.active_basis is None  # the Q factor spans the whole space
    one = UplinkDesign._from_factors(ok, (B[:, :1], np.array([2.0])))
    assert np.array_equal(one.active_basis, B[:, :1])
    for bad, match in (
        ((2.0 * B, ok[1]), "orthonormal"),
        ((np.full((2, 2), np.nan), ok[1]), "orthonormal"),
        ((B, np.array([1.0, -1e-300])), "finite and >= 0"),
        ((B, np.array([1.0, np.inf])), "finite and >= 0"),
        ((B, np.array([1.0, np.nan])), "finite and >= 0"),
        ((B, np.array([1.0])), "k eigenvalues"),
        ((B[:, :1] @ np.ones((1, 3)), np.ones(3)), "k <= n"),
    ):
        for S_factor, Q_factor in ((bad, ok), (ok, bad)):
            with pytest.raises(InvalidInputError, match=match):
                DownlinkDesign._from_factors(S_factor, Q_factor)


def test_dense_designs_keep_the_covariance_messages():
    for S, match in (
        (np.ones((2, 3)), "S must be square"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "S must be Hermitian positive semidefinite"),
        (np.diag([1.0, -0.1]), "S must be Hermitian positive semidefinite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "S contains non-finite entries"),
    ):
        with pytest.raises(InvalidInputError, match=match):
            UplinkDesign(S=S, Q=np.eye(2))
    with pytest.raises(InvalidInputError, match="Q must be Hermitian positive semidefinite"):
        DownlinkDesign(S=np.eye(2), Q=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_a_given_active_basis_restricts_the_q_factor():
    # the Q factor of a dense design with an active basis W lives in W: its
    # basis spans W, and Q outside W is no part of the design
    W = np.eye(3, dtype=complex)[:, :2]
    Q = np.diag([2.0, 0.5, 7.0]).astype(complex)
    d = DownlinkDesign(S=np.eye(3), Q=Q, active_basis=W)
    B, lam = d.Q_factor
    assert B.shape == (3, 2) and np.allclose(np.sort(lam), [0.5, 2.0])
    assert np.allclose(W @ W.conj().T @ B, B)
    assert np.allclose(d.Q, np.diag([2.0, 0.5, 0.0]))
    assert d.active_basis is B
    assert check_uplink_feasible(_inst(P=2.0, C=8.0), UplinkDesign(
        S=np.eye(2), Q=np.eye(2), active_basis=np.eye(2)[:, :1]
    )).power_used == 2.0


def test_designs_and_their_factors_are_read_only():
    d = DownlinkDesign(S=np.diag([1.0, 2.0]), Q=np.eye(2), active_basis=np.eye(2)[:, :1])
    arrays = (d.S, d.Q, d.active_basis, *d.S_factor, *d.Q_factor)
    for A in arrays:
        with pytest.raises(ValueError, match="read-only"):
            A[0] = 0.0
    assert d.S is d.S and d.Q is d.Q  # formed once
    for name in ("S", "Q", "active_basis", "S_factor", "Q_factor"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
