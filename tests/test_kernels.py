"""Hermitian/determinant kernels: identities, domains, reproducibility."""

import ast
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cranopt
from cranopt import (
    ChannelInstance,
    DomainError,
    DownlinkDesign,
    InconsistencyError,
    InstanceFormatError,
    InvalidInputError,
    LN2,
    SubchannelAllocation,
    TOL,
    UplinkDesign,
    assemble_downlink,
    assemble_uplink,
    certified_gap_bits,
    check_downlink_bounds,
    check_power_lower_bound,
    check_uplink_rate_bound,
    downlink_rate,
    feasibility_projection,
    hermitian_part,
    is_psd,
    logdet_ratio,
    perturbation_search,
    random_channel,
    random_unitary,
    solve_instance,
    solve_scalar_allocation,
    subchannel_rate,
    svd,
    tight_quantizer_downlink,
    tight_quantizer_uplink,
    uplink_rate,
    waterfilling_capacity,
)
from cranopt.cli import ExperimentConfig, instance_from_record
from cranopt.kernels import (
    _cholesky_lanes,
    _forward_substitution,
    as_complex_matrix,
    hermitian_defect,
    logdet_ratio_stacked,
)


def _rand_hpd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X @ X.conj().T) / n + 1e-3 * scale * np.eye(n)


def test_logdet_ratio_matches_logdet_difference():
    for seed in range(8):
        M = _rand_hpd(3, seed)
        B = _rand_hpd(3, seed + 100)
        direct = np.linalg.slogdet(B + M)[1] - np.linalg.slogdet(B)[1]
        assert np.isclose(logdet_ratio(M, B), direct, rtol=1e-11, atol=1e-12)


def test_logdet_ratio_scale_invariance():
    # log|B+M| - log|B| with M,B scaled together only shifts by nothing:
    # ratio form must survive scales far below any absolute eigenvalue floor
    M = _rand_hpd(2, 0, scale=1e-16)
    B = _rand_hpd(2, 1, scale=1e-16)
    ref = logdet_ratio(1e16 * M, 1e16 * B)
    assert np.isclose(logdet_ratio(M, B), ref, rtol=1e-10)


def test_logdet_ratio_zero_numerator():
    B = _rand_hpd(3, 2)
    assert logdet_ratio(np.zeros((3, 3)), B) == 0.0


def test_logdet_ratio_empty_blocks():
    E = np.zeros((0, 0))
    assert logdet_ratio(E, E) == 0.0


def test_logdet_ratio_rejects_non_pd_base():
    with pytest.raises(DomainError):
        logdet_ratio(np.eye(2), np.diag([1.0, 0.0]))


def test_logdet_ratio_stacked_fails_only_the_bad_lanes():
    # lane 1 has a singular base, lane 2 a base plus load that is not
    # positive definite; the stacked factorization of lane 1 fails the whole
    # stack, so the lanes are factored one by one
    B = np.stack([_rand_hpd(2, 1), np.diag([1.0, 0.0]), np.eye(2), _rand_hpd(2, 2)])
    M = np.stack([_rand_hpd(2, 3), np.eye(2), -2.0 * np.eye(2), _rand_hpd(2, 4)])
    nats, ok = logdet_ratio_stacked(M.astype(complex), B.astype(complex))
    assert ok.tolist() == [True, False, False, True]
    for k in (0, 3):
        assert nats[k] == logdet_ratio(M[k], B[k])


@pytest.mark.parametrize("bad", [(), (0,), (7, 8, 150, 299), tuple(range(300))])
def test_cholesky_lanes_match_single_factorizations(bad):
    # a failed lane fails the stacked factorization as a whole; the stack is
    # then halved until each failed lane is found, and every other lane's
    # factor is the one it has when factored alone
    rng = np.random.default_rng(len(bad))
    X = rng.standard_normal((300, 3, 3)) + 1j * rng.standard_normal((300, 3, 3))
    A = X @ X.conj().swapaxes(-1, -2) + 1e-3 * np.eye(3)
    A[list(bad)] = -np.eye(3)
    L, ok = _cholesky_lanes(A)
    assert np.flatnonzero(~ok).tolist() == list(bad)
    for k in range(300):
        assert np.array_equal(L[k], np.linalg.cholesky(A[k]) if ok[k] else np.eye(3)), k


def _haar_hpd(eigenvalues, rng):
    n = eigenvalues.size
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, R = np.linalg.qr(Z)
    U = U * (np.diagonal(R) / np.abs(np.diagonal(R)))
    return hermitian_part((U * eigenvalues) @ U.conj().T)


def _exact(A):
    return mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row] for row in A])


def test_logdet_ratio_matches_a_50_digit_reference():
    # 300 seeded pairs, n = 1..4, Haar eigenvectors: each matrix's
    # eigenvalues spread over up to 9 decades, at a common scale of 1e-12 to
    # 1e6, with M up to 3 decades above or below B.  The reference is the
    # exact ratio of the float64 inputs at 50 digits.  Each log-determinant
    # is exact to about eps times its matrix's condition number, so the
    # bound is 1e-9 nats or n eps (cond B + cond(B + M)), whichever is larger
    mpmath.mp.dps = 50
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    for k in range(300):
        n = 1 + k % 4
        scale = 10.0 ** rng.uniform(-12, 6)
        B = _haar_hpd(scale * 10.0 ** rng.uniform(0, rng.uniform(0, 9), n), rng)
        shift = 10.0 ** rng.uniform(-3, 3)
        M = _haar_hpd(scale * shift * 10.0 ** rng.uniform(0, rng.uniform(0, 9), n), rng)
        B_exact = _exact(B)
        ref = mpmath.log(mpmath.det(B_exact + _exact(M)).real) - mpmath.log(mpmath.det(B_exact).real)
        err = abs(float(logdet_ratio(M, B) - ref))
        bound = max(1e-9, n * eps * (np.linalg.cond(B) + np.linalg.cond(B + M)))
        assert err <= bound, (k, err, bound)


def _lower_factor(n, pivoting, rng):
    """A lower-triangular factor with a positive diagonal spread over up to 9
    decades and cond(L) <= 1e9; with pivoting, some |L[i, 0]| exceeds
    L[0, 0], so an LU solve would swap rows."""
    while True:
        d = 10.0 ** rng.uniform(0, rng.uniform(0, 9), n)
        if pivoting:
            d = np.sort(d)
        L = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
        L *= np.sqrt(np.outer(d, d)) * 10.0 ** rng.uniform(-1, 1)
        if pivoting:
            L[1:, 0] *= 10.0 ** rng.uniform(0, 3)
        L[np.diag_indices(n)] = d
        if np.linalg.cond(L) <= 1e9 and (not pivoting or np.abs(L[1:, 0]).max() > d[0]):
            return L


def test_forward_substitution_matches_a_50_digit_reference():
    # 96 seeded stacks of 3 lanes: n = 1..4 rows, m = 1..4 right-hand
    # columns, cond(L) up to 1e9, right-hand sides at scales 1e-6 to 1e6, and
    # on half the stacks with n > 1 factors on which LU would pivot.  The
    # reference is L^-1 B of the float64 inputs at 50 digits.  Substitution
    # is backward stable, so each lane's error is within about
    # n eps cond(L) ||X||_F (the worst seen was 0.8 of it, at n = 1); the
    # bound allows twice that
    mpmath.mp.dps = 50
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    pivoted = 0
    for k in range(96):
        n, m = 1 + k % 4, 1 + (k // 4) % 4
        pivoting = n > 1 and (k // 16) % 2 == 1
        L = np.stack([_lower_factor(n, pivoting, rng) for _ in range(3)])
        B = rng.standard_normal((3, n, m)) + 1j * rng.standard_normal((3, n, m))
        B *= 10.0 ** rng.uniform(-6, 6)
        X = _forward_substitution(L, B)
        for t in range(3):
            ref = mpmath.inverse(_exact(L[t])) * _exact(B[t])
            R = np.array([[complex(ref[i, j]) for j in range(m)] for i in range(n)])
            err = np.linalg.norm(X[t] - R)
            bound = 2 * n * eps * np.linalg.cond(L[t]) * np.linalg.norm(R)
            assert err <= bound, (k, t, err, bound)
        pivoted += pivoting
    assert pivoted == 36


def test_logdet_ratio_stacked_empty_spectrum_is_zero():
    # an empty forwarded subspace restricts every lane to a 0 x 0 pair
    nats, ok = logdet_ratio_stacked(np.zeros((3, 0, 0), complex), np.zeros((3, 0, 0), complex))
    assert nats.tolist() == [0.0, 0.0, 0.0]
    assert ok.all()
    assert logdet_ratio(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0


def test_hermitian_part_and_defect():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = hermitian_part(X)
    assert np.allclose(H, H.conj().T)
    assert hermitian_defect(H) <= 1e-15
    assert hermitian_defect(X) > 1e-3
    # relative at every scale, and 0 for a zero matrix
    Y = np.array([[10.0, 1e-9], [-1e-9, 10.0]], dtype=complex)
    for a in (1e-12, 1.0, 1e12):
        assert hermitian_defect(a * Y) == pytest.approx(2e-10, rel=1e-6)
    assert hermitian_defect(np.zeros((2, 2))) == 0.0


def test_is_psd():
    assert is_psd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1e-6]))
    with pytest.raises(InvalidInputError):
        is_psd(np.zeros((2, 3)))


def test_is_psd_does_not_depend_on_scale():
    # Hermitian M with min eig / max eig >= 0 (PSD) or <= -1e-6 (not PSD),
    # and a M for scales a far below and far above 1
    rng = np.random.default_rng(24)
    verdicts = []
    for _ in range(40):
        n = int(rng.integers(2, 5))
        w = np.sort(rng.uniform(0.0, 1.0, n))
        w[-1] = 1.0
        psd = bool(rng.random() < 0.5)
        w[0] = rng.choice([0.0, w[0]]) if psd else -(10.0 ** rng.uniform(-6, 0))
        V = random_unitary(n, int(rng.integers(2**31)))
        M = hermitian_part((V * w) @ V.conj().T)
        assert is_psd(M) == psd
        for a in (1e-12, 1e-6, 1e6, 1e12):
            assert is_psd(a * M) == psd, (w, a)
        verdicts.append(psd)
    assert 0 < sum(verdicts) < len(verdicts)
    assert not is_psd(1e-12 * np.diag([1.0, -100.0]))
    assert not is_psd(-np.eye(2))


def test_as_complex_matrix_rejects_vectors():
    with pytest.raises(InvalidInputError):
        as_complex_matrix(np.ones(3))


def test_svd_reconstruction_and_gains():
    for seed in range(6):
        H = random_channel(3, 2, seed)
        spec = svd(H)
        U, s, V = spec.left_basis, spec.singular_values, spec.right_basis
        assert np.allclose((U * s) @ V.conj().T, H, atol=TOL.reconstruction)
        assert np.all(np.diff(spec.singular_values) <= 0)
        assert np.allclose(spec.gains_squared, spec.singular_values**2)


def test_svd_bases_are_unitary():
    # thin bases: one orthonormal column per subchannel, D = min(n_r, n_u)
    for n_r, n_u in [(4, 3), (3, 4)]:
        spec = svd(random_channel(n_r, n_u, 11))
        D = min(n_r, n_u)
        assert spec.left_basis.shape == (n_r, D)
        assert spec.right_basis.shape == (n_u, D)
        for U in (spec.left_basis, spec.right_basis):
            assert np.allclose(U.conj().T @ U, np.eye(D), atol=TOL.unitary)


def test_svd_raises_on_a_bad_reconstruction(monkeypatch):
    lapack_svd = np.linalg.svd

    def off_by_1e6(A, *args, **kwargs):
        U, s, Vh = lapack_svd(A, *args, **kwargs)
        return U, s * (1.0 + 1e-6), Vh

    monkeypatch.setattr(np.linalg, "svd", off_by_1e6)
    # the check is relative to the channel's norm at every scale
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(InconsistencyError, match="SVD reconstruction residual"):
            svd(scale * random_channel(3, 2, 0))


def test_random_unitary_deterministic_and_unitary():
    U1 = random_unitary(4, 7)
    U2 = random_unitary(4, 7)
    assert np.array_equal(U1, U2)
    assert np.allclose(U1.conj().T @ U1, np.eye(4), atol=TOL.unitary)
    assert random_unitary(4, 8)[0, 0] != U1[0, 0]


def test_random_channel_deterministic():
    H1 = random_channel(2, 3, 42)
    H2 = random_channel(2, 3, 42)
    assert np.array_equal(H1, H2)
    assert H1.shape == (2, 3)
    assert H1.dtype == np.complex128


_BAD_SEEDS = [-1, 1.5, True, "3", None]


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
def test_random_channel_rejects_bad_seed(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        random_channel(1, 1, seed=seed)


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
def test_random_unitary_rejects_bad_seed(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        random_unitary(2, seed=seed)


def test_random_generators_accept_numpy_integer_seeds():
    assert np.array_equal(random_channel(2, 2, np.int64(5)), random_channel(2, 2, 5))
    assert np.array_equal(random_unitary(2, np.uint32(5)), random_unitary(2, 5))


def test_ln2_constant():
    assert LN2 == np.log(2.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_logdet_ratio_positive_for_psd_load(n, seed):
    # adding a PSD matrix can only grow the determinant
    M = _rand_hpd(n, seed)
    B = _rand_hpd(n, seed + 1)
    assert logdet_ratio(M, B) >= 0.0


def test_package_exports_match_its_imports():
    # every public name the package imports is exported, and every export
    # resolves on the package
    tree = ast.parse(Path(cranopt.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(cranopt.__all__)) == []
    assert [name for name in cranopt.__all__ if not hasattr(cranopt, name)] == []


# Rejection matrix: each public entry point, crossed with the bad values that
# apply to each of its arguments, must raise InvalidInputError (or
# InstanceFormatError where the JSON schema rejects the value first).  The
# faults below it are single calls, each with its error and a key phrase of
# the message.
_H = np.diag([2.0, 1.0])
_INST = ChannelInstance(H=_H, P=2.0, C=3.0, sigma2=1.0)
_BASE = solve_instance(_INST, "uplink")[0]
_NONNEG = [np.nan, np.inf, -np.inf, -1.0, "x", "2", None, 1j]
# a boolean is not a number, alone or in an array
_NONNEG_ARRAY = _NONNEG + [True, [1.0, np.nan], [-1.0, 1.0], [np.inf, 1.0], np.array([True, False])]
_POSITIVE = _NONNEG + [True, 0.0, [1.0, 2.0], [1.0]]
# a budget is one number: arrays are rejected whatever their length
_BUDGET = _NONNEG_ARRAY + [[1.0, 2.0], [1.0], np.array([1.0, 2.0])]
_COUNT = [np.nan, np.inf, -1, True, 1.5, 2.0, 2.5, "3", None]
_DIRECTION = ["sideways", "UPLINK", True, None]
# a matrix argument holds finite numbers in two nonempty dimensions
_MATRIX = [
    [["x"]],
    [["2"]],
    [[b"1"]],
    np.array([["2020-01-01"]], dtype="datetime64[D]"),
    [[None]],
    [[np.nan]],
    np.ones(2),
    np.zeros((0, 2)),
    [[True]],
]


def _config(**kw):
    kw.setdefault("random_spec", (1, 1, 1))
    return ExperimentConfig(mode="solve", **kw)


def _search(base=_BASE, trials=2, seed=0):
    return perturbation_search(_INST, base, trials, seed)


def _gap(gains=(1.0,), P=1.0, C=1.0, sigma2=1.0, allocation=SubchannelAllocation(1.0, 1.0)):
    return certified_gap_bits(gains, P, C, sigma2, allocation)


# not an allocation, one of the wrong length, and one over each budget
_ALLOCATIONS = [
    None,
    (1.0, 1.0),
    SubchannelAllocation([0.5, 0.5], [0.5, 0.5]),
    SubchannelAllocation(1.5, 1.0),
    SubchannelAllocation(1.0, 1.5),
]


def _record(**kw):
    rec = {"n_r": 1, "n_u": 1, "H": [[[1.0, 0.0]]], "P": 1.0, "C": 1.0, "sigma2": 1.0}
    return instance_from_record({**rec, **kw})


# (entry point.argument, call with the argument set to v, bad values)
_REJECTIONS = [
    ("ChannelInstance.H", lambda v: ChannelInstance(v, 1.0, 1.0, 1.0), _MATRIX),
    ("ChannelInstance.P", lambda v: ChannelInstance(_H, v, 1.0, 1.0), _BUDGET),
    ("ChannelInstance.C", lambda v: ChannelInstance(_H, 1.0, v, 1.0), _BUDGET),
    ("ChannelInstance.sigma2", lambda v: ChannelInstance(_H, 1.0, 1.0, v), _POSITIVE),
    ("SubchannelAllocation.power", lambda v: SubchannelAllocation(v, 1.0), _NONNEG_ARRAY),
    ("SubchannelAllocation.share", lambda v: SubchannelAllocation(1.0, v), _NONNEG_ARRAY),
    ("subchannel_rate.s", lambda v: subchannel_rate(v, 1.0, 1.0), _NONNEG_ARRAY),
    ("subchannel_rate.c", lambda v: subchannel_rate(1.0, v, 1.0), _NONNEG_ARRAY),
    ("subchannel_rate.sigma2", lambda v: subchannel_rate(1.0, 1.0, v), _POSITIVE),
    ("tight_quantizer_uplink.h2", lambda v: tight_quantizer_uplink(v, 1, 1, 1), _NONNEG_ARRAY),
    ("tight_quantizer_uplink.p", lambda v: tight_quantizer_uplink(1, v, 1, 1), _NONNEG_ARRAY),
    ("tight_quantizer_uplink.c", lambda v: tight_quantizer_uplink(1, 1, v, 1), _NONNEG_ARRAY),
    ("tight_quantizer_uplink.sigma2", lambda v: tight_quantizer_uplink(1, 1, 1, v), _POSITIVE),
    (
        "assemble_uplink.sigma2",
        lambda v: assemble_uplink(svd(np.eye(2)), SubchannelAllocation([0.0, 0.0], [0.0, 0.0]), v),
        _POSITIVE,
    ),
    ("tight_quantizer_downlink.x", lambda v: tight_quantizer_downlink(v, 1.0), _NONNEG_ARRAY),
    ("tight_quantizer_downlink.c", lambda v: tight_quantizer_downlink(1.0, v), _NONNEG_ARRAY),
    ("solve_scalar_allocation.gains", lambda v: solve_scalar_allocation(v, 1, 1, 1), _NONNEG_ARRAY),
    ("solve_scalar_allocation.P", lambda v: solve_scalar_allocation([1], v, 1, 1), _BUDGET),
    ("solve_scalar_allocation.C", lambda v: solve_scalar_allocation([1], 1, v, 1), _BUDGET),
    ("solve_scalar_allocation.sigma2", lambda v: solve_scalar_allocation([1], 1, 1, v), _POSITIVE),
    ("waterfilling_capacity.gains", lambda v: waterfilling_capacity(v, 1.0, 1.0), _NONNEG_ARRAY),
    ("waterfilling_capacity.P", lambda v: waterfilling_capacity([1.0], v, 1.0), _BUDGET),
    ("waterfilling_capacity.sigma2", lambda v: waterfilling_capacity([1.0], 1.0, v), _POSITIVE),
    ("certified_gap_bits.gains", lambda v: _gap(gains=v), _NONNEG_ARRAY),
    ("certified_gap_bits.P", lambda v: _gap(P=v), _BUDGET),
    ("certified_gap_bits.C", lambda v: _gap(C=v), _BUDGET),
    ("certified_gap_bits.sigma2", lambda v: _gap(sigma2=v), _POSITIVE),
    ("certified_gap_bits.allocation", lambda v: _gap(allocation=v), _ALLOCATIONS),
    ("perturbation_search.base", lambda v: _search(base=v), [None, "uplink", np.eye(2)]),
    ("perturbation_search.trials", lambda v: _search(trials=v), _COUNT + [0]),
    ("perturbation_search.seed", lambda v: _search(seed=v), _COUNT),
    (
        "feasibility_projection.direction",
        lambda v: feasibility_projection(_INST, v, np.eye(2), np.eye(2)),
        _DIRECTION,
    ),
    ("solve_instance.direction", lambda v: solve_instance(_INST, v), _DIRECTION),
    ("random_channel.n_r", lambda v: random_channel(v, 1, 0), _COUNT + [0]),
    ("random_channel.n_u", lambda v: random_channel(1, v, 0), _COUNT + [0]),
    ("random_channel.seed", lambda v: random_channel(1, 1, v), _COUNT),
    ("UplinkDesign.S", lambda v: UplinkDesign(S=v, Q=np.eye(2)), _MATRIX),
    ("DownlinkDesign.Q", lambda v: DownlinkDesign(S=np.eye(2), Q=v), _MATRIX),
    ("svd.H", svd, _MATRIX),
    ("is_psd.M", is_psd, _MATRIX),
    (
        "feasibility_projection.S_like",
        lambda v: feasibility_projection(_INST, "uplink", v, np.eye(2)),
        _MATRIX,
    ),
    ("random_unitary.n", lambda v: random_unitary(v, 0), _COUNT + [0]),
    ("random_unitary.seed", lambda v: random_unitary(1, v), _COUNT),
    (
        "check_uplink_rate_bound.sigma2",
        lambda v: check_uplink_rate_bound(np.eye(2), np.eye(2), v),
        _POSITIVE,
    ),
    (
        "check_downlink_bounds.sigma2",
        lambda v: check_downlink_bounds(_H, np.eye(2), "signal", v),
        _POSITIVE,
    ),
    ("ExperimentConfig.seed", lambda v: _config(seed=v), _COUNT),
    ("ExperimentConfig.trials", lambda v: _config(trials=v), _COUNT + [0]),
    ("ExperimentConfig.tol", lambda v: _config(tol=v), _POSITIVE),
    ("ExperimentConfig.random_spec.n_r", lambda v: _config(random_spec=(v, 1, 1)), _COUNT + [0]),
    ("ExperimentConfig.random_spec.n_u", lambda v: _config(random_spec=(1, v, 1)), _COUNT + [0]),
    ("ExperimentConfig.random_spec.count", lambda v: _config(random_spec=(1, 1, v)), _COUNT + [0]),
]
# the JSON path: numbers of the wrong domain reach ChannelInstance, other
# values fail the schema
_JSON_REJECTIONS = [
    ("instance_from_record.P", lambda v: _record(P=v), [np.nan, np.inf, -1.0], [True, "x", None]),
    ("instance_from_record.C", lambda v: _record(C=v), [np.nan, np.inf, -1.0], [True, "x", None]),
    ("instance_from_record.sigma2", lambda v: _record(sigma2=v), [np.nan, 0.0], [True, "x", None]),
    ("instance_from_record.n_r", lambda v: _record(n_r=v), [], [-1, 0, True, 2.5, "1", None]),
]


# (entry point.fault, call, error, key phrase of the message)
_FAULTS = [
    (
        "tight_quantizer_uplink.zero-share",
        lambda: tight_quantizer_uplink(1.0, 1.0, 0.0, 1.0),
        DomainError,
        "zero share",
    ),
    (
        "waterfilling_capacity.2-D-gains",
        lambda: waterfilling_capacity([[1.0]], 1.0, 1.0),
        InvalidInputError,
        "nonempty 1-D vector",
    ),
    # a gain whose square overflows used to crash the solve and give the
    # water-filling capacity inf; the certified bound rejects it as well
    (
        "solve_scalar_allocation.gain-square-overflows",
        lambda: solve_scalar_allocation([1.4e154], 1.0, 2.0, 1.0),
        InvalidInputError,
        "gains must be at most",
    ),
    (
        "certified_gap_bits.gain-square-overflows",
        lambda: _gap(gains=[1.4e154]),
        InvalidInputError,
        "gains must be at most",
    ),
    (
        "waterfilling_capacity.gain-square-overflows",
        lambda: waterfilling_capacity([1.4e154, 1.0], 1.0, 1.0),
        InvalidInputError,
        "gains must be at most",
    ),
    (
        "logdet_ratio.shapes",
        lambda: logdet_ratio(np.eye(2), np.eye(3)),
        InvalidInputError,
        "shape mismatch",
    ),
    (
        "check_power_lower_bound.S-shape",
        lambda: check_power_lower_bound(_H, np.eye(3)),
        InvalidInputError,
        "S must be 2x2",
    ),
    (
        "check_downlink_bounds.M-shape",
        lambda: check_downlink_bounds(_H, np.eye(3), "signal", 1.0),
        InvalidInputError,
        "shape mismatch",
    ),
    (
        "DownlinkDesign.shapes",
        lambda: DownlinkDesign(S=np.eye(2), Q=np.eye(3)),
        InvalidInputError,
        "S and Q must match",
    ),
    (
        "uplink_rate.S-shape",
        lambda: uplink_rate(_INST, UplinkDesign(S=np.eye(3), Q=np.eye(2))),
        InvalidInputError,
        "S must be 2x2",
    ),
    (
        "uplink_rate.Q-shape",
        lambda: uplink_rate(_INST, UplinkDesign(S=np.eye(2), Q=np.eye(3))),
        InvalidInputError,
        "Q must be 2x2",
    ),
    (
        "downlink_rate.S-shape",
        lambda: downlink_rate(_INST, DownlinkDesign(S=np.eye(3), Q=np.eye(3))),
        InvalidInputError,
        "S must be 2x2",
    ),
    (
        "assemble_uplink.allocation-length",
        lambda: assemble_uplink(svd(_H), SubchannelAllocation([1.0], [1.0]), 1.0),
        InvalidInputError,
        "allocation length 1 != rank 2",
    ),
    (
        "assemble_downlink.allocation-length",
        lambda: assemble_downlink(svd(_H), SubchannelAllocation([1.0], [1.0])),
        InvalidInputError,
        "allocation length 1 != rank 2",
    ),
    (
        "feasibility_projection.shapes",
        lambda: feasibility_projection(_INST, "uplink", np.eye(3), np.eye(2)),
        InvalidInputError,
        "shapes do not match",
    ),
]


def _rejection_cases():
    for arg, call, values in _REJECTIONS:
        for v in values:
            yield pytest.param(call, v, InvalidInputError, None, id=f"{arg}={v!r}")
    for arg, call, domain, schema in _JSON_REJECTIONS:
        for v in domain:
            yield pytest.param(call, v, InvalidInputError, None, id=f"{arg}={v!r}")
        for v in schema:
            yield pytest.param(call, v, InstanceFormatError, None, id=f"{arg}={v!r}")
    for fault, call, error, phrase in _FAULTS:
        yield pytest.param(lambda _, call=call: call(), None, error, phrase, id=fault)


@pytest.mark.parametrize("call, value, error, phrase", _rejection_cases())
def test_entry_points_reject_bad_arguments(call, value, error, phrase):
    with pytest.raises(error, match=None if phrase is None else re.escape(phrase)) as info:
        call(value)
    assert type(info.value) is error
