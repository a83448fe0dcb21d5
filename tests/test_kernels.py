"""Hermitian/determinant kernels: identities, domains, reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranopt import (
    DomainError,
    InvalidInputError,
    LN2,
    TOL,
    hermitian_part,
    is_psd,
    logdet_hpd,
    logdet_ratio,
    random_channel,
    random_unitary,
    svd,
)
from cranopt.kernels import as_complex_matrix, hermitian_defect, logdet_ratio_stacked


def _rand_hpd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X @ X.conj().T) / n + 1e-3 * scale * np.eye(n)


def test_logdet_hpd_identity_is_zero():
    assert logdet_hpd(np.eye(4)) == 0.0


def test_logdet_hpd_diagonal():
    d = np.array([2.0, 3.0, 5.0])
    assert np.isclose(logdet_hpd(np.diag(d)), np.sum(np.log(d)), rtol=1e-14)


def test_logdet_hpd_rejects_singular():
    M = np.diag([1.0, 0.0])
    with pytest.raises(DomainError):
        logdet_hpd(M)


def test_logdet_hpd_rejects_tiny_eigenvalue():
    # pinned domain floor: eigenvalues at or below 1e-12 are out of domain
    M = np.diag([1.0, 1e-13])
    with pytest.raises(DomainError):
        logdet_hpd(M)


def test_logdet_ratio_matches_logdet_difference():
    for seed in range(8):
        M = _rand_hpd(3, seed)
        B = _rand_hpd(3, seed + 100)
        direct = logdet_hpd(B + M) - logdet_hpd(B)
        assert np.isclose(logdet_ratio(M, B), direct, rtol=1e-11, atol=1e-12)


def test_logdet_ratio_scale_invariance():
    # log|B+M| - log|B| with M,B scaled together only shifts by nothing:
    # ratio form must survive scales where logdet_hpd's floor would trip
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


def test_hermitian_part_and_defect():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = hermitian_part(X)
    assert np.allclose(H, H.conj().T)
    assert hermitian_defect(H) <= 1e-15
    assert hermitian_defect(X) > 1e-3


def test_is_psd():
    assert is_psd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1e-6]))
    with pytest.raises(InvalidInputError):
        is_psd(np.zeros((2, 3)))


def test_as_complex_matrix_rejects_vectors():
    with pytest.raises(InvalidInputError):
        as_complex_matrix(np.ones(3))


def test_svd_reconstruction_and_gains():
    for seed in range(6):
        H = random_channel(3, 2, seed)
        spec = svd(H)
        n_r, n_u = H.shape
        S = np.zeros((n_r, n_u))
        k = spec.singular_values.size
        S[:k, :k] = np.diag(spec.singular_values)
        assert np.allclose(spec.left_basis @ S @ spec.right_basis.conj().T, H, atol=TOL.reconstruction)
        assert np.all(np.diff(spec.singular_values) <= 0)
        assert np.allclose(spec.gains_squared, spec.singular_values**2)


def test_svd_bases_are_unitary():
    H = random_channel(4, 3, 11)
    spec = svd(H)
    for U in (spec.left_basis, spec.right_basis):
        n = U.shape[0]
        assert U.shape == (n, n)
        assert np.allclose(U.conj().T @ U, np.eye(n), atol=TOL.unitary)


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
