"""Spectral bounds: rate/power/fronthaul inequalities and equality cases."""

import numpy as np
import pytest

from cranopt import (
    InvalidInputError,
    check_downlink_bounds,
    check_power_lower_bound,
    check_uplink_rate_bound,
    log_majorizes,
    product_spectrum,
    random_unitary,
    schur_geo_convexity_probe,
)

EQ_TOL = 1e-9


def _rand_psd(n, seed, lift=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X @ X.conj().T) / n + lift * np.eye(n)


def test_uplink_rate_bound_holds_randomized():
    for seed in range(300):
        n = 2 + seed % 3
        lhs, rhs, _ = check_uplink_rate_bound(
            Phi=_rand_psd(n, seed),
            Q=_rand_psd(n, seed + 1000, lift=1e-3),
            sigma2=0.5 + (seed % 5) * 0.3,
        )
        assert rhs - lhs >= -EQ_TOL


def test_uplink_rate_bound_equality_anti_aligned():
    # equality needs the noise eigenvalues ascending along the signal's
    # descending eigenvectors
    rng = np.random.default_rng(3)
    for seed in range(20):
        n = 3
        U = random_unitary(n, seed)
        phi = np.sort(rng.uniform(0.5, 4.0, n))[::-1]
        qs = np.sort(rng.uniform(0.1, 2.0, n))
        lhs, rhs, equal = check_uplink_rate_bound(
            Phi=U @ np.diag(phi) @ U.conj().T,
            Q=U @ np.diag(qs) @ U.conj().T,
            sigma2=1.0,
        )
        assert abs(lhs - rhs) <= EQ_TOL
        assert equal


def test_uplink_rate_bound_aligned_is_strictly_loose():
    # same eigenvector order for both (descending-descending) leaves slack
    d_phi = np.diag([5.0, 2.0, 1.0])
    d_q = np.diag([2.0, 1.0, 0.1])
    lhs, rhs, equal = check_uplink_rate_bound(d_phi, d_q, 0.8)
    assert rhs - lhs > 0.1
    assert not equal


def test_uplink_rate_bound_scalar_matrix_equality():
    lhs, rhs, equal = check_uplink_rate_bound(2.0 * np.eye(3), 0.5 * np.eye(3), 1.0)
    assert abs(lhs - rhs) <= EQ_TOL
    assert equal


def test_probe_validation():
    with pytest.raises(InvalidInputError):
        check_uplink_rate_bound(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(InvalidInputError):
        check_uplink_rate_bound(np.diag([1.0, -0.5]), np.eye(2), 1.0)
    with pytest.raises(InvalidInputError):
        check_uplink_rate_bound(np.eye(2), np.eye(3), 1.0)


def test_power_lower_bound_holds_randomized():
    rng = np.random.default_rng(9)
    for seed in range(300):
        n = 2 + seed % 3
        H = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        S = _rand_psd(n, seed + 5000)
        power, bound, _ = check_power_lower_bound(H, S)
        assert power - bound >= -EQ_TOL


def test_power_lower_bound_equality_needs_sorted_pairing():
    # the bound pairs received eigenvalues (descending) with gains
    # (descending); a diagonal S with descending powers attains it
    rng = np.random.default_rng(17)
    for seed in range(20):
        n = 3
        g = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
        H = np.diag(g)
        p = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        power, bound, equal = check_power_lower_bound(H, np.diag(p).astype(complex))
        assert abs(power - bound) <= EQ_TOL
        assert equal


def test_power_lower_bound_null_space_power_breaks_equality():
    # power parked in the channel's null space raises the trace but never
    # reaches the receiver, so the bound stays strict
    H = np.diag([1.0, 0.0])
    S = np.diag([1.0, 1.0]).astype(complex)
    power, bound, equal = check_power_lower_bound(H, S)
    assert np.isclose(power, 2.0)
    assert np.isclose(bound, 1.0)
    assert not equal


@pytest.mark.parametrize(
    "H, S, equal",
    [
        # power on a gain of 1e-9, 1e-6 or 1e-5, far above its bound g^2
        (np.diag([1.0, 1e-9]), np.diag([0.0, 1.0]), False),
        (np.diag([1.0, 1e-6]), np.diag([0.0, 1.0]), False),
        (np.diag([1.0, 1e-5]), np.diag([0.0, 1.0]), False),
        # a gain the bound counts as zero is outside the row space too
        (np.diag([1.0, 1e-9]), np.eye(2), False),
        (np.diag([1.0, 1e-9]), np.diag([1.0, 0.0]), True),
        # null-space power is weighed against the trace at any scale
        (np.array([[1.0, 0.0]]), 1e-12 * np.diag([0.0, 1.0]), False),
        (np.array([[1.0, 0.0]]), 1e-12 * np.diag([1.0, 0.0]), True),
    ],
    ids=["gain-1e-9", "gain-1e-6", "gain-1e-5", "zero-gain", "strong-gain", "null", "row"],
)
def test_power_lower_bound_equality_is_relative(H, S, equal):
    # every False case used to report equality: the spectra and the null
    # power were compared within an absolute 1e-9 below scale 1, and the
    # row space kept gains the bound treats as zero
    power, bound, equal_at = check_power_lower_bound(H, S)
    assert equal_at is equal
    assert (abs(power - bound) <= EQ_TOL * power) is equal


def _on(B, x):
    return (B * x) @ B.conj().T


@pytest.mark.parametrize("which", ["uplink", "power", "downlink"])
def test_equality_reports_do_not_depend_on_scale(which):
    # scaling every covariance of a bound (and sigma2 with them) leaves
    # its equality report as it is; even cases put the second matrix on
    # the bound's equality basis, odd cases on an unrelated one
    rng = np.random.default_rng(61)
    seen = set()
    for k in range(200):
        n = 1 + k % 4
        U, V = random_unitary(n, 2 * k), random_unitary(n, 2 * k + 1)
        g = np.sort(10.0 ** rng.uniform(-2, 2, n))[::-1]
        x = np.sort(10.0 ** rng.uniform(-2, 2, n))[::-1]
        aligned = V if which == "power" else U
        B = aligned if k % 2 == 0 else random_unitary(n, 1_000_000 + k)

        def equal_at(a):
            if which == "uplink":
                return check_uplink_rate_bound(a * _on(U, g), a * _on(B, x[::-1]), a)[2]
            if which == "power":
                return check_power_lower_bound((U * g) @ V.conj().T, a * _on(B, x))[2]
            return check_downlink_bounds(U * g, a * _on(B, x), "signal", a)[2]

        equal = equal_at(1.0)
        assert equal_at(1e-12) is equal is equal_at(1e12), k
        seen.add(equal)
    assert seen == {True, False}


def test_downlink_bounds_hold_randomized():
    rng = np.random.default_rng(23)
    for seed in range(300):
        n = 2 + seed % 3
        H = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        M = _rand_psd(n, seed + 9000, lift=1e-6)
        lhs_s, rhs_s, _ = check_downlink_bounds(H, M, "signal", 1.0)
        assert rhs_s - lhs_s >= -EQ_TOL
        lhs_q, rhs_q, _ = check_downlink_bounds(H, M, "quantizer", 1.0)
        assert lhs_q - rhs_q >= -EQ_TOL


def test_downlink_bounds_equality_on_channel_basis():
    rng = np.random.default_rng(31)
    for seed in range(20):
        n = 3
        U = random_unitary(n, seed + 50)
        g = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
        H = U @ np.diag(g)  # left singular basis U, gains g
        lam = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
        # signal bound: eigenvalues descending along the gain order
        M_sig = U @ np.diag(lam) @ U.conj().T
        lhs, rhs, equal = check_downlink_bounds(H, M_sig, "signal", 1.0)
        assert abs(lhs - rhs) <= EQ_TOL
        assert equal
        # quantizer bound: ascending along the gain order
        M_q = U @ np.diag(lam[::-1]) @ U.conj().T
        lhs, rhs, equal = check_downlink_bounds(H, M_q, "quantizer", 1.0)
        assert abs(lhs - rhs) <= EQ_TOL
        assert equal


def test_downlink_bounds_validate_inputs():
    with pytest.raises(InvalidInputError):
        check_downlink_bounds(np.eye(2), np.eye(2), "other", 1.0)
    with pytest.raises(InvalidInputError):
        check_downlink_bounds(np.eye(2), np.eye(2), "signal", 0.0)
    with pytest.raises(InvalidInputError):
        check_downlink_bounds(np.eye(2), np.diag([1.0, -1.0]), "signal", 1.0)


def test_log_majorizes_basics():
    assert log_majorizes([4.0, 1.0], [2.0, 2.0])
    assert not log_majorizes([2.0, 2.0], [4.0, 1.0])
    assert log_majorizes([3.0, 1.0], [3.0, 1.0])
    # unequal products: prefix domination may hold but the total must match
    assert not log_majorizes([4.0, 2.0], [2.0, 2.0])


def test_log_majorizes_handles_zeros():
    assert log_majorizes([2.0, 0.0], [2.0, 0.0])
    assert not log_majorizes([2.0, 0.0], [1.0, 1.0])
    # both total products zero: equal, whatever the prefixes
    assert log_majorizes([3.0, 1.0, 0.0], [2.0, 0.0, 0.0])
    # only one total product zero: unequal either way round
    assert not log_majorizes([3.0, 1.0, 1.0], [2.0, 1.0, 0.0])
    assert not log_majorizes([3.0, 1.0, 0.0], [2.0, 1.0, 1.0])


def test_product_spectrum_diagonal_case():
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.diag([0.5, 2.0]).astype(complex)
    # eigenvalues of AB = diag(2, 2)
    assert np.allclose(product_spectrum(A, B), [2.0, 2.0], atol=1e-12)


def test_product_spectrum_log_majorization_sandwich():
    # gamma(A)down * gamma(B)down log-majorizes gamma(AB), which
    # log-majorizes gamma(A)down * gamma(B)up
    rng = np.random.default_rng(41)
    for seed in range(100):
        n = 3
        A = _rand_psd(n, seed + 100, lift=1e-6)
        B = _rand_psd(n, seed + 200, lift=1e-6)
        a = np.sort(np.linalg.eigvalsh(A))[::-1]
        b = np.sort(np.linalg.eigvalsh(B))[::-1]
        prod = product_spectrum(A, B)
        assert log_majorizes(a * b, prod)
        assert log_majorizes(prod, a * b[::-1])


def test_schur_geo_convexity_probe():
    # symmetric geometric-mean point never exceeds the spread point
    assert schur_geo_convexity_probe([4.0, 1.0], [2.0, 2.0], 1.0)
    with pytest.raises(InvalidInputError):
        schur_geo_convexity_probe([2.0, 2.0], [4.0, 1.0], 1.0)
