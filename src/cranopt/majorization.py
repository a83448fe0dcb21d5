"""Spectral inequalities behind the diagonalization argument.

The optimality of singular-basis designs rests on three matrix bounds plus
Schur-geometric convexity of x -> sum log2(sigma2 + x_d):

  * uplink rate bound:    log2|I + Phi (Q + s I)^-1|  <=  sum log2(1 + l_Phi,d / (l_Q,d + s))
                          with Phi's eigenvalues descending and Q's ASCENDING;
                          equality iff Q shares Phi's eigenbasis with that
                          anti-aligned pairing (strong directions are
                          quantized most finely),
  * power bound:          trace(S) >= sum_d l_Phi,d / h_d^2  for Phi = H S H^H
                          (descending over descending; zero-gain terms vanish),
  * transmit signal bound:    log2|S G + s I| <= sum log2(s + l_S,d * g_d)   (desc/desc)
  * transmit quantizer bound: log2|Q G + s I| >= sum log2(s + l_Q,d * g_d)   (asc/desc)
                          for G = H H^H; equality iff the eigenbasis matches
                          with the stated pairing.

Products of two PSD matrices have real nonnegative spectra, and no bound
multiplies out the non-Hermitian product, forms H H^H, inverts a matrix or
takes a matrix square root.  Each spectrum is that of one small Hermitian
matrix: the power and transmit-side bounds read the channel in its singular
coordinates, from one SVD (the spectrum of H S H^H is that of diag(h) V^H S
V diag(h)); the uplink rate bound whitens Phi by the Cholesky factor of
Q + sigma2 I.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidInputError
from .kernels import (
    as_complex_matrix,
    check_positive,
    hermitian_part,
    is_psd,
    svd,
    whitened_eigvalsh,
)

EQUALITY_TOL = 1e-9


def _psd_matrix(M, name: str) -> np.ndarray:
    """M checked as a Hermitian PSD matrix, returned as its exact Hermitian part."""
    A = as_complex_matrix(M, name)
    if not is_psd(A):
        raise InvalidInputError(f"{name} must be Hermitian PSD")
    return hermitian_part(A)


def _conjugate_spectrum(K: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of diag(d) K diag(d) for Hermitian PSD K,
    rounding below zero clipped."""
    w = np.linalg.eigvalsh(hermitian_part(d[:, None] * K * d))
    return np.clip(w, 0.0, None)[::-1]


def _spectra_match(x: np.ndarray, y: np.ndarray, scale: float) -> bool:
    return bool(np.all(np.abs(x - y) <= EQUALITY_TOL * scale))


def check_uplink_rate_bound(Phi, Q, sigma2: float):
    """Evaluate the uplink rate bound for signal covariance Phi = H S H^H,
    quantization covariance Q and noise floor sigma2.

    Returns (lhs, rhs, equal_at) in bits with
        lhs = log2|I + Phi (Q + sigma2 I)^-1|,
        rhs = sum log2(1 + l_Phi,d(desc) / (l_Q,d(asc) + sigma2)).
    The spectrum of Phi (Q + sigma2 I)^-1 is that of Phi whitened by the
    Cholesky factor of Q + sigma2 I; a Q that passes the PSD check but
    leaves Q + sigma2 I without that factor raises DomainError.
    equal_at reports whether the product spectrum equals the anti-aligned
    paired products, the basis-agnostic form of "Q's eigenbasis matches
    Phi's with ascending eigenvalues on descending directions".
    """
    check_positive(sigma2, "sigma2")
    Phi = _psd_matrix(Phi, "signal")
    Q = _psd_matrix(Q, "noise")
    if Phi.shape != Q.shape:
        raise InvalidInputError(f"shape mismatch: {Phi.shape} vs {Q.shape}")
    prod, ok = whitened_eigvalsh(Phi[None], (Q + sigma2 * np.eye(len(Q)))[None])
    if not ok[0]:
        raise DomainError("Q + sigma2 I is not positive definite")
    prod = np.clip(prod[0], 0.0, None)[::-1]
    lhs = float(np.sum(np.log2(1.0 + prod)))
    paired = np.linalg.eigvalsh(Phi)[::-1] / (np.linalg.eigvalsh(Q) + sigma2)
    rhs = float(np.sum(np.log2(1.0 + paired)))
    equal_at = _spectra_match(prod, np.sort(paired)[::-1], float(paired.max(initial=0.0)))
    return lhs, rhs, equal_at


def check_power_lower_bound(H, S):
    """Evaluate trace(S) against its spectral floor sum_d l_Phi,d / h_d^2,
    Phi = H S H^H with descending eigenvalues over descending gains.

    Everything is read in the channel's singular coordinates, from one SVD
    H = U diag(h) V^H.  A gain counts when h_d > 1e-7 h_1; the others and
    the null space add no term.  With V the counted gains' right singular
    vectors and K = V^H S V, Phi's nonzero spectrum is that of h K h, and
    the product spectrum of Phi with H H^H that of h^2 K h^2.
    Returns (trace, bound, equal_at); equal_at holds when S has no
    component outside the counted row space (trace S - trace K) and Phi's
    eigenvalues sort the same way as the gains (the diagonal aligned form).
    """
    Hm = as_complex_matrix(H, "H")
    Sm = _psd_matrix(S, "S")
    if Sm.shape != (Hm.shape[1], Hm.shape[1]):
        raise InvalidInputError(f"S must be {Hm.shape[1]}x{Hm.shape[1]}")
    spec = svd(Hm)
    counted = spec.singular_values > 1e-7 * spec.singular_values[0]
    h = spec.singular_values[counted]
    V = spec.right_basis[:, counted]
    K = V.conj().T @ Sm @ V
    l_phi = _conjugate_spectrum(K, h)
    bound = float(np.sum(l_phi / h**2))
    trace = float(np.trace(Sm).real)
    null_power = trace - float(np.trace(K).real)
    paired = l_phi * h**2  # descending over descending
    equal_at = null_power <= EQUALITY_TOL * trace and _spectra_match(
        _conjugate_spectrum(K, h**2), paired, float(paired.max(initial=0.0))
    )
    return trace, bound, equal_at


def check_downlink_bounds(H, M, which: str, sigma2: float):
    """Evaluate one of the transmit-side bounds against G = H H^H.

    which='signal':    lhs = log2|M G + sigma2 I| <= rhs = sum log2(sigma2 + l_M(desc) g(desc))
    which='quantizer': lhs = log2|M G + sigma2 I| >= rhs = sum log2(sigma2 + l_M(asc)  g(desc))

    M is the signal covariance in the first case and the quantization
    covariance in the second.  From one SVD H = U diag(h) V^H, g = h^2
    and the spectrum of M G is that of h U^H M U h, each padded with exact
    zeros to n_r.  Returns (lhs, rhs, equal_at); equal_at reports the
    basis match under the stated pairing via the product spectrum.
    """
    if which not in ("signal", "quantizer"):
        raise InvalidInputError("which must be 'signal' or 'quantizer'")
    check_positive(sigma2, "sigma2")
    Hm = as_complex_matrix(H, "H")
    Mm = _psd_matrix(M, "M")
    n_r = Hm.shape[0]
    if Mm.shape != (n_r, n_r):
        raise InvalidInputError(f"shape mismatch: {Mm.shape} vs {(n_r, n_r)}")
    spec = svd(Hm)
    U = spec.left_basis
    g, prod = np.zeros(n_r), np.zeros(n_r)
    g[: spec.rank] = spec.gains_squared
    prod[: spec.rank] = _conjugate_spectrum(U.conj().T @ Mm @ U, spec.singular_values)
    lhs = float(np.sum(np.log2(sigma2 + prod)))
    l_m = np.clip(np.linalg.eigvalsh(Mm), 0.0, None)  # ascending
    # descending over descending gains for the signal, ascending for the quantizer
    paired = (l_m[::-1] if which == "signal" else l_m) * g
    rhs = float(np.sum(np.log2(sigma2 + paired)))
    equal_at = _spectra_match(prod, np.sort(paired)[::-1], float(paired.max(initial=0.0)))
    return lhs, rhs, equal_at

