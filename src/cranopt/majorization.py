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

Products of two PSD matrices have real nonnegative spectra; they are
computed by square-root conjugation, never by multiplying out the
non-Hermitian product.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistencyError, InvalidInputError
from .kernels import (
    as_complex_matrix,
    check_nonneg,
    check_nonneg_number,
    check_positive,
    hermitian_part,
    is_psd,
    svd,
)

EQUALITY_TOL = 1e-9


def _psd_matrix(M, name: str) -> np.ndarray:
    A = as_complex_matrix(M, name)
    if not is_psd(A):
        raise InvalidInputError(f"{name} must be Hermitian PSD")
    return A


def _sqrt_psd(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(hermitian_part(A))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def product_spectrum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of A @ B for Hermitian PSD A, B, via the
    similar Hermitian matrix sqrt(A) B sqrt(A)."""
    R = _sqrt_psd(A)
    w = np.linalg.eigvalsh(hermitian_part(R @ B @ R))
    return np.clip(w, 0.0, None)[::-1]


def log_majorizes(a, b, tol: float = 1e-9) -> bool:
    """True iff a log-majorizes b: every prefix product of a (descending)
    dominates b's within relative tol, and the total products agree.

    Both spectra are sorted descending first.  Zeros are handled as
    log = -inf; two -inf prefixes compare equal.
    """
    av = np.sort(np.atleast_1d(check_nonneg(a, "a")))[::-1]
    bv = np.sort(np.atleast_1d(check_nonneg(b, "b")))[::-1]
    if av.size != bv.size:
        raise InvalidInputError(f"spectrum lengths differ: {av.size} vs {bv.size}")
    tol = check_nonneg_number(tol, "tol")
    if not tol < 1:
        raise InvalidInputError(f"tol must be in [0, 1), got {tol}")
    with np.errstate(divide="ignore"):
        la = np.cumsum(np.log(av))
        lb = np.cumsum(np.log(bv))
    slack = -np.log1p(-tol)
    # prefix domination for k < n
    for k in range(av.size - 1):
        if np.isneginf(lb[k]):
            continue
        if la[k] < lb[k] - slack:
            return False
    # equal totals
    ta, tb = la[-1], lb[-1]
    if np.isneginf(ta) and np.isneginf(tb):
        return True
    if np.isneginf(ta) or np.isneginf(tb):
        return False
    return bool(abs(ta - tb) <= slack)


def _spectra_match(x: np.ndarray, y: np.ndarray, scale: float) -> bool:
    return bool(np.all(np.abs(x - y) <= EQUALITY_TOL * max(1.0, scale)))


def check_uplink_rate_bound(Phi, Q, sigma2: float):
    """Evaluate the uplink rate bound for signal covariance Phi = H S H^H,
    quantization covariance Q and noise floor sigma2.

    Returns (lhs, rhs, equal_at) in bits with
        lhs = log2|I + Phi (Q + sigma2 I)^-1|,
        rhs = sum log2(1 + l_Phi,d(desc) / (l_Q,d(asc) + sigma2)).
    equal_at reports whether the product spectrum equals the anti-aligned
    paired products, the basis-agnostic form of "Q's eigenbasis matches
    Phi's with ascending eigenvalues on descending directions".
    """
    check_positive(sigma2, "sigma2")
    Phi = _psd_matrix(Phi, "signal")
    Q = _psd_matrix(Q, "noise")
    if Phi.shape != Q.shape:
        raise InvalidInputError(f"shape mismatch: {Phi.shape} vs {Q.shape}")
    n = Phi.shape[0]
    base_inv = np.linalg.inv(hermitian_part(Q) + sigma2 * np.eye(n))
    prod = product_spectrum(Phi, hermitian_part(base_inv))
    lhs = float(np.sum(np.log2(1.0 + prod)))
    l_phi = np.sort(np.linalg.eigvalsh(hermitian_part(Phi)))[::-1]
    l_q = np.sort(np.linalg.eigvalsh(hermitian_part(Q)))
    paired = l_phi / (l_q + sigma2)
    rhs = float(np.sum(np.log2(1.0 + paired)))
    equal_at = _spectra_match(prod, np.sort(paired)[::-1], float(paired.max(initial=0.0)))
    return lhs, rhs, equal_at


def check_power_lower_bound(H, S):
    """Evaluate trace(S) against its spectral floor sum_d l_Phi,d / h_d^2,
    Phi = H S H^H with descending eigenvalues over descending gains.

    Zero-gain directions must carry no Phi energy (they cannot, up to
    rounding; a violation raises InconsistencyError) and contribute zero.
    Returns (trace, bound, equal_at); equal_at holds when S has no
    component outside the channel's row space and Phi's eigenvalues sort
    the same way as the gains (the diagonal aligned form).
    """
    Hm = as_complex_matrix(H, "H")
    Sm = _psd_matrix(S, "S")
    if Sm.shape != (Hm.shape[1], Hm.shape[1]):
        raise InvalidInputError(f"S must be {Hm.shape[1]}x{Hm.shape[1]}")
    spec = svd(Hm)
    n_r = Hm.shape[0]
    g2 = np.zeros(n_r)
    g2[: spec.rank] = spec.gains_squared
    Phi = Hm @ Sm @ Hm.conj().T
    l_phi = np.clip(np.sort(np.linalg.eigvalsh(hermitian_part(Phi)))[::-1], 0.0, None)
    scale = max(1.0, float(l_phi[0]))
    zero = g2 <= 1e-14 * max(1.0, g2.max(initial=0.0))
    if np.any(l_phi[zero] > 1e-9 * scale):
        raise InconsistencyError("received energy on a zero-gain direction")
    bound = float(np.sum(l_phi[~zero] / g2[~zero]))
    trace = float(np.trace(Sm).real)

    # alignment: no power outside the row space, and the product spectrum
    # of Phi with H H^H matches the descending pairing; zero singular
    # directions belong to the null space even though svd reports them
    pos = spec.singular_values > 1e-12 * max(1.0, float(spec.singular_values.max(initial=0.0)))
    V = spec.right_basis[:, pos]
    proj = V @ V.conj().T
    null_power = float(np.trace(Sm - proj @ Sm @ proj).real)
    G = Hm @ Hm.conj().T
    prod = product_spectrum(Phi, G)
    paired = np.sort(l_phi * g2)[::-1]
    equal_at = (
        null_power <= EQUALITY_TOL * max(1.0, trace)
        and _spectra_match(prod, paired, float(paired.max(initial=0.0)))
    )
    return trace, bound, equal_at


def check_downlink_bounds(H, M, which: str, sigma2: float):
    """Evaluate one of the transmit-side bounds against G = H H^H.

    which='signal':    lhs = log2|M G + sigma2 I| <= rhs = sum log2(sigma2 + l_M(desc) g(desc))
    which='quantizer': lhs = log2|M G + sigma2 I| >= rhs = sum log2(sigma2 + l_M(asc)  g(desc))

    M is the signal covariance in the first case and the quantization
    covariance in the second.  Returns (lhs, rhs, equal_at); equal_at
    reports the basis match under the stated pairing via the product
    spectrum.
    """
    if which not in ("signal", "quantizer"):
        raise InvalidInputError("which must be 'signal' or 'quantizer'")
    check_positive(sigma2, "sigma2")
    Hm = as_complex_matrix(H, "H")
    Mm = _psd_matrix(M, "M")
    G = hermitian_part(Hm @ Hm.conj().T)
    if Mm.shape != G.shape:
        raise InvalidInputError(f"shape mismatch: {Mm.shape} vs {G.shape}")
    g = np.clip(np.sort(np.linalg.eigvalsh(G))[::-1], 0.0, None)
    l_m = np.clip(np.linalg.eigvalsh(hermitian_part(Mm)), 0.0, None)  # ascending
    prod = product_spectrum(Mm, G)
    lhs = float(np.sum(np.log2(sigma2 + prod)))
    if which == "signal":
        paired = l_m[::-1] * g  # descending over descending
    else:
        paired = l_m * g  # ascending over descending
    rhs = float(np.sum(np.log2(sigma2 + paired)))
    equal_at = _spectra_match(
        prod, np.sort(paired)[::-1], float(paired.max(initial=0.0))
    )
    return lhs, rhs, equal_at


def schur_geo_convexity_probe(x, y, sigma2: float) -> bool:
    """For x log-majorizing y, check sum log2(sigma2 + x) >= sum log2(sigma2 + y) - 1e-12.

    Raises InvalidInputError when the precondition fails: the comparison is
    only meaningful on a log-majorized pair.
    """
    check_positive(sigma2, "sigma2")
    if not log_majorizes(x, y):
        raise InvalidInputError("x does not log-majorize y")
    fx = float(np.sum(np.log2(sigma2 + np.asarray(x, dtype=float))))
    fy = float(np.sum(np.log2(sigma2 + np.asarray(y, dtype=float))))
    return bool(fx >= fy - 1e-12)
