"""Dense complex linear-algebra kernels shared by the rest of the package.

Thin, validated wrappers around numpy's LAPACK bindings plus the seeded
random generators used everywhere else.  Randomness follows one repo-wide
contract: ``numpy.random.default_rng(seed)`` (PCG64) with 64-bit integer
seeds, so any result in this package is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistencyError, InvalidInputError

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    hermitian      relative Frobenius defect allowed in M - M^H
    psd            eigenvalue floor: min eig >= -psd * max(1, max eig)
    reconstruction relative SVD reconstruction error ||U L V^H - H|| / ||H||
    unitary        allowed defect in ||W^H W - I||
    feasibility    slack below which a constraint counts as violated
    certification  rate margin below which a certification verdict fails
    """

    hermitian: float = 1e-10
    psd: float = 1e-9
    reconstruction: float = 1e-8
    unitary: float = 1e-9
    feasibility: float = 1e-9
    certification: float = 1e-6


TOL = Tolerances()


def as_complex_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return M as a 2-D complex ndarray."""
    A = np.asarray(M)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size == 0:
        raise InvalidInputError(f"{name} must be nonempty")
    A = A.astype(complex, copy=False)
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2, per matrix for a stack (..., n, n)."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def hermitian_defect(M: np.ndarray):
    """Relative Frobenius norm of the anti-Hermitian part, per matrix for a
    stack (..., n, n)."""
    axes = (-2, -1)
    scale = np.maximum(1.0, np.linalg.norm(M, axis=axes))
    return np.linalg.norm(M - M.conj().swapaxes(-1, -2), axis=axes) / scale


def is_psd(M, tol: float = TOL.psd) -> bool:
    """True iff M is Hermitian within tol and its spectrum clears -tol.

    The eigenvalue floor is relative: min eig >= -tol * max(1, max eig).
    Non-square input is rejected rather than reported as "not PSD".
    """
    A = as_complex_matrix(M, "M")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"is_psd expects a square matrix, got {A.shape}")
    return bool(is_psd_stacked(A, tol))


def is_psd_stacked(A: np.ndarray, tol: float = TOL.psd):
    """:func:`is_psd` for each matrix of a finite stack (..., n, n), without
    input validation."""
    w = np.linalg.eigvalsh(hermitian_part(A))
    return (hermitian_defect(A) <= tol) & (w[..., 0] >= -tol * np.maximum(1.0, w[..., -1]))


def logdet_hpd(M) -> float:
    """Natural-log determinant of a Hermitian positive definite matrix.

    Raises DomainError unless every eigenvalue exceeds 1e-12; callers that
    need determinant *ratios* of nearly singular matrices should whiten and
    use :func:`logdet_ratio` instead, which is scale invariant.
    """
    A = as_complex_matrix(M, "M")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"logdet_hpd expects a square matrix, got {A.shape}")
    if hermitian_defect(A) > TOL.hermitian:
        raise InvalidInputError("logdet_hpd expects a Hermitian matrix")
    w = np.linalg.eigvalsh(hermitian_part(A))
    if w[0] <= 1e-12:
        raise DomainError(f"matrix not positive definite: min eigenvalue {w[0]:.3e}")
    return float(np.sum(np.log(w)))


def logdet_ratio(M, B) -> float:
    """log|B + M| - log|B| (natural log) for Hermitian B > 0 and B + M > 0.

    Computed as sum(log1p(eig(L^-1 M L^-H))) with L = chol(B), which stays
    exact when B's eigenvalues are many orders of magnitude below 1: only
    the spectrum of M *relative* to B enters.  Empty matrices give 0.
    """
    M = np.asarray(M, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if M.shape != B.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"logdet_ratio shape mismatch: {M.shape} vs {B.shape}")
    n = M.shape[0]
    if n == 0:
        return 0.0
    nats, ok = logdet_ratio_stacked(M[None], B[None])
    if not ok[0]:
        raise DomainError("B or B + M is not positive definite")
    return float(nats[0])


def logdet_ratio_stacked(M: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`logdet_ratio` for each pair of (T, n, n) stacks, without input
    validation: the ratios in nats, and a mask of the lanes where B and
    B + M are positive definite.  Other lanes hold no ratio."""
    w, ok = whitened_eigvalsh(M, B)
    ok &= w[:, 0] > -1.0
    return np.log1p(np.where(ok[:, None], w, 0.0)).sum(axis=-1), ok


def whitened_eigvalsh(M: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of L^-1 M L^-H with L = chol(B), i.e. the
    spectrum of M relative to B, for each pair of (T, n, n) stacks; and a
    mask of the lanes whose B is positive definite.  Other lanes hold no
    spectrum."""
    B = hermitian_part(B)
    ok = np.ones(len(B), dtype=bool)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        # the stacked factorization fails as a whole when one lane does:
        # factor lane by lane to find which, and whiten the failed lanes by
        # I so that the stacked solves below still run
        L = np.empty_like(B)
        for k, b in enumerate(B):
            try:
                L[k] = np.linalg.cholesky(b)
            except np.linalg.LinAlgError:
                ok[k] = False
                L[k] = np.eye(b.shape[0])
    # A = L^-1 M L^-H via two triangular solves
    X = np.linalg.solve(L, hermitian_part(M))
    A = np.linalg.solve(L, X.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(hermitian_part(A)), ok


@dataclass(frozen=True)
class ChannelSpectrum:
    """SVD of a channel matrix H = U diag(singular_values) V^H.

    singular_values are descending with length rank = min(n_r, n_u); the
    bases are full square unitaries (n_r x n_r and n_u x n_u).
    """

    singular_values: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int

    @property
    def n_r(self) -> int:
        return self.left_basis.shape[0]

    @property
    def n_u(self) -> int:
        return self.right_basis.shape[0]

    @property
    def gains_squared(self) -> np.ndarray:
        return self.singular_values**2


def svd(H) -> ChannelSpectrum:
    """Full SVD of a channel matrix with explicit post-condition checks."""
    A = as_complex_matrix(H, "H")
    U, s, Vh = np.linalg.svd(A, full_matrices=True)
    n_r, n_u = A.shape
    D = min(n_r, n_u)
    Lam = np.zeros((n_r, n_u))
    Lam[:D, :D] = np.diag(s)
    resid = np.linalg.norm(U @ Lam @ Vh - A)
    if resid > TOL.reconstruction * max(1.0, float(np.linalg.norm(A))):
        raise InconsistencyError(f"SVD reconstruction residual {resid:.3e}")
    return ChannelSpectrum(
        singular_values=s,
        left_basis=U,
        right_basis=Vh.conj().T,
        rank=D,
    )


def random_channel(n_r: int, n_u: int, seed: int) -> np.ndarray:
    """Unit-variance complex Gaussian channel, deterministic in the seed."""
    if n_r < 1 or n_u < 1:
        raise InvalidInputError(f"dimensions must be positive, got ({n_r}, {n_u})")
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_r, n_u)) + 1j * rng.standard_normal((n_r, n_u))
    ) / np.sqrt(2.0)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phases fixed)."""
    if n < 1:
        raise InvalidInputError(f"dimension must be positive, got {n}")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Qm, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    ph = d / np.abs(d)
    return Qm * ph
