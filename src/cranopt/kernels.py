"""Dense complex linear-algebra kernels shared by the rest of the package.

Thin, validated wrappers around numpy's LAPACK bindings plus the seeded
random generators used everywhere else.  Randomness follows one repo-wide
contract: ``numpy.random.default_rng(seed)`` (PCG64) with 64-bit integer
seeds, so any result in this package is reproducible from its seed.

The argument checks every public entry point shares live here too:
:func:`as_complex_matrix` for matrices, :func:`check_count` for seeds,
dimensions and counts, :func:`check_nonneg` for powers, shares, gains and
spectra, :func:`check_nonneg_number` for budgets, and
:func:`check_positive` for noise powers, caps and tolerances.  Each raises
InvalidInputError naming the argument.
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
    reconstruction relative SVD reconstruction error ||U diag(s) V^H - H|| / ||H||
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
    """Validate and return M as a 2-D complex ndarray of finite numbers."""
    A = np.asarray(M)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size == 0:
        raise InvalidInputError(f"{name} must be nonempty")
    # strings, bytes, dates and objects are not read as numbers
    if A.dtype.kind not in "biufc":
        raise InvalidInputError(f"{name} must hold numbers, got dtype {A.dtype}")
    A = A.astype(complex, copy=False)
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def check_count(n, name: str, least: int = 0) -> None:
    """Raise InvalidInputError unless n is an integer (Python or numpy, not
    a bool) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}{_echo(n)}")


def check_nonneg(x, name: str) -> np.ndarray:
    """x, a real scalar or array, as a float ndarray (0-d for a scalar);
    raises InvalidInputError unless every entry is finite and >= 0."""
    a = np.asarray(x)
    if a.dtype.kind in "biuf":
        a = a.astype(float, copy=False)
        if np.all((a >= 0) & (a < np.inf)):
            return a
    raise InvalidInputError(f"{name} must be finite and >= 0{_echo(x)}")


def check_nonneg_number(x, name: str) -> float:
    """x as a float; raises InvalidInputError unless it is one finite real
    number >= 0."""
    a = check_nonneg(x, name)
    if a.ndim:
        raise InvalidInputError(f"{name} must be a number, got shape {a.shape}")
    return float(a)


def check_positive(v, name: str) -> float:
    """v as a float; raises InvalidInputError unless it is one finite real
    number > 0."""
    a = np.asarray(v)
    if a.ndim == 0 and a.dtype.kind in "biuf" and 0 < a < np.inf:
        return float(a)
    raise InvalidInputError(f"{name} must be a finite number > 0{_echo(v)}")


def _echo(x) -> str:
    # a rejected scalar is quoted in the message, an array is not
    return f", got {x!r}" if np.ndim(x) == 0 else ""


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
    return bool(is_psd_stacked(A, check_nonneg_number(tol, "tol")))


def is_psd_stacked(A: np.ndarray, tol: float = TOL.psd):
    """:func:`is_psd` for each matrix of a finite stack (..., n, n), without
    input validation."""
    w = np.linalg.eigvalsh(hermitian_part(A))
    return (hermitian_defect(A) <= tol) & (w[..., 0] >= -tol * np.maximum(1.0, w[..., -1]))


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
    return one_lane(logdet_ratio_stacked(M[None], B[None]))


def one_lane(ratios: tuple[np.ndarray, np.ndarray]) -> float:
    """The ratio of a one-lane :func:`logdet_ratio_stacked` result, raising
    DomainError where it is undefined."""
    nats, ok = ratios
    if not ok[0]:
        raise DomainError("B or B + M is not positive definite")
    return float(nats[0])


def logdet_ratio_stacked(M: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`logdet_ratio` for each pair of (T, n, n) stacks, without input
    validation: the ratios in nats, and a mask of the lanes where B and
    B + M are positive definite.  Other lanes hold no ratio.  Empty
    matrices (n = 0) give 0."""
    if M.shape[-1] == 0:
        return np.zeros(len(M)), np.ones(len(M), dtype=bool)
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
    """Thin SVD of a channel matrix H = U diag(singular_values) V^H.

    singular_values are descending with length rank = min(n_r, n_u); the
    bases hold one orthonormal column per subchannel (U is n_r x rank, V is
    n_u x rank).
    """

    singular_values: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    @property
    def n_r(self) -> int:
        return self.left_basis.shape[0]

    @property
    def gains_squared(self) -> np.ndarray:
        return self.singular_values**2


def svd(H) -> ChannelSpectrum:
    """Thin SVD of a channel matrix with an explicit reconstruction check."""
    A = as_complex_matrix(H, "H")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    resid = np.linalg.norm((U * s) @ Vh - A)
    if resid > TOL.reconstruction * max(1.0, float(np.linalg.norm(A))):
        raise InconsistencyError(f"SVD reconstruction residual {resid:.3e}")
    return ChannelSpectrum(singular_values=s, left_basis=U, right_basis=Vh.conj().T)


def random_channel(n_r: int, n_u: int, seed: int) -> np.ndarray:
    """Unit-variance complex Gaussian channel, deterministic in the seed."""
    check_count(n_r, "n_r", 1)
    check_count(n_u, "n_u", 1)
    check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_r, n_u)) + 1j * rng.standard_normal((n_r, n_u))
    ) / np.sqrt(2.0)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phases fixed)."""
    check_count(n, "n", 1)
    check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Qm, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    ph = d / np.abs(d)
    return Qm * ph
