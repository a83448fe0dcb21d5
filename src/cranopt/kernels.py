"""Dense complex linear-algebra kernels shared by the rest of the package.

Thin, validated wrappers around numpy's LAPACK bindings plus the seeded
random generators used everywhere else.  Randomness follows one repo-wide
contract: ``numpy.random.default_rng(seed)`` (PCG64) with 64-bit integer
seeds, so any result in this package is reproducible from its seed.

The argument checks every public entry point shares live here too:
:func:`as_complex_matrix` for matrices, :func:`check_count` for seeds,
dimensions and counts, :func:`check_nonneg` for powers, shares, gains and
spectra, :func:`check_nonneg_number` for budgets, and
:func:`check_positive` for noise powers and tolerances.  Each raises
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

    psd            relative Frobenius defect allowed in M - M^H,
                   ||M - M^H|| <= psd ||M||, and the relative eigenvalue
                   floor: min eig >= -psd * max(max eig, 0); both hold
                   alike at every scale of M
    reconstruction relative SVD reconstruction error ||U diag(s) V^H - H|| / ||H||
    unitary        allowed defect in ||W^H W - I||
    feasibility    slack below which a constraint counts as violated
    certification  rate margin below which a certification verdict fails
    """

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
    # booleans, strings, bytes, dates and objects are not read as numbers
    if A.dtype.kind not in "iufc":
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
    if a.dtype.kind in "iuf":
        a = a.astype(float, copy=False)
        if ((a >= 0) & (a < np.inf)).all():
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
    if a.ndim == 0 and a.dtype.kind in "iuf" and 0 < a < np.inf:
        return float(a)
    raise InvalidInputError(f"{name} must be a finite number > 0{_echo(v)}")


def _echo(x) -> str:
    # a rejected scalar is quoted in the message, an array is not
    return f", got {x!r}" if np.ndim(x) == 0 else ""


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2, per matrix for a stack (..., n, n)."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def hermitian_defect(M: np.ndarray):
    """||M - M^H|| / ||M|| (Frobenius), per matrix for a stack (..., n, n);
    0 for a zero matrix."""
    axes = (-2, -1)
    defect = np.linalg.norm(M - M.conj().swapaxes(-1, -2), axis=axes)
    return defect / np.where(defect > 0, np.linalg.norm(M, axis=axes), 1.0)


def is_psd(M) -> bool:
    """True iff M is Hermitian within TOL.psd and its spectrum clears
    -TOL.psd.

    Both tests are relative to M's own scale, so that is_psd(a M) is
    is_psd(M) for every a > 0: ||M - M^H|| <= TOL.psd ||M|| (Frobenius),
    and min eig >= -TOL.psd * max(max eig, 0), so a matrix with no positive
    eigenvalue passes only if it has no negative one either.  Non-square
    input is rejected rather than reported as "not PSD".
    """
    A = as_complex_matrix(M, "M")
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"is_psd expects a square matrix, got {A.shape}")
    return bool(is_psd_stacked(A))


def is_psd_stacked(A: np.ndarray, w: np.ndarray | None = None):
    """:func:`is_psd` for each matrix of a finite stack (..., n, n), without
    input validation; w is the ascending spectrum of A's Hermitian part."""
    tol = TOL.psd
    if w is None:
        w = np.linalg.eigvalsh(hermitian_part(A))
    return (hermitian_defect(A) <= tol) & (w[..., 0] >= -tol * np.maximum(w[..., -1], 0.0))


def logdet_ratio_stacked(M: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|B + M| - log|B| (natural log) for each pair of (T, n, n) stacks,
    without input validation: the ratios in nats, and a mask of the lanes
    where B and B + M are positive definite (both Cholesky factors exist).
    Other lanes hold no ratio.  Empty matrices (n = 0) give 0.

    Each ratio is 2 sum(log diag chol(B + M)) - 2 sum(log diag chol(B)) on
    the Hermitian parts: two Cholesky factorizations and no eigensolver.
    Each log-determinant is exact to about eps times its matrix's condition
    number, whatever the overall scale.  Against a 50-digit reference on 300
    seeded pairs (n = 1..4, eigenvalue spreads up to 1e9, scales 1e-12 to
    1e6) every error stayed within max(1e-9, n eps (cond B + cond(B + M)))
    nats, and the worst was 9.4e-10 nats."""
    L_base, ok = _cholesky_lanes(hermitian_part(B))
    L_sum, ok_sum = _cholesky_lanes(hermitian_part(B + M))
    return 2.0 * (_log_diagonal(L_sum) - _log_diagonal(L_base)), ok & ok_sum


def logdet(M: np.ndarray, name: str) -> float:
    """log|M| for Hermitian M > 0 from one Cholesky factorization, which
    reads M's lower triangle; otherwise DomainError, which calls M by
    ``name``.  Empty M gives 0."""
    try:
        return 2.0 * float(_log_diagonal(np.linalg.cholesky(M)))
    except np.linalg.LinAlgError:
        raise DomainError(f"{name} is not positive definite") from None


def logdet_whitened(A: np.ndarray, lam: np.ndarray, name: str) -> float:
    """log|I + A diag(lam) A^H| for lam >= 0: a log-determinant ratio whose
    base is whitened to I, from one Cholesky factorization; ``name`` names
    the whitened matrix for :func:`logdet`."""
    M = (A * lam) @ A.conj().T
    M.flat[:: len(M) + 1] += 1.0
    return logdet(M, name)


def _log_diagonal(L: np.ndarray) -> np.ndarray:
    return np.log(np.diagonal(L, axis1=-2, axis2=-1).real).sum(axis=-1)


def _cholesky_lanes(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (T, n, n) Hermitian stack, and a mask of
    the lanes that are positive definite.  A failed lane's factor is the
    identity, so that the stacked log-determinants on the factors still
    run; it holds nothing else."""
    try:
        return np.linalg.cholesky(A), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    if len(A) == 1:
        return np.eye(A.shape[-1], dtype=A.dtype)[None], np.zeros(1, dtype=bool)
    # the stacked factorization fails as a whole when one lane does: factor
    # each half of the stack, so that f failed lanes of T cost about
    # 2 f log2(T) stacked factorizations rather than T single ones
    h = len(A) // 2
    (L0, ok0), (L1, ok1) = _cholesky_lanes(A[:h]), _cholesky_lanes(A[h:])
    return np.concatenate((L0, L1)), np.concatenate((ok0, ok1))


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
    if resid > TOL.reconstruction * float(np.linalg.norm(A)):
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
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phases fixed).

    No library code reads it: it is public for callers building test
    channels and designs (the demos do), and the perturbation search draws
    its own unitaries near the identity."""
    check_count(n, "n", 1)
    check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Qm, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    ph = d / np.abs(d)
    return Qm * ph
