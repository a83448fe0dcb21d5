"""Problem data and design containers.

A :class:`ChannelInstance` is one link: channel matrix H (n_r x n_u),
transmit power budget P, fronthaul budget C in bits, and noise power
sigma2.  Designs hold the covariance pair being evaluated; the optional
``active_basis`` restricts the fronthaul determinant ratio to the subspace
the fronthaul actually carries (dimensions that are never compressed, or
never described, cost zero bits and are excluded from the ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .kernels import TOL, as_complex_matrix, hermitian_part, is_psd


@dataclass(frozen=True)
class ChannelInstance:
    H: np.ndarray
    P: float
    C: float
    sigma2: float

    def __post_init__(self):
        H = as_complex_matrix(self.H, "H")
        object.__setattr__(self, "H", H)
        for name in ("P", "C", "sigma2"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise InvalidInputError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, float(v))
        if self.P < 0:
            raise InvalidInputError(f"P must be >= 0, got {self.P}")
        if self.C < 0:
            raise InvalidInputError(f"C must be >= 0, got {self.C}")
        if self.sigma2 <= 0:
            raise InvalidInputError(f"sigma2 must be > 0, got {self.sigma2}")

    @property
    def n_r(self) -> int:
        return self.H.shape[0]

    @property
    def n_u(self) -> int:
        return self.H.shape[1]


def _validate_covariance(M: np.ndarray, n: int, name: str) -> np.ndarray:
    A = as_complex_matrix(M, name)
    if A.shape != (n, n):
        raise InvalidInputError(f"{name} must be {n}x{n}, got {A.shape}")
    if not is_psd(A, TOL.psd):
        raise InvalidInputError(f"{name} must be Hermitian positive semidefinite")
    return A


def _validate_active_basis(W, n: int):
    if W is None:
        return None
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != n or W.shape[1] > n:
        raise InvalidInputError(f"active_basis must be {n}xk with k <= {n}")
    k = W.shape[1]
    if k and np.linalg.norm(W.conj().T @ W - np.eye(k)) > TOL.unitary * n:
        raise InvalidInputError("active_basis columns must be orthonormal")
    return W


@dataclass(frozen=True)
class UplinkDesign:
    """Uplink pair: transmit covariance S (n_u x n_u) and quantization
    covariance Q (n_r x n_r).  active_basis spans the forwarded subspace;
    None means every receive dimension is compressed and forwarded."""

    S: np.ndarray
    Q: np.ndarray
    active_basis: np.ndarray | None = None

    def __post_init__(self):
        S = as_complex_matrix(self.S, "S")
        Q = as_complex_matrix(self.Q, "Q")
        object.__setattr__(self, "S", _validate_covariance(S, S.shape[0], "S"))
        object.__setattr__(self, "Q", _validate_covariance(Q, Q.shape[0], "Q"))
        object.__setattr__(
            self, "active_basis", _validate_active_basis(self.active_basis, Q.shape[0])
        )


@dataclass(frozen=True)
class DownlinkDesign:
    """Downlink pair, both n_r x n_r: S is the covariance of the precoded
    signal before compression noise is added, Q the compression covariance.
    The transmitted covariance is S + Q.  active_basis spans the described
    subspace; None means every dimension is described over the fronthaul."""

    S: np.ndarray
    Q: np.ndarray
    active_basis: np.ndarray | None = None

    def __post_init__(self):
        S = as_complex_matrix(self.S, "S")
        Q = as_complex_matrix(self.Q, "Q")
        if S.shape != Q.shape:
            raise InvalidInputError(f"S and Q must match, got {S.shape} vs {Q.shape}")
        object.__setattr__(self, "S", _validate_covariance(S, S.shape[0], "S"))
        object.__setattr__(self, "Q", _validate_covariance(Q, Q.shape[0], "Q"))
        object.__setattr__(
            self, "active_basis", _validate_active_basis(self.active_basis, Q.shape[0])
        )


@dataclass
class RateReport:
    """Result of evaluating a design against an instance's budgets."""

    rate: float
    fronthaul_used: float
    power_used: float
    slack_power: float
    slack_fronthaul: float
    feasible: bool
    diagnostics: dict = field(default_factory=dict)


def restrict(M: np.ndarray, W: np.ndarray | None) -> np.ndarray:
    """W^H M W, or M itself when no restriction applies."""
    if W is None:
        return M
    return W.conj().T @ M @ W


def psd_part(M: np.ndarray) -> np.ndarray:
    """Hermitian part with negative eigenvalues clipped to zero, per matrix
    for a stack (..., n, n)."""
    A = hermitian_part(np.asarray(M, dtype=complex))
    w, V = np.linalg.eigh(A)
    w = np.clip(w, 0.0, None)
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)
