"""Problem data and design containers.

A :class:`ChannelInstance` is one link: channel matrix H (n_r x n_u),
transmit power budget P, fronthaul budget C in bits, and noise power
sigma2.  Designs hold the covariance pair being evaluated; the optional
``active_basis`` restricts the fronthaul determinant ratio to the subspace
the fronthaul actually carries (dimensions that are never compressed, or
never described, cost zero bits and are excluded from the ratio).

One validator, :func:`validate_covariance`, checks a covariance (finite,
Hermitian PSD) for both design types and for the stacks of candidate
designs the perturbation search evaluates, and one check,
:func:`check_design`, gives every functional its own direction's design in
the instance's dimensions.  A :class:`RateReport` is built
from a design's rate, fronthaul cost and power, and derives both budget
slacks and the feasibility verdict itself.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError
from .kernels import (
    TOL,
    ChannelSpectrum,
    as_complex_matrix,
    check_nonneg_number,
    check_positive,
    hermitian_part,
    is_psd_stacked,
    svd,
)

UPLINK = "uplink"
DOWNLINK = "downlink"
DIRECTIONS = (UPLINK, DOWNLINK)


def _read_only(A: np.ndarray, given) -> np.ndarray:
    """A, the validated form of the caller's array ``given``, marked
    read-only; copied first when it shares memory with ``given``, so that
    the caller's array stays writable and no later write to it reaches A."""
    if np.may_share_memory(A, given):
        A = A.copy()
    A.flags.writeable = False
    return A


def check_direction(direction) -> None:
    """Raise InvalidInputError unless direction is one of DIRECTIONS."""
    if direction not in DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


@dataclass(frozen=True)
class ChannelInstance:
    """One link: channel H (n_r x n_u), power budget P, fronthaul budget C
    in bits and noise power sigma2.

    H is kept read-only (:func:`_read_only`), so that the thin SVD
    :attr:`spectrum`, taken on first use, stays the channel's."""

    H: np.ndarray
    P: float
    C: float
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "H", _read_only(as_complex_matrix(self.H, "H"), self.H))
        for name in ("P", "C"):
            object.__setattr__(self, name, check_nonneg_number(getattr(self, name), name))
        object.__setattr__(self, "sigma2", check_positive(self.sigma2, "sigma2"))

    @property
    def n_r(self) -> int:
        return self.H.shape[0]

    @property
    def n_u(self) -> int:
        return self.H.shape[1]

    @cached_property
    def spectrum(self) -> ChannelSpectrum:
        """The thin SVD of H, taken once, on first use."""
        return svd(self.H)


def validate_covariance(A: np.ndarray, name: str) -> None:
    """Check that A, one complex matrix (n, n) or a stack (T, n, n) of
    them, is finite and Hermitian positive semidefinite, per matrix."""
    if A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if not np.all(is_psd_stacked(A)):
        raise InvalidInputError(f"{name} must be Hermitian positive semidefinite")


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
class _Design:
    """A covariance pair (S, Q) with an optional orthonormal active_basis
    (n x k) of the subspace the fronthaul carries.  All three are kept as
    read-only copies (:func:`_read_only`), as :class:`ChannelInstance`
    keeps H, so that a validated design cannot change."""

    S: np.ndarray
    Q: np.ndarray
    active_basis: np.ndarray | None = None
    # the ChannelInstance dimensions S and Q are square in
    _sides: ClassVar[tuple[str, str]]

    def __post_init__(self):
        S = as_complex_matrix(self.S, "S")
        Q = as_complex_matrix(self.Q, "Q")
        if self._sides[0] == self._sides[1] and S.shape != Q.shape:
            raise InvalidInputError(f"S and Q must match, got {S.shape} vs {Q.shape}")
        validate_covariance(S, "S")
        validate_covariance(Q, "Q")
        object.__setattr__(self, "S", _read_only(S, self.S))
        object.__setattr__(self, "Q", _read_only(Q, self.Q))
        W = _validate_active_basis(self.active_basis, Q.shape[0])
        if W is not None:
            object.__setattr__(self, "active_basis", _read_only(W, self.active_basis))


@dataclass(frozen=True)
class UplinkDesign(_Design):
    """Uplink pair: transmit covariance S (n_u x n_u) and quantization
    covariance Q (n_r x n_r).  active_basis spans the forwarded subspace;
    None means every receive dimension is compressed and forwarded."""

    _sides: ClassVar[tuple[str, str]] = ("n_u", "n_r")


@dataclass(frozen=True)
class DownlinkDesign(_Design):
    """Downlink pair, both n_r x n_r: S is the covariance of the precoded
    signal before compression noise is added, Q the compression covariance.
    The transmitted covariance is S + Q.  active_basis spans the described
    subspace; None means every dimension is described over the fronthaul."""

    _sides: ClassVar[tuple[str, str]] = ("n_r", "n_r")


def check_design(d, kind: type[_Design], inst: ChannelInstance | None = None) -> None:
    """Raise InvalidInputError unless d is a ``kind`` design (UplinkDesign
    or DownlinkDesign) and, when inst is given, its S and Q are square in
    the dimensions of inst's channel that ``kind`` reads them in."""
    if not isinstance(d, kind):
        raise InvalidInputError(f"expected {kind.__name__}, got {type(d).__name__}")
    if inst is not None:
        for name, side in zip("SQ", kind._sides):
            n, shape = getattr(inst, side), getattr(d, name).shape
            if shape != (n, n):
                raise InvalidInputError(f"{name} must be {n}x{n}, got {shape}")


@dataclass
class RateReport:
    """Result of evaluating a design against an instance's budgets: built
    from the design's rate, fronthaul cost and power, it derives both
    slacks and the verdict."""

    inst: InitVar[ChannelInstance]
    rate: float
    fronthaul_used: float
    power_used: float
    slack_power: float = field(init=False)
    slack_fronthaul: float = field(init=False)
    feasible: bool = field(init=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self, inst: ChannelInstance):
        self.slack_power = inst.P - self.power_used
        self.slack_fronthaul = inst.C - self.fronthaul_used
        self.feasible = bool(
            self.slack_power >= -TOL.feasibility
            and self.slack_fronthaul >= -TOL.feasibility
        )


def restrict(M: np.ndarray, W: np.ndarray | None) -> np.ndarray:
    """W^H M W, per matrix for a stack (..., n, n), or M itself when no
    restriction applies."""
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
