"""Problem data and design containers.

A :class:`ChannelInstance` is one link: channel matrix H (n_r x n_u),
transmit power budget P, fronthaul budget C in bits, and noise power
sigma2.  Designs hold the covariance pair being evaluated as eigen-factors;
the Q factor's basis is the ``active_basis`` of the subspace the fronthaul
actually carries, when there is one (dimensions that are never compressed,
or never described, cost zero bits and are excluded from every ratio).

One validator, :func:`validate_covariance`, checks a dense covariance
(finite, Hermitian PSD) and factors it, for both design types and for the
stacks of random pairs the perturbation search draws.  One check,
:func:`check_design`, gives every functional its own direction's design in
the instance's dimensions.  A :class:`RateReport` is built
from a design's rate, fronthaul cost and power, and derives both budget
slacks and the feasibility verdict itself.
"""

from __future__ import annotations

import copy
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
    :attr:`spectrum`, taken on first use, stays the channel's, and
    :meth:`with_budgets` can share both across budget points."""

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

    def with_budgets(self, P, C) -> ChannelInstance:
        """This link at budgets P and C: a copy that shares H and, once
        taken, the spectrum, so that a budget grid takes one SVD."""
        point = copy.copy(self)
        for name, value in (("P", P), ("C", C)):
            object.__setattr__(point, name, check_nonneg_number(value, name))
        return point


def validate_covariance(A: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Check that A, one complex matrix (n, n) or a stack (T, n, n) of
    them, is finite and Hermitian positive semidefinite, per matrix; return
    the eigenvectors and eigenvalues, clipped at 0, of its Hermitian part."""
    if A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    w, B = np.linalg.eigh(hermitian_part(A))
    if not np.all(is_psd_stacked(A, w)):
        raise InvalidInputError(f"{name} must be Hermitian positive semidefinite")
    return B, np.clip(w, 0.0, None)


def _factor(B, lam, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of an eigen-factor (B, lam), after its whole check:
    one finite lam >= 0 per column of B (n x k, k <= n), and
    ||B^H B - I|| <= TOL.unitary n (Frobenius)."""
    B, lam = np.array(B, dtype=complex), np.array(lam, dtype=float)
    if B.ndim != 2 or lam.shape != B.shape[1:] or B.shape[1] > B.shape[0]:
        raise InvalidInputError(f"{name} needs an n x k basis, k <= n, and k eigenvalues")
    if not ((lam >= 0) & (lam < np.inf)).all():
        raise InvalidInputError(f"{name} eigenvalues must be finite and >= 0")
    X = B.conj().T @ B
    X.flat[:: len(X) + 1] -= 1.0
    if not np.vdot(X, X).real <= (TOL.unitary * len(B)) ** 2:
        raise InvalidInputError(f"{name} basis columns must be orthonormal")
    B.flags.writeable = lam.flags.writeable = False
    return B, lam


def _dense(B: np.ndarray, lam: np.ndarray) -> np.ndarray:
    A = (B * lam) @ B.conj().T
    A.flags.writeable = False
    return A


class _Design:
    """A covariance pair held as eigen-factors (B, lam) per side, an
    orthonormal basis B (n x k) and eigenvalues lam >= 0 of B diag(lam) B^H.
    When the design is restricted to the subspace its fronthaul carries,
    that ``active_basis`` is the Q factor's basis; else it is None.  Dense S
    and Q are formed on first use.  The design and its arrays are read-only.

    ``UplinkDesign(S=..., Q=..., active_basis=...)`` factors each dense side
    with one ``eigh``; a given active_basis restricts the Q factor to it.
    The assemblies hand their factors to :meth:`_from_factors`."""

    # the ChannelInstance dimensions S and Q are square in
    _sides: ClassVar[tuple[str, str]]

    def __init__(self, S, Q, active_basis=None):
        S = as_complex_matrix(S, "S")
        Q = as_complex_matrix(Q, "Q")
        if self._sides[0] == self._sides[1] and S.shape != Q.shape:
            raise InvalidInputError(f"S and Q must match, got {S.shape} vs {Q.shape}")
        S_factor = validate_covariance(S, "S")
        Q_factor = validate_covariance(Q, "Q")
        if active_basis is not None:
            W = np.asarray(active_basis, dtype=complex)
            if W.ndim != 2 or len(W) != len(Q):
                raise InvalidInputError(f"active_basis must be {len(Q)}xk")
            w, E = np.linalg.eigh(restrict(hermitian_part(Q), W))
            Q_factor = W @ E, np.clip(w, 0.0, None)
        self._hold(S_factor, Q_factor, active_basis is not None)

    @classmethod
    def _from_factors(cls, S_factor, Q_factor):
        """The design of two factors (B, lam), restricted to the Q factor's
        basis unless that spans the whole space."""
        d = object.__new__(cls)
        d._hold(S_factor, Q_factor, len(Q_factor[1]) < len(Q_factor[0]))
        return d

    def _hold(self, S_factor, Q_factor, restricted: bool) -> None:
        S_factor, Q_factor = _factor(*S_factor, "S"), _factor(*Q_factor, "Q")
        basis = Q_factor[0] if restricted else None
        self.__dict__.update(S_factor=S_factor, Q_factor=Q_factor, active_basis=basis)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    S = cached_property(lambda self: _dense(*self.S_factor))
    Q = cached_property(lambda self: _dense(*self.Q_factor))


class UplinkDesign(_Design):
    """Uplink pair: transmit covariance S (n_u x n_u) and quantization
    covariance Q (n_r x n_r).  active_basis spans the forwarded subspace;
    None means every receive dimension is compressed and forwarded."""

    _sides: ClassVar[tuple[str, str]] = ("n_u", "n_r")


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
            n, m = getattr(inst, side), getattr(d, f"{name}_factor")[0].shape[0]
            if m != n:
                raise InvalidInputError(f"{name} must be {n}x{n}, got {(m, m)}")


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
    """W^H M W for one basis W (n, k), per matrix for a stack M (..., n, n),
    or M itself when no restriction applies."""
    if W is None:
        return M
    return W.conj().T @ M @ W


def psd_part(M: np.ndarray) -> np.ndarray:
    """Hermitian part with negative eigenvalues clipped to zero, per matrix
    for a stack (..., n, n).  No library code reads it (the feasibility
    projection factors its pair itself); it stays public because the
    benchmark's tracer, ``perfbench/tracing.py``, binds it by name."""
    A = hermitian_part(np.asarray(M, dtype=complex))
    w, V = np.linalg.eigh(A)
    w = np.clip(w, 0.0, None)
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)
