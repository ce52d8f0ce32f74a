"""Probability parametrization of qubit and qutrit density-matrix elements,
and the entropic inequalities those elements satisfy.

A qubit is fixed by the probabilities (p1, p2, p3) of finding spin
projection +1/2 along the x, y, z axes:

    rho_{11} = p3,   rho_{12} = (p1 - 1/2) - i (p2 - 1/2)

The inequalities below are relative entropies between two-point
distributions read off the matrix elements, so each is nonnegative for any
valid state; math.inf marks a support mismatch.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .classical import TsallisParam
from .errors import DomainError, NotPSD, UsageError
from .quantum import DensityMatrix
from .tolerances import BLOCH_ATOL, PSD_ATOL, QUTRIT_DIAG_SLOP, SUBADDITIVITY_ATOL


def _unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not -PSD_ATOL <= value <= 1.0 + PSD_ATOL:
        raise DomainError(f"{name} = {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class QubitProbabilities:
    """Spin-projection probabilities along x, y, z; must sit in the Bloch ball."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        for name in ("p1", "p2", "p3"):
            object.__setattr__(self, name, _unit_interval(getattr(self, name), name))
        radius_sq = (
            (2.0 * self.p1 - 1.0) ** 2
            + (2.0 * self.p2 - 1.0) ** 2
            + (2.0 * self.p3 - 1.0) ** 2
        )
        if radius_sq > 1.0 + BLOCH_ATOL:
            raise NotPSD(f"squared Bloch radius {radius_sq:.12f} exceeds 1")


def qubit_from_probabilities(qp: QubitProbabilities) -> DensityMatrix:
    """Reconstruct the 2x2 density matrix from (p1, p2, p3)."""
    off = (qp.p1 - 0.5) - 1.0j * (qp.p2 - 0.5)
    return DensityMatrix(
        np.array([[qp.p3, off], [off.conjugate(), 1.0 - qp.p3]], dtype=complex)
    )


def probabilities_from_qubit(state: DensityMatrix) -> QubitProbabilities:
    """Invert `qubit_from_probabilities`; round-trips exactly."""
    _require_dim(state, 2)
    off = complex(state.matrix[0, 1])
    return QubitProbabilities(
        p1=off.real + 0.5,
        p2=-off.imag + 0.5,
        p3=float(state.matrix[0, 0].real),
    )


@dataclass(frozen=True)
class InequalityResult:
    value: float
    holds: bool


def _require_dim(state: DensityMatrix, dim: int) -> None:
    if state.dim != dim:
        raise UsageError(f"expected a {dim}x{dim} density matrix, got {state.dim}x{state.dim}")


def _result(value: float) -> InequalityResult:
    return InequalityResult(value=value, holds=bool(value >= -SUBADDITIVITY_ATOL))


def qubit_inequality_zx(state: DensityMatrix) -> InequalityResult:
    """Relative entropy of the x-axis distribution against the z-axis one:
    D((1/2 + Re rho12, 1/2 - Re rho12) || (rho11, rho22))."""
    _require_dim(state, 2)
    re = float(state.matrix[0, 1].real)
    p = np.array([0.5 + re, 0.5 - re])
    r = np.array([max(float(state.matrix[0, 0].real), 0.0), max(float(state.matrix[1, 1].real), 0.0)])
    return _result(_kernels.relative_shannon(p, r))


def qubit_inequality_xy(state: DensityMatrix) -> InequalityResult:
    """Relative entropy of the x-axis distribution against the y-axis one.

    The y-axis distribution is (p2, 1 - p2) with p2 = 1/2 - Im rho12, so the
    + Re term pairs with the - Im one."""
    _require_dim(state, 2)
    re = float(state.matrix[0, 1].real)
    im = float(state.matrix[0, 1].imag)
    p = np.array([0.5 + re, 0.5 - re])
    r = np.array([0.5 - im, 0.5 + im])
    return _result(_kernels.relative_shannon(p, r))


def _qutrit_distributions(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    _require_dim(state, 3)
    d11 = max(float(state.matrix[0, 0].real), 0.0)
    d22 = max(float(state.matrix[1, 1].real), 0.0)
    d33 = max(float(state.matrix[2, 2].real), 0.0)
    re13 = float(state.matrix[0, 2].real)
    # |rho13| <= sqrt(rho11 rho33) <= 1/2 for any valid state.
    if not abs(re13) <= 0.5 + PSD_ATOL:
        raise DomainError(f"|Re rho13| = {abs(re13)!r} exceeds 1/2")
    return np.array([d11 + d22, d33]), np.array([0.5 + re13, 0.5 - re13])


def qutrit_inequality_shannon(state: DensityMatrix, as_printed: bool = False) -> InequalityResult:
    """D((rho11 + rho22, rho33) || (1/2 + Re rho13, 1/2 - Re rho13)).

    With `as_printed`, the second logarithm's numerator is replaced by
    (rho33 + rho22); that variant is evaluable but is not a relative entropy
    and carries no nonnegativity guarantee.
    """
    p, r = _qutrit_distributions(state)
    if not as_printed:
        return _result(_kernels.relative_shannon(p, r))
    d22 = max(float(state.matrix[1, 1].real), 0.0)
    first = 0.0 if p[0] <= 0.0 else (math.inf if r[0] <= 0.0 else p[0] * math.log(p[0] / r[0]))
    if p[1] <= 0.0:
        second = 0.0
    elif r[1] <= 0.0:
        second = math.inf
    else:
        second = p[1] * math.log((p[1] + d22) / r[1])
    return _result(first + second)


def qutrit_inequality_tsallis(state: DensityMatrix, tq: TsallisParam) -> InequalityResult:
    """Tsallis analog for q > 1:
    (1/(q-1)) [ (rho11+rho22)^q (1/2+Re rho13)^(1-q) + rho33^q (1/2-Re rho13)^(1-q) - 1 ]."""
    if tq.q <= 1.0:
        raise UsageError(f"the Tsallis matrix-element inequality needs q > 1, got q = {tq.q}")
    p, r = _qutrit_distributions(state)
    return _result(_kernels.relative_tsallis(p, r, tq.q))


@dataclass(frozen=True)
class QutritElements:
    """The nine spin-projection probabilities p{j}_{k} (direction j within
    measurement triple k) that parametrize a qutrit state."""

    p1_1: float
    p2_1: float
    p3_1: float
    p1_2: float
    p2_2: float
    p3_2: float
    p1_3: float
    p2_3: float
    p3_3: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _unit_interval(getattr(self, name), name))


@dataclass(frozen=True)
class QutritMatrixElements:
    """The matrix elements the parametrization pins down; the remaining
    off-diagonal elements are not determined by these probabilities."""

    rho11: float
    rho22: float
    rho33: float
    rho21: complex


def qutrit_elements_from_probabilities(qe: QutritElements) -> QutritMatrixElements:
    """rho11 = p3_2 + p3_1 - 1, rho22 = 1 - p3_2, rho33 = 1 - rho11 - rho22,
    rho21 = p1_2 + i p2_2 - (1 + i)/2."""
    rho11 = qe.p3_2 + qe.p3_1 - 1.0
    rho22 = 1.0 - qe.p3_2
    rho33 = 1.0 - rho11 - rho22
    for name, value in (("rho11", rho11), ("rho22", rho22), ("rho33", rho33)):
        if not -QUTRIT_DIAG_SLOP <= value <= 1.0 + QUTRIT_DIAG_SLOP:
            raise DomainError(f"reconstructed {name} = {value} outside [0, 1]")
    rho21 = complex(qe.p1_2 - 0.5, qe.p2_2 - 0.5)
    return QutritMatrixElements(
        rho11=min(max(rho11, 0.0), 1.0),
        rho22=min(max(rho22, 0.0), 1.0),
        rho33=min(max(rho33, 0.0), 1.0),
        rho21=rho21,
    )
