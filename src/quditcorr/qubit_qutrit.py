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


def _pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.stack([first, second], axis=-1)


def _unit_interval(values, names) -> np.ndarray:
    """Clamp (..., k) probabilities named `names` into [0, 1]; reject any
    (NaN too) further than PSD_ATOL outside it."""
    values = np.array(values, dtype=float)
    bad = ~((-PSD_ATOL <= values) & (values <= 1.0 + PSD_ATOL))
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise DomainError(f"{names[where[-1]]} = {float(values[where])} outside [0, 1]")
    return np.clip(values, 0.0, 1.0)


def bloch_probabilities(values) -> np.ndarray:
    """Check (..., 3) spin-projection probabilities (p1, p2, p3) as
    QubitProbabilities does; return them clamped into [0, 1]."""
    p = _unit_interval(values, ("p1", "p2", "p3"))
    worst = float(((2.0 * p - 1.0) ** 2).sum(axis=-1).max())
    if not worst <= 1.0 + BLOCH_ATOL:
        raise NotPSD(f"squared Bloch radius {worst:.12f} exceeds 1")
    return p


@dataclass(frozen=True)
class QubitProbabilities:
    """Spin-projection probabilities along x, y, z; must sit in the Bloch ball."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        p = bloch_probabilities((self.p1, self.p2, self.p3))
        for name, value in zip(("p1", "p2", "p3"), p.tolist()):
            object.__setattr__(self, name, value)


def qubit_matrices(p: np.ndarray) -> np.ndarray:
    """Unvalidated 2x2 matrices [[p3, off], [off*, 1 - p3]] with
    off = (p1 - 1/2) - i (p2 - 1/2), for (..., 3) probabilities."""
    off, p3 = (p[..., 0] - 0.5) - 1.0j * (p[..., 1] - 0.5), p[..., 2]
    return np.stack([_pair(p3, off), _pair(off.conj(), 1.0 - p3)], axis=-2)


def qubit_from_probabilities(qp: QubitProbabilities) -> DensityMatrix:
    """Reconstruct the 2x2 density matrix from (p1, p2, p3)."""
    return DensityMatrix(qubit_matrices(np.array([qp.p1, qp.p2, qp.p3])))


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


def zx_distributions(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x-axis and z-axis distributions of (..., 2, 2) qubit matrices."""
    re = m[..., 0, 1].real
    z = np.maximum(_pair(m[..., 0, 0].real, m[..., 1, 1].real), 0.0)
    return _pair(0.5 + re, 0.5 - re), z


def xy_distributions(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x-axis and y-axis distributions; the y-axis one is (p2, 1 - p2) with
    p2 = 1/2 - Im rho12, so the + Re term pairs with the - Im one."""
    re, im = m[..., 0, 1].real, m[..., 0, 1].imag
    return _pair(0.5 + re, 0.5 - re), _pair(0.5 - im, 0.5 + im)


def qubit_inequality_zx(state: DensityMatrix) -> InequalityResult:
    """Relative entropy of the x-axis distribution against the z-axis one:
    D((1/2 + Re rho12, 1/2 - Re rho12) || (rho11, rho22))."""
    _require_dim(state, 2)
    return _result(_kernels.relative_shannon(*zx_distributions(state.matrix)))


def qubit_inequality_xy(state: DensityMatrix) -> InequalityResult:
    """Relative entropy of the x-axis distribution against the y-axis one."""
    _require_dim(state, 2)
    return _result(_kernels.relative_shannon(*xy_distributions(state.matrix)))


def qutrit_distributions(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho11 + rho22, rho33) and (1/2 + Re rho13, 1/2 - Re rho13) of
    (..., 3, 3) qutrit matrices."""
    d = np.maximum(np.diagonal(m, axis1=-2, axis2=-1).real, 0.0)
    re13 = m[..., 0, 2].real
    # |rho13| <= sqrt(rho11 rho33) <= 1/2 for any valid state.
    worst = float(np.abs(re13).max())
    if not worst <= 0.5 + PSD_ATOL:
        raise DomainError(f"|Re rho13| = {worst!r} exceeds 1/2")
    return _pair(d[..., 0] + d[..., 1], d[..., 2]), _pair(0.5 + re13, 0.5 - re13)


def qutrit_inequality_shannon(state: DensityMatrix, as_printed: bool = False) -> InequalityResult:
    """D((rho11 + rho22, rho33) || (1/2 + Re rho13, 1/2 - Re rho13)).

    With `as_printed`, the second logarithm's numerator is replaced by
    (rho33 + rho22); that variant is evaluable but is not a relative entropy
    and carries no nonnegativity guarantee.
    """
    _require_dim(state, 3)
    p, r = qutrit_distributions(state.matrix)
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
    _require_dim(state, 3)
    p, r = qutrit_distributions(state.matrix)
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
        names = tuple(self.__dataclass_fields__)
        for name, value in zip(names, _unit_interval([getattr(self, n) for n in names], names)):
            object.__setattr__(self, name, float(value))


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
