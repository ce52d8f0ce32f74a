"""Probability parametrization of qubit and qutrit density-matrix elements,
and the entropic inequalities those elements satisfy.

A qubit is fixed by the probabilities (p1, p2, p3) of finding spin
projection +1/2 along the x, y, z axes:

    rho_{11} = p3,   rho_{12} = (p1 - 1/2) - i (p2 - 1/2)

The inequalities below are relative entropies between two-point distributions read
off the matrix elements, so each is nonnegative for any valid state (math.inf marks a
support mismatch); each returns its check record, named as its fuzz family.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .classical import TsallisParam
from .errors import DomainError, UsageError
from .partition import real
from .quantum import DensityMatrix, certify_stack
from .reporting import CheckRecord, check
from .tolerances import PSD_ATOL, QUTRIT_DIAG_SLOP, SUBADDITIVITY_ATOL, TRACE_ATOL


def _pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.stack([first, second], axis=-1)


# A checked qubit [[a, b], [b*, d]] of trace T = 1 +/- TRACE_ATOL and negative mass sigma has
# a, d >= -sigma and |b| <= T/2 + sigma, so each p probabilities_from_qubit reads (a/T, 1/2 +
# Re b/T, 1/2 - Im b/T) lies within sigma/T <= PSD_ATOL + TRACE_ATOL of [0, 1].
def _unit_interval(values, names, slack=PSD_ATOL + TRACE_ATOL) -> np.ndarray:
    """Clamp (..., k) probabilities named `names` into [0, 1]; reject any
    (NaN too) further than `slack` outside it."""
    values = np.array(values, dtype=float)
    bad = ~((-slack <= values) & (values <= 1.0 + slack))
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise DomainError(f"{names[where[-1]]} = {float(values[where])} outside [0, 1]")
    return np.clip(values, 0.0, 1.0)


def bloch_probabilities(values) -> np.ndarray:
    """Check (..., 3) spin-projection probabilities (p1, p2, p3) as QubitProbabilities does:
    clamped into [0, 1], they must give states the state check accepts; return them clamped."""
    p = _unit_interval(values, ("p1", "p2", "p3"))
    certify_stack(qubit_matrices(p))  # the trace-1 matrices p parametrizes
    return p


@dataclass(frozen=True)
class QubitProbabilities:
    """Spin-projection probabilities along x, y, z; they must parametrize a state."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        names = ("p1", "p2", "p3")
        p = bloch_probabilities([real(getattr(self, name), name) for name in names])
        for name, value in zip(names, p.tolist()):
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
    (a, off), (_, d) = state.matrix.tolist()
    trace = a.real + d.real  # the rebuilt matrix has trace 1, so each element is divided by it
    return QubitProbabilities(off.real / trace + 0.5, -off.imag / trace + 0.5, a.real / trace)


def _require_dim(state: DensityMatrix, dim: int) -> None:
    if not isinstance(state, DensityMatrix):
        raise UsageError(f"expected a DensityMatrix, not {type(state).__name__}: "
                         "build one with validate(matrix)")
    if state.dim != dim:
        raise UsageError(f"expected a {dim}x{dim} density matrix, got {state.dim}x{state.dim}")


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


def qubit_inequality_zx(state: DensityMatrix) -> CheckRecord:
    """Relative entropy of the x-axis distribution against the z-axis one:
    D((1/2 + Re rho12, 1/2 - Re rho12) || (rho11, rho22))."""
    _require_dim(state, 2)
    value = _kernels.relative_shannon(*zx_distributions(state.matrix))
    return check("qubit_zx", value, SUBADDITIVITY_ATOL)


def qubit_inequality_xy(state: DensityMatrix) -> CheckRecord:
    """Relative entropy of the x-axis distribution against the y-axis one."""
    _require_dim(state, 2)
    value = _kernels.relative_shannon(*xy_distributions(state.matrix))
    return check("qubit_xy", value, SUBADDITIVITY_ATOL)


def qutrit_distributions(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho11 + rho22, rho33) and (1/2 + Re rho13, 1/2 - Re rho13) of (..., 3, 3) checked
    qutrit matrices; a reference weight <= 0 (negative mass lets |rho13| pass 1/2) is a
    support hole, which the relative entropies read as +inf."""
    d = np.maximum(np.diagonal(m, axis1=-2, axis2=-1).real, 0.0)
    re13 = m[..., 0, 2].real
    return _pair(d[..., 0] + d[..., 1], d[..., 2]), _pair(0.5 + re13, 0.5 - re13)


def qutrit_inequality_shannon(state: DensityMatrix) -> CheckRecord:
    """D((rho11 + rho22, rho33) || (1/2 + Re rho13, 1/2 - Re rho13))."""
    _require_dim(state, 3)
    value = _kernels.relative_shannon(*qutrit_distributions(state.matrix))
    return check("qutrit_shannon", value, SUBADDITIVITY_ATOL)


def qutrit_inequality_tsallis(state: DensityMatrix, tq: TsallisParam) -> CheckRecord:
    """Tsallis analog for q > 1:
    (1/(q-1)) [ (rho11+rho22)^q (1/2+Re rho13)^(1-q) + rho33^q (1/2-Re rho13)^(1-q) - 1 ]."""
    if not tq.gated:
        raise UsageError(f"the Tsallis matrix-element inequality needs q > 1, got q = {tq.q}")
    _require_dim(state, 3)
    value = _kernels.relative_tsallis(*qutrit_distributions(state.matrix), tq.q)
    return check(f"qutrit_tsallis_q={tq.label}", value, SUBADDITIVITY_ATOL)


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
        values = [real(getattr(self, name), name) for name in names]
        for name, value in zip(names, _unit_interval(values, names)):
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
    names = tuple(f"reconstructed rho{k}{k}" for k in (1, 2, 3))
    diagonal = _unit_interval([rho11, rho22, 1.0 - rho11 - rho22], names, QUTRIT_DIAG_SLOP)
    return QutritMatrixElements(*diagonal.tolist(), complex(qe.p1_2 - 0.5, qe.p2_2 - 0.5))
