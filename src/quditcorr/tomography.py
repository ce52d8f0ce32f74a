"""Spin tomograms and their partition-map correlation diagnostics.

A tomogram w(m | n) is the diagonal of u rho u^dagger, where u is the SU(2)
rotation carrying the measurement direction n.  Tables are reported in the
flat-index order m = -j -> 1, ..., m = j -> 2j+1, which reverses the
storage basis (|m> kept with m descending); relabelled this way, a tomogram
is a one-variable distribution that the partition machinery can analyze.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .classical import ProbabilityVector, TsallisParam
from .errors import DomainError, UsageError
from .partition import Factorization
from .quantum import DensityMatrix
from .tolerances import (
    PSD_ATOL,
    SPIN_J_ATOL,
    SUBADDITIVITY_ATOL,
    TOMOGRAM_NEG_CLAMP,
    TOMOGRAM_SUM_ATOL,
)


@dataclass(frozen=True)
class Direction:
    """Measurement direction (theta, phi) plus the third Euler angle psi,
    which is kept for the rotation but never affects tomogram values."""

    theta: float
    phi: float
    psi: float = 0.0

    def __post_init__(self):
        angles = check_angles(float(self.theta), float(self.phi), float(self.psi))
        for name, value in zip(("theta", "phi", "psi"), angles):
            object.__setattr__(self, name, value)


def check_angles(theta, phi, psi):
    """Reject theta outside [0, pi], phi outside [0, 2 pi) or a non-finite
    psi, given single angles or arrays of them; return the angles."""
    for name, value, ok, what in (
        ("theta", theta, (0.0 <= theta) & (theta <= math.pi), "outside [0, pi]"),
        ("phi", phi, (0.0 <= phi) & (phi < 2.0 * math.pi), "outside [0, 2*pi)"),
        ("psi", psi, abs(psi) < math.inf, "is not finite"),
    ):
        if ok is not True and not np.all(ok):  # floats give a bool, arrays an array
            raise DomainError(f"{name} = {np.extract(np.logical_not(ok), value)[0]} {what}")
    return theta, phi, psi


class SpinRep:
    """Spin-j operator triple in the |m> basis ordered m = j, j-1, ..., -j.  A shared rep
    stays small: it keeps the ladder and the Jy eigen-pairs and builds jz, jx, jy on access."""

    __slots__ = ("j", "dim", "m_values", "_ladder", "_jy_spectrum")

    def __init__(self, j):
        twice = float(j) * 2.0
        two_j = round(twice) if math.isfinite(twice) else 0
        if not abs(twice - two_j) <= SPIN_J_ATOL or two_j < 1:
            raise DomainError(f"spin j = {j} must be a positive multiple of 1/2")
        self.j = two_j / 2.0
        self.dim = two_j + 1
        self.m_values = self.j - np.arange(self.dim, dtype=float)
        m = self.m_values[1:]
        self._ladder = np.sqrt(self.j * (self.j + 1.0) - m * (m + 1.0))  # <m+1|J+|m>
        # Jy is Hermitian; its eigen-pairs give exp(i theta Jy) directly.
        w, v = np.linalg.eigh(self.jy)
        self._jy_spectrum = (w, v, v.conj().T)
        for arr in (self.m_values, self._ladder, *self._jy_spectrum):
            arr.flags.writeable = False

    @property
    def jz(self) -> np.ndarray:
        return np.diag(self.m_values).astype(complex)

    @property
    def jx(self) -> np.ndarray:
        return ((np.diag(self._ladder, k=1) + np.diag(self._ladder, k=-1)) / 2.0).astype(complex)

    @property
    def jy(self) -> np.ndarray:
        return (np.diag(self._ladder, k=1) - np.diag(self._ladder, k=-1)) / 2.0j

    def __repr__(self) -> str:
        return f"SpinRep(j={self.j})"


@lru_cache(maxsize=8)
def spin_rep(j) -> SpinRep:
    """SpinRep(j), built once per j and shared; its arrays are read-only."""
    return SpinRep(j)


def rotation_matrix(rep: SpinRep, direction: Direction) -> np.ndarray:
    """SU(2) rotation u(phi, theta, psi) = e^{i psi Jz} e^{i theta Jy} e^{i phi Jz}.

    For j = 1/2 this reduces entrywise to the familiar Euler-angle matrix
    [[cos(theta/2) e^{i(psi+phi)/2}, sin(theta/2) e^{i(psi-phi)/2}],
     [-sin(theta/2) e^{-i(psi-phi)/2}, cos(theta/2) e^{-i(psi+phi)/2}]].
    The psi factor sits outermost, which is what makes tomograms
    psi-independent.
    """
    return rotations(rep, direction.theta, direction.phi, direction.psi or None)


def rotations(rep: SpinRep, theta, phi, psi=None) -> np.ndarray:
    """`rotation_matrix` from angles, or a (..., N, N) stack from angle arrays."""
    w, v, v_dagger = rep._jy_spectrum
    u = (v * np.exp(1.0j * np.multiply.outer(theta, w))[..., None, :]) @ v_dagger
    if psi is not None:  # e^{i 0 Jz} is exactly the identity
        u = np.exp(1.0j * np.multiply.outer(psi, rep.m_values))[..., :, None] * u
    return u * np.exp(1.0j * np.multiply.outer(phi, rep.m_values))[..., None, :]


@dataclass(frozen=True, eq=False)
class TomogramTable:
    """w(m | n) in flat-index order (m = -j first), renormalized; the raw
    deviation of the sum from one is kept as `normalization_error`."""

    direction: Direction
    values: np.ndarray
    normalization_error: float


def tomogram(state: DensityMatrix, rep: SpinRep, direction: Direction) -> TomogramTable:
    """Spin-projection distribution along `direction`.

    `state` is given in the same |m>-descending basis as `rep`.
    """
    if state.dim != rep.dim:
        raise UsageError(f"state dimension {state.dim} does not match spin dimension {rep.dim}")
    values, error = tomogram_values(rotation_matrix(rep, direction), state.matrix)
    values.flags.writeable = False
    return TomogramTable(direction=direction, values=values, normalization_error=float(error))


def tomogram_values(u: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked, renormalized diag(u rho u^dagger) = rowsum((u rho) * conj(u))
    in flat-index order, and |raw sum - 1|; u (consumed) and rho may be stacks."""
    rotated = u @ rho
    rotated *= np.conj(u, out=u)
    diag = rotated.sum(axis=-1)
    # Every check below also fails on NaN.
    imag_gap = float(np.abs(diag.imag).max())
    if not imag_gap <= TOMOGRAM_SUM_ATOL:
        raise DomainError(f"tomogram diagonal has imaginary part {imag_gap:.3e}")
    values = diag.real[..., ::-1].copy()  # storage is m descending; tables are y-ordered
    low = float(values.min())
    if not low >= -TOMOGRAM_NEG_CLAMP:
        raise DomainError(f"tomogram value {low:.3e} below the clamp window")
    if not float(values.max()) <= 1.0 + PSD_ATOL:
        raise DomainError(f"tomogram value {values.max():.3e} exceeds 1")
    values[values < 0.0] = 0.0
    raw_sums = values.sum(axis=-1, keepdims=True)
    errors = np.abs(raw_sums - 1.0)
    if not errors.max() <= TOMOGRAM_SUM_ATOL:
        raw_sum = float(raw_sums.flat[errors.argmax()])
        raise DomainError(f"tomogram sums to {raw_sum!r}, off by more than {TOMOGRAM_SUM_ATOL:.0e}")
    values /= raw_sums
    return values, errors[..., 0]


def marginal_pair(values: np.ndarray, factorization: Factorization):
    """Both marginals of a validated table as arrays, renormalized exactly as
    ProbabilityVector would, without validating them again."""
    if factorization.num_axes != 2:
        raise UsageError(f"tomographic analysis splits into two axes, got {factorization.num_axes}")
    if factorization.total != values.shape[-1]:
        raise UsageError(
            f"dimension mismatch: factorization total {factorization.total} "
            f"!= tomogram length {values.shape[-1]}"
        )
    tensor = values.reshape(*values.shape[:-1], *factorization.dims[::-1])  # first axis fastest
    first, second = tensor.sum(axis=-2), tensor.sum(axis=-1)
    return first / first.sum(axis=-1, keepdims=True), second / second.sum(axis=-1, keepdims=True)


def tomographic_marginals(
    table: TomogramTable, factorization: Factorization
) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Marginals of the tomogram viewed through a two-axis partition."""
    first, second = marginal_pair(table.values, factorization)
    return ProbabilityVector(first), ProbabilityVector(second)


@dataclass(frozen=True)
class TsallisTomogramReport:
    s_q1: float
    s_q2: float
    s_q: float
    subadditivity_holds: bool


def split_information(first, second, values):
    """S1 + S2 - S from the marginals and the table, single or stacked."""
    return _kernels.shannon(first) + _kernels.shannon(second) - _kernels.shannon(values)


def _tsallis_reports(first, second, values, q: float) -> list[TsallisTomogramReport]:
    """One report per row of (..., N) marginals and tables."""
    entropies = np.array([_kernels.tsallis(p, q) for p in (first, second, values)]).reshape(3, -1)
    return [
        TsallisTomogramReport(s_q1, s_q2, s_q, bool(s_q1 + s_q2 - s_q >= -SUBADDITIVITY_ATOL))
        for s_q1, s_q2, s_q in entropies.T.tolist()
    ]


def tomographic_tsallis_report(
    table: TomogramTable, factorization: Factorization, tq: TsallisParam
) -> TsallisTomogramReport:
    """Tsallis entropies of the two tomographic marginals and the joint,
    with the subadditivity verdict S_q1 + S_q2 >= S_q."""
    return _tsallis_reports(*marginal_pair(table.values, factorization), table.values, tq.q)[0]


def tomographic_tsallis_relative(
    first: ProbabilityVector, second: ProbabilityVector, tq: TsallisParam
) -> float:
    """Relative Tsallis entropy between marginals taken at two directions.

    The comparison is defined only between subsystems of equal dimension
    (X1 = X2) and for q > 1.
    """
    if tq.q <= 1.0:
        raise UsageError(f"the relative tomographic comparison needs q > 1, got q = {tq.q}")
    if len(first) != len(second):
        raise UsageError(
            f"marginal lengths differ ({len(first)} vs {len(second)}); "
            "the comparison requires equal subsystem dimensions X1 = X2"
        )
    return _kernels.relative_tsallis(first.probs, second.probs, tq.q)


def mutual_tomographic_information(table: TomogramTable, factorization: Factorization) -> float:
    """S1 + S2 - S of the tomogram's partition view; zero means no hidden
    correlations at this direction."""
    return split_information(*marginal_pair(table.values, factorization), table.values)


@dataclass(frozen=True, eq=False)
class SweepRecord:
    direction: Direction
    values: tuple[float, ...]
    information: float
    tsallis: dict[float, TsallisTomogramReport]
    normalization_error: float


def direction_sweep(
    state: DensityMatrix,
    rep: SpinRep,
    factorization: Factorization,
    grid,
    qs=(),
) -> list[SweepRecord]:
    """Evaluate the tomographic diagnostics over a direction grid.

    One record per direction, in grid order.  Tomograms are taken one
    direction at a time; marginals and entropies once, over their stack.
    """
    directions = list(grid)
    if not directions:
        raise UsageError("direction grid is empty")
    tables = [tomogram(state, rep, direction) for direction in directions]
    values = np.stack([table.values for table in tables])
    first, second = marginal_pair(values, factorization)
    information = split_information(first, second, values).tolist()
    tsallis = {tq.q: _tsallis_reports(first, second, values, tq.q) for tq in qs}
    return [
        SweepRecord(
            direction=table.direction,
            values=tuple(row),
            information=information[k],
            tsallis={q: reports[k] for q, reports in tsallis.items()},
            normalization_error=table.normalization_error,
        )
        for k, (table, row) in enumerate(zip(tables, values.tolist()))
    ]
