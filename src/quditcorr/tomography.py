"""Spin tomograms and their partition-map correlation diagnostics.

A tomogram w(m | n) is the diagonal of u rho u^dagger, where u is the SU(2)
rotation carrying the measurement direction n.  Only the Wigner factor
d = exp(i theta Jy) and the phase P = exp(i phi Jz) of u reach the diagonal,
and d is real orthogonal (i Jy is real antisymmetric), so the diagonal is
rowsum((d Re(P rho P^dagger)) * d).  Only the top ceil(N/2) rows of d are
multiplied out; the symmetry d_{-m,-m'} = (-1)^(m-m') d_{m,m'} mirrors the
rest, so a direction costs about 1.5 N^3 real multiply-adds.  Tables are
reported in the flat-index order m = -j -> 1, ..., m = j -> 2j+1, which
reverses the storage basis (|m> kept with m descending); relabelled this
way, a tomogram is a one-variable distribution that the partition
machinery can analyze.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .classical import ProbabilityVector, TsallisParam, block_marginals, probability_rows
from .errors import DomainError, UsageError
from .partition import Factorization, numeric_array, real
from .quantum import DensityMatrix, certify_stack
from .reporting import holds
from .tolerances import SPIN_J_ATOL, SUBADDITIVITY_ATOL


@dataclass(frozen=True)
class Direction:
    """Measurement direction (theta, phi) plus the third Euler angle psi,
    which is kept for the rotation but never affects tomogram values."""

    theta: float
    phi: float
    psi: float = 0.0

    def __post_init__(self):
        angles = check_angles(real(self.theta, "theta"), real(self.phi, "phi"), real(self.psi, "psi"))
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
    stays small: it keeps the ladder, the real factors of exp(i theta Jy) and the mirror
    signs of its bottom rows, and builds jz, jx, jy on access."""

    __slots__ = ("j", "dim", "m_values", "_ladder", "_factors", "_mirror_signs")

    def __init__(self, j):
        twice = real(j, "spin j") * 2.0
        two_j = round(twice) if math.isfinite(twice) else 0
        if not abs(twice - two_j) <= SPIN_J_ATOL or two_j < 1:
            raise DomainError(f"spin j = {j} must be a positive multiple of 1/2")
        self.j = two_j / 2.0
        self.dim = two_j + 1
        self.m_values = self.j - np.arange(self.dim, dtype=float)
        m = self.m_values[1:]
        self._ladder = np.sqrt(self.j * (self.j + 1.0) - m * (m + 1.0))  # <m+1|J+|m>
        # Jy is imaginary, so conj(v) is the eigenvector of -w for the one of w > 0, and
        # a = sqrt2 Re v, b = sqrt2 Im v are orthonormal and real: exp(i theta Jy) turns
        # each pair (a, b) by theta w and keeps the real m = 0 vector of an integer j.
        w, v = np.linalg.eigh(self.jy)  # ascending, so the last dim // 2 have w > 0
        pairs = self.dim // 2
        up = v[:, self.dim - pairs:] * math.sqrt(2.0)
        q, turn, omega = [up.real, up.imag], [-up.imag, up.real], [w[self.dim - pairs:]] * 2
        if self.dim % 2:  # the m = 0 vector is real up to one phase
            zero = v[:, pairs:pairs + 1]
            peak = zero[np.abs(zero).argmax(), 0]
            q.append((zero * (abs(peak) / peak)).real)
            turn.append(np.zeros((self.dim, 1)))
            omega.append(np.zeros(1))
        # exp(i theta Jy) = q B(theta) q^T with q B = q cos(theta omega) + turn sin(theta omega).
        self._factors = (np.hstack(q), np.hstack(turn), np.concatenate(omega))
        # d[N-1-k, N-1-l] = (-1)^(k+l) d[k, l] for the rows k < N // 2 (m > 0).
        k = np.arange(self.dim)
        self._mirror_signs = 1.0 - 2.0 * ((k[:self.dim // 2, None] + k) % 2)
        for arr in (self.m_values, self._ladder, *self._factors, self._mirror_signs):
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


def wigner_d(rep: SpinRep, theta) -> np.ndarray:
    """exp(i theta Jy), a real orthogonal matrix; an array of theta gives a (..., N, N) stack.

    Only the top ceil(N/2) rows are multiplied out, as (q cos(theta omega) + turn
    sin(theta omega)) q^T over their rows of q and turn: about N^3 / 2 multiply-adds.
    The rest are mirrored, d[N-1-k, N-1-l] = (-1)^(k+l) d[k, l], which is
    d_{-m,-m'} = (-1)^(m-m') d_{m,m'}, so each mirrored row pair agrees bit for bit.
    """
    angles = np.multiply.outer(theta, rep._factors[2])
    d, work = np.empty((2, *angles.shape, rep.dim))
    _wigner_d_filler(rep, d, work)(np.cos(angles)[..., None, :], np.sin(angles)[..., None, :])
    return d


def _wigner_d_filler(rep: SpinRep, out, work):
    """fill(cos, sin), which writes exp(i theta Jy) into `out` from cos(theta omega) and
    sin(theta omega), each (..., 1, N), and overwrites the top ceil(N/2) rows of the
    (..., N, N) `work`; every slice it reads or writes is taken once, here."""
    (q, turn, _), half = rep._factors, rep.dim // 2
    rows = rep.dim - half
    q_top, turn_top, q_t, signs = q[:rows], turn[:rows], q.T, rep._mirror_signs
    top, term = work[..., :rows, :], out[..., :rows, :]
    upper, mirror = out[..., :half, :], out[..., :rows - 1:-1, ::-1]

    def fill(cos, sin) -> None:
        np.multiply(q_top, cos, out=top)
        np.multiply(turn_top, sin, out=term)
        np.add(top, term, out=top)
        np.matmul(top, q_t, out=term)
        np.multiply(upper, signs, out=mirror)

    return fill


def rotation_matrix(rep: SpinRep, direction: Direction) -> np.ndarray:
    """SU(2) rotation u(phi, theta, psi) = e^{i psi Jz} e^{i theta Jy} e^{i phi Jz}.

    For j = 1/2 this reduces entrywise to the familiar Euler-angle matrix
    [[cos(theta/2) e^{i(psi+phi)/2}, sin(theta/2) e^{i(psi-phi)/2}],
     [-sin(theta/2) e^{-i(psi-phi)/2}, cos(theta/2) e^{-i(psi+phi)/2}]].
    The psi factor sits outermost, which is what makes tomograms
    psi-independent.
    """
    u = wigner_d(rep, direction.theta) * np.exp(1.0j * direction.phi * rep.m_values)
    if direction.psi:  # e^{i 0 Jz} is exactly the identity
        u *= np.exp(1.0j * direction.psi * rep.m_values)[:, None]
    return u


@dataclass(frozen=True, eq=False)
class TomogramTable:
    """w(m | n) in flat-index order (m = -j first), negative values zeroed and renormalized;
    the raw deviation of the sum from one is kept as `normalization_error`."""

    direction: Direction
    values: np.ndarray
    normalization_error: float


def tomogram(state: DensityMatrix, rep: SpinRep, direction: Direction) -> TomogramTable:
    """Spin-projection distribution along `direction`, from tomogram_diagonals.

    `state` is a DensityMatrix, given in the same |m>-descending basis as `rep`; its
    matrix is exactly Hermitian, which is what makes each table real.
    """
    if not isinstance(state, DensityMatrix):
        raise UsageError(f"tomogram takes a DensityMatrix, not {type(state).__name__}: "
                         "build one with validate(matrix)")
    _check_dimension(state.matrix.shape, rep)
    diagonals = tomogram_diagonals(rep, direction.theta, direction.phi, state.matrix)
    values, error = tomogram_values(diagonals)
    values.flags.writeable = False
    return TomogramTable(direction=direction, values=values, normalization_error=float(error))


def _check_dimension(shape: tuple, rep: SpinRep) -> None:
    if shape != (rep.dim, rep.dim):
        dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else shape
        raise UsageError(f"state dimension {dim} does not match spin dimension {rep.dim}")


def tomogram_diagonals(rep: SpinRep, theta, phi, rho: np.ndarray) -> np.ndarray:
    """Raw diag(d rho' d^T) = rowsum((d Re rho') * d), rho' = P rho P^dagger with
    P = exp(i phi Jz), in storage order (m descending), shaped like the angles plus (N,).
    Every tomogram in the package is computed here.

    rho is one (N, N) matrix shared by all directions, one slab per direction, or one
    matrix per direction, one slab in all.  The trig and phases of every angle are taken
    first; each slab builds d as wigner_d does (about 1.5 N^3 multiply-adds per
    direction) and runs the same steps through one work array allocated per call, so
    a row never depends on the others.
    """
    angles = np.multiply.outer(theta, rep._factors[2])
    cos = np.cos(angles)[..., None, :]
    sin = np.sin(angles, out=angles)[..., None, :]
    phase = np.exp(1.0j * np.multiply.outer(phi, rep.m_values))
    column, row = phase[..., :, None], np.conj(phase)[..., None, :]
    out = np.empty(angles.shape)
    # One work array of three real planes: the first two hold P rho P^dagger, and once
    # its real part is copied into the third, the product d @ real and d.
    work = np.empty((*rho.shape[:-2], 3, *rho.shape[-2:]))
    product, d, real = (work[..., plane, :, :] for plane in range(3))
    phased = work[..., :2, :, :].reshape(*rho.shape[:-1], 2 * rho.shape[-1]).view(complex)
    fill = _wigner_d_filler(rep, d, product)
    for k in np.ndindex(out.shape[:out.ndim + 1 - rho.ndim]):
        np.multiply(column[k], row[k], out=phased)
        np.multiply(rho, phased, out=phased)
        np.copyto(real, phased.real)
        fill(cos[k], sin[k])
        np.matmul(d, real, out=product)
        product *= d
        product.sum(axis=-1, out=out[k])
    return out


def tomogram_values(diagonals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized tables in flat-index order from raw (..., N) diagonals, negative values
    zeroed, and |raw sum - 1| per table, taken before the zeroing.

    Nothing here judges a value: every caller takes its diagonals of a matrix the state
    checks accepted, so each raw sum is that state's trace up to rounding.  The real kernel
    never forms Im w(m | n).  It is 0, since (m + m^dagger) / 2 is exactly Hermitian.
    """
    values = diagonals[..., ::-1].copy()  # storage is m descending; tables are y-ordered
    errors = np.abs(values.sum(axis=-1) - 1.0)
    values[values < 0.0] = 0.0
    values /= values.sum(axis=-1, keepdims=True)
    return values, errors


def check_two_axes(factorization: Factorization) -> None:
    """Refuse a partition that does not split a tomogram into two axes."""
    if factorization.num_axes != 2:
        raise UsageError(f"tomographic analysis splits into two axes, got {factorization.num_axes}")


def _check_partition(factorization: Factorization, size: int) -> None:
    check_two_axes(factorization)
    factorization.check_total(size, "tomogram length")


def marginal_pair(values: np.ndarray, factorization: Factorization):
    """Both marginals of (..., N) tables as arrays: the block sums, through probability_rows."""
    _check_partition(factorization, values.shape[-1])
    return tuple(map(probability_rows, block_marginals(values, factorization.dims[0])))


def tomographic_marginals(
    table: TomogramTable, factorization: Factorization
) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Marginals of the tomogram viewed through a two-axis partition."""
    _check_partition(factorization, table.values.shape[-1])
    return tuple(map(ProbabilityVector, block_marginals(table.values, factorization.dims[0])))


@dataclass(frozen=True)
class TsallisTomogramReport:
    s_q1: float
    s_q2: float
    s_q: float
    subadditivity_holds: bool


def tsallis_reports(table: np.ndarray) -> list[TsallisTomogramReport]:
    """One report per column of a (4, n) table of S_q1, S_q2, S_q and the margin."""
    verdicts = holds(table[3], SUBADDITIVITY_ATOL).tolist()
    return [TsallisTomogramReport(*row) for row in zip(*table[:3].tolist(), verdicts)]


def tomographic_tsallis_report(
    table: TomogramTable, factorization: Factorization, tq: TsallisParam
) -> TsallisTomogramReport:
    """Tsallis entropies of the two tomographic marginals and the joint,
    with the subadditivity verdict S_q1 + S_q2 >= S_q."""
    values = table.values
    entropies = _kernels.split_entropies(*marginal_pair(values, factorization), values, tq.q)
    return tsallis_reports(np.reshape(entropies, (4, 1)))[0]


def tomographic_tsallis_relative(
    first: ProbabilityVector, second: ProbabilityVector, tq: TsallisParam
) -> float:
    """Relative Tsallis entropy between marginals taken at two directions.

    The comparison is defined only between subsystems of equal dimension
    (X1 = X2) and for q > 1.
    """
    if not tq.gated:
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
    return _kernels.split_entropies(*marginal_pair(table.values, factorization), table.values)[3]


class Sweep(NamedTuple):
    """Tomographic diagnostics over a direction grid, indexed by direction in grid order."""

    directions: list[Direction]
    values: np.ndarray  # (n, N) tables
    normalization_error: np.ndarray  # (n,)
    information: np.ndarray  # (n,) mutual tomographic information
    tsallis: dict[float, np.ndarray]  # q -> (4, n): S_q1, S_q2, S_q and the margin


def direction_sweep(matrix, rep: SpinRep, factorization: Factorization, grid, qs=()) -> Sweep:
    """Evaluate the tomographic diagnostics of the N x N state `matrix` over a direction grid.

    The matrix is checked against rep's dimension, then as a state by certify_stack (the
    refusals and messages are DensityMatrix's, with one Cholesky factorization in place
    of the spectrum), then the partition, all before any tomogram, which is judged no further.
    One tomogram_diagonals call computes every direction, each row bit for bit as `tomogram`
    would on validate(matrix), and marginals and entropies are taken once, over the stack.
    """
    directions = list(grid)
    if not directions:
        raise UsageError("direction grid is empty")
    if isinstance(matrix, DensityMatrix):
        raise UsageError("direction_sweep takes the state's N x N matrix: pass state.matrix")
    rho = numeric_array(matrix, complex, "state matrix")
    _check_dimension(rho.shape, rep)
    rho = certify_stack(rho)
    _check_partition(factorization, rep.dim)
    theta, phi = (np.array([getattr(d, name) for d in directions]) for name in ("theta", "phi"))
    values, errors = tomogram_values(tomogram_diagonals(rep, theta, phi, rho))
    first, second = map(probability_rows, block_marginals(values, factorization.dims[0]))
    entropies = {tq.q: np.array(_kernels.split_entropies(first, second, values, tq.q)) for tq in qs}
    information = _kernels.split_entropies(first, second, values)[3]
    return Sweep(directions, values, errors, information, entropies)
