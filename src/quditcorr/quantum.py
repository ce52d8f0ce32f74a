"""Density-matrix core: validation, the partition-map reshape, partial
traces over split blocks, entropies, mutual information, and entanglement
detection for the induced bipartitions.

Throughout, the leading block of a split occupies the fastest-varying part
of the flat index (the partition map's convention), so a product state
assembled with `product_state([A, B], f)` reduces back to A on the left and
B on the right.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NotHermitian, NotPSD, TraceNotOne, UsageError
from .partition import Factorization, QuditSplit
from .tolerances import HERMITIAN_ATOL, PSD_ATOL, TRACE_ATOL

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# Blocks where a nonnegative partial-transpose spectrum decides separability.
_PPT_DECISIVE = {(2, 2), (2, 3), (3, 2)}


def validate_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check that each (..., N, N) matrix is Hermitian, of unit trace and PSD
    (every check also fails on NaN); return the Hermitian parts and spectra."""
    adjoint = np.conj(np.swapaxes(m, -1, -2))
    herm_gap = float(np.abs(m - adjoint).max())
    if not herm_gap <= HERMITIAN_ATOL:
        raise NotHermitian(f"max |rho - rho^dagger| = {herm_gap:.3e} exceeds {HERMITIAN_ATOL:.0e}")
    trace_gap = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if not trace_gap <= TRACE_ATOL:
        raise TraceNotOne(f"|Tr rho - 1| = {trace_gap:.3e} exceeds {TRACE_ATOL:.0e}")
    sym = (m + adjoint) / 2.0
    eigenvalues = np.linalg.eigvalsh(sym)
    low = float(eigenvalues.min())
    if not low >= -PSD_ATOL:
        raise NotPSD(f"min eigenvalue = {low:.3e} below -{PSD_ATOL:.0e}")
    return sym, eigenvalues


class DensityMatrix:
    """Validated Hermitian, unit-trace, positive-semidefinite matrix.

    Construction performs the full validation and caches the spectrum.  The
    stored matrix is the Hermitian part (m + m^dagger)/2 of the input, which
    validation guarantees is within HERMITIAN_ATOL of it entrywise; this
    keeps downstream reductions exactly Hermitian.
    """

    __slots__ = ("matrix", "dim", "eigenvalues")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UsageError(f"density matrix must be square, got shape {m.shape}")
        sym, eigenvalues = validate_stack(m)
        sym.flags.writeable = False
        eigenvalues.flags.writeable = False
        self.matrix = sym
        self.dim = int(m.shape[0])
        self.eigenvalues = eigenvalues

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def validate(matrix) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positive semidefiniteness."""
    return DensityMatrix(matrix)


@dataclass(frozen=True, eq=False)
class ReshapedState:
    """A density matrix reinterpreted through a partition, by reference.

    The reshaped element at ((x...), (x'...)) is exactly the base entry at
    the composed flat indices; numerically the two matrices are identical.
    """

    base: DensityMatrix
    factorization: Factorization

    def __post_init__(self):
        if self.factorization.total != self.base.dim:
            raise UsageError(
                f"dimension mismatch: factorization total {self.factorization.total} "
                f"!= matrix dimension {self.base.dim}"
            )


# einsum partial traces over a (..., b, a, b', a') block view.
KEEP_LEADING = "...ijil->...jl"
KEEP_TRAILING = "...ijkj->...ik"


def block_view(matrix: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """Reshape (..., N, N) to axes (..., b, a, b', a'): a/a' index the leading
    block (fast), b/b' the trailing block (slow)."""
    return matrix.reshape(*matrix.shape[:-2], d_right, d_left, d_right, d_left)


def _block_view(rs: ReshapedState, split: QuditSplit) -> np.ndarray:
    if split.factorization != rs.factorization:
        raise UsageError("split does not belong to the reshaped state's factorization")
    return block_view(rs.base.matrix, split.dim_left, split.dim_right)


def partial_trace_right(rs: ReshapedState, split: QuditSplit) -> DensityMatrix:
    """Reduced state of the leading block: rho(1)_{a,a'} = sum_b rho_{(a,b),(a',b)}."""
    return DensityMatrix(np.einsum(KEEP_LEADING, _block_view(rs, split)))


def partial_trace_left(rs: ReshapedState, split: QuditSplit) -> DensityMatrix:
    """Reduced state of the trailing block: rho(2)_{b,b'} = sum_a rho_{(a,b),(a,b')}."""
    return DensityMatrix(np.einsum(KEEP_TRAILING, _block_view(rs, split)))


def spectral_entropy(eigenvalues: np.ndarray):
    """Entropy in nats of (..., N) spectra, the [-PSD_ATOL, 0) slack zeroed."""
    return _kernels.shannon(np.where(eigenvalues < 0.0, 0.0, eigenvalues))


def von_neumann_entropy(state: DensityMatrix) -> float:
    """-Tr rho ln rho over the clamped spectrum, in nats."""
    return spectral_entropy(state.eigenvalues)


def mutual_quantum_information(rs: ReshapedState, split: QuditSplit) -> float:
    """S(rho_left) + S(rho_right) - S(rho); nonnegative by subadditivity."""
    s_left = von_neumann_entropy(partial_trace_right(rs, split))
    s_right = von_neumann_entropy(partial_trace_left(rs, split))
    return s_left + s_right - von_neumann_entropy(rs.base)


def linear_entropy(rs: ReshapedState, split: QuditSplit) -> float:
    """1 - Tr(rho_right^2); zero iff the trailing reduction is pure."""
    reduced = partial_trace_left(rs, split).matrix
    purity = float(np.einsum("ij,ji->", reduced, reduced).real)
    return 1.0 - purity


def partial_transpose_right(rs: ReshapedState, split: QuditSplit) -> np.ndarray:
    """Transpose the trailing-block indices; the result may fail PSD."""
    block = _block_view(rs, split)
    n = rs.base.dim
    return block.transpose(2, 1, 0, 3).reshape(n, n)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the partial-transpose test.

    `witness_value` is the most negative partial-transpose eigenvalue; a
    value below tolerance certifies entanglement.  A nonnegative spectrum
    proves separability only for 2x2, 2x3, and 3x2 blocks; elsewhere the
    verdict is `inconclusive`.
    """

    status: str  # "separable" | "entangled" | "inconclusive"
    witness_value: float


def separability_test(rs: ReshapedState, split: QuditSplit) -> SeparabilityVerdict:
    """Partial-transpose criterion across the split."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose_right(rs, split))
    witness = float(eigenvalues.min())
    if witness < -PSD_ATOL:
        status = "entangled"
    elif (split.dim_left, split.dim_right) in _PPT_DECISIVE:
        status = "separable"
    else:
        status = "inconclusive"
    return SeparabilityVerdict(status=status, witness_value=witness)


def correlation_matrix(rs: ReshapedState, split: QuditSplit) -> np.ndarray:
    """T_ij = Tr(rho sigma_i x sigma_j) for two-dimensional blocks, with
    sigma_i acting on the leading block."""
    if split.dim_left != 2 or split.dim_right != 2:
        raise UsageError(
            f"both blocks must be two-dimensional, got {split.dim_left}x{split.dim_right}"
        )
    rho = rs.base.matrix
    t = np.empty((3, 3))
    for i, left in enumerate(_PAULIS):
        for j, right in enumerate(_PAULIS):
            # The leading block is the fast index, so it sits second in kron.
            t[i, j] = float(np.trace(rho @ np.kron(right, left)).real)
    return t


def chsh_max(rs: ReshapedState, split: QuditSplit) -> float:
    """Maximal CHSH value 2 sqrt(t1^2 + t2^2) over the two largest singular
    values of the correlation matrix; above 2 certifies Bell violation."""
    t = correlation_matrix(rs, split)
    singulars = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(float(singulars[0]) ** 2 + float(singulars[1]) ** 2)


def product_state(factors, factorization: Factorization | None = None) -> np.ndarray:
    """Assemble rho_{y,y'} = prod_k A^(k)_{x_k, x'_k} through the index map.

    The first factor occupies the fastest-varying index, so each successive
    factor is kron'ed on the left.  Returns a raw array; wrap in
    DensityMatrix to validate.
    """
    out = np.array([[1.0 + 0.0j]])
    dims = []
    for a in factors:
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError(f"factors must be square matrices, got shape {a.shape}")
        dims.append(a.shape[0])
        out = np.kron(a, out)
    if factorization is not None and tuple(dims) != factorization.dims:
        raise UsageError(
            f"factor dimensions {tuple(dims)} do not match factorization {factorization.dims}"
        )
    return out
