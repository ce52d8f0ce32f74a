"""Density-matrix core: validation, the partition-map reshape, partial
traces over split blocks, entropies, mutual information, and entanglement
detection for the induced bipartitions.  `block_reductions`, the twin of
`classical.block_marginals`, is the one density-matrix reduction.

A state is checked once, where it enters: `validate` builds a `DensityMatrix` and
takes its spectrum, and `certify_stack` checks plain (..., N, N) stacks with one Cholesky
factorization.  Its reductions are derived values, and nothing checks them again.

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
from .partition import Factorization, QuditSplit, integers, numeric_array
from .tolerances import HERMITIAN_ATOL, PSD_ATOL, TRACE_ATOL

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# sigma_j x sigma_i (leading block fast, so second in kron), i-major.  Each has one
# nonzero entry per column k, at row _T_ROWS[., k]; Tr(rho P) sums rho[k, row] P[row, k].
_T_KRONS = np.array([np.kron(right, left) for left in _PAULIS for right in _PAULIS])
_T_ROWS = np.abs(_T_KRONS).argmax(axis=1)
_T_PHASES = np.take_along_axis(_T_KRONS, _T_ROWS[:, None], axis=1)[:, 0]

# Blocks where a nonnegative partial-transpose spectrum decides separability.
_PPT_DECISIVE = {(2, 2), (2, 3), (3, 2)}


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """Check that each (..., N, N) matrix is Hermitian and of unit trace (both checks also
    fail on NaN); return the Hermitian parts.  An infinite entry leaves an infinite or NaN gap
    (inf - inf), so the Hermitian check refuses it; a finite one too large to sum is not PSD."""
    adjoint = np.conj(np.swapaxes(m, -1, -2))
    with np.errstate(invalid="ignore", over="ignore"):
        herm_gap = float(np.abs(m - adjoint).max())
        trace_gap = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if not herm_gap <= HERMITIAN_ATOL:
        raise NotHermitian(f"max |rho - rho^dagger| = {herm_gap:.3e} exceeds {HERMITIAN_ATOL:.0e}")
    if not trace_gap <= TRACE_ATOL:
        raise TraceNotOne(f"|Tr rho - 1| = {trace_gap:.3e} exceeds {TRACE_ATOL:.0e}")
    with np.errstate(over="raise"):
        try:
            return (m + adjoint) / 2.0
        except FloatingPointError:  # past about 9e307; a unit-trace PSD matrix has |rho_ij| <= 1
            raise NotPSD("an entry overflows rho + rho^dagger, so rho is not PSD") from None


def _psd_floor(eigenvalues: np.ndarray) -> np.ndarray:
    """Refuse (..., N) spectra with a row whose negative mass -sum_{lambda < 0} lambda =
    (||rho||_1 - Tr rho)/2 exceeds PSD_ATOL (or is NaN); return them.  The trace norm contracts
    under trace-preserving positive maps (Nielsen & Chuang, Thm 9.2), so no reduction, block
    marginal or tomogram row (a pinching after a unitary) of an accepted state carries more."""
    mass = float(np.maximum(-eigenvalues, 0.0).sum(axis=-1).max())
    if not mass <= PSD_ATOL:
        raise NotPSD(f"negative eigenvalue mass = {mass:.3e} exceeds {PSD_ATOL:.0e}")
    return eigenvalues


def validate_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check that each (..., N, N) matrix is Hermitian, of unit trace and PSD
    (every check also fails on NaN); return the Hermitian parts and spectra."""
    sym = _hermitian_part(m)
    return sym, _psd_floor(np.linalg.eigvalsh(sym))


def stack_spectra(m: np.ndarray) -> np.ndarray:
    """eigvalsh(m) for reductions of checked states, which are not checked again; a 2 x 2
    stack takes them in closed form, (a + d)/2 -/+ hypot((a - d)/2, |b|), not per matrix."""
    if m.shape[-1] != 2:
        return np.linalg.eigvalsh(m)
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    mean, radius = (a + d) / 2.0, np.hypot((a - d) / 2.0, np.abs(m[..., 0, 1]))
    return np.stack([mean - radius, mean + radius], axis=-1)


def certify_stack(m: np.ndarray) -> np.ndarray:
    """validate_stack(m)[0], for callers that drop the spectra.

    One stacked Cholesky factorization certifies that every row is positive definite.  It is
    backward stable: a certified row is LL^dagger - E, |E| <= (N + 1) u |L||L^dagger| (Higham,
    Thm 10.3), so its negative mass is at most ||E||_1 <= sqrt(N) (N + 1) u Tr rho, below
    PSD_ATOL for N up to about 9,000, where the eigenvalue check accepts it too.  Only when the
    factorization fails (a singular row, one with negative mass, or a bad one) does that check
    run, so every refusal and its message are validate_stack's.
    """
    sym = _hermitian_part(m)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        _psd_floor(np.linalg.eigvalsh(sym))
    return sym


class DensityMatrix:
    """Validated Hermitian, unit-trace, positive-semidefinite matrix, with its spectrum.

    The stored matrix is the input's Hermitian part (m + m^dagger)/2, within HERMITIAN_ATOL of
    it entrywise, so its reductions are exactly Hermitian and need no check of their own.
    """

    __slots__ = ("matrix", "dim", "eigenvalues")

    def __init__(self, matrix):
        m = numeric_array(matrix, complex, "density matrix")
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
        self.factorization.check_total(self.base.dim, "matrix dimension")


def _blocks(matrices: np.ndarray, d_left: int) -> np.ndarray:
    """(..., N, N) as (..., b, a, b', a'), with a, a' the leading d_left levels (fast)."""
    d_right = matrices.shape[-1] // d_left
    return matrices.reshape(*matrices.shape[:-2], d_right, d_left, d_right, d_left)


def block_reductions(matrices: np.ndarray, d_left: int) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated (leading, trailing) partial traces of (..., N, N) stacks at d_left, the twin
    of classical.block_marginals: sum_b rho_{(a,b),(a',b)} and sum_a rho_{(a,b),(a,b')}."""
    blocks = _blocks(matrices, d_left)
    return np.einsum("...ijil->...jl", blocks), np.einsum("...ijkj->...ik", blocks)


def reductions_and_spectra(state: DensityMatrix, d_left: int):
    """Both block_reductions of a checked state at d_left and their eigvalsh spectra, unchecked:
    each is its own Hermitian part bit for bit, with no more negative mass than the state."""
    reduced = block_reductions(state.matrix, d_left)
    return reduced, tuple(np.linalg.eigvalsh(r) for r in reduced)


def partial_trace_right(rs: ReshapedState, split: QuditSplit) -> DensityMatrix:
    """Reduced state of the leading block: rho(1)_{a,a'} = sum_b rho_{(a,b),(a',b)}."""
    split.check_belongs(rs.factorization, "reshaped state")
    return DensityMatrix(block_reductions(rs.base.matrix, split.dim_left)[0])


def partial_trace_left(rs: ReshapedState, split: QuditSplit) -> DensityMatrix:
    """Reduced state of the trailing block: rho(2)_{b,b'} = sum_a rho_{(a,b),(a,b')}."""
    split.check_belongs(rs.factorization, "reshaped state")
    return DensityMatrix(block_reductions(rs.base.matrix, split.dim_left)[1])


def von_neumann_entropy(state: DensityMatrix) -> float:
    """-Tr rho ln rho in nats; the kernel's mask drops the negative mass (at most PSD_ATOL)."""
    return _kernels.shannon(state.eigenvalues)


def mutual_quantum_information(rs: ReshapedState, split: QuditSplit) -> float:
    """S(rho_left) + S(rho_right) - S(rho); nonnegative by subadditivity."""
    split.check_belongs(rs.factorization, "reshaped state")
    _, spectra = reductions_and_spectra(rs.base, split.dim_left)
    return _kernels.split_entropies(*spectra, rs.base.eigenvalues)[3]


def linear_entropy(rs: ReshapedState, split: QuditSplit) -> float:
    """1 - Tr(rho_right^2); zero iff the trailing reduction is pure."""
    split.check_belongs(rs.factorization, "reshaped state")
    return _linear_entropy(block_reductions(rs.base.matrix, split.dim_left)[1])


def _linear_entropy(reduced: np.ndarray) -> float:
    """1 - Tr(m^2) of a Hermitian matrix."""
    return 1.0 - float(np.einsum("ij,ji->", reduced, reduced).real)


def partial_transpose_right(rs: ReshapedState, split: QuditSplit) -> np.ndarray:
    """Transpose the trailing-block indices; the result may fail PSD."""
    split.check_belongs(rs.factorization, "reshaped state")
    return _blocks(rs.base.matrix, split.dim_left).swapaxes(0, 2).reshape(rs.base.matrix.shape)


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
    """Partial-transpose criterion across the split.  A state P - Q with P PPT (diagonal, say),
    Q PSD and Tr Q <= PSD_ATOL has witness >= -||Q^Gamma||_op >= -Tr Q: never "entangled"."""
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
    split.check_belongs(rs.factorization, "reshaped state")
    if split.dim_left != 2 or split.dim_right != 2:
        raise UsageError(
            f"both blocks must be two-dimensional, got {split.dim_left}x{split.dim_right}"
        )
    terms = rs.base.matrix[np.arange(4), _T_ROWS] * _T_PHASES
    return terms.sum(axis=-1).real.reshape(3, 3)


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
    for a in integers(factors, "factors"):
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
