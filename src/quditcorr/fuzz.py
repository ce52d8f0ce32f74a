"""Randomized verification of every inequality family on stacked draws.

A family is a check name, a draw (a block of inputs, each row checked as its
scalar constructor checks it), a margin (one value per sample, or per sample
and split) and the tolerance its minimum is judged against.  Families that
share a draw see the same inputs.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from ._kernels import relative_shannon, relative_tsallis, shannon
from .classical import probability_rows
from .partition import Factorization
from .quantum import KEEP_LEADING, KEEP_TRAILING, block_view, spectral_entropy, validate_stack
from .qubit_qutrit import qubit_matrices, qutrit_distributions, xy_distributions, zx_distributions
from .sampling import bloch_ball_stack, dirichlet_rows, ginibre_densities, random_directions
from .sampling import random_factorizations
from .tolerances import QUANTUM_MUTUAL_ATOL, SUBADDITIVITY_ATOL
from .tomography import marginal_pair, rotations, spin_rep, split_information, tomogram_values

BLOCK = 256  # samples per stack; 1000-sample stacks raise peak RSS by about 2.5 MB
_TWO_QUBITS = Factorization((2, 2))  # the tomographic family's spin 3/2


def _present(values: np.ndarray) -> np.ndarray:
    """Distinct nonnegative ints, ascending; np.unique would import numpy.ma."""
    return np.flatnonzero(np.bincount(values))


class Family(NamedTuple):
    name: str
    draw: Callable  # (rng, size) -> block
    margin: Callable  # block -> 1-D array of margins
    tolerance: float


def split_mutual_information(joint: np.ndarray, d_left: np.ndarray) -> np.ndarray:
    """S(left) + S(right) - S(joint) of zero-padded flat rows whose leading
    block, of size d_left per row, is the fast index; marginals are checked."""
    size, width = joint.shape
    y, base = np.arange(width), np.arange(size)[:, None] * width
    marginals = (
        np.bincount((base + index).ravel(), joint.ravel(), size * width).reshape(size, width)
        for index in (y % d_left[:, None], y // d_left[:, None])
    )
    return sum(shannon(probability_rows(m)) for m in marginals) - shannon(joint)


def draw_classical(rng, size):
    """(dims, split, P): N <= 64 factorizations, a split of each, P(y) padded to 64."""
    dims = random_factorizations(rng, size, max_total=64)
    splits = rng.integers(1, (dims > 1).sum(axis=1))
    return dims, splits, dirichlet_rows(rng, dims.prod(axis=1), 64)


def classical_margin(block):
    dims, splits, joint = block
    d_left = np.cumprod(dims, axis=1)[np.arange(len(dims)), splits - 1]
    return split_mutual_information(joint, d_left)


def draw_products(rng, size):
    """(sizes, left, right): flat-Dirichlet factors of 2..6 outcomes, padded to 6."""
    sizes = rng.integers(2, 7, size=(size, 2))
    return sizes, dirichlet_rows(rng, sizes[:, 0], 6), dirichlet_rows(rng, sizes[:, 1], 6)


def product_mutual_abs(block):
    """|I| of left(x1) right(x2) laid out on the 6 x 6 grid, whose padding is zero."""
    _, left, right = block
    joint = probability_rows((right[:, :, None] * left[:, None, :]).reshape(len(left), 36))
    return np.abs(split_mutual_information(joint, np.full(len(left), 6)))


def draw_quantum(rng, size):
    """(dims, classes): N <= 16 factorizations and (rows, states, spectra) per N."""
    dims = random_factorizations(rng, size, max_total=16, max_axes=3)
    totals = dims.prod(axis=1)
    rows = [np.flatnonzero(totals == n) for n in _present(totals)]
    return dims, [(r, *ginibre_densities(rng, r.size, int(totals[r[0]]))) for r in rows]


def quantum_margin(block):
    """Mutual information at every split of every state, sample-major."""
    dims, classes = block
    d_left = np.cumprod(dims, axis=1)[:, :-1]
    has_split = np.arange(1, dims.shape[1]) < (dims > 1).sum(axis=1)[:, None]
    out = np.zeros(d_left.shape)
    for rows, states, spectra in classes:
        for dl in _present(d_left[rows][has_split[rows]]):
            sample, split = np.nonzero((d_left[rows] == dl) & has_split[rows])
            blocks = block_view(states[sample], int(dl), states.shape[-1] // int(dl))
            s_left, s_right = (spectral_entropy(validate_stack(np.einsum(keep, blocks))[1])
                               for keep in (KEEP_LEADING, KEEP_TRAILING))
            out[rows[sample], split] = s_left + s_right - spectral_entropy(spectra[sample])
    return out[has_split]


def draw_qubits(rng, size):
    """(p, states): Bloch-ball probabilities and their checked 2x2 matrices."""
    p = bloch_ball_stack(rng, size)
    return p, validate_stack(qubit_matrices(p))[0]


def draw_qutrits(rng, size):
    return ginibre_densities(rng, size, 3)[0]


def draw_tomographic(rng, size):
    """(states, theta, phi): checked spin-3/2 Ginibre states and directions."""
    return (ginibre_densities(rng, size, 4)[0], *random_directions(rng, size))


def tomographic_margin(block):
    states, theta, phi = block
    values, _ = tomogram_values(rotations(spin_rep(1.5), theta, phi), states)
    return split_information(*marginal_pair(values, _TWO_QUBITS), values)


def family_table(qs) -> list[Family]:
    """Every family, in draw order; each Tsallis q > 1 adds a qutrit row."""
    tol = SUBADDITIVITY_ATOL
    return [
        Family("classical_subadditivity", draw_classical, classical_margin, tol),
        Family("quantum_mutual_information", draw_quantum, quantum_margin, QUANTUM_MUTUAL_ATOL),
        Family("qubit_zx", draw_qubits, lambda b: relative_shannon(*zx_distributions(b[1])), tol),
        Family("qubit_xy", draw_qubits, lambda b: relative_shannon(*xy_distributions(b[1])), tol),
        Family("qutrit_shannon", draw_qutrits,
               lambda m: relative_shannon(*qutrit_distributions(m)), tol),
        *(Family(f"qutrit_tsallis_q={tq.q:g}", draw_qutrits,
                 lambda m, q=tq.q: relative_tsallis(*qutrit_distributions(m), q), tol)
          for tq in qs if tq.q > 1.0),
        Family("tomographic_information", draw_tomographic, tomographic_margin, tol),
    ]


def blocks(rng, count: int, draw):
    """`count` samples from `draw`, BLOCK at a time."""
    for start in range(0, count, BLOCK):
        yield draw(rng, min(BLOCK, count - start))


def run_families(rng, count: int, table: list[Family]):
    """Per family, the minimum finite margin and the number of infinite ones
    over `count` samples; then max |I| over `count` product distributions."""
    margins: dict[str, float] = {}
    infinities: dict[str, int] = {}
    for draw in dict.fromkeys(family.draw for family in table):
        for block in blocks(rng, count, draw):
            for family in (f for f in table if f.draw is draw):
                values = family.margin(block)
                infinite = np.isinf(values)
                if infinite.any():
                    infinities[family.name] = infinities.get(family.name, 0) + int(infinite.sum())
                if not infinite.all():
                    low = float(values[~infinite].min())
                    margins[family.name] = min(margins.get(family.name, math.inf), low)
    products = blocks(rng, count, draw_products)
    return margins, infinities, max(float(product_mutual_abs(b).max()) for b in products)
