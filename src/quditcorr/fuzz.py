"""Randomized verification of every inequality family on stacked draws.

A family is a check name, a draw (a block of inputs, each row checked as its
scalar constructor checks it), a margin (one value per sample, or per sample
and split) and the tolerance its minimum is judged against.  Families that
share a draw see the same inputs.  An equality family's margin is
-|deviation| from its exact value.

Samples are drawn BLOCK at a time, one call per stage (draw, check, reduction,
entropy) per block, and `run_families` frees each family block before it draws
the next, so a run holds one such block whatever its count.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from ._kernels import relative_shannon, relative_tsallis, shannon, split_entropies
from .classical import block_marginals, probability_rows
from .errors import DomainError
from .quantum import block_reductions, certify_stack, stack_spectra
from .qubit_qutrit import qubit_matrices, qutrit_distributions, xy_distributions, zx_distributions
from .sampling import bloch_ball_stack, dirichlet_rows, ginibre_densities, ginibre_states
from .sampling import random_directions, random_factorizations
from .tolerances import PRODUCT_MUTUAL_ATOL, QUANTUM_MUTUAL_ATOL, SUBADDITIVITY_ATOL
from .tomography import spin_rep, tomogram_diagonals, tomogram_values

# Samples per stack.  At --count 1000, 512 against 256 halves the calls per sample and
# runs about 12 % more samples per second, for a traced peak of 1.9 against 0.9 MB
# (about +0.8 MB peak RSS); 1000 would peak at 3.2 MB, one block per draw, none freed.
BLOCK = 512


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
    return split_entropies(*(probability_rows(m) for m in marginals), joint)[3]


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


def product_margin(block):
    """-|I| of left(x1) right(x2) laid out on the 6 x 6 grid, whose padding is zero."""
    _, left, right = block
    joint = probability_rows((right[:, :, None] * left[:, None, :]).reshape(len(left), 36))
    return -np.abs(split_mutual_information(joint, np.full(len(left), 6)))


def draw_quantum(rng, size):
    """(dims, classes): N <= 16 factorizations and (rows, states, spectra) per N."""
    dims = random_factorizations(rng, size, max_total=16, max_axes=3)
    totals = dims.prod(axis=1)
    rows = [np.flatnonzero(totals == n) for n in _present(totals)]
    return dims, [(r, *ginibre_densities(rng, r.size, int(totals[r[0]]))) for r in rows]


def quantum_margin(block):
    """Mutual information at every split of every state, sample-major; the entropies of
    the reduced states, which are not checked again, are taken in one stack per dimension."""
    dims, classes = block
    d_left = np.cumprod(dims, axis=1)[:, :-1]
    has_split = np.arange(1, dims.shape[1]) < (dims > 1).sum(axis=1)[:, None]
    entropies = np.zeros((3, *d_left.shape))  # S1, S2, S12 per (sample, split)
    stacks: dict[int, list] = {}  # reduced dimension -> [(flat slots, matrices)]
    for rows, states, spectra in classes:
        entropies[2, rows] = shannon(spectra)[:, None]
        for dl in _present(d_left[rows][has_split[rows]]):
            sample, split = np.nonzero((d_left[rows] == dl) & has_split[rows])
            for side, reduced in enumerate(block_reductions(states[sample], int(dl))):
                slots = np.ravel_multi_index((side, rows[sample], split), entropies.shape)
                stacks.setdefault(reduced.shape[-1], []).append((slots, reduced))
    for parts in stacks.values():
        slots, matrices = zip(*parts)
        entropies.flat[np.concatenate(slots)] = shannon(stack_spectra(np.concatenate(matrices)))
    return (entropies[0] + entropies[1] - entropies[2])[has_split]


def draw_qubits(rng, size):
    """Checked 2x2 matrices built from Bloch-ball probabilities."""
    return certify_stack(qubit_matrices(bloch_ball_stack(rng, size)))


def draw_qutrits(rng, size):
    return ginibre_states(rng, size, 3)


def draw_tomographic(rng, size):
    """(states, theta, phi): checked spin-3/2 Ginibre states and directions."""
    return (ginibre_states(rng, size, 4), *random_directions(rng, size))


def tomographic_margin(block):
    """Mutual tomographic information of each state at its own direction, split 2 x 2; the
    block is one slab of the tomogram kernel, so each margin equals the scalar API's."""
    states, theta, phi = block
    values, _ = tomogram_values(tomogram_diagonals(spin_rep(1.5), theta, phi, states))
    return split_entropies(*map(probability_rows, block_marginals(values, 2)), values)[3]


def family_table(qs) -> list[Family]:
    """Every family, in draw order; each Tsallis q > 1 adds a qutrit row.  The product
    row, for which I = 0 exactly, comes last, so the other draws keep their stream."""
    tol = SUBADDITIVITY_ATOL
    return [
        Family("classical_subadditivity", draw_classical, classical_margin, tol),
        Family("quantum_mutual_information", draw_quantum, quantum_margin, QUANTUM_MUTUAL_ATOL),
        Family("qubit_zx", draw_qubits, lambda m: relative_shannon(*zx_distributions(m)), tol),
        Family("qubit_xy", draw_qubits, lambda m: relative_shannon(*xy_distributions(m)), tol),
        Family("qutrit_shannon", draw_qutrits,
               lambda m: relative_shannon(*qutrit_distributions(m)), tol),
        *(Family(f"qutrit_tsallis_q={tq.label}", draw_qutrits,
                 lambda m, q=tq.q: relative_tsallis(*qutrit_distributions(m), q), tol)
          for tq in qs if tq.gated),
        Family("tomographic_information", draw_tomographic, tomographic_margin, tol),
        Family("classical_product", draw_products, product_margin, PRODUCT_MUTUAL_ATOL),
    ]


def blocks(rng, count: int, draw):
    """`count` samples from `draw`, BLOCK at a time."""
    for start in range(0, count, BLOCK):
        yield draw(rng, min(BLOCK, count - start))


def run_families(rng, count: int, table: list[Family]):
    """Per family, the minimum finite margin and the number of infinite ones
    over `count` samples.  A NaN margin raises DomainError."""
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
                    if math.isnan(low):  # NaN is neither counted nor minimized
                        raise DomainError(f"{family.name}: {int(np.isnan(values).sum())} of "
                                          f"{values.size} margins in a block are NaN")
                    margins[family.name] = min(margins.get(family.name, math.inf), low)
            del block  # so the next draw runs with no block alive
    return margins, infinities
