"""Seeded random generators for property sweeps and the fuzz harness.

Every function takes a numpy Generator so that a single recorded seed
replays an entire sweep byte-for-byte.
"""

import functools
import itertools
import math

import numpy as np

from .classical import ProbabilityVector, probability_rows
from .partition import Factorization
from .quantum import DensityMatrix, certify_stack, validate_stack
from .qubit_qutrit import QubitProbabilities, bloch_probabilities
from .tomography import Direction, check_angles

_PHI_MAX = 2.0 * math.pi * (1 - 1e-16)  # keeps a rounded-up draw inside [0, 2 pi)


def dirichlet_probabilities(rng: np.random.Generator, size: int) -> ProbabilityVector:
    """Flat-Dirichlet sample over `size` outcomes."""
    return ProbabilityVector(rng.dirichlet(np.ones(size)))


def dirichlet_rows(rng: np.random.Generator, sizes: np.ndarray, width: int) -> np.ndarray:
    """Checked flat-Dirichlet samples, one row per size, zero-padded to `width`."""
    draws = rng.standard_exponential((len(sizes), width)) * (np.arange(width) < sizes[:, None])
    return probability_rows(draws / draws.sum(axis=1, keepdims=True))


@functools.cache
def _factorization_table(max_total: int, max_axes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every row of 2..max_axes axes of 2..6 with product at most `max_total`, padded with 1s,
    and cumulative weights 5^(max_axes - k) for k axes: the law of redrawing until it fits."""
    rows = np.array([axes + (1,) * (max_axes - k) for k in range(2, max_axes + 1)
                     for axes in itertools.product(range(2, 7), repeat=k)
                     if math.prod(axes) <= max_total])
    return rows, np.cumsum(5 ** (max_axes - (rows > 1).sum(axis=1)))


def random_factorizations(
    rng: np.random.Generator, count: int, max_total: int = 64, max_axes: int = 4
) -> np.ndarray:
    """(count, max_axes) dims: at least two axes of 2..6 with product at most
    `max_total`, padded with 1s; one exact table draw per row."""
    rows, cumulative = _factorization_table(max_total, max_axes)
    return rows[np.searchsorted(cumulative, rng.integers(cumulative[-1], size=count), "right")]


def random_factorization(
    rng: np.random.Generator, max_total: int = 64, max_axes: int = 4
) -> Factorization:
    """Random dims with at least two axes and product at most `max_total`."""
    dims = random_factorizations(rng, 1, max_total, max_axes)[0]
    return Factorization(tuple(int(d) for d in dims if d > 1))


def _ginibre(rng: np.random.Generator, shape: tuple, dim: int, rank: int) -> np.ndarray:
    g = np.empty((*shape, dim, rank), dtype=complex)
    g.real = rng.standard_normal(g.shape)
    g.imag = rng.standard_normal(g.shape)
    m = g @ np.swapaxes(g.conj(), -1, -2)
    return np.divide(m, np.trace(m, axis1=-2, axis2=-1)[..., None, None], out=m)


def ginibre_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or rank-limited) density matrix G G^dagger / Tr."""
    return DensityMatrix(_ginibre(rng, (), dim, rank or dim))


def ginibre_densities(rng: np.random.Generator, count: int, dim: int):
    """A stack of `count` checked full-rank Ginibre states and their spectra."""
    return validate_stack(_ginibre(rng, (count,), dim, dim))


def ginibre_states(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """The states of ginibre_densities, certified without taking their spectra."""
    return certify_stack(_ginibre(rng, (count,), dim, dim))


def bloch_ball_stack(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) checked (p1, p2, p3), uniform over the Bloch ball."""
    direction = rng.standard_normal((count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return bloch_probabilities((1.0 + rng.random((count, 1)) ** (1.0 / 3.0) * direction) / 2.0)


def bloch_ball_probabilities(rng: np.random.Generator) -> QubitProbabilities:
    """Uniform sample of (p1, p2, p3) over the Bloch ball."""
    return QubitProbabilities(*bloch_ball_stack(rng, 1)[0].tolist())


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform measurement direction on the sphere (psi = 0)."""
    cos_theta = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return Direction(theta=math.acos(cos_theta), phi=min(phi, _PHI_MAX))


def random_directions(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked (theta, phi) arrays of `count` uniform directions (psi = 0)."""
    cos_theta = rng.uniform(-1.0, 1.0, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return check_angles(np.arccos(cos_theta), np.minimum(phi, _PHI_MAX), 0.0)[:2]
