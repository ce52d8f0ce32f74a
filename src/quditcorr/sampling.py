"""Seeded random generators for property sweeps and the fuzz harness.

Every function takes a numpy Generator so that a single recorded seed
replays an entire sweep byte-for-byte.
"""

import math

import numpy as np

from .classical import ProbabilityVector
from .partition import Factorization
from .quantum import DensityMatrix
from .qubit_qutrit import QubitProbabilities
from .tomography import Direction


def dirichlet_probabilities(rng: np.random.Generator, size: int) -> ProbabilityVector:
    """Flat-Dirichlet sample over `size` outcomes."""
    return ProbabilityVector(rng.dirichlet(np.ones(size)))


def random_factorization(
    rng: np.random.Generator, max_total: int = 64, max_axes: int = 4
) -> Factorization:
    """Random dims with at least two axes and product at most `max_total`."""
    while True:
        num_axes = int(rng.integers(2, max_axes + 1))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=num_axes))
        if math.prod(dims) <= max_total:
            return Factorization(dims)


def ginibre_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or rank-limited) density matrix G G^dagger / Tr."""
    g = rng.standard_normal((dim, rank or dim)) + 1.0j * rng.standard_normal((dim, rank or dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def bloch_ball_probabilities(rng: np.random.Generator) -> QubitProbabilities:
    """Uniform sample of (p1, p2, p3) over the Bloch ball."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    radius = rng.random() ** (1.0 / 3.0)
    x, y, z = radius * direction
    return QubitProbabilities(p1=(1.0 + x) / 2.0, p2=(1.0 + y) / 2.0, p3=(1.0 + z) / 2.0)


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform measurement direction on the sphere (psi = 0)."""
    cos_theta = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return Direction(theta=math.acos(cos_theta), phi=min(phi, 2.0 * math.pi * (1 - 1e-16)))
