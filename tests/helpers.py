"""Independent oracles shared by the test modules.

These re-derive results with plain loops over composed indices or dense
angle grids, deliberately avoiding the library's vectorized paths, so each
comparison is dual-route.
"""

import math
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from quditcorr import Factorization, MultiIndex, QuditSplit, compose, decompose, split_index
from quditcorr._kernels import split_entropies
from quditcorr.classical import probability_rows
from quditcorr.errors import UsageError
from quditcorr.fuzz import blocks, draw_products, split_mutual_information
from quditcorr.io import _numbers, _read_json
from quditcorr.quantum import block_reductions, stack_spectra
from quditcorr.tomography import Direction


def shannon_ref(values) -> float:
    """Plain-Python Shannon entropy in nats."""
    return -sum(v * math.log(v) for v in values if v > 0.0)


def tsallis_ref(values, q: float) -> float:
    """Plain-Python Tsallis entropy (1 - sum p^q) / (q - 1)."""
    return (1.0 - sum(v**q for v in values if v > 0.0)) / (q - 1.0)


def all_coords(dims):
    """Every 1-based coordinate tuple over `dims` (any order)."""
    return iter_product(*[range(1, d + 1) for d in dims])


def split_marginals_ref(probs, split: QuditSplit) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (left, right) block marginals: each P(y) goes to the composite
    pair (a, b) = split_index(y, split), and every bin is summed exactly with fsum."""
    left = [[] for _ in range(split.dim_left)]
    right = [[] for _ in range(split.dim_right)]
    for y, p in enumerate(probs, start=1):
        a, b = split_index(y, split)
        left[a - 1].append(p)
        right[b - 1].append(p)
    return np.array([math.fsum(v) for v in left]), np.array([math.fsum(v) for v in right])


def conditional_information_ref(probs, dims, blocks) -> float:
    """I(1:3|2) = S(12) + S(23) - S(123) - S(2) in nats, with the axes grouped into
    three consecutive blocks of `blocks` axes: each P(y) is added, by its decomposed
    coordinates, to the marginals of blocks 1-2, 2-3 and 2."""
    f = Factorization(tuple(dims))
    b1, b2, _ = blocks
    sums = ({}, {}, {})  # p12, p23, p2 keyed by the kept coordinates
    for y, p in enumerate(probs, start=1):
        coords = decompose(y, f).coords
        for table, kept in zip(sums, (coords[: b1 + b2], coords[b1:], coords[b1 : b1 + b2])):
            table.setdefault(kept, []).append(p)
    p12, p23, p2 = ([math.fsum(v) for v in table.values()] for table in sums)
    return shannon_ref(p12) + shannon_ref(p23) - shannon_ref(probs) - shannon_ref(p2)


def brute_force_reduction(rho: np.ndarray, dims, s: int, keep: str) -> np.ndarray:
    """Partial trace by explicit summation over composed flat indices.

    keep='left' keeps axes 1..s and sums the rest; keep='right' mirrors it.
    """
    f = Factorization(tuple(dims))
    left_dims, right_dims = f.dims[:s], f.dims[s:]
    kept_dims = left_dims if keep == "left" else right_dims
    summed_dims = right_dims if keep == "left" else left_dims
    kept_f = Factorization(kept_dims)
    size = kept_f.total
    out = np.zeros((size, size), dtype=complex)
    for i in range(1, size + 1):
        a = decompose(i, kept_f).coords
        for k in range(1, size + 1):
            ap = decompose(k, kept_f).coords
            total = 0.0 + 0.0j
            for b in all_coords(summed_dims):
                if keep == "left":
                    y = compose(MultiIndex(a + b, f))
                    yp = compose(MultiIndex(ap + b, f))
                else:
                    y = compose(MultiIndex(b + a, f))
                    yp = compose(MultiIndex(b + ap, f))
                total += rho[y - 1, yp - 1]
            out[i - 1, k - 1] = total
    return out


def chsh_grid_oracle(t_matrix: np.ndarray, n_theta: int = 5, n_phi: int = 20):
    """Dense grid search over the first party's two measurement directions,
    with the second party's optimum taken in closed form.

    Returns (best value, number of direction pairs examined).
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    directions = np.array(
        [
            [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
            for t in thetas
            for p in phis
        ]
    )
    mapped = directions @ t_matrix
    best = 0.0
    for row in mapped:
        combined = np.linalg.norm(row + mapped, axis=1) + np.linalg.norm(row - mapped, axis=1)
        best = max(best, float(combined.max()))
    return best, len(mapped) ** 2


@lru_cache(maxsize=None)
def ordered_factorizations(n: int) -> tuple:
    """All ordered tuples of factors >= 2 with product n (() for n = 1)."""
    if n == 1:
        return ((),)
    out = []
    for d in range(2, n + 1):
        if n % d == 0:
            out.extend((d,) + rest for rest in ordered_factorizations(n // d))
    return tuple(out)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Raw Ginibre density matrix (kept here so tests do not depend on the
    package's sampling module for oracle inputs)."""
    g = rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def load_direction_grid_ref(path) -> np.ndarray:
    """The grid file read one entry at a time: its form, its numbers (io._numbers) and a
    Direction built from them, whose angles are read off as one (n, 3) row."""
    data, booleans = _read_json(path)
    if not isinstance(data, list) or not data:
        raise UsageError(f"{path}: expected a nonempty JSON array of directions")
    rows = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "theta" not in entry or "phi" not in entry:
            raise UsageError(f"{path}: entry {k} must carry 'theta' and 'phi'")
        angles = [entry["theta"], entry["phi"], entry.get("psi", 0.0)]
        what = f"entry {k} has a non-numeric angle"
        direction = Direction(*_numbers(path, angles, what, booleans, (3,)))
        rows.append([direction.theta, direction.phi, direction.psi])
    return np.array(rows)


def wigner_d_full(rep, theta) -> np.ndarray:
    """exp(i theta Jy) as the full factor product (q cos(theta omega) + turn
    sin(theta omega)) q^T over every row, without the mirror symmetry."""
    q, turn, omega = rep._factors
    angles = np.multiply.outer(theta, omega)[..., None, :]
    return (q * np.cos(angles) + turn * np.sin(angles)) @ q.T


def n_dot_j_tomogram(rho: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Spin tomogram read off the eigenvectors of n.J, without any rotation
    matrix.  `rho` is in the |m> basis with m descending; eigh returns the
    eigenvalues ascending, so the result is ordered m = -j first."""
    dim = rho.shape[0]
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    raising = np.zeros((dim, dim))
    for k in range(1, dim):
        raising[k - 1, k] = math.sqrt(j * (j + 1.0) - m[k] * (m[k] + 1.0))
    jx = (raising + raising.T) / 2.0
    jy = (raising - raising.T) / 2.0j
    n_dot_j = (
        math.sin(theta) * math.cos(phi) * jx
        + math.sin(theta) * math.sin(phi) * jy
        + math.cos(theta) * np.diag(m)
    )
    _, vectors = np.linalg.eigh(n_dot_j)
    return np.array([(vectors[:, k].conj() @ rho @ vectors[:, k]).real for k in range(dim)])


def quantum_margin_per_split(block) -> np.ndarray:
    """The fuzz quantum family's margins, one dimension class and one split
    point at a time: each (class, split) group takes the spectra of its own two
    reduced stacks through `stack_spectra`, as quantum_margin does per reduced
    dimension, and its states' joint entropies.

    It checks the batching (one spectra stack per reduced dimension, slots
    scattered back per sample and split); `brute_force_reduction` checks the
    reduction itself, against `block_reductions`."""
    dims, classes = block
    d_left = np.cumprod(dims, axis=1)[:, :-1]
    has_split = np.arange(1, dims.shape[1]) < (dims > 1).sum(axis=1)[:, None]
    out = np.zeros(d_left.shape)
    for rows, states, spectra in classes:
        for dl in sorted(set(d_left[rows][has_split[rows]].tolist())):
            sample, split = np.nonzero((d_left[rows] == dl) & has_split[rows])
            reduced = [stack_spectra(m) for m in block_reductions(states[sample], dl)]
            out[rows[sample], split] = split_entropies(*reduced, spectra[sample])[3]
    return out[has_split]


def product_mutual_abs_max(rng: np.random.Generator, count: int) -> float:
    """max |I| over `count` product distributions drawn from `rng`, BLOCK at a time: the
    separate product pass that ran after the fuzz table before the product became one of
    its families, kept as the reference that family's minimum margin must negate."""
    worst = -math.inf
    for _, left, right in blocks(rng, count, draw_products):
        joint = probability_rows((right[:, :, None] * left[:, None, :]).reshape(len(left), 36))
        mutual = split_mutual_information(joint, np.full(len(left), 6))
        worst = max(worst, float(np.abs(mutual).max()))
    return worst
