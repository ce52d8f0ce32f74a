"""Independent recomputation of the numbers the benchmark checks.

Each route differs from the package's own: partial traces sum explicit
diagonal blocks instead of an einsum over a reshaped view, marginals use a
Fortran-order reshape instead of the package's reversed C-order one, and a
tomogram is read off the eigenvectors of n.J instead of the Euler-angle
rotation u rho u^dagger.
"""

import math

import numpy as np


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def tsallis(p, q: float) -> float:
    p = np.asarray(p, dtype=float)
    return float(((p[p > 0.0] ** q).sum() - 1.0) / (1.0 - q))


def von_neumann(matrix) -> float:
    return shannon(np.linalg.eigh(matrix)[0])


def reduced_states(matrix, dim_left: int, dim_right: int):
    """(rho_left, rho_right) for a split whose left block indexes fastest."""
    left = sum(matrix[b * dim_left:(b + 1) * dim_left, b * dim_left:(b + 1) * dim_left]
               for b in range(dim_right))
    right = sum(matrix[a::dim_left, a::dim_left] for a in range(dim_left))
    return left, right


def density_summary(matrix, dims, split: int) -> dict[str, float]:
    """S, S_left, S_right and mutual_info of an analyze-dm report."""
    dim_left = math.prod(dims[:split])
    left, right = reduced_states(matrix, dim_left, matrix.shape[0] // dim_left)
    s, s_left, s_right = von_neumann(matrix), von_neumann(left), von_neumann(right)
    return {"S": s, "S_left": s_left, "S_right": s_right,
            "mutual_info": s_left + s_right - s}


def probability_summary(probs, dims, split: int) -> dict[str, float]:
    """S_joint, S_left, S_right and mutual_info of an analyze-prob report."""
    p = np.asarray(probs, dtype=float)
    p = p / p.sum()
    tensor = p.reshape(dims, order="F")  # axis k is x_{k+1}; x_1 is fastest
    axes = range(len(dims))
    left = tensor.sum(axis=tuple(a for a in axes if a >= split))
    right = tensor.sum(axis=tuple(a for a in axes if a < split))
    s, s_left, s_right = shannon(p), shannon(left), shannon(right)
    return {"S_joint": s, "S_left": s_left, "S_right": s_right,
            "mutual_info": s_left + s_right - s}


def spin_operators(dim: int):
    """(Jx, Jy, Jz) in the |m> basis with m descending."""
    j = (dim - 1) / 2.0
    m = j - np.arange(dim)
    raising = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    return (raising + raising.T) / 2.0, (raising - raising.T) / 2.0j, np.diag(m)


def tomogram_record(matrix, theta: float, phi: float, dims, qs) -> dict:
    """Tomogram values (m = -j first), information and Tsallis entries."""
    jx, jy, jz = spin_operators(matrix.shape[0])
    n_dot_j = (math.sin(theta) * math.cos(phi) * jx
               + math.sin(theta) * math.sin(phi) * jy + math.cos(theta) * jz)
    _, vectors = np.linalg.eigh(n_dot_j)  # eigenvalues ascending: m = -j first
    values = (vectors.conj() * (matrix @ vectors)).sum(axis=0).real
    values = np.where(values < 0.0, 0.0, values)
    values = values / values.sum()
    table = values.reshape(dims, order="F")
    first, second = table.sum(axis=1), table.sum(axis=0)
    return {
        "values": values,
        "information": shannon(first) + shannon(second) - shannon(values),
        "tsallis": {f"{q:g}": {"s_q1": tsallis(first, q), "s_q2": tsallis(second, q),
                               "s_q": tsallis(values, q)} for q in qs},
    }
