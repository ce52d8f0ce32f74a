"""Entropy kernels shared by the classical, quantum, and tomographic layers.

All functions reduce over the last axis of (..., N) float arrays: one
vector gives a float, a stack gives one value per row.  They use natural
logarithms, treat 0*ln(0) as 0, and signal a diverging relative entropy
with inf rather than NaN so that inequality verdicts stay decidable.
"""

import numpy as np


def _reduced(terms: np.ndarray):
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def shannon(values: np.ndarray):
    return -_reduced(values * np.log(np.where(values > 0.0, values, 1.0)))


def tsallis(values: np.ndarray, q: float):
    return (_reduced(np.where(values > 0.0, values, 0.0) ** q) - 1.0) / (1.0 - q)


def _support(p: np.ndarray, r: np.ndarray):
    """Where P charges a point R also charges, and where R vanishes under P."""
    mask = p > 0.0
    inside = mask & (r > 0.0)
    return inside, mask & ~inside


def relative_shannon(p: np.ndarray, r: np.ndarray):
    inside, holes = _support(p, r)
    terms = p * np.log(np.where(inside, p, 1.0) / np.where(inside, r, 1.0))
    terms[holes] = np.inf
    return _reduced(terms)


def relative_tsallis(p: np.ndarray, r: np.ndarray, q: float):
    inside, holes = _support(p, r)
    # For q < 1 a vanishing reference weight contributes 0 (r**(1-q) -> 0).
    terms = np.where(inside, p, 0.0) ** q * np.where(inside, r, 1.0) ** (1.0 - q)
    if q > 1.0:
        terms[holes] = np.inf
    return (_reduced(terms) - 1.0) / (q - 1.0)
