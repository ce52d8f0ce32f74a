"""Invertible map between a flat index y in 1..N and a multi-index over
factored dimensions (X1, ..., XM) with N = X1 * ... * XM.

The first coordinate varies fastest:

    y = x1 + sum_{k>=2} (x_k - 1) * X1 * ... * X_{k-1}

All external indices are 1-based; the 0-based mixed-radix digits are an
internal detail.  The map is order-sensitive: (2, 3) and (3, 2) decompose
the same y differently.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class Factorization:
    """Ordered subsystem dimensions; `total` is the flat range they span.

    A single-dimension factorization is accepted but marks the trivial
    partition: every correlation analysis needs at least two axes.
    """

    dims: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims:
            raise DomainError("a factorization needs at least one dimension")
        for axis, d in enumerate(dims, start=1):
            if int(d) != d or int(d) < 1:
                raise DomainError(f"dimension X{axis} = {d!r}, must be an integer >= 1")
        dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total", math.prod(dims))

    @property
    def num_axes(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class MultiIndex:
    """Coordinates (x1, ..., xM), 1-based, tied to their factorization."""

    coords: tuple[int, ...]
    factorization: Factorization

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        dims = self.factorization.dims
        if len(coords) != len(dims):
            raise DomainError(
                f"expected {len(dims)} coordinates, got {len(coords)}"
            )
        for axis, (c, d) in enumerate(zip(coords, dims), start=1):
            if not 1 <= c <= d:
                raise DomainError(f"coordinate x{axis} = {c} outside 1..{d}")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class QuditSplit:
    """Bipartition of a factorization into the leading s axes and the rest."""

    factorization: Factorization
    s: int

    def __post_init__(self):
        m = self.factorization.num_axes
        if not 1 <= self.s < m:
            raise DomainError(f"split point s = {self.s} outside 1..{m - 1}")

    @property
    def dim_left(self) -> int:
        return math.prod(self.factorization.dims[: self.s])

    @property
    def dim_right(self) -> int:
        return math.prod(self.factorization.dims[self.s:])


def compose(index: MultiIndex) -> int:
    """Flatten a multi-index to y in 1..N (first coordinate fastest)."""
    y, stride = 1, 1
    for c, d in zip(index.coords, index.factorization.dims):
        y += (c - 1) * stride
        stride *= d
    return y


def decompose(y: int, factorization: Factorization) -> MultiIndex:
    """Invert `compose`: mixed-radix digits of y - 1, reported 1-based.

    For two axes this reproduces the explicit mod formulas with the
    representative of y mod X1 taken in {1, ..., X1}.
    """
    if not 1 <= y <= factorization.total:
        raise DomainError(f"flat index {y} outside 1..{factorization.total}")
    rem = int(y) - 1
    coords = []
    for d in factorization.dims:
        coords.append(rem % d + 1)
        rem //= d
    # The digits are in range by construction, so skip MultiIndex's checks.
    index = object.__new__(MultiIndex)
    object.__setattr__(index, "coords", tuple(coords))
    object.__setattr__(index, "factorization", factorization)
    return index


def split_index(y: int, split: QuditSplit) -> tuple[int, int]:
    """Group a flat index into (left, right) composite indices across a split.

    Both outputs are 1-based; the pair is bijective in y with the left
    composite varying fastest, matching `compose`.
    """
    total = split.factorization.total
    if not 1 <= y <= total:
        raise DomainError(f"flat index {y} outside 1..{total}")
    left = split.dim_left
    return (int(y) - 1) % left + 1, (int(y) - 1) // left + 1
