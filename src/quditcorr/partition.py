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

import numpy as np

from .errors import DomainError, UsageError


def integer(value, what: str, positive: bool = False) -> int:
    """int(value) if it is integral (2.0, np.int64(2)) and >= 1 if `positive`; else DomainError."""
    try:
        whole = int(value) == value and (value >= 1 or not positive)
    except (TypeError, ValueError, OverflowError):  # None, NaN, +-inf, "a"
        whole = False
    if not whole:
        raise DomainError(f"{what} = {value!r}, must be an integer" + (" >= 1" if positive else ""))
    return int(value)


def real(value, what: str) -> float:
    """float(value); a string ("0.5", as `integer` refuses "2") or a value float() refuses
    (None, 1j, 10**400) raises DomainError."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} = {value!r}, must be a real number") from None


def numeric_array(values, dtype, what: str, copy: bool = False) -> np.ndarray:
    """np.array(values, dtype) if `copy`, else np.asarray; content it refuses ("a", object(),
    ragged rows), text it would parse ("0.5", as `real` refuses it) and None raise UsageError."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "OSU":  # text or objects: numpy's own refusal comes first
            converted = np.asarray(values, dtype=dtype)
            if array.dtype.kind != "O" or any(isinstance(v, (str, bytes)) for v in array.flat):
                raise TypeError("strings are not numbers")
            if any(v is None for v in array.flat):
                raise TypeError("None is not a number")
            array = converted
        return (np.array if copy else np.asarray)(array, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{what} must be an array of numbers: {exc}") from None


def integers(values, what: str) -> tuple:
    """tuple(values) for an argument that must be a sequence; a scalar raises UsageError."""
    try:
        return tuple(values)
    except TypeError:
        raise UsageError(f"{what} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class Factorization:
    """Ordered subsystem dimensions; `total` is the flat range they span.

    A single-dimension factorization is accepted but marks the trivial
    partition: every correlation analysis needs at least two axes.
    """

    dims: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        dims = integers(self.dims, "dims")
        if not dims:
            raise DomainError("a factorization needs at least one dimension")
        dims = tuple(integer(d, f"dimension X{k}", positive=True) for k, d in enumerate(dims, 1))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total", math.prod(dims))

    @property
    def num_axes(self) -> int:
        return len(self.dims)

    def check_total(self, size: int, what: str) -> None:
        """Raise UsageError unless the dims span exactly the `size` levels of `what`."""
        if self.total != size:
            raise UsageError(
                f"dimension mismatch: factorization total {self.total} != {what} {size}"
            )


@dataclass(frozen=True)
class MultiIndex:
    """Coordinates (x1, ..., xM), 1-based, tied to their factorization."""

    coords: tuple[int, ...]
    factorization: Factorization

    def __post_init__(self):
        coords = integers(self.coords, "coords")
        coords = tuple(integer(c, f"coordinate x{axis}") for axis, c in enumerate(coords, 1))
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
        dims = self.factorization.dims
        if len(dims) < 2:
            raise DomainError(f"a split needs at least two axes, got dims {dims}")
        object.__setattr__(self, "s", integer(self.s, "split point s"))
        if not 1 <= self.s < len(dims):
            raise DomainError(f"split point s = {self.s} outside 1..{len(dims) - 1}")

    def check_belongs(self, factorization: Factorization, what: str) -> None:
        """Raise UsageError unless this split is of `what`'s factorization."""
        if self.factorization != factorization:
            raise UsageError(f"split does not belong to the {what}'s factorization")

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
    y = integer(y, "flat index")
    if not 1 <= y <= factorization.total:
        raise DomainError(f"flat index {y} outside 1..{factorization.total}")
    rem = y - 1
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
    total, y = split.factorization.total, integer(y, "flat index")
    if not 1 <= y <= total:
        raise DomainError(f"flat index {y} outside 1..{total}")
    left = split.dim_left
    return (y - 1) % left + 1, (y - 1) // left + 1
