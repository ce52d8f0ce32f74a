"""Classical correlation diagnostics for a one-variable distribution viewed
as a joint distribution over a partition.

Entropies are in nats throughout.  A diverging relative entropy is reported
as math.inf, never NaN.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConditioningOnNull, DomainError, UsageError
from .partition import Factorization, QuditSplit, integer, integers, numeric_array, real
from .reporting import CheckRecord, check
from .tolerances import PROB_NEG_CLAMP, PROB_SUM_ATOL, SUBADDITIVITY_ATOL


def probability_rows(arr: np.ndarray) -> np.ndarray:
    """Check every row of an (..., N) float array as ProbabilityVector does,
    clamp the noise window to zero and renormalize each row, in place."""
    low = float(arr.min())  # NaN if any entry is NaN
    if low != low:
        raise DomainError("probability vector contains NaN")
    if low < -PROB_NEG_CLAMP:
        raise DomainError(
            f"negative probability {low:.3e} below the -{PROB_NEG_CLAMP:.0e} clamp window"
        )
    arr[arr < 0.0] = 0.0
    totals = arr.sum(axis=-1, keepdims=True)
    gaps = np.abs(totals - 1.0)
    if not gaps.max() <= PROB_SUM_ATOL:
        total = float(totals.flat[gaps.argmax()])
        raise DomainError(f"probabilities sum to {total!r}, not 1 within {PROB_SUM_ATOL:.0e}")
    arr /= totals
    return arr


def block_marginals(rows: np.ndarray, d_left: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (leading, trailing) block sums of (..., N) rows whose leading block of
    d_left levels is the fast index: rows.reshape(..., N // d_left, d_left) summed over -2, -1."""
    blocks = rows.reshape(*rows.shape[:-1], rows.shape[-1] // d_left, d_left)
    return blocks.sum(axis=-2), blocks.sum(axis=-1)


class ProbabilityVector:
    """Normalized nonnegative vector P(y), y = 1..N.

    Entries in [-1e-12, 0) are treated as float ingestion noise: they are
    clamped to zero and the vector is renormalized.  Anything more negative,
    or a total further than 1e-12 from one, is rejected.
    """

    __slots__ = ("probs",)

    def __init__(self, values):
        arr = numeric_array(values, float, "probability vector", copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise UsageError(f"expected a nonempty 1-D vector, got shape {arr.shape}")
        arr = probability_rows(arr)
        arr.flags.writeable = False
        self.probs = arr

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"ProbabilityVector({self.probs.tolist()!r})"


@dataclass(frozen=True, eq=False)
class JointView:
    """A probability vector reinterpreted through a partition, by reference.

    The joint value at (x1, ..., xM) is exactly the base entry at the
    composed flat index; nothing is copied or reweighted.
    """

    base: ProbabilityVector
    factorization: Factorization

    def __post_init__(self):
        self.factorization.check_total(len(self.base), "vector length")

    def tensor(self) -> np.ndarray:
        # C-order reshape lists axes slowest-first, so the axis order is
        # (x_M, ..., x_1); the first partition axis is the fastest index.
        return self.base.probs.reshape(self.factorization.dims[::-1])


@dataclass(frozen=True)
class TsallisParam:
    """Tsallis deformation parameter; the q -> 1 limit is served by the Shannon operations.
    `label` keys report entries; `gated` (q > 1, where the inequalities hold) makes checks."""

    q: float

    def __post_init__(self):
        q = real(self.q, "Tsallis q")
        if not 0.0 < q < np.inf or q == 1.0:
            raise DomainError(f"Tsallis q = {q} must be positive, finite and != 1")
        object.__setattr__(self, "q", q)

    @property
    def label(self) -> str:
        return f"{self.q:g}"

    @property
    def gated(self) -> bool:
        return self.q > 1.0


def _normalize_axes(axes, num_axes: int, what: str) -> tuple[int, ...]:
    out = tuple(integer(a, "axis") for a in integers(axes, what))
    if not out:
        raise UsageError(f"{what} is empty")
    if len(set(out)) != len(out):
        raise UsageError(f"{what} contains duplicate axes: {out}")
    for a in out:
        if not 1 <= a <= num_axes:
            raise DomainError(f"axis {a} outside 1..{num_axes}")
    return tuple(sorted(out))


def marginal(view: JointView, axes) -> ProbabilityVector:
    """Sum the joint view over every axis not in `axes`.

    The result ranges over the kept axes' composite index, kept in their
    original order (first kept axis fastest).
    """
    m = view.factorization.num_axes
    kept = _normalize_axes(axes, m, "axes")
    tensor = view.tensor()
    dropped = tuple(m - k for k in range(1, m + 1) if k not in kept)
    out = tensor.sum(axis=dropped) if dropped else tensor
    return ProbabilityVector(out.ravel())


def conditional(view: JointView, given_axes, target_axes, given_values) -> ProbabilityVector:
    """Bayes ratio p(target | given = values) over the target composite index."""
    m = view.factorization.num_axes
    dims = view.factorization.dims
    given = _normalize_axes(given_axes, m, "given_axes")
    target = _normalize_axes(target_axes, m, "target_axes")
    if set(given) & set(target):
        raise UsageError(f"given and target axes overlap: {sorted(set(given) & set(target))}")
    values = tuple(integer(v, "conditioning value") for v in integers(given_values, "given_values"))
    if len(values) != len(given):
        raise UsageError(
            f"got {len(values)} conditioning values for {len(given)} axes"
        )
    # Pair values with the axes as passed, then evaluate in sorted-axis order.
    pairs = dict(zip(tuple(int(a) for a in given_axes), values))
    for k in given:
        v = pairs[k]
        if not 1 <= v <= dims[k - 1]:
            raise DomainError(f"conditioning value x{k} = {v} outside 1..{dims[k - 1]}")

    index: list[object] = [slice(None)] * m
    for k in given:
        index[m - k] = pairs[k] - 1
    sub = view.tensor()[tuple(index)]
    remaining = [k for k in range(m, 0, -1) if k not in given]
    drop = tuple(pos for pos, k in enumerate(remaining) if k not in target)
    numer = sub.sum(axis=drop) if drop else sub
    total = float(numer.sum())
    if total <= 0.0:
        event = ", ".join(f"x{k}={pairs[k]}" for k in given)
        raise ConditioningOnNull(f"conditioning event ({event}) has zero probability")
    return ProbabilityVector(np.asarray(numer).ravel() / total)


def split_conditionals(view: JointView, split: QuditSplit) -> tuple[list, list]:
    """Both block Bayes tables, p(left | right = b) for b = 1..dim_right and
    p(right | left = a) for a = 1..dim_left: each row is bit for bit what
    `conditional` gives for that event, or None where the event has zero mass."""
    split.check_belongs(view.factorization, "view")
    table = view.base.probs.reshape(split.dim_right, split.dim_left)
    # Contiguous rows, so every row total is the same pairwise sum as in `conditional`.
    return _conditional_rows(table), _conditional_rows(table.T.copy())


def _conditional_rows(table: np.ndarray) -> list:
    totals = table.sum(axis=1)
    live = totals > 0.0
    rows = iter(probability_rows(table[live] / totals[live, None]))
    return [next(rows) if ok else None for ok in live]


def shannon_entropy(p: ProbabilityVector) -> float:
    """-sum P ln P in nats, with 0 ln 0 = 0."""
    return _kernels.shannon(p.probs)


def tsallis_entropy(p: ProbabilityVector, tq: TsallisParam) -> float:
    """(1 / (1 - q)) (sum P^q - 1); recovers the Shannon entropy as q -> 1."""
    return _kernels.tsallis(p.probs, tq.q)


def relative_entropy_shannon(p: ProbabilityVector, r: ProbabilityVector) -> float:
    """sum P ln(P / R); math.inf when P charges a point R does not."""
    if len(p) != len(r):
        raise UsageError(f"length mismatch: {len(p)} vs {len(r)}")
    return _kernels.relative_shannon(p.probs, r.probs)


def relative_entropy_tsallis(p: ProbabilityVector, r: ProbabilityVector, tq: TsallisParam) -> float:
    """(1 / (q - 1)) (sum P^q R^(1-q) - 1); math.inf when q > 1 and R has a
    hole inside P's support."""
    if len(p) != len(r):
        raise UsageError(f"length mismatch: {len(p)} vs {len(r)}")
    return _kernels.relative_tsallis(p.probs, r.probs, tq.q)


@dataclass(frozen=True)
class SubadditivityReport:
    s_left: float
    s_right: float
    s_joint: float
    mutual_info: float
    # The block marginals the entropies were taken from.
    left: ProbabilityVector = field(repr=False, compare=False)
    right: ProbabilityVector = field(repr=False, compare=False)


def subadditivity_report(view: JointView, split: QuditSplit) -> SubadditivityReport:
    """Shannon entropies of the two split blocks and the joint, plus the
    mutual information S_left + S_right - S_joint.

    The report carries no verdict; a caller judges mutual_info with `check`.
    A violation is reported, not raised: it signals corrupted upstream data
    rather than a caller mistake.
    """
    split.check_belongs(view.factorization, "view")
    left, right = map(ProbabilityVector, block_marginals(view.base.probs, split.dim_left))
    s_left, s_right, s_joint, mutual = _kernels.split_entropies(
        left.probs, right.probs, view.base.probs
    )
    return SubadditivityReport(
        s_left=s_left,
        s_right=s_right,
        s_joint=s_joint,
        mutual_info=mutual,
        left=left,
        right=right,
    )


def classical_ssa_check(view: JointView, blocks) -> CheckRecord:
    """Strong subadditivity S(1,2) + S(2,3) >= S(1,2,3) + S(2) for a grouping
    of the axes into three consecutive nonempty blocks: the check record of I(1:3|2).

    `blocks` gives the number of axes in each block and must sum to M.  With d1 and d12
    the levels of blocks 1 and 1-2, p12 leads at d12, p23 trails at d1, p2 trails p12 at d1.
    """
    sizes = tuple(integer(b, "block size") for b in integers(blocks, "blocks"))
    if len(sizes) != 3:
        raise UsageError(f"exactly three blocks required, got {len(sizes)}")
    m = view.factorization.num_axes
    if any(b < 1 for b in sizes) or sum(sizes) != m:
        raise UsageError(f"block sizes {sizes} do not partition {m} axes")
    b1, b2, _ = sizes
    d1, d12 = (QuditSplit(view.factorization, s).dim_left for s in (b1, b1 + b2))
    p12 = probability_rows(block_marginals(view.base.probs, d12)[0])
    p23 = probability_rows(block_marginals(view.base.probs, d1)[1])
    p2 = probability_rows(block_marginals(p12, d1)[1])
    lhs = _kernels.shannon(p12) + _kernels.shannon(p23)
    rhs = _kernels.shannon(view.base.probs) + _kernels.shannon(p2)
    return check("strong_subadditivity", lhs - rhs, SUBADDITIVITY_ATOL)
