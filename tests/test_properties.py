"""Property tests: the partition map, marginals and partial traces against the
loop-based oracles in helpers.py, on hypothesis-drawn layouts."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from helpers import all_coords, brute_force_reduction, random_density
from quditcorr import (
    Factorization,
    JointView,
    MultiIndex,
    ProbabilityVector,
    QuditSplit,
    ReshapedState,
    compose,
    decompose,
    marginal,
    partial_trace_left,
    partial_trace_right,
    validate,
)


def layouts(max_axes: int, max_total: int):
    """Dimension tuples of 1..max_axes axes of size 1..5 spanning at most max_total."""
    dims = st.lists(st.integers(1, 5), min_size=1, max_size=max_axes)
    return dims.filter(lambda d: math.prod(d) <= max_total).map(tuple)


@settings(max_examples=40, deadline=None)
@given(layouts(4, 120))
def test_compose_decompose_bijection(dims):
    f = Factorization(dims)
    seen = set()
    for coords in all_coords(dims):
        y = compose(MultiIndex(coords, f))
        assert 1 <= y <= f.total
        assert decompose(y, f).coords == coords
        seen.add(y)
    assert seen == set(range(1, f.total + 1))


@settings(max_examples=40, deadline=None)
@given(layouts(4, 120), st.data())
def test_marginal_against_loop(dims, data):
    f = Factorization(dims)
    probs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(f.total))
    kept = sorted(data.draw(st.sets(st.integers(1, len(dims)), min_size=1)))
    kept_f = Factorization(tuple(dims[k - 1] for k in kept))
    expected = np.zeros(kept_f.total)
    for coords in all_coords(dims):
        z = compose(MultiIndex(tuple(coords[k - 1] for k in kept), kept_f))
        expected[z - 1] += probs[compose(MultiIndex(coords, f)) - 1]
    got = marginal(JointView(ProbabilityVector(probs), f), kept).probs
    assert np.abs(got - expected).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(layouts(3, 16).filter(lambda d: len(d) >= 2), st.data())
def test_partial_traces_against_loop(dims, data):
    f = Factorization(dims)
    s = data.draw(st.integers(1, len(dims) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rho = validate(random_density(rng, f.total))
    rs, split = ReshapedState(rho, f), QuditSplit(f, s)
    left = brute_force_reduction(rho.matrix, dims, s, "left")
    right = brute_force_reduction(rho.matrix, dims, s, "right")
    assert np.abs(partial_trace_right(rs, split).matrix - left).max() <= 1e-12
    assert np.abs(partial_trace_left(rs, split).matrix - right).max() <= 1e-12
