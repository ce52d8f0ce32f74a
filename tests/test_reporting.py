import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quditcorr._version import __version__
from quditcorr.reporting import CheckRecord, Report, check, holds, jsonable

# allow_nan=False still draws +-inf, -0.0 and subnormals.
finite_or_inf = st.floats(allow_nan=False)
# Report keys go through str(), so 1, 1.0, True and "1" may collide; the later one wins.
keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
float_rows = st.lists(finite_or_inf, max_size=6)


class _Level(IntEnum):
    LOW = -1
    HIGH = 2**40


class _Label(str):
    pass


@dataclass
class _Inner:
    value: object


@dataclass
class _Outer:
    name: str
    array: np.ndarray
    inner: _Inner


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite_or_inf,
    st.text(),  # includes non-ASCII code points
    st.complex_numbers(allow_nan=False),
    finite_or_inf.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.sampled_from(_Level),
    st.text().map(_Label),
    float_rows,
    arrays(np.float64, st.integers(0, 6), elements=finite_or_inf),
    arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3)), elements=finite_or_inf),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.builds(_Outer, st.text(), arrays(np.float64, st.integers(0, 3), elements=finite_or_inf),
                  st.builds(_Inner, children)),
    ),
    max_leaves=25,
)
checks = st.lists(
    st.builds(CheckRecord, name=st.text(), value=finite_or_inf, holds=st.booleans(),
              tolerance=finite_or_inf),
    max_size=3,
)


def _report(results, checks=()) -> Report:
    return Report(request={"subcommand": "test"}, seed=None, results=results, checks=list(checks))


def _reference(report: Report) -> str:
    payload = {
        "tool": {"name": "quditcorr", "version": __version__},
        "request": report.request,
        "seed": report.seed,
        "results": report.results,
        "checks": report.checks,
    }
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(values, checks)
def test_render_matches_json_dumps_of_jsonable(results, records):
    report = _report({"value": results}, records)
    assert report.render() == _reference(report)


_NAN_LEAVES = st.sampled_from([
    math.nan,
    np.float64("nan"),
    complex(0.5, math.nan),
    [0.25, math.nan],
    np.array([0.5, math.nan]),
    np.array([[1.0, 0.0], [math.nan, 0.0]]),
    _Inner(math.nan),
])


def _around(poisoned):
    """A list or dict holding a poisoned value among clean ones."""
    return st.one_of(
        st.tuples(st.lists(values, max_size=2), poisoned, st.lists(values, max_size=2)).map(
            lambda t: [*t[0], t[1], *t[2]]
        ),
        st.tuples(st.dictionaries(keys, values, max_size=2), keys, poisoned).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
    )


@settings(max_examples=100, deadline=None)
@given(st.recursive(_NAN_LEAVES, _around, max_leaves=4))
def test_nan_anywhere_raises_like_jsonable(poisoned):
    report = _report({"value": poisoned})
    with pytest.raises(ValueError, match="refusing to serialize NaN") as rendered:
        report.render()
    with pytest.raises(ValueError) as reference:
        _reference(report)
    assert str(rendered.value) == str(reference.value)


def test_keys_equal_after_str_keep_the_later_value():
    results = {1: "a", "1": "b", "2": "c", 2: "d", None: "e", "None": "f"}
    report = _report(results)
    text = report.render()
    assert text == _reference(report)
    assert text.count('"1": ') == 1
    assert json.loads(text)["results"] == {"1": "b", "2": "d", "None": "f"}


@pytest.mark.parametrize("value", [
    {1, 2},
    frozenset(),
    object(),
    np.datetime64("2017-12-22"),
    CheckRecord,  # a dataclass type, not an instance
    [0.5, _Inner({"x": {3}})],
    {"b": math.nan, "a": {1}},  # the first bad value in insertion order, not in key order
    {"b": {1}, "a": math.nan},
])
def test_bad_values_raise_like_jsonable(value):
    report = _report({"value": value})
    with pytest.raises((TypeError, ValueError)) as rendered:
        report.render()
    with pytest.raises((TypeError, ValueError)) as reference:
        _reference(report)
    assert type(rendered.value) is type(reference.value)
    assert str(rendered.value) == str(reference.value)


def test_layout():
    text = _report({"b": [1.5, -math.inf], "a": {2: "é", "10": []}, "c": 1j}).render()
    assert json.loads(text)["results"] == {
        "a": {"10": [], "2": "é"},
        "b": [1.5, "-inf"],
        "c": {"im": 1.0, "re": 0.0},
    }
    assert '\n    "b": [\n      1.5,\n      "-inf"\n    ],' in text
    assert '"2": "\\u00e9"' in text


_TOL = 1e-10


def test_check_margin_edge_is_inclusive():
    assert check("m", -_TOL, _TOL).holds
    assert not check("m", np.nextafter(-_TOL, -math.inf), _TOL).holds


@pytest.mark.parametrize(
    "low, high", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.log(4)), (0.5, 0.5)]
)
def test_check_nan_never_holds(low, high):
    assert not check("nan", math.nan, _TOL, low, high).holds


def test_check_infinite_margins():
    assert check("m", math.inf, _TOL).holds
    assert not check("m", -math.inf, _TOL).holds


@pytest.mark.parametrize("target", [-0.5, 0.5, 2.0 * math.sqrt(2.0)])
def test_check_closed_form_window(target):
    low, high = target - _TOL, target + _TOL
    assert check("t", low, _TOL, target, target).holds
    assert check("t", high, _TOL, target, target).holds
    assert not check("t", np.nextafter(low, -math.inf), _TOL, target, target).holds
    assert not check("t", np.nextafter(high, math.inf), _TOL, target, target).holds


def test_check_record_fields():
    record = check("ceiling", np.float64(2e-10), _TOL, -math.inf, 0.0)
    assert record == CheckRecord("ceiling", 2e-10, False, _TOL)
    assert type(record.holds) is bool


_WINDOWS = [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.log(4)),
            *((target, target) for target in (-0.5, 0.5, 2.0 * math.sqrt(2.0)))]


@pytest.mark.parametrize("low, high", _WINDOWS)
def test_holds_on_arrays_equals_check_elementwise(low, high):
    edges = [low - _TOL, high + _TOL]
    values = np.array([-_TOL, np.nextafter(-_TOL, -math.inf), math.inf, -math.inf, math.nan,
                       *edges, np.nextafter(edges[0], -math.inf), np.nextafter(edges[1], math.inf),
                       0.0, 1.0, -1.0]).reshape(3, 4)
    verdicts = holds(values, _TOL, low, high)
    assert verdicts.dtype == bool and verdicts.shape == values.shape
    assert verdicts.tolist() == [[check("v", v, _TOL, low, high).holds for v in row]
                                 for row in values.tolist()]
    assert not verdicts.flat[4]  # NaN
    assert verdicts.flat[5] and verdicts.flat[6]  # both edges are inclusive
    if (low, high) == (0.0, math.inf):  # the defaults are a margin
        assert verdicts.flat[:4].tolist() == [True, False, True, False]
        assert np.array_equal(holds(values, _TOL), verdicts)
