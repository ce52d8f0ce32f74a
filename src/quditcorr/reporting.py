"""Verdicts and report assembly.

`holds` judges every inequality the library checks, and `check` records a verdict with its
tolerance.  Rendering is deterministic (sorted keys, repr floats, no timestamps) so that
identical request + seed produces a byte-identical report.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from ._version import __version__


@dataclass
class CheckRecord:
    name: str
    value: float
    holds: bool
    tolerance: float


def holds(value, tolerance: float, low=0.0, high=math.inf):
    """The verdict `low - tolerance <= value <= high + tolerance`, elementwise: a margin by
    default, a ceiling with low = -inf, a closed form with low = high. A NaN never holds."""
    return (low - tolerance <= value) & (value <= high + tolerance)


def check(name: str, value, tolerance: float, low=0.0, high=math.inf) -> CheckRecord:
    """The record of `holds` for one value."""
    return CheckRecord(name, value, bool(holds(value, tolerance, low, high)), tolerance)


def jsonable(obj):
    """Recursively convert report values to JSON-safe types.

    Infinities become the strings "inf"/"-inf" (the divergence flag);
    complex numbers become {"re": ..., "im": ...}.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("refusing to serialize NaN into a report")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if is_dataclass(obj):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def json_line(obj) -> str:
    """json.dumps(jsonable(obj), sort_keys=True) for str-keyed obj: through the C encoder
    when obj holds only JSON types and finite floats, and through jsonable when that
    raises, so that infinities and the NaN refusal keep jsonable's rules."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        return json.dumps(jsonable(obj), sort_keys=True)


def _render(obj, pad: str) -> str:
    """json.dumps(jsonable(obj), indent=2, sort_keys=True) in one pass, by exact type
    first and isinstance after, visiting values in jsonable's order so that bad input
    fails alike; `pad` is a newline plus the indentation of obj's line."""
    kind = type(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind is str:
        return _quote(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    inner = pad + "  "
    separator = "," + inner
    if kind is dict:
        if not obj:
            return "{}"
        entries = {str(k): _render(v, inner) for k, v in obj.items()}  # a later str(k) wins
        body = separator.join(f"{_quote(k)}: {v}" for k, v in sorted(entries.items()))
        return "{" + inner + body + pad + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        try:
            body = separator.join(map(float.__repr__, obj))
            flat = "n" not in body  # every entry a finite float: no "inf" or "nan"
        except TypeError:
            flat = False
        if not flat:
            body = separator.join([_render(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), pad)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):  # an IntEnum member, say: json.dumps writes int.__repr__
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):  # np.float64 among them
        return float.__repr__(obj)
    if is_dataclass(obj) and not isinstance(obj, type):  # asdict without its deep copy
        return _render({f.name: getattr(obj, f.name) for f in fields(obj)}, pad)
    # Infinities, NaN, complex and numpy scalars, container subclasses.
    return _render(jsonable(obj), pad)


@dataclass
class Report:
    request: dict
    seed: int | None
    results: dict
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def render(self) -> str:
        payload = {
            "tool": {"name": "quditcorr", "version": __version__},
            "request": self.request,
            "seed": self.seed,
            "results": self.results,
            "checks": self.checks,
        }
        return _render(payload, "\n") + "\n"
