"""File formats: probability vectors, density matrices, direction grids.

Density matrices travel as {"dim": N, "re": [[...]], "im": [[...]]} with
row-major N x N arrays; the writer emits floats via repr, which round-trips
exactly.  Probability vectors come from a JSON array (.json) or one value
per line (anything else).  Direction grids are JSON arrays of
{"theta": ..., "phi": ..., "psi": optional}.
"""

import json
from pathlib import Path

import numpy as np

from .classical import ProbabilityVector
from .errors import UsageError
from .quantum import DensityMatrix, validate
from .tomography import Direction


def _read(path: Path, parse=str):
    """parse(text of the UTF-8 file); a decoding error names the file."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _read_json(path: Path):
    """(parsed JSON of the UTF-8 file, whether its text holds a 't' or an 'f').
    A JSON true or false puts one there, so without either no value is one."""
    return _read(path, lambda text: (json.loads(text), "t" in text or "f" in text))


def _refuse_booleans(value) -> None:
    """Raise TypeError if `value` is a JSON true or false, or a list nesting
    one: numpy and float() would read it as 1 or 0."""
    if value is True or value is False:
        raise TypeError("true and false are not numbers")
    if isinstance(value, list):
        for v in value:
            _refuse_booleans(v)


def _real(value) -> float:
    """float(value), refusing a JSON true or false."""
    _refuse_booleans(value)
    return float(value)


def load_probability_vector(path) -> ProbabilityVector:
    path = Path(path)
    if path.suffix.lower() == ".json":
        data, may_hold_booleans = _read_json(path)
        if not isinstance(data, list):
            raise UsageError(f"{path}: expected a JSON array of probabilities")
        try:
            if may_hold_booleans:
                _refuse_booleans(data)
            values = np.array(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{path}: probabilities must be numeric: {exc}") from None
    else:
        values = []
        for line_number, line in enumerate(_read(path).splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise UsageError(f"{path}:{line_number}: not a number: {line!r}") from None
    if not len(values):
        raise UsageError(f"{path}: no probabilities found")
    return ProbabilityVector(values)


def load_density_matrix(path) -> DensityMatrix:
    path = Path(path)
    data, may_hold_booleans = _read_json(path)
    if not isinstance(data, dict) or "re" not in data:
        raise UsageError(f"{path}: expected an object with 'dim' and 're'/'im' arrays")
    try:
        if may_hold_booleans:
            _refuse_booleans([data["re"], data.get("im")])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
        declared = None if data.get("dim") is None else _real(data["dim"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: 'dim', 're' and 'im' must be numeric: {exc}") from None
    if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise UsageError(f"{path}: 're' and 'im' must be matching square matrices")
    if declared is not None and declared != re.shape[0]:  # a fractional dim never matches
        raise UsageError(f"{path}: declared dim {data['dim']} != matrix dimension {re.shape[0]}")
    return validate(re + 1.0j * im)


def density_matrix_payload(state: DensityMatrix) -> dict:
    """JSON-ready form of a density matrix (exact float round-trip)."""
    return {
        "dim": state.dim,
        "re": [[float(v) for v in row] for row in state.matrix.real],
        "im": [[float(v) for v in row] for row in state.matrix.imag],
    }


def write_density_matrix(state: DensityMatrix, path) -> None:
    """Write json.dumps(density_matrix_payload(state), indent=2, sort_keys=True)
    and a newline, one matrix row at a time: the JSON module's pure-Python
    indenting encoder would build one string per entry."""
    with open(path, "w") as out:
        out.write(f'{{\n  "dim": {state.dim},')
        for key, part, close in (("im", state.matrix.imag, ","), ("re", state.matrix.real, "")):
            out.write(f'\n  "{key}": [')
            for k, row in enumerate(part):
                entries = ",\n      ".join(map(float.__repr__, row.tolist()))
                out.write(f'{"," if k else ""}\n    [\n      {entries}\n    ]')
            out.write(f"\n  ]{close}")
        out.write("\n}\n")


def load_direction_grid(path) -> list[Direction]:
    path = Path(path)
    data = _read(path, json.loads)
    if not isinstance(data, list) or not data:
        raise UsageError(f"{path}: expected a nonempty JSON array of directions")
    grid = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "theta" not in entry or "phi" not in entry:
            raise UsageError(f"{path}: entry {k} must carry 'theta' and 'phi'")
        try:
            theta, phi = _real(entry["theta"]), _real(entry["phi"])
            psi = _real(entry.get("psi", 0.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"{path}: entry {k} has a non-numeric angle: {exc}") from None
        grid.append(Direction(theta=theta, phi=phi, psi=psi))
    return grid
