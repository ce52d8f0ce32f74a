"""File formats: probability vectors, density matrices, direction grids.

Density matrices travel as {"dim": N, "re": [[...]], "im": [[...]]} with
row-major N x N arrays; the writer emits floats via repr, which round-trips
exactly.  Probability vectors come from a JSON array (.json) or one value
per line (anything else).  Direction grids are JSON arrays of
{"theta": ..., "phi": ..., "psi": optional}, loaded as one (n, 3) array of
checked angles.
"""

import json
from pathlib import Path

import numpy as np

from .classical import ProbabilityVector
from .errors import UsageError
from .quantum import DensityMatrix, validate
from .reporting import _render
from .tomography import check_angles


def _read(path: Path, parse=str):
    """parse(text of the UTF-8 file); a decoding error, or JSON nested deeper than the
    parser recurses, names the file."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}") from None


class _Constant(str):
    """A JSON NaN, Infinity or -Infinity, which json.loads accepts; _numbers refuses it."""


def _read_json(path: Path):
    """(parsed JSON of the UTF-8 file, whether its text holds "true" or "false").  A letter is
    found faster than a word, so each word is looked for only where its first letter is."""
    return _read(path, lambda text: (json.loads(text, parse_constant=_Constant),
                                     ("t" in text and "true" in text)
                                     or ("f" in text and "false" in text)))


def _numbers(path: Path, value, what: str, booleans: bool, shape=None) -> np.ndarray:
    """`value`, parsed from the JSON file `path`, as a finite float array (of `shape` if
    given); anything else raises UsageError(f"{path}: {what}: {cause}"). numpy would read a
    JSON true, false, null, string or _Constant (NaN, Infinity) as a number, so they are looked
    for: true and false if the text may hold one, the rest if numpy reads objects or text."""
    try:
        array = np.array(value)
        stack = [value] if booleans or array.dtype.kind in "OU" else []
        while stack:  # an explicit stack copes with any depth the parser accepts
            item = stack.pop()
            if isinstance(item, list):
                stack.extend(item)
            elif item is True or item is False:
                raise TypeError("true and false are not numbers")
            elif item is None:
                raise TypeError("null is not a number")
            elif isinstance(item, _Constant):
                raise TypeError(f"{item} is not a number")
            elif isinstance(item, str):
                raise TypeError("strings are not numbers")
        if shape is not None and array.shape != shape:
            raise TypeError(f"expected shape {shape}, got {array.shape}")
        array = array.astype(float, copy=False)
        if not np.isfinite(array).all():  # json.loads reads 1e400 as inf
            raise ValueError("a number beyond the float range is not a finite number")
        return array
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path}: {what}: {exc}") from None


def load_probability_vector(path) -> ProbabilityVector:
    path = Path(path)
    if path.suffix.lower() == ".json":
        data, booleans = _read_json(path)
        if not isinstance(data, list):
            raise UsageError(f"{path}: expected a JSON array of probabilities")
        values = _numbers(path, data, "probabilities must be numeric", booleans)
    else:
        values, lines = [], _read(path).splitlines()
        for line_number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise UsageError(f"{path}:{line_number}: not a number: {line!r}") from None
        values = np.array(values, dtype=float)  # floats: one pass, no search for text
        finite = np.isfinite(values)
        if not finite.all():
            numbered = [(n, line.strip()) for n, line in enumerate(lines, 1) if line.strip()]
            line_number, line = numbered[int(finite.argmin())]
            raise UsageError(f"{path}:{line_number}: not a finite number: {line!r}")
    if not len(values):
        raise UsageError(f"{path}: no probabilities found")
    return ProbabilityVector(values)


def read_density_matrix(path) -> np.ndarray:
    """The complex matrix in the file, checked for form but not validated as a state."""
    path = Path(path)
    data, booleans = _read_json(path)
    if not isinstance(data, dict) or "re" not in data:
        raise UsageError(f"{path}: expected an object with 'dim' and 're'/'im' arrays")
    what = "'dim', 're' and 'im' must be numeric"
    re = _numbers(path, data["re"], what, booleans)
    im = _numbers(path, data["im"], what, booleans) if "im" in data else np.zeros_like(re)
    declared = None if data.get("dim") is None else _numbers(path, data["dim"], what, booleans, ())
    if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise UsageError(f"{path}: 're' and 'im' must be matching square matrices")
    if declared is not None and declared != re.shape[0]:  # a fractional dim never matches
        raise UsageError(f"{path}: declared dim {data['dim']} != matrix dimension {re.shape[0]}")
    return re + 1.0j * im


def load_density_matrix(path) -> DensityMatrix:
    """read_density_matrix(path), validated as a state (quantum.validate)."""
    return validate(read_density_matrix(path))


def density_matrix_payload(matrix: np.ndarray) -> dict:
    """JSON-ready form of an N x N matrix (exact float round-trip)."""
    return {"dim": len(matrix), "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def write_density_matrix(state: DensityMatrix, path) -> None:
    """Write json.dumps(density_matrix_payload(state.matrix), indent=2, sort_keys=True) and a
    newline, one matrix row at a time, each through the report renderer.  Rendering the
    payload as one string gives the same bytes, but its traced peak grows as N^2: about
    20 MB at N = 256, against 0.05 MB streamed."""
    with open(path, "w") as out:
        out.write(f'{{\n  "dim": {state.dim},')
        for key, part, close in (("im", state.matrix.imag, ","), ("re", state.matrix.real, "")):
            out.write(f'\n  "{key}": [')
            for k, row in enumerate(part):
                out.write(("," if k else "") + "\n    " + _render(row.tolist(), "\n    "))
            out.write(f"\n  ]{close}")
        out.write("\n}\n")


def load_direction_grid(path) -> np.ndarray:
    """The (n, 3) float array of the file's checked (theta, phi, psi) rows, psi 0 if absent, in
    one pass; only a refused file is read entry by entry, so that the first bad entry is named."""
    path = Path(path)
    data, booleans = _read_json(path)
    if not isinstance(data, list) or not data:
        raise UsageError(f"{path}: expected a nonempty JSON array of directions")
    try:  # a non-object entry refuses the index, and an object without a key raises KeyError
        rows = [[entry["theta"], entry["phi"], entry.get("psi", 0.0)] for entry in data]
        grid = _numbers(path, rows, "angles", booleans, (len(rows), 3))
    except (TypeError, KeyError, UsageError):  # entry by entry: form, numbers, then ranges
        grid = []
        for k, entry in enumerate(data):
            if not isinstance(entry, dict) or "theta" not in entry or "phi" not in entry:
                raise UsageError(f"{path}: entry {k} must carry 'theta' and 'phi'") from None
            angles = [entry["theta"], entry["phi"], entry.get("psi", 0.0)]
            what = f"entry {k} has a non-numeric angle"
            grid.append(check_angles(*_numbers(path, angles, what, booleans, (3,))))
        grid = np.array(grid)
    check_angles(*grid.T)  # entry-major, so the first entry out of range is named
    return grid
