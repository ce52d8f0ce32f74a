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


def load_probability_vector(path) -> ProbabilityVector:
    path = Path(path)
    if path.suffix.lower() == ".json":
        data = json.loads(path.read_text())
        if not isinstance(data, list):
            raise UsageError(f"{path}: expected a JSON array of probabilities")
        values = data
    else:
        values = []
        for line_number, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise UsageError(f"{path}:{line_number}: not a number: {line!r}") from None
    if not values:
        raise UsageError(f"{path}: no probabilities found")
    return ProbabilityVector(values)


def load_density_matrix(path) -> DensityMatrix:
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "re" not in data:
        raise UsageError(f"{path}: expected an object with 'dim' and 're'/'im' arrays")
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
        declared = None if data.get("dim") is None else int(data["dim"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: 'dim', 're' and 'im' must be numeric: {exc}") from None
    if re.shape != im.shape or re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise UsageError(f"{path}: 're' and 'im' must be matching square matrices")
    if declared is not None and declared != re.shape[0]:
        raise UsageError(f"{path}: declared dim {declared} != matrix dimension {re.shape[0]}")
    return validate(re + 1.0j * im)


def density_matrix_payload(state: DensityMatrix) -> dict:
    """JSON-ready form of a density matrix (exact float round-trip)."""
    return {
        "dim": state.dim,
        "re": [[float(v) for v in row] for row in state.matrix.real],
        "im": [[float(v) for v in row] for row in state.matrix.imag],
    }


def write_density_matrix(state: DensityMatrix, path) -> None:
    Path(path).write_text(json.dumps(density_matrix_payload(state), indent=2, sort_keys=True) + "\n")


def load_direction_grid(path) -> list[Direction]:
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, list) or not data:
        raise UsageError(f"{path}: expected a nonempty JSON array of directions")
    grid = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "theta" not in entry or "phi" not in entry:
            raise UsageError(f"{path}: entry {k} must carry 'theta' and 'phi'")
        try:
            theta, phi = float(entry["theta"]), float(entry["phi"])
            psi = float(entry.get("psi", 0.0))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{path}: entry {k} has a non-numeric angle: {exc}") from None
        grid.append(Direction(theta=theta, phi=phi, psi=psi))
    return grid
