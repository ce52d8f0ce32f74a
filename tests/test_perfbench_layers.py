"""Every function the traced benchmark run wraps still exists under its name.

perfbench/tracing.py names the traced functions in its LAYERS table; a
renamed or deleted one makes the traced run raise AttributeError. The
benchmark's own tests are not collected here, so this guard is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


_NAMES = [
    (module_name, func_name)
    for module_name, funcs, _, _ in _layers().values()
    for func_name in funcs
]


@pytest.mark.parametrize("module_name, func_name", _NAMES, ids=[f"{m}.{f}" for m, f in _NAMES])
def test_traced_name_resolves(module_name, func_name):
    module = importlib.import_module(module_name)
    if func_name == "eigvalsh":
        # Traced through the numpy module the package module binds.
        owner = module.np.linalg
    else:
        owner = module
        *path, func_name = func_name.split(".")
        for name in path:
            owner = getattr(owner, name)
    assert callable(getattr(owner, func_name))
