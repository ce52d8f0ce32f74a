"""Span recorder for the traced run: wraps the public functions of each
quditcorr module and turns the recorded spans into per-layer metrics.

Spans are kept in memory as parallel arrays (one entry per call) and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are strictly nested in this
single-threaded process, so children never overlap.
"""

import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> (module, wrapped functions, end-to-end figure the layer should
# move, workload it should move it on).  A figure that moves also moves the
# bounded work_per_s of its workload.  Classes are traced through
# __init__, "Report.render" through the method, and "eigvalsh" through the
# numpy calls made from quditcorr.quantum.
LAYERS = {
    "cli": ("quditcorr.cli",
            ("main", "_cmd_analyze_prob", "_cmd_analyze_dm", "_cmd_tomogram_sweep",
             "_cmd_demo_four_level", "_cmd_fuzz"),
            "all", "all"),
    "io": ("quditcorr.io",
           ("load_density_matrix", "load_probability_vector", "load_direction_grid",
            "density_matrix_payload"),
           "analyze.latency_p50_s", "analyze"),
    "partition": ("quditcorr.partition", ("Factorization", "decompose", "compose"),
                  "fuzz.samples_per_s", "fuzz"),
    "classical": ("quditcorr.classical",
                  ("ProbabilityVector", "marginal", "conditional", "subadditivity_report"),
                  "fuzz.samples_per_s; sweep.n64_directions_per_s", "fuzz; spin-sweep"),
    "quantum": ("quditcorr.quantum",
                ("DensityMatrix", "eigvalsh", "partial_trace_left", "partial_trace_right",
                 "separability_test", "chsh_max", "linear_entropy"),
                "fuzz.samples_per_s; analyze.latency_p50_s", "fuzz; analyze"),
    "kernels": ("quditcorr._kernels",
                ("shannon", "tsallis", "relative_shannon", "relative_tsallis"),
                "fuzz.samples_per_s", "fuzz"),
    "qubit_qutrit": ("quditcorr.qubit_qutrit",
                     ("qubit_from_probabilities", "qubit_inequality_zx", "qubit_inequality_xy",
                      "qutrit_inequality_shannon", "qutrit_inequality_tsallis"),
                     "fuzz.samples_per_s", "fuzz"),
    "tomography": ("quditcorr.tomography",
                   ("SpinRep", "rotation_matrix", "tomogram", "mutual_tomographic_information",
                    "tomographic_tsallis_report"),
                   "sweep.n256_directions_per_s", "spin-sweep (no move on fuzz)"),
    "sampling": ("quditcorr.sampling",
                 ("ginibre_density", "dirichlet_probabilities", "random_factorization",
                  "bloch_ball_probabilities", "random_direction"),
                 "fuzz.samples_per_s; setup_s", "fuzz; all"),
    "reporting": ("quditcorr.reporting", ("Report.render", "jsonable"),
                  "analyze.latency_p90_s; sweep.n64_directions_per_s", "analyze; spin-sweep"),
}

# Parents whose ProbabilityVector / DensityMatrix constructions re-validate
# data the package derived itself (what trusted constructors would skip).
_DERIVED_PV_PARENTS = {"classical.marginal", "classical.conditional"}
_DERIVED_DM_PARENTS = {"quantum.partial_trace_left", "quantum.partial_trace_right"}

_EXTRAS = (
    ("cli.busy_s", "s"),
    ("io.bytes_read", "B"),
    ("classical.ProbabilityVector.derived_ratio", "ratio"),
    ("quantum.DensityMatrix.derived_ratio", "ratio"),
    ("tomography.SpinRep.builds_per_j", "count"),
    ("tomography.tomogram.bytes_computed", "B"),
    ("reporting.bytes_rendered", "B"),
    ("trace.overhead_ratio", "ratio"),
)


def _label(name: str) -> str:
    return name.lstrip("_")


def _functions():
    """(layer, module name, function name) of every wrapped function, in table order."""
    for layer, (module_name, funcs, _, _) in LAYERS.items():
        for func_name in funcs:
            yield layer, module_name, func_name


def function_ids() -> list[str]:
    """Span names, "<layer>.<function>", in table order."""
    return [f"{layer}.{_label(f)}" for layer, _, f in _functions()]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for fid in function_ids():
        units[f"{fid}.calls"] = "count"
        units[f"{fid}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(_EXTRAS)
    return units


class _Proxy:
    """Attribute overlay on a module: overrides first, the module otherwise."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Recorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = function_ids()
        self.func = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = 0
        self.bytes_read = 0
        self.bytes_rendered = 0
        self.tomogram_bytes = 0
        self.spin_js: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _wrap(self, fid: int, fn, after=None, outermost_only=False):
        func, parent, op, start, end, stack = (
            self.func, self.parent, self.op, self.start, self.end, self._stack)
        rec = self
        active = [False]

        def wrapper(*args, **kwargs):
            if outermost_only and active[0]:
                return fn(*args, **kwargs)
            i = len(start)
            func.append(fid)
            parent.append(stack[-1])
            op.append(rec.op_id)
            end.append(0.0)
            stack.append(i)
            active[0] = True
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                active[0] = False
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every traced function in every quditcorr module binding it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "quditcorr" or name.startswith("quditcorr.")]
        after = {
            "io.load_density_matrix": self._count_read,
            "io.load_probability_vector": self._count_read,
            "io.load_direction_grid": self._count_read,
            "tomography.SpinRep": lambda args, _: self.spin_js.append(float(args[1])),
            "tomography.tomogram": self._count_tomogram,
            "reporting.Report.render": self._count_rendered,
        }
        for fid, (layer, module_name, func_name) in enumerate(_functions()):
            module = importlib.import_module(module_name)
            hook = after.get(self.names[fid])
            if func_name == "eigvalsh":
                wrapped = self._wrap(fid, np.linalg.eigvalsh, hook)
                self._set(module, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=wrapped)))
                continue
            if "." in func_name or isinstance(getattr(module, func_name), type):
                cls_name, method = (func_name.split(".") if "." in func_name
                                    else (func_name, "__init__"))
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(fid, getattr(cls, method), hook))
                continue
            original = getattr(module, func_name)
            wrapped = self._wrap(fid, original, hook, outermost_only=func_name == "jsonable")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
            handlers = getattr(module, "_HANDLERS", {})
            for key, value in list(handlers.items()):
                if value is original:
                    self._undo.append((handlers, key, value))
                    handlers[key] = wrapped

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _count_read(self, args, _result):
        self.bytes_read += os.path.getsize(args[0])

    def _count_tomogram(self, args, _result):
        n = args[0].dim
        # The three einsum operands (u, rho, conj(u)) plus the diagonal, complex128.
        self.tomogram_bytes += 16 * (3 * n * n + n)

    def _count_rendered(self, _args, text):
        self.bytes_rendered += len(text.encode())

    # -- aggregation ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "func": np.frombuffer(self.func, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-function calls and self time, layer totals and the extras."""
        a = self.arrays()
        n_funcs = len(self.names)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        self_time = duration - child_time
        calls = np.bincount(a["func"], minlength=n_funcs)
        self_s = np.bincount(a["func"], weights=self_time, minlength=n_funcs)

        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[fid])
            out[f"{name}.self_s"] = float(self_s[fid])
        for layer in LAYERS:
            ids = [i for i, name in enumerate(self.names) if name.startswith(layer + ".")]
            out[f"{layer}.calls"] = int(calls[ids].sum())
            out[f"{layer}.self_s"] = float(self_s[ids].sum())

        index = {name: i for i, name in enumerate(self.names)}
        main = a["func"] == index["cli.main"]
        out["cli.busy_s"] = float(duration[main].sum())
        out["io.bytes_read"] = self.bytes_read
        out["classical.ProbabilityVector.derived_ratio"] = self._derived_ratio(
            a, index["classical.ProbabilityVector"],
            {index[p] for p in _DERIVED_PV_PARENTS}
            | {i for name, i in index.items() if name.startswith("tomography.")})
        out["quantum.DensityMatrix.derived_ratio"] = self._derived_ratio(
            a, index["quantum.DensityMatrix"], {index[p] for p in _DERIVED_DM_PARENTS})
        distinct_j = len(set(self.spin_js))
        out["tomography.SpinRep.builds_per_j"] = (
            len(self.spin_js) / distinct_j if distinct_j else 0.0)
        out["tomography.tomogram.bytes_computed"] = self.tomogram_bytes
        out["reporting.bytes_rendered"] = self.bytes_rendered
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    @staticmethod
    def _derived_ratio(a, fid: int, parent_ids: set[int]) -> float:
        built = np.flatnonzero(a["func"] == fid)
        if built.size == 0:
            return 0.0
        parents = a["parent"][built]
        parent_funcs = np.where(parents >= 0, a["func"][np.maximum(parents, 0)], -1)
        return float(np.isin(parent_funcs, list(parent_ids)).sum() / built.size)
