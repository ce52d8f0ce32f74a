"""The three benchmark workloads: seeded inputs, the operation stream and
the checks on each output.

An operation is one call to quditcorr.cli.main(argv).  Inputs come from
quditcorr.sampling and are written with quditcorr.io into a work
directory; everything is drawn from generators seeded by the workload
seed, so the same seed gives the same inputs and the same operation
stream whatever the run length.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from quditcorr import io as qio, sampling
from quditcorr.tolerances import (
    ENTROPY_BOUND_ATOL,
    QUANTUM_MUTUAL_ATOL,
    SUBADDITIVITY_ATOL,
    TOMOGRAM_SUM_ATOL,
)

import oracle


@dataclass
class Op:
    kind: str            # class for the metrics: ops of one class do equal work
    argv: list[str]
    work: int            # units of work done, in the workload's work unit
    input: dict          # what the op was fed, for the failure list
    check: Callable[[str], list[str]] | None = None  # stdout -> problems


def _compare(report: dict, expected: dict, tolerances: dict) -> list[str]:
    problems = []
    for key, value in expected.items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or abs(got - value) > tolerances[key]:
            problems.append(f"{key} = {got!r}, independent route gives {value!r} "
                            f"(tolerance {tolerances[key]:g})")
    return problems


def _factorizations(n: int) -> list[tuple[int, ...]]:
    """Ordered 2- and 3-axis factorizations of n with every axis >= 2."""
    out = []
    for a in range(2, n // 2 + 1):
        if n % a:
            continue
        rest = n // a
        out.append((a, rest))
        out.extend((a, b, rest // b) for b in range(2, rest // 2 + 1) if rest % b == 0)
    return out


class Workload:
    work_unit = ""
    ops_per_round = 1  # a run stops only at a round boundary
    min_ops = 1        # ops a run needs at least, whatever its length
    trace_ops = 1      # ops a traced run replays; fixed so that counts repeat exactly
    repeats = 0        # ops re-run after the timed loop to check byte-identical replay

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate and write the inputs; deterministic in the seed."""

    def ops(self):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class Fuzz(Workload):
    """Back-to-back `fuzz --count 1000`, one derived seed per call."""

    work_unit = "samples"
    trace_ops = 6
    count = 1000
    families = 5
    repeats = 2

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            call_seed = int(rng.integers(0, 2**31 - 1))
            yield Op(
                kind="fuzz",
                argv=["fuzz", "--seed", str(call_seed), "--count", str(self.count),
                      "--q", "1.5", "--q", "2", "--q", "3"],
                work=self.count * self.families,
                input={"fuzz_seed": call_seed},
            )

    def describe(self) -> dict:
        return {"count_per_call": self.count, "families": self.families,
                "q": [1.5, 2, 3], "classical_max_N": 64, "quantum_max_N": 16,
                "qubit_N": 2, "qutrit_N": 3, "tomographic_N": 4,
                "replay_checked_calls": self.repeats}


class SpinSweep(Workload):
    """Tomogram sweeps over seeded grids, alternating a block of N = 64 calls
    with one N = 256 call."""

    work_unit = "directions"
    # (N, dims, calls per round): one N = 256 call takes about as long as
    # 30-40 N = 64 calls, so N = 64 gets a block of calls to have enough
    # samples per run for a steady minimum.
    sizes = ((64, (8, 8), 8), (256, (16, 16), 1))
    ops_per_round = 9
    trace_ops = 2 * ops_per_round
    states_per_size = 2
    grids = 8
    directions = 100
    checked_directions = 3
    qs = (2.0,)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.states = {}
        for n, _, _ in self.sizes:
            for k in range(self.states_per_size):
                state = sampling.ginibre_density(rng, n)
                path = self.workdir / f"spin-{n}-{k}.json"
                qio.write_density_matrix(state, path)
                self.states[n, k] = (path, state.matrix)
        self.grid_files = []
        for g in range(self.grids):
            grid = [sampling.random_direction(rng) for _ in range(self.directions)]
            path = self.workdir / f"grid-{g}.json"
            path.write_text(json.dumps([{"theta": d.theta, "phi": d.phi} for d in grid]))
            self.grid_files.append((path, grid))

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            for n, dims, calls in self.sizes:
                yield from (self._op(rng, n, dims) for _ in range(calls))

    def _op(self, rng, n, dims) -> Op:
        k = int(rng.integers(self.states_per_size))
        g = int(rng.integers(self.grids))
        picks = rng.choice(self.directions, self.checked_directions, replace=False)
        state_path, matrix = self.states[n, k]
        grid_path, grid = self.grid_files[g]
        out = self.workdir / f"sweep-{n}.jsonl"
        return Op(
            kind=f"n{n}",
            argv=["tomogram-sweep", "--input", str(state_path),
                  "--dims", ",".join(map(str, dims)), "--grid", str(grid_path),
                  *[a for q in self.qs for a in ("--q", f"{q:g}")], "--out", str(out)],
            work=self.directions,
            input={"state": state_path.name, "grid": grid_path.name, "N": n,
                   "dims": list(dims)},
            check=self._checker(out, matrix, dims, grid, [int(p) for p in picks]),
        )

    def _checker(self, out: Path, matrix, dims, grid, picks):
        def check(_stdout: str) -> list[str]:
            records = [json.loads(line) for line in out.read_text().splitlines()]
            if len(records) != len(grid):
                return [f"{len(records)} records for {len(grid)} directions"]
            problems = []
            for i in picks:
                record, direction = records[i], grid[i]
                if (record["theta"], record["phi"]) != (direction.theta, direction.phi):
                    problems.append(f"record {i} is for another direction")
                    continue
                expected = oracle.tomogram_record(matrix, direction.theta, direction.phi,
                                                  dims, self.qs)
                gap = float(np.abs(np.asarray(record["values"]) - expected["values"]).max())
                if gap > TOMOGRAM_SUM_ATOL:
                    problems.append(f"record {i}: tomogram values off by {gap:.3e}")
                problems += [f"record {i}: {p}" for p in _compare(
                    record, {"information": expected["information"]},
                    {"information": SUBADDITIVITY_ATOL})]
                for q, entry in expected["tsallis"].items():
                    problems += [f"record {i}, q={q}: {p}" for p in _compare(
                        record["tsallis"][q], entry, dict.fromkeys(entry, SUBADDITIVITY_ATOL))]
            return problems
        return check

    def describe(self) -> dict:
        return {"N": [n for n, _, _ in self.sizes], "dims": [list(d) for _, d, _ in self.sizes],
                "calls_per_round": [c for _, _, c in self.sizes],
                "states_per_N": self.states_per_size, "grids": self.grids,
                "directions_per_call": self.directions, "q": list(self.qs),
                "checked_directions_per_call": self.checked_directions}


class Analyze(Workload):
    """A seeded mix of analyze-dm and analyze-prob on pre-written files, plus
    one demo-four-level per run."""

    work_unit = "calls"
    min_ops = 100  # so that at least 10 samples fall beyond p90
    trace_ops = 200
    dm_sizes = (4, 16, 64, 256)
    prob_sizes = (16, 256, 4096)
    check_share = 0.2  # share of calls recomputed by the independent route

    def __init__(self, seed: int, workdir: Path, golden: Path):
        super().__init__(seed, workdir)
        self.golden = golden

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.dm_files = {}
        for n in self.dm_sizes:
            for family, rank in (("ginibre", None), ("pure", 1)):
                state = sampling.ginibre_density(rng, n, rank=rank)
                path = self.workdir / f"dm-{family}-{n}.json"
                qio.write_density_matrix(state, path)
                self.dm_files[n, family] = (path, state.matrix)
        self.prob_files = {}
        for n in self.prob_sizes:
            for fmt in ("json", "csv"):
                probs = sampling.dirichlet_probabilities(rng, n).probs
                path = self.workdir / f"prob-{n}.{fmt}"
                path.write_text(json.dumps(probs.tolist()) if fmt == "json"
                                else "".join(f"{v!r}\n" for v in probs.tolist()))
                self.prob_files[n, fmt] = (path, probs)

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        demo_at = int(rng.integers(self.min_ops))
        k = 0
        while True:
            if k == demo_at:
                # The demo analyzes a 4-level density matrix, so it joins that class.
                yield Op(kind="dm-4", argv=["demo-four-level"], work=1,
                         input={"golden": self.golden.name}, check=self._demo_check)
            elif rng.random() < 0.5:
                yield self._dm_op(rng)
            else:
                yield self._prob_op(rng)
            k += 1

    def _layout(self, rng, n):
        options = _factorizations(n)
        dims = options[int(rng.integers(len(options)))]
        return dims, int(rng.integers(1, len(dims)))

    def _dm_op(self, rng) -> Op:
        n = self.dm_sizes[int(rng.integers(len(self.dm_sizes)))]
        family = ("ginibre", "pure")[int(rng.integers(2))]
        dims, split = self._layout(rng, n)
        checked = rng.random() < self.check_share
        path, matrix = self.dm_files[n, family]

        def check(stdout: str) -> list[str]:
            expected = oracle.density_summary(matrix, dims, split)
            return _compare(json.loads(stdout)["results"], expected,
                            {"S": ENTROPY_BOUND_ATOL, "S_left": ENTROPY_BOUND_ATOL,
                             "S_right": ENTROPY_BOUND_ATOL, "mutual_info": QUANTUM_MUTUAL_ATOL})

        return Op(kind=f"dm-{n}",
                  argv=["analyze-dm", "--input", str(path), "--dims", ",".join(map(str, dims)),
                        "--split", str(split)],
                  work=1,
                  input={"file": path.name, "N": n, "dims": list(dims), "split": split},
                  check=check if checked else None)

    def _prob_op(self, rng) -> Op:
        n = self.prob_sizes[int(rng.integers(len(self.prob_sizes)))]
        fmt = ("json", "csv")[int(rng.integers(2))]
        dims, split = self._layout(rng, n)
        conditionals = rng.random() < 0.5
        checked = rng.random() < self.check_share
        path, probs = self.prob_files[n, fmt]

        def check(stdout: str) -> list[str]:
            expected = oracle.probability_summary(probs, dims, split)
            return _compare(json.loads(stdout)["results"], expected,
                            dict.fromkeys(expected, SUBADDITIVITY_ATOL))

        return Op(kind=f"prob-{n}" + ("-cond" if conditionals else ""),
                  argv=["analyze-prob", "--input", str(path), "--dims", ",".join(map(str, dims)),
                        "--split", str(split), "--q", "2", "--q", "3",
                        *(["--conditionals"] if conditionals else [])],
                  work=1,
                  input={"file": path.name, "N": n, "dims": list(dims), "split": split,
                         "conditionals": conditionals},
                  check=check if checked else None)

    def _demo_check(self, stdout: str) -> list[str]:
        golden = self.golden.read_text()
        if stdout != golden:
            return [f"demo report differs from the golden file "
                    f"({len(stdout)} bytes vs {len(golden)})"]
        return []

    def describe(self) -> dict:
        return {"dm_N": list(self.dm_sizes), "dm_families": ["ginibre", "pure"],
                "dm_axes": [2, 3], "prob_N": list(self.prob_sizes),
                "prob_formats": ["json", "csv"], "prob_q": [2, 3],
                "conditionals_share": 0.5, "demo_calls_per_run": 1,
                "min_calls": self.min_ops, "independently_checked_share": self.check_share}


def make(name: str, seed: int, workdir: Path, golden: Path) -> Workload:
    if name == "analyze":
        return Analyze(seed, workdir, golden)
    return {"fuzz": Fuzz, "spin-sweep": SpinSweep}[name](seed, workdir)

