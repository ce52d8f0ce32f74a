"""quditcorr benchmark: one seeded workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in this process makes the next
call to quditcorr.cli.main(argv) only after the previous one returned.
With --trace 0 the run measures end-to-end metrics for --seconds seconds;
with --trace 1 it replays a fixed seeded list of operations untraced and
then traced, and reports per-layer metrics (see tracing.py).  Outputs are
checked outside the timed region.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

import tracing
from hostprobe import HostProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "demo_four_level.golden.json"
STATE = ROOT / ".perfbench"  # work files and result files, never committed
RESULTS = STATE / "results"
WORKLOADS = ("fuzz", "spin-sweep", "analyze")

DEV_SEED = 1           # the seed to tune and compare against while developing
HELD_OUT_SEED = 7919   # used only to confirm a claim made on DEV_SEED
SETUP_REPEATS = 5

# End-to-end metrics, the same on every workload.  Operations fall into
# classes of equal work: one class on fuzz, N = 64 and N = 256 on
# spin-sweep, and on analyze one per command and N (analyze-prob also split
# by --conditionals).  work_per_s is, per class, work per op over the median
# op time, combined as a geometric mean over classes, so a slowdown in any
# one class shows whatever the seeded mix of classes.
#
# Operation times are scaled to a host of fixed speed: each run times
# HostProbe, a fixed computation that does not use quditcorr, between
# operations, and multiplies each operation's time by REFERENCE_PROBE_S /
# (the mean of the probes just before and just after it).  On a shared
# 2-CPU x86-64 host, whose speed changed by up to 1.7x for minutes at a
# time, this cut the interquartile range of per-run median fuzz call times
# from 27 % to 7 % of their median over ten runs.  The unscaled figures are
# printed and kept in the result file.
REFERENCE_PROBE_S = 0.0125  # median probe time on that host when it was quiet
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _p90(times) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


class Runner:
    """Runs operations through quditcorr.cli.main and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.failures: list[dict] = []

    def call(self, op) -> dict:
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=3)
        seconds = perf_counter() - start
        stdout = out.getvalue()
        return {"op": op, "seconds": seconds, "code": code, "error": error,
                "stdout": stdout, "stderr": err.getvalue(),
                "digest": hashlib.sha256(stdout.encode()).hexdigest()}

    def check(self, result: dict, phase: str) -> None:
        """Record every problem with the op's output; stdout is then dropped."""
        op, problems = result["op"], []
        if result["error"] is not None:
            problems.append(f"exception: {result['error'].strip()}")
        elif result["code"] != 0:
            problems.append(f"exit code {result['code']}: {result['stderr'].strip()}")
        else:
            try:
                report = json.loads(result["stdout"])
                problems += [f"check {c['name']} does not hold (value {c['value']!r})"
                             for c in report["checks"] if not c["holds"]]
                if op.check is not None:
                    problems += op.check(result["stdout"])
            except Exception:
                problems.append(f"checking the output raised: {traceback.format_exc(limit=2)}")
        result.pop("stdout")
        result["ok"] = True
        if problems:
            self.fail(result, phase, problems)

    def fail(self, result: dict, phase: str, problems: list[str]) -> None:
        op = result["op"]
        self.failures.append({"phase": phase, "argv": op.argv, "input": op.input,
                              "problems": problems})
        result["ok"] = False

    def run_checked(self, ops, phase: str) -> list[dict]:
        results = []
        for op in ops:
            result = self.call(op)
            self.check(result, phase)
            results.append(result)
        return results


def measure_setup(workload) -> float:
    """Median wall time of cold `import quditcorr` in a fresh interpreter plus
    generating and writing the workload's inputs.  Not scaled by the probe:
    start-up cost does not follow the probe (scaling widened its spread)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cold_import = [sys.executable, "-c", "import quditcorr"]
    subprocess.run(cold_import, env=env, cwd=ROOT, check=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cold_import, env=env, cwd=ROOT, check=True)
        workload.setup()
        times.append(perf_counter() - start)
    return statistics.median(times)


def timed_loop(runner, workload, seconds: float, probe) -> list[dict]:
    """Run ops until their times add up to `seconds`; probe the host around them.

    Each result gets "probe_s", the mean of the probes just before and just
    after the op.
    """
    results, pending, busy, since_probe = [], [], 0.0, 0.0
    probe.run()
    for op in workload.ops():
        result = runner.call(op)
        busy += result["seconds"]
        since_probe += result["seconds"]
        pending.append(result)
        done = (busy >= seconds and len(results) + len(pending) >= workload.min_ops
                and (len(results) + len(pending)) % workload.ops_per_round == 0)
        if since_probe >= probe.every_s or done:
            probe.run()
            since_probe = 0.0
            for r in pending:
                r["probe_s"] = (probe.seconds[-2] + probe.seconds[-1]) / 2.0
            results += pending
            pending = []
        runner.check(result, "timed")
        if done:
            return results


def end_to_end(results, setup_s: float) -> dict[str, float]:
    classes: dict[str, list[dict]] = {}
    for r in results:
        classes.setdefault(r["op"].kind, []).append(r)
    rates = [members[0]["op"].work / statistics.median(
                 r["seconds"] * REFERENCE_PROBE_S / r["probe_s"] for r in members)
             for members in classes.values()]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": _geomean(rates),
    }


def named_metrics(workload_name: str, results) -> dict[str, tuple[float, str]]:
    """The per-workload figures by their descriptive names, with units."""
    def rate(kind=None):
        chosen = [r for r in results if kind is None or r["op"].kind == kind]
        return sum(r["op"].work for r in chosen) / sum(r["seconds"] for r in chosen)

    times = [r["seconds"] for r in results]
    if workload_name == "fuzz":
        return {"fuzz.samples_per_s": (rate(), "1/s"),
                "fuzz.call_p50_s": (statistics.median(times), "s")}
    if workload_name == "spin-sweep":
        return {"sweep.n64_directions_per_s": (rate("n64"), "1/s"),
                "sweep.n256_directions_per_s": (rate("n256"), "1/s")}
    return {"analyze.calls_per_s": (rate(), "1/s"),
            "analyze.latency_p50_s": (statistics.median(times), "s"),
            "analyze.latency_p90_s": (_p90(times), "s")}


def environment(args, workload, np) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    thread_vars = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    set_threads = next((int(v) for v in thread_vars.values() if v), None)
    role = {DEV_SEED: "development", HELD_OUT_SEED: "held-out"}.get(args.seed, "other")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration"),
        "blas_thread_variables": thread_vars,
        "blas_threads": set_threads or nproc,  # OpenBLAS uses every core when unset
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": role,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "inputs": workload.describe(),
    }


def sample_counts(results) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in results:
        counts[r["op"].kind] = counts.get(r["op"].kind, 0) + 1
    return counts


def compare_replays(runner, first, second, phase: str, problem: str) -> None:
    """Mark each op of `second` whose stdout differs from its run in `first`."""
    for before, after in zip(first, second):
        if before["digest"] != after["digest"]:
            runner.fail(after, phase, [problem])


def run_untraced(args, workload, runner):
    setup_s = measure_setup(workload)
    probe = HostProbe()
    results = timed_loop(runner, workload, args.seconds, probe)
    if workload.repeats:
        picks = sorted(random.Random(args.seed).sample(range(len(results)),
                                                       min(workload.repeats, len(results))))
        originals = [results[i] for i in picks]
        again = runner.run_checked([r["op"] for r in originals], "replay")
        compare_replays(runner, originals, again, "replay",
                        "report differs on a repeat of the same seed")
        for original, repeat in zip(originals, again):
            original["ok"] = original["ok"] and repeat["ok"]
    failed = sum(not r["ok"] for r in results)
    metrics = end_to_end(results, setup_s)
    named = named_metrics(args.workload, results)
    named["setup_s"] = (setup_s, "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    named["ops_failed_ratio"] = (failed / len(results), "ratio")
    named["host.probe_median_s"] = (statistics.median(probe.seconds), "s")
    detail = {"named_metrics": named, "samples": sample_counts(results),
              "probe_seconds": probe.seconds,
              "op_seconds": [[r["op"].kind, round(r["seconds"], 6), round(r["probe_s"], 6)]
                             for r in results]}
    return metrics, detail, failed, len(results)


def run_traced(args, workload, runner):
    workload.setup()
    ops = list(islice(workload.ops(), workload.trace_ops))
    untraced = runner.run_checked(ops, "untraced")
    recorder = tracing.Recorder()
    recorder.install()
    try:
        workload.setup()  # traced as operation 0
        traced = []
        for op_id, op in enumerate(ops, start=1):
            recorder.op_id = op_id
            traced.append(runner.call(op))
            runner.check(traced[-1], "traced")
    finally:
        recorder.uninstall()
    compare_replays(runner, untraced, traced, "traced",
                    "traced output differs from untraced output")
    overhead = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in untraced)
    metrics = recorder.metrics(overhead)
    spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
    recorder.save(spans_file)
    failed = sum(not r["ok"] for r in untraced + traced)
    named = {f"{layer}.self_s": (metrics[f"{layer}.self_s"], "s") for layer in tracing.LAYERS}
    named["cli.busy_s"] = (metrics["cli.busy_s"], "s")
    named["trace.overhead_ratio"] = (overhead, "ratio")
    detail = {"named_metrics": named, "samples": sample_counts(traced),
              "spans": len(recorder.start),
              "spans_file": str(spans_file.relative_to(ROOT)),
              "untraced_s": sum(r["seconds"] for r in untraced),
              "traced_s": sum(r["seconds"] for r in traced),
              "layer_predictions": {layer: {"should_move": row[2], "on": row[3]}
                                    for layer, row in tracing.LAYERS.items()}}
    return metrics, detail, failed, 2 * len(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "quditcorr" / "__init__.py", GOLDEN) if not p.is_file()]
    if missing:
        print(f"error: the benchmark needs the quditcorr sources; missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import quditcorr.cli as cli
    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        workload = workloads.make(args.workload, args.seed, workdir, GOLDEN)
        runner = Runner(cli)
        if args.trace:
            metrics, detail, failed, attempted = run_traced(args, workload, runner)
            units = tracing.metric_units()
        else:
            metrics, detail, failed, attempted = run_untraced(args, workload, runner)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, workload, np)
    print(f"# quditcorr benchmark: workload {args.workload}, seed {args.seed} "
          f"({env['seed_role']} seed), trace {args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}")
    print(f"# samples: {detail['samples']}")
    for name, (value, unit) in detail["named_metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    for failure in runner.failures:
        print(f"FAILED ({failure['phase']}) {' '.join(failure['argv'])} input={failure['input']}: "
              f"{'; '.join(failure['problems'])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(
        {"environment": env, "result": result, "detail": detail, "failures": runner.failures},
        indent=2, default=str) + "\n")
    print(f"# result file: {result_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
