"""Tests of the benchmark itself: its declared names match what it prints,
its checks catch wrong outputs, and it refuses to run without the package.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
from quditcorr import cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_declares_what_the_code_defines():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.metric_units()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, capsys, monkeypatch):
    monkeypatch.setattr(workloads.Analyze, "trace_ops", 120)
    assert run.main(["--workload", "analyze", "--seed", str(run.DEV_SEED),
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["cli.cmd_demo_four_level.calls"]["value"] == 1


def test_same_seed_gives_same_operations(tmp_path):
    def first_ops(seed):
        analyze = workloads.Analyze(seed, tmp_path, run.GOLDEN)
        analyze.setup()
        ops = zip(range(50), analyze.ops())
        return [op.argv for _, op in ops]

    assert first_ops(3) == first_ops(3)
    assert first_ops(3) != first_ops(4)


def test_checks_flag_a_wrong_value(tmp_path):
    analyze = workloads.Analyze(run.DEV_SEED, tmp_path, run.GOLDEN)
    analyze.check_share = 1.0
    analyze.setup()
    op = analyze._dm_op(np.random.default_rng(0))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(op.argv) == 0
    results = json.loads(stdout.getvalue())
    assert op.check(json.dumps(results)) == []
    results["results"]["mutual_info"] += 1e-6
    assert op.check(json.dumps(results))
    assert analyze._demo_check("{}\n")


def test_oracle_tomogram_along_z_is_the_diagonal():
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    record = oracle.tomogram_record(rho, 0.0, 0.0, (2, 2), [2.0])
    # Storage is m descending; tables start at m = -j.
    np.testing.assert_allclose(record["values"], [0.4, 0.3, 0.2, 0.1], atol=1e-15)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "fuzz",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (Path(tmp_path) / ".perfbench").exists()
