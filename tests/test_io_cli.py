import json
import math

import numpy as np
import pytest

from quditcorr import UsageError, validate
from quditcorr.cli import main
from quditcorr.io import (
    load_density_matrix,
    load_direction_grid,
    load_probability_vector,
    write_density_matrix,
)

LN2 = math.log(2.0)


def bell_matrix():
    v = np.zeros(4)
    v[0] = v[3] = 2.0**-0.5
    return validate(np.outer(v, v))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIo:
    def test_probability_vector_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.1\n0.2\n\n0.3\n0.4\n")
        np.testing.assert_allclose(load_probability_vector(path).probs, [0.1, 0.2, 0.3, 0.4])

    def test_probability_vector_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[0.5, 0.5]")
        np.testing.assert_allclose(load_probability_vector(path).probs, [0.5, 0.5])

    def test_probability_vector_bad_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.5\nnope\n")
        with pytest.raises(UsageError, match="p.csv:2"):
            load_probability_vector(path)

    def test_density_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        state = validate(m / np.trace(m))
        path = tmp_path / "rho.json"
        write_density_matrix(state, path)
        loaded = load_density_matrix(path)
        np.testing.assert_array_equal(loaded.matrix, state.matrix)

    def test_density_matrix_imaginary_optional(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}))
        state = load_density_matrix(path)
        assert state.dim == 2

    def test_density_matrix_shape_mismatch(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 3, "re": [[1.0]]}))
        with pytest.raises(UsageError, match="dim"):
            load_density_matrix(path)

    def test_direction_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([{"theta": 0.5, "phi": 1.0}, {"theta": 1.0, "phi": 0.0, "psi": 2.0}]))
        grid = load_direction_grid(path)
        assert len(grid) == 2 and grid[1].psi == 2.0

    def test_direction_grid_missing_field(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([{"theta": 0.5}]))
        with pytest.raises(UsageError, match="phi"):
            load_direction_grid(path)


class TestAnalyzeProb:
    def test_uniform_vector(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0.25\n0.25\n0.25\n0.25\n")
        code, out, _ = run_cli(capsys, "analyze-prob", "--input", str(path), "--dims", "2,2")
        assert code == 0
        report = json.loads(out)
        assert abs(report["results"]["mutual_info"]) <= 1e-12
        assert report["results"]["subadditivity_holds"] is True
        assert report["checks"][0]["tolerance"] == 1e-10

    def test_correlated_vector(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0.5\n0\n0\n0.5\n")
        code, out, _ = run_cli(
            capsys, "analyze-prob", "--input", str(path), "--dims", "2,2",
            "--q", "2", "--conditionals",
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["results"]["mutual_info"] - LN2) <= 1e-12
        assert report["results"]["tsallis"]["2"]["holds"] is True
        conditionals = report["results"]["conditionals"]
        assert conditionals["left_given_right"]["1"] == [1.0, 0.0]

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("".join(f"{1/6}\n" for _ in range(6)))
        code, out, err = run_cli(capsys, "analyze-prob", "--input", str(path), "--dims", "2,2")
        assert code == 2
        assert "dimension mismatch" in err
        assert out == ""

    def test_unparsable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("zero point five\n")
        code, _, err = run_cli(capsys, "analyze-prob", "--input", str(path), "--dims", "2,2")
        assert code == 2 and "not a number" in err

    def test_report_written_to_out(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0.25\n0.25\n0.25\n0.25\n")
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "analyze-prob", "--input", str(path), "--dims", "2,2", "--out", str(out_path)
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["request"]["subcommand"] == "analyze-prob"


class TestAnalyzeDm:
    def test_bell_state(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        write_density_matrix(bell_matrix(), path)
        code, out, _ = run_cli(capsys, "analyze-dm", "--input", str(path), "--dims", "2,2")
        assert code == 0
        report = json.loads(out)
        results = report["results"]
        assert abs(results["mutual_info"] - 2 * LN2) <= 1e-10
        assert results["separability"]["status"] == "entangled"
        assert abs(results["chsh_max"] - 2 * math.sqrt(2)) <= 1e-9
        assert results["bell_violated"] is True
        assert abs(results["linear_entropy"] - 0.5) <= 1e-12

    def test_product_state(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        a = np.diag(rng.dirichlet(np.ones(2)))
        b = np.diag(rng.dirichlet(np.ones(2)))
        from quditcorr import product_state

        path = tmp_path / "rho.json"
        write_density_matrix(validate(product_state([a, b])), path)
        code, out, _ = run_cli(capsys, "analyze-dm", "--input", str(path), "--dims", "2,2")
        assert code == 0
        report = json.loads(out)
        assert abs(report["results"]["mutual_info"]) <= 1e-10
        assert report["results"]["separability"]["status"] == "separable"

    def test_invalid_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        payload = {"dim": 2, "re": [[0.5, 0.3], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "analyze-dm", "--input", str(path), "--dims", "2,1")
        assert code == 2
        assert "rho^dagger" in err


class TestTomogramSweep:
    def test_records_and_summary(self, tmp_path, capsys):
        rho_path = tmp_path / "rho.json"
        write_density_matrix(bell_matrix(), rho_path)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps([{"theta": 0.0, "phi": 0.0}, {"theta": 1.0, "phi": 2.0}])
        )
        records_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys,
            "tomogram-sweep",
            "--input", str(rho_path),
            "--dims", "2,2",
            "--grid", str(grid_path),
            "--q", "2",
            "--out", str(records_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["results"]["n_directions"] == 2
        assert summary["results"]["min_information"] >= -1e-10
        lines = records_path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        np.testing.assert_allclose(first["values"], [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        assert abs(first["information"] - LN2) <= 1e-12
        assert "2" in first["tsallis"]

    def test_min_information_direction_named(self, tmp_path, capsys):
        rho_path = tmp_path / "rho.json"
        write_density_matrix(bell_matrix(), rho_path)
        # Along z the Bell-like state gives ln 2; along x it gives less.
        grid = [{"theta": 0.0, "phi": 0.0}, {"theta": math.pi / 2, "phi": 0.0, "psi": 0.25}]
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        records_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "tomogram-sweep", "--input", str(rho_path), "--dims", "2,2",
            "--grid", str(grid_path), "--out", str(records_path),
        )
        assert code == 0
        summary = json.loads(out)
        results = summary["results"]
        records = [json.loads(line) for line in records_path.read_text().splitlines()]
        informations = [r["information"] for r in records]
        index = informations.index(min(informations))
        assert index == 1
        assert results["min_information_direction"] == {
            "index": index, "theta": math.pi / 2, "phi": 0.0, "psi": 0.25,
        }
        assert results["min_information"] == records[index]["information"]
        assert [c["name"] for c in summary["checks"]] == [
            "tomographic_information_min",
            "tomogram_normalization_max_error",
        ]

    @pytest.mark.parametrize("angle", ["theta", "phi", "psi"])
    def test_nan_grid_angle_exits_2(self, tmp_path, capsys, angle):
        rho_path = tmp_path / "rho.json"
        write_density_matrix(bell_matrix(), rho_path)
        entry = {"theta": 0.3, "phi": 0.4, "psi": 0.0}
        entry[angle] = math.nan
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([entry]))  # json writes the bare NaN literal
        assert "NaN" in grid_path.read_text()
        code, out, err = run_cli(
            capsys, "tomogram-sweep", "--input", str(rho_path), "--dims", "2,2",
            "--grid", str(grid_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and angle in err

    def test_default_grid(self, tmp_path, capsys):
        rho_path = tmp_path / "rho.json"
        write_density_matrix(validate(np.eye(4) / 4), rho_path)
        code, out, _ = run_cli(capsys, "tomogram-sweep", "--input", str(rho_path), "--dims", "2,2")
        assert code == 0
        assert json.loads(out)["results"]["n_directions"] == 100


def _nan_diagonal_4x4():
    re = np.eye(4) / 4
    re[1, 1] = math.nan
    return {"dim": 4, "re": re.tolist(), "im": np.zeros((4, 4)).tolist()}


_BELL = {"dim": 4, "re": (np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2).tolist()}
# (name, subcommand, state file, grid file or None, dims, exit code, message fragment)
_MALFORMED = [
    ("all_nan_2x2", "analyze-dm", {"dim": 2, "re": [[math.nan] * 2] * 2}, None, "2,1", 2,
     "rho^dagger"),
    ("nan_diagonal_analyze", "analyze-dm", _nan_diagonal_4x4(), None, "2,2", 2, "rho^dagger"),
    ("nan_diagonal_sweep", "tomogram-sweep", _nan_diagonal_4x4(), None, "2,2", 2, "rho^dagger"),
    ("string_matrix", "analyze-dm", {"re": "x"}, None, "2,1", 2, "must be numeric"),
    ("string_angle", "tomogram-sweep", _BELL, [{"theta": "x", "phi": 0.1}], "2,2", 2,
     "entry 0 has a non-numeric angle"),
]


@pytest.mark.parametrize(
    "subcommand, state, grid, dims, code, fragment",
    [row[1:] for row in _MALFORMED],
    ids=[row[0] for row in _MALFORMED],
)
def test_malformed_input_corpus(tmp_path, capsys, subcommand, state, grid, dims, code, fragment):
    state_path = tmp_path / "rho.json"
    state_path.write_text(json.dumps(state))  # json writes NaN as the bare literal
    argv = [subcommand, "--input", str(state_path), "--dims", dims]
    if grid is not None:
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        argv += ["--grid", str(grid_path)]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and fragment in err


class TestDemoAndFuzz:
    def test_demo_checks_hold(self, capsys):
        code, out, _ = run_cli(capsys, "demo-four-level")
        assert code == 0
        report = json.loads(out)
        assert all(check["holds"] for check in report["checks"])
        tables = report["results"]["index_tables"]
        assert tables["y"] == {"(1,1)": 1, "(2,1)": 2, "(1,2)": 3, "(2,2)": 4}
        assert tables["x1"] == {"1": 1, "2": 2, "3": 1, "4": 2}
        assert tables["x2"] == {"1": 1, "2": 1, "3": 2, "4": 2}

    def test_demo_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "demo-four-level")
        _, second, _ = run_cli(capsys, "demo-four-level")
        assert first == second

    def test_fuzz_replay_byte_identical(self, capsys):
        code1, first, _ = run_cli(capsys, "fuzz", "--seed", "3", "--count", "40")
        code2, second, _ = run_cli(capsys, "fuzz", "--seed", "3", "--count", "40")
        assert code1 == code2 == 0
        assert first == second

    def test_fuzz_families_present(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--seed", "1", "--count", "25")
        assert code == 0
        report = json.loads(out)
        names = {check["name"] for check in report["checks"]}
        assert {
            "classical_subadditivity_min_margin",
            "quantum_mutual_information_min_margin",
            "qubit_zx_min_margin",
            "qubit_xy_min_margin",
            "qutrit_shannon_min_margin",
            "tomographic_information_min_margin",
            "classical_product_mutual_abs_max",
        } <= names
        assert report["seed"] == 1

    def test_fuzz_bad_count_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--count", "0")
        assert code == 2 and "count" in err
