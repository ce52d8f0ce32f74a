import argparse
import json
import math

import numpy as np
import pytest

from helpers import random_density
from quditcorr import (
    Direction,
    Factorization,
    NotPSD,
    TsallisParam,
    UsageError,
    direction_sweep,
    mutual_tomographic_information,
    qutrit_inequality_shannon,
    qutrit_inequality_tsallis,
    spin_rep,
    tomogram,
    tomographic_tsallis_report,
    validate,
)
from quditcorr import cli
from quditcorr.cli import build_parser, main
from quditcorr.fuzz import BLOCK
from quditcorr.io import (
    density_matrix_payload,
    load_density_matrix,
    load_direction_grid,
    load_probability_vector,
    read_density_matrix,
    write_density_matrix,
)
from quditcorr.reporting import json_line, jsonable
from quditcorr.tolerances import PSD_ATOL, QUANTUM_MUTUAL_ATOL

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

    @pytest.mark.parametrize("depth", [60, 900, 100_000])
    def test_deeply_nested_false_names_the_file(self, tmp_path, depth):
        # Within numpy's 64 axes the walk finds the false; deeper, numpy or the parser
        # refuses the nesting. No depth escapes as a RecursionError.
        path = tmp_path / "p.json"
        path.write_text("[" * depth + "false" + "]" * depth)
        with pytest.raises(UsageError) as refused:
            load_probability_vector(path)
        assert str(refused.value).startswith(f"{path}: ")
        if depth == 60:
            assert str(refused.value).endswith("must be numeric: true and false are not numbers")

    def test_density_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        state = validate(m / np.trace(m))
        path = tmp_path / "rho.json"
        write_density_matrix(state, path)
        loaded = load_density_matrix(path)
        np.testing.assert_array_equal(loaded.matrix, state.matrix)

    def test_writer_bytes_match_the_indented_json_encoder(self, tmp_path):
        rng = np.random.default_rng(41)
        states = []
        for n in (1, 2, 3, 4, 16, 64, 256):
            for rank in (1, n):
                g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
                m = g @ g.conj().T
                states.append(validate(m / np.trace(m)))
        diagonal = np.diag([0.5, 0.3, 0.2]).astype(complex)
        diagonal.imag[0, 1] = diagonal.imag[1, 2] = -0.0  # survive as -0.0 in the Hermitian part
        states.append(validate(diagonal))
        assert np.signbit(states[-1].matrix.imag).sum() == 2
        path = tmp_path / "rho.json"
        for state in states:
            write_density_matrix(state, path)
            payload = density_matrix_payload(state.matrix)
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert path.read_text() == expected

    def test_density_matrix_imaginary_optional(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}))
        state = load_density_matrix(path)
        assert state.dim == 2

    def test_null_dim_declares_no_dim(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": None, "re": [[0.5, 0.0], [0.0, 0.5]]}))
        assert load_density_matrix(path).dim == 2

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

    def test_parser_reuse_keeps_no_arguments(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0.25\n0.25\n0.25\n0.25\n")
        argv = ["analyze-prob", "--input", str(path), "--dims", "2,2"]
        run_cli(capsys, *argv, "--q", "2", "--conditionals")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        request = json.loads(out)["request"]
        assert request["q"] == [] and request["conditionals"] is False

    def test_null_conditioning_event_renders_null(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0.5\n0.5\n0\n0\n")
        code, out, _ = run_cli(
            capsys, "analyze-prob", "--input", str(path), "--dims", "2,2", "--conditionals"
        )
        assert code == 0
        assert '"2": null' in out
        conditionals = json.loads(out)["results"]["conditionals"]
        assert conditionals["left_given_right"] == {"1": [0.5, 0.5], "2": None}
        assert conditionals["right_given_left"] == {"1": [1.0, 0.0], "2": [1.0, 0.0]}

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("".join(f"{1/6}\n" for _ in range(6)))
        code, out, err = run_cli(capsys, "analyze-prob", "--input", str(path), "--dims", "2,2")
        assert code == 2
        assert err == "error: dimension mismatch: factorization total 4 != vector length 6\n"
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
        assert err == f"error: {grid_path}: entry 0 has a non-numeric angle: NaN is not a number\n"

    def test_records_and_tsallis_check_match_the_sweep(self, tmp_path, capsys):
        # Each line is what json.dumps(jsonable(record), sort_keys=True) writes for the
        # scalar path's record of its direction, and the q = 2 check holds the least
        # S_q1 + S_q2 - S_q over those records.
        state = validate(random_density(np.random.default_rng(41), 6))
        rho_path = tmp_path / "rho.json"
        write_density_matrix(state, rho_path)
        grid = [Direction(0.3, 0.4), Direction(1.2, 5.0, 0.7), Direction(math.pi, 0.0)]
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([vars(d) for d in grid]))
        records_path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "tomogram-sweep", "--input", str(rho_path), "--dims", "3,2",
            "--grid", str(grid_path), "--q", "2", "--q", "0.5", "--out", str(records_path),
        )
        assert code == 0
        rep, f = spin_rep(2.5), Factorization((3, 2))
        tables = [tomogram(state, rep, d) for d in grid]
        reports = [{tq.q: tomographic_tsallis_report(t, f, tq) for tq in
                    (TsallisParam(2.0), TsallisParam(0.5))} for t in tables]
        check = json.loads(out)["checks"][2]
        assert check["name"] == "tomographic_tsallis_min_margin_q=2"
        assert check["value"] == min(r[2.0].s_q1 + r[2.0].s_q2 - r[2.0].s_q for r in reports)
        expected = [
            json.dumps(jsonable({
                "theta": d.theta, "phi": d.phi, "psi": d.psi,
                "values": t.values, "information": mutual_tomographic_information(t, f),
                "tsallis": {f"{q:g}": report for q, report in r.items()},
                "normalization_error": t.normalization_error,
            }), sort_keys=True)
            for d, t, r in zip(grid, tables, reports)
        ]
        assert records_path.read_text().splitlines() == expected

    def test_json_line_infinities_and_nan(self):
        record = {
            "information": math.inf,
            "values": (0.25, 0.75),
            "tsallis": {"2": {"s_q": 0.5, "s_q1": -math.inf, "subadditivity_holds": True}},
        }
        line = json_line(record)
        assert line == json.dumps(jsonable(record), sort_keys=True)
        assert '"information": "inf"' in line and '"s_q1": "-inf"' in line
        record["values"] = (0.25, math.nan)
        with pytest.raises(ValueError) as expected:
            json.dumps(jsonable(record), sort_keys=True)
        with pytest.raises(ValueError) as got:
            json_line(record)
        assert str(got.value) == str(expected.value)

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


class _JsonText(str):
    """JSON text that json.dumps cannot write, such as 1e400: written to input.json as is."""


_BELL = {"dim": 4, "re": (np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2).tolist()}
_BEYOND_FLOAT = "a number beyond the float range is not a finite number"
# Finite, Hermitian and of unit trace, but m + m^dagger overflows.
_NEAR_FLOAT_MAX = {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]]}
# (name, subcommand and extra flags, input (a _JsonText is written as input.json, any other
# str or bytes as CSV, None passes no --input or --dims, anything else is written as JSON),
# grid (bytes are written raw, anything else as JSON) or None, dims, exit code, message fragment)
_MALFORMED = [
    ("all_nan_2x2", "analyze-dm", {"dim": 2, "re": [[math.nan] * 2] * 2}, None, "2,1", 2,
     "input.json: 'dim', 're' and 'im' must be numeric: NaN is not a number"),
    ("nan_diagonal_analyze", "analyze-dm", _nan_diagonal_4x4(), None, "2,2", 2,
     "input.json: 'dim', 're' and 'im' must be numeric: NaN is not a number"),
    ("nan_diagonal_sweep", "tomogram-sweep", _nan_diagonal_4x4(), None, "2,2", 2,
     "input.json: 'dim', 're' and 'im' must be numeric: NaN is not a number"),
    ("nan_dim", "analyze-dm", {"dim": math.nan, "re": (np.eye(4) / 4).tolist()}, None, "2,2", 2,
     "input.json: 'dim', 're' and 'im' must be numeric: NaN is not a number"),
    ("string_matrix", "analyze-dm", {"re": "x"}, None, "2,1", 2, "must be numeric"),
    ("string_angle", "tomogram-sweep", _BELL, [{"theta": "x", "phi": 0.1}], "2,2", 2,
     "entry 0 has a non-numeric angle"),
    ("inf_csv_row", "analyze-prob", "inf\n0\n0\n0\n", None, "2,2", 2,
     "p.csv:1: not a finite number: 'inf'"),
    ("nan_csv_row", "analyze-prob", "nan\n0.5\n0.25\n0.25\n", None, "2,2", 2,
     "p.csv:1: not a finite number: 'nan'"),
    ("nan_csv_row_after_blank_lines", "analyze-prob", "0.5\n\n  \n0.25\n NaN \n", None, "3,1",
     2, "p.csv:5: not a finite number: 'NaN'"),
    ("overflowing_csv_row", "analyze-prob", "0.5\n1e400\n", None, "2,1", 2,
     "p.csv:2: not a finite number: '1e400'"),
    ("overflowing_re", "analyze-dm", _JsonText('{"dim": 2, "re": [[1e400, 0], [0, 0]]}'), None,
     "2,1", 2, f"input.json: 'dim', 're' and 'im' must be numeric: {_BEYOND_FLOAT}"),
    ("overflowing_negative_im", "analyze-dm",
     _JsonText('{"re": [[0.5, 0], [0, 0.5]], "im": [[0, -1e400], [0, 0]]}'), None, "2,1", 2,
     f"input.json: 'dim', 're' and 'im' must be numeric: {_BEYOND_FLOAT}"),
    ("overflowing_hermitian_part_analyze", "analyze-dm", _NEAR_FLOAT_MAX, None, "2,1", 2,
     "an entry overflows rho + rho^dagger, so rho is not PSD"),
    ("overflowing_hermitian_part_sweep", "tomogram-sweep", _NEAR_FLOAT_MAX, None, "2,1", 2,
     "an entry overflows rho + rho^dagger, so rho is not PSD"),
    ("overflowing_json_probability", "analyze-prob", _JsonText("[1e400, 0.5]"), None, "2,1", 2,
     f"input.json: probabilities must be numeric: {_BEYOND_FLOAT}"),
    ("overflowing_phi", "tomogram-sweep", _BELL, b'[{"theta": 0.1, "phi": 1e400}]', "2,2", 2,
     f"grid.json: entry 0 has a non-numeric angle: {_BEYOND_FLOAT}"),
    ("negative_infinity_json", "analyze-prob", [-math.inf, 1, 0, 0], None, "2,2", 2,
     "input.json: probabilities must be numeric: -Infinity is not a number"),
    ("infinity_angle", "tomogram-sweep", _BELL, [{"theta": 0.1, "phi": math.inf}], "2,2", 2,
     "grid.json: entry 0 has a non-numeric angle: Infinity is not a number"),
    ("nan_q", "analyze-prob --q nan", [0.25] * 4, None, "2,2", 2, "Tsallis q = nan"),
    ("string_probability", "analyze-prob", ["a", 0.5], None, "2,1", 2, "must be numeric"),
    ("object_probability", "analyze-prob", [{"x": 1}], None, "1,1", 2, "must be numeric"),
    ("non_utf8_csv", "analyze-prob", b"\xff\xfe0.5\n0.5\n", None, "2,1", 2, "can't decode"),
    ("non_utf8_grid", "tomogram-sweep", _BELL, b"\xff\xfe[]", "2,2", 2, "grid.json: "),
    ("one_axis_prob", "analyze-prob", "0.5\n0.5\n", None, "2", 2,
     "a split needs at least two axes, got dims (2,)"),
    ("one_axis_dm", "analyze-dm", {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}, None, "2", 2,
     "a split needs at least two axes, got dims (2,)"),
    ("fractional_dim", "analyze-dm", {"dim": 4.5, "re": (np.eye(4) / 4).tolist()}, None, "2,2",
     2, "declared dim 4.5 != matrix dimension 4"),
    ("huge_int_dim", "analyze-dm", {"dim": 10**400, "re": [[1.0]]}, None, "1,1", 2,
     "int too large to convert to float"),
    ("huge_int_probability", "analyze-prob", [10**400, 0, 0, 0], None, "2,2", 2,
     "input.json: probabilities must be numeric: int too large to convert to float"),
    ("huge_int_theta", "tomogram-sweep", _BELL, [{"theta": 10**400, "phi": 0.1}], "2,2", 2,
     "grid.json: entry 0 has a non-numeric angle: int too large to convert to float"),
    ("huge_int_psi", "tomogram-sweep", _BELL, [{"theta": 0.1, "phi": 0.2, "psi": -10**400}],
     "2,2", 2, "grid.json: entry 0 has a non-numeric angle: int too large to convert to float"),
    ("boolean_probability", "analyze-prob", [True, False, False, False], None, "2,2", 2,
     "input.json: probabilities must be numeric: true and false are not numbers"),
    ("boolean_matrix", "analyze-dm",
     {"dim": 2, "re": [[True, False], [False, False]], "im": [[0, 0], [0, 0]]}, None, "2,1", 2,
     "input.json: 'dim', 're' and 'im' must be numeric: true and false are not numbers"),
    ("boolean_dim", "analyze-dm", {"dim": True, "re": [[1.0]]}, None, "1,1", 2,
     "input.json: 'dim', 're' and 'im' must be numeric: true and false are not numbers"),
    ("boolean_angle", "tomogram-sweep", _BELL, [{"theta": True, "phi": False}], "2,2", 2,
     "grid.json: entry 0 has a non-numeric angle: true and false are not numbers"),
    ("colliding_q_labels", "analyze-prob --q 2 --q 2.0000001", [0.25] * 4, None, "2,2", 2,
     "--q 2.0 and --q 2.0000001 share the label q=2"),
    ("repeated_q_fuzz", "fuzz --count 1 --q 2 --q 2", None, None, None, 2,
     "--q 2.0 and --q 2.0 share the label q=2"),
    ("repeated_q_sweep", "tomogram-sweep --q 3 --q 3", _BELL, None, "2,2", 2,
     "--q 3.0 and --q 3.0 share the label q=3"),
    ("numeric_string_probability", "analyze-prob", ["0.25"] * 4, None, "2,2", 2,
     "input.json: probabilities must be numeric: strings are not numbers"),
    ("numeric_string_matrix_entry", "analyze-dm", {"dim": 2, "re": [["0.5", "0"], ["0", "0.5"]]},
     None, "2,1", 2, "input.json: 'dim', 're' and 'im' must be numeric: strings are not numbers"),
    ("numeric_string_dim", "analyze-dm", {"dim": "4", "re": (np.eye(4) / 4).tolist()}, None,
     "2,2", 2, "input.json: 'dim', 're' and 'im' must be numeric: strings are not numbers"),
    ("numeric_string_angle", "tomogram-sweep", _BELL, [{"theta": "0.5", "phi": "0.1"}], "2,2", 2,
     "grid.json: entry 0 has a non-numeric angle: strings are not numbers"),
    ("deep_input", "analyze-dm", "[" * 100_000 + "]" * 100_000, None, "2,2", 2,
     "p.csv: maximum recursion depth exceeded"),
    ("list_dim", "analyze-dm", {"dim": [4], "re": (np.eye(4) / 4).tolist()}, None, "2,2", 2,
     "input.json: 'dim', 're' and 'im' must be numeric"),
    ("list_angles", "tomogram-sweep", _BELL, [{"theta": [0.5], "phi": [0.1], "psi": [0.0]}],
     "2,2", 2, "grid.json: entry 0 has a non-numeric angle"),
    ("deep_grid", "tomogram-sweep", _BELL, b"[" * 100_000 + b"]" * 100_000, "2,2", 2,
     "grid.json: maximum recursion depth exceeded"),
    ("q_label_one_fuzz", "fuzz --count 300 --q 1.0000000001", None, None, None, 2,
     "--q 1.0000000001 has the label q=1"),
    ("q_label_one_prob", "analyze-prob --q 2 --q 0.9999995", [0.25] * 4, None, "2,2", 2,
     "--q 0.9999995 has the label q=1"),
    ("q_label_one_sweep", "tomogram-sweep --q 1.000004", _BELL, None, "2,2", 2,
     "--q 1.000004 has the label q=1"),
    ("wrong_total_dm", "analyze-dm", _BELL, None, "2,3", 2,
     "dimension mismatch: factorization total 6 != matrix dimension 4"),
    ("wrong_total_sweep", "tomogram-sweep", _BELL, None, "2,3", 2,
     "dimension mismatch: factorization total 6 != tomogram length 4"),
    ("three_axis_sweep", "tomogram-sweep", {"dim": 16, "re": (np.eye(16) / 16).tolist()}, None,
     "2,2,4", 2, "tomographic analysis splits into two axes, got 3"),
    ("object_probabilities", "analyze-prob", {"p": [0.5, 0.5]}, None, "2,1", 2,
     "input.json: expected a JSON array of probabilities"),
    ("empty_json_probabilities", "analyze-prob", [], None, "2,1", 2,
     "input.json: no probabilities found"),
    ("blank_csv", "analyze-prob", "\n  \n", None, "2,1", 2, "p.csv: no probabilities found"),
    ("list_matrix", "analyze-dm", [[1.0]], None, "1,1", 2,
     "input.json: expected an object with 'dim' and 're'/'im' arrays"),
    ("null_im", "analyze-dm", {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": None}, None,
     "2,1", 2, "input.json: 'dim', 're' and 'im' must be numeric: null is not a number"),
    ("null_probability", "analyze-prob", [0.5, None, 0.5], None, "3,1", 2,
     "input.json: probabilities must be numeric: null is not a number"),
    ("null_matrix_entry", "analyze-dm", {"dim": 2, "re": [[0.5, None], [0.0, 0.5]]}, None, "2,1",
     2, "input.json: 'dim', 're' and 'im' must be numeric: null is not a number"),
    ("null_angle", "tomogram-sweep", _BELL, [{"theta": None, "phi": 0.1}], "2,2", 2,
     "grid.json: entry 0 has a non-numeric angle: null is not a number"),
    ("null_psi", "tomogram-sweep", _BELL, [{"theta": 0.1, "phi": 0.2, "psi": None}], "2,2", 2,
     "grid.json: entry 0 has a non-numeric angle: null is not a number"),
    ("non_square_re", "analyze-dm", {"re": [[0.5, 0.5]]}, None, "2,1", 2,
     "input.json: 're' and 'im' must be matching square matrices"),
    ("empty_grid", "tomogram-sweep", _BELL, [], "2,2", 2,
     "grid.json: expected a nonempty JSON array of directions"),
]


@pytest.mark.parametrize(
    "subcommand, state, grid, dims, code, fragment",
    [row[1:] for row in _MALFORMED],
    ids=[row[0] for row in _MALFORMED],
)
def test_malformed_input_corpus(tmp_path, capsys, subcommand, state, grid, dims, code, fragment):
    argv = subcommand.split()
    if state is not None:
        if isinstance(state, (str, bytes)):
            state_path = tmp_path / ("input.json" if isinstance(state, _JsonText) else "p.csv")
            state_path.write_bytes(state if isinstance(state, bytes) else state.encode())
        else:
            state_path = tmp_path / "input.json"
            state_path.write_text(json.dumps(state))  # json writes NaN and -Infinity bare
        argv += ["--input", str(state_path), "--dims", dims]
    if grid is not None:
        grid_path = tmp_path / "grid.json"
        grid_path.write_bytes(grid if isinstance(grid, bytes) else json.dumps(grid).encode())
        argv += ["--grid", str(grid_path)]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("argv, message", [
    (["tomogram-sweep", "--dims", "4,8,8", "--grid", "{missing}"],
     "tomographic analysis splits into two axes, got 3"),
    (["tomogram-sweep", "--dims", "2,2", "--q", "1.0000001"],
     "--q 1.0000001 has the label q=1, too close to 1 for a Tsallis margin; "
     "the Shannon results cover q -> 1"),
    (["analyze-prob", "--dims", "2,2", "--q", "2", "--q", "1.0000001"],
     "--q 1.0000001 has the label q=1, too close to 1 for a Tsallis margin; "
     "the Shannon results cover q -> 1"),
    (["analyze-prob", "--dims", "2"], "a split needs at least two axes, got dims (2,)"),
    (["analyze-prob", "--dims", "2,2", "--split", "3"], "split point s = 3 outside 1..1"),
    (["analyze-dm", "--dims", "2", "--split", "1"],
     "a split needs at least two axes, got dims (2,)"),
])
def test_arguments_refused_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv, message):
    def fail(path):
        raise AssertionError(f"{path} was read before the arguments were checked")

    for loader in ("load_density_matrix", "read_density_matrix", "load_probability_vector",
                   "load_direction_grid"):
        monkeypatch.setattr(cli, loader, fail)
    missing = str(tmp_path / "missing.json")
    argv = [missing if a == "{missing}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--input", missing)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_non_integer_dims_exit_2_through_argparse(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze-prob", "--input", "p.csv", "--dims", "2,x"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --dims: dims must be a comma-separated integer list, got '2,x'\n")


# One parsed 4 x 4 matrix per refusal of validate, each of which the sweep must repeat.
_REFUSED_STATES = {
    "not_hermitian": np.diag([0.4, 0.3, 0.2, 0.1]) + np.triu(np.full((4, 4), 0.01), 1),
    "trace": np.diag([0.4, 0.3, 0.2, 0.2]),
    "not_psd": np.diag([0.6, 0.3, 0.2, -0.1]),
    "nan": np.array(_nan_diagonal_4x4()["re"]),
}


@pytest.mark.parametrize("case", list(_REFUSED_STATES))
def test_sweep_refuses_a_state_as_analyze_dm_does(tmp_path, capsys, case):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dim": 4, "re": _REFUSED_STATES[case].tolist()}))
    expected = run_cli(capsys, "analyze-dm", "--input", str(path), "--dims", "2,2")
    assert expected[0] == 2 and expected[1] == "" and expected[2].startswith("error: ")
    assert run_cli(capsys, "tomogram-sweep", "--input", str(path), "--dims", "2,2") == expected


_GRID = [{"theta": 0.1, "phi": 0.2}]
# loader -> (subcommand, dims, input name and text, grid text or None, which file is bad):
# one malformed JSON file per loader, read next to a good one where the command takes two.
_BAD_JSON = {
    "probability_vector": ("analyze-prob", "2,1", "p.json", "[0.5, 0.5", None, "p.json"),
    "density_matrix": ("tomogram-sweep", "2,1", "p.csv", "0.5\n0.5\n", json.dumps(_GRID),
                       "p.csv"),
    "direction_grid": ("tomogram-sweep", "2,2", "rho.json", json.dumps(_BELL), "[{",
                       "grid.json"),
}


@pytest.mark.parametrize("loader", list(_BAD_JSON))
def test_malformed_json_names_its_file(tmp_path, capsys, loader):
    subcommand, dims, name, text, grid, bad = _BAD_JSON[loader]
    (tmp_path / name).write_text(text)
    argv = [subcommand, "--input", str(tmp_path / name), "--dims", dims]
    if grid is not None:
        (tmp_path / "grid.json").write_text(grid)
        argv += ["--grid", str(tmp_path / "grid.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tmp_path / bad}: ")


_OUT_ARGS = {
    "analyze-prob": ["--input", "p.json", "--dims", "2,2"],
    "analyze-dm": ["--input", "rho.json", "--dims", "2,2"],
    "tomogram-sweep": ["--input", "rho.json", "--dims", "2,2"],
    "demo-four-level": [],
    "fuzz": ["--count", "5"],
}


@pytest.mark.parametrize("command", list(_OUT_ARGS))
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    (tmp_path / "p.json").write_text(json.dumps([0.25] * 4))
    (tmp_path / "rho.json").write_text(json.dumps(_BELL))
    out_path = tmp_path / "missing" / "report.json"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in _OUT_ARGS[command]]
    code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(out_path) in err


# subcommand -> (arguments, the q values it uses); paths are made absolute under tmp_path.
_ECHO = {
    "analyze-prob": (["--input", "p.json", "--dims", "2,2", "--q", "2", "--q", "0.5",
                      "--conditionals"], [2.0, 0.5]),
    "analyze-dm": (["--input", "rho.json", "--dims", "2,2", "--split", "1"], None),
    "tomogram-sweep": (["--input", "rho.json", "--dims", "2,2", "--grid", "grid.json",
                        "--out", "records.jsonl"], []),
    "demo-four-level": ([], None),
    "fuzz": (["--seed", "4", "--count", "2"], [1.5, 2.0, 3.0]),
}


@pytest.mark.parametrize("command", list(_ECHO))
def test_request_echoes_every_parsed_argument(tmp_path, capsys, command):
    flags, qs = _ECHO[command]
    (tmp_path / "p.json").write_text(json.dumps([0.25] * 4))
    (tmp_path / "rho.json").write_text(json.dumps(_BELL))
    (tmp_path / "grid.json").write_text(json.dumps(_GRID))
    argv = [command, *(str(tmp_path / a) if a.endswith((".json", ".jsonl")) else a for a in flags)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    request = json.loads(out)["request"]

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices[command]._actions
             if a.default is not argparse.SUPPRESS}
    assert request.keys() == {"subcommand"} | dests
    assert request.pop("subcommand") == command
    parsed = vars(parser.parse_args(argv))
    expected = {dest: jsonable(parsed[dest]) for dest in dests}
    if qs is not None:
        expected["q"] = qs
    assert request == expected


# subcommand -> (arguments, the q labels its report holds Tsallis values for, its one Tsallis
# check); run with --q 0.5 --q 2, only q = 2, where the inequalities are theorems, is gated.
_Q_GATE = {
    "analyze-prob": (["--input", "p.json", "--dims", "2,2"], ["0.5", "2"],
                     "tsallis_subadditivity_q=2"),
    "tomogram-sweep": (["--input", "rho.json", "--dims", "2,2", "--grid", "grid.json",
                        "--out", "records.jsonl"], ["0.5", "2"],
                       "tomographic_tsallis_min_margin_q=2"),
    "fuzz": (["--count", "3"], ["2"], "qutrit_tsallis_q=2_min_margin"),
}


@pytest.mark.parametrize("command", list(_Q_GATE))
def test_only_q_above_one_is_gated(tmp_path, capsys, command):
    flags, labels, gated = _Q_GATE[command]
    (tmp_path / "p.json").write_text(json.dumps([0.1, 0.2, 0.3, 0.4]))
    (tmp_path / "rho.json").write_text(json.dumps(_BELL))
    (tmp_path / "grid.json").write_text(json.dumps(_GRID))
    argv = [str(tmp_path / a) if a.endswith((".json", ".jsonl")) else a for a in flags]
    code, out, _ = run_cli(capsys, command, *argv, "--q", "0.5", "--q", "2")
    assert code == 0
    report = json.loads(out)
    assert [c["name"] for c in report["checks"] if "tsallis" in c["name"]] == [gated]
    if command == "analyze-prob":
        reported = report["results"]["tsallis"]
    elif command == "tomogram-sweep":
        reported = json.loads((tmp_path / "records.jsonl").read_text())["tsallis"]
    else:
        reported = [name.removeprefix("qutrit_tsallis_q=")
                    for name in report["results"]["min_margins"] if "tsallis" in name]
    assert sorted(reported) == labels


# States the state check accepts, whose negative eigenvalues sum to sigma <= PSD_ATOL: diagonal
# states with one level at 1 + sigma and N - 1 at -s, sigma = (N - 1) s = 0.99 PSD_ATOL, and a
# qutrit whose |rho13| passes 1/2.  No table derived from them is judged again.
_SLACK_DIAGONALS = [(4, "2,2"), (16, "4,4"), (64, "8,8")]


def _diagonal(n, s):
    levels = np.full(n, -s)
    levels[0] = 1.0 + (n - 1) * s
    return np.diag(levels)


def _matrix_file(tmp_path, name, matrix) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": len(matrix), "re": matrix.tolist()}))
    return str(path)


def _slack_diagonal(tmp_path, n):
    path = _matrix_file(tmp_path, f"slack_{n}", _diagonal(n, 0.99 * PSD_ATOL / (n - 1)))
    return load_density_matrix(path), path


class TestStatesTheCheckAccepts:
    @pytest.mark.parametrize("n, dims", _SLACK_DIAGONALS)
    def test_tomograms_are_zeroed_and_renormalized(self, tmp_path, capsys, n, dims):
        state, path = _slack_diagonal(tmp_path, n)
        rep, f = spin_rep((n - 1) / 2.0), Factorization(tuple(map(int, dims.split(","))))
        grid = [Direction(theta, phi) for theta in (0.0, 1.0, math.pi) for phi in (0.0, 2.0)]
        sweep = direction_sweep(state.matrix, rep, f, grid)
        tables = [tomogram(state, rep, direction) for direction in grid]
        for values, error in [(sweep.values, sweep.normalization_error),
                              *((t.values, t.normalization_error) for t in tables)]:
            assert values.min() >= 0.0
            assert np.abs(values.sum(axis=-1) - 1.0).max() <= 1e-14
            assert np.max(error) <= 1e-14  # the state's own trace error, not its slack
        # At theta = 0 the table is the diagonal, m ascending: the one level, exactly.
        assert sweep.values[0].tolist() == [0.0] * (n - 1) + [1.0]
        code, out, err = run_cli(capsys, "tomogram-sweep", "--input", path, "--dims", dims)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["max_normalization_error"] <= 1e-14

    @pytest.mark.parametrize("n, dims", _SLACK_DIAGONALS)
    def test_entropy_bound_allows_the_slack(self, tmp_path, capsys, n, dims):
        # S = -(1 + sigma) ln(1 + sigma), between -sigma - sigma^2 and 0.
        _, path = _slack_diagonal(tmp_path, n)
        _, out, _ = run_cli(capsys, "analyze-dm", "--input", path, "--dims", dims)
        entropy = {c["name"]: c for c in json.loads(out)["checks"]}["entropy_within_bounds"]
        assert -0.99 * PSD_ATOL * 1.001 <= entropy["value"] < 0.0
        assert entropy["holds"] is True

    @pytest.mark.parametrize("n, dims", _SLACK_DIAGONALS)
    def test_analyze_dm_exits_0(self, tmp_path, capsys, n, dims):
        _, path = _slack_diagonal(tmp_path, n)
        code, out, err = run_cli(capsys, "analyze-dm", "--input", path, "--dims", dims)
        assert (code, err) == (0, ""), out

    def test_mutual_information_allows_the_slack(self, tmp_path, capsys):
        # diag(1 - s, s, s, -s) at 2 x 2 has pure reductions, so I = -S = -eta(1 - s) - 2 eta(s),
        # about -4.7e-9 at s = 0.99 PSD_ATOL: below -QUANTUM_MUTUAL_ATOL, but not below the
        # floor -s (1 + s + ln(N / s^2)) that the negative mass s allows.
        s = 0.99 * PSD_ATOL
        path = _matrix_file(tmp_path, "hidden_4", np.diag([1.0 - s, s, s, -s]))
        code, out, err = run_cli(capsys, "analyze-dm", "--input", path, "--dims", "2,2")
        assert (code, err) == (0, "")
        mutual = {c["name"]: c for c in json.loads(out)["checks"]}["quantum_subadditivity"]
        assert -s * (1.0 + s + math.log(4.0 / s**2)) <= mutual["value"] < -QUANTUM_MUTUAL_ATOL
        assert mutual["holds"] is True

    def test_qutrit_coherence_past_one_half_is_a_support_hole(self):
        # Eigenvalues -9.9e-11, 0 and 1 + 9.9e-11 pass the check, yet Re rho13 = 1/2 + 9.9e-11
        # leaves the reference weight 1/2 - Re rho13 below 0, where rho33 > 0 puts weight.
        c = 0.5 + 0.99 * PSD_ATOL
        state = validate(np.array([[0.5, 0.0, c], [0.0, 0.0, 0.0], [c, 0.0, 0.5]]))
        assert state.matrix[0, 2].real > 0.5
        for record in (qutrit_inequality_shannon(state),
                       qutrit_inequality_tsallis(state, TsallisParam(2.0))):
            assert (record.value, record.holds) == (math.inf, True)


def _edge_6(s):
    edge = np.array([-s, 0.3, -s, 0.3, -s, 0.0])
    edge[5] = 1.0 - edge.sum()
    return np.diag(edge)


# Files an earlier floor (each eigenvalue >= -PSD_ATOL) accepted, with negative mass sigma past
# PSD_ATOL: each is refused as it enters, before any derived value is taken.
_QUTRIT_OVER = np.array([[0.5 + 0.495e-10, 0.0, 0.5 + 1.4e-10], [0.0, -0.99e-10, 0.0],
                         [0.5 + 1.4e-10, 0.0, 0.5 + 0.495e-10]])
_OVER_THE_FLOOR = {
    "diagonal_4": (_diagonal(4, 5e-11), "2,2", 1.5e-10),
    "diagonal_16": (_diagonal(16, 0.99e-10), "4,4", 1.485e-9),
    "diagonal_64": (_diagonal(64, 0.99e-10), "8,8", 6.237e-9),
    "edge_6": (_edge_6(4e-11), "2,3", 1.2e-10),
    "qutrit": (_QUTRIT_OVER, "3,1", 1.895e-10),
}


@pytest.mark.parametrize("case", list(_OVER_THE_FLOOR))
def test_negative_mass_past_the_floor_is_refused(tmp_path, capsys, case):
    matrix, dims, sigma = _OVER_THE_FLOOR[case]
    path = _matrix_file(tmp_path, case, matrix)
    assert np.linalg.eigvalsh(read_density_matrix(path)).min() >= -PSD_ATOL
    with pytest.raises(NotPSD, match=f"^negative eigenvalue mass = {sigma:.3e} exceeds 1e-10$"):
        load_density_matrix(path)
    for command in ("analyze-dm", "tomogram-sweep"):
        code, out, err = run_cli(capsys, command, "--input", path, "--dims", dims)
        assert (code, out) == (2, "") and "negative eigenvalue mass" in err


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
            "classical_product_min_margin",
        } <= names
        assert report["seed"] == 1

    def test_fuzz_nan_margins_exit_2(self, capsys):
        # p**q underflows to 0 and r**(1 - q) overflows, so every Tsallis margin is NaN;
        # the kernel silences the overflow, so no RuntimeWarning escapes either.
        # The run stops at its first block and reports that block's count.
        code, out, err = run_cli(capsys, "fuzz", "--count", str(BLOCK + 44), "--q", "1e300")
        assert code == 2 and out == ""
        assert err == (f"error: qutrit_tsallis_q=1e+300: {BLOCK} of {BLOCK} margins in a block "
                       "are NaN\n")

    def test_fuzz_bad_count_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--count", "0")
        assert code == 2 and "count" in err

    def test_fuzz_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--seed", "-1", "--count", "5")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "seed must be nonnegative, got -1" in err
