"""Command-line surface: ingest states, run the correlation diagnostics,
and emit JSON reports.

Exit codes: 0 = every check holds; 1 = a mathematical inequality was
violated beyond tolerance (a bug, or corrupt input that slipped through
validation); 2 = input or usage error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from . import _kernels
from .classical import (
    JointView,
    TsallisParam,
    conditional,
    marginal,
    subadditivity_report,
)
from .errors import ConditioningOnNull, QuditCorrError, UsageError
from .fuzz import family_table, run_families
from .io import (
    density_matrix_payload,
    load_density_matrix,
    load_direction_grid,
    load_probability_vector,
)
from .partition import Factorization, MultiIndex, QuditSplit, compose, decompose
from .quantum import (
    DensityMatrix,
    ReshapedState,
    chsh_max,
    linear_entropy,
    mutual_quantum_information,
    partial_trace_left,
    partial_trace_right,
    separability_test,
    validate,
    von_neumann_entropy,
)
from .reporting import CheckRecord, Report, jsonable
from .tolerances import (
    CHSH_ATOL,
    ENTROPY_BOUND_ATOL,
    PRODUCT_MUTUAL_ATOL,
    QUANTUM_MUTUAL_ATOL,
    SUBADDITIVITY_ATOL,
    TOMOGRAM_SUM_ATOL,
)
from .tomography import Direction, direction_sweep, spin_rep


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be a comma-separated integer list, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcorr",
        description="Correlation diagnostics for single-qudit states via partition maps.",
    )
    parser.add_argument("--version", action="version", version=f"quditcorr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prob = sub.add_parser("analyze-prob", help="analyze a probability vector")
    prob.add_argument("--input", required=True, help="CSV (one value per line) or JSON array")
    prob.add_argument("--dims", required=True, type=_dims_arg)
    prob.add_argument("--split", type=int, default=1)
    prob.add_argument("--q", action="append", type=float, default=None)
    prob.add_argument("--conditionals", action="store_true")
    prob.add_argument("--out")

    dm = sub.add_parser("analyze-dm", help="analyze a density matrix")
    dm.add_argument("--input", required=True, help="density-matrix JSON file")
    dm.add_argument("--dims", required=True, type=_dims_arg)
    dm.add_argument("--split", type=int, default=1)
    dm.add_argument("--out")

    sweep = sub.add_parser("tomogram-sweep", help="tomographic sweep over directions")
    sweep.add_argument("--input", required=True, help="density-matrix JSON file (|m> basis, m descending)")
    sweep.add_argument("--dims", required=True, type=_dims_arg)
    sweep.add_argument("--grid", help="JSON array of {theta, phi[, psi]}; default 100 directions")
    sweep.add_argument("--q", action="append", type=float, default=None)
    sweep.add_argument("--out", help="per-direction records, one JSON object per line")

    demo = sub.add_parser("demo-four-level", help="four-level atom / spin-3/2 worked example")
    demo.add_argument("--out")

    fuzz = sub.add_parser("fuzz", help="randomized verification of every inequality")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=1000)
    fuzz.add_argument("--q", action="append", type=float, default=None)
    fuzz.add_argument("--out")

    return parser


def _tsallis_params(values, default=()) -> list[TsallisParam]:
    return [TsallisParam(q) for q in (default if values is None else values)]


def _cmd_analyze_prob(args) -> Report:
    factorization = Factorization(args.dims)
    vector = load_probability_vector(args.input)
    if factorization.total != len(vector):
        raise UsageError(
            f"dimension mismatch: dims {list(factorization.dims)} give total "
            f"{factorization.total}, input has {len(vector)} entries"
        )
    view = JointView(vector, factorization)
    split = QuditSplit(factorization, args.split)
    report = subadditivity_report(view, split)
    qs = _tsallis_params(args.q)

    num_axes = factorization.num_axes
    left_axes = range(1, split.s + 1)
    right_axes = range(split.s + 1, num_axes + 1)
    left = marginal(view, left_axes)
    right = marginal(view, right_axes)

    results = {
        "units": "nats",
        "marginals": {
            "left_block": left.probs,
            "right_block": right.probs,
            **{f"axis_{k}": marginal(view, (k,)).probs for k in range(1, num_axes + 1)},
        },
        "S_left": report.s_left,
        "S_right": report.s_right,
        "S_joint": report.s_joint,
        "mutual_info": report.mutual_info,
        "subadditivity_holds": report.holds,
    }
    checks = [
        CheckRecord(
            name="subadditivity",
            value=report.mutual_info,
            holds=report.holds,
            tolerance=SUBADDITIVITY_ATOL,
        )
    ]

    if qs:
        suite = {}
        for tq in qs:
            s_q_left = _kernels.tsallis(left.probs, tq.q)
            s_q_right = _kernels.tsallis(right.probs, tq.q)
            s_q_joint = _kernels.tsallis(vector.probs, tq.q)
            margin = s_q_left + s_q_right - s_q_joint
            holds = bool(margin >= -SUBADDITIVITY_ATOL)
            suite[f"{tq.q:g}"] = {
                "S_q_left": s_q_left,
                "S_q_right": s_q_right,
                "S_q_joint": s_q_joint,
                "margin": margin,
                "holds": holds,
            }
            # Only q > 1 carries a guarantee; q < 1 is reported, not gated.
            if tq.q > 1.0:
                checks.append(
                    CheckRecord(
                        name=f"tsallis_subadditivity_q={tq.q:g}",
                        value=margin,
                        holds=holds,
                        tolerance=SUBADDITIVITY_ATOL,
                    )
                )
        results["tsallis"] = suite

    if args.conditionals:
        right_sub = Factorization(factorization.dims[split.s:])
        left_sub = Factorization(factorization.dims[: split.s])
        left_given_right = {}
        for b in range(1, split.dim_right + 1):
            coords = decompose(b, right_sub).coords
            try:
                left_given_right[str(b)] = conditional(view, right_axes, left_axes, coords).probs
            except ConditioningOnNull:
                left_given_right[str(b)] = None
        right_given_left = {}
        for a in range(1, split.dim_left + 1):
            coords = decompose(a, left_sub).coords
            try:
                right_given_left[str(a)] = conditional(view, left_axes, right_axes, coords).probs
            except ConditioningOnNull:
                right_given_left[str(a)] = None
        results["conditionals"] = {
            "left_given_right": left_given_right,
            "right_given_left": right_given_left,
        }

    request = {
        "subcommand": "analyze-prob",
        "input": args.input,
        "dims": list(factorization.dims),
        "split": split.s,
        "q": [tq.q for tq in qs],
        "conditionals": bool(args.conditionals),
        "out": args.out,
    }
    return Report(request=request, seed=None, results=results, checks=checks)


def _quantum_checks(state, mutual, chsh):
    checks = [
        CheckRecord(
            name="quantum_subadditivity",
            value=mutual,
            holds=bool(mutual >= -QUANTUM_MUTUAL_ATOL),
            tolerance=QUANTUM_MUTUAL_ATOL,
        ),
        CheckRecord(
            name="entropy_within_bounds",
            value=von_neumann_entropy(state),
            holds=bool(
                -ENTROPY_BOUND_ATOL
                <= von_neumann_entropy(state)
                <= math.log(state.dim) + ENTROPY_BOUND_ATOL
            ),
            tolerance=ENTROPY_BOUND_ATOL,
        ),
    ]
    if chsh is not None:
        checks.append(
            CheckRecord(
                name="tsirelson_bound",
                value=chsh,
                holds=bool(chsh <= 2.0 * math.sqrt(2.0) + CHSH_ATOL),
                tolerance=CHSH_ATOL,
            )
        )
    return checks


def _analyze_density_matrix(state: DensityMatrix, factorization: Factorization, s: int):
    reshaped = ReshapedState(state, factorization)
    split = QuditSplit(factorization, s)
    rho_left = partial_trace_right(reshaped, split)
    rho_right = partial_trace_left(reshaped, split)
    s_joint = von_neumann_entropy(state)
    s_left = von_neumann_entropy(rho_left)
    s_right = von_neumann_entropy(rho_right)
    mutual = mutual_quantum_information(reshaped, split)
    verdict = separability_test(reshaped, split)
    chsh = None
    if split.dim_left == 2 and split.dim_right == 2:
        chsh = chsh_max(reshaped, split)
    results = {
        "units": "nats",
        "spectrum": state.eigenvalues,
        "rho_left": density_matrix_payload(rho_left),
        "rho_right": density_matrix_payload(rho_right),
        "S": s_joint,
        "S_left": s_left,
        "S_right": s_right,
        "mutual_info": mutual,
        "linear_entropy": linear_entropy(reshaped, split),
        "separability": {"status": verdict.status, "witness_value": verdict.witness_value},
    }
    if chsh is not None:
        results["chsh_max"] = chsh
        results["bell_violated"] = bool(chsh > 2.0)
    return results, _quantum_checks(state, mutual, chsh)


def _load_state(args) -> tuple[Factorization, DensityMatrix]:
    factorization = Factorization(args.dims)
    state = load_density_matrix(args.input)
    if factorization.total != state.dim:
        raise UsageError(
            f"dimension mismatch: dims {list(factorization.dims)} give total "
            f"{factorization.total}, matrix is {state.dim}x{state.dim}"
        )
    return factorization, state


def _cmd_analyze_dm(args) -> Report:
    factorization, state = _load_state(args)
    results, checks = _analyze_density_matrix(state, factorization, args.split)
    request = {
        "subcommand": "analyze-dm",
        "input": args.input,
        "dims": list(factorization.dims),
        "split": args.split,
        "out": args.out,
    }
    return Report(request=request, seed=None, results=results, checks=checks)


def _default_grid() -> list[Direction]:
    thetas = np.linspace(0.0, math.pi, 10)
    phis = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    return [Direction(theta=float(t), phi=float(p)) for t in thetas for p in phis]


def _angles(direction: Direction) -> dict:
    return {"theta": direction.theta, "phi": direction.phi, "psi": direction.psi}


def _cmd_tomogram_sweep(args) -> Report:
    factorization, state = _load_state(args)
    rep = spin_rep((state.dim - 1) / 2.0)
    grid = load_direction_grid(args.grid) if args.grid else _default_grid()
    qs = _tsallis_params(args.q)
    records = direction_sweep(state, rep, factorization, grid, qs)

    if args.out:
        payloads = (
            {
                **_angles(r.direction),
                "values": r.values,
                "information": r.information,
                "tsallis": {f"{q:g}": rep_q for q, rep_q in r.tsallis.items()},
                "normalization_error": r.normalization_error,
            }
            for r in records
        )
        Path(args.out).write_text(
            "".join(json.dumps(jsonable(p), sort_keys=True) + "\n" for p in payloads)
        )

    argmin = min(range(len(records)), key=lambda k: records[k].information)
    min_information = records[argmin].information
    max_norm_error = max(r.normalization_error for r in records)
    checks = [
        CheckRecord(
            name="tomographic_information_min",
            value=min_information,
            holds=bool(min_information >= -SUBADDITIVITY_ATOL),
            tolerance=SUBADDITIVITY_ATOL,
        ),
        CheckRecord(
            name="tomogram_normalization_max_error",
            value=max_norm_error,
            holds=bool(max_norm_error <= TOMOGRAM_SUM_ATOL),
            tolerance=TOMOGRAM_SUM_ATOL,
        ),
    ]
    for tq in qs:
        if tq.q <= 1.0:
            continue
        margin = min(
            r.tsallis[tq.q].s_q1 + r.tsallis[tq.q].s_q2 - r.tsallis[tq.q].s_q
            for r in records
        )
        checks.append(
            CheckRecord(
                name=f"tomographic_tsallis_min_margin_q={tq.q:g}",
                value=margin,
                holds=bool(margin >= -SUBADDITIVITY_ATOL),
                tolerance=SUBADDITIVITY_ATOL,
            )
        )
    results = {
        "units": "nats",
        "spin_j": rep.j,
        "n_directions": len(records),
        "min_information": min_information,
        "min_information_direction": {"index": argmin, **_angles(records[argmin].direction)},
        "max_normalization_error": max_norm_error,
    }
    request = {
        "subcommand": "tomogram-sweep",
        "input": args.input,
        "dims": list(factorization.dims),
        "grid": args.grid,
        "q": [tq.q for tq in qs],
        "out": args.out,
    }
    return Report(request=request, seed=None, results=results, checks=checks)


# The four-level worked example: index tables, the equal-weight superposition
# of the extreme levels, and its two-artificial-qubit diagnostics.
_EXPECTED_Y = {"(1,1)": 1, "(2,1)": 2, "(1,2)": 3, "(2,2)": 4}
_EXPECTED_X1 = {"1": 1, "2": 2, "3": 1, "4": 2}
_EXPECTED_X2 = {"1": 1, "2": 1, "3": 2, "4": 2}


def _cmd_demo_four_level(args) -> Report:
    factorization = Factorization((2, 2))
    y_table = {
        f"({x1},{x2})": compose(MultiIndex((x1, x2), factorization))
        for x2 in (1, 2)
        for x1 in (1, 2)
    }
    x1_table = {str(y): decompose(y, factorization).coords[0] for y in range(1, 5)}
    x2_table = {str(y): decompose(y, factorization).coords[1] for y in range(1, 5)}
    mismatches = sum(
        (
            sum(y_table[k] != v for k, v in _EXPECTED_Y.items()),
            sum(x1_table[k] != v for k, v in _EXPECTED_X1.items()),
            sum(x2_table[k] != v for k, v in _EXPECTED_X2.items()),
        )
    )

    # Equal superposition of the extreme spin projections, relabelled
    # -3/2 -> 1, ..., 3/2 -> 4: the vector (1, 0, 0, 1)/sqrt(2).
    amplitudes = np.zeros(4)
    amplitudes[0] = amplitudes[3] = 2.0**-0.5
    state = validate(np.outer(amplitudes, amplitudes))
    results, checks = _analyze_density_matrix(state, factorization, 1)
    results["index_tables"] = {"y": y_table, "x1": x1_table, "x2": x2_table}
    results["state_vector"] = amplitudes

    two_ln_two = 2.0 * math.log(2.0)
    chsh = results["chsh_max"]
    verdict = results["separability"]
    checks = checks + [
        CheckRecord(
            name="index_tables_match",
            value=float(mismatches),
            holds=mismatches == 0,
            tolerance=0.0,
        ),
        CheckRecord(
            name="mutual_info_equals_2ln2",
            value=results["mutual_info"],
            holds=bool(abs(results["mutual_info"] - two_ln_two) <= 1e-10),
            tolerance=1e-10,
        ),
        CheckRecord(
            name="linear_entropy_equals_half",
            value=results["linear_entropy"],
            holds=bool(abs(results["linear_entropy"] - 0.5) <= 1e-12),
            tolerance=1e-12,
        ),
        CheckRecord(
            name="ppt_witness_equals_minus_half",
            value=verdict["witness_value"],
            holds=bool(abs(verdict["witness_value"] + 0.5) <= 1e-10),
            tolerance=1e-10,
        ),
        CheckRecord(
            name="state_entangled",
            value=verdict["witness_value"],
            holds=verdict["status"] == "entangled",
            tolerance=1e-10,
        ),
        CheckRecord(
            name="chsh_max_equals_2sqrt2",
            value=chsh,
            holds=bool(abs(chsh - 2.0 * math.sqrt(2.0)) <= CHSH_ATOL),
            tolerance=CHSH_ATOL,
        ),
        CheckRecord(
            name="bell_inequality_violated",
            value=chsh,
            holds=bool(chsh > 2.0),
            tolerance=0.0,
        ),
    ]
    request = {"subcommand": "demo-four-level", "out": args.out}
    return Report(request=request, seed=0, results=results, checks=checks)


def _cmd_fuzz(args) -> Report:
    if args.count < 1:
        raise UsageError(f"count must be positive, got {args.count}")
    qs = _tsallis_params(args.q, default=(1.5, 2.0, 3.0))
    table = family_table(qs)
    rng = np.random.default_rng(args.seed)
    margins, infinities, product_extreme = run_families(rng, args.count, table)

    tolerances = {family.name: family.tolerance for family in table}
    checks = [
        CheckRecord(
            name=f"{name}_min_margin",
            value=value,
            holds=bool(value >= -tolerances[name]),
            tolerance=tolerances[name],
        )
        for name, value in sorted(margins.items())
    ]
    checks.append(
        CheckRecord(
            name="classical_product_mutual_abs_max",
            value=product_extreme,
            holds=bool(product_extreme <= PRODUCT_MUTUAL_ATOL),
            tolerance=PRODUCT_MUTUAL_ATOL,
        )
    )
    results = {
        "count_per_family": args.count,
        "min_margins": margins,
        "infinite_values_skipped": infinities,
        "product_mutual_abs_max": product_extreme,
    }
    request = {
        "subcommand": "fuzz",
        "seed": args.seed,
        "count": args.count,
        "q": [tq.q for tq in qs],
        "out": args.out,
    }
    return Report(request=request, seed=args.seed, results=results, checks=checks)


_HANDLERS = {
    "analyze-prob": _cmd_analyze_prob,
    "analyze-dm": _cmd_analyze_dm,
    "tomogram-sweep": _cmd_tomogram_sweep,
    "demo-four-level": _cmd_demo_four_level,
    "fuzz": _cmd_fuzz,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
    except QuditCorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.render()
    out = getattr(args, "out", None)
    if out and args.command != "tomogram-sweep":
        # tomogram-sweep already used --out for its per-direction records.
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_hold else 1


def run() -> None:
    sys.exit(main())
