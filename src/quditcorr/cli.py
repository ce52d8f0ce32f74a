"""Command-line surface: ingest states, run the correlation diagnostics,
and emit JSON reports.

Exit codes: 0 = every check holds; 1 = a mathematical inequality was
violated beyond tolerance (a bug, or corrupt input that slipped through
validation); 2 = input or usage error.
"""

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from . import _kernels
from .classical import (
    JointView,
    TsallisParam,
    marginal,
    split_conditionals,
    subadditivity_report,
)
from .errors import QuditCorrError, UsageError
from .fuzz import family_table, run_families
from .io import (
    density_matrix_payload,
    load_density_matrix,
    load_direction_grid,
    load_probability_vector,
    read_density_matrix,
)
from .partition import Factorization, MultiIndex, QuditSplit, compose, decompose
from .quantum import (
    DensityMatrix,
    ReshapedState,
    _linear_entropy,
    chsh_max,
    reductions_and_spectra,
    separability_test,
    validate,
)
from .reporting import CheckRecord, Report, check, json_line
from .tolerances import (
    CHSH_ATOL,
    DEMO_CLOSED_FORM_ATOL,
    DEMO_LINEAR_ENTROPY_ATOL,
    ENTROPY_BOUND_ATOL,
    PSD_ATOL,
    QUANTUM_MUTUAL_ATOL,
    SUBADDITIVITY_ATOL,
    TOMOGRAM_SUM_ATOL,
)
from .tomography import Direction, check_two_axes, direction_sweep, spin_rep, tsallis_reports


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be a comma-separated integer list, got {text!r}"
        ) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls."""
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
    """One TsallisParam per q; their labels key report entries, so they must differ,
    and none may read "1", where (sum p^q - 1)/(q - 1) has lost a margin's digits."""
    qs = [TsallisParam(q) for q in (default if values is None else values)]
    labels: dict[str, float] = {}
    for tq in qs:
        if (label := tq.label) == "1":
            raise UsageError(f"--q {tq.q!r} has the label q=1, too close to 1 for a Tsallis "
                             "margin; the Shannon results cover q -> 1")
        if label in labels:
            raise UsageError(f"--q {labels[label]!r} and --q {tq.q!r} share the label q={label}")
        labels[label] = tq.q
    return qs


def _report(args, results, checks, qs=(), seed=None) -> Report:
    """The report whose request echoes every parsed argument, with --q as the q values used."""
    request = {"subcommand": args.command, **vars(args)}
    del request["command"]
    if "q" in request:
        request["q"] = [tq.q for tq in qs]
    return Report(request=request, seed=seed, results=results, checks=checks)


def _cmd_analyze_prob(args) -> Report:
    factorization = Factorization(args.dims)
    split = QuditSplit(factorization, args.split)  # the layout is refused before any file is read
    qs = _tsallis_params(args.q)
    vector = load_probability_vector(args.input)
    view = JointView(vector, factorization)
    report = subadditivity_report(view, split)

    num_axes = factorization.num_axes
    left, right = report.left, report.right
    # A block of one axis is that axis's marginal already.
    blocks = {(1, split.s): left, (split.s + 1, num_axes): right}
    verdict = check("subadditivity", report.mutual_info, SUBADDITIVITY_ATOL)

    results = {
        "units": "nats",
        "marginals": {
            "left_block": left.probs,
            "right_block": right.probs,
            **{
                f"axis_{k}": (blocks[k, k] if (k, k) in blocks else marginal(view, (k,))).probs
                for k in range(1, num_axes + 1)
            },
        },
        "S_left": report.s_left,
        "S_right": report.s_right,
        "S_joint": report.s_joint,
        "mutual_info": report.mutual_info,
        "subadditivity_holds": verdict.holds,
    }
    checks = [verdict]

    if qs:
        suite = results["tsallis"] = {}
        for tq in qs:
            s_q_left, s_q_right, s_q_joint, margin = _kernels.split_entropies(
                left.probs, right.probs, vector.probs, tq.q
            )
            verdict = check(f"tsallis_subadditivity_q={tq.label}", margin, SUBADDITIVITY_ATOL)
            suite[tq.label] = {
                "S_q_left": s_q_left,
                "S_q_right": s_q_right,
                "S_q_joint": s_q_joint,
                "margin": margin,
                "holds": verdict.holds,
            }
            if tq.gated:
                checks.append(verdict)

    if args.conditionals:
        left_given_right, right_given_left = split_conditionals(view, split)
        results["conditionals"] = {
            "left_given_right": {str(b): row for b, row in enumerate(left_given_right, 1)},
            "right_given_left": {str(a): row for a, row in enumerate(right_given_left, 1)},
        }

    return _report(args, results, checks, qs)


_TSIRELSON = 2.0 * math.sqrt(2.0)  # the largest CHSH value a quantum state reaches


def _analyze_density_matrix(state: DensityMatrix, split: QuditSplit):
    reshaped = ReshapedState(state, split.factorization)
    (rho_left, rho_right), spectra = reductions_and_spectra(state, split.dim_left)
    s_left, s_right, s_joint, mutual = _kernels.split_entropies(*spectra, state.eigenvalues)
    verdict = separability_test(reshaped, split)
    results = {
        "units": "nats",
        "spectrum": state.eigenvalues,
        "rho_left": density_matrix_payload(rho_left),
        "rho_right": density_matrix_payload(rho_right),
        "S": s_joint,
        "S_left": s_left,
        "S_right": s_right,
        "mutual_info": mutual,
        "linear_entropy": _linear_entropy(rho_right),
        "separability": {"status": verdict.status, "witness_value": verdict.witness_value},
    }
    # sigma, the state's negative eigenvalue mass, moves the checks' ends: the masked entropies
    # keep -sigma - sigma^2 <= S <= (1 + sigma) ln N, and a reduction to d levels loses at most
    # sigma ln(d / sigma) of entropy to it, so I >= -sigma (1 + sigma + ln(N / sigma^2)).
    sigma = -float(state.eigenvalues[state.eigenvalues < 0.0].sum())
    floor = sigma * (1.0 + sigma + math.log(state.dim) - 2.0 * math.log(sigma)) if sigma else 0.0
    checks = [
        check("quantum_subadditivity", mutual, QUANTUM_MUTUAL_ATOL, -floor),
        check("entropy_within_bounds", s_joint, ENTROPY_BOUND_ATOL, -sigma,
              (1.0 + sigma) * math.log(state.dim)),
    ]
    if split.dim_left == 2 and split.dim_right == 2:
        chsh = results["chsh_max"] = chsh_max(reshaped, split)
        results["bell_violated"] = bool(chsh > 2.0)
        checks.append(check("tsirelson_bound", chsh, CHSH_ATOL, -math.inf, _TSIRELSON))
    return results, checks


def _cmd_analyze_dm(args) -> Report:
    split = QuditSplit(Factorization(args.dims), args.split)  # refused before the file is read
    state = load_density_matrix(args.input)
    return _report(args, *_analyze_density_matrix(state, split))


def _default_grid() -> list[Direction]:
    thetas = np.linspace(0.0, math.pi, 10)
    phis = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    return [Direction(theta=float(t), phi=float(p)) for t in thetas for p in phis]


def _cmd_tomogram_sweep(args) -> Report:
    factorization = Factorization(args.dims)
    check_two_axes(factorization)  # --dims and --q are refused before any file is read
    qs = _tsallis_params(args.q)
    matrix = read_density_matrix(args.input)
    rep = spin_rep((len(matrix) - 1) / 2.0)
    grid = load_direction_grid(args.grid) if args.grid else _default_grid()
    sweep = direction_sweep(matrix, rep, factorization, grid, qs)

    if args.out:
        reports = {tq.label: tsallis_reports(sweep.tsallis[tq.q]) for tq in qs}
        rows = zip(sweep.directions, sweep.values.tolist(), sweep.information.tolist(),
                   sweep.normalization_error.tolist())
        payloads = (
            {
                **vars(direction),
                "values": values,
                "information": information,
                "tsallis": {q: vars(column[k]) for q, column in reports.items()},
                "normalization_error": error,
            }
            for k, (direction, values, information, error) in enumerate(rows)
        )
        Path(args.out).write_text("".join(json_line(p) + "\n" for p in payloads))

    argmin = int(sweep.information.argmin())
    min_information = float(sweep.information[argmin])
    max_error = float(sweep.normalization_error.max())
    checks = [
        check("tomographic_information_min", min_information, SUBADDITIVITY_ATOL),
        check("tomogram_normalization_max_error", max_error, TOMOGRAM_SUM_ATOL, -math.inf, 0.0),
    ]
    checks += [check(f"tomographic_tsallis_min_margin_q={tq.label}",
                     float(sweep.tsallis[tq.q][3].min()), SUBADDITIVITY_ATOL)
               for tq in qs if tq.gated]
    results = {
        "units": "nats",
        "spin_j": rep.j,
        "n_directions": len(sweep.directions),
        "min_information": min_information,
        "min_information_direction": {"index": argmin, **vars(sweep.directions[argmin])},
        "max_normalization_error": max_error,
    }
    return _report(args, results, checks, qs)


# The four-level worked example: index tables, the equal-weight superposition
# of the extreme levels, and its two-artificial-qubit diagnostics.
_EXPECTED_TABLES = {
    "y": {"(1,1)": 1, "(2,1)": 2, "(1,2)": 3, "(2,2)": 4},
    "x1": {"1": 1, "2": 2, "3": 1, "4": 2},
    "x2": {"1": 1, "2": 1, "3": 2, "4": 2},
}


def _cmd_demo_four_level(args) -> Report:
    factorization = Factorization((2, 2))
    tables = {
        "y": {
            f"({x1},{x2})": compose(MultiIndex((x1, x2), factorization))
            for x2 in (1, 2)
            for x1 in (1, 2)
        },
        "x1": {str(y): decompose(y, factorization).coords[0] for y in range(1, 5)},
        "x2": {str(y): decompose(y, factorization).coords[1] for y in range(1, 5)},
    }
    mismatches = sum(
        tables[name][k] != v for name, table in _EXPECTED_TABLES.items() for k, v in table.items()
    )

    # Equal superposition of the extreme spin projections, relabelled
    # -3/2 -> 1, ..., 3/2 -> 4: the vector (1, 0, 0, 1)/sqrt(2).
    amplitudes = np.zeros(4)
    amplitudes[0] = amplitudes[3] = 2.0**-0.5
    state = validate(np.outer(amplitudes, amplitudes))
    results, checks = _analyze_density_matrix(state, QuditSplit(factorization, 1))
    results["index_tables"] = tables
    results["state_vector"] = amplitudes

    ln4 = 2.0 * math.log(2.0)
    chsh, linear = results["chsh_max"], results["linear_entropy"]
    verdict = results["separability"]
    witness = verdict["witness_value"]
    checks = checks + [
        check("index_tables_match", float(mismatches), 0.0, 0.0, 0.0),
        check("mutual_info_equals_2ln2", results["mutual_info"], DEMO_CLOSED_FORM_ATOL, ln4, ln4),
        check("linear_entropy_equals_half", linear, DEMO_LINEAR_ENTROPY_ATOL, 0.5, 0.5),
        check("ppt_witness_equals_minus_half", witness, DEMO_CLOSED_FORM_ATOL, -0.5, -0.5),
        CheckRecord("state_entangled", witness, verdict["status"] == "entangled", PSD_ATOL),
        check("chsh_max_equals_2sqrt2", chsh, CHSH_ATOL, _TSIRELSON, _TSIRELSON),
        CheckRecord("bell_inequality_violated", chsh, results["bell_violated"], 0.0),
    ]
    return _report(args, results, checks, seed=0)


def _cmd_fuzz(args) -> Report:
    if args.count < 1:
        raise UsageError(f"count must be positive, got {args.count}")
    if args.seed < 0:
        raise UsageError(f"seed must be nonnegative, got {args.seed}")
    qs = _tsallis_params(args.q, default=(1.5, 2.0, 3.0))
    table = family_table(qs)
    rng = np.random.default_rng(args.seed)
    margins, infinities = run_families(rng, args.count, table)

    tolerances = {family.name: family.tolerance for family in table}
    checks = [
        check(f"{name}_min_margin", value, tolerances[name])
        for name, value in sorted(margins.items())
    ]
    results = {
        "count_per_family": args.count,
        "min_margins": margins,
        "infinite_values_skipped": infinities,
    }
    return _report(args, results, checks, qs, seed=args.seed)


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
        text = report.render()
        if args.out and args.command != "tomogram-sweep":
            # tomogram-sweep already used --out for its per-direction records.
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except (QuditCorrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_hold else 1


def run() -> None:
    sys.exit(main())
