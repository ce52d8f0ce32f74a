"""The stacked fuzz families against the scalar public API, sample by sample,
and the stacked checks against the scalar constructors, row by row."""

import itertools
import json
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from helpers import product_mutual_abs_max, quantum_margin_per_split, random_density
from quditcorr import (
    DensityMatrix,
    Direction,
    DomainError,
    Factorization,
    JointView,
    NotHermitian,
    NotPSD,
    ProbabilityVector,
    QubitProbabilities,
    QuditCorrError,
    QuditSplit,
    ReshapedState,
    TraceNotOne,
    SpinRep,
    TsallisParam,
    direction_sweep,
    mutual_quantum_information,
    mutual_tomographic_information,
    qubit_from_probabilities,
    qubit_inequality_xy,
    qubit_inequality_zx,
    qutrit_inequality_shannon,
    qutrit_inequality_tsallis,
    spin_rep,
    subadditivity_report,
    tomogram,
    validate,
)
from quditcorr import fuzz
from quditcorr._kernels import shannon
from quditcorr.cli import main
from quditcorr.classical import probability_rows
from quditcorr.fuzz import (
    BLOCK,
    Family,
    blocks,
    draw_products,
    draw_quantum,
    draw_qubits,
    draw_qutrits,
    draw_tomographic,
    family_table,
    product_margin,
    quantum_margin,
    run_families,
    tomographic_margin,
)
from quditcorr.qubit_qutrit import bloch_probabilities
from quditcorr.quantum import block_reductions, certify_stack, stack_spectra, validate_stack
from quditcorr.sampling import _factorization_table, _ginibre, bloch_ball_stack
from quditcorr.sampling import random_factorizations
from quditcorr.tolerances import PSD_ATOL
from quditcorr.tomography import check_angles

QS = [TsallisParam(q) for q in (0.5, 1.5, 2.0, 3.0)]
COUNT = BLOCK + 44  # one full block and one partial block


def _mutual(probs, dims, s) -> float:
    f = Factorization(dims)
    return subadditivity_report(JointView(ProbabilityVector(probs), f), QuditSplit(f, s)).mutual_info


def _classical(block):
    dims, splits, joint = block
    out = []
    for row, s, probs in zip(dims, splits, joint):
        axes = tuple(int(d) for d in row if d > 1)
        out.append(_mutual(probs[: math.prod(axes)], axes, int(s)))
    return out


def _quantum(block):
    dims, classes = block
    states = {}
    for rows, matrices, _ in classes:
        states.update(zip(rows.tolist(), matrices))
    out = []
    for b, row in enumerate(dims):
        f = Factorization(tuple(int(d) for d in row if d > 1))
        rs = ReshapedState(DensityMatrix(states[b]), f)
        out += [mutual_quantum_information(rs, QuditSplit(f, s)) for s in range(1, f.num_axes)]
    return out


def _qubits(inequality):
    return lambda block: [inequality(DensityMatrix(m)).value for m in block]


def _qutrit_tsallis(q):
    return lambda block: [qutrit_inequality_tsallis(DensityMatrix(m), TsallisParam(q)).value
                          for m in block]


def _tomographic(block):
    states, theta, phi = block
    rep, f = spin_rep(1.5), Factorization((2, 2))
    return [
        mutual_tomographic_information(tomogram(DensityMatrix(m), rep, Direction(t, p)), f)
        for m, t, p in zip(states, theta, phi)
    ]


def _products(block):
    sizes, left, right = block
    return [-abs(_mutual(np.outer(r[:nr], l[:nl]).ravel(), (int(nl), int(nr)), 1))
            for (nl, nr), l, r in zip(sizes, left, right)]


SCALAR = {
    "classical_subadditivity": _classical,
    "quantum_mutual_information": _quantum,
    "qubit_zx": _qubits(qubit_inequality_zx),
    "qubit_xy": _qubits(qubit_inequality_xy),
    "qutrit_shannon": lambda block: [qutrit_inequality_shannon(DensityMatrix(m)).value
                                     for m in block],
    **{f"qutrit_tsallis_q={q:g}": _qutrit_tsallis(q) for q in (1.5, 2.0, 3.0)},
    "tomographic_information": _tomographic,
    "classical_product": _products,
}


# These families' stacked margins sum in another order than the scalar API (bincount
# marginals, batched and closed-form spectra); over seeds 0-11 x 2,000 samples they differ
# by at most 2.7e-15.  Every other family's margins equal the scalar API's bit for bit.
_REORDERED = ("classical_subadditivity", "quantum_mutual_information", "classical_product")


def _assert_same(stacked, scalar, atol=1e-12):
    stacked, scalar = np.asarray(stacked), np.asarray(scalar)
    assert stacked.shape == scalar.shape
    assert (np.isinf(stacked) == np.isinf(scalar)).all()
    finite = np.isfinite(scalar)
    assert np.abs(stacked[finite] - scalar[finite]).max() <= atol


def test_tomographic_block_equals_single_tomograms_bit_for_bit():
    # The stacked margin runs the one tomogram kernel on the whole block at once.
    block = draw_tomographic(np.random.default_rng(23), BLOCK)
    assert np.array_equal(tomographic_margin(block), _tomographic(block))


def test_table_names_in_report_order():
    assert [f.name for f in family_table(QS)] == list(SCALAR)


def test_every_sample_matches_the_scalar_api():
    table = family_table(QS)
    margins, infinities = run_families(np.random.default_rng(11), COUNT, table)
    rng = np.random.default_rng(11)
    expected_min, expected_inf = {}, {}
    for draw in dict.fromkeys(f.draw for f in table):
        for block in blocks(rng, COUNT, draw):
            for family in (f for f in table if f.draw is draw):
                stacked, scalar = family.margin(block), SCALAR[family.name](block)
                if family.name in _REORDERED:
                    _assert_same(stacked, scalar, atol=1e-13)
                else:
                    assert np.array_equal(stacked, scalar), family.name
                finite = [v for v in scalar if not math.isinf(v)]
                expected_min[family.name] = min(expected_min.get(family.name, math.inf), *finite)
                expected_inf[family.name] = (
                    expected_inf.get(family.name, 0) + len(scalar) - len(finite)
                )
    assert margins.keys() == expected_min.keys()
    for name, value in margins.items():
        assert abs(value - expected_min[name]) <= (1e-13 if name in _REORDERED else 0.0)
    assert infinities == {k: v for k, v in expected_inf.items() if v}


def test_product_layout_matches_outer_product():
    block = draw_products(np.random.default_rng(4), 8)
    _assert_same(product_margin(block), _products(block))


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("count", [1, 257, 1000])
def test_product_family_negates_the_old_product_pass_bit_for_bit(capsys, seed, count):
    # The product row comes last in the table, so it draws where the separate pass drew.
    assert main(["fuzz", "--seed", str(seed), "--count", str(count)]) == 0
    report = json.loads(capsys.readouterr().out)
    rng = np.random.default_rng(seed)
    for draw in dict.fromkeys(f.draw for f in family_table(QS) if f.draw is not draw_products):
        for _ in blocks(rng, count, draw):
            pass
    expected = -product_mutual_abs_max(rng, count)
    assert np.array_equal(report["results"]["min_margins"]["classical_product"], expected)
    check = next(c for c in report["checks"] if c["name"] == "classical_product_min_margin")
    assert np.array_equal(check["value"], expected) and check["holds"]


def _quantum_blocks():
    """Blocks of the quantum family: full and partial ones, a 1-sample tail
    block (count BLOCK + 1) and 1-sample blocks, whose classes hold one state."""
    for seed in (0, 1, 7, 7919):
        for count in (1, 5, BLOCK + 1):
            yield from blocks(np.random.default_rng(seed), count, draw_quantum)


def test_quantum_margin_matches_the_per_split_reference_bit_for_bit():
    for block in _quantum_blocks():
        assert np.array_equal(quantum_margin(block), quantum_margin_per_split(block))


def test_reduced_stacks_are_their_own_hermitian_part():
    """quantum_margin checks no reduced stack: validate_stack would return each one bit for bit."""
    for block in _quantum_blocks():
        for _, states, _ in block[1]:
            n = states.shape[-1]
            for d_left in (d for d in range(2, n) if n % d == 0):
                for reduced in block_reductions(states, d_left):
                    assert validate_stack(reduced)[0].tobytes() == reduced.tobytes()


def test_quantum_margin_validates_one_stack_per_reduced_dimension(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m.shape[-1])
        return stack_spectra(m)

    monkeypatch.setattr(fuzz, "stack_spectra", counting)
    seen = set()
    for block in _quantum_blocks():
        reduced = set()
        for row in block[0]:
            axes = [int(d) for d in row if d > 1]
            for s in range(1, len(axes)):
                reduced |= {math.prod(axes[:s]), math.prod(axes[s:])}
        calls.clear()
        quantum_margin(block)
        assert sorted(calls) == sorted(reduced)
        seen |= reduced
    assert 2 in seen  # the closed-form 2 x 2 stack is one of them


def test_infinite_margins_are_counted_not_minimized():
    values = np.array([np.inf, 1.0, -np.inf, 2.0])
    table = [Family("flagged", lambda rng, size: values[:size], lambda block: block, 0.0),
             Family("all_infinite", lambda rng, size: None, lambda block: np.full(2, np.inf), 0.0)]
    margins, infinities = run_families(np.random.default_rng(0), 4, table)
    assert margins == {"flagged": 1.0}
    assert infinities == {"flagged": 2, "all_infinite": 2}


def test_nan_margin_raises_naming_family_and_count():
    table = [Family("half_nan", lambda rng, size: None,
                    lambda block: np.array([0.1, np.nan, 0.2]), 0.0)]
    with pytest.raises(DomainError, match=r"^half_nan: 1 of 3 margins in a block are NaN$"):
        run_families(np.random.default_rng(0), 3, table)


def _arrays(block):
    """Every ndarray in a block of nested tuples and lists."""
    if isinstance(block, np.ndarray):
        yield block
    elif isinstance(block, (tuple, list)):
        for part in block:
            yield from _arrays(part)


def _live_arrays_at_each_draw(keep_previous: bool) -> list[int]:
    """Run the table with every draw wrapped; at each draw, count the arrays of earlier
    blocks still alive.  With keep_previous, each wrapper holds its last block."""
    refs, live, kept = [], [], {}

    def wrap(draw):
        def wrapped(rng, size):
            live.append(sum(ref() is not None for ref in refs))
            block = draw(rng, size)
            refs.extend(weakref.ref(a) for a in _arrays(block))
            if keep_previous:
                kept[draw] = block
            return block
        return wrapped

    table = family_table(QS)
    wrappers = {f.draw: wrap(f.draw) for f in table}
    run_families(np.random.default_rng(1), 3 * BLOCK, [f._replace(draw=wrappers[f.draw])
                                                       for f in table])
    assert len(live) == 3 * len(wrappers)  # three blocks per draw
    return live


def test_a_run_holds_one_block_at_a_time():
    # Every array of a block, and of every block before it, is freed before the next
    # draw, whichever family draws next; a draw that keeps its last block fails this.
    assert not any(_live_arrays_at_each_draw(keep_previous=False))
    assert all(_live_arrays_at_each_draw(keep_previous=True)[1:])


def _raises_like(scalar, stacked):
    with pytest.raises(QuditCorrError) as expected:
        scalar()
    with pytest.raises(type(expected.value)) as got:
        stacked()
    assert str(got.value) == str(expected.value)


def _with_row(rows, bad, at=2):
    out = np.array(rows)
    out[at] = bad
    return out


_STATES = np.array([random_density(np.random.default_rng(k), 3) for k in range(5)])
_QUBIT_STATES = np.array([random_density(np.random.default_rng(k), 2) for k in range(5)])
_BAD_STATES = {
    "not_hermitian": (np.diag([0.5, 0.3, 0.2]) + np.triu(np.full((3, 3), 0.1), 1), NotHermitian),
    "trace": (np.diag([0.5, 0.3, 0.3]), TraceNotOne),
    "not_psd": (np.diag([1.2, -0.1, -0.1]), NotPSD),
    "nan": (np.full((3, 3), np.nan), NotHermitian),
    # an infinite entry leaves a NaN (inf - inf) or infinite Hermitian gap
    "inf": (np.diag([np.inf, 0.0, 0.0]), NotHermitian),
    "minus_inf": (np.array([[1 / 3, -np.inf, 0.0], [-np.inf, 1 / 3, 0.0], [0.0, 0.0, 1 / 3]]),
                  NotHermitian),
    # a finite entry past about 9e307 overflows m + m^dagger
    "overflow": (np.array([[1 / 3, 1e308, 0.0], [1e308, 1 / 3, 0.0], [0.0, 0.0, 1 / 3]]), NotPSD),
    "qubit_not_hermitian": (np.diag([0.6, 0.4]) + np.triu(np.full((2, 2), 0.1), 1), NotHermitian),
    "qubit_trace": (np.diag([0.6, 0.5]), TraceNotOne),
    "qubit_not_psd": (np.array([[0.5, 0.6j], [-0.6j, 0.5]]), NotPSD),
    "qubit_nan": (np.full((2, 2), np.nan), NotHermitian),
    "qubit_inf": (np.array([[np.inf, 0.0], [0.0, 0.0]]), NotHermitian),
    "qubit_minus_inf": (np.array([[0.5, -np.inf], [0.0, 0.5]]), NotHermitian),
    "qubit_overflow": (np.array([[0.5, 1e308], [1e308, 0.5]]), NotPSD),
    "qubit_trace_overflow": (np.diag([1e308, 1e308]), TraceNotOne),
}


@pytest.mark.parametrize("case", sorted(_BAD_STATES))
def test_bad_state_in_stack_raises_like_density_matrix(case):
    bad, error = _BAD_STATES[case]
    dim = bad.shape[0]
    with pytest.raises(error):
        DensityMatrix(bad)
    stack = _with_row(_STATES if dim == 3 else _QUBIT_STATES, bad)
    for check in (validate_stack, certify_stack):
        _raises_like(lambda: DensityMatrix(bad), lambda: check(stack))
    sweep = (bad, SpinRep((dim - 1) / 2), Factorization((dim, 1)), [Direction(0.3, 0.4)])
    _raises_like(lambda: DensityMatrix(bad), lambda: direction_sweep(*sweep))


def test_qubit_spectra_match_eigvalsh():
    rng = np.random.default_rng(29)
    p = np.linspace(0.0, 1.0, 11)
    states = np.concatenate([
        _ginibre(rng, (10_000,), 2, 2),  # full rank
        _ginibre(rng, (10_000,), 2, 1),  # rank 1
        [np.eye(2) / 2],
        np.stack([p, 1.0 - p], axis=1)[:, :, None] * np.eye(2),  # diagonal, pure at the ends
    ])
    got, expected = stack_spectra(states), np.linalg.eigvalsh(states)  # refuses no row
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-14
    assert np.abs(shannon(got) - shannon(expected)).max() <= 1e-13
    assert np.array_equal(got[20_000], [0.5, 0.5])  # I/2, and the pure diagonal ends:
    assert np.array_equal(got[[20_001, 20_011]], [[0.0, 1.0], [0.0, 1.0]])


def _rotated(eigenvalues):
    """A non-diagonal 3x3 matrix with the given spectrum."""
    u = np.linalg.qr(random_density(np.random.default_rng(9), 3))[0]
    return u @ np.diag(eigenvalues) @ u.conj().T


def _pure(*amplitudes):
    v = np.array(amplitudes, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


# A stack the Cholesky certificate accepts as drawn, a pure row it accepts on
# rounding noise, then rows where it fails and the eigenvalue check decides, with
# the error that check must raise: pure and singular rows, slack inside the
# -PSD_ATOL floor and rows just either side of it.
_EDGE_STATES = {
    "none": (None, None),
    "pure_certified": (_pure(0.6, 0.3j - 0.2, 0.5 + 0.1j), None),
    "pure": (_pure(0.5, 0.5j, 0.5j - 0.5), None),
    "singular": (np.diag([0.5, 0.5, 0.0]), None),
    "slack": (_rotated([0.6, 0.4 + 1e-11, -1e-11]), None),
    "inside_floor": (_rotated([0.6, 0.4 + 0.999 * PSD_ATOL, -0.999 * PSD_ATOL]), None),
    "below_floor": (_rotated([0.6, 0.4 + 1.001 * PSD_ATOL, -1.001 * PSD_ATOL]), NotPSD),
}


@pytest.mark.parametrize("case", list(_EDGE_STATES))
def test_certify_stack_decides_like_validate_stack(case):
    row, error = _EDGE_STATES[case]
    stack = _STATES if row is None else _with_row(_STATES, row)
    state = stack[2]  # the edge row, or a full-rank draw
    if error is not None:
        with pytest.raises(error):
            validate_stack(stack)
        _raises_like(lambda: validate_stack(stack), lambda: certify_stack(stack))
        _raises_like(lambda: validate(state), lambda: certify_stack(state))
    else:
        for rows in (stack, state):
            expected, got = validate_stack(rows)[0], certify_stack(rows)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        assert certify_stack(state).tobytes() == validate(state).matrix.tobytes()


def test_qubit_draw_is_the_scalar_reconstruction_of_bloch_ball_probabilities():
    p = bloch_ball_stack(np.random.default_rng(5), 7)
    expected = [qubit_from_probabilities(QubitProbabilities(*row)).matrix for row in p]
    assert draw_qubits(np.random.default_rng(5), 7).tobytes() == np.array(expected).tobytes()


def test_spectrum_free_draws_take_no_spectra(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(m.shape)
        return eigvalsh(m)

    rep, f, grid = SpinRep(1.0), Factorization((3, 1)), [Direction(0.3, 0.4), Direction(2.0, 5.0)]
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for draw in (draw_qubits, draw_qutrits, draw_tomographic):
        draw(np.random.default_rng(1), BLOCK)
    certify_stack(_STATES[0])
    direction_sweep(_STATES[0], rep, f, grid)  # a full-rank state: the factorization suffices
    assert calls == []
    certify_stack(_with_row(_STATES, np.diag([0.5, 0.5, 0.0])))
    assert calls == [_STATES.shape]


def test_ginibre_fills_the_stream_of_real_then_imaginary_parts():
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    shape = (5, 4, 3)
    g = reference.standard_normal(shape) + 1j * reference.standard_normal(shape)
    m = g @ np.swapaxes(g.conj(), -1, -2)
    expected = m / np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    assert _ginibre(rng, (5,), 4, 3).tobytes() == expected.tobytes()
    assert rng.standard_normal() == reference.standard_normal()


def _rejection_law(max_total, max_axes):
    """Row -> probability under the rejection rule, enumerated draw by draw: k uniform on
    2..max_axes, max_axes axes uniform on 2..6, those past k set to 1, kept if they fit."""
    law = Counter()
    for k in range(2, max_axes + 1):
        for draw in itertools.product(range(2, 7), repeat=max_axes):
            row = draw[:k] + (1,) * (max_axes - k)
            if math.prod(row) <= max_total:
                law[row] += 1.0 / ((max_axes - 1) * 5**max_axes)
    kept = sum(law.values())
    return {row: weight / kept for row, weight in law.items()}


@pytest.mark.parametrize("max_total, max_axes", [(64, 4), (16, 3)])
def test_factorization_table_is_the_law_of_the_rejection_rule(max_total, max_axes):
    law = _rejection_law(max_total, max_axes)
    rows, cumulative = _factorization_table(max_total, max_axes)
    table = dict(zip(map(tuple, rows.tolist()), np.diff(cumulative, prepend=0) / cumulative[-1]))
    assert table.keys() == law.keys() and len(rows) == len(table)
    assert max(abs(table[row] - p) for row, p in law.items()) <= 1e-15

    count = 100_000
    draws = random_factorizations(np.random.default_rng(41), count, max_total, max_axes)
    assert draws.shape == (count, max_axes)
    axes = draws > 1
    assert (axes.sum(axis=1) >= 2).all() and (axes[:, :-1] >= axes[:, 1:]).all()  # 1s pad
    assert ((draws >= 1) & (draws <= 6)).all() and (draws.prod(axis=1) <= max_total).all()
    seen = Counter(map(tuple, draws.tolist()))
    assert seen.keys() <= law.keys()
    for row, p in law.items():
        assert abs(seen[row] - count * p) <= 5.0 * math.sqrt(count * p * (1.0 - p))


_PROBS = np.random.default_rng(3).dirichlet(np.ones(4), size=5)


@pytest.mark.parametrize("bad", [
    [0.5, np.nan, 0.25, 0.25],
    [0.7, -0.1, 0.2, 0.2],
    [0.5, 0.3, 0.3, 0.0],
])
def test_bad_probability_row_raises_like_probability_vector(bad):
    _raises_like(lambda: ProbabilityVector(bad), lambda: probability_rows(_with_row(_PROBS, bad)))


@pytest.mark.parametrize("bad", [(1.5, 0.5, 0.5), (0.5, math.nan, 0.5), (1.0, 1.0, 0.5)])
def test_bad_bloch_row_raises_like_qubit_probabilities(bad):
    rows = np.full((5, 3), 0.5)
    _raises_like(lambda: QubitProbabilities(*bad), lambda: bloch_probabilities(_with_row(rows, bad)))


@pytest.mark.parametrize("angle, bad", [("theta", 4.0), ("phi", math.nan), ("psi", math.inf)])
def test_bad_direction_row_raises_like_direction(angle, bad):
    angles = {"theta": np.full(5, 0.3), "phi": np.full(5, 0.4), "psi": np.zeros(5)}
    angles[angle][2] = bad
    single = {name: float(values[2]) for name, values in angles.items()}
    _raises_like(lambda: Direction(**single), lambda: check_angles(**angles))
