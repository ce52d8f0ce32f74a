"""The stacked fuzz families against the scalar public API, sample by sample,
and the stacked checks against the scalar constructors, row by row."""

import math

import numpy as np
import pytest

from helpers import random_density
from quditcorr import (
    DensityMatrix,
    Direction,
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
    TsallisParam,
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
)
from quditcorr.classical import probability_rows
from quditcorr.fuzz import (
    BLOCK,
    Family,
    blocks,
    draw_products,
    family_table,
    product_mutual_abs,
    run_families,
)
from quditcorr.qubit_qutrit import bloch_probabilities
from quditcorr.quantum import validate_stack
from quditcorr.tomography import check_angles, rotation_matrix, rotations, tomogram_values

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
    def scalar(block):
        p, _ = block
        return [inequality(qubit_from_probabilities(QubitProbabilities(*row))).value for row in p]
    return scalar


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


SCALAR = {
    "classical_subadditivity": _classical,
    "quantum_mutual_information": _quantum,
    "qubit_zx": _qubits(qubit_inequality_zx),
    "qubit_xy": _qubits(qubit_inequality_xy),
    "qutrit_shannon": lambda block: [qutrit_inequality_shannon(DensityMatrix(m)).value
                                     for m in block],
    **{f"qutrit_tsallis_q={q:g}": _qutrit_tsallis(q) for q in (1.5, 2.0, 3.0)},
    "tomographic_information": _tomographic,
}


def _assert_same(stacked, scalar):
    stacked, scalar = np.asarray(stacked), np.asarray(scalar)
    assert stacked.shape == scalar.shape
    assert (np.isinf(stacked) == np.isinf(scalar)).all()
    finite = np.isfinite(scalar)
    assert np.abs(stacked[finite] - scalar[finite]).max() <= 1e-12


def test_table_names_in_report_order():
    assert [f.name for f in family_table(QS)] == list(SCALAR)


def test_every_sample_matches_the_scalar_api():
    table = family_table(QS)
    margins, infinities, product_extreme = run_families(np.random.default_rng(11), COUNT, table)
    rng = np.random.default_rng(11)
    expected_min, expected_inf = {}, {}
    for draw in dict.fromkeys(f.draw for f in table):
        for block in blocks(rng, COUNT, draw):
            for family in (f for f in table if f.draw is draw):
                stacked, scalar = family.margin(block), SCALAR[family.name](block)
                _assert_same(stacked, scalar)
                finite = [v for v in scalar if not math.isinf(v)]
                expected_min[family.name] = min(expected_min.get(family.name, math.inf), *finite)
                expected_inf[family.name] = (
                    expected_inf.get(family.name, 0) + len(scalar) - len(finite)
                )
    products = []
    for sizes, left, right in blocks(rng, COUNT, draw_products):
        for (n_left, n_right), l_row, r_row in zip(sizes, left, right):
            outer = np.outer(r_row[:n_right], l_row[:n_left]).ravel()
            products.append(abs(_mutual(outer, (int(n_left), int(n_right)), 1)))
    assert margins.keys() == expected_min.keys()
    for name, value in margins.items():
        assert abs(value - expected_min[name]) <= 1e-12
    assert infinities == {k: v for k, v in expected_inf.items() if v}
    assert abs(product_extreme - max(products)) <= 1e-12


def test_product_layout_matches_outer_product():
    block = draw_products(np.random.default_rng(4), 8)
    sizes, left, right = block
    expected = [
        abs(_mutual(np.outer(r[:nr], l[:nl]).ravel(), (int(nl), int(nr)), 1))
        for (nl, nr), l, r in zip(sizes, left, right)
    ]
    _assert_same(product_mutual_abs(block), expected)


def test_infinite_margins_are_counted_not_minimized():
    values = np.array([np.inf, 1.0, -np.inf, 2.0])
    table = [Family("flagged", lambda rng, size: values[:size], lambda block: block, 0.0),
             Family("all_infinite", lambda rng, size: None, lambda block: np.full(2, np.inf), 0.0)]
    margins, infinities, _ = run_families(np.random.default_rng(0), 4, table)
    assert margins == {"flagged": 1.0}
    assert infinities == {"flagged": 2, "all_infinite": 2}


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
_BAD_STATES = {
    "not_hermitian": (np.diag([0.5, 0.3, 0.2]) + np.triu(np.full((3, 3), 0.1), 1), NotHermitian),
    "trace": (np.diag([0.5, 0.3, 0.3]), TraceNotOne),
    "not_psd": (np.diag([1.2, -0.1, -0.1]), NotPSD),
    "nan": (np.full((3, 3), np.nan), NotHermitian),
}


@pytest.mark.parametrize("case", sorted(_BAD_STATES))
def test_bad_state_in_stack_raises_like_density_matrix(case):
    bad, error = _BAD_STATES[case]
    with pytest.raises(error):
        DensityMatrix(bad)
    _raises_like(lambda: DensityMatrix(bad), lambda: validate_stack(_with_row(_STATES, bad)))


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


@pytest.mark.parametrize("bad", [np.diag([1.2, -0.2, 0.0, 0.0]), np.full((4, 4), np.nan)])
def test_bad_tomogram_row_raises_like_single_tomogram(bad):
    rep = spin_rep(1.5)
    states = _with_row([random_density(np.random.default_rng(k), 4) for k in range(5)], bad)
    theta, phi = np.linspace(0.0, 1.0, 5), np.linspace(0.5, 2.0, 5)
    _raises_like(
        lambda: tomogram_values(rotation_matrix(rep, Direction(theta[2], phi[2])), bad),
        lambda: tomogram_values(rotations(rep, theta, phi), states),
    )
