import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import random_density
from quditcorr import (
    CheckRecord,
    DomainError,
    Factorization,
    JointView,
    NotPSD,
    ProbabilityVector,
    QubitProbabilities,
    QutritElements,
    TsallisParam,
    UsageError,
    check,
    classical_ssa_check,
    probabilities_from_qubit,
    qubit_from_probabilities,
    qubit_inequality_xy,
    qubit_inequality_zx,
    qutrit_elements_from_probabilities,
    qutrit_inequality_shannon,
    qutrit_inequality_tsallis,
    validate,
)
from quditcorr.fuzz import family_table
from quditcorr.sampling import bloch_ball_probabilities
from quditcorr.tolerances import PSD_ATOL, SUBADDITIVITY_ATOL, TRACE_ATOL

LN2 = math.log(2.0)


def test_library_inequalities_are_check_records():
    """Each inequality returns check(name, value, SUBADDITIVITY_ATOL); a matrix-element one
    is named as the fuzz family that samples it, whose margin on its state is the value."""
    rng = np.random.default_rng(26)
    qubit = qubit_from_probabilities(QubitProbabilities(0.9, 0.3, 0.6))
    qutrit = validate(random_density(rng, 3))
    tq = TsallisParam(2.5)
    records = {
        "qubit_zx": (qubit_inequality_zx(qubit), qubit),
        "qubit_xy": (qubit_inequality_xy(qubit), qubit),
        "qutrit_shannon": (qutrit_inequality_shannon(qutrit), qutrit),
        "qutrit_tsallis_q=2.5": (qutrit_inequality_tsallis(qutrit, tq), qutrit),
    }
    families = {family.name: family for family in family_table([tq])}
    for name, (record, state) in records.items():
        assert type(record) is CheckRecord
        assert record == check(name, record.value, SUBADDITIVITY_ATOL)
        assert families[name].tolerance == SUBADDITIVITY_ATOL
        assert families[name].margin(state.matrix[None]).tolist() == [record.value]
    view = JointView(ProbabilityVector(rng.dirichlet(np.ones(8))), Factorization((2, 2, 2)))
    record = classical_ssa_check(view, (1, 1, 1))
    assert type(record) is CheckRecord
    assert record == check("strong_subadditivity", record.value, SUBADDITIVITY_ATOL)


class TestQubitReconstruction:
    def test_maximally_mixed(self):
        state = qubit_from_probabilities(QubitProbabilities(0.5, 0.5, 0.5))
        np.testing.assert_allclose(state.matrix, np.eye(2) / 2, atol=1e-15)

    def test_z_up_pure(self):
        state = qubit_from_probabilities(QubitProbabilities(0.5, 0.5, 1.0))
        np.testing.assert_allclose(state.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_real_off_diagonal(self):
        state = qubit_from_probabilities(QubitProbabilities(0.9, 0.5, 0.5))
        assert abs(state.matrix[0, 1] - 0.4) < 1e-15
        assert abs(state.matrix[0, 0] - 0.5) < 1e-15

    def test_bloch_violation_raises_not_psd(self):
        with pytest.raises(NotPSD, match="radius"):
            QubitProbabilities(1.0, 1.0, 1.0)

    def test_field_range(self):
        with pytest.raises(DomainError):
            QubitProbabilities(1.2, 0.5, 0.5)


class TestQubitInverse:
    def test_examples(self):
        assert probabilities_from_qubit(validate(np.eye(2) / 2)) == QubitProbabilities(0.5, 0.5, 0.5)
        assert probabilities_from_qubit(validate(np.diag([1.0, 0.0]))) == QubitProbabilities(0.5, 0.5, 1.0)
        got = probabilities_from_qubit(
            validate(np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))
        )
        assert got == QubitProbabilities(0.9, 0.5, 0.5)

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            qp = bloch_ball_probabilities(rng)
            back = probabilities_from_qubit(qubit_from_probabilities(qp))
            assert abs(back.p1 - qp.p1) <= 1e-12
            assert abs(back.p2 - qp.p2) <= 1e-12
            assert abs(back.p3 - qp.p3) <= 1e-12

    @pytest.mark.parametrize("matrix", [
        # (I + r sigma_x + r sigma_y)/2 with r = (1 + 1.98e-10)/sqrt(2): Bloch radius
        # 1 + 1.98e-10, eigenvalues 1 + 0.99e-10 and -0.99e-10.
        np.array([[0.5, (1.0 - 1.0j) * (1.0 + 1.98e-10) / 8**0.5],
                  [(1.0 + 1.0j) * (1.0 + 1.98e-10) / 8**0.5, 0.5]]),
        # The trace error 0.99e-10 moves p3 to 1 + 1.98e-10.
        np.diag([1.0 + 1.98e-10, -0.99e-10]),
    ])
    def test_every_qubit_the_check_accepts_round_trips(self, matrix):
        state = validate(matrix)
        qp = probabilities_from_qubit(state)
        back = qubit_from_probabilities(qp)
        assert np.abs(back.matrix - state.matrix).max() <= 2.0 * (PSD_ATOL + TRACE_ATOL)
        assert probabilities_from_qubit(back) == qp

    def test_bloch_radius_bound_follows_the_state_check(self):
        # r <= 1 + 2 (PSD_ATOL + TRACE_ATOL), and each p within PSD_ATOL + TRACE_ATOL of [0, 1].
        edge = 0.5 + (1.0 + 3.9e-10) / 12**0.5  # radius 1 + 3.9e-10 along (1, 1, 1)
        assert QubitProbabilities(edge, edge, edge).p1 == edge
        with pytest.raises(NotPSD, match="Bloch radius"):
            QubitProbabilities(*[0.5 + (1.0 + 4.1e-10) / 12**0.5] * 3)
        assert QubitProbabilities(0.5, 0.5, 1.0 + 1.9e-10).p3 == 1.0
        with pytest.raises(DomainError, match="p3"):
            QubitProbabilities(0.5, 0.5, 1.0 + 2.1e-10)

    def test_imaginary_sign_convention(self):
        # p2 above one half must mean a negative imaginary off-diagonal.
        state = qubit_from_probabilities(QubitProbabilities(0.5, 0.9, 0.5))
        assert abs(state.matrix[0, 1] - (-0.4j)) < 1e-15


class TestQubitInequalities:
    def test_maximally_mixed_saturates(self):
        state = validate(np.eye(2) / 2)
        assert abs(qubit_inequality_zx(state).value) <= 1e-9
        assert abs(qubit_inequality_xy(state).value) <= 1e-9

    def test_zx_frozen_value(self):
        state = qubit_from_probabilities(QubitProbabilities(0.9, 0.5, 0.5))
        result = qubit_inequality_zx(state)
        assert abs(result.value - 0.3680642071684971) < 1e-12
        assert result.holds

    def test_zx_support_mismatch_flags_infinity(self):
        result = qubit_inequality_zx(validate(np.diag([1.0, 0.0])))
        assert result.value == math.inf
        assert result.holds

    def test_xy_real_off_diagonal(self):
        state = qubit_from_probabilities(QubitProbabilities(0.9, 0.5, 0.5))
        assert abs(qubit_inequality_xy(state).value - 0.3680642071684971) < 1e-12

    def test_xy_equality_case(self):
        state = validate(np.array([[0.5, 0.2 - 0.2j], [0.2 + 0.2j, 0.5]]))
        assert abs(qubit_inequality_xy(state).value) <= 1e-12

    def test_sweep_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            state = qubit_from_probabilities(bloch_ball_probabilities(rng))
            for result in (qubit_inequality_zx(state), qubit_inequality_xy(state)):
                assert result.value == math.inf or result.value >= -1e-10

    def test_requires_qubit(self):
        with pytest.raises(UsageError):
            qubit_inequality_zx(validate(np.eye(3) / 3))


def equality_case_qutrit():
    # Diagonal (0.25, 0.35, 0.4) with Re rho13 = 0.1 makes the two compared
    # distributions coincide.
    m = np.diag([0.25, 0.35, 0.4]).astype(complex)
    m[0, 2] = m[2, 0] = 0.1
    return validate(m)


class TestQutritInequalities:
    def test_shannon_maximally_mixed(self):
        result = qutrit_inequality_shannon(validate(np.eye(3) / 3))
        assert abs(result.value - 0.056633012265132426) < 1e-12

    def test_shannon_degenerate_diagonal(self):
        result = qutrit_inequality_shannon(validate(np.diag([0.5, 0.5, 0.0])))
        assert abs(result.value - LN2) < 1e-12

    def test_shannon_equality_case(self):
        assert abs(qutrit_inequality_shannon(equality_case_qutrit()).value) <= 1e-12

    def test_tsallis_maximally_mixed(self):
        result = qutrit_inequality_tsallis(validate(np.eye(3) / 3), TsallisParam(2.0))
        assert abs(result.value - 1.0 / 9.0) < 1e-12

    def test_tsallis_equality_case(self):
        for q in (1.5, 2.0, 3.0):
            value = qutrit_inequality_tsallis(equality_case_qutrit(), TsallisParam(q)).value
            assert abs(value) <= 1e-12

    def test_tsallis_degenerate_diagonal(self):
        value = qutrit_inequality_tsallis(validate(np.diag([0.5, 0.5, 0.0])), TsallisParam(2.0)).value
        assert abs(value - 1.0) < 1e-12

    def test_a_non_density_matrix_raises_usage_error(self):
        # Each inequality reads the matrix elements of a checked state, so anything else,
        # even a valid matrix of the right size, is refused by type, not judged by value.
        tsallis = partial(qutrit_inequality_tsallis, tq=TsallisParam(2.0))
        for dim, inequalities in ((2, (qubit_inequality_zx, qubit_inequality_xy)),
                                  (3, (qutrit_inequality_shannon, tsallis))):
            m = np.eye(dim, dtype=complex) / dim
            for inequality in inequalities:
                for bogus in (m, SimpleNamespace(dim=dim, matrix=m)):
                    with pytest.raises(UsageError, match="expected a DensityMatrix"):
                        inequality(bogus)

    def test_tsallis_requires_q_above_one(self):
        with pytest.raises(UsageError, match="q > 1"):
            qutrit_inequality_tsallis(validate(np.eye(3) / 3), TsallisParam(0.5))

    def test_sweep_nonnegative(self):
        rng = np.random.default_rng(24)
        params = [TsallisParam(q) for q in (1.5, 2.0, 3.0)]
        for _ in range(2000):
            state = validate(random_density(rng, 3))
            value = qutrit_inequality_shannon(state).value
            assert value == math.inf or value >= -1e-10
            for tq in params:
                value = qutrit_inequality_tsallis(state, tq).value
                assert value == math.inf or value >= -1e-10

    def test_tsallis_approaches_shannon(self):
        rng = np.random.default_rng(25)
        near_one = TsallisParam(1.0 + 1e-6)
        for _ in range(300):
            state = validate(random_density(rng, 3))
            shannon = qutrit_inequality_shannon(state).value
            tsallis = qutrit_inequality_tsallis(state, near_one).value
            assert abs(tsallis - shannon) <= 1e-4


class TestQutritElements:
    def test_centered_probabilities(self):
        qe = QutritElements(*([0.5] * 9))
        elements = qutrit_elements_from_probabilities(qe)
        assert elements.rho11 == 0.0
        assert elements.rho22 == 0.5
        assert elements.rho33 == 0.5
        assert elements.rho21 == 0.0

    def test_projection_probabilities_one(self):
        qe = QutritElements(0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5)
        elements = qutrit_elements_from_probabilities(qe)
        assert elements.rho11 == 1.0
        assert elements.rho22 == 0.0
        assert elements.rho33 == 0.0

    def test_off_diagonal_formula(self):
        qe = QutritElements(0.5, 0.5, 0.8, 0.7, 0.6, 0.9, 0.5, 0.5, 0.5)
        elements = qutrit_elements_from_probabilities(qe)
        assert abs(elements.rho21 - complex(0.2, 0.1)) < 1e-15

    def test_invalid_diagonal_rejected(self):
        qe = QutritElements(0.5, 0.5, 0.1, 0.5, 0.5, 0.2, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError, match="rho11"):
            qutrit_elements_from_probabilities(qe)

    def test_field_range(self):
        with pytest.raises(DomainError):
            QutritElements(1.5, *([0.5] * 8))
