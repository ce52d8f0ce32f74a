import math

import numpy as np
import pytest

from quditcorr import (
    DensityMatrix,
    Direction,
    DomainError,
    Factorization,
    JointView,
    MultiIndex,
    ProbabilityVector,
    QubitProbabilities,
    QuditSplit,
    QutritElements,
    ReshapedState,
    SpinRep,
    TsallisParam,
    UsageError,
    chsh_max,
    classical_ssa_check,
    compose,
    conditional,
    correlation_matrix,
    decompose,
    direction_sweep,
    linear_entropy,
    marginal,
    mutual_quantum_information,
    partial_trace_left,
    partial_trace_right,
    partial_transpose_right,
    product_state,
    separability_test,
    split_conditionals,
    split_index,
    subadditivity_report,
    validate,
)

_F = Factorization((2, 3, 2))
_VIEW = JointView(ProbabilityVector(np.full(12, 1.0 / 12.0)), _F)
# Every entry point that reads an integer from its caller, fed one value for which 1
# is valid: dims, coords, the split point, flat indices, axes, conditioning values and
# SSA block sizes.
_INTEGER_ENTRY_POINTS = {
    "dimension": lambda v: Factorization((2, v)).dims,
    "coordinate": lambda v: MultiIndex((v, 1, 1), _F).coords,
    "split point": lambda v: QuditSplit(_F, v).dim_left,
    "decompose": lambda v: decompose(v, _F).coords,
    "split_index": lambda v: split_index(v, QuditSplit(_F, 1)),
    "marginal axis": lambda v: marginal(_VIEW, (v,)).probs.tolist(),
    "given axis": lambda v: conditional(_VIEW, (v,), (2,), (1,)).probs.tolist(),
    "conditioning value": lambda v: conditional(_VIEW, (1,), (2,), (v,)).probs.tolist(),
    "ssa block size": lambda v: classical_ssa_check(_VIEW, (v, 1, 1)),
}

# Every entry point that iterates a sequence argument, fed a scalar in its place.
_SEQUENCE_ENTRY_POINTS = {
    "Factorization": lambda: Factorization(4),
    "MultiIndex": lambda: MultiIndex(1, _F),
    "marginal": lambda: marginal(_VIEW, 1),
    "conditional": lambda: conditional(_VIEW, (1,), (2,), 1),
    "classical_ssa_check": lambda: classical_ssa_check(_VIEW, 3),
    "product_state": lambda: product_state(5),
}


@pytest.mark.parametrize("entry", list(_SEQUENCE_ENTRY_POINTS))
def test_scalar_where_a_sequence_belongs_is_a_usage_error(entry):
    with pytest.raises(UsageError, match=r"must be a sequence, got \d$"):
        _SEQUENCE_ENTRY_POINTS[entry]()


# Every constructor fed a non-number: scalars take the real-number rule (DomainError naming
# the value), arrays refuse their content as they refuse their shape (UsageError).
_NON_NUMERIC = {
    "DensityMatrix object": (lambda: DensityMatrix(object()), UsageError,
                             "^density matrix must be an array of numbers: "),
    "DensityMatrix strings": (lambda: DensityMatrix([["a", "b"], ["c", "d"]]), UsageError,
                              "^density matrix must be an array of numbers: "),
    "direction_sweep DensityMatrix": (
        lambda: direction_sweep(validate(np.eye(2) / 2), SpinRep(0.5), Factorization((2, 1)),
                                [Direction(0.1, 0.2)]),
        UsageError, r"pass state\.matrix$"),
    "direction_sweep strings": (
        lambda: direction_sweep([["a", "b"], ["c", "d"]], SpinRep(0.5), Factorization((2, 1)),
                                [Direction(0.1, 0.2)]),
        UsageError, "^state matrix must be an array of numbers: "),
    "direction_sweep numeric strings": (
        lambda: direction_sweep([["0.5", "0"], ["0", "0.5"]], SpinRep(0.5),
                                Factorization((2, 1)), [Direction(0.1, 0.2)]),
        UsageError, "^state matrix must be an array of numbers: strings are not numbers$"),
    "DensityMatrix numeric strings": (
        lambda: DensityMatrix([["0.5", "0"], ["0", "0.5"]]), UsageError,
        "^density matrix must be an array of numbers: strings are not numbers$"),
    "DensityMatrix numeric strings among numbers": (
        lambda: DensityMatrix(np.array([[0.5, "0"], [0, 0.5]], dtype=object)), UsageError,
        "^density matrix must be an array of numbers: strings are not numbers$"),
    "ProbabilityVector": (lambda: ProbabilityVector(["x"]), UsageError,
                          "^probability vector must be an array of numbers: "),
    "ProbabilityVector numeric strings": (
        lambda: ProbabilityVector(["0.5", "0.5"]), UsageError,
        "^probability vector must be an array of numbers: strings are not numbers$"),
    "ProbabilityVector numeric bytes": (
        lambda: ProbabilityVector([b"0.5", b"0.5"]), UsageError,
        "^probability vector must be an array of numbers: strings are not numbers$"),
    "ProbabilityVector None": (
        lambda: ProbabilityVector([0.5, None, 0.5]), UsageError,
        "^probability vector must be an array of numbers: None is not a number$"),
    "DensityMatrix None": (
        lambda: DensityMatrix([[0.5, None], [0, 0.5]]), UsageError,
        "^density matrix must be an array of numbers: None is not a number$"),
    "direction_sweep None": (
        lambda: direction_sweep([[0.5, 0], [0, None]], SpinRep(0.5), Factorization((2, 1)),
                                [Direction(0.1, 0.2)]),
        UsageError, "^state matrix must be an array of numbers: None is not a number$"),
    "Direction": (lambda: Direction("a", 0.0), DomainError, "^theta = 'a', must be a real number$"),
    "Direction numeric string": (lambda: Direction(0.1, "0.5"), DomainError,
                                 "^phi = '0.5', must be a real number$"),
    "TsallisParam": (lambda: TsallisParam("x"), DomainError,
                     "^Tsallis q = 'x', must be a real number$"),
    "SpinRep": (lambda: SpinRep(None), DomainError, "^spin j = None, must be a real number$"),
    "QubitProbabilities": (lambda: QubitProbabilities(0.5, 1j, 0.5), DomainError,
                           r"^p2 = 1j, must be a real number$"),
    "QutritElements": (lambda: QutritElements(*[0.5] * 8, "a"), DomainError,
                       "^p3_3 = 'a', must be a real number$"),
}


@pytest.mark.parametrize("entry", list(_NON_NUMERIC))
def test_non_numeric_input_is_a_typed_refusal(entry):
    call, error, message = _NON_NUMERIC[entry]
    with pytest.raises(error, match=message):
        call()


# Every public function that takes a view or a reshaped state and a split.  Each owner is
# viewed as 4 x 1 and the split is of 2 x 2, so only the ownership rule can refuse it:
# both blocks are two-dimensional, as correlation_matrix and chsh_max require.
_FOREIGN_SPLIT = QuditSplit(Factorization((2, 2)), 1)
_SPLIT_OWNERS = {
    "view": JointView(ProbabilityVector(np.full(4, 0.25)), Factorization((4, 1))),
    "reshaped state": ReshapedState(validate(np.eye(4) / 4), Factorization((4, 1))),
}
_SPLIT_FUNCTIONS = [
    ("view", subadditivity_report), ("view", split_conditionals),
    ("reshaped state", partial_trace_right), ("reshaped state", partial_trace_left),
    ("reshaped state", partial_transpose_right), ("reshaped state", separability_test),
    ("reshaped state", mutual_quantum_information), ("reshaped state", linear_entropy),
    ("reshaped state", correlation_matrix), ("reshaped state", chsh_max),
]


@pytest.mark.parametrize("owner, function", _SPLIT_FUNCTIONS,
                         ids=[function.__name__ for _, function in _SPLIT_FUNCTIONS])
def test_a_split_of_another_factorization_is_refused(owner, function):
    message = f"^split does not belong to the {owner}'s factorization$"
    with pytest.raises(UsageError, match=message):
        function(_SPLIT_OWNERS[owner], _FOREIGN_SPLIT)


class TestFactorization:
    def test_total_is_product(self):
        assert Factorization((2, 3, 4)).total == 24
        assert Factorization((7,)).total == 7

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(DomainError):
            Factorization(())
        with pytest.raises(DomainError, match="X2"):
            Factorization((2, 0))
        with pytest.raises(DomainError):
            Factorization((2, -3))

    def test_unit_axes_allowed(self):
        assert Factorization((1, 5, 1)).total == 5

    def test_check_total_names_both_sizes(self):
        Factorization((2, 3)).check_total(6, "vector length")
        with pytest.raises(UsageError) as exc:
            Factorization((2, 3)).check_total(4, "matrix dimension")
        assert str(exc.value) == "dimension mismatch: factorization total 6 != matrix dimension 4"


class TestCompose:
    def test_two_by_two_table(self):
        f = Factorization((2, 2))
        expected = {(1, 1): 1, (2, 1): 2, (1, 2): 3, (2, 2): 4}
        for coords, y in expected.items():
            assert compose(MultiIndex(coords, f)) == y

    def test_all_ones_maps_to_one(self):
        for dims in [(2,), (3, 2), (2, 3, 4), (5, 1, 2)]:
            f = Factorization(dims)
            assert compose(MultiIndex((1,) * len(dims), f)) == 1

    def test_three_by_two(self):
        assert compose(MultiIndex((2, 2), Factorization((3, 2)))) == 5

    def test_out_of_range_coordinate_names_axis(self):
        f = Factorization((2, 2))
        with pytest.raises(DomainError, match="x1"):
            MultiIndex((3, 1), f)
        with pytest.raises(DomainError, match="x2"):
            MultiIndex((1, 0), f)

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            MultiIndex((1, 1, 1), Factorization((2, 2)))


class TestDecompose:
    def test_two_by_two_tables(self):
        f = Factorization((2, 2))
        assert [decompose(y, f).coords for y in range(1, 5)] == [
            (1, 1),
            (2, 1),
            (1, 2),
            (2, 2),
        ]

    def test_three_by_two_inverse(self):
        assert decompose(5, Factorization((3, 2))).coords == (2, 2)

    def test_one_maps_to_all_ones(self):
        for dims in [(4,), (2, 2, 2), (3, 5, 2)]:
            assert decompose(1, Factorization(dims)).coords == (1,) * len(dims)

    def test_out_of_range(self):
        f = Factorization((2, 3))
        for y in (0, 7, -2):
            with pytest.raises(DomainError):
                decompose(y, f)


class TestSplitIndex:
    def test_examples(self):
        assert split_index(3, QuditSplit(Factorization((2, 2)), 1)) == (1, 2)
        split = QuditSplit(Factorization((2, 3, 2)), 2)
        assert split_index(1, split) == (1, 1)
        assert split_index(7, split) == (1, 2)

    def test_bijective(self):
        split = QuditSplit(Factorization((2, 3, 2)), 2)
        pairs = {split_index(y, split) for y in range(1, 13)}
        assert pairs == {(a, b) for a in range(1, 7) for b in range(1, 3)}

    def test_split_point_validation(self):
        f = Factorization((2, 3, 2))
        for s in (0, 3, 5):
            with pytest.raises(DomainError):
                QuditSplit(f, s)

    def test_range_check(self):
        with pytest.raises(DomainError):
            split_index(5, QuditSplit(Factorization((2, 2)), 1))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dims",
        [
            (2, 2),
            (3, 2),
            (2, 3, 4),
            (1, 6, 1, 7),
            (5040,),
            (7, 8, 9, 10),
            (2, 2520),
            (2, 2, 2, 2, 2, 2, 2),
        ],
    )
    def test_bijection(self, dims):
        f = Factorization(dims)
        seen = [compose(decompose(y, f)) for y in range(1, f.total + 1)]
        assert seen == list(range(1, f.total + 1))

    def test_m2_matches_explicit_mod_formulas(self):
        # x1 = y mod X1 with the representative taken in {1..X1};
        # x2 - 1 = ((y - x1)/X1) mod X2.
        for x1_dim in range(1, 1025):
            for x2_dim in range(1, 1024 // x1_dim + 1):
                f = Factorization((x1_dim, x2_dim))
                y = np.arange(1, f.total + 1)
                x1 = y % x1_dim
                x1[x1 == 0] = x1_dim
                x2 = ((y - x1) // x1_dim) % x2_dim + 1
                got = np.array([decompose(int(v), f).coords for v in y])
                assert (got[:, 0] == x1).all() and (got[:, 1] == x2).all()

    def test_order_sensitivity(self):
        a = decompose(4, Factorization((2, 3))).coords
        b = decompose(4, Factorization((3, 2))).coords
        assert a == (2, 2) and b == (1, 2)
        assert a != b


class TestIntegerRule:
    @pytest.mark.parametrize("value", [1.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
    def test_non_integral_values_raise_domain_error(self, entry, value):
        with pytest.raises(DomainError, match=f"= {value!r}, must be an integer"):
            _INTEGER_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
    def test_integral_values_are_accepted(self, entry):
        call = _INTEGER_ENTRY_POINTS[entry]
        expected = call(1)
        for value in (1.0, np.int64(1), np.float64(1.0)):
            assert call(value) == expected

    def test_factorization_message_is_unchanged(self):
        with pytest.raises(DomainError) as exc:
            Factorization((2, 2.5))
        assert str(exc.value) == "dimension X2 = 2.5, must be an integer >= 1"
        assert type(Factorization((2.0, np.int64(3))).dims[0]) is int
