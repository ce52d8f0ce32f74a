import math

import numpy as np
import pytest

from helpers import (
    conditional_information_ref,
    random_density,
    shannon_ref,
    split_marginals_ref,
    tsallis_ref,
)
from quditcorr import _kernels
from quditcorr.classical import block_marginals
from quditcorr import (
    ConditioningOnNull,
    DomainError,
    Factorization,
    JointView,
    ProbabilityVector,
    QuditSplit,
    TsallisParam,
    UsageError,
    check,
    classical_ssa_check,
    conditional,
    decompose,
    marginal,
    relative_entropy_shannon,
    relative_entropy_tsallis,
    shannon_entropy,
    split_conditionals,
    subadditivity_report,
    tsallis_entropy,
    validate,
    von_neumann_entropy,
)
from quditcorr.tolerances import SUBADDITIVITY_ATOL

LN2 = math.log(2.0)


def view_of(values, dims):
    return JointView(ProbabilityVector(values), Factorization(dims))


def _with_zeros(rng, n):
    """A Dirichlet P(y) over n outcomes with a quarter of its entries exactly zero."""
    p = rng.dirichlet(np.ones(n))
    p[rng.permutation(n)[: n // 4]] = 0.0
    return p / p.sum()


# Every layout of tools/same_bytes.py, plus a long leading block and a leading
# block larger than the trailing one, so a swapped sum cannot pass unnoticed.
_BLOCK_LAYOUTS = [(2, 2), (3, 4), (2, 3, 2), (4, 16), (4, 4, 4), (16, 16), (2, 8, 16),
                  (2, 3, 2, 2), (1024, 2, 2), (4, 3)]


class TestProbabilityVector:
    def test_clamps_ingestion_noise_and_renormalizes(self):
        p = ProbabilityVector([0.5, 0.5, -5e-13])
        assert p.probs[2] == 0.0
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_rejects_genuine_negatives(self):
        with pytest.raises(DomainError, match="negative"):
            ProbabilityVector([1.1, -0.1])

    def test_rejects_bad_normalization(self):
        with pytest.raises(DomainError, match="sum"):
            ProbabilityVector([0.5, 0.4])

    def test_rejects_nan_and_shape(self):
        with pytest.raises(DomainError):
            ProbabilityVector([0.5, float("nan")])
        with pytest.raises(UsageError):
            ProbabilityVector([[0.5, 0.5]])

    def test_view_requires_matching_total(self):
        with pytest.raises(UsageError, match="dimension mismatch"):
            view_of([0.5, 0.5], (2, 2))


class TestMarginal:
    def test_uniform_stays_uniform(self):
        view = view_of([0.25] * 4, (2, 2))
        np.testing.assert_allclose(marginal(view, (1,)).probs, [0.5, 0.5])

    def test_correlated_mixture(self):
        view = view_of([0.5, 0.0, 0.0, 0.5], (2, 2))
        np.testing.assert_allclose(marginal(view, (1,)).probs, [0.5, 0.5])

    def test_second_axis_collects_rows(self):
        view = view_of([0.1, 0.2, 0.3, 0.4], (2, 2))
        np.testing.assert_allclose(marginal(view, (2,)).probs, [0.3, 0.7])
        np.testing.assert_allclose(marginal(view, (1,)).probs, [0.4, 0.6])

    def test_multi_axis_subset_keeps_composite_order(self):
        rng = np.random.default_rng(7)
        view = view_of(rng.dirichlet(np.ones(24)), (2, 3, 4))
        kept = marginal(view, (1, 3)).probs
        # Independent route: explicit sums over the dropped middle axis.
        f = view.factorization
        direct = np.zeros(8)
        for y in range(1, 25):
            x1, _, x3 = decompose(y, f).coords
            direct[(x1 - 1) + 2 * (x3 - 1)] += view.base.probs[y - 1]
        np.testing.assert_allclose(kept, direct, atol=1e-15)

    def test_empty_axes_rejected(self):
        view = view_of([0.25] * 4, (2, 2))
        with pytest.raises(UsageError, match="empty"):
            marginal(view, ())

    @pytest.mark.parametrize("axes, error, message", [
        ((1, 1), UsageError, r"axes contains duplicate axes: \(1, 1\)"),
        ((1, 3), DomainError, r"axis 3 outside 1\.\.2"),
    ])
    def test_bad_axes_rejected(self, axes, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            marginal(view_of([0.25] * 4, (2, 2)), axes)

    def test_marginals_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            view = view_of(rng.dirichlet(np.ones(12)), (2, 3, 2))
            for axes in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]:
                assert abs(marginal(view, axes).probs.sum() - 1.0) <= 1e-12


class TestBlockMarginals:
    @pytest.mark.parametrize(
        "dims, s", [(dims, s) for dims in _BLOCK_LAYOUTS for s in range(1, len(dims))]
    )
    def test_matches_the_loop_oracle_and_marginal(self, dims, s):
        rng = np.random.default_rng(sum(dims) * 10 + s)
        view = view_of(_with_zeros(rng, math.prod(dims)), dims)
        split = QuditSplit(view.factorization, s)
        leading, trailing = block_marginals(view.base.probs, split.dim_left)
        left_ref, right_ref = split_marginals_ref(view.base.probs, split)
        np.testing.assert_allclose(leading, left_ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(trailing, right_ref, rtol=0.0, atol=1e-15)
        # Normalized, they are the general-axes marginals bit for bit.
        left = marginal(view, range(1, s + 1)).probs
        right = marginal(view, range(s + 1, len(dims) + 1)).probs
        assert ProbabilityVector(leading).probs.tobytes() == left.tobytes()
        assert ProbabilityVector(trailing).probs.tobytes() == right.tobytes()

    def test_stacked_rows_split_one_at_a_time(self):
        rng = np.random.default_rng(12)
        rows = np.array([_with_zeros(rng, 12) for _ in range(5)]).reshape(5, 1, 12)
        leading, trailing = block_marginals(rows, 4)
        assert leading.shape == (5, 1, 4) and trailing.shape == (5, 1, 3)
        for k, row in enumerate(rows[:, 0]):
            one_leading, one_trailing = block_marginals(row, 4)
            assert leading[k, 0].tobytes() == one_leading.tobytes()
            assert trailing[k, 0].tobytes() == one_trailing.tobytes()


class TestConditional:
    def test_correlated_column(self):
        view = view_of([0.5, 0.0, 0.0, 0.5], (2, 2))
        np.testing.assert_allclose(conditional(view, (2,), (1,), (1,)).probs, [1.0, 0.0])

    def test_product_is_independent(self):
        u = np.array([0.3, 0.7])
        v = np.array([0.25, 0.25, 0.5])
        view = view_of(np.outer(v, u).ravel(), (2, 3))
        for x2 in (1, 2, 3):
            np.testing.assert_allclose(
                conditional(view, (2,), (1,), (x2,)).probs, u, atol=1e-15
            )

    def test_row_conditional(self):
        view = view_of([0.1, 0.2, 0.3, 0.4], (2, 2))
        np.testing.assert_allclose(conditional(view, (1,), (2,), (1,)).probs, [0.25, 0.75])

    def test_zero_probability_event_raises(self):
        view = view_of([0.5, 0.5, 0.0, 0.0], (2, 2))
        with pytest.raises(ConditioningOnNull, match="x2=2"):
            conditional(view, (2,), (1,), (2,))

    def test_overlapping_axes_rejected(self):
        view = view_of([0.25] * 4, (2, 2))
        with pytest.raises(UsageError, match="overlap"):
            conditional(view, (1,), (1,), (1,))
        with pytest.raises(UsageError, match=r"^given and target axes overlap: \[2\]$"):
            conditional(view_of([0.125] * 8, (2, 2, 2)), (3, 2), (1, 2), (1, 1))

    def test_conditioning_value_out_of_range(self):
        view = view_of([0.125] * 8, (2, 2, 2))
        with pytest.raises(DomainError, match=r"^conditioning value x3 = 3 outside 1\.\.2$"):
            conditional(view, (3, 1), (2,), (3, 1))

    def test_unsorted_axis_value_pairing(self):
        rng = np.random.default_rng(3)
        view = view_of(rng.dirichlet(np.ones(8)), (2, 2, 2))
        a = conditional(view, (3, 1), (2,), (2, 1)).probs
        b = conditional(view, (1, 3), (2,), (1, 2)).probs
        np.testing.assert_allclose(a, b, atol=1e-15)


def _conditional_table(view, given, target, given_dims):
    """One scalar `conditional` per composite value of the given block; None on a null event."""
    block = Factorization(given_dims)
    rows = []
    for k in range(1, block.total + 1):
        try:
            rows.append(conditional(view, given, target, decompose(k, block).coords).probs)
        except ConditioningOnNull:
            rows.append(None)
    return rows


class TestSplitConditionals:
    @pytest.mark.parametrize("dims", [(2, 3), (4, 4), (5, 2), (8, 32), (2, 2, 2), (2, 3, 4), (4, 3, 2)])
    @pytest.mark.parametrize("null_events", [False, True])
    def test_rows_equal_scalar_conditional(self, dims, null_events):
        rng = np.random.default_rng(sum(dims))
        probs = rng.dirichlet(np.ones(math.prod(dims)))
        if null_events:
            # x_M = 1 and x_1 = 2 carry no mass, so every split has a null event
            # on each side (x_1 is the fastest axis, x_M the slowest).
            tensor = probs.reshape(dims[::-1])
            tensor[0] = 0.0
            tensor[..., 1] = 0.0
            probs[rng.random(probs.size) < 0.2] = 0.0
            probs /= probs.sum()
        view = view_of(probs, dims)
        m = len(dims)
        for s in range(1, m):
            left, right = range(1, s + 1), range(s + 1, m + 1)
            got = split_conditionals(view, QuditSplit(view.factorization, s))
            want = (
                _conditional_table(view, right, left, dims[s:]),
                _conditional_table(view, left, right, dims[:s]),
            )
            for got_rows, want_rows in zip(got, want):
                assert len(got_rows) == len(want_rows)
                assert [None if r is None else r.tolist() for r in got_rows] == [
                    None if r is None else r.tolist() for r in want_rows
                ]
                assert any(r is None for r in want_rows) == null_events

    def test_foreign_split_rejected(self):
        view = view_of([0.25] * 4, (2, 2))
        with pytest.raises(UsageError, match="factorization"):
            split_conditionals(view, QuditSplit(Factorization((4, 1)), 1))


class TestShannon:
    def test_pure(self):
        assert shannon_entropy(ProbabilityVector([1.0, 0.0])) == 0.0

    def test_uniform(self):
        assert abs(shannon_entropy(ProbabilityVector([0.25] * 4)) - math.log(4)) < 1e-14

    def test_frozen_value(self):
        assert abs(shannon_entropy(ProbabilityVector([0.3, 0.7])) - 0.6108643020548935) < 1e-15


class TestTsallis:
    def test_pure_is_zero_for_any_q(self):
        p = ProbabilityVector([1.0, 0.0])
        for q in (0.5, 2.0, 3.0, 7.5):
            assert tsallis_entropy(p, TsallisParam(q)) == 0.0

    def test_uniform_two_q2(self):
        assert abs(tsallis_entropy(ProbabilityVector([0.5, 0.5]), TsallisParam(2.0)) - 0.5) < 1e-15

    def test_frozen_value(self):
        got = tsallis_entropy(ProbabilityVector([0.3, 0.7]), TsallisParam(2.0))
        assert abs(got - 0.42) < 1e-15

    def test_param_validation(self):
        for q in (0.0, -1.0, 1.0):
            with pytest.raises(DomainError):
                TsallisParam(q)

    def test_param_rejects_non_finite(self):
        for q in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                TsallisParam(q)

    @pytest.mark.parametrize("q, label, gated", [
        (0.5, "0.5", False), (0.9999995, "1", False), (1.5, "1.5", True), (2.0, "2", True),
        (2.0000001, "2", True), (1e300, "1e+300", True),
    ])
    def test_label_and_gate(self, q, label, gated):
        tq = TsallisParam(q)
        assert (tq.label, tq.gated) == (label, gated)

    def test_shannon_limit(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = ProbabilityVector(rng.dirichlet(np.ones(rng.integers(2, 9))))
            s = shannon_entropy(p)
            for q in (1.0 + 1e-6, 1.0 - 1e-6):
                assert abs(tsallis_entropy(p, TsallisParam(q)) - s) <= 1e-4


class TestRelativeEntropies:
    def test_identical_is_zero(self):
        p = ProbabilityVector([0.4, 0.6])
        assert relative_entropy_shannon(p, p) == 0.0
        assert relative_entropy_tsallis(p, p, TsallisParam(2.0)) == 0.0
        assert relative_entropy_tsallis(p, p, TsallisParam(3.0)) == 0.0

    def test_frozen_values(self):
        p = ProbabilityVector([0.9, 0.1])
        r = ProbabilityVector([0.5, 0.5])
        assert abs(relative_entropy_shannon(p, r) - 0.3680642071684971) < 1e-15
        p2 = ProbabilityVector([2.0 / 3.0, 1.0 / 3.0])
        got = relative_entropy_tsallis(p2, r, TsallisParam(2.0))
        assert abs(got - 1.0 / 9.0) < 1e-15

    def test_disjoint_support_flags_infinity(self):
        p = ProbabilityVector([1.0, 0.0])
        r = ProbabilityVector([0.0, 1.0])
        assert relative_entropy_shannon(p, r) == math.inf
        assert relative_entropy_tsallis(p, r, TsallisParam(2.0)) == math.inf

    def test_identical_pure_is_zero(self):
        p = ProbabilityVector([1.0, 0.0])
        assert relative_entropy_tsallis(p, p, TsallisParam(3.0)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError, match="length"):
            relative_entropy_shannon(ProbabilityVector([1.0]), ProbabilityVector([0.5, 0.5]))
        with pytest.raises(UsageError, match="length"):
            relative_entropy_tsallis(
                ProbabilityVector([1.0]), ProbabilityVector([0.5, 0.5]), TsallisParam(2.0)
            )

    def test_nonnegative_on_full_support(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            p = ProbabilityVector(rng.dirichlet(np.ones(n)))
            r = ProbabilityVector(rng.dirichlet(np.ones(n)))
            assert relative_entropy_shannon(p, r) >= -1e-10
            assert relative_entropy_tsallis(p, r, TsallisParam(2.0)) >= -1e-10
            assert relative_entropy_tsallis(p, r, TsallisParam(0.5)) >= -1e-10


class TestSubadditivity:
    def test_product_saturates(self):
        u = np.array([0.3, 0.7])
        v = np.array([0.2, 0.8])
        view = view_of(np.outer(v, u).ravel(), (2, 2))
        report = subadditivity_report(view, QuditSplit(view.factorization, 1))
        assert abs(report.mutual_info) <= 1e-12
        assert check("subadditivity", report.mutual_info, SUBADDITIVITY_ATOL).holds

    def test_correlated_mixture(self):
        view = view_of([0.5, 0.0, 0.0, 0.5], (2, 2))
        report = subadditivity_report(view, QuditSplit(view.factorization, 1))
        assert abs(report.mutual_info - LN2) < 1e-12
        assert abs(report.s_left - LN2) < 1e-12
        assert abs(report.s_right - LN2) < 1e-12
        assert abs(report.s_joint - LN2) < 1e-12

    def test_frozen_value(self):
        # Brute-force oracle: S1 + S2 - S12 for P = (0.1, 0.2, 0.3, 0.4).
        view = view_of([0.1, 0.2, 0.3, 0.4], (2, 2))
        report = subadditivity_report(view, QuditSplit(view.factorization, 1))
        expected = (
            shannon_ref([0.4, 0.6]) + shannon_ref([0.3, 0.7]) - shannon_ref([0.1, 0.2, 0.3, 0.4])
        )
        assert abs(expected - 0.004021743230482322) < 1e-15
        assert abs(report.mutual_info - expected) < 1e-12
        np.testing.assert_allclose(report.left.probs, [0.4, 0.6], atol=1e-15)
        np.testing.assert_allclose(report.right.probs, [0.3, 0.7], atol=1e-15)

    def test_random_sweep_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            view = view_of(rng.dirichlet(np.ones(dims[0] * dims[1])), dims)
            report = subadditivity_report(view, QuditSplit(view.factorization, 1))
            assert report.mutual_info >= -1e-10

    def test_split_factorization_must_match(self):
        view = view_of([0.25] * 4, (2, 2))
        with pytest.raises(UsageError):
            subadditivity_report(view, QuditSplit(Factorization((4, 2)), 1))


def _split_draws(rng, shape, d_left, d_right):
    """Dirichlet joints of shape (*shape, d_left * d_right) with some exact zeros, and
    their left (fast index) and right marginals."""
    joint = rng.dirichlet(np.ones(d_left * d_right), size=shape)
    joint[rng.random(joint.shape) < 0.2] = 0.0
    joint[..., 0] += 1.0 - joint.sum(axis=-1)
    table = joint.reshape(*joint.shape[:-1], d_right, d_left)
    return table.sum(axis=-2), table.sum(axis=-1), joint


class TestSplitEntropies:
    @pytest.mark.parametrize("q", [1.0, 0.5, 2.0, 3.0])
    def test_matches_loop_oracles(self, q):
        rng = np.random.default_rng(41)
        oracle = shannon_ref if q == 1.0 else (lambda values: tsallis_ref(values, q))
        for _ in range(200):
            d_left, d_right = (int(d) for d in rng.integers(2, 6, size=2))
            left, right, joint = _split_draws(rng, (), d_left, d_right)
            s1, s2, s12, margin = _kernels.split_entropies(left, right, joint, q)
            for got, values in zip((s1, s2, s12), (left, right, joint)):
                assert abs(got - oracle(values.tolist())) <= 1e-13
            assert margin == s1 + s2 - s12

    @pytest.mark.parametrize("shape", [(40,), (4, 5)])
    @pytest.mark.parametrize("q", [1.0, 0.5, 2.0, 3.0])
    def test_stack_rows_equal_single_calls(self, shape, q):
        rng = np.random.default_rng(42)
        left, right, joint = _split_draws(rng, shape, 3, 4)
        stacked = _kernels.split_entropies(left, right, joint, q)
        assert stacked[3].shape == shape
        np.testing.assert_array_equal(stacked[3], stacked[0] + stacked[1] - stacked[2])
        for index in np.ndindex(*shape):
            single = _kernels.split_entropies(left[index], right[index], joint[index], q)
            assert single == tuple(float(s[index]) for s in stacked)

    def test_von_neumann_needs_no_clamp(self):
        # Negative eigenvalues (their sum at most PSD_ATOL) add -0.0 under the kernel's mask,
        # so the entropy equals the one of the clamped spectrum bit for bit.
        rng = np.random.default_rng(43)
        states = [validate(np.diag([0.75 + 1e-11, 0.25, -1e-11]))]
        for n in (2, 3, 4, 6, 16, 64):
            states.append(validate(random_density(rng, n)))
            for rank in (1, 2):
                g = rng.standard_normal((n, rank)) + 1.0j * rng.standard_normal((n, rank))
                states.append(validate(g @ g.conj().T / np.linalg.norm(g) ** 2))
        slack = 0
        for state in states:
            ev = state.eigenvalues
            slack += int((ev < 0.0).any())
            assert von_neumann_entropy(state) == _kernels.shannon(np.where(ev < 0, 0, ev))
        assert slack >= 5


class TestClassicalSsa:
    def test_product_of_three_saturates(self):
        u, v, w = [0.3, 0.7], [0.6, 0.4], [0.1, 0.9]
        joint = np.einsum("i,j,k->kji", u, v, w).ravel()
        view = view_of(joint, (2, 2, 2))
        record = classical_ssa_check(view, (1, 1, 1))
        assert abs(record.value) <= 1e-12
        assert record.holds

    def test_uniform_equality(self):
        view = view_of([1.0 / 8.0] * 8, (2, 2, 2))
        record = classical_ssa_check(view, (1, 1, 1))
        assert abs(record.value) <= 1e-12

    def test_ghz_like_distribution(self):
        values = np.zeros(8)
        values[0] = values[7] = 0.5
        view = view_of(values, (2, 2, 2))
        record = classical_ssa_check(view, (1, 1, 1))
        # Both sides, S(1,2) + S(2,3) and S(1,2,3) + S(2), are 2 ln 2.
        s = lambda *axes: shannon_entropy(marginal(view, axes))
        assert abs(s(1, 2) + s(2, 3) - 2 * LN2) < 1e-12
        assert abs(s(1, 2, 3) + s(2) - 2 * LN2) < 1e-12
        assert abs(record.value) < 1e-12
        assert record.holds

    def test_block_grouping(self):
        rng = np.random.default_rng(19)
        view = view_of(rng.dirichlet(np.ones(16)), (2, 2, 2, 2))
        assert classical_ssa_check(view, (1, 2, 1)).holds

    @pytest.mark.parametrize(
        "dims, blocks",
        [(dims, blocks) for dims in [(2, 3, 2), (4, 4, 4), (2, 8, 16), (3, 2, 4), (2, 3, 2, 2),
                                     (4, 3, 2, 2), (1024, 2, 2)]
         for blocks in ([(1, 1, 1)] if len(dims) == 3 else [(2, 1, 1), (1, 2, 1), (1, 1, 2)])],
    )
    def test_matches_the_loop_oracle(self, dims, blocks):
        rng = np.random.default_rng(sum(dims) + 100 * blocks[0] + 10 * blocks[1])
        probs = _with_zeros(rng, math.prod(dims))
        record = classical_ssa_check(view_of(probs, dims), blocks)
        expected = conditional_information_ref(ProbabilityVector(probs).probs, dims, blocks)
        assert abs(record.value - expected) <= 1e-12
        assert record.holds

    def test_wrong_block_count(self):
        view = view_of([1.0 / 8.0] * 8, (2, 2, 2))
        with pytest.raises(UsageError, match="three"):
            classical_ssa_check(view, (1, 2))
        with pytest.raises(UsageError):
            classical_ssa_check(view, (1, 1, 2))
