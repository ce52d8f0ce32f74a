import json
import math

import numpy as np
import pytest

from helpers import brute_force_reduction, chsh_grid_oracle, ordered_factorizations, random_density
from quditcorr import (
    DensityMatrix,
    Factorization,
    NotHermitian,
    NotPSD,
    QuditSplit,
    ReshapedState,
    TraceNotOne,
    UsageError,
    chsh_max,
    correlation_matrix,
    linear_entropy,
    mutual_quantum_information,
    partial_trace_left,
    partial_trace_right,
    partial_transpose_right,
    product_state,
    separability_test,
    validate,
    von_neumann_entropy,
)
from quditcorr import cli, quantum
from quditcorr._kernels import split_entropies
from quditcorr.classical import block_marginals
from quditcorr.io import write_density_matrix
from quditcorr.quantum import block_reductions, reductions_and_spectra, validate_stack
from quditcorr.sampling import ginibre_density
from quditcorr.tolerances import HERMITIAN_ATOL, PSD_ATOL
from quditcorr.tomography import spin_rep, tomogram_diagonals

LN2 = math.log(2.0)
# Every layout of N <= 16 levels with at least two axes of two or more levels, then unit-axis
# layouts, where one side of a split is a single level.
_REDUCTION_LAYOUTS = [dims for n in range(4, 17) for dims in ordered_factorizations(n)
                      if len(dims) >= 2] + [(1, 6), (6, 1), (1, 2, 3), (4, 1, 2)]


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 2.0**-0.5
    return validate(np.outer(v, v))


def reshaped_22(state):
    f = Factorization((2, 2))
    return ReshapedState(state, f), QuditSplit(f, 1)


class TestValidate:
    def test_maximally_mixed(self):
        state = validate(np.eye(4) / 4.0)
        np.testing.assert_allclose(state.eigenvalues, 0.25)

    def test_pure_diagonal(self):
        state = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert abs(state.eigenvalues.max() - 1.0) < 1e-14

    def test_not_psd(self):
        with pytest.raises(NotPSD, match="eigenvalue"):
            validate(np.diag([1.5, -0.5]))

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian, match="exceeds"):
            validate(m)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne, match="Tr"):
            validate(np.eye(3))

    def test_requires_square(self):
        with pytest.raises(UsageError):
            validate(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64, 256])
    def test_checked_matrices_are_exactly_hermitian(self, n):
        # The tomogram kernel never forms Im w(m | n); it relies on this invariant of the
        # state checks: whatever skew they accept, the matrix they return has none.
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
        skew = (g - g.conj().T) / 2.0
        skew -= np.trace(skew) / n * np.eye(n)  # keeps the trace at 1
        skew *= 0.9 * HERMITIAN_ATOL / (2.0 * np.abs(skew).max())  # |m - m^dagger| <= 0.9 ATOL
        m = random_density(rng, n) + skew
        assert np.abs(np.diagonal(m).imag).max() > 0.0
        for checked in (DensityMatrix(m).matrix, quantum.validate_stack(m)[0],
                        quantum.certify_stack(m)):
            assert np.array_equal(checked, checked.conj().T)
            assert not np.diagonal(checked).imag.any()

    def test_reshaped_requires_matching_total(self):
        with pytest.raises(UsageError, match="dimension mismatch"):
            ReshapedState(validate(np.eye(4) / 4.0), Factorization((2, 3)))


class TestPartialTraces:
    def test_closed_forms_two_qubits(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 4)
        state = validate(rho)
        rs, split = reshaped_22(state)
        r = state.matrix
        # The two 2x2 closed forms; tracing the trailing block pairs flat
        # indices {1,3} and {2,4}, tracing the leading block pairs {1,2} and {3,4}.
        keep_left = np.array(
            [[r[0, 0] + r[2, 2], r[0, 1] + r[2, 3]], [r[1, 0] + r[3, 2], r[1, 1] + r[3, 3]]]
        )
        keep_right = np.array(
            [[r[0, 0] + r[1, 1], r[0, 2] + r[1, 3]], [r[2, 0] + r[3, 1], r[2, 2] + r[3, 3]]]
        )
        np.testing.assert_allclose(partial_trace_right(rs, split).matrix, keep_left, atol=1e-14)
        np.testing.assert_allclose(partial_trace_left(rs, split).matrix, keep_right, atol=1e-14)

    @pytest.mark.parametrize("dims,s", [((2, 2), 1), ((2, 3), 1), ((2, 3, 2), 1), ((2, 3, 2), 2)])
    def test_matches_brute_force_summation(self, dims, s):
        rng = np.random.default_rng(hash(dims) % 2**32)
        f = Factorization(dims)
        state = validate(random_density(rng, f.total))
        rs = ReshapedState(state, f)
        split = QuditSplit(f, s)
        np.testing.assert_allclose(
            partial_trace_right(rs, split).matrix,
            brute_force_reduction(state.matrix, dims, s, "left"),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            partial_trace_left(rs, split).matrix,
            brute_force_reduction(state.matrix, dims, s, "right"),
            atol=1e-14,
        )

    def test_product_state_recovers_factors(self):
        rng = np.random.default_rng(9)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        f = Factorization((2, 3))
        state = validate(product_state([a, b], f))
        rs = ReshapedState(state, f)
        split = QuditSplit(f, 1)
        np.testing.assert_allclose(partial_trace_right(rs, split).matrix, a, atol=1e-12)
        np.testing.assert_allclose(partial_trace_left(rs, split).matrix, b, atol=1e-12)

    def test_bell_marginals_are_maximally_mixed(self):
        rs, split = reshaped_22(bell_state())
        np.testing.assert_allclose(partial_trace_right(rs, split).matrix, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(partial_trace_left(rs, split).matrix, np.eye(2) / 2, atol=1e-14)

    def test_traces_preserved(self):
        rng = np.random.default_rng(4)
        f = Factorization((2, 2, 3))
        state = validate(random_density(rng, 12))
        rs = ReshapedState(state, f)
        for s in (1, 2):
            split = QuditSplit(f, s)
            for reduced in (partial_trace_right(rs, split), partial_trace_left(rs, split)):
                assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12


class TestBlockReductions:
    @pytest.mark.parametrize("dims", _REDUCTION_LAYOUTS, ids=str)
    def test_stack_rows_match_brute_force_summation(self, dims):
        rng = np.random.default_rng(sum(dims) * 100 + len(dims))
        n = math.prod(dims)
        stack = np.array([random_density(rng, n) for _ in range(3)])
        for s in range(1, len(dims)):
            d_left = math.prod(dims[:s])
            leading, trailing = block_reductions(stack, d_left)
            assert leading.shape == (3, d_left, d_left)
            assert trailing.shape == (3, n // d_left, n // d_left)
            for row, rho in enumerate(stack):
                np.testing.assert_allclose(leading[row],
                                           brute_force_reduction(rho, dims, s, "left"),
                                           rtol=0.0, atol=1e-14)
                np.testing.assert_allclose(trailing[row],
                                           brute_force_reduction(rho, dims, s, "right"),
                                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("dims", _REDUCTION_LAYOUTS, ids=str)
    def test_diagonal_states_reduce_to_block_marginals(self, dims):
        """The twin of classical.block_marginals: a diagonal state's reductions are diagonal,
        holding the block marginals of its diagonal.  The sums run in another order, so they
        agree to rounding, not bit for bit."""
        rng = np.random.default_rng(sum(dims) * 100 + len(dims) + 1)
        n = math.prod(dims)
        probs = rng.dirichlet(np.ones(n), size=3)
        probs[:, rng.permutation(n)[: n // 4]] = 0.0
        stack = probs[:, :, None] * np.eye(n)
        for s in range(1, len(dims)):
            d_left = math.prod(dims[:s])
            for reduced, marginals in zip(block_reductions(stack, d_left),
                                          block_marginals(probs, d_left)):
                diagonal = np.diagonal(reduced, axis1=-2, axis2=-1)
                np.testing.assert_allclose(diagonal, marginals, rtol=0.0, atol=1e-15)
                assert np.array_equal(reduced, diagonal[..., None] * np.eye(reduced.shape[-1]))


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(bell_state()) <= 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(validate(np.eye(4) / 4)) - math.log(4)) < 1e-12

    def test_two_equal_eigenvalues(self):
        state = validate(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert abs(von_neumann_entropy(state) - LN2) < 1e-12

    def test_entropy_bounds_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            s = von_neumann_entropy(validate(random_density(rng, n)))
            assert -1e-10 <= s <= math.log(n) + 1e-10


class TestMutualInformation:
    def test_product_is_zero(self):
        rng = np.random.default_rng(8)
        f = Factorization((2, 2))
        state = validate(product_state([random_density(rng, 2), random_density(rng, 2)], f))
        rs = ReshapedState(state, f)
        assert abs(mutual_quantum_information(rs, QuditSplit(f, 1))) <= 1e-10

    def test_bell_state(self):
        rs, split = reshaped_22(bell_state())
        assert abs(mutual_quantum_information(rs, split) - 2 * LN2) <= 1e-10

    def test_classically_correlated_mixture(self):
        state = validate(np.diag([0.5, 0.0, 0.0, 0.5]))
        rs, split = reshaped_22(state)
        assert abs(mutual_quantum_information(rs, split) - LN2) <= 1e-12

    def test_random_sweep_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            f = Factorization((2, int(rng.integers(2, 5))))
            state = validate(random_density(rng, f.total))
            rs = ReshapedState(state, f)
            assert mutual_quantum_information(rs, QuditSplit(f, 1)) >= -1e-9


class TestOneReductionPerSplit:
    """analyze-dm and mutual_quantum_information take both reduced states of a split from
    one block_reductions call, and those states are the partial traces' bit for bit."""

    LAYOUTS = [((2, 2), 1), ((2, 3), 1), ((3, 2), 1), ((2, 3, 2), 2), ((1, 6), 1), ((4, 4), 1)]

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []

        def counted(matrices, d_left):
            calls.append(block_reductions(matrices, d_left))
            return calls[-1]

        monkeypatch.setattr(quantum, "block_reductions", counted)
        monkeypatch.setattr(cli, "block_reductions", counted, raising=False)
        return calls

    @staticmethod
    def state(dims, s):
        f = Factorization(dims)
        rng = np.random.default_rng(f.total + s)
        return validate(random_density(rng, f.total)), QuditSplit(f, s)

    @pytest.mark.parametrize("dims, s", LAYOUTS)
    def test_mutual_quantum_information(self, reductions, dims, s):
        state, split = self.state(dims, s)
        rs = ReshapedState(state, split.factorization)
        mutual = mutual_quantum_information(rs, split)
        assert len(reductions) == 1
        traces = (partial_trace_right(rs, split), partial_trace_left(rs, split))
        for raw, trace in zip(reductions[0], traces):
            assert np.array_equal(DensityMatrix(raw).matrix, trace.matrix)
        spectra = (traces[0].eigenvalues, traces[1].eigenvalues, state.eigenvalues)
        assert mutual == split_entropies(*spectra)[3]

    @pytest.mark.parametrize("dims, s", LAYOUTS)
    def test_analyze_dm(self, tmp_path, capsys, reductions, dims, s):
        state, split = self.state(dims, s)
        path = tmp_path / "rho.json"
        write_density_matrix(state, path)
        argv = ["analyze-dm", "--input", str(path), "--dims", ",".join(map(str, dims)),
                "--split", str(s)]
        assert cli.main(argv) == 0
        assert len(reductions) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        rs = ReshapedState(state, split.factorization)
        for key, trace in (("rho_left", partial_trace_right), ("rho_right", partial_trace_left)):
            matrix = trace(rs, split).matrix
            assert np.array_equal(results[key]["re"], matrix.real)
            assert np.array_equal(results[key]["im"], matrix.imag)


class TestReductionsAreNotCheckedAgain:
    """A reduction of a checked state is derived, not new input, so nothing checks it again."""

    @pytest.mark.parametrize("dims", _REDUCTION_LAYOUTS)
    def test_a_reduction_is_its_own_hermitian_part(self, dims):
        # validate_stack would return each reduction and its spectrum bit for bit, at
        # ranks 1, 3 and full; fuzz's stacked reductions are pinned in test_fuzz.
        f = Factorization(dims)
        for rank in sorted({1, min(3, f.total), f.total}):
            state = ginibre_density(np.random.default_rng([f.total, rank]), f.total, rank)
            for s in range(1, f.num_axes):
                reduced, spectra = reductions_and_spectra(state, QuditSplit(f, s).dim_left)
                for matrix, spectrum in zip(reduced, spectra):
                    sym, eigenvalues = validate_stack(matrix)
                    assert sym.tobytes() == matrix.tobytes()
                    assert eigenvalues.tobytes() == spectrum.tobytes()

    @pytest.mark.parametrize("dims, mutual, linear", [
        ((2, 3), 0.0, 1.0 - 0.3**2 - 0.3**2 - 0.4**2),
        ((3, 2), -0.3 * math.log(0.3) - 0.7 * math.log(0.7), 1.0 - 0.3**2 - 0.7**2),
    ])
    def test_either_block_order_of_a_state_the_check_accepts(self, tmp_path, capsys, dims,
                                                             mutual, linear):
        # Three eigenvalues of -3.3e-11 carry a negative mass of 0.99 PSD_ATOL; at --dims 2,3
        # they sum into one leading reduced level of -9.9e-11, still inside the floor.
        diagonal = np.array([-3.3e-11, 0.3, -3.3e-11, 0.3, -3.3e-11, 0.0])
        diagonal[5] = 1.0 - diagonal.sum()
        state = validate(np.diag(diagonal))
        f = Factorization(dims)
        rs, split = ReshapedState(state, f), QuditSplit(f, 1)
        reduced = block_reductions(state.matrix, split.dim_left)
        for partial_trace, expected in zip((partial_trace_right, partial_trace_left), reduced):
            assert partial_trace(rs, split).matrix.tobytes() == expected.tobytes()
        assert abs(mutual_quantum_information(rs, split) - mutual) <= 1e-9
        assert abs(linear_entropy(rs, split) - linear) <= 1e-9
        path = tmp_path / "rho.json"
        write_density_matrix(state, path)
        assert cli.main(["analyze-dm", "--input", str(path), "--dims", "%d,%d" % dims]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["mutual_info"] == mutual_quantum_information(rs, split)
        assert results["linear_entropy"] == linear_entropy(rs, split)


def _negative_mass(eigenvalues: np.ndarray) -> np.ndarray:
    return np.maximum(-eigenvalues, 0.0).sum(axis=-1)


def _states_inside_the_floor(rng, d_left, d_right):
    """(kind, matrix) pairs whose negative mass sigma is drawn from [0.5, 0.999] PSD_ATOL: a
    diagonal state, the same spectrum turned by a Haar unitary, and a product positive part
    (1 + sigma) rho_L x rho_R less sigma |w><w|, with w in its kernel."""
    n = d_left * d_right
    sigma = rng.uniform(0.5, 0.999) * PSD_ATOL
    negative = rng.choice(n, size=rng.integers(1, n // 2 + 1), replace=False)
    levels = rng.dirichlet(np.ones(n))
    levels[negative] = 0.0
    levels *= (1.0 + sigma) / levels.sum()
    levels[negative] = -sigma * rng.dirichlet(np.ones(len(negative)))
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    factors, kernel = [], []
    for side, d in enumerate((d_left, d_right)):
        v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        weights = rng.dirichlet(np.ones(d))
        if side == 0:
            weights[-1] = 0.0
            weights /= weights.sum()
        factors.append((v * weights) @ v.conj().T)
        kernel.append(v[:, -1])
    w = np.kron(kernel[1], kernel[0])  # the leading block fast, as in product_state
    return [("diagonal", np.diag(levels)), ("unitary", (u * levels) @ u.conj().T),
            ("product", (1.0 + sigma) * product_state(factors) - sigma * np.outer(w, w.conj()))]


@pytest.mark.parametrize("d_left, d_right", [(a, b) for a in range(2, 9) for b in range(2, 9)])
def test_no_value_derived_from_a_checked_state_leaves_its_floor(d_left, d_right):
    # The trace norm contracts under partial traces and pinchings, so neither a reduction
    # nor a tomogram row carries more negative mass than the state; a PPT positive part
    # bounds the partial-transpose witness by -sigma.  Seeded, two draws of each kind.
    rng = np.random.default_rng([d_left, d_right])
    f = Factorization((d_left, d_right))
    split, n = QuditSplit(f, 1), f.total
    rep = spin_rep((n - 1) / 2.0)
    theta, phi = np.append(0.0, rng.uniform(0.0, math.pi, 6)), rng.uniform(0.0, 2.0 * math.pi, 7)
    draws = [pair for _ in range(2) for pair in _states_inside_the_floor(rng, d_left, d_right)]
    for kind, matrix in draws:
        state = validate(matrix)
        sigma = _negative_mass(state.eigenvalues)
        assert 0.49 * PSD_ATOL <= sigma <= PSD_ATOL
        rs = ReshapedState(state, f)
        _, spectra = reductions_and_spectra(state, d_left)
        for spectrum in spectra:
            assert _negative_mass(spectrum) <= sigma + 1e-15
        assert (partial_trace_right(rs, split).dim, partial_trace_left(rs, split).dim) == f.dims
        rows = tomogram_diagonals(rep, theta, phi, state.matrix)
        assert _negative_mass(rows).max() <= sigma + 1e-15
        if kind != "unitary":
            verdict = separability_test(rs, split)
            assert verdict.witness_value >= -sigma - 1e-15 and verdict.status != "entangled"
        _, checks = cli._analyze_density_matrix(state, split)
        assert all(record.holds for record in checks), (kind, checks)


class TestLinearEntropy:
    def test_product_with_pure_right_factor(self):
        rng = np.random.default_rng(12)
        a = random_density(rng, 2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        b = np.outer(v, v.conj())
        f = Factorization((2, 2))
        rs = ReshapedState(validate(product_state([a, b], f)), f)
        assert abs(linear_entropy(rs, QuditSplit(f, 1))) <= 1e-12

    def test_bell_state(self):
        rs, split = reshaped_22(bell_state())
        assert abs(linear_entropy(rs, split) - 0.5) <= 1e-12

    def test_maximally_mixed(self):
        rs, split = reshaped_22(validate(np.eye(4) / 4))
        assert abs(linear_entropy(rs, split) - 0.5) <= 1e-12


class TestSeparability:
    def test_product_is_separable(self):
        rng = np.random.default_rng(14)
        f = Factorization((2, 2))
        state = validate(product_state([random_density(rng, 2), random_density(rng, 2)], f))
        verdict = separability_test(ReshapedState(state, f), QuditSplit(f, 1))
        assert verdict.status == "separable"
        assert verdict.witness_value >= -1e-10

    def test_bell_state_entangled(self):
        rs, split = reshaped_22(bell_state())
        verdict = separability_test(rs, split)
        assert verdict.status == "entangled"
        assert abs(verdict.witness_value + 0.5) <= 1e-10

    def test_diagonal_mixture_separable(self):
        state = validate(np.diag([0.5, 0.0, 0.0, 0.5]))
        rs, split = reshaped_22(state)
        assert separability_test(rs, split).status == "separable"

    def test_large_blocks_inconclusive_on_ppt(self):
        f = Factorization((3, 3))
        rs = ReshapedState(validate(np.eye(9) / 9), f)
        assert separability_test(rs, QuditSplit(f, 1)).status == "inconclusive"

    def test_two_by_three_decisive(self):
        rng = np.random.default_rng(15)
        f = Factorization((2, 3))
        state = validate(product_state([random_density(rng, 2), random_density(rng, 3)], f))
        assert separability_test(ReshapedState(state, f), QuditSplit(f, 1)).status == "separable"

    def test_partial_transpose_matches_brute_force(self):
        rng = np.random.default_rng(16)
        f = Factorization((2, 3))
        state = validate(random_density(rng, 6))
        rs = ReshapedState(state, f)
        split = QuditSplit(f, 1)
        pt = partial_transpose_right(rs, split)
        # Independent route over composed indices: swap the right-block
        # columns between the two sides.
        expected = np.zeros((6, 6), dtype=complex)
        for a in (1, 2):
            for b in (1, 2, 3):
                for ap in (1, 2):
                    for bp in (1, 2, 3):
                        y = a + (b - 1) * 2
                        yp = ap + (bp - 1) * 2
                        y_swapped = a + (bp - 1) * 2
                        yp_swapped = ap + (b - 1) * 2
                        expected[y - 1, yp - 1] = state.matrix[y_swapped - 1, yp_swapped - 1]
        np.testing.assert_allclose(pt, expected, atol=0)


class TestChsh:
    def test_bell_state_hits_tsirelson(self):
        rs, split = reshaped_22(bell_state())
        value = chsh_max(rs, split)
        assert abs(value - 2 * math.sqrt(2)) <= 1e-9
        oracle, settings = chsh_grid_oracle(correlation_matrix(rs, split))
        assert settings >= 10_000
        assert abs(oracle - value) <= 1e-9

    def test_product_state_classical(self):
        rng = np.random.default_rng(17)
        f = Factorization((2, 2))
        for _ in range(20):
            state = validate(
                product_state([random_density(rng, 2), random_density(rng, 2)], f)
            )
            rs = ReshapedState(state, f)
            split = QuditSplit(f, 1)
            value = chsh_max(rs, split)
            assert value <= 2.0 + 1e-9
            oracle, _ = chsh_grid_oracle(correlation_matrix(rs, split))
            assert oracle <= value + 1e-9

    def test_correlation_matrix_matches_pauli_traces_bit_for_bit(self):
        # Tr(rho sigma_i x sigma_j) with dense Kronecker products, the leading
        # block fast (so second in kron); real, rank-1 and diagonal states included.
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.array([[1, 0], [0, -1]])]
        rng = np.random.default_rng(19)
        states = [random_density(rng, 4) for _ in range(40)]
        states += [bell_state().matrix, np.eye(4) / 4, np.diag([0.1, 0.2, 0.3, 0.4])]
        for rho in states:
            rs, split = reshaped_22(validate(rho))
            m = rs.base.matrix
            expected = np.array([[np.trace(m @ np.kron(r, l)).real for r in paulis]
                                 for l in paulis])
            assert correlation_matrix(rs, split).tobytes() == expected.tobytes()

    def test_maximally_mixed_is_zero(self):
        rs, split = reshaped_22(validate(np.eye(4) / 4))
        assert abs(chsh_max(rs, split)) <= 1e-12

    def test_requires_two_by_two(self):
        f = Factorization((2, 3))
        rs = ReshapedState(validate(np.eye(6) / 6), f)
        with pytest.raises(UsageError, match="two-dimensional"):
            chsh_max(rs, QuditSplit(f, 1))

    def test_grid_oracle_never_exceeds_formula(self):
        rng = np.random.default_rng(18)
        f = Factorization((2, 2))
        for _ in range(25):
            state = validate(random_density(rng, 4))
            rs = ReshapedState(state, f)
            split = QuditSplit(f, 1)
            value = chsh_max(rs, split)
            oracle, _ = chsh_grid_oracle(correlation_matrix(rs, split))
            assert oracle <= value + 1e-9


class TestPureStateDuality:
    def test_schmidt_symmetry_and_ppt_consistency(self):
        rng = np.random.default_rng(20)
        f = Factorization((2, 2))
        split = QuditSplit(f, 1)
        for _ in range(200):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            state = validate(np.outer(v, v.conj()))
            rs = ReshapedState(state, f)
            s_left = von_neumann_entropy(partial_trace_right(rs, split))
            s_right = von_neumann_entropy(partial_trace_left(rs, split))
            assert abs(s_left - s_right) <= 1e-9
            entangled = separability_test(rs, split).status == "entangled"
            assert (linear_entropy(rs, split) > 1e-8) == entangled
