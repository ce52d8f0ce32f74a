import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import n_dot_j_tomogram, random_density, shannon_ref, wigner_d_full
from quditcorr import (
    Direction,
    DomainError,
    Factorization,
    NotHermitian,
    ProbabilityVector,
    SpinRep,
    TsallisParam,
    UsageError,
    direction_sweep,
    mutual_tomographic_information,
    probabilities_from_qubit,
    rotation_matrix,
    spin_rep,
    tomogram,
    tomographic_marginals,
    tomographic_tsallis_relative,
    tomographic_tsallis_report,
    validate,
)
from quditcorr import tomography
from quditcorr.tomography import tomogram_diagonals, tomogram_values, tsallis_reports, wigner_d

LN2 = math.log(2.0)


def euler_half_spin(phi, theta, psi):
    """The closed-form j = 1/2 rotation matrix."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c * np.exp(1j * (psi + phi) / 2.0), s * np.exp(1j * (psi - phi) / 2.0)],
            [-s * np.exp(-1j * (psi - phi) / 2.0), c * np.exp(-1j * (psi + phi) / 2.0)],
        ]
    )


def wigner_plus_one(theta):
    """Closed-form exp(i theta Jy) for j = 1 (basis m = 1, 0, -1)."""
    c, s = math.cos(theta), math.sin(theta)
    r = math.sqrt(2.0)
    return np.array(
        [
            [(1 + c) / 2.0, s / r, (1 - c) / 2.0],
            [-s / r, c, s / r],
            [(1 - c) / 2.0, -s / r, (1 + c) / 2.0],
        ]
    )


class TestDirection:
    def test_validation(self):
        with pytest.raises(DomainError, match="theta"):
            Direction(-0.1, 0.0)
        with pytest.raises(DomainError, match="theta"):
            Direction(3.2, 0.0)
        with pytest.raises(DomainError, match="phi"):
            Direction(0.5, 2.0 * math.pi)
        Direction(math.pi, 0.0, psi=-17.3)  # psi unconstrained

    @pytest.mark.parametrize(
        "angles, name",
        [
            ((math.nan, 0.0, 0.0), "theta"),
            ((math.inf, 0.0, 0.0), "theta"),
            ((0.3, math.nan, 0.0), "phi"),
            ((0.3, -math.inf, 0.0), "phi"),
            ((0.3, 0.4, math.nan), "psi"),
            ((0.3, 0.4, math.inf), "psi"),
            ((0.3, 0.4, -math.inf), "psi"),
        ],
    )
    def test_non_finite_angles_rejected(self, angles, name):
        with pytest.raises(DomainError, match=name):
            Direction(*angles)


class TestSpinRep:
    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.5, 3.5])
    def test_commutator(self, j):
        rep = SpinRep(j)
        gap = np.abs(rep.jx @ rep.jy - rep.jy @ rep.jx - 1j * rep.jz).max()
        assert gap <= 1e-10

    def test_jz_descending(self):
        rep = SpinRep(1.5)
        np.testing.assert_allclose(np.diag(rep.jz).real, [1.5, 0.5, -0.5, -1.5])

    def test_invalid_spin(self):
        for j in (0.0, 0.3, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                SpinRep(j)

    @pytest.mark.parametrize("j", [1.0, 1.5, 32.0])
    def test_factors_ignore_eigenvector_phases(self, j, monkeypatch):
        # eigh may return each Jy eigenvector times any phase, the m = 0 one included.
        eigh = np.linalg.eigh
        angles = np.random.default_rng(int(2 * j)).uniform(0.0, 2.0 * math.pi, int(2 * j) + 1)
        phases = np.exp(1j * angles)
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], eigh(m)[1] * phases))
        phased = SpinRep(j)
        monkeypatch.undo()
        for theta in (0.4, 2.9):
            gap = np.abs(wigner_d(phased, theta) - wigner_d(SpinRep(j), theta)).max()
            assert gap <= 1e-13

    def test_shared_rep_built_once_per_j(self):
        assert spin_rep(2.5) is spin_rep(2.5)
        assert spin_rep(2.5).j == 2.5 and spin_rep(3.0).dim == 7
        with pytest.raises(DomainError):
            spin_rep(0.3)


class TestWignerD:
    """The mirrored half product against the full factor product."""

    THETAS = np.array([0.0, 0.4, 1.3, 2.9, math.pi])

    # N = 2..33, then j = 31.5, 32 and 127.5 (N = 64, 65 and 256).
    @pytest.mark.parametrize("j", [n / 2.0 for n in range(1, 33)] + [31.5, 32.0, 127.5])
    def test_matches_full_product_and_mirrors_exactly(self, j):
        rep = SpinRep(j)
        n, half = rep.dim, rep.dim // 2
        signs = (-1.0) ** np.add.outer(np.arange(half), np.arange(n))
        for theta in (0.4, 2.9, self.THETAS):
            d = wigner_d(rep, theta)
            assert d.shape == (*np.shape(theta), n, n)
            assert np.abs(d - wigner_d_full(rep, theta)).max() <= 1e-13
            # d[N-1-k, N-1-l] = (-1)^(k+l) d[k, l] on every row but an odd N's middle one.
            assert np.array_equal(d[..., ::-1, ::-1][..., :half, :], signs * d[..., :half, :])
            gram = d @ np.swapaxes(d, -1, -2)
            assert np.abs(gram - np.eye(n)).max() <= 1e-12


class TestRotationMatrix:
    def test_identity_at_zero_angles(self):
        u = rotation_matrix(SpinRep(0.5), Direction(0.0, 0.0, 0.0))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    def test_half_spin_quarter_turn(self):
        u = rotation_matrix(SpinRep(0.5), Direction(math.pi / 2.0, 0.0, 0.0))
        c = math.cos(math.pi / 4.0)
        np.testing.assert_allclose(u, [[c, c], [-c, c]], atol=1e-14)

    def test_half_spin_closed_form_grid(self):
        rep = SpinRep(0.5)
        for theta in np.linspace(0.0, math.pi, 8):
            for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                for psi in np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False):
                    u = rotation_matrix(rep, Direction(theta, phi, psi))
                    gap = np.abs(u - euler_half_spin(phi, theta, psi)).max()
                    assert gap <= 1e-12

    def test_spin_one_closed_form(self):
        rep = SpinRep(1.0)
        for theta in np.linspace(0.0, math.pi, 13):
            u = rotation_matrix(rep, Direction(theta, 0.0, 0.0))
            assert np.abs(u - wigner_plus_one(theta)).max() <= 1e-12

    def test_spin_one_half_turn_antidiagonal(self):
        u = rotation_matrix(SpinRep(1.0), Direction(math.pi, 0.0, 0.0))
        np.testing.assert_allclose(u.real, [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-14)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.5, 3.5])
    def test_unitarity(self, j):
        rng = np.random.default_rng(int(j * 10))
        rep = SpinRep(j)
        for _ in range(25):
            d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(-9, 9))
            u = rotation_matrix(rep, d)
            assert np.abs(u @ u.conj().T - np.eye(rep.dim)).max() <= 1e-10


class TestTomogram:
    def test_maximally_mixed_uniform(self):
        rng = np.random.default_rng(30)
        for j in (0.5, 1.0, 1.5):
            rep = SpinRep(j)
            state = validate(np.eye(rep.dim) / rep.dim)
            d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            np.testing.assert_allclose(tomogram(state, rep, d).values, 1.0 / rep.dim, atol=1e-12)

    def test_pure_up_along_z(self):
        table = tomogram(validate(np.diag([1.0, 0.0])), SpinRep(0.5), Direction(0.0, 0.0))
        np.testing.assert_allclose(table.values, [0.0, 1.0], atol=1e-12)

    def test_pure_up_along_x(self):
        table = tomogram(validate(np.diag([1.0, 0.0])), SpinRep(0.5), Direction(math.pi / 2, 0.0))
        np.testing.assert_allclose(table.values, [0.5, 0.5], atol=1e-12)

    def test_y_order_reverses_storage(self):
        state = validate(np.diag([0.5, 0.3, 0.2]))
        table = tomogram(state, SpinRep(1.0), Direction(0.0, 0.0))
        np.testing.assert_allclose(table.values, [0.2, 0.3, 0.5], atol=1e-14)

    def test_psi_invariance(self):
        rng = np.random.default_rng(31)
        rep = SpinRep(1.5)
        for _ in range(50):
            state = validate(random_density(rng, 4))
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            base = tomogram(state, rep, Direction(theta, phi, 0.0)).values
            shifted = tomogram(state, rep, Direction(theta, phi, rng.uniform(-9, 9))).values
            assert np.abs(base - shifted).max() <= 1e-12

    def test_normalization_recorded(self):
        rng = np.random.default_rng(32)
        rep = SpinRep(2.5)
        state = validate(random_density(rng, 6))
        table = tomogram(state, rep, Direction(1.0, 2.0))
        assert table.normalization_error <= 1e-10
        assert abs(table.values.sum() - 1.0) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError, match="dimension"):
            tomogram(validate(np.eye(2) / 2), SpinRep(1.0), Direction(0.0, 0.0))

    def test_nan_state_raises(self):
        # Only a DensityMatrix reaches the kernel, so a NaN matrix is refused as a fake.
        state = SimpleNamespace(dim=4, matrix=np.full((4, 4), math.nan, dtype=complex))
        with pytest.raises(UsageError, match="tomogram takes a DensityMatrix, not SimpleNamespace"):
            tomogram(state, SpinRep(1.5), Direction(0.3, 0.4))

    @pytest.mark.parametrize("state", [
        SimpleNamespace(dim=4, matrix=np.eye(4, dtype=complex) / 4),
        np.eye(4) / 4,
    ], ids=["namespace", "ndarray"])
    def test_refuses_what_is_not_a_density_matrix(self, state):
        with pytest.raises(UsageError, match="build one with validate"):
            tomogram(state, SpinRep(1.5), Direction(0.3, 0.4))

    def test_anti_hermitian_bound(self):
        # The sweep checks its matrix as validate does: eps (i E_00 + E_03 - E_30) has the
        # entrywise gap |rho - rho^dagger|_00 = 2 eps, above HERMITIAN_ATOL at eps = 0.58e-10,
        # so it is refused before any tomogram.
        rep, f, direction = SpinRep(1.5), Factorization((2, 2)), Direction(0.7, 1.1)
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 0], skew[0, 3], skew[3, 0] = 1j, 1.0, -1.0
        above = random_density(np.random.default_rng(37), 4) + 0.58e-10 * skew
        with pytest.raises(NotHermitian, match=r"max \|rho - rho\^dagger\| = 1\.160e-10"):
            direction_sweep(above, rep, f, [direction])

    def test_matches_qubit_probabilities(self):
        # The x/y/z tomograms of a qubit reproduce (p1, p2, p3).
        rng = np.random.default_rng(33)
        rep = SpinRep(0.5)
        along_x = Direction(math.pi / 2.0, 0.0)
        along_y = Direction(math.pi / 2.0, math.pi / 2.0)
        along_z = Direction(0.0, 0.0)
        for _ in range(200):
            state = validate(random_density(rng, 2))
            qp = probabilities_from_qubit(state)
            # index 1 is m = +1/2 in the flat ordering
            assert abs(tomogram(state, rep, along_x).values[1] - qp.p1) <= 1e-12
            assert abs(tomogram(state, rep, along_y).values[1] - qp.p2) <= 1e-12
            assert abs(tomogram(state, rep, along_z).values[1] - qp.p3) <= 1e-12


class TestTomographicMarginals:
    def test_uniform(self):
        table = tomogram(validate(np.eye(4) / 4), SpinRep(1.5), Direction(0.3, 0.4))
        first, second = tomographic_marginals(table, Factorization((2, 2)))
        np.testing.assert_allclose(first.probs, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(second.probs, [0.5, 0.5], atol=1e-12)

    def test_correlated_diagonal(self):
        state = validate(np.diag([0.5, 0.0, 0.0, 0.5]))
        table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
        first, second = tomographic_marginals(table, Factorization((2, 2)))
        np.testing.assert_allclose(first.probs, [0.5, 0.5], atol=1e-13)
        np.testing.assert_allclose(second.probs, [0.5, 0.5], atol=1e-13)

    def test_point_mass(self):
        state = validate(np.diag([0.0, 0.0, 0.0, 1.0]))  # m = -3/2 -> flat index 1
        table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
        first, second = tomographic_marginals(table, Factorization((2, 2)))
        np.testing.assert_allclose(first.probs, [1.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(second.probs, [1.0, 0.0], atol=1e-13)

    def test_dimension_mismatch(self):
        table = tomogram(validate(np.eye(4) / 4), SpinRep(1.5), Direction(0.0, 0.0))
        with pytest.raises(UsageError):
            tomographic_marginals(table, Factorization((2, 3)))
        with pytest.raises(UsageError):
            tomographic_marginals(table, Factorization((2, 2, 1)))


class TestTsallisReports:
    def test_correlated_diagonal_q2(self):
        state = validate(np.diag([0.5, 0.0, 0.0, 0.5]))
        table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
        report = tomographic_tsallis_report(table, Factorization((2, 2)), TsallisParam(2.0))
        assert abs(report.s_q - 0.5) < 1e-12
        assert abs(report.s_q1 - 0.5) < 1e-12
        assert abs(report.s_q2 - 0.5) < 1e-12
        assert report.subadditivity_holds

    def test_point_mass_all_zero(self):
        state = validate(np.diag([1.0, 0.0, 0.0, 0.0]))
        table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
        for q in (0.5, 2.0, 3.0):
            report = tomographic_tsallis_report(table, Factorization((2, 2)), TsallisParam(q))
            assert abs(report.s_q) < 1e-12
            assert abs(report.s_q1) < 1e-12
            assert abs(report.s_q2) < 1e-12
            assert report.subadditivity_holds

    def test_product_tomogram_holds(self):
        rng = np.random.default_rng(34)
        f = Factorization((2, 2))
        for q in (1.5, 2.0, 3.0):
            u = rng.dirichlet(np.ones(2))
            v = rng.dirichlet(np.ones(2))
            values = np.outer(v, u).ravel()
            state = validate(np.diag(values[::-1]))  # diag in storage order
            table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
            report = tomographic_tsallis_report(table, f, TsallisParam(q))
            assert report.s_q1 + report.s_q2 - report.s_q >= -1e-10
            assert report.subadditivity_holds


class TestTsallisRelative:
    def test_identical_marginals(self):
        p = ProbabilityVector([0.5, 0.5])
        assert tomographic_tsallis_relative(p, p, TsallisParam(2.0)) == 0.0

    def test_frozen_value(self):
        p = ProbabilityVector([2.0 / 3.0, 1.0 / 3.0])
        r = ProbabilityVector([0.5, 0.5])
        assert abs(tomographic_tsallis_relative(p, r, TsallisParam(2.0)) - 1.0 / 9.0) < 1e-15

    def test_disjoint_support(self):
        p = ProbabilityVector([1.0, 0.0])
        r = ProbabilityVector([0.0, 1.0])
        assert tomographic_tsallis_relative(p, r, TsallisParam(2.0)) == math.inf

    def test_preconditions(self):
        p = ProbabilityVector([0.5, 0.5])
        with pytest.raises(UsageError, match="X1 = X2"):
            tomographic_tsallis_relative(p, ProbabilityVector([1.0 / 3.0] * 3), TsallisParam(2.0))
        with pytest.raises(UsageError, match="q > 1"):
            tomographic_tsallis_relative(p, p, TsallisParam(0.5))


class TestMutualInformation:
    def test_product_tomogram_zero(self):
        state = validate(np.diag([0.06, 0.14, 0.24, 0.56][::-1]))
        table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
        assert abs(mutual_tomographic_information(table, Factorization((2, 2)))) <= 1e-12

    def test_correlated_diagonal(self):
        state = validate(np.diag([0.5, 0.0, 0.0, 0.5]))
        table = tomogram(state, SpinRep(1.5), Direction(0.0, 0.0))
        assert abs(mutual_tomographic_information(table, Factorization((2, 2))) - LN2) <= 1e-12

    def test_uniform_zero(self):
        table = tomogram(validate(np.eye(4) / 4), SpinRep(1.5), Direction(1.2, 0.7))
        assert abs(mutual_tomographic_information(table, Factorization((2, 2)))) <= 1e-12


class TestDirectionSweep:
    def grid(self, n_theta=5, n_phi=5):
        return [
            Direction(theta, phi)
            for theta in np.linspace(0.0, math.pi, n_theta)
            for phi in np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
        ]

    def test_maximally_mixed_all_zero(self):
        sweep = direction_sweep(np.eye(4) / 4, SpinRep(1.5), Factorization((2, 2)), self.grid())
        assert len(sweep.directions) == 25
        assert sweep.values.shape == (25, 4)
        assert sweep.information.shape == sweep.normalization_error.shape == (25,)
        assert np.abs(sweep.information).max() <= 1e-12

    def test_bell_like_state_along_z(self):
        v = np.zeros(4)
        v[0] = v[3] = 2**-0.5
        sweep = direction_sweep(
            np.outer(v, v), SpinRep(1.5), Factorization((2, 2)), [Direction(0.0, 0.0)],
            (TsallisParam(2.0),)
        )
        np.testing.assert_allclose(sweep.values[0], [0.5, 0.0, 0.0, 0.5], atol=1e-13)
        assert abs(sweep.information[0] - LN2) <= 1e-12
        assert sweep.tsallis[2.0].shape == (4, 1)
        assert tsallis_reports(sweep.tsallis[2.0])[0].subadditivity_holds

    def test_values_reach_down_to_the_state_floor(self):
        # A checked state's tomogram row is a pinching of it, so its negative values sum to no
        # less than minus the state's negative mass, at most PSD_ATOL; those are zeroed.
        state = np.diag([1.0 + 5e-11, -5e-11])
        grid = [Direction(theta, phi) for theta in (0.0, 1.0, math.pi) for phi in (0.0, 2.0)]
        sweep = direction_sweep(state, SpinRep(0.5), Factorization((2, 1)), grid)
        assert np.array_equal(sweep.values[0], [0.0, 1.0])

    def test_sweep_normalization_and_order(self):
        rng = np.random.default_rng(35)
        grid = self.grid(10, 10)
        sweep = direction_sweep(random_density(rng, 4), SpinRep(1.5), Factorization((2, 2)), grid)
        assert sweep.directions == grid
        assert sweep.tsallis == {}
        assert sweep.normalization_error.max() <= 1e-10
        assert sweep.information.min() >= -1e-10

    def test_records_match_per_table_functions(self):
        rng = np.random.default_rng(36)
        f = Factorization((2, 3))
        rep = SpinRep(2.5)
        state = validate(random_density(rng, 6))
        qs = (TsallisParam(0.5), TsallisParam(2.0), TsallisParam(3.0))
        sweep = direction_sweep(state.matrix, rep, f, self.grid(4, 4), qs)
        assert sorted(sweep.tsallis) == [0.5, 2.0, 3.0]
        for table in sweep.tsallis.values():
            assert table.shape == (4, 16)
            # The margin row is S_q1 + S_q2 - S_q of the rows above it, bit for bit.
            assert np.array_equal(table[3], table[0] + table[1] - table[2])
        for k, direction in enumerate(sweep.directions):
            table = tomogram(state, rep, direction)
            assert np.abs(sweep.values[k] - table.values).max() <= 1e-12
            assert abs(sweep.normalization_error[k] - table.normalization_error) <= 1e-12
            info = mutual_tomographic_information(table, f)
            assert abs(sweep.information[k] - info) <= 1e-12
            first, second = tomographic_marginals(table, f)
            oracle = shannon_ref(first.probs) + shannon_ref(second.probs) - shannon_ref(table.values)
            assert abs(sweep.information[k] - oracle) <= 1e-12
            for tq in qs:
                expected = tomographic_tsallis_report(table, f, tq)
                s_q1, s_q2, s_q, margin = sweep.tsallis[tq.q][:, k]
                assert abs(s_q1 - expected.s_q1) <= 1e-12
                assert abs(s_q2 - expected.s_q2) <= 1e-12
                assert abs(s_q - expected.s_q) <= 1e-12
                assert abs(margin - (expected.s_q1 + expected.s_q2 - expected.s_q)) <= 1e-12
                got = tsallis_reports(sweep.tsallis[tq.q])[k]
                assert got.subadditivity_holds == expected.subadditivity_holds

    # N = 5 is odd, so its middle row of d is the computed one that maps onto itself.
    @pytest.mark.parametrize("n, dims", [(5, (5, 1)), (16, (4, 4)), (64, (8, 8))])
    def test_rows_equal_single_tomograms_bit_for_bit(self, n, dims):
        rng = np.random.default_rng(n)
        rep = SpinRep((n - 1) / 2.0)
        state = validate(random_density(rng, n))
        grid = [*self.grid(3, 3), Direction(1.1, 4.2, psi=2.5)]
        sweep = direction_sweep(state.matrix, rep, Factorization(dims), grid)
        for k, direction in enumerate(grid):
            assert np.array_equal(sweep.values[k], tomogram(state, rep, direction).values)

    @pytest.mark.parametrize("n", [4, 5])
    def test_pure_state_rows_equal_validated_tomograms(self, monkeypatch, n):
        # A pure state is singular, so the sweep's Cholesky check fails and the eigenvalue
        # check decides; the rows are still those of the validated state, bit for bit.
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        pure = np.outer(v, v.conj()) / np.vdot(v, v).real
        rep, grid = SpinRep((n - 1) / 2.0), [*self.grid(3, 3), Direction(1.1, 4.2, psi=2.5)]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        sweep = direction_sweep(pure, rep, Factorization((n, 1)), grid)
        assert calls == [(n, n)]
        state = validate(pure)
        for k, direction in enumerate(grid):
            assert np.array_equal(sweep.values[k], tomogram(state, rep, direction).values)

    @pytest.mark.parametrize("matrix, message", [
        (np.full((4, 4), np.nan), "state dimension 4 does not match spin dimension 3"),
        (np.eye(4)[:, :3] / 3, r"state dimension \(4, 3\) does not match spin dimension 3"),
    ])
    def test_shape_checked_before_the_state(self, matrix, message):
        with pytest.raises(UsageError, match="direction grid is empty"):
            direction_sweep(matrix, SpinRep(1.0), Factorization((3, 1)), [])
        with pytest.raises(UsageError, match=message):
            direction_sweep(matrix, SpinRep(1.0), Factorization((3, 1)), [Direction(0.3, 0.4)])

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            direction_sweep(np.eye(4) / 4, SpinRep(1.5), Factorization((2, 2)), [])

    @pytest.mark.parametrize("dims, message", [
        ((2, 2, 4), "tomographic analysis splits into two axes, got 3"),
        ((4, 8), "dimension mismatch: factorization total 32 != tomogram length 16"),
    ])
    def test_bad_partition_rejected_before_any_tomogram(self, monkeypatch, dims, message):
        def fail(*args):
            raise AssertionError("a tomogram was computed before the partition was checked")

        monkeypatch.setattr(tomography, "tomogram_diagonals", fail)
        grid = [Direction(0.3, 0.4)]
        with pytest.raises(UsageError, match=message):
            direction_sweep(np.eye(16) / 16, SpinRep(7.5), Factorization(dims), grid)


class TestLargeSpinOracle:
    """Rotation route against the n.J eigenvector route at large j."""

    DIRECTIONS = [Direction(0.0, 0.0), Direction(0.7, 1.3), Direction(2.2, 4.9, 0.8),
                  Direction(math.pi, 5.5)]

    # j = 32 is an integer spin: its kernel carries the real m = 0 column.
    @pytest.mark.parametrize("j, dims", [(31.5, (8, 8)), (127.5, (16, 16)), (32.0, (5, 13))])
    def test_tomogram_and_sweep(self, j, dims):
        rng = np.random.default_rng(int(2 * j))
        rep = SpinRep(j)
        state = validate(random_density(rng, rep.dim))
        f = Factorization(dims)
        sweep = direction_sweep(state.matrix, rep, f, self.DIRECTIONS, (TsallisParam(2.0),))
        theta, phi = (np.array([getattr(d, a) for d in self.DIRECTIONS]) for a in ("theta", "phi"))
        states = np.array([state.matrix] * len(self.DIRECTIONS))
        stacked, _ = tomogram_values(tomogram_diagonals(rep, theta, phi, states))
        for k, (direction, row) in enumerate(zip(self.DIRECTIONS, stacked)):
            expected = n_dot_j_tomogram(state.matrix, direction.theta, direction.phi)
            table = tomogram(state, rep, direction)
            assert np.abs(table.values - expected).max() <= 1e-12
            assert np.abs(sweep.values[k] - expected).max() <= 1e-12
            assert np.abs(row - expected).max() <= 1e-12
            grid = expected.reshape(dims[::-1])
            info = shannon_ref(grid.sum(axis=0)) + shannon_ref(grid.sum(axis=1)) - shannon_ref(expected)
            assert abs(sweep.information[k] - info) <= 1e-12
            assert abs(sweep.information[k] - mutual_tomographic_information(table, f)) <= 1e-12
            report = tomographic_tsallis_report(table, f, TsallisParam(2.0))
            s_q1, s_q2, s_q, _ = sweep.tsallis[2.0][:, k]
            assert abs(s_q1 - report.s_q1) <= 1e-12
            assert abs(s_q2 - report.s_q2) <= 1e-12
            assert abs(s_q - report.s_q) <= 1e-12
