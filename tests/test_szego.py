import math

import numpy as np
import pytest

from qcircle.circle import CircleGrid, contour_mean
from qcircle.errors import WeightUnderflow
from qcircle.qcore import qpochhammer_inf
from qcircle.szego import (gaussian_binomial, jacobi_triple_check,
                           lowering_check, raising_check, rodrigues,
                           sturm_liouville_check, sturm_liouville_eigenvalue,
                           szego_gram, szego_norm, szego_poly, szego_weight,
                           total_mass_check)

GRID = CircleGrid(256)


class TestSzegoPoly:
    def test_degree_zero(self):
        p = szego_poly(0, 0.5)
        assert p.min_degree == 0
        assert p.coefficients.tolist() == [1.0]

    def test_degree_one(self):
        q = 0.5
        p = szego_poly(1, q)
        assert np.allclose(p.coefficients, [1.0, q**-0.5])

    def test_degree_two(self):
        q = 0.5
        p = szego_poly(2, q)
        # middle coefficient is the Gaussian binomial (1+q) times q^{-1/2}
        assert np.allclose(p.coefficients,
                           [1.0, (1 + q) * q**-0.5, q**-1.0])

    @pytest.mark.parametrize("n", range(9))
    def test_degree_and_leading_coefficient(self, n):
        q = 0.35
        p = szego_poly(n, q)
        assert p.min_degree == 0
        assert p.max_degree == n
        assert p.coefficients[-1] == pytest.approx(q**(-n / 2.0))

    def test_gaussian_binomial_symmetry(self):
        for n in range(8):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, 0.4) == \
                    pytest.approx(gaussian_binomial(n, n - k, 0.4))


class TestSzegoWeight:
    def test_real_nonnegative_on_circle(self):
        for q in (0.3, 0.5, 0.9):
            w = np.asarray(szego_weight(GRID.nodes, q))
            # the weight peaks sharply near z = -1 for q close to 1, so
            # judge the imaginary part against the weight's own scale
            assert np.max(np.abs(w.imag)) < 1e-12 * np.max(np.abs(w))
            assert np.min(w.real) > 0.0

    def test_inversion_symmetry(self):
        z = np.exp(0.7j)
        assert szego_weight(1 / z, 0.5) == pytest.approx(szego_weight(z, 0.5))

    def test_total_mass(self):
        q = 0.5
        quad = contour_mean(lambda z: szego_weight(z, q), GRID)
        assert quad == pytest.approx(1.0 / qpochhammer_inf(q, q), rel=1e-12)


class TestLadder:
    def test_lowering_n1_constant_sides(self):
        rep = lowering_check(1, 0.5, GRID, tol=1e-13)
        assert rep.passed

    def test_lowering_coefficient_cancellation(self):
        # at n=1 the ratio collapses to q^{-1/2}: equals 2 for q = 0.25
        q = 0.25
        assert q**-0.5 * (1 - q) / (1 - q) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_lowering_grid(self, n):
        assert lowering_check(n, 0.5, GRID, tol=1e-11).passed

    def test_raising_base_case(self):
        assert raising_check(0, 0.5, GRID, tol=1e-12).passed

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_raising_grid(self, n):
        assert raising_check(n, 0.5, GRID, tol=1e-10).passed

    def test_lowering_after_raising_scales(self):
        # D_q applied to the raising output of H_n returns a known multiple
        # of H_n: the two ladder coefficients multiply to lambda_{n+1}-ish
        # factors at the shifted index.
        q = 0.5
        n = 3
        z = GRID.nodes
        w = np.asarray(szego_weight(z, q))
        hn = szego_poly(n, q)
        raised = szego_poly(n + 1, q)
        # lowering of H_{n+1} reproduces H_n scaled
        lhs = (raised(z) - raised(q * z)) / ((1 - q) * z)
        scale = q**-0.5 * (1 - q**(n + 1)) / (1 - q)
        assert np.max(np.abs(lhs - scale * hn(z))) < 1e-12
        del w


class TestRodrigues:
    def test_n0_trivial(self):
        assert rodrigues(0, 0.5, GRID, tol=1e-14).passed

    def test_n1_matches_raising_base(self):
        rep_r = raising_check(0, 0.5, GRID)
        rep_rod = rodrigues(1, 0.5, GRID)
        assert rep_r.passed and rep_rod.passed

    @pytest.mark.parametrize("n", [3, 6])
    def test_grid(self, n):
        assert rodrigues(n, 0.5, GRID, tol=1e-9).passed

    def test_rodrigues_output_is_polynomial(self):
        # negative Laurent modes of the Rodrigues right-hand side vanish
        from qcircle.circle import tq_iterate
        q, n = 0.5, 5
        z = GRID.nodes
        w = np.asarray(szego_weight(z, q))
        tn = tq_iterate(lambda t: np.asarray(szego_weight(t, q)), q, n)
        rhs = (q**-0.5 - q**0.5)**n * np.asarray(tn(z)) / w
        for k in range(1, 6):
            assert abs(np.mean(rhs * z**k)) < 1e-10


class TestSturmLiouville:
    def test_eigenvalue_zero_at_n0(self):
        assert sturm_liouville_eigenvalue(0, 0.5) == 0.0
        assert sturm_liouville_check(0, 0.5, GRID, tol=1e-13).passed

    def test_eigenvalue_value(self):
        assert sturm_liouville_eigenvalue(1, 0.5) == pytest.approx(2.0)

    def test_eigenvalues_strictly_increasing(self):
        for q in (0.3, 0.7):
            lams = [sturm_liouville_eigenvalue(n, q) for n in range(10)]
            assert all(a < b for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_grid(self, n):
        assert sturm_liouville_check(n, 0.5, GRID, tol=1e-10).passed


class TestGram:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_matrix_matches_closed_form(self, q):
        grid = CircleGrid(512)
        G, rep = szego_gram(8, q, grid)
        for m in range(9):
            for n in range(9):
                if m == n:
                    assert abs(G[n, n] - szego_norm(n, q)) \
                        < 1e-9 * abs(szego_norm(n, q))
                else:
                    assert abs(G[m, n]) < 1e-9

    def test_first_diagonal_is_total_mass(self):
        q = 0.5
        assert szego_norm(0, q) == pytest.approx(1 / qpochhammer_inf(q, q))

    def test_diagonal_ratio(self):
        # norm ratio q^{-1}(1 - q^n) between consecutive diagonals
        q = 0.4
        for n in range(1, 8):
            assert szego_norm(n, q) / szego_norm(n - 1, q) == \
                pytest.approx((1 - q**n) / q)

    def test_grid_refinement_stability(self):
        # doubling the grid should not move the residual by more than 10x
        q = 0.5
        _, r1 = szego_gram(5, q, CircleGrid(256))
        _, r2 = szego_gram(5, q, CircleGrid(512))
        assert r2.residual < 10 * max(r1.residual, 1e-14)

    def test_nan_matrix_fails(self):
        # The weight overflows on the grid at q=0.998; max(0.0, nan) would
        # report residual 0 here.
        with pytest.warns(RuntimeWarning):
            G, rep = szego_gram(2, 0.998, CircleGrid(64))
        assert np.isnan(G).any()
        assert math.isnan(rep.residual)
        assert math.isnan(rep.notes["max_offdiag"])
        assert not rep.passed


class TestTripleProductAndMass:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_triple_product(self, q):
        assert jacobi_triple_check(q, CircleGrid(32), tol=1e-10).passed

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_total_mass(self, q):
        assert total_mass_check(q, GRID, tol=1e-12).passed

    def test_underflowed_qq_inf_raises(self):
        assert qpochhammer_inf(0.999, 0.999) == 0
        with pytest.raises(WeightUnderflow, match=r"\(q;q\)_inf"):
            szego_norm(0, 0.999)
        with pytest.raises(WeightUnderflow, match=r"\(q;q\)_inf"):
            total_mass_check(0.999, CircleGrid(16))
