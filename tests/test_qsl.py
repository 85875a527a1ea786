import numpy as np
import pytest

from qcircle.circle import CircleGrid, LaurentPoly
from qcircle.errors import EigenpairInvalid
from qcircle.qsl import (QSLProblem, certify_eigenpair,
                         eigen_orthogonality_check, m_apply, symmetry_check)
from qcircle.szego import (sturm_liouville_eigenvalue, szego_poly,
                           szego_weight)

GRID = CircleGrid(256)


def szego_problem(q):
    w = lambda z: np.asarray(szego_weight(z, q))
    return QSLProblem(p=w, omega=w, q=q)


def random_laurent(rng, min_deg, max_deg):
    n = max_deg - min_deg + 1
    return LaurentPoly(min_deg, rng.standard_normal(n)
                       + 1j * rng.standard_normal(n))


class TestQSLProblem:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QSLProblem(p=lambda z: np.ones_like(z),
                       omega=lambda z: np.ones_like(z), q=1.0)

    def test_validate_rejects_complex_coefficient(self):
        prob = QSLProblem(p=lambda z: z, omega=lambda z: np.ones_like(z),
                          q=0.5)
        with pytest.raises(ValueError):
            prob.validate_on(GRID)

    def test_validate_rejects_nonpositive_weight(self):
        prob = QSLProblem(p=lambda z: np.ones_like(z),
                          omega=lambda z: np.real(z), q=0.5)
        with pytest.raises(ValueError):
            prob.validate_on(GRID)

    def test_validate_accepts_szego_weight(self):
        szego_problem(0.5).validate_on(GRID)


class TestMApply:
    def test_annihilates_constants(self):
        prob = szego_problem(0.5)
        out = np.asarray(m_apply(prob, lambda z: np.ones_like(z))(GRID.nodes))
        assert np.max(np.abs(out)) < 1e-12

    def test_flat_coefficients_on_z(self):
        # with p = omega = 1, D_q z = 1 and T_q 1 = z, so M z = z.
        prob = QSLProblem(p=lambda z: np.ones_like(z),
                          omega=lambda z: np.ones_like(z), q=0.5)
        out = np.asarray(m_apply(prob, lambda z: z)(GRID.nodes))
        assert np.max(np.abs(out - GRID.nodes)) < 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_szego_eigenfunctions(self, q):
        prob = szego_problem(q)
        for n in range(9):
            h = szego_poly(n, q)
            lam = sturm_liouville_eigenvalue(n, q)
            got = np.asarray(m_apply(prob, h)(GRID.nodes))
            scale = max(1.0, np.max(np.abs(h(GRID.nodes))))
            assert np.max(np.abs(got - lam * h(GRID.nodes))) / scale < 1e-9


class TestSymmetry:
    def test_random_pairs(self):
        rng = np.random.default_rng(13)
        prob = szego_problem(0.5)
        for _ in range(20):
            f = random_laurent(rng, -3, 3)
            g = random_laurent(rng, -3, 3)
            assert symmetry_check(prob, f, g, GRID, tol=1e-9).passed

    def test_laurent_poly_coefficient(self):
        # p = 1/z + 3 + z is real and positive on the circle; a LaurentPoly is
        # unhashable, so the grid must key its samples by identity.
        prob = QSLProblem(p=LaurentPoly(-1, [1.0, 3.0, 1.0]),
                          omega=lambda z: np.ones_like(z), q=0.5)
        rng = np.random.default_rng(3)
        f, g = random_laurent(rng, -2, 2), random_laurent(rng, -2, 2)
        assert symmetry_check(prob, f, g, GRID, tol=1e-12).passed
        assert symmetry_check(prob, f, f, GRID, tol=1e-12).passed

    def test_form_positivity(self):
        rng = np.random.default_rng(29)
        prob = szego_problem(0.5)
        for _ in range(50):
            f = random_laurent(rng, -4, 4)
            rep = symmetry_check(prob, f, f, GRID, tol=1e-8)
            assert rep.passed
            assert rep.notes["quadratic_form"].real >= -1e-10


class TestEigenpairs:
    def test_certify_accepts_true_pair(self):
        q = 0.5
        prob = szego_problem(q)
        res = certify_eigenpair(prob, szego_poly(2, q),
                                sturm_liouville_eigenvalue(2, q), GRID)
        assert res < 1e-9

    def test_certify_rejects_wrong_eigenvalue(self):
        q = 0.5
        prob = szego_problem(q)
        with pytest.raises(EigenpairInvalid):
            certify_eigenpair(prob, szego_poly(2, q), 1.234, GRID)

    def test_certify_rejects_non_eigenfunction(self):
        prob = szego_problem(0.5)
        junk = LaurentPoly(-1, [1.0, 0.3, 2.0])
        with pytest.raises(EigenpairInvalid):
            certify_eigenpair(prob, junk, 1.0, GRID)

    def test_orthogonality_of_distinct_modes(self):
        q = 0.5
        prob = szego_problem(q)
        rep = eigen_orthogonality_check(
            prob, szego_poly(1, q), sturm_liouville_eigenvalue(1, q),
            szego_poly(2, q), sturm_liouville_eigenvalue(2, q),
            GRID, tol=1e-10)
        assert rep.passed
        assert abs(rep.notes["weighted_inner_product"]) < 1e-10

    def test_orthogonality_rejects_degenerate_eigenvalues(self):
        q = 0.5
        prob = szego_problem(q)
        h1 = szego_poly(1, q)
        lam = sturm_liouville_eigenvalue(1, q)
        with pytest.raises(EigenpairInvalid):
            eigen_orthogonality_check(prob, h1, lam, h1, lam + 1e-12, GRID)
