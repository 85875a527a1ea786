import numpy as np
import pytest

from qcircle.circle import CircleGrid, LaurentPoly, dq_apply, shifted
from qcircle.errors import EigenpairInvalid
from qcircle.qsl import (EIGEN_CERT_TOL, eigen_orthogonality_check,
                         eigen_residual, m_apply, symmetry_residuals, validate)
from qcircle.report import nan_max
from qcircle.suites import random_laurent_rows
from qcircle.szego import (coefficient_table, poly_rows, product_rows,
                           sturm_liouville_eigenvalue, szego_weight)

GRID = CircleGrid(256)


def szego_rows(q):
    """The Szego weight's rows (w(z), w(qz)) at the grid nodes."""
    return np.stack(GRID.rows(product_rows, q, (0, 1)))


def ones(z):
    return np.ones_like(z)


def random_laurent(rng, min_deg, max_deg):
    n = max_deg - min_deg + 1
    return LaurentPoly(min_deg, rng.standard_normal(n)
                       + 1j * rng.standard_normal(n))


class TestValidate:
    def test_rejects_complex_weight(self):
        with pytest.raises(ValueError, match="p is not real on the grid"):
            validate(shifted(lambda z: z, GRID.nodes, 0.5, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight_first(self, bad):
        # A NaN passed both comparisons below; the finiteness test comes
        # first, so a complex row with a NaN still names the NaN.
        W = shifted(lambda z: z, GRID.nodes, 0.5, 1)
        W[1, 7] = bad
        with pytest.raises(ValueError, match="p is not finite on the grid"):
            validate(W)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="p is not positive on the grid"):
            validate(shifted(np.real, GRID.nodes, 0.5, 1))

    def test_accepts_szego_weight(self):
        validate(szego_rows(0.5))


class TestMApply:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            m_apply(ones, ones, 1.0)

    def test_annihilates_constants(self):
        w = lambda z: szego_weight(z, 0.5)
        out = np.asarray(m_apply(w, ones, 0.5)(GRID.nodes))
        assert np.max(np.abs(out)) < 1e-12

    def test_flat_coefficients_on_z(self):
        # with w = 1, D_q z = 1 and T_q 1 = z, so M z = z.
        out = np.asarray(m_apply(ones, lambda z: z, 0.5)(GRID.nodes))
        assert np.max(np.abs(out - GRID.nodes)) < 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_szego_eigenfunctions(self, q):
        w = lambda z: szego_weight(z, q)
        for n in range(9):
            h = LaurentPoly(0, coefficient_table(range(n, n + 1), q)[0])
            lam = sturm_liouville_eigenvalue(n, q)
            got = np.asarray(m_apply(w, h, q)(GRID.nodes))
            scale = max(1.0, np.max(np.abs(h(GRID.nodes))))
            assert np.max(np.abs(got - lam * h(GRID.nodes))) / scale < 1e-9


class TestSymmetry:
    def test_random_pairs(self):
        # 20 pairs (f, g) from default_rng(13), degrees -3..3.
        rows = random_laurent_rows(np.random.default_rng(13), 40, 3, GRID,
                                   0.5, 2)
        sym, _, _ = symmetry_residuals(szego_rows(0.5), rows[:, 0::2],
                                       rows[:, 1::2], 0.5, GRID)
        assert len(sym) == 20
        assert all(r < 1e-9 for r in sym)

    def test_laurent_poly_coefficient(self):
        # w = 1/z + 3 + z, the coefficient of D_q, is real and positive on
        # the circle.
        W = shifted(LaurentPoly(-1, [1.0, 3.0, 1.0]), GRID.nodes, 0.5, 1)
        rows = random_laurent_rows(np.random.default_rng(3), 2, 2, GRID, 0.5, 2)
        (sym,), _, (form_res,) = symmetry_residuals(W, rows[:, :1],
                                                    rows[:, 1:], 0.5, GRID)
        assert sym < 1e-12
        assert form_res < 1e-12

    def test_form_positivity(self):
        # 50 polynomials from default_rng(29), degrees -4..4.
        rows = random_laurent_rows(np.random.default_rng(29), 50, 4, GRID,
                                   0.5, 2)
        _, form, form_res = symmetry_residuals(szego_rows(0.5), rows, rows,
                                               0.5, GRID)
        assert len(form) == 50
        assert all(r < 1e-8 for r in form_res)
        assert all(f.real >= -1e-10 for f in form)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.8])
    def test_batch_equals_m_apply_bit_for_bit(self, q):
        # The same seeded pairs, one at a time through the callables.
        weight = lambda t: szego_weight(t, q)
        z = GRID.nodes
        rng = np.random.default_rng(0)
        w = weight(z)
        want = ([], [], [])
        for _ in range(20):
            f, g = random_laurent(rng, -3, 3), random_laurent(rng, -3, 3)
            mf, mg = m_apply(weight, f, q)(z), m_apply(weight, g, q)(z)
            lhs = complex(np.mean(f(z) * np.conj(mg) * w))
            rhs = complex(np.mean(g(z) * np.conj(mf) * w))
            form = complex(np.mean(f(z) * np.conj(mf) * w))
            direct = complex(np.mean(w * np.abs(dq_apply(f, q)(z))**2))
            want[0].append(abs(lhs - rhs.conjugate()))
            want[1].append(form)
            want[2].append(nan_max(abs(form - form.conjugate()),
                                   abs(form - direct), -form.real))
        rows = random_laurent_rows(np.random.default_rng(0), 40, 3, GRID, q, 2)
        got = symmetry_residuals(szego_rows(q), rows[:, 0::2], rows[:, 1::2],
                                 q, GRID)
        assert got == want


def eigen_rows(q, junk=False):
    """Rows 0..2 of H_1 and H_2, or of H_1 and 1/z + 0.3 + 2z (no
    eigenfunction), shape (3, 2, N)."""
    rows = poly_rows(range(1, 3), q, GRID.nodes, 2)
    if junk:
        rows[:, 1] = shifted(LaurentPoly(-1, [1.0, 0.3, 2.0]), GRID.nodes, q,
                             2)
    return rows


class TestEigenpairs:
    q = 0.5
    lams = [sturm_liouville_eigenvalue(1, q), sturm_liouville_eigenvalue(2, q)]

    def test_certify_accepts_true_pair(self):
        W = szego_rows(self.q)
        assert all(r < 1e-9 for r in eigen_residual(
            W, eigen_rows(self.q), self.lams, self.q, GRID))
        eigen_orthogonality_check(W, eigen_rows(self.q), self.lams, self.q,
                                  GRID)

    def test_certify_rejects_wrong_eigenvalue(self):
        with pytest.raises(EigenpairInvalid, match="residual"):
            eigen_orthogonality_check(szego_rows(self.q), eigen_rows(self.q),
                                      [self.lams[0], 1.234], self.q, GRID)

    def test_certify_rejects_non_eigenfunction(self):
        with pytest.raises(EigenpairInvalid, match="residual"):
            eigen_orthogonality_check(szego_rows(self.q),
                                      eigen_rows(self.q, junk=True),
                                      [self.lams[0], 1.0], self.q, GRID)

    def test_certify_rejects_non_real_eigenvalue(self):
        # Within EIGEN_CERT_TOL of M y_2 (|H_2| < 5 on the circle), but not
        # real.
        lams = [self.lams[0], self.lams[1] + 1e-9j]
        W = szego_rows(self.q)
        assert eigen_residual(W, eigen_rows(self.q), lams, self.q,
                              GRID)[1] < EIGEN_CERT_TOL
        with pytest.raises(EigenpairInvalid, match="not real"):
            eigen_orthogonality_check(W, eigen_rows(self.q), lams, self.q,
                                      GRID)

    def test_orthogonality_of_distinct_modes(self):
        rep = eigen_orthogonality_check(szego_rows(self.q),
                                        eigen_rows(self.q), self.lams, self.q,
                                        GRID, tol=1e-10)
        assert rep.passed
        assert abs(rep.notes["weighted_inner_product"]) < 1e-10

    def test_orthogonality_rejects_degenerate_eigenvalues(self):
        rows = eigen_rows(self.q)
        rows[:, 1] = rows[:, 0]
        lam = self.lams[0]
        with pytest.raises(EigenpairInvalid, match="too close"):
            eigen_orthogonality_check(szego_rows(self.q), rows,
                                      [lam, lam + 1e-12], self.q, GRID)
