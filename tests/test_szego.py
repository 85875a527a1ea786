import functools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import qcircle.qcore
import qcircle.szego
from qcircle.circle import (CircleGrid, LaurentPoly, _shifted_points,
                            contour_mean, dq_apply, gram_check, shifted,
                            tq_power)
from qcircle.cli import main
from qcircle.errors import WeightUnderflow
from qcircle.qcore import QUADRATURE_TOL, qpochhammer, qpochhammer_inf
from qcircle.suites import SuiteConfig, szego_suite
from qcircle.szego import (circle_weight, coefficient_table,
                           jacobi_triple_check, ladder_reports, poly_rows,
                           sturm_liouville_eigenvalue, szego_gram, szego_norms,
                           szego_weight, weight_pearson_check,
                           weight_ratio_rows)

GRID = CircleGrid(256)


def szego_poly(n, q):
    """H_n as a LaurentPoly callable from its one-degree coefficient table:
    the tests' oracle, on numpy's array arithmetic as poly_rows is."""
    return LaurentPoly(0, coefficient_table(range(n, n + 1), q)[0])


@functools.lru_cache(maxsize=None)
def ladder_residuals(max_n=8):
    """{(report name, n): residual} of ladder_reports(max_n, 0.5, GRID)."""
    return {(r.name, r.params["n"]): r.residual
            for r in ladder_reports(max_n, 0.5, GRID)}


def ladder(name, n):
    """The degree-n `szego_<name>` residual of the batch over degrees 0..8."""
    return ladder_residuals()[(f"szego_{name}", n)]


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
        assert len(p.coefficients) == n + 1
        assert p.coefficients[-1] == pytest.approx(q**(-n / 2.0))

    def test_gaussian_binomial_symmetry(self):
        # [n k]_q = [n n-k]_q, read off the table as C[n, k] q^{k/2}.
        q = 0.4
        C = coefficient_table(range(8), q)
        for n in range(8):
            for k in range(n + 1):
                assert C[n, k] * q**(k / 2) == \
                    pytest.approx(C[n, n - k] * q**((n - k) / 2))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_poly_is_a_table_row(self, n):
        # The one-degree table is row n of the full one, bit for bit.
        assert (coefficient_table(range(n, n + 1), 0.3)[0].tobytes()
                == coefficient_table(range(8), 0.3)[n, :n + 1].tobytes())


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
        assert ladder("lowering", 1) < 1e-13

    def test_lowering_coefficient_cancellation(self):
        # at n=1 the ratio collapses to q^{-1/2}: equals 2 for q = 0.25
        q = 0.25
        assert q**-0.5 * (1 - q) / (1 - q) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_lowering_grid(self, n):
        assert ladder("lowering", n) < 1e-11

    def test_raising_base_case(self):
        assert ladder("raising", 0) < 1e-12

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_raising_grid(self, n):
        assert ladder("raising", n) < 1e-10

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
        assert ladder("rodrigues", 0) < 1e-14

    def test_n1_matches_raising_base(self):
        assert ladder("raising", 0) < 1e-10
        assert ladder("rodrigues", 1) < 1e-10

    @pytest.mark.parametrize("n", [3, 6])
    def test_grid(self, n):
        assert ladder("rodrigues", n) < 1e-9

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
        assert ladder("sturm_liouville", 0) < 1e-13

    def test_eigenvalue_value(self):
        assert sturm_liouville_eigenvalue(1, 0.5) == pytest.approx(2.0)

    def test_eigenvalues_strictly_increasing(self):
        for q in (0.3, 0.7):
            lams = [sturm_liouville_eigenvalue(n, q) for n in range(10)]
            assert all(a < b for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_grid(self, n):
        assert ladder("sturm_liouville", n) < 1e-10


class TestLadderTable:
    def test_poly_rows_sample_each_polynomial(self):
        q, z = 0.5, GRID.nodes
        H = poly_rows(range(5), q, z, 2)
        assert H.shape == (3, 5, GRID.n_nodes)
        for k, t in enumerate(_shifted_points(z, q, 2)):
            for n in range(5):
                assert np.array_equal(H[k, n], szego_poly(n, q)(t))

    def test_report_order(self):
        names = [(r.name, r.params["n"])
                 for r in ladder_reports(2, 0.5, CircleGrid(16))]
        assert names == [("szego_lowering", 1), ("szego_lowering", 2)] + [
            (name, n) for n in range(3)
            for name in ("szego_raising", "szego_rodrigues",
                         "szego_sturm_liouville")]

    def test_degree_zero_batch(self):
        names = [r.name for r in ladder_reports(0, 0.5, CircleGrid(16))]
        assert names == ["szego_raising", "szego_rodrigues",
                         "szego_sturm_liouville"]

    @pytest.mark.parametrize("max_n", [1, 3, 7])
    def test_report_does_not_depend_on_batch_size(self, max_n):
        small = {(r.name, r.params["n"]): r.residual
                 for r in ladder_reports(max_n, 0.5, GRID)}
        assert small == {key: value for key, value in ladder_residuals().items()
                         if key[1] <= max_n}

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_single_degree_reference(self, n):
        # The arithmetic of one degree alone, through the callable D_q and
        # a Pearson ratio table w(q^k z)/w(z) of depth n.
        q, z = 0.5, GRID.nodes
        lowering = np.max(np.abs(
            dq_apply(szego_poly(n, q), q)(z)
            - q**-0.5 * (1.0 - q**n) / (1.0 - q) * szego_poly(n - 1, q)(z)))
        ratio = weight_ratio_rows(z, q, n)
        rodrigues = np.max(np.abs(
            (q**-0.5 - q**0.5)**n * tq_power(ratio, z, q, n)
            - szego_poly(n, q)(z)))
        assert ladder("lowering", n) == lowering
        assert ladder("rodrigues", n) == rodrigues

    def test_builds_each_polynomial_once(self, monkeypatch):
        # lowering_check, raising_check, rodrigues and sturm_liouville_check
        # built 34 polynomials for these 23 reports, the per-degree table 7;
        # now one coefficient table holds H_0..H_6.
        calls = []
        build = qcircle.szego.coefficient_table

        def counted(degrees, q):
            calls.append(degrees)
            return build(degrees, q)

        monkeypatch.setattr(qcircle.szego, "coefficient_table", counted)
        reports = ladder_reports(5, 0.5, CircleGrid(256))
        assert len(reports) == 23
        assert calls == [range(7)]

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.988])
    @pytest.mark.parametrize("n_nodes", [64, 2048])
    @pytest.mark.parametrize("max_n", [0, 1, 5, 16])
    def test_poly_rows_match_per_degree_horner(self, max_n, n_nodes, q):
        # The batch Horner pass over the table reproduces, bit for bit, each
        # H_n built from scalar q-binomials and evaluated on its own.
        def binomial(n, k):
            return (qpochhammer(q, q, n) / (qpochhammer(q, q, k)
                                            * qpochhammer(q, q, n - k))).real

        z = CircleGrid(n_nodes).nodes
        oracle = np.stack([shifted(LaurentPoly(0, [
            binomial(n, k) * q**(-k / 2.0) for k in range(n + 1)]), z, q, 2)
            for n in range(max_n + 1)], axis=1)
        rows = poly_rows(range(max_n + 1), q, z, 2)
        assert rows.shape == oracle.shape
        assert rows.tobytes() == oracle.tobytes()

    def test_poly_rows_memory(self):
        # The Horner pass writes into the table it returns: stacking each
        # shifted row's table made a second copy, 2.01 times the table.
        z = CircleGrid(2048).nodes
        tracemalloc.start()
        try:
            rows = poly_rows(range(17), 0.5, z, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes == 557_056
        assert peak < 1.3 * rows.nbytes

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("n_nodes", [2, 64])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("a, b", [(0, 1), (3, 4), (2, 9), (0, 13),
                                      (12, 13)])
    def test_poly_rows_sample_each_degree_range(self, a, b, q, n_nodes,
                                                depth):
        # A row does not depend on which degrees share its table, bit for
        # bit: eval szego reads the one-degree table.
        z = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes + 0.3) * 1.1
        got, full = (poly_rows(degrees, q, z, depth)
                     for degrees in (range(a, b), range(b)))
        assert got.shape == (depth + 1, b - a, n_nodes)
        assert got.tobytes() == full[:, a:].tobytes()

    def test_one_degree_memory(self):
        # One degree at two points builds a (1, n+1) coefficient row, not
        # the (n+1)^2 table, 32 MB at n = 2000.
        tracemalloc.start()
        try:
            poly_rows(range(2000, 2001), 0.99, np.array([0.5, 0.5j]), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    @pytest.mark.parametrize("n, q", [(3000, 0.5), (5000, 0.999)])
    def test_unrepresentable_table_raises(self, n, q):
        # q^{-n/2} overflows at q=0.5; (q;q)_n underflows to 0 at q=0.999.
        for degrees in (range(n + 1), range(n, n + 1)):
            with pytest.raises(ValueError, match=f"n={n}, q={q}"):
                coefficient_table(degrees, q)


class TestGram:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_matrix_matches_closed_form(self, q):
        grid = CircleGrid(512)
        G, _, rep = szego_gram(8, q, grid)
        for m in range(9):
            for n in range(9):
                if m == n:
                    assert abs(G[n, n] - szego_norms(n, q)[n]) \
                        < 1e-9 * abs(szego_norms(n, q)[n])
                else:
                    assert abs(G[m, n]) < 1e-9

    def test_first_diagonal_is_total_mass(self):
        q = 0.5
        assert szego_norms(0, q)[0] == pytest.approx(1 / qpochhammer_inf(q, q))

    def test_diagonal_ratio(self):
        # norm ratio q^{-1}(1 - q^n) between consecutive diagonals
        q = 0.4
        for n in range(1, 8):
            assert szego_norms(n, q)[n] / szego_norms(n - 1, q)[n - 1] == \
                pytest.approx((1 - q**n) / q)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.988])
    def test_norms_from_running_product_bit_for_bit(self, q):
        # szego_norms reads (q;q)_n off coefficient_table's running product;
        # it built each from scratch with a scalar qpochhammer.
        for max_n in range(17):
            want = [(q**(-n) * qpochhammer(q, q, n)
                     / qpochhammer_inf(q, q)).real for n in range(max_n + 1)]
            got = qcircle.szego.szego_norms(max_n, q)
            assert all(type(x) is float for x in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_gram_makes_no_finite_q_products(self, monkeypatch, capsys):
        # 17 scalar qpochhammer calls for gram szego --max-n 16.
        import sys
        calls = []
        kernel = qcircle.qcore.qpochhammer

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("qcircle") and \
                    getattr(module, "qpochhammer", None) is kernel:
                monkeypatch.setattr(module, "qpochhammer", counted)
        assert main(["gram", "szego", "--max-n", "16", "--grid", "2048",
                     "--format", "json"]) == 0
        capsys.readouterr()
        assert calls == []

    def test_norms_use_one_qq_inf(self, monkeypatch):
        import qcircle.szego
        calls = []
        kernel = qcircle.szego.qpochhammer_inf

        def counted(a, q):
            calls.append((a, q))
            return kernel(a, q)

        monkeypatch.setattr(qcircle.szego, "qpochhammer_inf", counted)
        _, norms, _ = szego_gram(6, 0.5, CircleGrid(64))
        # One scalar (q;q)_inf, which the circle row reads too; the row
        # from two array products took two more calls.
        assert calls == [(0.5, 0.5)]
        assert norms == [szego_norms(n, 0.5)[n] for n in range(7)]

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9, 0.988])
    @pytest.mark.parametrize("N,max_n", [(64, 8), (256, 5), (2048, 16)])
    def test_hermitian_gram_residual_no_higher(self, q, N, max_n):
        # The lower triangle mirrors the upper one, so each of its entries
        # has a residual the full assembly reports for the mirror entry.
        grid = CircleGrid(N)
        norms = szego_norms(max_n, q)
        H = poly_rows(range(max_n + 1), q, grid.nodes, 0)[0]
        w = circle_weight(grid, q, norms[0])
        full = np.array([[np.mean(np.conj(hm) * hn * w) for hn in H]
                         for hm in H])
        *_, want = gram_check("szego_orthogonality", full, norms,
                              QUADRATURE_TOL, N, {})
        *_, got = szego_gram(max_n, q, grid)
        assert got.residual <= want.residual

    def test_grid_refinement_stability(self):
        # doubling the grid should not move the residual by more than 10x
        q = 0.5
        *_, r1 = szego_gram(5, q, CircleGrid(256))
        *_, r2 = szego_gram(5, q, CircleGrid(512))
        assert r2.residual < 10 * max(r1.residual, 1e-14)

    def test_nan_matrix_fails(self, monkeypatch):
        # A NaN in the weight row (as when the row overflowed at q=0.998,
        # before that q's subnormal (q;q)_inf raised); max(0.0, nan) would
        # report residual 0 here.
        row = qcircle.szego.circle_weight
        monkeypatch.setattr(qcircle.szego, "circle_weight",
                            lambda grid, q, mass: np.where(
                                np.arange(grid.n_nodes) == 3, np.nan,
                                row(grid, q, mass)))
        G, _, rep = szego_gram(2, 0.5, CircleGrid(64))
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
        # The 1x1 Gram of H_0 = 1 is the weight's mean against 1/(q;q)_inf,
        # and the suite reads its szego_total_mass report off the Gram.
        *_, gram = szego_gram(0, q, GRID, tol=1e-12)
        assert gram.passed
        (mass,) = [r for r in szego_suite(SuiteConfig(q=q, tolerance=1e-12))
                   if r.name == "szego_total_mass"]
        assert mass.passed
        assert mass.residual == gram.residual

    def test_underflowed_qq_inf_raises(self):
        assert qpochhammer_inf(0.999, 0.999) == 0
        with pytest.raises(WeightUnderflow, match=r"\(q;q\)_inf"):
            szego_norms(0, 0.999)[0]
        with pytest.raises(WeightUnderflow, match=r"\(q;q\)_inf"):
            szego_gram(0, 0.999, CircleGrid(16))
        with pytest.raises(WeightUnderflow, match=r"\(q;q\)_inf"):
            szego_suite(SuiteConfig(q=0.999, grid_size=16))

    @pytest.mark.parametrize("q", [0.9977, 0.998])
    def test_subnormal_qq_inf_raises(self, q):
        # A subnormal (q;q)_inf has lost its digits and its reciprocal, the
        # total mass, is inf: an underflow as much as a 0 is.
        qq = qpochhammer_inf(q, q)
        assert 0 < abs(qq) < sys.float_info.min
        with pytest.raises(WeightUnderflow, match="smallest normal float"):
            szego_norms(0, q)


def mp_qp_inf(x, q, mpmath):
    """(x; q)_inf at mpmath's precision, for |x| < 1.

    mpmath.qp raises NoConvergence near q = 1, so the product is an explicit
    loop over its factors 1 - x q^k down to |x q^K| < 0.1; the rest is
    exp(-sum_m y^m / (m (1 - q^m))) with y = x q^K, whose 50 terms reach
    1e-49.
    """
    qm, y, total = mpmath.mpf(q), x, mpmath.mpf(1)
    for _ in range(max(0, math.ceil(math.log(0.1 / abs(complex(y)))
                                    / math.log(q)))):
        total *= 1 - y
        y *= qm
    log_tail, ym, qmm = 0, 1, 1
    for m in range(1, 51):
        ym, qmm = ym * y, qmm * qm
        log_tail -= ym / (m * (1 - qmm))
    return total * mpmath.exp(log_tail)


def mp_szego_weight(t, q, mpmath):
    """(q^{1/2} t, q^{1/2}/t; q)_inf at mpmath's precision."""
    rq, t = mpmath.sqrt(mpmath.mpf(q)), mpmath.mpc(t)
    return complex(mp_qp_inf(rq * t, q, mpmath) * mp_qp_inf(rq / t, q, mpmath))


class TestCircleWeight:
    """szego.circle_weight: the Szego weight on the grid from its Poisson
    dual, certified here against the product at 40 digits."""

    @pytest.mark.parametrize("n_nodes", [256, 255])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 0.995])
    def test_mpmath_oracle(self, q, n_nodes):
        # Every 8th node and the last: the error peaks next to z = 1, where
        # the exponent L - (phi + 2 pi m)^2 / (2 tau) is largest in size,
        # so the bound grows with c = pi^2 / (2 tau).  Measured on every node
        # of both grids: 4.5e-16, 3.4e-15, 1.9e-14, 2.1e-13 and 5.7e-13.
        mpmath = pytest.importorskip("mpmath")
        grid = CircleGrid(n_nodes)
        nodes = [*range(0, n_nodes, 8), n_nodes - 1]
        with mpmath.workdps(40):
            mass = float(1 / mp_qp_inf(mpmath.mpf(q), q, mpmath))
            want = np.array([mp_szego_weight(grid.nodes[j], q, mpmath)
                             for j in nodes])
        row = circle_weight(grid, q, mass)[nodes]
        c = math.pi**2 / (-2.0 * math.log(q))
        assert np.max(np.abs(row - want) / np.abs(want)) <= \
            4 * np.finfo(float).eps * (1.0 + c)

    @pytest.mark.parametrize("n_nodes", [16, 255, 256])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
    def test_real_positive_and_conjugate_symmetric(self, q, n_nodes):
        # w(conj z) = w(z): the phases of nodes j and N - j are exact
        # negatives, and each +-m pair is summed first.
        row = circle_weight(CircleGrid(n_nodes), q, szego_norms(0, q)[0])
        assert row.dtype == np.float64 and np.all(row > 0)
        assert row[1:].tobytes() == row[:0:-1].tobytes()

    def test_built_once_per_grid(self, monkeypatch):
        # The Gram, the total mass, positivity and the Pearson certificate
        # of a verdict read one row.
        calls = []
        build = qcircle.szego._dual_rows

        def counted(z, q, masses):
            calls.append((q, masses))
            return build(z, q, masses)

        monkeypatch.setattr(qcircle.szego, "_dual_rows", counted)
        reports = szego_suite(SuiteConfig(q=0.5, max_n=3, grid_size=64))
        assert calls == [(0.5, [szego_norms(0, 0.5)[0]])]
        (positivity,) = [r for r in reports
                         if r.name == "szego_weight_positivity"]
        assert positivity.residual == 0.0
        assert positivity.notes["max_imag"] == 0.0

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
    def test_default_mass_is_the_total_mass(self, q):
        # The biortho weight rows' circle row: the mass is 1/(q;q)_inf,
        # taken once per grid and q.
        row = circle_weight(CircleGrid(64), q)
        assert row.tobytes() == circle_weight(
            CircleGrid(64), q, szego_norms(0, q)[0]).tobytes()


class TestPearsonRows:
    """szego.weight_ratio_rows: ones, then one Pearson step per row."""

    @staticmethod
    def sequential_weight(t, q):
        """(q^{1/2} t, q^{1/2}/t; q)_inf, each product one factor per step
        to max|a| q^k < 1e-15 (1 - q): the direct rows the ratio rows
        replaced."""
        def product(a):
            out, amax, qk = np.ones(a.shape, complex), np.abs(a).max(), 1.0
            while amax * qk >= 1e-15 * (1.0 - q):
                out = out * (1.0 - a * qk)
                qk *= q
            return out

        return product(math.sqrt(q) * t) * product(math.sqrt(q) / t)

    @pytest.mark.parametrize("q,n_nodes", [(0.5, 16), (0.9, 16), (0.988, 8),
                                           (0.995, 8)])
    def test_mpmath_oracle(self, q, n_nodes):
        mpmath = pytest.importorskip("mpmath")
        grid = CircleGrid(n_nodes)
        rows = weight_ratio_rows(grid.nodes, q, 8)
        points = _shifted_points(grid.nodes, q, 8)
        assert np.all(rows[0] == 1)
        w0 = self.sequential_weight(grid.nodes, q)
        worst_rows = worst_direct = 0.0
        with mpmath.workdps(40):
            base = np.array([mp_szego_weight(t, q, mpmath) for t in points[0]])
            for k in range(1, 9):
                want = np.array([mp_szego_weight(t, q, mpmath)
                                 for t in points[k]]) / base
                direct = self.sequential_weight(points[k], q) / w0
                worst_rows = max(worst_rows, np.max(np.abs(rows[k] - want)
                                                    / np.abs(want)))
                worst_direct = max(worst_direct, np.max(np.abs(direct - want)
                                                        / np.abs(want)))
        assert worst_rows <= 3e-13
        assert worst_rows <= worst_direct

    def test_near_one_verdicts(self, capsys):
        # The direct rows missed the Pearson relation by 1.5e-10 (raising,
        # n=5) and 1.6e-10, 3.6e-10 (Sturm-Liouville, n=4, 5).
        main(["verify", "szego", "--max-n", "5", "--grid", "256",
              "--q", "0.988", "--format", "json"])
        reports = json.loads(capsys.readouterr().out)["reports"]
        passed = {(r["name"], r["params"].get("n")): r["passed"]
                  for r in reports}
        assert passed[("szego_raising", 5)]
        assert passed[("szego_sturm_liouville", 4)]
        assert passed[("szego_sturm_liouville", 5)]
        (pearson,) = [r for r in reports if r["name"] == "szego_weight_pearson"]
        assert pearson["params"]["depth"] == 5
        assert pearson["passed"]

    def test_ladder_near_one_samples_no_weight(self):
        # Dividing by weight rows raised WeightUnderflow here.
        reports = ladder_reports(5, 0.996, GRID)
        assert len(reports) == 23
        assert all(r.passed for r in reports
                   if r.name in ("szego_raising", "szego_rodrigues"))

    @pytest.mark.parametrize("poisoned", ["row 0", "direct"])
    def test_nan_fails(self, poisoned, monkeypatch):
        # Row 0 is the circle row the Szego suite passes in, the direct
        # comparison row a q-product inside the circle.
        grid = CircleGrid(16)
        row = circle_weight(grid, 0.5, szego_norms(0, 0.5)[0]).copy()
        if poisoned == "row 0":
            row[3] = np.nan
        else:
            def weight(z, q):
                w = np.array(szego_weight(z, q))
                w[3] = np.nan
                return w

            monkeypatch.setattr(qcircle.szego, "szego_weight", weight)
        rep = weight_pearson_check(row, 0.5, grid, 3)
        assert math.isnan(rep.residual)
        assert not rep.passed
