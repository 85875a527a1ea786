import numpy as np
import pytest

from qcircle.circle import (CircleGrid, LaurentPoly, adjoint_residual,
                            contour_mean, dq_apply, dq_rows, inner_product_c,
                            laurent_dq, shifted, tq_apply, tq_iterate,
                            tq_power, tq_rows)
from qcircle.cli import main
from qcircle.szego import szego_weight


def random_laurent(rng, min_deg, max_deg):
    n = max_deg - min_deg + 1
    return LaurentPoly(min_deg, rng.standard_normal(n)
                       + 1j * rng.standard_normal(n))


class TestCircleGrid:
    def test_nodes_on_circle(self):
        g = CircleGrid(64)
        assert np.max(np.abs(np.abs(g.nodes) - 1.0)) < 1e-15

    def test_too_small(self):
        with pytest.raises(ValueError):
            CircleGrid(3)


class TestLaurentPoly:
    def test_trimming(self):
        p = LaurentPoly(-2, [0.0, 1.0, 2.0, 0.0])
        assert p.min_degree == -1
        assert p.max_degree == 0
        assert len(p.coefficients) == 2

    def test_zero_poly(self):
        p = LaurentPoly(5, [0.0, 0.0])
        assert p.is_zero()
        assert p(1.3 + 0.4j) == 0

    def test_evaluation(self):
        p = LaurentPoly(-1, [2.0, 0.0, 3.0])  # 2/z + 3z
        z = 0.5 + 0.5j
        assert p(z) == pytest.approx(2.0 / z + 3.0 * z)

    def test_bar_conjugates_coefficients(self):
        p = LaurentPoly(0, [1 + 1j, 2 - 3j])
        assert np.allclose(p.bar().coefficients, [1 - 1j, 2 + 3j])


class TestContourMean:
    def test_constant(self):
        assert contour_mean(lambda z: np.ones_like(z), CircleGrid(16)) == 1

    @pytest.mark.parametrize("k", [-3, -1, 1, 2, 7])
    def test_nonzero_monomials_vanish(self, k):
        g = CircleGrid(16)
        assert abs(contour_mean(lambda z: z**k, g)) < 1e-14

    def test_exactness_wraps_at_grid_size(self):
        # z^N aliases to z^0 on an N-point grid.
        g = CircleGrid(8)
        assert contour_mean(lambda z: z**8, g) == pytest.approx(1.0)


class TestInnerProduct:
    def test_monomial_orthogonality(self):
        g = CircleGrid(32)
        for m in range(-5, 6):
            for n in range(-5, 6):
                ip = inner_product_c(lambda z, m=m: z**m,
                                     lambda z, n=n: z**n, g)
                want = 1.0 if m == n else 0.0
                assert ip == pytest.approx(want, abs=1e-13)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        g = CircleGrid(64)
        for _ in range(10):
            f = random_laurent(rng, -4, 4)
            val = inner_product_c(f, f, g)
            assert abs(val.imag) < 1e-13
            assert val.real >= 0.0


class TestDqTq:
    def test_dq_annihilates_constants(self):
        df = dq_apply(lambda z: np.full_like(z, 2.7), 0.5)
        assert abs(df(1.1 + 0.3j)) < 1e-15

    @pytest.mark.parametrize("n", [-4, -1, 1, 2, 5])
    def test_dq_monomial(self, n):
        q = 0.5
        df = dq_apply(lambda z: z**n, q)
        z = 0.8 + 0.4j
        want = (1 - q**n) / (1 - q) * z**(n - 1)
        assert df(z) == pytest.approx(want, rel=1e-13)

    def test_tq_constant(self):
        q = 0.3
        tf = tq_apply(lambda z: np.ones_like(z), q)
        z = 1.2 - 0.1j
        assert tf(z) == pytest.approx(z)

    @pytest.mark.parametrize("n", [-3, 0, 1, 4])
    def test_tq_monomial(self, n):
        q = 0.5
        tf = tq_apply(lambda z: z**n, q)
        z = 0.9 + 0.2j
        want = z**(n + 1) * (1 - q**(n + 1)) / (1 - q)
        assert tf(z) == pytest.approx(want, rel=1e-13)

    def test_tq_alternate_form(self):
        # T_q f = q z^2 (D_q f)(z) + z f(z), pointwise on the grid.
        rng = np.random.default_rng(7)
        g = CircleGrid(32)
        for q in (0.2, 0.5, 0.9):
            f = random_laurent(rng, -3, 4)
            direct = np.asarray(tq_apply(f, q)(g.nodes))
            df = np.asarray(dq_apply(f, q)(g.nodes))
            composite = q * g.nodes**2 * df + g.nodes * f(g.nodes)
            assert np.max(np.abs(direct - composite)) < 1e-13

    def test_classical_limit(self):
        # D_q p -> p' as q -> 1^- for a fixed degree-6 polynomial.
        p = LaurentPoly(0, [1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 2.0])
        dcoeffs = [k * c for k, c in enumerate(p.coefficients)][1:]
        dp = LaurentPoly(0, dcoeffs)
        g = CircleGrid(64)
        q = 0.999
        dev = np.max(np.abs(np.asarray(dq_apply(p, q)(g.nodes))
                            - dp(g.nodes)))
        assert dev < 1e-2 * np.max(np.abs(dp(g.nodes)))


class TestTqIterate:
    def test_identity_at_zero(self):
        f = lambda z: z**2 + 1.0 / z
        g = tq_iterate(f, 0.5, 0)
        assert g is f

    def test_base_case_matches_single_apply(self):
        f = LaurentPoly(-1, [1.0, 2.0, 3.0])
        g = CircleGrid(16)
        one = np.asarray(tq_apply(f, 0.5)(g.nodes))
        it = np.asarray(tq_iterate(f, 0.5, 1)(g.nodes))
        assert np.max(np.abs(one - it)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_matches_naive_nesting(self, n):
        q = 0.5
        f = lambda z: z**2 + 0.5 / z
        nested = f
        for _ in range(n):
            nested = tq_apply(nested, q)
        g = CircleGrid(16)
        want = np.asarray(nested(g.nodes))
        for got in (np.asarray(tq_iterate(f, q, n)(g.nodes)),
                    tq_power(shifted(f, g.nodes, q, n), g.nodes, q, n)):
            assert np.max(np.abs(got - want)) \
                < 1e-11 * max(1, np.max(np.abs(want)))


class TestRows:
    @staticmethod
    def points(z, q, depth):
        # q^k z as q times q^{k-1} z, the points the rows are sampled at.
        out = [z]
        for _ in range(depth):
            out.append(q * out[-1])
        return out

    @pytest.mark.parametrize("q", [0.3, 0.8])
    def test_dq_rows_match_laurent_dq(self, q):
        rng = np.random.default_rng(5)
        z = CircleGrid(32).nodes
        for _ in range(10):
            p = random_laurent(rng, -4, 4)
            D = dq_rows(shifted(p, z, q, 3), z, q)
            assert D.shape == (3, 32)
            for k, t in enumerate(self.points(z, q, 2)):
                want = laurent_dq(p, q)(t)
                assert np.max(np.abs(D[k] - want)) \
                    < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [-3, 0, 1, 4])
    def test_rows_match_monomial_closed_forms(self, n):
        q = 0.6
        z = CircleGrid(16).nodes
        F = shifted(lambda t: t**n, z, q, 3)
        D, T = dq_rows(F, z, q), tq_rows(F, z, q)
        for k, t in enumerate(self.points(z, q, 2)):
            dq = (1 - q**n) / (1 - q) * t**(n - 1)
            tq = (1 - q**(n + 1)) / (1 - q) * t**(n + 1)
            assert np.max(np.abs(D[k] - dq)) < 1e-12 * max(1.0, np.max(np.abs(dq)))
            assert np.max(np.abs(T[k] - tq)) < 1e-12 * max(1.0, np.max(np.abs(tq)))

    def test_shifted_rows_are_per_row_calls(self):
        q = 0.7
        z = CircleGrid(64).nodes
        rows = shifted(lambda t: szego_weight(t, q), z, q, 4)
        for k, t in enumerate(self.points(z, q, 4)):
            assert np.array_equal(rows[k], szego_weight(t, q))

    def test_grid_samples_only_missing_rows(self):
        grid = CircleGrid(16)
        calls = []

        def f(t, c):
            calls.append(c)
            return c * t

        first = grid.rows(f, 0.5, 1, 2.0)
        assert len(calls) == 2
        deeper = grid.rows(f, 0.5, 3, 2.0)
        assert len(calls) == 4
        assert np.array_equal(deeper[:2], first)
        assert np.array_equal(deeper, shifted(lambda t: 2.0 * t, grid.nodes,
                                              0.5, 3))
        assert np.array_equal(grid.rows(f, 0.5, 2, 2.0), deeper[:3])
        assert len(calls) == 4
        deeper[0] = 0.0  # a copy: the grid's samples are not settable
        assert np.array_equal(grid.rows(f, 0.5, 0, 2.0)[0], first[0])
        grid.rows(f, 0.25, 0, 2.0)  # another q
        grid.rows(f, 0.5, 0, 3.0)  # other arguments
        assert len(calls) == 6
        assert len(CircleGrid(16).rows(f, 0.5, 0, 2.0)) == 1  # another grid
        assert len(calls) == 7

    def test_verify_all_samples_the_szego_weight_once_per_row(
            self, monkeypatch, capsys):
        import qcircle.szego
        calls = []
        weight = qcircle.szego.szego_weight

        def counted(*args, **kwargs):
            calls.append(args)
            return weight(*args, **kwargs)

        monkeypatch.setattr(qcircle.szego, "szego_weight", counted)
        main(["verify", "all", "--max-n", "5", "--grid", "256", "--q", "0.5"])
        capsys.readouterr()
        # 513 at one evaluation per operator application.
        assert 0 < len(calls) <= 12


class TestAdjointness:
    def test_trivial_pair(self):
        one = LaurentPoly(0, [1.0])
        assert adjoint_residual(one, one, 0.5, CircleGrid(16)) < 1e-15

    def test_simple_monomials(self):
        f = LaurentPoly(3, [1.2 - 0.7j])
        g = LaurentPoly(2, [0.4 + 2.1j])
        assert adjoint_residual(f, g, 0.5, CircleGrid(32)) < 1e-13

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_randomized(self, q):
        rng = np.random.default_rng(42)
        grid = CircleGrid(64)
        worst = 0.0
        for _ in range(100):
            f = random_laurent(rng, -5, 5)
            g = random_laurent(rng, -5, 5)
            worst = max(worst, adjoint_residual(f, g, q, grid))
        assert worst < 2e-11


class TestLaurentDq:
    def test_constant(self):
        assert laurent_dq(LaurentPoly(0, [3.0]), 0.5).is_zero()

    def test_negative_power(self):
        q = 0.5
        out = laurent_dq(LaurentPoly(-2, [1.0]), q)
        assert out.min_degree == -3
        assert out.coefficients[0] == pytest.approx((1 - q**-2) / (1 - q))

    def test_matches_pointwise_dq(self):
        rng = np.random.default_rng(19)
        g = CircleGrid(32)
        q = 0.4
        for _ in range(50):
            p = random_laurent(rng, -5, 5)
            exact = laurent_dq(p, q)(g.nodes)
            pointwise = np.asarray(dq_apply(p, q)(g.nodes))
            assert np.max(np.abs(exact - pointwise)) < 1e-12
