import tracemalloc

import numpy as np
import pytest

from qcircle.circle import (CircleGrid, LaurentPoly, contour_mean, dq_apply,
                            dq_rows, gram_matrix, inner_product_c, laurent_dq,
                            laurent_values, shifted, tq_apply, tq_iterate,
                            tq_power, tq_rows)
from qcircle.biortho import DEFAULT_PARAMS, BiorthoParams, r_rows
from qcircle.cli import main
from qcircle.suites import adjointness_report, random_laurent_rows
from qcircle.szego import (circle_weight, poly_rows, product_rows,
                           szego_norms, szego_weight)


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

    @pytest.mark.parametrize("count", [64.5, 64.0, "64", None])
    def test_refuses_a_count_that_is_not_an_integer(self, count):
        # 64.5 made a grid of 64 nodes, and "64" one of 64.
        with pytest.raises(ValueError, match=f"node count {count!r} is not"):
            CircleGrid(count)

    def test_numpy_integer_count(self):
        grid = CircleGrid(np.int64(64))
        assert type(grid.n_nodes) is int and grid.nodes.shape == (64,)


class TestLaurentPoly:
    def test_zero_poly(self):
        assert LaurentPoly(5, [0.0, 0.0])(1.3 + 0.4j) == 0

    def test_evaluation(self):
        p = LaurentPoly(-1, [2.0, 0.0, 3.0])  # 2/z + 3z
        z = 0.5 + 0.5j
        assert p(z) == pytest.approx(2.0 / z + 3.0 * z)


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

        def f(z, q, items):
            calls.append((q, items))
            return [c * q * z for c in items]

        first = grid.rows(f, 0.5, [1.0, 2.0])
        assert calls == [(0.5, [1.0, 2.0])]
        again = grid.rows(f, "0.5", [2.0, 3.0, 2.0, 3.0])
        # One call for the items not held, each once; held values uncopied.
        assert calls[1:] == [(0.5, [3.0])]
        assert again[0] is first[1] and again[2] is first[1]
        assert again[3] is again[1]
        assert np.array_equal(again[1], 1.5 * grid.nodes)
        held = grid.rows(f, 0.5, [1.0, 3.0, 2.0])
        assert [id(x) for x in held] == [id(first[0]), id(again[1]),
                                         id(first[1])]
        assert grid.rows(f, 0.5, []) == []
        assert len(calls) == 2
        grid.rows(f, 0.25, [1.0])  # another q
        grid.rows(lambda z, q, items: f(z, q, items), 0.5, [1.0])  # another f
        CircleGrid(16).rows(f, 0.5, [1.0])  # another grid
        assert calls[2:] == [(0.25, [1.0]), (0.5, [1.0]), (0.5, [1.0])]

    def test_product_rows_are_the_shifted_weight_rows(self):
        q, grid = 0.7, CircleGrid(64)
        rows = grid.rows(product_rows, q, [3, 0, 1])
        want = shifted(lambda t: szego_weight(t, q), grid.nodes, q, 3)
        for k, row in zip([3, 0, 1], rows):
            assert row.tobytes() == want[k].tobytes()

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
    @staticmethod
    def residual(f, g, q, grid):
        # |<D_q f, g>_c - <f, T_q g>_c| through the row operators.
        z = grid.nodes
        F, G = shifted(f, z, q, 1), shifted(g, z, q, 1)
        return abs(np.mean(dq_rows(F, z, q)[0] * np.conj(G[0]))
                   - np.mean(F[0] * np.conj(tq_rows(G, z, q)[0])))

    def test_trivial_pair(self):
        one = LaurentPoly(0, [1.0])
        assert self.residual(one, one, 0.5, CircleGrid(16)) < 1e-15

    def test_simple_monomials(self):
        f = LaurentPoly(3, [1.2 - 0.7j])
        g = LaurentPoly(2, [0.4 + 2.1j])
        assert self.residual(f, g, 0.5, CircleGrid(32)) < 1e-13

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_randomized(self, q):
        # 100 pairs from default_rng(42), degrees -5..5.
        assert adjointness_report(q, CircleGrid(64), 42).residual < 2e-11

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.8])
    def test_batch_equals_the_adapters_bit_for_bit(self, q):
        # The same seeded pairs, one at a time through the callables.
        grid = CircleGrid(256)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            f, g = random_laurent(rng, -5, 5), random_laurent(rng, -5, 5)
            worst = max(worst, abs(inner_product_c(dq_apply(f, q), g, grid)
                                   - inner_product_c(f, tq_apply(g, q), grid)))
        assert adjointness_report(q, grid, 0, n_pairs=50).residual == worst


class TestLaurentDq:
    def test_constant(self):
        out = laurent_dq(LaurentPoly(0, [3.0]), 0.5)
        assert np.all(out(CircleGrid(16).nodes) == 0)

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


def gram_by_entry(left, right, w):
    """gram_matrix as one 1-D mean per entry: the bytes its one mean per
    row has to reproduce."""
    return np.array([[np.mean(np.conj(lm) * rn * w) for rn in right]
                     for lm in left])


@pytest.mark.parametrize("N", [100, 1000, 3001])
@pytest.mark.parametrize("P", [1, 3, 17])
def test_gram_matrix_bytes(N, P):
    # Entries of mixed sizes, and N not a power of two, where the divide
    # by N rounds.
    rng = np.random.default_rng(N * P)

    def rows(scale):
        return [(rng.normal(size=N) + 1j * rng.normal(size=N))
                * 10.0**rng.uniform(-scale, scale) for _ in range(P)]

    left, right = rows(6), rows(6)
    real = rng.uniform(0.0, 1e3, N)
    # A complex weight, and a real float64 one, the Szego circle row's.
    for w in (real + 1e-9j * rng.normal(size=N), real):
        got, want = gram_matrix(left, right, w), gram_by_entry(left, right, w)
        assert got.shape == want.shape == (P, P)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert gram_matrix(left, np.stack(right), w).tobytes() == \
            want.tobytes()


@pytest.mark.parametrize("hermitian", [True, False])
def test_gram_matrix_overflow_raises(hermitian):
    # Entries of 1e200 squared: the guard names the Gram instead of
    # returning inf with numpy's warnings.
    H = np.full((3, 8), 1e200 + 0j)
    w = np.ones(8) if hermitian else np.ones(8, dtype=complex)
    with pytest.raises(ValueError, match="^the 3 x 3 Gram matrix overflows$"):
        gram_matrix(H, H, w)


@pytest.mark.parametrize("N", [64, 100, 2048])
@pytest.mark.parametrize("P", [1, 3, 17])
def test_gram_matrix_hermitian(N, P):
    # One table against itself under a real row, the Szego Gram's case:
    # the upper triangle and the diagonal are one mean per entry, the
    # lower triangle their conjugates.
    rng = np.random.default_rng(N + P)
    H = np.stack([(rng.normal(size=N) + 1j * rng.normal(size=N))
                  * 10.0**rng.uniform(-6, 6) for _ in range(P)])
    w = rng.uniform(0.0, 1e3, N)
    got, want = gram_matrix(H, H, w), gram_by_entry(H, H, w)
    assert got.shape == want.shape == (P, P)
    upper, lower = np.triu_indices(P), np.tril_indices(P, -1)
    assert got[upper].tobytes() == want[upper].tobytes()
    assert got[lower].tobytes() == np.conj(got.T[lower]).tobytes()


@pytest.mark.parametrize("N", [64, 100, 2048])
@pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
def test_gram_matrix_casts_a_real_row_byte_for_byte(N, q):
    # The Szego circle row is real: cast to complex once per Gram, it gives
    # the bytes of the same row passed as complex, and each entry is the
    # one-row np.mean of its products, on the Hermitian path (one table)
    # and on the general one (the s_m and r_n tables).
    grid = CircleGrid(N)
    w = circle_weight(grid, q, szego_norms(0, q)[0])
    assert w.dtype == np.float64
    H = poly_rows(range(9), q, grid.nodes, 0)[0]
    p = BiorthoParams(*DEFAULT_PARAMS, q)
    S, R = (r_rows(range(9), s, grid.nodes, 0)[0] for s in (p.swapped(), p))
    upper = np.triu_indices(9)
    got = gram_matrix(H, H, w)
    for want in (gram_matrix(H, H, w.astype(complex)),
                 gram_by_entry(H, H, w)):
        assert got[upper].tobytes() == want[upper].tobytes()
    got = gram_matrix(S, R, w)
    for want in (gram_matrix(S, R, w.astype(complex)),
                 gram_by_entry(S, R, w)):
        assert got.tobytes() == want.tobytes()


def test_gram_matrix_memory():
    # One buffer the size of the rows, not two temporaries per row: the
    # Szego Gram at 17 x 2048 allocated 2.3 times the table.
    g = CircleGrid(2048)
    H = np.stack([g.nodes**n for n in range(17)])
    w = szego_weight(g.nodes, 0.5).real
    tracemalloc.start()
    try:
        gram_matrix(H, H, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * H.nbytes


def expression_values(coefficients, min_degree, z):
    """Horner's rule as one expression per step, each making a new array:
    the form laurent_values' in-place pass must agree with bit for bit."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=complex)
    for c in coefficients[::-1]:
        acc = acc * z + c
    return acc * z**min_degree


class TestLaurentRowsOracle:
    """Random Laurent rows against the expression form, one row at a time."""

    @staticmethod
    def points(grid, q, depth):
        t = [grid.nodes[None]]
        for _ in range(depth):
            t.append(q * t[-1])
        return t

    @pytest.mark.parametrize("N", [64, 100, 256])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
    def test_rows_are_byte_identical(self, q, N):
        grid = CircleGrid(N)
        for count in (2, 40, 100, 200):
            for deg_range in (2, 3, 5):
                for depth in (0, 1, 2):
                    seed = count + 10 * deg_range + 100 * depth
                    x = np.random.default_rng(seed).standard_normal(
                        (count, 2, 2 * deg_range + 1))
                    coeffs = (x[:, 0] + 1j * x[:, 1]).T[:, :, None]
                    t = self.points(grid, q, depth)
                    want = np.stack([expression_values(coeffs, -deg_range, tk)
                                     for tk in t]).tobytes()
                    got = laurent_values(coeffs, -deg_range, np.stack(t))
                    assert got.tobytes() == want
                    rows = random_laurent_rows(np.random.default_rng(seed),
                                               count, deg_range, grid, q,
                                               depth)
                    assert rows.tobytes() == want


def test_laurent_rows_memory():
    # One accumulator filled in place: two new tables per Horner step made
    # adjointness' batch peak at 2.21 times its rows.
    grid, rng = CircleGrid(256), np.random.default_rng(0)
    tracemalloc.start()
    try:
        rows = random_laurent_rows(rng, 100, 5, grid, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows.nbytes


def test_laurent_values_memory():
    # (11, 100, 1) coefficients at (1, 256) points peaked at 3.32 times the
    # (100, 256) output.
    rng = np.random.default_rng(1)
    coeffs = (rng.standard_normal((11, 100, 1))
              + 1j * rng.standard_normal((11, 100, 1)))
    z = CircleGrid(256).nodes[None]
    tracemalloc.start()
    try:
        values = laurent_values(coeffs, -5, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values.nbytes
