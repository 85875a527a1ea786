import functools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qcircle.biortho
from qcircle.biortho import (BiorthoParams, biortho_gram, biortho_norms,
                             biortho_weight, imn_iterated_coefficient,
                             imn_step_coefficient, imn_table, kappa_closed,
                             kappa_each, ladder_reports, lowering_coefficient,
                             r_fn, r_rows, raising_coefficient,
                             raising_ratio_rows, random_params,
                             recursion_chain_reports, s_fn, sears_check,
                             shifted_weight_rows, weight_rows,
                             weight_symmetry_reports)
from qcircle.circle import CircleGrid, contour_mean, dq_apply, tq_apply
from qcircle.cli import main, parse_complex
from qcircle.errors import (DegenerateParameters, NonConvergent,
                            UnbalancedParameters, WeightUnderflow)
from qcircle.qcore import qmultipochhammer, qpochhammer, qpochhammer_inf
from qcircle.szego import ladder_reports as szego_ladder_reports
from qcircle.szego import circle_weight, szego_weight

Q = 0.5
P = BiorthoParams(0.3, 0.2, 0.4, 0.1, Q)
GRID = CircleGrid(256)


def conjugate_params(rng, q):
    """A conjugate-symmetric set (alpha = conj a, beta = conj b), with a and
    b drawn as random_params draws them."""
    a, b = (rng.uniform(0.05, 0.6) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            for _ in range(2))
    return BiorthoParams(a, np.conj(a), b, np.conj(b), q)


class TestBiorthoParams:
    def test_modulus_guard(self):
        with pytest.raises(ValueError):
            BiorthoParams(1.0, 0.2, 0.3, 0.1, Q)
        with pytest.raises(ValueError):
            BiorthoParams(0.2, 0.2, 0.3, 1.2, Q)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.1, math.nan),
                                     complex(math.inf, 0.0)])
    def test_non_finite_fails_modulus_guard(self, bad):
        with pytest.raises(ValueError, match=r"\|alpha\| must be < 1"):
            BiorthoParams(0.3, bad, 0.4, 0.1, Q)

    def test_swapped_is_involution(self):
        assert P.swapped().swapped() == P

    def test_replace_reruns_modulus_guard(self):
        p2 = replace(P, a=Q * P.a)
        assert p2.a == Q * P.a and p2.b == P.b
        with pytest.raises(ValueError, match=r"\|a\| must be < 1"):
            replace(P, a=1.0)

    @pytest.mark.parametrize("near_one, label", [
        (("a", "alpha"), "a*alpha"), (("b", "alpha"), "b*alpha"),
        (("a", "beta"), "a*beta"), (("b", "beta"), "b*beta")])
    def test_degenerate_pair_product_is_named(self, near_one, label):
        # Two parameters near 1 put their product within 1e-10 of 1; the
        # first such product, in this order, is named.
        kw = dict(a=0.1, alpha=0.1, b=0.1, beta=0.1, q=Q)
        kw.update(dict.fromkeys(near_one, 1.0 - 1e-12))
        with pytest.raises(DegenerateParameters) as err:
            BiorthoParams(**kw)
        assert str(err.value) == f"denominator product {label} = 1"
        assert not hasattr(BiorthoParams, "pair_products")

    def test_random_params_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng, Q)
            assert max(abs(p.a), abs(p.alpha), abs(p.b), abs(p.beta)) < 1.0


class TestRFn:
    def test_n0(self):
        assert r_fn(0, 1.3 + 0.2j, P) == 1

    def test_n1_two_term_formula(self):
        q = Q
        z = 0.8 + 0.3j
        rq = math.sqrt(q)
        abab = P.a * P.b * P.alpha * P.beta
        term1 = ((1 - q**-1) * (1 - abab) * (1 - P.b * rq) * (1 - P.b * z) * q
                 / ((1 - q) * (1 - P.b * P.alpha) * (1 - P.b * P.beta)
                    * (1 - P.a * P.b * rq * z)))
        assert r_fn(1, z, P) == pytest.approx(1 + term1, rel=1e-13)

    def test_pastro_case_is_polynomial(self):
        pastro = replace(P, a=0.0, alpha=0.0)
        z = GRID.nodes
        for n in range(5):
            vals = np.asarray(r_fn(n, z, pastro))
            for k in range(1, n + 2):
                assert abs(np.mean(vals * z**k)) < 1e-10

    def test_vectorized_matches_scalar(self):
        z = GRID.nodes[:7]
        vec = np.asarray(r_fn(3, z, P))
        for i, zi in enumerate(z):
            assert vec[i] == pytest.approx(r_fn(3, complex(zi), P))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_keeps_the_shape_of_z(self, shape):
        # A 0-d z gives a Python complex; each value is the point's own,
        # bit for bit, so the reshape keeps every value in place.
        z = 0.9 * np.exp(0.4j * np.arange(1, 1 + math.prod(shape)))
        got = r_fn(3, z.reshape(shape), P)
        assert np.shape(got) == shape
        assert isinstance(got, complex) == (shape == ())
        assert np.ravel(got).tolist() == [r_fn(3, zj, P) for zj in z]

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_one_table_of_one_row(self, monkeypatch, n):
        # r_fn asks for the one degree: its value is that row of every
        # table, and s_n is the table at the swapped set.
        tables, _ = counted_tables(monkeypatch)
        r_fn(n, GRID.nodes, P)
        s_fn(n, 0.5 + 0.1j, P)
        assert tables == [(P, range(n, n + 1)),
                          (P.swapped(), range(n, n + 1))]

    @pytest.mark.parametrize("subject", ["rn", "sn"])
    @pytest.mark.parametrize("q", ["0.5", "0.9"])
    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_eval_json_is_the_table_row(self, capsys, subject, q, n):
        # eval at a grid node prints the node's entry of the degree-n row
        # of a table of every degree up to n.
        params = "0.3+0.1i,0.2-0.15i,0.4+0.05i,0.1+0.2i"
        p = BiorthoParams(*map(parse_complex, params.split(",")), float(q))
        z = CircleGrid(64).nodes
        R = r_rows(range(n + 1), p if subject == "rn" else p.swapped(), z,
                   0)[0, n]
        for j in (0, 5, 37):
            zj = complex(z[j])
            assert main(["eval", subject, "--n", str(n), "--q", q,
                         f"--z={zj.real!r}{zj.imag:+}i",
                         "--params", params, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert complex(*doc["value"]) == R[j]


class TestSFn:
    def test_n0(self):
        assert s_fn(0, 0.5 + 0.1j, P) == 1

    def test_real_parameters_swap(self):
        # with real parameters, s_n is r_n at (alpha, a, beta, b)
        z = 1.1 - 0.4j
        swapped = BiorthoParams(P.alpha, P.a, P.beta, P.b, Q)
        assert s_fn(2, z, P) == pytest.approx(r_fn(2, z, swapped))


class TestWeight:
    def test_zero_params_reduce_to_szego(self):
        pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
        z = GRID.nodes
        got = np.asarray(biortho_weight(z, pz))
        want = np.asarray(szego_weight(z, Q))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_symmetry_under_parameter_swap(self):
        symmetry, series = weight_symmetry_reports(P, GRID)
        assert symmetry.name == "biortho_weight_symmetry" and symmetry.passed
        assert series.name == "biortho_weight_series" and series.passed
        assert symmetry.tolerance == series.tolerance == 1e-12
        # Both sides of the symmetry are biortho_weight's q-products; the
        # series rows at the swapped set are held to the right-hand side.
        swapped = BiorthoParams(P.alpha, P.a, P.beta, P.b, Q)
        rhs = np.asarray(biortho_weight(GRID.nodes, swapped))
        assert symmetry.residual == np.max(np.abs(
            np.asarray(biortho_weight(1.0 / GRID.nodes, P)) - rhs))
        assert series.residual == np.max(np.abs(
            weight_rows(GRID, [swapped])[0] - rhs) / np.abs(rhs))
        # the literal unswapped reading does not hold for generic parameters
        literal = np.asarray(biortho_weight(1.0 / GRID.nodes, P)) - \
            weight_rows(GRID, [P])[0]
        assert np.max(np.abs(literal)) > 1e-2

    def test_literal_symmetry_when_families_coincide(self):
        sym = BiorthoParams(0.3, 0.3, 0.1, 0.1, Q)
        z = GRID.nodes
        assert np.max(np.abs(np.asarray(biortho_weight(1 / z, sym))
                             - np.asarray(biortho_weight(z, sym)))) < 1e-13


def eight_factor_weight(z, p):
    """The weight as one product of eight q-shifted factorials, in the
    multiplication order biortho_weight must reproduce; weight_rows' series
    is held to it pointwise."""
    rq = math.sqrt(p.q)
    z = np.asarray(z, dtype=complex)
    num = np.ones(z.shape, dtype=complex)
    for arg in (rq * z, rq / z, p.a * p.b * rq * z, p.alpha * p.beta * rq / z):
        num = num * np.asarray(qpochhammer_inf(arg, p.q))
    den = np.ones(z.shape, dtype=complex)
    for arg in (p.a * z, p.alpha / z, p.b * z, p.beta / z):
        den = den * np.asarray(qpochhammer_inf(arg, p.q))
    w = num / den
    return complex(w) if w.ndim == 0 else w


def _points(z, q, k):
    """q^k z as iterated products q * (q * ... z), the grid's row points."""
    for _ in range(k):
        z = q * z
    return z


def kernel_calls(monkeypatch, capsys, argv) -> tuple:
    """(array, scalar) calls of the q-product kernel entries, qpochhammer_inf
    and qpochhammer_inf_each, made by one `qcircle` command; a batch counts
    as an array call if any of its arguments is an array."""
    import qcircle.biortho
    import qcircle.qcore
    import qcircle.szego
    calls, depth = [], [0]

    def counted(kernel, batch):
        def entry(a, *args, **kwargs):
            if not depth[0]:
                calls.append(any(np.ndim(x) for x in (a if batch else [a])))
            depth[0] += 1
            try:
                return kernel(a, *args, **kwargs)
            finally:
                depth[0] -= 1
        return entry

    for name, batch in (("qpochhammer_inf", False),
                        ("qpochhammer_inf_each", True)):
        wrapped = counted(getattr(qcircle.qcore, name), batch)
        for module in (qcircle.qcore, qcircle.szego, qcircle.biortho):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    main(argv)
    capsys.readouterr()
    return calls.count(True), calls.count(False)


def relative_error(got, want) -> float:
    """The largest pointwise |got - want| / |want|."""
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestWeightRows:
    """The grid rows: the Szego circle row times exp of each set's
    log-Laurent series, held pointwise to the eight-factor product."""

    @pytest.mark.parametrize("n_nodes", [128, 2048])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.89])
    def test_rows_match_eight_factor_product(self, n_nodes, q):
        # The bits of the q-products until the rows became a series; the
        # worst measured is 3.3e-14 (q = 0.89, 2048 nodes).
        rng = np.random.default_rng(int(q * 100) + n_nodes)
        grid = CircleGrid(n_nodes)
        for p in (BiorthoParams(0.3, 0.2, 0.4, 0.1, q),
                  random_params(rng, q), conjugate_params(rng, q)):
            assert relative_error(weight_rows(grid, [p])[0],
                                  eight_factor_weight(grid.nodes, p)) < 1e-13

    def test_direct_calls_match_eight_factor_product(self):
        rng = np.random.default_rng(41)
        for q in (0.1, 0.5, 0.9, 0.99):
            p = random_params(rng, q)
            for z in (1.0, -1.0, 1j, 0.4 - 0.3j, GRID.nodes,
                      np.array([[0.5, 2.0j], [-1.5, 0.7 + 0.7j]])):
                got, want = biortho_weight(z, p), eight_factor_weight(z, p)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_near_one_verdict_array_product_count(self, monkeypatch, capsys):
        # 160 lone calls when every parameter set recomputed the Szego pair,
        # 108 with one set at a time, 12 with one batch of q-products per
        # table of parameter sets; now none for the weight rows: the two
        # direct weights of the symmetry check (a batch and the Szego pair
        # each) and the Pearson check's direct Szego row at qz.
        arrays, _ = kernel_calls(monkeypatch, capsys, [
            "verify", "biortho", "--max-n", "5", "--grid", "256",
            "--q", "0.89"])
        assert 0 < arrays <= 8

    def test_headline_verdict_array_product_count(self, monkeypatch, capsys):
        # 118 with one parameter set at a time, 16 with q-product weight
        # rows.
        arrays, _ = kernel_calls(monkeypatch, capsys, [
            "verify", "all", "--max-n", "5", "--grid", "256", "--q", "0.5"])
        assert 0 < arrays <= 14

    def test_biortho_verdict_kernel_calls(self, monkeypatch, capsys):
        # 108 array and 160 scalar calls with one parameter set at a time,
        # 12 and 4 with q-product weight rows; the circle row's total mass
        # 1/(q;q)_inf is the fifth scalar call.
        arrays, scalars = kernel_calls(monkeypatch, capsys, [
            "verify", "biortho", "--max-n", "5", "--grid", "256",
            "--q", "0.5"])
        assert arrays <= 8 and scalars <= 5
        assert arrays + scalars <= 13

    def test_weight_rows_call_no_q_product(self, monkeypatch):
        # The ten random sets of kappa_random_report at q = 0.89, once the
        # grid holds the circle row and its (q;q)_inf, a scalar q-product.
        import qcircle.qcore
        import qcircle.szego
        grid, rng = CircleGrid(256), np.random.default_rng(0)
        circle_weight(grid, 0.89)

        def refused(*args, **kwargs):
            raise AssertionError("a q-product")

        for module in (qcircle.qcore, qcircle.szego, qcircle.biortho):
            for name in ("qpochhammer_inf", "qpochhammer_inf_each"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        rows = weight_rows(grid, [random_params(rng, 0.89)
                                  for _ in range(10)])
        assert rows.shape == (10, 256)

    def test_biortho_verdict_scalar_kernel_arguments(self, monkeypatch,
                                                     capsys):
        # 160 when the recursion chain took kappa at shift_0..shift_3, ten
        # q-products each, for a note that no residual read.
        import qcircle.biortho
        import qcircle.qcore
        kernel, scalars = qcircle.qcore.qpochhammer_inf_each, []

        def counted(args, q):
            scalars.extend(a for a in args if np.ndim(a) == 0)
            return kernel(args, q)

        for module in (qcircle.qcore, qcircle.biortho):
            monkeypatch.setattr(module, "qpochhammer_inf_each", counted)
        main(["verify", "biortho", "--max-n", "5", "--grid", "256",
              "--q", "0.5"])
        capsys.readouterr()
        # 130 and the circle row's (q;q)_inf.
        assert len(scalars) == 131

    def test_near_one_szego_verdict_array_product_count(self, monkeypatch,
                                                        capsys):
        # The direct Pearson certificate row of the Szego weight and the
        # Jacobi triple product: two calls each.  Row 0 took two more before
        # it came from the Poisson dual, 14 when every row was two new
        # q-products.
        arrays, _ = kernel_calls(monkeypatch, capsys, [
            "verify", "szego", "--max-n", "5", "--grid", "256",
            "--q", "0.988"])
        assert 0 < arrays <= 4

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.89])
    def test_batch_rows_match_single_rows(self, q):
        rng = np.random.default_rng(int(q * 100))
        sets = [random_params(rng, q), conjugate_params(rng, q),
                BiorthoParams(0.3, 0.2, 0.4, 0.1, q),
                BiorthoParams(0.0, 0.0, 0.4, 0.1, q),
                random_params(rng, q)]
        rows = weight_rows(CircleGrid(128), sets)
        assert rows.shape == (5, 128)
        for p, row in zip(sets, rows):
            single = weight_rows(CircleGrid(128), [p])[0]
            assert row.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n_nodes", [64, 100, 256, 2048])
    def test_a_rows_bits_do_not_depend_on_its_batch(self, n_nodes):
        # Each set takes its own number of terms: 0.95 folds 825 terms
        # into 64 coefficients, Pastro's largest, 0.4, takes 43, and the
        # inverse FFT of a batch is each row's own.
        q, rng = 0.5, np.random.default_rng(n_nodes)
        sets = [BiorthoParams(0.95, 0.2, 0.4, 0.1, q), PASTRO,
                random_params(rng, q), BiorthoParams(0.0, 0.0, 0.0, 0.0, q),
                conjugate_params(rng, q)]
        rows = weight_rows(CircleGrid(n_nodes), sets)
        for p, row in zip(sets, rows):
            single = weight_rows(CircleGrid(n_nodes), [p])[0]
            assert row.tobytes() == single.tobytes()
            assert relative_error(row, eight_factor_weight(
                CircleGrid(n_nodes).nodes, p)) < 1e-13

    def test_zero_parameters_give_the_circle_row(self):
        pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
        assert weight_rows(GRID, [pz])[0].tobytes() == \
            circle_weight(GRID, Q).astype(complex).tobytes()

    @pytest.mark.parametrize("r, q", [(0.3, 0.5), (0.95, 0.5), (0.999, 0.9),
                                      (0.99995, 0.5)])
    def test_truncation_meets_its_tail_bound(self, r, q):
        # Past K terms each of a term's six powers is at most r^k and
        # k (1 - q^k) >= 1 - q: the tail is at most
        # 6 r^(K+1) / ((1 - q)(1 - r)), and K is the least that keeps it
        # under 1e-16.
        terms = qcircle.biortho._series_terms(r, q)
        tail = lambda k: 6 * r**(k + 1) / ((1 - q) * (1 - r))  # noqa: E731
        assert tail(terms) <= 1e-16 < tail(terms - 2)

    def test_past_the_term_cap_raises(self):
        # max|parameter| 0.99999 at q = 0.5 needs 5,083,893 terms; the
        # q-product kernel caps its factors at the same 1,000,000.
        with pytest.raises(NonConvergent, match=(
                r"series of the weight at q=0\.5 and max\|parameter\|="
                r"0\.99999 needs 5,083,893 terms")):
            weight_rows(CircleGrid(64), [BiorthoParams(0.2, 0.99999, 0.4,
                                                       0.1, 0.5)])

    def test_batch_reuses_held_rows(self, monkeypatch):
        import qcircle.biortho
        grid, batches = CircleGrid(64), []
        series = qcircle.biortho._log_series_rows

        def counted(z, q, sets):
            batches.append(list(sets))
            return series(z, q, sets)

        monkeypatch.setattr(qcircle.biortho, "_log_series_rows", counted)
        shift = replace(P, alpha=Q * P.alpha)
        weight_rows(grid, [P])
        rows = weight_rows(grid, [shift, P, shift])
        assert batches == [[P], [shift]]
        assert rows[0].tobytes() == rows[2].tobytes()


def mp_qproducts(xs, q, mpmath) -> list:
    """(x; q)_inf for each x at mpmath's precision, the factors 1 - x q^k
    multiplied out until q^k < 10^-(dps + 2), every x sharing one q^k."""
    eps, qk = mpmath.mpf(10)**-(mpmath.mp.dps + 2), mpmath.mpf(1)
    products = [mpmath.mpc(1)] * len(xs)
    while qk > eps:
        products = [v * (1 - x * qk) for v, x in zip(products, xs)]
        qk *= q
    return products


class TestWeightRowsOracle:
    """weight_rows against the eight-factor product at 20 digits, the
    Szego pair (q^{1/2} z, q^{1/2}/z; q)_inf times (ab q^{1/2} z,
    alpha beta q^{1/2}/z; q)_inf / (az, alpha/z, bz, beta/z; q)_inf, on
    16 nodes, or every `step`-th of them from node 3: near q = 1 each
    product of 5,000 factors costs mpmath about 45 ms.  The worst measured
    is 3.8e-14 (q = 0.99), about eps times the circle row's exponent, 490."""

    @pytest.mark.parametrize("q, step", [(0.5, 1), (0.89, 4), (0.97, 8),
                                         (0.99, 16)])
    def test_mpmath_oracle(self, q, step):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(q * 100))
        sets = [replace(P, q=q), random_params(rng, q),
                conjugate_params(rng, q), replace(PASTRO, q=q)]
        grid = CircleGrid(16)
        rows = weight_rows(grid, sets)
        with mpmath.workdps(20):
            qm = mpmath.mpf(q)
            rq = mpmath.sqrt(qm)
            for j in range(3 % step, 16, step):
                z = mpmath.mpc(grid.nodes[j])
                xs = [rq * z, rq / z]
                for p in sets:
                    a, alpha, b, beta = map(mpmath.mpc, (p.a, p.alpha, p.b,
                                                         p.beta))
                    xs += [a * b * rq * z, alpha * beta * rq / z, a * z,
                           alpha / z, b * z, beta / z]
                szego, *factors = mp_qproducts(xs, qm, mpmath)
                szego *= factors.pop(0)
                for i, row in enumerate(rows):
                    num0, num1, *den = factors[6 * i:6 * i + 6]
                    want = complex(szego * num0 * num1
                                   / (den[0] * den[1] * den[2] * den[3]))
                    assert abs(row[j] - want) <= 1e-13 * abs(want), (i, j)


class TestShiftedWeightRows:
    """shifted_weight_rows: the weight at (a, q^n alpha, b, q^n beta) as the
    row at p times a finite ratio, held here to direct rows."""

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.89])
    def test_ratio_matches_direct_rows(self, q):
        rng = np.random.default_rng(int(q * 100))
        grid = CircleGrid(256)
        for p in (BiorthoParams(0.3, 0.2, 0.4, 0.1, q),
                  random_params(rng, q), conjugate_params(rng, q)):
            rows = shifted_weight_rows(grid, p, 3)
            assert rows.shape == (4, 256)
            assert rows[0].tobytes() == weight_rows(grid, [p])[0].tobytes()
            for n in range(1, 4):
                shift = replace(p, alpha=q**n * p.alpha, beta=q**n * p.beta)
                direct = weight_rows(grid, [shift])[0]
                assert relative_error(rows[n], direct) < 1e-13
                # The worst measured is 2.7e-14 (q = 0.89).
                assert relative_error(rows[n], eight_factor_weight(
                    grid.nodes, shift)) < 1e-13

    def test_chain_samples_one_direct_shifted_row(self, monkeypatch):
        # The chain sampled the parameter factors of shift_1..shift_3; now
        # only shift_3's, for the biortho_weight_shift certificate.
        import qcircle.biortho
        grid, batches = CircleGrid(64), []
        series = qcircle.biortho._log_series_rows

        def counted(z, q, sets):
            batches.append(list(sets))
            return series(z, q, sets)

        monkeypatch.setattr(qcircle.biortho, "_log_series_rows", counted)
        table = table_at(4, grid=grid)
        assert batches == [[P]]
        reports = recursion_chain_reports(table, P, grid)
        assert batches[1:] == [[replace(P, alpha=Q**3 * P.alpha,
                                        beta=Q**3 * P.beta)]]
        (shift,) = [r for r in reports if r.name == "biortho_weight_shift"]
        assert shift.params["n"] == 3
        assert shift.tolerance == 1e-12 and shift.passed


class TestKappa:
    def test_zero_params(self):
        pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
        assert kappa_closed(pz) == pytest.approx(1 / qpochhammer_inf(Q, Q))

    def test_against_quadrature(self):
        assert biortho_gram(0, P, GRID, tol=1e-10)[2].passed

    def test_conjugate_pair_real(self):
        p = BiorthoParams(0.3 + 0.2j, 0.3 - 0.2j, 0.25 - 0.35j,
                          0.25 + 0.35j, Q)
        k = kappa_closed(p)
        assert abs(k.imag) < 1e-13

    def test_randomized_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = random_params(rng, Q)
            assert biortho_gram(0, p, GRID, tol=1e-10)[2].passed

    def test_total_mass_residual_bit_for_bit(self):
        # The ten sets of suites.kappa_random_report: r_0 = s_0 = 1 leave the
        # weight's samples as they are, so the 1x1 Gram's residual is
        # |mean(w) - kappa| / |kappa| to the last bit.
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_params(rng, Q)
            closed = kappa_closed(p)
            quad = complex(np.mean(weight_rows(GRID, [p])[0]))
            *_, rep = biortho_gram(0, p, GRID)
            assert rep.residual == abs(quad - closed) / abs(closed)


def lone_kappa(p):
    """The closed-form total mass one q-product at a time, each side's
    factors multiplied in order from 1."""
    rq = math.sqrt(p.q)
    num = den = 1.0 + 0.0j
    for a in (p.a * rq, p.alpha * rq, p.b * rq, p.beta * rq,
              p.a * p.b * p.alpha * p.beta):
        num *= qpochhammer_inf(a, p.q)
    for a in (p.q, p.a * p.alpha, p.b * p.alpha, p.a * p.beta, p.b * p.beta):
        den *= qpochhammer_inf(a, p.q)
    return num / den


class TestKappaBatch:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.89, 0.97])
    def test_batch_matches_lone_products(self, q):
        rng = np.random.default_rng(int(q * 100) + 3)
        sets = [random_params(rng, q) for _ in range(8)] + [
            conjugate_params(rng, q), BiorthoParams(0, 0, 0.4, 0.1, q),
            BiorthoParams(0, 0, 0, 0, q)]
        got = kappa_each(sets)
        assert all(type(k) is complex for k in got)
        for want in ([kappa_closed(p) for p in sets],
                     [lone_kappa(p) for p in sets]):
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_underflow_message_of_a_middle_set(self):
        # At q = 0.99 (q;q)_inf is 5e-72; pair products near 0.98 push the
        # third set's denominator below the smallest normal float.
        q = 0.99
        small = [BiorthoParams(0.1, 0.1, 0.1, 0.1, q) for _ in range(4)]
        big = BiorthoParams(0.99, 0.99, 0.99, 0.99, q)
        with pytest.raises(WeightUnderflow) as lone:
            kappa_closed(big)
        with pytest.raises(WeightUnderflow) as batch:
            kappa_each(small[:2] + [big] + small[2:])
        assert str(batch.value) == str(lone.value)
        assert ("underflowed below the smallest normal float at q=0.99"
                in str(lone.value))
        kappa_each(small)  # the other four alone are representable

    def test_memory_near_one(self):
        # 160 scalar q-products of about 41,000 factors each at q = 0.999,
        # in blocks of at most _BLOCK_ELEMS elements: unblocked, ~98 MB.
        import tracemalloc
        rng = np.random.default_rng(4)
        sets = [random_params(rng, 0.999) for _ in range(16)]
        tracemalloc.start()
        try:
            with pytest.raises(WeightUnderflow):
                kappa_each(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestGram:
    def test_g00_is_kappa(self):
        G, _, _ = biortho_gram(0, P, GRID)
        assert G[0, 0] == pytest.approx(kappa_closed(P), rel=1e-12)

    def test_two_sided_orthogonality(self):
        G, _, _ = biortho_gram(2, P, GRID)
        assert abs(G[1, 2]) < 1e-10
        assert abs(G[2, 1]) < 1e-10

    def test_diagonal_closed_form(self):
        G, _, _ = biortho_gram(2, P, GRID)
        assert G[2, 2] == pytest.approx(biortho_norms(2, P)[2], rel=1e-10)

    def test_norms_use_one_kappa(self, monkeypatch):
        import qcircle.biortho
        calls = []
        kappa = qcircle.biortho.kappa_closed

        def counted(p, *args):
            calls.append(p)
            return kappa(p, *args)

        monkeypatch.setattr(qcircle.biortho, "kappa_closed", counted)
        _, norms, _ = biortho_gram(4, P, GRID)
        assert len(calls) == 1
        assert norms == biortho_norms(4, P)
        assert norms == [biortho_norms(n, P)[n] for n in range(5)]

    def test_report(self):
        *_, rep = biortho_gram(3, P, GRID, tol=1e-9)
        assert rep.passed
        assert rep.notes["max_offdiag"] < 1e-9


GENERIC = BiorthoParams(0.3 + 0.1j, 0.2 - 0.15j, 0.4 + 0.05j, 0.1 + 0.2j, Q)
PASTRO = replace(P, a=0.0, alpha=0.0)


@functools.lru_cache(maxsize=None)
def ladder_table(p=P):
    """{(name, n): report} of ladder_reports(5, p, GRID)."""
    return {(r.name, r.params["n"]): r for r in ladder_reports(5, p, GRID)}


def ladder_residual(name, n, p=P):
    return ladder_table(p)[(f"biortho_{name}", n)].residual


class TestLadder:
    def test_lowering_n1(self):
        assert ladder_residual("lowering", 1) < 1e-12

    def test_lowering_n4_generic_complex(self):
        assert ladder_residual("lowering", 4, GENERIC) < 1e-10

    def test_lowering_pastro(self):
        assert ladder_residual("lowering", 3, PASTRO) < 1e-11

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_raising(self, n):
        assert ladder_residual("raising", n) < 1e-10

    def test_raising_integrated_consistency(self):
        # integrating both sides of the raising identity over the circle
        # gives equal values
        z = GRID.nodes
        raised = replace(P, alpha=Q * P.alpha, beta=Q * P.beta)
        c = P.alpha * P.beta * math.sqrt(Q)

        def g(t):
            return ((1 - c / t) * (1 - c * Q / t) * biortho_weight(t, raised)
                    * r_fn(1, t, raised))

        left = np.mean(tq_apply(g, Q)(z))
        right = raising_coefficient(P) * np.mean(biortho_weight(z, P)
                                                 * r_fn(2, z, P))
        assert left == pytest.approx(right, abs=1e-12)

    def test_ladder_closure(self):
        # lowering r_n, then raising the result with base parameters
        # (qa, alpha/q, qb, beta/q), lands back on a scalar multiple of
        # r_n at those base parameters; the scalar is the product of the
        # two ladder coefficients.
        q = Q
        n = 3
        z = GRID.nodes
        rq = math.sqrt(q)
        low = p_low = replace(P, a=q * P.a, b=q * P.b)
        base = replace(P, a=q * P.a, alpha=P.alpha / q,
                       b=q * P.b, beta=P.beta / q)
        # raising identity at `base` maps r_{n-1}(.; low) scaled by w's
        shifted = replace(base, alpha=q * base.alpha, beta=q * base.beta)
        assert shifted == low

        def g(t):
            t = np.asarray(t, dtype=complex)
            pref = ((1 - base.alpha * base.beta * rq / t)
                    * (1 - base.alpha * base.beta * rq * q / t))
            return (pref * np.asarray(biortho_weight(t, low))
                    * np.asarray(r_fn(n - 1, t, low)))

        raised = z * (g(z) - q * g(q * z)) / (1 - q)
        scalar = lowering_coefficient(n, P) * raising_coefficient(base)
        target = (scalar / lowering_coefficient(n, P)
                  * lowering_coefficient(n, P)
                  * np.asarray(biortho_weight(z, base))
                  * np.asarray(r_fn(n, z, base)))
        residual = np.max(np.abs(lowering_coefficient(n, P) * raised
                                 - target * 1.0))
        # normalize: raising at `base` times lowering coefficient
        assert residual / max(1.0, np.max(np.abs(target))) < 1e-8


def counted_tables(monkeypatch):
    """The (parameter set, degree range) of each r_rows table built from
    here on, and the degrees r_fn is called at."""
    import qcircle.biortho
    tables, calls = [], []
    build, evaluate = qcircle.biortho.r_rows, qcircle.biortho.r_fn

    def rows(degrees, p, z, depth):
        tables.append((p, degrees))
        return build(degrees, p, z, depth)

    def fn(n, z, p):
        calls.append(n)
        return evaluate(n, z, p)

    monkeypatch.setattr(qcircle.biortho, "r_rows", rows)
    monkeypatch.setattr(qcircle.biortho, "r_fn", fn)
    return tables, calls


class TestLadderTable:
    @pytest.mark.parametrize("size, depth",
                             [(1, 0), (2, 1), (6, 1), (9, 0), (13, 0)])
    @pytest.mark.parametrize("n_nodes", [64, 100, 256, 2048])
    @pytest.mark.parametrize("p", [P, GENERIC, PASTRO],
                             ids=["default", "complex", "pastro"])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.89, 0.97])
    def test_r_rows_sample_each_function(self, q, p, n_nodes, size, depth):
        # r_fn is the one-degree table: a row does not depend on which
        # degrees share its table, bit for bit.
        p, z = replace(p, q=q), CircleGrid(n_nodes).nodes
        R = r_rows(range(size), p, z, depth)
        assert R.shape == (depth + 1, size, n_nodes)
        for k in range(depth + 1):
            for n in range(size):
                assert np.array_equal(R[k, n], r_fn(n, _points(z, q, k), p))

    @pytest.mark.parametrize("max_n", [0, 1, 2, 3])
    def test_report_order(self, max_n):
        names = [(r.name, r.params["n"])
                 for r in ladder_reports(max_n, P, CircleGrid(16))]
        assert names == [(f"biortho_{name}", n)
                         for n in range(1, max_n + 1)
                         for name in ("lowering", "raising")]

    @pytest.mark.parametrize("max_n", [1, 3, 5])
    def test_report_does_not_depend_on_batch_size(self, max_n):
        def residuals(k):
            return {(r.name, r.params["n"]): r.residual
                    for r in ladder_reports(k, GENERIC, GRID)}

        assert residuals(max_n) == {key: value
                                    for key, value in residuals(8).items()
                                    if key[1] <= max_n}

    @pytest.mark.parametrize("p", [P, GENERIC, PASTRO])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_single_degree_reference(self, p, n):
        # The arithmetic of one degree alone, through the callable D_q and
        # T_q, with the raising identity divided by w(z; p) as quotients of
        # directly evaluated weights instead of ratio rows.
        z, rq = GRID.nodes, math.sqrt(Q)
        lowered = replace(p, a=Q * p.a, b=Q * p.b)
        raised = replace(p, alpha=Q * p.alpha, beta=Q * p.beta)
        u, c = p.a * p.b, p.alpha * p.beta * rq
        lowering = float(np.max(np.abs(
            (1.0 - u * rq * z) * (1.0 - u * rq * Q * z)
            * dq_apply(functools.partial(r_fn, n, p=p), Q)(z)
            - lowering_coefficient(n, p) * r_fn(n - 1, z, lowered))))

        def g(t):  # t is z or qz, aligned with the nodes z
            return ((1 - c / t) * (1 - c * Q / t) * biortho_weight(t, raised)
                    * r_fn(n - 1, t, raised) / biortho_weight(z, p))

        rhs = raising_coefficient(p) * r_fn(n, z, p)
        raising = (np.max(np.abs(tq_apply(g, Q)(z) - rhs))
                   / max(1.0, np.max(np.abs(rhs))))
        assert ladder_residual("lowering", n, p) == lowering
        assert ladder_residual("raising", n, p) == \
            pytest.approx(raising, abs=1e-13)

    def test_each_function_evaluated_once_per_table(self, monkeypatch):
        # lowering_biortho_check, raising_biortho_check and the variant
        # table made 42 r_fn calls for these reports, 27 rows of three
        # r_rows tables; now those three tables call no r_fn.
        tables, calls = counted_tables(monkeypatch)
        reports = ladder_reports(5, P, CircleGrid(256))
        assert len(reports) == 10
        lowered = replace(P, a=Q * P.a, b=Q * P.b)
        raised = replace(P, alpha=Q * P.alpha, beta=Q * P.beta)
        assert tables == [(P, range(6)), (lowered, range(5)),
                          (raised, range(5))]
        assert calls == []


def mp_r_terms(n, z, p, mpmath):
    """The terms t_k of r_n(z)'s 4phi3 at mpmath's precision, from the
    doubles of p and z; r_n(z) is their sum."""
    q = mpmath.mpf(p.q)
    rq = mpmath.sqrt(q)
    a, alpha, b, beta, z = map(mpmath.mpc, (p.a, p.alpha, p.b, p.beta, z))
    abab = a * b * alpha * beta * q**(n - 1)
    terms = [mpmath.mpc(1)]
    for k in range(n):
        qk = q**k
        terms.append(terms[-1] * q * (1 - q**(k - n)) * (1 - abab * qk)
                     * (1 - b * rq * qk) * (1 - b * z * qk)
                     / ((1 - q**(k + 1)) * (1 - b * alpha * qk)
                        * (1 - b * beta * qk) * (1 - a * b * rq * z * qk)))
    return terms


class TestRRowsOracle:
    """r_rows, the one recurrence of r_n and s_n, against the 4phi3's terms
    summed at mpmath's precision, on the circle, off it and at z = 0.  Two
    bounds: the direct sum's, |R - r_n| <= 8 max(n, 1) eps sum |t_k|, which
    it met with a worst ratio of 2.50 (Pastro, q = 0.9) and whose terms grow
    like q^(-n^2/2), and one relative to r_n itself, which the direct sum
    missed by up to 6e58 at q = 0.1: |R - r_n| <= 2e-14 |r_n|, where the
    worst measured was 6.5e-15 (complex set, q = 0.5)."""

    @pytest.mark.parametrize("p", [P, GENERIC, PASTRO],
                             ids=["default", "complex", "pastro"])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    def test_mpmath_oracle(self, q, p):
        mpmath = pytest.importorskip("mpmath")
        p, eps = replace(p, q=q), np.finfo(float).eps
        z = np.concatenate([[0.0, 1e-4]] + [
            r * np.exp(2j * np.pi * (np.arange(4) + 0.5) / 4)
            for r in (0.5, 1.0, 3.0)])
        R = r_rows(range(13), p, z, 0)[0]
        # n^2 log10(1/q) / 2 + 30 digits at n = 12.
        with mpmath.workdps(math.ceil(72 * math.log10(1 / q)) + 30):
            for n in range(13):
                for j, zj in enumerate(z):
                    terms = mp_r_terms(n, zj, p, mpmath)
                    exact = mpmath.fsum(terms)
                    error = abs(mpmath.mpc(R[n, j]) - exact)
                    assert error <= 8 * max(n, 1) * eps * mpmath.fsum(
                        abs(t) for t in terms)
                    assert error <= 2e-14 * abs(exact)


class TestRaisingRatioRows:
    """raising_ratio_rows is fixed algebra: certified once here against
    quotients of direct weights, not in every verdict."""

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.89])
    def test_match_weight_quotients(self, q):
        rng = np.random.default_rng(int(q * 100))
        z = CircleGrid(128).nodes
        qz = _points(z, q, 1)
        for p in (BiorthoParams(0.3, 0.2, 0.4, 0.1, q),
                  random_params(rng, q), conjugate_params(rng, q)):
            raised = replace(p, alpha=q * p.alpha, beta=q * p.beta)
            c = p.alpha * p.beta * math.sqrt(q)
            w = biortho_weight(z, p)
            want = [(1 - c / t) * (1 - c * q / t) * biortho_weight(t, raised)
                    / w for t in (z, qz)]
            for row, exact in zip(raising_ratio_rows(z, p), want):
                assert np.max(np.abs(row - exact) / np.abs(exact)) <= 1e-13

    @pytest.mark.parametrize("params", [(0.3, 0.2, 0.4, 0.5),
                                        (0.3, 0.5, 0.4, 0.1)])
    def test_alpha_or_beta_at_q_warns_nothing(self, params):
        # beta = q (alpha = q): weight row 1 at p, which the raising check
        # sampled and never used, divided by zero at z = 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = ladder_reports(5, BiorthoParams(*params, 0.5), GRID)
        assert all(r.passed for r in reports)

    def test_raising_near_one(self):
        # T_q(w r) divided back by w: 1.97e-10, 1.38e-9 and 1.19e-8 FAILs.
        residuals = [r.residual for r in ladder_reports(
            8, replace(P, q=0.95), GRID)
            if r.name == "biortho_raising" and r.params["n"] >= 6]
        assert len(residuals) == 3
        assert max(residuals) < 1e-10

    def test_ladders_evaluate_no_weight(self, monkeypatch):
        import qcircle.biortho
        import qcircle.circle
        import qcircle.szego
        calls = []

        def tracked(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        for module in (qcircle.circle, qcircle.szego, qcircle.biortho):
            for name in ("szego_weight", "biortho_weight",
                         "_log_series_rows", "circle_weight", "over_weight"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        tracked(name, getattr(module, name)))
        grid = CircleGrid(64)
        szego_ladder_reports(5, Q, grid)
        ladder_reports(5, GENERIC, grid)
        assert calls == []


class TestSears:
    def test_n0_trivial(self):
        rep = sears_check(0, 0.3, 0.4, 0.2, 0.5, 0.6,
                          0.3 * 0.4 * 0.2 * Q / (0.5 * 0.6), Q)
        assert rep.residual < 1e-15

    def test_n1_two_term(self):
        q = Q
        A, B, C, D, E = 0.3, 0.4, 0.25, 0.5, 0.35
        F = A * B * C / (D * E)  # q^{1-n} = 1 at n = 1
        assert sears_check(1, A, B, C, D, E, F, q, tol=1e-13).passed

    def test_n5_random_balanced(self):
        rng = np.random.default_rng(7)
        q = Q
        n = 5
        for _ in range(10):
            vals = [rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())
                    for _ in range(5)]
            A, B, C, D, E = vals
            F = A * B * C * q**(1 - n) / (D * E)
            assert sears_check(n, A, B, C, D, E, F, q, tol=1e-10).passed

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedParameters):
            sears_check(2, 0.3, 0.4, 0.2, 0.5, 0.6, 0.7, Q)


def table_at(size, p=P, grid=GRID):
    """imn_table at p on its weight_rows row."""
    return imn_table(size, p, grid, weight_rows(grid, [p])[0])


@functools.lru_cache(maxsize=None)
def chain_reports(upper=3):
    """{(name, m, n): report} of the chain up to degree upper at P."""
    return {(r.name, r.params.get("m"), r.params["n"]): r
            for r in recursion_chain_reports(table_at(upper + 1),
                                             P, GRID)}


class TestRecursionChain:
    def test_i00_is_kappa(self):
        assert table_at(1)[0, 0] == \
            pytest.approx(kappa_closed(P), rel=1e-12)

    def test_offdiagonal_vanishes(self):
        table = table_at(3)
        assert abs(table[1, 2]) < 1e-10
        assert abs(table[2, 1]) < 1e-10

    def test_diagonal_closed_form(self):
        assert table_at(4)[3, 3] == \
            pytest.approx(biortho_norms(3, P)[3], rel=1e-10)

    def test_single_step(self):
        assert chain_reports()[("imn_recursion_step", 1, 1)].residual < 1e-10

    def test_step_balances_off_diagonal(self):
        # m > n: both sides vanish individually and the recursion holds
        assert abs(table_at(3)[2, 1]) < 1e-10
        assert chain_reports()[("imn_recursion_step", 2, 1)].residual < 1e-10

    def test_iterated_matches_direct(self):
        assert chain_reports()[("imn_recursion_iterated", 3, 3)].residual \
            < 1e-9

    def test_i00_shifted_closed_form(self):
        rq, abab = math.sqrt(Q), P.a * P.b * P.alpha * P.beta
        for n in range(4):
            rep = chain_reports()[("i00_shifted_closed_form", None, n)]
            assert rep.residual < 1e-10
            # two closed-form routes agree: kappa at shift_n, and kappa at
            # P times the verified prefactor
            shift = replace(P, alpha=Q**n * P.alpha, beta=Q**n * P.beta)
            num = qmultipochhammer((P.a * P.alpha, P.b * P.alpha,
                                    P.a * P.beta, P.b * P.beta), Q, n)
            den = (qmultipochhammer((rq * P.alpha, rq * P.beta), Q, n)
                   * qpochhammer(abab, Q, 2 * n))
            closed = kappa_closed(P) * num / den
            assert abs(kappa_closed(shift) - closed) < 1e-12 * abs(closed)


class TestRecursionChainTable:
    def test_table_entry_is_the_quadrature(self):
        z = GRID.nodes
        w = weight_rows(GRID, [P])[0]
        table = table_at(3)
        for m in range(3):
            for n in range(3):
                assert table[m, n] == np.mean(np.conj(s_fn(m, z, P))
                                              * r_fn(n, z, P) * w)

    @pytest.mark.parametrize("p", [P, GENERIC, PASTRO])
    def test_table_is_the_gram_matrix(self, p):
        for size in (1, 3, 5):
            G, _, _ = biortho_gram(size - 1, p, GRID)
            assert table_at(size, p).tobytes() == G.tobytes()

    def test_iterated_coefficient_at_one_is_the_step(self):
        assert imn_iterated_coefficient(1, P) == \
            pytest.approx(imn_step_coefficient(1, P), rel=1e-14)

    @pytest.mark.parametrize("upper, want", [
        (0, ["i00_shifted_closed_form"]),
        (1, ["biortho_weight_shift", "imn_recursion_step"]
         + 2 * ["i00_shifted_closed_form"]),
        (2, ["biortho_weight_shift"] + 4 * ["imn_recursion_step"]
         + 3 * ["i00_shifted_closed_form"] + ["imn_recursion_iterated"]),
    ])
    def test_reports_at_small_upper(self, upper, want):
        grid = CircleGrid(64)
        reports = recursion_chain_reports(table_at(upper + 1, grid=grid), P,
                                          grid)
        assert [r.name for r in reports] == want

    def test_each_function_evaluated_once_per_table(self, monkeypatch):
        # imn_recursion_check, i00_closed_check and imn_iterated_check made
        # 40 r_fn calls for 14 of these reports; the chain builds the two
        # tables of one imn_table, and the shifted weight's certificate
        # reads no r_n.
        table = table_at(4)
        tables, calls = counted_tables(monkeypatch)
        reports = recursion_chain_reports(table, P, GRID)
        assert len(reports) == 15
        assert [degrees for _, degrees in tables] == [range(3), range(3)]
        assert calls == []

    def test_r_rows_only_at_the_shifted_parameters(self, monkeypatch):
        # The table at P comes in; the chain sampled r_n and s_n at P too.
        table = table_at(4)
        tables, _ = counted_tables(monkeypatch)
        recursion_chain_reports(table, P, GRID)
        shift = replace(P, alpha=Q * P.alpha, beta=Q * P.beta)
        assert {p for p, _ in tables} == {shift, shift.swapped()}

    def test_verdict_evaluates_kappa_at_p_at_most_twice(self, monkeypatch,
                                                        capsys):
        # kappa_check, biortho_gram and the chain at p and at shift_0 = p
        # made four; biortho_gram's and the chain's kappa_closed make two.
        import qcircle.biortho
        batches = []
        kappa = qcircle.biortho.kappa_each

        def counted(sets):
            batches.append(list(sets))
            return kappa(sets)

        monkeypatch.setattr(qcircle.biortho, "kappa_each", counted)
        main(["verify", "biortho", "--max-n", "5", "--grid", "256",
              "--q", "0.5", "--format", "json"])
        capsys.readouterr()
        calls = [p for sets in batches for p in sets]
        assert calls.count(P) <= 2  # P is the default set
        assert len(calls) <= 13
        # p's Gram, the ten random sets, the chain's p, the Pastro set.
        assert len(batches) <= 4


class TestDegenerations:
    def test_pastro_gram_diagonal(self):
        pastro = replace(P, a=0.0, alpha=0.0)
        G, _, _ = biortho_gram(3, pastro, GRID)
        for n in range(4):
            want = biortho_norms(n, pastro)[n]
            assert G[n, n] == pytest.approx(want, rel=1e-9)

    def test_all_zero_reduces_to_szego_mass(self):
        pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
        szego_mass = contour_mean(lambda z: szego_weight(z, Q), GRID)
        assert kappa_closed(pz) == pytest.approx(szego_mass, rel=1e-12)
        G, _, _ = biortho_gram(0, pz, GRID)
        assert G[0, 0] == pytest.approx(szego_mass, rel=1e-12)
