import math

import numpy as np
import pytest

from qcircle.biortho import (BiorthoParams, biortho_gram, biortho_norm,
                             biortho_weight, i00_closed_check, imn_iterated_check,
                             imn_quadrature, imn_recursion_check, kappa_check,
                             kappa_closed, lowering_biortho_check,
                             lowering_coefficient, r_fn, raising_biortho_check,
                             raising_coefficient, random_params, s_fn,
                             sears_check, variant_reconciliation,
                             weight_symmetry_check)
from qcircle.circle import CircleGrid, contour_mean
from qcircle.errors import DegenerateParameters, UnbalancedParameters
from qcircle.qcore import qpochhammer_inf
from qcircle.szego import szego_weight

Q = 0.5
P = BiorthoParams(0.3, 0.2, 0.4, 0.1, Q)
GRID = CircleGrid(256)


class TestBiorthoParams:
    def test_modulus_guard(self):
        with pytest.raises(ValueError):
            BiorthoParams(1.0, 0.2, 0.3, 0.1, Q)
        with pytest.raises(ValueError):
            BiorthoParams(0.2, 0.2, 0.3, 1.2, Q)

    def test_swapped_is_involution(self):
        assert P.swapped().swapped() == P

    def test_with_params(self):
        p2 = P.with_params(a=Q * P.a)
        assert p2.a == Q * P.a and p2.b == P.b

    def test_random_params_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng, Q)
            assert max(abs(p.a), abs(p.alpha), abs(p.b), abs(p.beta)) < 1.0
        p = random_params(rng, Q, conjugate_pair=True)
        assert p.alpha == np.conj(p.a) and p.beta == np.conj(p.b)


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
        pastro = P.with_params(a=0.0, alpha=0.0)
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
        rep = weight_symmetry_check(P, GRID)
        assert rep.passed
        # the literal unswapped reading does not hold for generic parameters
        assert rep.notes["literal_unswapped_residual"] > 1e-2

    def test_literal_symmetry_when_families_coincide(self):
        sym = BiorthoParams(0.3, 0.3, 0.1, 0.1, Q)
        z = GRID.nodes
        assert np.max(np.abs(np.asarray(biortho_weight(1 / z, sym))
                             - np.asarray(biortho_weight(z, sym)))) < 1e-13


class TestKappa:
    def test_zero_params(self):
        pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
        assert kappa_closed(pz) == pytest.approx(1 / qpochhammer_inf(Q, Q))

    def test_against_quadrature(self):
        assert kappa_check(P, GRID, tol=1e-10).passed

    def test_conjugate_pair_real(self):
        p = BiorthoParams(0.3 + 0.2j, 0.3 - 0.2j, 0.25 - 0.35j,
                          0.25 + 0.35j, Q)
        k = kappa_closed(p)
        assert abs(k.imag) < 1e-13

    def test_randomized_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = random_params(rng, Q)
            assert kappa_check(p, GRID, tol=1e-10).passed


class TestGram:
    def test_g00_is_kappa(self):
        G, _ = biortho_gram(0, P, GRID)
        assert G[0, 0] == pytest.approx(kappa_closed(P), rel=1e-12)

    def test_two_sided_orthogonality(self):
        G, _ = biortho_gram(2, P, GRID)
        assert abs(G[1, 2]) < 1e-10
        assert abs(G[2, 1]) < 1e-10

    def test_diagonal_closed_form(self):
        G, _ = biortho_gram(2, P, GRID)
        assert G[2, 2] == pytest.approx(biortho_norm(2, P), rel=1e-10)

    def test_report(self):
        _, rep = biortho_gram(3, P, GRID, tol=1e-9)
        assert rep.passed
        assert rep.notes["max_offdiag"] < 1e-9


class TestLadder:
    def test_lowering_n1(self):
        assert lowering_biortho_check(1, P, GRID, tol=1e-12).passed

    def test_lowering_n4_generic_complex(self):
        p = BiorthoParams(0.3 + 0.1j, 0.2 - 0.15j, 0.4 + 0.05j,
                          0.1 + 0.2j, Q)
        assert lowering_biortho_check(4, p, GRID, tol=1e-10).passed

    def test_lowering_pastro(self):
        pastro = P.with_params(a=0.0, alpha=0.0)
        assert lowering_biortho_check(3, pastro, GRID, tol=1e-11).passed

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_raising(self, n):
        assert raising_biortho_check(n, P, GRID, tol=1e-10).passed

    def test_raising_integrated_consistency(self):
        # integrating both sides of the raising identity over the circle
        # gives equal values
        from qcircle.biortho import _raising_sides
        lhs, core = _raising_sides(2, P, GRID)
        left = np.mean(lhs)
        right = raising_coefficient(P) * np.mean(core)
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
        low = p_low = P.with_params(a=q * P.a, b=q * P.b)
        base = P.with_params(a=q * P.a, alpha=P.alpha / q,
                             b=q * P.b, beta=P.beta / q)
        # raising identity at `base` maps r_{n-1}(.; low) scaled by w's
        shifted = base.with_params(alpha=q * base.alpha, beta=q * base.beta)
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


class TestVariantReconciliation:
    def test_informational_never_fails_suite(self):
        rep = variant_reconciliation(2, P, GRID)
        assert rep.informational

    def test_table_contents(self):
        rep = variant_reconciliation(2, P, GRID)
        table = rep.notes
        # the verified readings sit at rounding level...
        assert table["raising_coeff_(1-ba)(1-bb)"] < 1e-12
        assert table["lowering_prefactor_ab"] < 1e-12
        # ...while the alternative printed readings measurably differ
        assert table["raising_coeff_(1-ba)(1-bb/q)"] > 1e-3
        assert table["raising_coeff_(1-ba/q)(1-bb/q)"] > 1e-3
        assert table["lowering_prefactor_alphabeta"] > 1e-3


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


class TestRecursionChain:
    def test_i00_is_kappa(self):
        assert imn_quadrature(0, 0, P, GRID) == \
            pytest.approx(kappa_closed(P), rel=1e-12)

    def test_offdiagonal_vanishes(self):
        assert abs(imn_quadrature(1, 2, P, GRID)) < 1e-10
        assert abs(imn_quadrature(2, 1, P, GRID)) < 1e-10

    def test_diagonal_closed_form(self):
        assert imn_quadrature(3, 3, P, GRID) == \
            pytest.approx(biortho_norm(3, P), rel=1e-10)

    def test_single_step(self):
        assert imn_recursion_check(1, 1, P, GRID, tol=1e-10).passed

    def test_step_balances_off_diagonal(self):
        # m > n: both sides vanish individually and the recursion holds
        lhs = imn_quadrature(2, 1, P, GRID)
        assert abs(lhs) < 1e-10
        assert imn_recursion_check(2, 1, P, GRID, tol=1e-10).passed

    def test_iterated_matches_direct(self):
        assert imn_iterated_check(3, 3, P, GRID, tol=1e-9).passed

    def test_i00_shifted_closed_form(self):
        for n in (0, 1, 2):
            rep = i00_closed_check(n, P, GRID, tol=1e-10)
            assert rep.passed
            # two closed-form routes agree: the verified prefactor reading
            assert rep.notes["closed_vs_shifted_kappa"] < 1e-12


class TestDegenerations:
    def test_pastro_gram_diagonal(self):
        pastro = P.with_params(a=0.0, alpha=0.0)
        G, _ = biortho_gram(3, pastro, GRID)
        for n in range(4):
            want = biortho_norm(n, pastro)
            assert G[n, n] == pytest.approx(want, rel=1e-9)

    def test_all_zero_reduces_to_szego_mass(self):
        pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
        szego_mass = contour_mean(lambda z: szego_weight(z, Q), GRID)
        assert kappa_closed(pz) == pytest.approx(szego_mass, rel=1e-12)
        G, _ = biortho_gram(0, pz, GRID)
        assert G[0, 0] == pytest.approx(szego_mass, rel=1e-12)
