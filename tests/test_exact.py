"""Exact certificates of the Szego ladder identities in rational arithmetic.

With q = s^2 and s rational, H_n(z) = sum_k [n choose k]_q (z/s)^k has
rational coefficients.  The weight enters szego.ladder_reports only through
its Pearson ratio w(qz)/w(z) = -1/(s z), so with

    L f(z) = (1/w) T_q(w f)(z) = (z f(z) + s f(qz)) / (1 - q)

each identity is one between polynomials in z:

    lowering         D_q H_n = (1 - q^n) / (s (1 - q)) H_{n-1};
    raising          L H_n = s / (1 - q) H_{n+1};
    Rodrigues        H_n = (1/s - s)^n L^n 1;
    Sturm-Liouville  L D_q H_n = lambda_n H_n.

Both sides are compared coefficient by coefficient in fractions.Fraction,
so no evaluation points and no degree bound enter: each identity holds
exactly or fails.  The float constants of szego.ladder_constants are then
held to the exact ones, so changing any one of their factors fails here,
and so are the float coefficients of szego.coefficient_table.
"""

from fractions import Fraction

import pytest

from qcircle.szego import (coefficient_table, ladder_constants,
                           sturm_liouville_eigenvalue)

MAX_N = 8
TABLE_N = 16  # the degrees of the gram_json workload
ROOTS = [Fraction(1, 2), Fraction(9, 10)]  # s, with q = s^2 = 1/4, 81/100


def q_binomial(n, k, q):
    """[n choose k]_q = prod_{j<k} (1 - q^{n-j}) / (1 - q^{j+1})."""
    value = Fraction(1)
    for j in range(k):
        value *= (1 - q**(n - j)) / (1 - q**(j + 1))
    return value


def szego(n, s):
    """Coefficients of H_n, lowest degree first."""
    return [q_binomial(n, k, s * s) / s**k for k in range(n + 1)]


def trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def scaled(a, c):
    return [a * x for x in c]


def dq(c, q):
    """D_q: z^m -> (1 - q^m)/(1 - q) z^{m-1}."""
    return [c[m] * (1 - q**m) / (1 - q) for m in range(1, len(c))]


def reduced_tq(c, s):
    """L f = (z f(z) + s f(qz)) / (1 - q) on coefficients."""
    q = s * s
    out = [Fraction(0)] + list(c)
    for k, x in enumerate(c):
        out[k] += s * q**k * x
    return [x / (1 - q) for x in out]


def exact_constants(n, s):
    """The degree-n lowering, raising, Rodrigues and Sturm-Liouville
    constants in the order of ladder_constants."""
    q = s * s
    return ((1 - q**n) / (s * (1 - q)), s / (1 - q), (1 / s - s)**n,
            (1 - q**n) / (1 - q)**2)


@pytest.mark.parametrize("s", ROOTS)
class TestSzegoLadderExact:
    def test_lowering(self, s):
        for n in range(1, MAX_N + 1):
            low = exact_constants(n, s)[0]
            assert trimmed(dq(szego(n, s), s * s)) \
                == trimmed(scaled(low, szego(n - 1, s)))

    def test_raising(self, s):
        for n in range(MAX_N + 1):
            up = exact_constants(n, s)[1]
            assert trimmed(reduced_tq(szego(n, s), s)) \
                == trimmed(scaled(up, szego(n + 1, s)))

    def test_rodrigues(self, s):
        power = [Fraction(1)]  # L^n 1
        for n in range(MAX_N + 1):
            rod = exact_constants(n, s)[2]
            assert trimmed(scaled(rod, power)) == trimmed(szego(n, s))
            power = reduced_tq(power, s)

    def test_sturm_liouville(self, s):
        for n in range(MAX_N + 1):
            lam = exact_constants(n, s)[3]
            assert trimmed(reduced_tq(dq(szego(n, s), s * s), s)) \
                == trimmed(scaled(lam, szego(n, s)))

    def test_float_constants_match(self, s):
        q = float(s * s)
        for n in range(MAX_N + 1):
            exact = exact_constants(n, s)
            used = ladder_constants(n, q)
            assert used[3] == sturm_liouville_eigenvalue(n, q)
            for got, want in zip(used, exact):
                assert abs(got - float(want)) <= 1e-14 * max(abs(float(want)),
                                                              1e-300)


@pytest.mark.parametrize("s", ROOTS)
def test_coefficient_table(s):
    # C[n, k] = [n choose k]_q q^{-k/2} to 1e-15 relative, held at the
    # double q that the table is given (81/100 is not one, and rounding it
    # alone moves the coefficients by up to 7.6e-16): q^{-k/2} is irrational
    # there, so C^2 q^k is held to [n choose k]_q^2 in exact arithmetic.
    q = float(s * s)
    exact_q, tol = Fraction(q), Fraction(1, 10**15)
    C = coefficient_table(TABLE_N, q)
    assert C.shape == (TABLE_N + 1, TABLE_N + 1)
    for n in range(TABLE_N + 1):
        assert not C[n, n + 1:].any()
        for k in range(n + 1):
            ratio = (Fraction(float(C[n, k]))**2 * exact_q**k
                     / q_binomial(n, k, exact_q)**2)
            assert (1 - tol)**2 <= ratio <= (1 + tol)**2
