"""Exact certificates of the ladder identities in rational arithmetic: the
Szego ladder here, the four-parameter ladder of r_n and the three-term
recurrence that samples r_n below.

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

import numpy as np
import pytest

from qcircle.biortho import (BiorthoParams, lowering_coefficient,
                             raising_coefficient, raising_ratio_rows)
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
    C = coefficient_table(range(TABLE_N + 1), q)
    assert C.shape == (TABLE_N + 1, TABLE_N + 1)
    for n in range(TABLE_N + 1):
        assert not C[n, n + 1:].any()
        for k in range(n + 1):
            ratio = (Fraction(float(C[n, k]))**2 * exact_q**k
                     / q_binomial(n, k, exact_q)**2)
            assert (1 - tol)**2 <= ratio <= (1 + tol)**2


# The four-parameter ladder of biortho.ladder_reports.  With q = s^2 and
# rational s, a, alpha, b, beta, r_n(z) is a rational function of z with
# rational coefficients, N(z) / (c z; q)_n with c = ab s and deg N <= n,
# since each term of its 4phi3 is (bz; q)_k (c q^k z; q)_{n-k} over that
# denominator times a rational constant.  The identities, with the raising
# one in its Pearson-reduced form (1/w) T_q[...] through the rational
# factors of raising_ratio_rows,
#
#   lowering  (c z; q)_2 D_q r_n = lowering_coefficient(n) r_{n-1}(z; lowered),
#             lowered = (qa, alpha, qb, beta), whose c is q^2 c;
#   raising   z (rho_0(z) r_{n-1}(z; raised)
#                - q rho_1(z) r_{n-1}(qz; raised)) / (1 - q)
#               = raising_coefficient r_n(z), raised = (a, q alpha, b, q beta),
#             rho_0 = (1 - alpha/z)(1 - beta/z),
#             rho_1 = -(1 - alpha beta/(s z))(1 - az)(1 - bz)
#                     / (s z (1 - c z)),
#
# cross-multiplied by Q = z (c z; q)_{n+1} (q^2 c z; q)_{n-1} (lowering) and
# Q = z^2 (c z; q)_n (raising), become P(z) = 0 for a polynomial P of degree
# at most 2n + 2 (lowering) and n + 3 (raising).  Q does not vanish on
# 0 < z < 1, as |c| < 1, so an exact zero at LADDER_POINTS > 2 MAX_LADDER_N
# + 2 distinct points there makes P, and so each identity, hold for all z.
MAX_LADDER_N = 5
LADDER_POINTS = [Fraction(j, 16) for j in range(1, 2 * MAX_LADDER_N + 4)]
LADDER_PARAMS = [  # (a, alpha, b, beta): the default set and a signed one
    tuple(Fraction(x) for x in ("0.3", "0.2", "0.4", "0.1")),
    tuple(Fraction(x) for x in ("-0.25", "0.5", "0.6", "-0.35")),
]


def qpoch(x, q, n):
    value = Fraction(1)
    for k in range(n):
        value *= 1 - x * q**k
    return value


def rn(n, z, params, s):
    """r_n(z) as the terminating 4phi3 of biortho.r_fn, summed term by term
    from q-shifted factorials."""
    a, alpha, b, beta = params
    q = s * s
    return sum(qpoch(q**-n, q, k) * qpoch(b * s, q, k) * qpoch(b * z, q, k)
               * qpoch(a * b * alpha * beta * q**(n - 1), q, k) * q**k
               / (qpoch(q, q, k) * qpoch(b * alpha, q, k)
                  * qpoch(b * beta, q, k) * qpoch(a * b * s * z, q, k))
               for k in range(n + 1))


def ratio_factors(z, params, s):
    """rho_0(z), rho_1(z): the rows of raising_ratio_rows."""
    a, alpha, b, beta = params
    return ((1 - alpha / z) * (1 - beta / z),
            -(1 - alpha * beta / (s * z)) * (1 - a * z) * (1 - b * z)
            / (s * z * (1 - a * b * s * z)))


def exact_ladder_constants(n, params, s):
    """The degree-n lowering constant and the raising constant."""
    a, alpha, b, beta = params
    q = s * s
    return (b * q**(1 - n) * (1 - a * s) * (1 - b * s) * (1 - q**n)
            * (1 - a * b * alpha * beta * q**(n - 1))
            / ((1 - q) * (1 - b * alpha) * (1 - b * beta)),
            (1 - b * alpha) * (1 - b * beta) / ((1 - q) * b))


def lowering_sides(n, z, params, s, c):
    """(c z; q)_2 D_q r_n(z) and lowering_coefficient(n) r_{n-1}(z; lowered);
    c = ab s is the identity's prefactor."""
    a, alpha, b, beta = params
    q = s * s
    lowered = (q * a, alpha, q * b, beta)
    return ((1 - c * z) * (1 - c * q * z)
            * (rn(n, z, params, s) - rn(n, q * z, params, s)) / ((1 - q) * z),
            exact_ladder_constants(n, params, s)[0] * rn(n - 1, z, lowered, s))


def raising_sides(n, z, params, s):
    """The Pearson-reduced raising identity's left side and r_n(z), which
    raising_coefficient multiplies on the right."""
    a, alpha, b, beta = params
    q = s * s
    raised = (a, q * alpha, b, q * beta)
    rho0, rho1 = ratio_factors(z, params, s)
    return (z * (rho0 * rn(n - 1, z, raised, s)
                 - q * rho1 * rn(n - 1, q * z, raised, s)) / (1 - q),
            rn(n, z, params, s))


def float_params(params, s):
    return BiorthoParams(*map(float, params), float(s * s))


def close(got, want):
    return abs(got - float(want)) <= 1e-14 * max(abs(float(want)), 1e-300)


@pytest.mark.parametrize("params", LADDER_PARAMS, ids=["default", "signed"])
@pytest.mark.parametrize("s", ROOTS)
class TestBiorthoLadderExact:
    def test_lowering(self, s, params):
        a, alpha, b, beta = params
        for n in range(1, MAX_LADDER_N + 1):
            for z in LADDER_POINTS:
                lhs, rhs = lowering_sides(n, z, params, s, a * b * s)
                assert lhs == rhs

    def test_raising(self, s, params):
        for n in range(1, MAX_LADDER_N + 1):
            up = exact_ladder_constants(n, params, s)[1]
            for z in LADDER_POINTS:
                lhs, r = raising_sides(n, z, params, s)
                assert lhs == up * r

    def test_rejected_readings_fail(self, s, params):
        # The other printed readings, settled here so that no verdict has to
        # recompute them: the raising coefficients (1 - b alpha)(1 - b
        # beta/q)/((1 - q) b) and (1 - b alpha/q)(1 - b beta/q)/((1 - q) b),
        # and the lowering prefactor (alpha beta q^{1/2} z; q)_2 (both sets
        # have ab != alpha beta).  Each breaks its identity at one or more
        # points.
        a, alpha, b, beta = params
        q = s * s
        coefficients = [(1 - b * alpha) * (1 - b * beta / q) / ((1 - q) * b),
                        (1 - b * alpha / q) * (1 - b * beta / q)
                        / ((1 - q) * b)]
        for n in range(1, MAX_LADDER_N + 1):
            raising = [raising_sides(n, z, params, s) for z in LADDER_POINTS]
            for up in coefficients:
                assert any(lhs != up * r for lhs, r in raising)
            assert any(lhs != rhs for lhs, rhs in (
                lowering_sides(n, z, params, s, alpha * beta * s)
                for z in LADDER_POINTS))

    def test_float_constants_match(self, s, params):
        p = float_params(params, s)
        for n in range(1, MAX_LADDER_N + 1):
            low, up = exact_ladder_constants(n, params, s)
            for got, want in ((lowering_coefficient(n, p), low),
                              (raising_coefficient(p), up)):
                assert close(got.real, want) and got.imag == 0

    def test_float_ratio_rows_match(self, s, params):
        rows = raising_ratio_rows(np.array([float(z) for z in LADDER_POINTS]),
                                  float_params(params, s))
        for j, z in enumerate(LADDER_POINTS):
            for k, want in enumerate(ratio_factors(z, params, s)):
                assert close(rows[k, j].real, want) and rows[k, j].imag == 0


# The three-term recurrence of biortho.r_rows, with lambda = ab alpha beta:
#
#   A_n r_{n+1} = (b s + b z - 1 - b^2 s z + A_n + C_n) r_n - C_n r_{n-1},
#   A_n = (1 - b alpha q^n)(1 - b beta q^n)(1 - lambda q^{n-1})(1 - c q^n z)
#         / [(1 - lambda q^{2n-1})(1 - lambda q^{2n})],
#   C_n = b^2 s (1 - q^n)(1 - a alpha q^{n-1})(1 - a beta q^{n-1})
#         (z - alpha beta q^n / (q s))
#         / [(1 - lambda q^{2n-2})(1 - lambda q^{2n-1})],
#
# and at n = 0 its cancelled form A_0 = (1 - b alpha)(1 - b beta)(1 - c z)
# / (1 - lambda), C_0 = 0.  Multiplied by Q = (c z; q)_n, A_n r_{n+1} is
# (c z; q)_{n+1} r_{n+1} times a constant, and the right side is affine
# times (c z; q)_n r_n plus affine times (1 - c q^{n-1} z) (c z; q)_{n-1}
# r_{n-1}: P(z) = 0 for a polynomial P of degree at most n + 1.  Q does not
# vanish on 0 < z < 1, so an exact zero at n + 2 of LADDER_POINTS proves it.
MAX_RECURRENCE_N = 6


def recurrence_sides(n, z, params, s):
    """A_n r_{n+1}(z) and the recurrence's right side."""
    a, alpha, b, beta = params
    q, lam = s * s, a * b * alpha * beta
    if n == 0:
        A = (1 - b * alpha) * (1 - b * beta) * (1 - a * b * s * z) / (1 - lam)
        C = 0
    else:
        A = ((1 - b * alpha * q**n) * (1 - b * beta * q**n)
             * (1 - lam * q**(n - 1)) * (1 - a * b * s * q**n * z)
             / ((1 - lam * q**(2 * n - 1)) * (1 - lam * q**(2 * n))))
        C = (b * b * s * (1 - q**n) * (1 - a * alpha * q**(n - 1))
             * (1 - a * beta * q**(n - 1))
             * (z - alpha * beta * q**n / (q * s))
             / ((1 - lam * q**(2 * n - 2)) * (1 - lam * q**(2 * n - 1))))
    middle = b * s + b * z - 1 - b * b * s * z + A + C
    return (A * rn(n + 1, z, params, s),
            middle * rn(n, z, params, s)
            - (C * rn(n - 1, z, params, s) if n else 0))


@pytest.mark.parametrize("params", LADDER_PARAMS, ids=["default", "signed"])
@pytest.mark.parametrize("s", ROOTS)
def test_r_rows_recurrence(s, params):
    for n in range(MAX_RECURRENCE_N + 1):
        for z in LADDER_POINTS[:n + 2]:
            lhs, rhs = recurrence_sides(n, z, params, s)
            assert lhs == rhs
