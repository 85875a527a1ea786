"""Four-parameter biorthogonal rational functions on the unit circle:
the pair {r_n}, {s_n}, their weight and total mass, ladder operators,
the Sears transformation, and the integral recursion chain behind the
biorthogonality relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circle import (CircleGrid, _shifted_points, dq_rows, gram_check,
                     gram_matrix, tq_rows)
from .errors import (DegenerateParameters, NonConvergent, UnbalancedParameters,
                     WeightUnderflow)
# qpochhammer_inf: bound for benchmarks/tests/test_bench_tracer.py's rebinding.
from .qcore import (ALGEBRAIC_TOL, QUADRATURE_TOL, UNDERFLOW_FLOOR,
                    _maybe_scalar, phi, qmultipochhammer, qpochhammer,
                    qpochhammer_inf, qpochhammer_inf_each, qval,
                    representable)
from .report import IdentityReport, worst
from .szego import circle_weight, szego_weight


# (a, alpha, b, beta) of verify, gram and eval when none are given.
DEFAULT_PARAMS = (0.3, 0.2, 0.4, 0.1)

# weight_rows' log-Laurent series: the tail a set's truncation may leave,
# a relative error of the row, and the most terms it may take.
_SERIES_TAIL = 1e-16
_SERIES_TERMS = 1_000_000


@dataclass(frozen=True)
class BiorthoParams:
    """The four parameters (a, alpha, b, beta) of the rational family.

    All four must lie strictly inside the unit disk so that the denominator
    factors of the weight have no zeros on |z| = 1, and the pair products
    a*alpha, b*alpha, a*beta, b*beta, a*b*alpha*beta must stay away from 1
    (every closed form divides by those).
    """

    a: complex
    alpha: complex
    b: complex
    beta: complex
    q: float

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "q", qval(self.q))
        for name in ("a", "alpha", "b", "beta"):
            if not abs(getattr(self, name)) < 1.0:  # NaN fails too
                raise ValueError(f"|{name}| must be < 1, got {getattr(self, name)}")
        a, alpha, b, beta = self.a, self.alpha, self.b, self.beta
        for label, prod in (("a*alpha", a * alpha), ("b*alpha", b * alpha),
                            ("a*beta", a * beta), ("b*beta", b * beta),
                            ("a*b*alpha*beta", a * b * alpha * beta)):
            if abs(1.0 - prod) < 1e-10:
                raise DegenerateParameters(f"denominator product {label} = 1")

    def swapped(self) -> "BiorthoParams":
        """The parameter map (a, alpha, b, beta) -> (conj alpha, conj a,
        conj beta, conj b) that turns r_n into s_n; an involution."""
        return BiorthoParams(np.conj(self.alpha), np.conj(self.a),
                             np.conj(self.beta), np.conj(self.b), self.q)

    def as_dict(self) -> dict:
        return {"a": self.a, "alpha": self.alpha, "b": self.b,
                "beta": self.beta, "q": self.q}


def r_fn(n: int, z, p: BiorthoParams):
    """r_n(z): terminating balanced 4phi3 with numerator parameters q^{-n},
    a b alpha beta q^{n-1}, b q^{1/2}, b z and denominator b alpha, b beta,
    a b q^{1/2} z, argument q; rational in z.  r_rows' one-degree table."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    z = np.asarray(z, dtype=complex)
    # A lone point goes in twice: numpy rounds a one-element complex
    # product unlike its array loops, and each value is its table row's.
    row = r_rows(range(n, n + 1), p, np.resize(z, max(z.size, 2)), 0)[0, 0]
    return _maybe_scalar(row[:z.size].reshape(z.shape))


def s_fn(n: int, z, p: BiorthoParams):
    """s_n(z) = r_n(z) at the conjugate-swapped parameters."""
    return r_fn(n, z, p.swapped())


def biortho_weight(z, p: BiorthoParams):
    """Weight: (q^{1/2}z, q^{1/2}/z, ab q^{1/2}z, alpha beta q^{1/2}/z; q)_inf
    over (az, alpha/z, bz, beta/z; q)_inf, i.e. the Szego weight times the
    parameter factors, multiplied as ((S C) D) / den, the six q-products
    beyond the Szego pair from one kernel call: the definition that
    weight_rows' series is certified against and that eval bweight prints.
    """
    rq, z = math.sqrt(p.q), np.asarray(z, dtype=complex)
    C, D, *den = map(np.asarray, qpochhammer_inf_each([
        p.a * p.b * rq * z, p.alpha * p.beta * rq / z,
        p.a * z, p.alpha / z, p.b * z, p.beta / z], p.q))
    return _maybe_scalar(szego_weight(z, p.q) * C * D / math.prod(
        den, start=np.ones(z.shape, dtype=complex)))


def _series_terms(r: float, qv: float) -> int:
    """The K terms of _log_series_rows' series for a set whose largest
    |parameter| is r: past K each of a term's six powers is at most r^k and
    k (1 - q^k) >= 1 - q, so the tail is at most 6 r^(K+1) / ((1 - q)(1 - r)),
    here <= _SERIES_TAIL.  Past _SERIES_TERMS terms, raises NonConvergent."""
    if r == 0.0:
        return 0
    bound = _SERIES_TAIL * (1.0 - qv) * (1.0 - r) / 6.0
    terms = max(0, math.ceil(math.log(bound) / math.log(r)) - 1)
    if terms > _SERIES_TERMS:
        raise NonConvergent(f"the log-Laurent series of the weight at q={qv!r}"
                            f" and max|parameter|={r:.6g} needs {terms:,} "
                            f"terms to meet tail={_SERIES_TAIL:g}, over the "
                            f"cap of {_SERIES_TERMS:,}")
    return terms


def _log_series_rows(z, qv, sets) -> list:
    """exp L at the N grid nodes z_j = e^{2 pi i j/N} for each set, L the
    log of the weight's factors beyond the Szego pair, (ab q^{1/2} z,
    alpha beta q^{1/2}/z; q)_inf / (az, alpha/z, bz, beta/z; q)_inf, by
    log (x; q)_inf = -sum_k x^k / (k (1 - q^k)) (Gasper and Rahman, Basic
    Hypergeometric Series, 2nd ed., 1.3):

      L = sum_{k>=1} [(a^k + b^k - (ab q^{1/2})^k) z^k
                      + (alpha^k + beta^k - (alpha beta q^{1/2})^k) z^{-k}]
                     / (k (1 - q^k)).

    Each set's own _series_terms terms fold mod N into the coefficients of
    z^0..z^{N-1}, a block of N at a time; one inverse FFT of every set sums
    them at the nodes, and one exp.  A row's bits depend on its set alone."""
    n, log_q, rq = len(z), math.log(qv), math.sqrt(qv)
    folded = np.zeros((len(sets), n), dtype=complex)
    for row, p in zip(folded, sets):
        terms = _series_terms(max(map(abs, (p.a, p.alpha, p.b, p.beta))), qv)
        ab, alpha_beta = p.a * p.b * rq, p.alpha * p.beta * rq
        for lo in range(1, terms + 1, n):
            k = np.arange(lo, min(lo + n, terms + 1))
            scale = -1.0 / (k * np.expm1(k * log_q))  # 1 / (k (1 - q^k))
            row[k % n] += (p.a**k + p.b**k - ab**k) * scale
            row[-k % n] += (p.alpha**k + p.beta**k - alpha_beta**k) * scale
    return list(np.exp(np.fft.ifft(folded, norm="forward")))


def weight_rows(grid: CircleGrid, sets) -> np.ndarray:
    """The weight at the grid nodes for each set, shape (P, N), with no
    q-product: the grid's Szego circle row (szego.circle_weight at the total
    mass 1/(q;q)_inf) times exp of the set's log-Laurent series, the sets
    the grid does not hold yet summed in one _log_series_rows call.
    biortho_weight_series holds them to biortho_weight's q-products.
    ValueError if one overflows."""
    (q,) = {p.q for p in sets}  # one base for the batch
    S = circle_weight(grid, q)
    with representable(f"the biortho weight rows overflow at q={q}"):
        return np.stack([S * E for E in grid.rows(_log_series_rows, q, sets)])


def shifted_weight_rows(grid: CircleGrid, p: BiorthoParams,
                        upper: int) -> np.ndarray:
    """The weight at shift_n = (a, q^n alpha, b, q^n beta) on the grid,
    n = 0..upper, shape (upper+1, N), without a q-product: weight_rows at
    p times (alpha/z, beta/z; q)_n / (c/z; q)_{2n}, c = alpha beta q^{1/2},
    whose denominator vanishes only inside the disk."""
    qv, z = p.q, grid.nodes
    c = p.alpha * p.beta * math.sqrt(qv)
    rows = [weight_rows(grid, [p])[0]]
    for n in range(upper):
        qn = qv**n
        step = ((1.0 - qn * p.alpha / z) * (1.0 - qn * p.beta / z)
                / ((1.0 - c * qn * qn / z) * (1.0 - c * qn * qn * qv / z)))
        rows.append(rows[-1] * step)
    return np.stack(rows)


def kappa_each(sets) -> list:
    """Total mass of the weight in closed form for each parameter set:
    (aq^{1/2}, alpha q^{1/2}, bq^{1/2}, beta q^{1/2}, ab alpha beta; q)_inf
    over (q, a alpha, b alpha, a beta, b beta; q)_inf, every q-product from
    one kernel call.  Raises WeightUnderflow when a denominator underflows
    below the smallest normal float, as it does near q = 1.
    """
    (qv,) = {p.q for p in sets}  # one base for the batch
    rq = math.sqrt(qv)
    products = iter(qpochhammer_inf_each([x for p in sets for x in (
        p.a * rq, p.alpha * rq, p.b * rq, p.beta * rq,
        p.a * p.b * p.alpha * p.beta, qv, p.a * p.alpha, p.b * p.alpha,
        p.a * p.beta, p.b * p.beta)], qv))
    kappas = []
    for f in zip(*[products] * 10):  # multiplied as qmultipochhammer does
        num, den = (math.prod(f[i:i + 5], start=1.0 + 0.0j) for i in (0, 5))
        if abs(den) < UNDERFLOW_FLOOR:
            raise WeightUnderflow(
                f"(q, a alpha, b alpha, a beta, b beta; q)_inf underflowed "
                f"below the smallest normal float at q={qv}: the total mass "
                f"kappa is not representable")
        kappas.append(num / den)
    return kappas


def kappa_closed(p: BiorthoParams) -> complex:
    """kappa_each's P = 1 case."""
    return kappa_each([p])[0]


def biortho_norms(max_n: int, p: BiorthoParams) -> list:
    """Closed-form diagonal of the biorthogonality relation, n = 0..max_n:
    kappa * (q, a alpha, ab alpha beta q^{n-1}; q)_n (b beta)^n
    / [(b beta; q)_n (ab alpha beta; q)_{2n}], with one kappa_closed.
    Raises DegenerateParameters at b beta = 0 and max_n >= 1, where every
    h_n with n >= 1 vanishes and the relative diagonal check divides by it,
    and WeightUnderflow when an h_n underflows below the smallest normal
    float, as about (b beta)^n does (n >= 220 at the default set, q = 0.5):
    a subnormal h_n has lost its digits, and 0 would divide by zero.
    """
    if max_n < 0:
        raise ValueError("index must be nonnegative")
    if max_n >= 1 and p.b * p.beta == 0:
        raise DegenerateParameters(
            "b*beta = 0: every norm h_n with n >= 1 vanishes")
    qv = p.q
    abab = p.a * p.b * p.alpha * p.beta
    kappa = kappa_closed(p)
    norms = []
    for n in range(max_n + 1):
        num = (qmultipochhammer((qv, p.a * p.alpha, abab * qv**(n - 1)), qv, n)
               * (p.b * p.beta)**n)
        den = qpochhammer(p.b * p.beta, qv, n) * qpochhammer(abab, qv, 2 * n)
        norms.append(kappa * num / den)
        if abs(norms[-1]) < UNDERFLOW_FLOOR:
            raise WeightUnderflow(
                f"the closed-form norm h_{n} underflowed below the smallest "
                f"normal float at q={qv}: the norms h_n, n >= {n}, are not "
                f"representable")
    return norms


def weight_symmetry_reports(p: BiorthoParams,
                            grid: CircleGrid) -> list:
    """w(1/z; a, alpha, b, beta) = w(z; alpha, a, beta, b) on the grid, both
    sides biortho_weight's q-products, as biortho_weight_symmetry; then
    weight_rows at (alpha, a, beta, b) held to that right-hand side,
    pointwise relative, as biortho_weight_series, which certifies the
    series rows every verdict reads.  Both to ALGEBRAIC_TOL."""
    swapped = BiorthoParams(p.alpha, p.a, p.beta, p.b, p.q)
    lhs = np.asarray(biortho_weight(1.0 / grid.nodes, p))
    rhs = np.asarray(biortho_weight(grid.nodes, swapped))
    series = weight_rows(grid, [swapped])[0]
    return [IdentityReport(name, residual, ALGEBRAIC_TOL, grid.n_nodes,
                           p.as_dict())
            for name, residual in (
                ("biortho_weight_symmetry", worst(lhs - rhs)),
                ("biortho_weight_series",
                 worst(series - rhs, np.abs(rhs))))]


def imn_table(size: int, p: BiorthoParams, grid: CircleGrid,
              w: np.ndarray) -> np.ndarray:
    """I[m, n] = (1/2 pi i) \\oint w r_n conj(s_m) dz/z by quadrature,
    m, n < size, as circle.gram_matrix of two r_rows(range(size)) tables,
    the s_m (at p.swapped()) and the r_n, and w, the weight at p on the
    grid (weight_rows', or a row the caller derived).  I[0, 0] is the total
    mass, as r_0 = s_0 = 1."""
    z = grid.nodes
    return gram_matrix(r_rows(range(size), p.swapped(), z, 0)[0],
                       r_rows(range(size), p, z, 0)[0], w)


def biortho_gram(max_n: int, p: BiorthoParams, grid: CircleGrid,
                 tol: float = QUADRATURE_TOL):
    """gram_check's (G, norms, report) of imn_table(max_n + 1) against the
    closed-form diagonal biortho_norms; at max_n = 0, the total mass."""
    norms = biortho_norms(max_n, p)  # an underflowed kappa raises first
    G = imn_table(max_n + 1, p, grid, weight_rows(grid, [p])[0])
    return gram_check("biorthogonality", G, norms, tol, grid.n_nodes,
                      p.as_dict())


def lowering_coefficient(n: int, p: BiorthoParams) -> complex:
    """Scalar in front of r_{n-1}(z; qa, alpha, qb, beta) in the lowering
    identity."""
    qv = p.q
    rq = math.sqrt(qv)
    abab = p.a * p.b * p.alpha * p.beta
    return (p.b * qv**(1 - n) * (1.0 - p.a * rq) * (1.0 - p.b * rq)
            * (1.0 - qv**n) * (1.0 - abab * qv**(n - 1))
            / ((1.0 - qv) * (1.0 - p.b * p.alpha) * (1.0 - p.b * p.beta)))


def raising_coefficient(p: BiorthoParams) -> complex:
    """Scalar (1 - b alpha)(1 - b beta) / ((1 - q) b) of the raising identity.

    The recursion chain for the biorthogonality integrals fixes this value.
    """
    qv = p.q
    return ((1.0 - p.b * p.alpha) * (1.0 - p.b * p.beta) / ((1.0 - qv) * p.b))


def r_rows(degrees: range, p: BiorthoParams, z, depth: int) -> np.ndarray:
    """Rows r_n(q^k z; p), shape (depth+1, len(degrees), N), n in `degrees`,
    a range, as one table from r_fn's three-term recurrence in n at
    t = q^k z (the normalized Askey-Wilson recurrence, Koekoek, Lesky and
    Swarttouw 14.1, times A = b q^{1/4} t^{1/2}), r_0 = 1:

      A_n r_{n+1} = (b q^{1/2} - 1 + (b - b^2 q^{1/2}) t + A_n + C_n) r_n
                    - C_n r_{n-1},
      A_n = K_n (1 - ab q^{n+1/2} t),   C_n = L_n (t - alpha beta q^{n-3/2}),

    with scalars K_n, L_n (below).  At n = 0 they take their cancelled
    forms, K_0 = (1 - b alpha)(1 - b beta)/(1 - lambda) and C_0 = 0, as the
    general ones read 0/0 at lambda = ab alpha beta = q or q^2.  Every table
    runs the same steps from n = 0, so a row's bits do not depend on which
    degrees, or (N >= 2) how many points, share its table.  ValueError
    where a row is not finite, as at a pole t = q^{-n-1/2}/(ab) of r_{n+1},
    or the last two rows underflow at a point: one subnormal, or both below
    the smallest normal float (a 0 next to a normal value is a root; at
    b = 0 every r_n, n >= 1, is 0).  Every r_n and s_n is sampled here."""
    qv, rq = p.q, math.sqrt(p.q)
    a, alpha, b, beta = p.a, p.alpha, p.b, p.beta
    lam, size = a * b * alpha * beta, max(degrees, default=-1) + 1
    t = np.stack(_shifted_points(z, qv, depth))
    table = np.empty((depth + 1, size, *np.shape(z)), dtype=complex)
    table[:, :1] = 1.0
    work = np.empty_like(t)
    with representable(f"r_n is not finite at a point of its table, n < "
                       f"{size}, q={qv}: a pole q^(-n-1/2)/(ab) or an "
                       f"overflow"):
        for n in range(size - 1):
            qn = qv**n
            # lambda q^{2n-1} and lambda q^{2n}
            odd, even = lam * qn * qn / qv, lam * qn * qn
            K = ((1.0 - b * alpha * qn) * (1.0 - b * beta * qn)
                 * ((1.0 - lam * qn / qv) / (1.0 - odd) if n else 1.0)
                 / (1.0 - even))
            L = (b * b * rq * (1.0 - qn) * (1.0 - a * alpha * qn / qv)
                 * (1.0 - a * beta * qn / qv)
                 / ((1.0 - odd / qv) * (1.0 - odd)) if n else 0.0)
            u, m = a * b * rq * qn, alpha * beta * qn / (qv * rq)
            out = table[:, n + 1]
            np.multiply(t, b - b * b * rq - K * u + L, out=out)
            out += b * rq - 1.0 + K - L * m
            out *= table[:, n]
            if n:  # C_0 = 0
                np.subtract(t, m, out=work)
                work *= L
                work *= table[:, n - 1]
                out -= work
            np.multiply(t, -K * u, out=work)
            work += K
            out /= work
    last = np.abs(table[:, -2:])
    tiny = last < UNDERFLOW_FLOOR
    if b and np.any(tiny & ((last > 0) | tiny[:, ::-1])):
        raise ValueError(f"r_{size - 1} underflowed below the smallest "
                         f"normal float at a point of its table, q={qv}")
    return table[:, degrees.start:]


def raising_ratio_rows(z, p: BiorthoParams) -> np.ndarray:
    """Rows k = 0, 1 of (alpha beta q^{1/2}/(q^k z); q)_2 w(q^k z; raised)
    / w(z; p), raised = (a, q alpha, b, q beta): (1 - alpha/z)(1 - beta/z)
    and -(1 - alpha beta q^{-1/2}/z)(1 - az)(1 - bz) / (q^{1/2} z
    (1 - ab q^{1/2} z)), whose denominators do not vanish on |z| = 1."""
    rq, z = math.sqrt(p.q), np.asarray(z, dtype=complex)
    return np.stack([(1.0 - p.alpha / z) * (1.0 - p.beta / z),
                     -(1.0 - p.alpha * p.beta / (rq * z)) * (1.0 - p.a * z)
                     * (1.0 - p.b * z) / (rq * z * (1.0 - p.a * p.b * rq * z))])


def ladder_reports(max_n: int, p: BiorthoParams, grid: CircleGrid,
                   tol: float = QUADRATURE_TOL) -> list:
    """Max residuals over the grid, from one table of r_n rows at p, one
    at lowered = (qa, alpha, qb, beta) and one at raised = (a, q alpha, b,
    q beta), for each n = 1..max_n:

      lowering  (ab q^{1/2} z; q)_2 D_q r_n
                  = lowering_coefficient(n) r_{n-1}(z; lowered);
      raising   T_q[(alpha beta q^{1/2}/z; q)_2 w(.; raised)
                    r_{n-1}(.; raised)] = raising_coefficient w r_n,
                divided by w = w(z; p): T_q of raising_ratio_rows times
                r_{n-1}(.; raised), relative to max(1, |rhs|).
    """
    if max_n < 1:
        return []
    qv, z, ab = p.q, grid.nodes, p.a * p.b * math.sqrt(p.q)
    lowered = replace(p, a=qv * p.a, b=qv * p.b)
    raised = replace(p, alpha=qv * p.alpha, beta=qv * p.beta)
    R = r_rows(range(max_n + 1), p, z, 1)
    dq = dq_rows(R[:, 1:], z[None], qv)[0]
    target = (np.array([lowering_coefficient(n, p)
                        for n in range(1, max_n + 1)])
              [:, None] * r_rows(range(max_n), lowered, z, 0)[0])
    lowering = worst((1.0 - ab * z) * (1.0 - ab * qv * z) * dq - target)
    lhs = tq_rows(raising_ratio_rows(z, p)[:, None]
                  * r_rows(range(max_n), raised, z, 1), z[None], qv)[0]
    raising = [worst(left - right, max(1.0, worst(right))) for left, right
               in zip(lhs, raising_coefficient(p) * R[0, 1:])]
    return [IdentityReport(f"biortho_{name}", residuals[n - 1], tol,
                           grid.n_nodes, {**p.as_dict(), "n": n})
            for n in range(1, max_n + 1)
            for name, residuals in (("lowering", lowering),
                                    ("raising", raising))]


def sears_transform(n: int, A, B, C, D, E, F, q):
    """Prefactor and transformed parameters of sears_check's transformation."""
    qv = qval(q)
    pref = (qpochhammer(E / A, qv, n) * qpochhammer(F / A, qv, n)
            / (qpochhammer(E, qv, n) * qpochhammer(F, qv, n)) * A**n)
    return pref, (A, D / B, D / C, D, A * qv**(1 - n) / E,
                  A * qv**(1 - n) / F)


def sears_check(n: int, A, B, C, D, E, F, q,
                tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Both sides of the Sears transformation of a terminating balanced
    4phi3, summed independently:

        4phi3(q^{-n}, A, B, C; D, E, F; q, q)
          = (E/A, F/A; q)_n / (E, F; q)_n * A^n
            * 4phi3(q^{-n}, A, D/B, D/C; D, A q^{1-n}/E, A q^{1-n}/F; q, q)

    requires the balance condition A B C q^{1-n} = D E F, to a relative
    1e-12.
    """
    qv = qval(q)
    A, B, C, D, E, F = (complex(x) for x in (A, B, C, D, E, F))
    bal = A * B * C * qv**(1 - n)
    if abs(bal - D * E * F) > 1e-12 * max(abs(D * E * F), 1e-30):
        raise UnbalancedParameters(
            f"A*B*C*q^(1-n) = {bal} but D*E*F = {D * E * F}")
    lhs = phi(n, (A, B, C), (D, E, F), qv)
    pref, args = sears_transform(n, A, B, C, D, E, F, qv)
    rhs = pref * phi(n, args[:3], args[3:], qv)
    residual = worst(lhs - rhs, max(1.0, abs(lhs), abs(rhs)))
    return IdentityReport("sears_transformation", residual, tol, 0,
                          {"n": n, "A": A, "B": B, "C": C,
                           "D": D, "E": E, "F": F, "q": qv})


def imn_step_coefficient(m: int, p: BiorthoParams) -> complex:
    """Scalar relating I_{m,n} to I_{m-1,n-1} at (a, q alpha, b, q beta)."""
    qv = p.q
    rq = math.sqrt(qv)
    abab = p.a * p.alpha * p.b * p.beta
    return (-p.b * p.beta * qv
            * (1.0 - rq * p.alpha) * (1.0 - rq * p.beta)
            * (1.0 - qv**-m) * (1.0 - abab * qv**(m - 1))
            / ((1.0 - p.alpha * p.b) * (1.0 - p.a * p.beta)
               * (1.0 - p.b * p.beta)**2))


def imn_iterated_coefficient(n: int, p: BiorthoParams) -> complex:
    """Scalar relating I_{n,n} to I_{0,0}(a, q^n alpha, b, q^n beta), n steps
    chained: (-b beta)^n q^{n(n+1)/2} (q^{1/2} alpha, q^{1/2} beta, q^{-n},
    ab alpha beta q^{n-1}; q)_n / (alpha b, a beta, b beta, b beta; q)_n."""
    qv = p.q
    rq = math.sqrt(qv)
    abab = p.a * p.b * p.alpha * p.beta
    num = qmultipochhammer((rq * p.alpha, rq * p.beta, qv**-n,
                            abab * qv**(n - 1)), qv, n)
    den = qmultipochhammer((p.alpha * p.b, p.a * p.beta, p.b * p.beta,
                            p.b * p.beta), qv, n)
    return (-p.b * p.beta)**n * qv**(n * (n + 1) // 2) * num / den


def recursion_chain_reports(table, p: BiorthoParams, grid: CircleGrid,
                            kappa: complex,
                            tol: float = QUADRATURE_TOL) -> list:
    """The recursion chain behind biorthogonality, from `table`, imn_table at
    p up to degree upper (a leading block of biortho_gram's G), and one at
    shift_1, where shift_n = (a, q^n alpha, b, q^n beta), the weight at
    shift_n from shifted_weight_rows, and kappa, the closed-form total mass
    at p (biortho_gram's norms[0]); in order:

      biortho_weight_shift     shifted_weight_rows' row at shift_upper
                               against its weight_rows row, pointwise
                               relative, to ALGEBRAIC_TOL, upper >= 1;
      imn_recursion_step       I_{m,n} = imn_step_coefficient(m)
                               I_{m-1,n-1}(shift_1), 1 <= m, n <= upper;
      i00_shifted_closed_form  I_{0,0}(shift_n) = kappa (a alpha, b alpha,
                               a beta, b beta; q)_n / [(q^{1/2} alpha,
                               q^{1/2} beta; q)_n (ab alpha beta; q)_{2n}],
                               n <= upper;
      imn_recursion_iterated   I_{n,n} = imn_iterated_coefficient(n)
                               I_{0,0}(shift_n), n = upper >= 2.

    I_{0,0} is the total mass, as r_0 = s_0 = 1; quadrature is the arbiter.
    """
    qv, rq = p.q, math.sqrt(p.q)
    params, upper, table = p.as_dict(), len(table) - 1, table.tolist()
    rows, reports = shifted_weight_rows(grid, p, upper), []
    if upper >= 1:
        direct = weight_rows(grid, [replace(
            p, alpha=qv**upper * p.alpha, beta=qv**upper * p.beta)])[0]
        reports.append(IdentityReport(
            "biortho_weight_shift",
            worst(rows[upper] - direct, np.abs(direct)), ALGEBRAIC_TOL,
            grid.n_nodes, {**params, "n": upper}))
        shift_1 = replace(p, alpha=qv * p.alpha, beta=qv * p.beta)
        lowered = imn_table(upper, shift_1, grid, rows[1]).tolist()
        reports += [IdentityReport(
            "imn_recursion_step",
            worst(table[m][n] - imn_step_coefficient(m, p)
                  * lowered[m - 1][n - 1]),
            tol, grid.n_nodes, {**params, "m": m, "n": n})
            for m in range(1, upper + 1) for n in range(1, upper + 1)]
    for n in range(upper + 1):
        mass = complex(np.mean(rows[n]))
        num = qmultipochhammer((p.a * p.alpha, p.b * p.alpha, p.a * p.beta,
                                p.b * p.beta), qv, n)
        den = (qmultipochhammer((rq * p.alpha, rq * p.beta), qv, n)
               * qpochhammer(p.a * p.b * p.alpha * p.beta, qv, 2 * n))
        closed = kappa * num / den
        reports.append(IdentityReport(
            "i00_shifted_closed_form", worst(mass - closed, abs(closed)),
            tol, grid.n_nodes, {**params, "n": n}))
    if upper >= 2:  # mass is I_{0,0}(shift_upper)
        chained = imn_iterated_coefficient(upper, p) * mass
        reports.append(IdentityReport(
            "imn_recursion_iterated", worst(table[upper][upper] - chained),
            tol, grid.n_nodes, {**params, "m": upper, "n": upper}))
    return reports


def random_params(rng: np.random.Generator, q) -> BiorthoParams:
    """Draw a valid parameter set: magnitudes uniform in [0.05, 0.6], phases
    uniform."""
    qv = qval(q)

    def draw():
        mag = rng.uniform(0.05, 0.6)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        return mag * np.exp(1j * ph)

    a, b, alpha, beta = draw(), draw(), draw(), draw()
    return BiorthoParams(a, alpha, b, beta, qv)
