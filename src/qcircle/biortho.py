"""Four-parameter biorthogonal rational functions on the unit circle:
the pair {r_n}, {s_n}, their weight and total mass, ladder operators,
the Sears transformation, and the integral recursion chain behind the
biorthogonality relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .circle import CircleGrid, dq_rows, gram_check, shifted, tq_rows
from .errors import DegenerateParameters, UnbalancedParameters
from .qcore import (ALGEBRAIC_TOL, QUADRATURE_TOL, PhiSpec, _maybe_scalar, phi,
                    qpochhammer, qpochhammer_inf, qval)
from .report import IdentityReport


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
            if abs(getattr(self, name)) >= 1.0:
                raise ValueError(f"|{name}| must be < 1, got {getattr(self, name)}")
        for label, prod in self.pair_products().items():
            if abs(1.0 - prod) < 1e-10:
                raise DegenerateParameters(f"denominator product {label} = 1")

    def pair_products(self) -> dict:
        return {
            "a*alpha": self.a * self.alpha,
            "b*alpha": self.b * self.alpha,
            "a*beta": self.a * self.beta,
            "b*beta": self.b * self.beta,
            "a*b*alpha*beta": self.a * self.b * self.alpha * self.beta,
        }

    def with_params(self, **kw) -> "BiorthoParams":
        return replace(self, **kw)

    def swapped(self) -> "BiorthoParams":
        """The parameter map (a, alpha, b, beta) -> (conj alpha, conj a,
        conj beta, conj b) that turns r_n into s_n; an involution."""
        return BiorthoParams(np.conj(self.alpha), np.conj(self.a),
                             np.conj(self.beta), np.conj(self.b), self.q)

    def as_dict(self) -> dict:
        return {"a": self.a, "alpha": self.alpha, "b": self.b,
                "beta": self.beta, "q": self.q}


def r_fn(n: int, z, p: BiorthoParams):
    """r_n(z): terminating balanced 4phi3 with numerator parameters
    q^{-n}, a b alpha beta q^{n-1}, b q^{1/2}, b z and denominator
    b alpha, b beta, a b q^{1/2} z, argument q.  Rational in z; vectorized
    over z via the term recurrence.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    qv = p.q
    rq = math.sqrt(qv)
    z = np.asarray(z, dtype=complex)
    abab = p.a * p.b * p.alpha * p.beta * qv**(n - 1)
    brq = p.b * rq
    t = np.ones(z.shape, dtype=complex)
    total = t.copy()
    for k in range(n):
        qk = qv**k
        num = ((1.0 - qv**(k - n)) * (1.0 - abab * qk)
               * (1.0 - brq * qk) * (1.0 - p.b * z * qk))
        den = ((1.0 - qv**(k + 1)) * (1.0 - p.b * p.alpha * qk)
               * (1.0 - p.b * p.beta * qk) * (1.0 - p.a * p.b * rq * z * qk))
        t = t * (num / den) * qv
        total += t
    return _maybe_scalar(total)


def s_fn(n: int, z, p: BiorthoParams):
    """s_n(z) = r_n(z) at the conjugate-swapped parameters."""
    return r_fn(n, z, p.swapped())


def biortho_weight(z, p: BiorthoParams, tol: float = 1e-15):
    """Weight: (q^{1/2}z, q^{1/2}/z, ab q^{1/2}z, alpha beta q^{1/2}/z; q)_inf
    over (az, alpha/z, bz, beta/z; q)_inf.
    """
    qv = p.q
    rq = math.sqrt(qv)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("weight undefined at z = 0")
    num = np.ones(z.shape, dtype=complex)
    for arg in (rq * z, rq / z, p.a * p.b * rq * z, p.alpha * p.beta * rq / z):
        num = num * np.asarray(qpochhammer_inf(arg, qv, tol))
    den = np.ones(z.shape, dtype=complex)
    for arg in (p.a * z, p.alpha / z, p.b * z, p.beta / z):
        den = den * np.asarray(qpochhammer_inf(arg, qv, tol))
    return _maybe_scalar(num / den)


def kappa_closed(p: BiorthoParams, tol: float = 1e-15) -> complex:
    """Total mass of the weight in closed form:
    (aq^{1/2}, alpha q^{1/2}, bq^{1/2}, beta q^{1/2}, ab alpha beta; q)_inf
    over (q, a alpha, b alpha, a beta, b beta; q)_inf.
    """
    qv = p.q
    rq = math.sqrt(qv)
    num = 1.0 + 0.0j
    for arg in (p.a * rq, p.alpha * rq, p.b * rq, p.beta * rq,
                p.a * p.b * p.alpha * p.beta):
        num *= qpochhammer_inf(arg, qv, tol)
    den = 1.0 + 0.0j
    for arg in (qv, p.a * p.alpha, p.b * p.alpha, p.a * p.beta, p.b * p.beta):
        den *= qpochhammer_inf(arg, qv, tol)
    if abs(den) < 1e-280:
        raise DegenerateParameters("total-mass denominator product vanished")
    return num / den


def biortho_norm(n: int, p: BiorthoParams) -> complex:
    """Closed-form diagonal of the biorthogonality relation:
    kappa * (q, a alpha, ab alpha beta q^{n-1}; q)_n (b beta)^n
    / [(b beta; q)_n (ab alpha beta; q)_{2n}].
    """
    qv = p.q
    abab = p.a * p.b * p.alpha * p.beta
    num = (qpochhammer(qv, qv, n) * qpochhammer(p.a * p.alpha, qv, n)
           * qpochhammer(abab * qv**(n - 1), qv, n) * (p.b * p.beta)**n)
    den = qpochhammer(p.b * p.beta, qv, n) * qpochhammer(abab, qv, 2 * n)
    return kappa_closed(p) * num / den


def kappa_check(p: BiorthoParams, grid: CircleGrid,
                tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Closed-form total mass against the quadrature of the weight."""
    closed = kappa_closed(p)
    quad = complex(np.mean(grid.rows(biortho_weight, p.q, 0, p)[0]))
    residual = abs(quad - closed) / abs(closed)
    return IdentityReport("biortho_total_mass", residual, tol, grid.n_nodes,
                          p.as_dict())


def weight_symmetry_check(p: BiorthoParams, grid: CircleGrid,
                          tol: float = ALGEBRAIC_TOL) -> IdentityReport:
    """w(1/z; a, alpha, b, beta) = w(z; alpha, a, beta, b) on the grid.

    The literal unswapped reading w(1/z) = w(z) only holds when alpha = a and
    beta = b; its residual is reported in the notes for reference.
    """
    z = grid.nodes
    lhs = np.asarray(biortho_weight(1.0 / z, p))
    swapped = BiorthoParams(p.alpha, p.a, p.beta, p.b, p.q)
    rhs = np.asarray(biortho_weight(z, swapped))
    residual = float(np.max(np.abs(lhs - rhs)))
    literal = float(np.max(np.abs(lhs - np.asarray(biortho_weight(z, p)))))
    return IdentityReport("biortho_weight_symmetry", residual, tol,
                          grid.n_nodes, p.as_dict(),
                          notes={"literal_unswapped_residual": literal})


def biortho_gram(max_n: int, p: BiorthoParams, grid: CircleGrid,
                 tol: float = QUADRATURE_TOL):
    """G[m][n] = (1/2 pi i) \\oint w r_n conj(s_m) dz/z by quadrature, as
    gram_check's (G, report) against the closed-form diagonal biortho_norm."""
    z, degrees = grid.nodes, range(max_n + 1)
    return gram_check("biorthogonality", [s_fn(m, z, p) for m in degrees],
                      [r_fn(n, z, p) for n in degrees],
                      grid.rows(biortho_weight, p.q, 0, p)[0],
                      [biortho_norm(n, p) for n in degrees], tol, p.as_dict(),
                      max_n=max_n)


def lowering_coefficient(n: int, p: BiorthoParams) -> complex:
    """Scalar in front of r_{n-1}(z; qa, alpha, qb, beta) in the lowering
    identity."""
    qv = p.q
    rq = math.sqrt(qv)
    abab = p.a * p.b * p.alpha * p.beta
    return (p.b * qv**(1 - n) * (1.0 - p.a * rq) * (1.0 - p.b * rq)
            * (1.0 - qv**n) * (1.0 - abab * qv**(n - 1))
            / ((1.0 - qv) * (1.0 - p.b * p.alpha) * (1.0 - p.b * p.beta)))


def _lowering_residual(u: complex, n: int, p: BiorthoParams,
                       grid: CircleGrid) -> float:
    """max |(u q^{1/2} z; q)_2 D_q r_n - coeff r_{n-1}(z; qa, alpha, qb, beta)|."""
    qv, z = p.q, grid.nodes
    rq = math.sqrt(qv)
    lowered = p.with_params(a=qv * p.a, b=qv * p.b)
    dq = dq_rows(shifted(partial(r_fn, n, p=p), z, qv, 1), z, qv)[0]
    rhs = lowering_coefficient(n, p) * r_fn(n - 1, z, lowered)
    pref = (1.0 - u * rq * z) * (1.0 - u * rq * qv * z)
    return float(np.max(np.abs(pref * dq - rhs)))


def lowering_biortho_check(n: int, p: BiorthoParams, grid: CircleGrid,
                           tol: float = QUADRATURE_TOL) -> IdentityReport:
    """(ab q^{1/2} z; q)_2 D_q r_n = coeff * r_{n-1}(z; qa, alpha, qb, beta)."""
    if n < 1:
        raise ValueError("lowering needs n >= 1")
    residual = _lowering_residual(p.a * p.b, n, p, grid)
    return IdentityReport("biortho_lowering", residual, tol, grid.n_nodes,
                          {**p.as_dict(), "n": n})


def raising_coefficient(p: BiorthoParams) -> complex:
    """Scalar (1 - b alpha)(1 - b beta) / ((1 - q) b) of the raising identity.

    The recursion chain for the biorthogonality integrals fixes this value;
    see variant_reconciliation for the other printed candidates.
    """
    qv = p.q
    return ((1.0 - p.b * p.alpha) * (1.0 - p.b * p.beta) / ((1.0 - qv) * p.b))


def _raised(c: complex, m: int, p: BiorthoParams, grid: CircleGrid):
    """T_q[(c/z; q)_2 w(z; p) r_m(z; p)] at the grid nodes."""
    z = grid.nodes
    pref = np.stack([(1.0 - c / t) * (1.0 - c * p.q / t) for t in (z, p.q * z)])
    W = grid.rows(biortho_weight, p.q, 1, p)
    R = shifted(partial(r_fn, m, p=p), z, p.q, 1)
    return tq_rows(pref * W * R, z, p.q)[0]


def _raising_sides(n: int, p: BiorthoParams, grid: CircleGrid):
    """LHS T_q[(alpha beta q^{1/2}/z; q)_2 w_shift r_{n-1, shift}] and the
    un-scaled RHS w r_n, with shift = (a, q alpha, b, q beta)."""
    qv = p.q
    raised = p.with_params(alpha=qv * p.alpha, beta=qv * p.beta)
    lhs = _raised(p.alpha * p.beta * math.sqrt(qv), n - 1, raised, grid)
    return lhs, grid.rows(biortho_weight, qv, 0, p)[0] * r_fn(n, grid.nodes, p)


def raising_biortho_check(n: int, p: BiorthoParams, grid: CircleGrid,
                          tol: float = QUADRATURE_TOL) -> IdentityReport:
    """T_q[(alpha beta q^{1/2}/z;q)_2 w(.; a,q alpha,b,q beta) r_{n-1}(.; a,q alpha,b,q beta)]
    = coeff * w(.; a,alpha,b,beta) r_n(.; a,alpha,b,beta)."""
    if n < 1:
        raise ValueError("raising needs n >= 1")
    lhs, rhs_core = _raising_sides(n, p, grid)
    rhs = raising_coefficient(p) * rhs_core
    scale = max(1.0, float(np.max(np.abs(rhs))))
    residual = float(np.max(np.abs(lhs - rhs))) / scale
    return IdentityReport("biortho_raising", residual, tol, grid.n_nodes,
                          {**p.as_dict(), "n": n})


def variant_reconciliation(n: int, p: BiorthoParams, grid: CircleGrid,
                           tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Discrepancy table for the differently-printed ladder prefactors and
    coefficients; informational, never fails a suite.

    Measured variants:
      * raising coefficient (1-b alpha)(1-b beta) vs the (1-b beta/q) and
        (1-b alpha/q)(1-b beta/q) readings;
      * lowering prefactor (ab q^{1/2} z; q)_2 vs (alpha beta q^{1/2} z; q)_2;
      * raising prefactor (alpha beta q^{-3/2}/z; q)_2 applied without the
        parameter shift, against the shifted canonical form.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    qv = p.q
    table = {}

    lhs, rhs_core = _raising_sides(n, p, grid)
    scale = max(1.0, float(np.max(np.abs(rhs_core))))
    candidates = {
        "raising_coeff_(1-ba)(1-bb)": (1.0 - p.b * p.alpha) * (1.0 - p.b * p.beta),
        "raising_coeff_(1-ba)(1-bb/q)": (1.0 - p.b * p.alpha) * (1.0 - p.b * p.beta / qv),
        "raising_coeff_(1-ba/q)(1-bb/q)": (1.0 - p.b * p.alpha / qv) * (1.0 - p.b * p.beta / qv),
    }
    for label, c in candidates.items():
        coeff = c / ((1.0 - qv) * p.b)
        table[label] = float(np.max(np.abs(lhs - coeff * rhs_core))) / scale

    # Lowering prefactor variants applied to D_q r_n.
    for label, u in (("lowering_prefactor_ab", p.a * p.b),
                     ("lowering_prefactor_alphabeta", p.alpha * p.beta)):
        table[label] = _lowering_residual(u, n, p, grid)

    # Raising prefactor (alpha beta q^{-3/2}/z; q)_2 with unshifted weight,
    # target r_n at (a, alpha/q, b, beta/q); only testable when the divided
    # parameters stay inside the unit disk.
    if abs(p.alpha / qv) < 1.0 and abs(p.beta / qv) < 1.0:
        divided = p.with_params(alpha=p.alpha / qv, beta=p.beta / qv)
        lhs2 = _raised(p.alpha * p.beta * qv**-1.5, n - 1, p, grid)
        w = grid.rows(biortho_weight, qv, 0, p)[0]
        rhs2 = raising_coefficient(divided) * w * r_fn(n, grid.nodes, divided)
        scale2 = max(1.0, float(np.max(np.abs(rhs2))))
        table["raising_unshifted_prefactor"] = \
            float(np.max(np.abs(lhs2 - rhs2))) / scale2

    best = min(table.values())
    return IdentityReport("ladder_variant_reconciliation", best, tol,
                          grid.n_nodes, {**p.as_dict(), "n": n},
                          notes=table, informational=True)


def sears_transform(n: int, A, B, C, D, E, F, q):
    """Prefactor and transformed parameters of sears_check's transformation."""
    qv = qval(q)
    pref = (qpochhammer(E / A, qv, n) * qpochhammer(F / A, qv, n)
            / (qpochhammer(E, qv, n) * qpochhammer(F, qv, n)) * A**n)
    return pref, (A, D / B, D / C, D, A * qv**(1 - n) / E,
                  A * qv**(1 - n) / F)


def sears_check(n: int, A, B, C, D, E, F, q,
                tol: float = QUADRATURE_TOL,
                balance_tol: float = 1e-12) -> IdentityReport:
    """Both sides of the Sears transformation of a terminating balanced
    4phi3, summed independently:

        4phi3(q^{-n}, A, B, C; D, E, F; q, q)
          = (E/A, F/A; q)_n / (E, F; q)_n * A^n
            * 4phi3(q^{-n}, A, D/B, D/C; D, A q^{1-n}/E, A q^{1-n}/F; q, q)

    requires the balance condition A B C q^{1-n} = D E F.
    """
    qv = qval(q)
    A, B, C, D, E, F = (complex(x) for x in (A, B, C, D, E, F))
    bal = A * B * C * qv**(1 - n)
    if abs(bal - D * E * F) > balance_tol * max(abs(D * E * F), 1e-30):
        raise UnbalancedParameters(
            f"A*B*C*q^(1-n) = {bal} but D*E*F = {D * E * F}")
    qn = qv**-n
    lhs = phi(PhiSpec((qn, A, B, C), (D, E, F), qv, qv))
    pref, args = sears_transform(n, A, B, C, D, E, F, qv)
    rhs = pref * phi(PhiSpec((qn,) + args[:3], args[3:], qv, qv))
    residual = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return IdentityReport("sears_transformation", residual, tol, 0,
                          {"n": n, "A": A, "B": B, "C": C,
                           "D": D, "E": E, "F": F, "q": qv})


def imn_quadrature(m: int, n: int, p: BiorthoParams,
                   grid: CircleGrid) -> complex:
    """I_{m,n} = (1/2 pi i) \\oint w r_n conj(s_m) dz/z by quadrature."""
    z = grid.nodes
    w = grid.rows(biortho_weight, p.q, 0, p)[0]
    return complex(np.mean(w * r_fn(n, z, p) * np.conj(s_fn(m, z, p))))


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


def imn_recursion_check(m: int, n: int, p: BiorthoParams, grid: CircleGrid,
                        tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Single-step recursion: I_{m,n}(a, alpha, b, beta) =
    coeff(m) * I_{m-1,n-1}(a, q alpha, b, q beta), both sides by quadrature."""
    if m < 1 or n < 1:
        raise ValueError("recursion needs m, n >= 1")
    qv = p.q
    lhs = imn_quadrature(m, n, p, grid)
    shifted = p.with_params(alpha=qv * p.alpha, beta=qv * p.beta)
    rhs = imn_step_coefficient(m, p) * imn_quadrature(m - 1, n - 1, shifted, grid)
    residual = abs(lhs - rhs)
    return IdentityReport("imn_recursion_step", residual, tol, grid.n_nodes,
                          {**p.as_dict(), "m": m, "n": n})


def imn_iterated_check(m: int, n: int, p: BiorthoParams, grid: CircleGrid,
                       tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Iterated recursion for m >= n:

        I_{m,n} = (-b beta)^n q^{n(n+1)/2}
                  (q^{1/2} alpha, q^{1/2} beta, q^{-m}, ab alpha beta q^{m-1}; q)_n
                  / (alpha b, a beta, b beta, b beta; q)_n
                  * I_{m-n,0}(a, q^n alpha, b, q^n beta)

    against the direct quadrature of I_{m,n}."""
    if m < n:
        raise ValueError("iterated form requires m >= n")
    qv = p.q
    rq = math.sqrt(qv)
    abab = p.a * p.b * p.alpha * p.beta
    direct = imn_quadrature(m, n, p, grid)
    num = (qpochhammer(rq * p.alpha, qv, n) * qpochhammer(rq * p.beta, qv, n)
           * qpochhammer(qv**-m, qv, n) * qpochhammer(abab * qv**(m - 1), qv, n))
    den = (qpochhammer(p.alpha * p.b, qv, n) * qpochhammer(p.a * p.beta, qv, n)
           * qpochhammer(p.b * p.beta, qv, n)**2)
    shifted = p.with_params(alpha=qv**n * p.alpha, beta=qv**n * p.beta)
    tail = imn_quadrature(m - n, 0, shifted, grid)
    chained = ((-p.b * p.beta)**n * qv**(n * (n + 1) // 2) * num / den * tail)
    residual = abs(direct - chained)
    return IdentityReport("imn_recursion_iterated", residual, tol,
                          grid.n_nodes, {**p.as_dict(), "m": m, "n": n})


def i00_closed_check(n: int, p: BiorthoParams, grid: CircleGrid,
                     tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Total mass at the shifted parameters (a, q^n alpha, b, q^n beta):

        I_{0,0}(a, q^n alpha, b, q^n beta)
          = kappa(a, alpha, b, beta) (a alpha, b alpha, a beta, b beta; q)_n
            / [(q^{1/2} alpha, q^{1/2} beta; q)_n (ab alpha beta; q)_{2n}]

    with the prefactor read as kappa(a, alpha, b, beta); quadrature is the
    arbiter.  Also records the closed-form route through the shifted total
    mass itself.
    """
    qv = p.q
    rq = math.sqrt(qv)
    shifted = p.with_params(alpha=qv**n * p.alpha, beta=qv**n * p.beta)
    quad = complex(np.mean(grid.rows(biortho_weight, qv, 0, shifted)[0]))
    num = (qpochhammer(p.a * p.alpha, qv, n) * qpochhammer(p.b * p.alpha, qv, n)
           * qpochhammer(p.a * p.beta, qv, n) * qpochhammer(p.b * p.beta, qv, n))
    den = (qpochhammer(rq * p.alpha, qv, n) * qpochhammer(rq * p.beta, qv, n)
           * qpochhammer(p.a * p.b * p.alpha * p.beta, qv, 2 * n))
    closed = kappa_closed(p) * num / den
    residual = abs(quad - closed) / abs(closed)
    cross = abs(kappa_closed(shifted) - closed) / abs(closed)
    return IdentityReport("i00_shifted_closed_form", residual, tol,
                          grid.n_nodes, {**p.as_dict(), "n": n},
                          notes={"closed_vs_shifted_kappa": cross})


def random_params(rng: np.random.Generator, q,
                  conjugate_pair: bool = False) -> BiorthoParams:
    """Draw a valid parameter set: magnitudes uniform in [0.05, 0.6], phases
    uniform; optionally conjugate-symmetric (alpha = conj a, beta = conj b)."""
    qv = qval(q)

    def draw():
        mag = rng.uniform(0.05, 0.6)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        return mag * np.exp(1j * ph)

    a, b = draw(), draw()
    if conjugate_pair:
        alpha, beta = np.conj(a), np.conj(b)
    else:
        alpha, beta = draw(), draw()
    return BiorthoParams(a, alpha, b, beta, qv)
