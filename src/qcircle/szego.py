"""Szego polynomials on the unit circle: explicit coefficients, weight,
ladder operators, Rodrigues formula, q-Sturm-Liouville relation, and the
orthogonality Gram matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import CircleGrid, LaurentPoly, contour_mean, tq_apply, tq_iterate
from .errors import WeightUnderflow
from .qcore import QUADRATURE_TOL, qpochhammer, qpochhammer_inf, qval, theta_sum, jacobi_triple_product
from .report import IdentityReport, nan_max

UNDERFLOW_FLOOR = 1e-300


def gaussian_binomial(n: int, k: int, q) -> float:
    """q-binomial coefficient (q;q)_n / ((q;q)_k (q;q)_{n-k})."""
    if k < 0 or k > n:
        return 0.0
    qv = qval(q)
    num = qpochhammer(qv, qv, n)
    den = qpochhammer(qv, qv, k) * qpochhammer(qv, qv, n - k)
    return (num / den).real


def szego_poly(n: int, q) -> LaurentPoly:
    """H_n(z|q) = sum_k [n choose k]_q (q^{-1/2} z)^k as an ordinary polynomial."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    qv = qval(q)
    coeffs = np.array(
        [gaussian_binomial(n, k, qv) * qv**(-k / 2.0) for k in range(n + 1)],
        dtype=complex)
    return LaurentPoly(0, coeffs)


def szego_weight(z, q, tol: float = 1e-15):
    """w_c(z|q) = (q^{1/2} z, q^{1/2}/z; q)_inf; real and >= 0 on |z| = 1."""
    qv = qval(q)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("weight undefined at z = 0")
    rq = math.sqrt(qv)
    out = np.asarray(qpochhammer_inf(rq * z, qv, tol)) \
        * np.asarray(qpochhammer_inf(rq / z, qv, tol))
    return complex(out) if out.ndim == 0 else out


def _qq_inf(qv: float) -> complex:
    """(q;q)_inf, the reciprocal of the total mass; raises WeightUnderflow
    when it underflows to 0, where the closed forms would divide by zero."""
    qq = qpochhammer_inf(qv, qv)
    if qq == 0:
        raise WeightUnderflow(
            f"(q;q)_inf underflowed to 0 at q={qv}: the total mass "
            f"1/(q;q)_inf and the closed-form norms are not representable")
    return qq


def szego_norm(n: int, q) -> float:
    """Closed-form diagonal <H_n, w H_n>_c = q^{-n} (q;q)_n / (q;q)_inf."""
    qv = qval(q)
    return (qv**(-n) * qpochhammer(qv, qv, n) / _qq_inf(qv)).real


def _check_weight(w: np.ndarray):
    if np.min(np.abs(w)) < UNDERFLOW_FLOOR:
        raise WeightUnderflow("Szego weight underflowed at a grid node")


def lowering_check(n: int, q, grid: CircleGrid,
                   tol: float = QUADRATURE_TOL) -> IdentityReport:
    """D_q H_n = q^{-1/2} (1 - q^n)/(1 - q) H_{n-1}, max residual over the grid."""
    if n < 1:
        raise ValueError("lowering needs n >= 1")
    qv = qval(q)
    z = grid.nodes
    hn = szego_poly(n, qv)
    lhs = (hn(z) - hn(qv * z)) / ((1.0 - qv) * z)
    rhs = qv**-0.5 * (1.0 - qv**n) / (1.0 - qv) * szego_poly(n - 1, qv)(z)
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport("szego_lowering", residual, tol, grid.n_nodes,
                          {"n": n, "q": qv})


def raising_check(n: int, q, grid: CircleGrid,
                  tol: float = QUADRATURE_TOL) -> IdentityReport:
    """(1/w) T_q(w H_n) = (sqrt(q)/(1-q)) H_{n+1}, max residual over the grid."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    qv = qval(q)
    z = grid.nodes
    w = np.asarray(szego_weight(z, qv))
    _check_weight(w)
    hn = szego_poly(n, qv)
    wf = tq_apply(lambda t: np.asarray(szego_weight(t, qv)) * hn(t), qv)
    lhs = np.asarray(wf(z)) / w
    rhs = math.sqrt(qv) / (1.0 - qv) * szego_poly(n + 1, qv)(z)
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport("szego_raising", residual, tol, grid.n_nodes,
                          {"n": n, "q": qv})


def rodrigues(n: int, q, grid: CircleGrid,
              tol: float = QUADRATURE_TOL) -> IdentityReport:
    """H_n = (q^{-1/2} - q^{1/2})^n (1/w) T_q^n(w), max residual over the grid."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    qv = qval(q)
    z = grid.nodes
    w = np.asarray(szego_weight(z, qv))
    _check_weight(w)
    tn = tq_iterate(lambda t: np.asarray(szego_weight(t, qv)), qv, n)
    lhs = (qv**-0.5 - qv**0.5)**n * np.asarray(tn(z)) / w
    rhs = szego_poly(n, qv)(z)
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport("szego_rodrigues", residual, tol, grid.n_nodes,
                          {"n": n, "q": qv})


def sturm_liouville_eigenvalue(n: int, q) -> float:
    """lambda_n = (1 - q^n) / (1 - q)^2."""
    qv = qval(q)
    return (1.0 - qv**n) / (1.0 - qv)**2


def sturm_liouville_check(n: int, q, grid: CircleGrid,
                          tol: float = QUADRATURE_TOL) -> IdentityReport:
    """(1/w) T_q(w D_q H_n) = lambda_n H_n, max residual over the grid."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    qv = qval(q)
    z = grid.nodes
    w = np.asarray(szego_weight(z, qv))
    _check_weight(w)
    hn = szego_poly(n, qv)

    def weighted_dq(t):
        t = np.asarray(t, dtype=complex)
        dq = (hn(t) - hn(qv * t)) / ((1.0 - qv) * t)
        return np.asarray(szego_weight(t, qv)) * dq

    lhs = np.asarray(tq_apply(weighted_dq, qv)(z)) / w
    rhs = sturm_liouville_eigenvalue(n, qv) * hn(z)
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport("szego_sturm_liouville", residual, tol, grid.n_nodes,
                          {"n": n, "q": qv})


def szego_gram(max_n: int, q, grid: CircleGrid, tol: float = QUADRATURE_TOL):
    """Gram matrix G[m][n] = (1/2 pi i) \\oint conj(H_m) H_n w dz/z by quadrature.

    Returns (G, report); the report residual is the worse of the maximum
    off-diagonal magnitude and the maximum relative diagonal error against
    the closed form q^{-n} (q;q)_n / (q;q)_inf.
    """
    qv = qval(q)
    z = grid.nodes
    w = np.asarray(szego_weight(z, qv))
    vals = [szego_poly(n, qv)(z) for n in range(max_n + 1)]
    G = np.empty((max_n + 1, max_n + 1), dtype=complex)
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            G[m, n] = np.mean(np.conj(vals[m]) * vals[n] * w)
    off = 0.0
    diag = 0.0
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            if m == n:
                expected = szego_norm(n, qv)
                diag = nan_max(diag, abs(G[n, n] - expected) / abs(expected))
            else:
                off = nan_max(off, abs(G[m, n]))
    report = IdentityReport(
        "szego_orthogonality", nan_max(off, diag), tol, grid.n_nodes,
        {"max_n": max_n, "q": qv},
        notes={"max_offdiag": off, "max_diag_rel_err": diag})
    return G, report


def jacobi_triple_check(q, grid: CircleGrid,
                        tol: float = QUADRATURE_TOL) -> IdentityReport:
    """theta_sum(z, q) against the base-q^2 triple product on the grid."""
    qv = qval(q)
    z = grid.nodes
    lhs = np.asarray(theta_sum(z, qv))
    rhs = np.asarray(jacobi_triple_product(z, qv))
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport("jacobi_triple_product", residual, tol,
                          grid.n_nodes, {"q": qv})


def total_mass_check(q, grid: CircleGrid,
                     tol: float = QUADRATURE_TOL) -> IdentityReport:
    """contour mean of the weight against 1/(q;q)_inf."""
    qv = qval(q)
    closed = 1.0 / _qq_inf(qv)
    quad = contour_mean(lambda z: szego_weight(z, qv), grid)
    residual = abs(quad - closed) / abs(closed)
    return IdentityReport("szego_total_mass", residual, tol, grid.n_nodes,
                          {"q": qv})
