"""Szego polynomials on the unit circle: explicit coefficients, weight,
ladder operators, Rodrigues formula, q-Sturm-Liouville relation, and the
orthogonality Gram matrix.
"""

from __future__ import annotations

import math

import numpy as np

# tq_apply stays bound here for benchmarks/tests/test_bench_tracer.py::
# test_uninstall_restores_every_original_binding, which checks its rebinding.
from .circle import (CircleGrid, LaurentPoly, dq_rows, gram_check, over_weight,
                     shifted, tq_apply, tq_power, tq_rows)
from .errors import WeightUnderflow
from .qcore import (QUADRATURE_TOL, _maybe_scalar, jacobi_triple_product,
                    qpochhammer, qpochhammer_inf, qval, theta_sum)
from .report import IdentityReport


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
    return _maybe_scalar(np.asarray(qpochhammer_inf(rq * z, qv, tol))
                         * np.asarray(qpochhammer_inf(rq / z, qv, tol)))


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


def lowering_check(n: int, q, grid: CircleGrid,
                   tol: float = QUADRATURE_TOL) -> IdentityReport:
    """D_q H_n = q^{-1/2} (1 - q^n)/(1 - q) H_{n-1}, max residual over the grid."""
    if n < 1:
        raise ValueError("lowering needs n >= 1")
    qv = qval(q)
    z = grid.nodes
    lhs = dq_rows(shifted(szego_poly(n, qv), z, qv, 1), z, qv)[0]
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
    W = grid.rows(szego_weight, qv, 1, qv)
    H = shifted(szego_poly(n, qv), z, qv, 1)
    lhs = over_weight(tq_rows(W * H, z, qv)[0], W[0], "Szego weight")
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
    W = grid.rows(szego_weight, qv, n, qv)
    lhs = over_weight((qv**-0.5 - qv**0.5)**n * tq_power(W, grid.nodes, qv, n),
                      W[0], "Szego weight")
    rhs = szego_poly(n, qv)(grid.nodes)
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
    W = grid.rows(szego_weight, qv, 1, qv)
    H = shifted(szego_poly(n, qv), z, qv, 2)
    lhs = over_weight(tq_rows(W * dq_rows(H, z, qv), z, qv)[0], W[0],
                      "Szego weight")
    rhs = sturm_liouville_eigenvalue(n, qv) * H[0]
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport("szego_sturm_liouville", residual, tol, grid.n_nodes,
                          {"n": n, "q": qv})


def szego_gram(max_n: int, q, grid: CircleGrid, tol: float = QUADRATURE_TOL):
    """Gram matrix G[m][n] = (1/2 pi i) \\oint conj(H_m) H_n w dz/z by quadrature,
    as gram_check's (G, report) against the closed-form diagonal
    q^{-n} (q;q)_n / (q;q)_inf."""
    qv = qval(q)
    w = grid.rows(szego_weight, qv, 0, qv)[0]
    vals = [szego_poly(n, qv)(grid.nodes) for n in range(max_n + 1)]
    return gram_check("szego_orthogonality", vals, vals, w,
                      [szego_norm(n, qv) for n in range(max_n + 1)], tol,
                      {"max_n": max_n, "q": qv})


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
    quad = complex(np.mean(grid.rows(szego_weight, qv, 0, qv)[0]))
    residual = abs(quad - closed) / abs(closed)
    return IdentityReport("szego_total_mass", residual, tol, grid.n_nodes,
                          {"q": qv})
