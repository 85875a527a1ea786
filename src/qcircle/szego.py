"""Szego polynomials on the unit circle: explicit coefficients, weight,
ladder operators, Rodrigues formula, q-Sturm-Liouville relation, and the
orthogonality Gram matrix.
"""

from __future__ import annotations

import math

import numpy as np

# tq_apply stays bound here for benchmarks/tests/test_bench_tracer.py::
# test_uninstall_restores_every_original_binding, which checks its rebinding.
from .circle import (CircleGrid, _shifted_points, dq_rows, gram_check,
                     gram_matrix, tq_apply, tq_power, tq_rows)
from .errors import WeightUnderflow
from .qcore import (ALGEBRAIC_TOL, QUADRATURE_TOL, UNDERFLOW_FLOOR,
                    _maybe_scalar, jacobi_triple_product, qpochhammer_inf,
                    qval, representable, theta_sum)
from .report import IdentityReport, worst


def _running_qq(top: int, qv: float) -> np.ndarray:
    """(q;q)_0..(q;q)_max(top, 1), qpochhammer(q, q, n)'s real parts."""
    qk = np.cumprod(np.r_[1.0, [qv] * (top - 1)])  # 1, q, ..., q^{top-1}
    return np.cumprod(np.r_[1.0, 1.0 - qv * qk])


def coefficient_table(degrees: range, q) -> np.ndarray:
    """C[i, k] = [n k]_q q^{-k/2} for n = degrees[i], k = 0..max(degrees),
    zero for k > n, from one running (q;q)_k: H_n(z|q) = sum_k C[i, k] z^k
    for each degree of the range; ValueError if unrepresentable."""
    top, qv = max(degrees, default=-1), qval(q)
    if min(degrees, default=-1) < 0:
        raise ValueError("degree must be nonnegative")
    qq, k = _running_qq(top, qv), np.arange(top + 1)
    n = np.arange(degrees.start, top + 1)[:, None]
    with representable(f"the coefficients of H_n are not representable at "
                       f"n={top}, q={qv}"):
        powers = [qv**(-j / 2.0) for j in range(top + 1)]
        return np.divide(qq[n], qq[k] * qq[n - k], where=k <= n,
                         out=np.zeros((len(degrees), top + 1))) * powers


def szego_weight(z, q):
    """w_c(z|q) = (q^{1/2} z, q^{1/2}/z; q)_inf; real and >= 0 on |z| = 1."""
    qv = qval(q)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("weight undefined at z = 0")
    rq = math.sqrt(qv)
    return _maybe_scalar(np.asarray(qpochhammer_inf(rq * z, qv))
                         * np.asarray(qpochhammer_inf(rq / z, qv)))


def product_rows(z, q, depths) -> list:
    """The Szego q-product rows: szego_weight at q^k z, each point q times
    the last (_shifted_points), for each k in `depths`."""
    points = _shifted_points(z, q, max(depths))
    return [np.asarray(szego_weight(points[k], q)) for k in depths]


def _dual_rows(z, qv, masses) -> list:
    """circle_weight's row at the N grid nodes z for each mass, None for
    the total mass 1/(q;q)_inf."""
    n = len(z)
    rows = []
    for mass in masses:
        if mass is None:
            mass = szego_norms(0, qv)[0]
        tau = -math.log(qv)
        c = math.pi**2 / (2.0 * tau)
        # Terms past |m| = M fall below e^{-4 c M (M + 1)} <= e^{-40} of the
        # smallest w_j, whose own term is at least exp(L - c).
        m = max(1, math.ceil((math.sqrt(1.0 + 40.0 / c) - 1.0) / 2.0))
        # (phi_j + 2 pi m) / pi with phi_j = pi (2j - N) / N: an integer
        # numerator, one rounding.
        u = (2 * np.arange(n) - n + 2 * n * np.arange(-m, m + 1)[:, None]) / n
        log_l = 0.5 * math.log(2.0 * math.pi / tau) + math.log(mass)
        terms = np.exp(log_l - c * u * u)
        # The terms at m and -m first: w_{N-j} = w_j bit for bit.
        rows.append(terms[m] + np.sum(terms[m + 1:] + terms[m - 1::-1],
                                      axis=0))
    return rows


def circle_weight(grid: CircleGrid, q, mass: float | None = None) -> np.ndarray:
    """szego_weight at the grid nodes e^{i theta_j}, real and positive by
    construction: the theta series (q;q)_inf w = sum_k q^{k^2/2}
    e^{ik(theta + pi)} under Jacobi's imaginary transformation,

        w_j = sum_m exp(L - (phi_j + 2 pi m)^2 / (2 tau)),  tau = -log q,
        L = log(sqrt(2 pi / tau) mass),  phi_j = pi (2j - N) / N,

    phi_j being theta_j + pi reduced to [-pi, pi), and mass the total mass
    1/(q;q)_inf (szego_norms' first entry), which None, the default, takes
    once per grid and q.  L sits inside exp, whose factors alone underflow
    near q = 1.  Built once per grid, q and mass."""
    return grid.rows(_dual_rows, q, [mass])[0]


def weight_ratio_rows(z, q, depth: int) -> np.ndarray:
    """Rows szego_weight(q^k z, q) / szego_weight(z, q), k = 0..depth, from
    ones by the Pearson step w(qt)/w(t) = (1 - q^{-1/2}/t) / (1 - q^{1/2} t)
    = -1/(q^{1/2} t) at t = q^k z, without a q-product; weight_pearson_check
    holds the deepest row, times the weight, to a direct weight.  Row k has
    size q^{-k^2/2}: ValueError if a row is not representable."""
    qv = qval(q)
    R = [np.ones(np.shape(z), dtype=complex)]
    with representable(f"the Pearson ratio rows w(q^k z)/w(z) are not "
                       f"representable at depth={depth}, q={qv}"):
        for t in _shifted_points(z, qv, depth)[:-1]:
            R.append(R[-1] / (-math.sqrt(qv) * t))
    return np.stack(R)


def weight_pearson_check(row, q, grid: CircleGrid,
                         depth: int) -> IdentityReport:
    """A Szego weight row at the grid nodes (circle_weight's or the
    q-product's) times weight_ratio_rows' row `depth` against the grid's
    product_rows row `depth`: the largest relative difference over the
    grid, NaN if any is."""
    qv = qval(q)
    shifted_row = row * weight_ratio_rows(grid.nodes, qv, depth)[depth]
    (direct,) = grid.rows(product_rows, qv, [depth])
    residual = worst(shifted_row - direct, np.abs(direct))
    return IdentityReport("szego_weight_pearson", residual, ALGEBRAIC_TOL,
                          grid.n_nodes, {"q": qv, "depth": depth})


def szego_norms(max_n: int, q) -> list:
    """Closed-form diagonal <H_n, w H_n>_c = q^{-n} (q;q)_n / (q;q)_inf,
    n = 0..max_n, with one (q;q)_inf, the reciprocal of the total mass;
    raises WeightUnderflow when it underflows below the smallest normal
    float: a subnormal product has lost its digits (at q = 0.998 it reads
    1.5e-323 for about 1e-355) and its reciprocal is inf."""
    if max_n < 0:
        raise ValueError("degree must be nonnegative")
    qv = qval(q)
    qq = qpochhammer_inf(qv, qv)
    if abs(qq) < UNDERFLOW_FLOOR:
        raise WeightUnderflow(
            f"(q;q)_inf underflowed below the smallest normal float at "
            f"q={qv}: the total mass 1/(q;q)_inf and the closed-form norms "
            f"are not representable")
    running = _running_qq(max_n, qv)[:max_n + 1].tolist()
    return [qv**(-n) * qq_n / qq.real for n, qq_n in enumerate(running)]


def sturm_liouville_eigenvalue(n: int, q) -> float:
    """lambda_n = (1 - q^n) / (1 - q)^2."""
    qv = qval(q)
    return (1.0 - qv**n) / (1.0 - qv)**2


def ladder_constants(n: int, q) -> tuple:
    """ladder_reports' degree-n constants: q^{-1/2} (1 - q^n)/(1 - q),
    sqrt(q)/(1 - q), (q^{-1/2} - q^{1/2})^n and lambda_n."""
    qv = qval(q)
    return (qv**-0.5 * (1.0 - qv**n) / (1.0 - qv), math.sqrt(qv) / (1.0 - qv),
            (qv**-0.5 - qv**0.5)**n, sturm_liouville_eigenvalue(n, qv))


def poly_rows(degrees: range, q, z, depth: int) -> np.ndarray:
    """Rows H_n(q^k z), shape (depth+1, len(degrees), N), n in `degrees`, a
    range, the one sampler of H_n: a Horner pass per row in place over the
    lower-triangular coefficient_table, cast to complex once, so H_n takes
    only its own steps k <= n, whichever degrees share its table."""
    qv = qval(q)
    C = coefficient_table(degrees, qv).astype(complex)
    out = np.zeros((depth + 1, len(degrees), *np.shape(z)), dtype=complex)
    for acc, t in zip(out, _shifted_points(z, qv, depth)):
        for k in range(C.shape[1] - 1, -1, -1):
            tail = acc[max(k - degrees.start, 0):]  # the degrees n >= k
            np.multiply(tail, t, out=tail)
            np.add(tail, C[-len(tail):, k, None], out=tail)
    return out


def ladder_reports(max_n: int, q, grid: CircleGrid,
                   tol: float = QUADRATURE_TOL) -> list:
    """Max residuals over the grid, from one table of H_0..H_{max_n+1}:

      lowering         D_q H_n = q^{-1/2} (1 - q^n)/(1 - q) H_{n-1},  n >= 1;
      raising          (1/w) T_q(w H_n) = (sqrt(q)/(1-q)) H_{n+1};
      Rodrigues        H_n = (q^{-1/2} - q^{1/2})^n (1/w) T_q^n(w);
      Sturm-Liouville  (1/w) T_q(w D_q H_n) = lambda_n H_n;

    the lowering reports for n = 1..max_n, then raising, Rodrigues and
    Sturm-Liouville for each n = 0..max_n.  Both sides are divided by w(z):
    T_q acts on weight_ratio_rows times f's rows, so no weight is sampled,
    and each residual is max |lhs - rhs| on the scale of H_n.
    """
    qv = qval(q)
    z, degrees = grid.nodes[None], range(max_n + 1)
    H = poly_rows(range(max_n + 2), qv, grid.nodes, 2)
    ratio = weight_ratio_rows(grid.nodes, qv, max(1, max_n))
    low, up, rod, sl = np.array([ladder_constants(n, qv)
                                 for n in degrees]).T[..., None]

    def report(name, n, residual):
        return IdentityReport(name, residual, tol, grid.n_nodes,
                              {"n": n, "q": qv})

    lowering = worst(dq_rows(H[:2, 1:-1], z, qv)[0] - low[1:] * H[0, :-2])
    raising = worst(tq_rows(ratio[:2, None] * H[:2, :-1], z, qv)[0]
                    - up * H[0, 1:])
    rodrigues = worst(np.stack([rod[n] * tq_power(ratio, grid.nodes, qv, n)
                                for n in degrees]) - H[0, :-1])
    sturm = worst(tq_rows(ratio[:2, None] * dq_rows(H[:, :-1], z, qv),
                          z, qv)[0] - sl * H[0, :-1])
    return [report("szego_lowering", n, lowering[n - 1])
            for n in degrees[1:]] + [
        report(f"szego_{name}", n, values[n]) for n in degrees
        for name, values in (("raising", raising), ("rodrigues", rodrigues),
                             ("sturm_liouville", sturm))]


def szego_gram(max_n: int, q, grid: CircleGrid, tol: float = QUADRATURE_TOL):
    """Gram matrix G[m][n] = (1/2 pi i) \\oint conj(H_m) H_n w dz/z by quadrature,
    w the grid's circle_weight row, as gram_check's (G, norms, report)
    against the closed-form diagonal szego_norms."""
    qv = qval(q)
    norms = szego_norms(max_n, qv)
    H = poly_rows(range(max_n + 1), qv, grid.nodes, 0)[0]
    return gram_check("szego_orthogonality",
                      gram_matrix(H, H, circle_weight(grid, qv, norms[0])),
                      norms, tol, grid.n_nodes, {"max_n": max_n, "q": qv})


def jacobi_triple_check(q, grid: CircleGrid,
                        tol: float = QUADRATURE_TOL) -> IdentityReport:
    """theta_sum(z, q) against the base-q^2 triple product on the grid."""
    qv = qval(q)
    z = grid.nodes
    residual = worst(theta_sum(z, qv) - jacobi_triple_product(z, qv))
    return IdentityReport("jacobi_triple_product", residual, tol,
                          grid.n_nodes, {"q": qv})
