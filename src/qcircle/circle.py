"""Unit-circle quadrature, Laurent polynomials, and the q-difference
operator D_q with its adjoint T_q.

A function f on the circle is an array of rows F[k] = f(q^k z): D_q f and
T_q f at q^k z need rows k and k+1, T_q^n f at z rows 0..n.  Verdicts use
rows only: `CircleGrid.rows`, the one cache, samples each item of a sampler
once per grid; `laurent_values`, one in-place Horner pass, evaluates a
`LaurentPoly`, and `shifted` samples a callable's rows, for the callable
API.  Ladder verdicts take (1/w) T_q(w f) as T_q of the rows
w(q^k z)/w(z) f(q^k z), so only the q-Sturm-Liouville weight goes through
`over_weight`.  The adapters `dq_apply`/`tq_apply`/`tq_iterate`,
`contour_mean` and `inner_product_c` are the callable API and the tests'
oracle.
Trapezoid quadrature on equispaced nodes is exact for Laurent polynomials
with degree span < N and spectrally accurate for analytic integrands.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import WeightUnderflow
from .qcore import UNDERFLOW_FLOOR, _maybe_scalar, qval, representable
from .report import IdentityReport, nan_max, worst


@dataclass(frozen=True)
class CircleGrid:
    """N equispaced nodes e^{2 pi i j / N} on |z| = 1, and rows sampled there."""

    n_nodes: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _samples: dict = field(init=False, repr=False, compare=False,
                           default_factory=dict)

    def __post_init__(self):
        n = self.n_nodes
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"node count {n!r} is not an integer") from None
        if n < 4:
            raise ValueError(f"grid needs at least 4 nodes, got {n}")
        object.__setattr__(self, "n_nodes", n)
        theta = 2.0 * np.pi * np.arange(n) / n
        object.__setattr__(self, "nodes", np.exp(1j * theta))

    def rows(self, f, q, items) -> list:
        """f's value at the nodes for each item, kept per (f, item, q) on
        this grid and returned uncopied: one call f(nodes, q, new) samples
        the items not held yet."""
        qv, held = qval(q), self._samples
        new = [x for x in dict.fromkeys(items) if (f, x, qv) not in held]
        for x, value in zip(new, f(self.nodes, qv, new) if new else ()):
            held[f, x, qv] = value
        return [held[f, x, qv] for x in items]


def laurent_values(coefficients, min_degree: int, z) -> np.ndarray:
    """sum_k c_k z^{min_degree + k} by Horner's rule.  Each c_k broadcasts
    against z, so (K, P, 1) coefficients at (1, N) points give P rows.  One
    pass, in place, in one accumulator of the broadcast shape."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(np.broadcast_shapes(z.shape, np.shape(coefficients)[1:]),
                   dtype=complex)
    for c in coefficients[::-1]:
        np.multiply(acc, z, out=acc)
        np.add(acc, c, out=acc)
    return np.multiply(acc, z**min_degree, out=acc)


@dataclass(frozen=True)
class LaurentPoly:
    """Finite two-sided polynomial sum_k c_k z^{min_degree + k}, as given."""

    min_degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_degree", int(self.min_degree))
        object.__setattr__(self, "coefficients", np.array(
            self.coefficients, dtype=complex, ndmin=1))

    def __call__(self, z):
        return _maybe_scalar(laurent_values(self.coefficients,
                                            self.min_degree, z))


def contour_mean(f, grid: CircleGrid) -> complex:
    """(1/2 pi i) \\oint f(z) dz/z by the trapezoid rule: (1/N) sum f(z_j)."""
    return complex(np.mean(np.asarray(f(grid.nodes), dtype=complex)))


def inner_product_c(f, g, grid: CircleGrid) -> complex:
    """<f, g>_c = (1/N) sum_j f(z_j) conj(g(z_j)).

    On |z| = 1 conjugating the value of g coincides with evaluating the
    bar-function at 1/z, so this is the contour inner product restricted to
    the circle.
    """
    fv = np.asarray(f(grid.nodes), dtype=complex)
    gv = np.asarray(g(grid.nodes), dtype=complex)
    return complex(np.mean(fv * np.conj(gv)))


def gram_matrix(left, right, w) -> np.ndarray:
    """G[m, n] = (1/N) sum_j conj(L_m) R_n w: the one Gram assembly, one
    add.reduce (pairwise) and one divide by N per row over the stacked R
    (an array), np.mean's arithmetic.  Each row's products conj(L_m) R w go
    through one buffer the size of R, in the order of the expression, w
    cast to the buffer's dtype once.  A table against itself under a real w
    gives a Hermitian G: row m then sums n >= m only, and the entries below
    the diagonal are the conjugates of those above.  ValueError on overflow."""
    hermitian = left is right and np.isrealobj(w)
    left, right = np.asarray(left), np.asarray(right)
    buf = np.empty(np.broadcast(right, w).shape,
                   dtype=np.result_type(left, right, w))
    w = np.asarray(w, dtype=buf.dtype)
    G = np.empty((len(left), *buf.shape[:-1]), dtype=buf.dtype)
    with representable(f"the {len(left)} x {len(right)} Gram matrix overflows"):
        for m, lm in enumerate(left):
            n = m if hermitian else 0
            np.multiply(np.conj(lm), right[n:], out=buf[n:])
            np.multiply(buf[n:], w, out=buf[n:])
            np.divide(np.add.reduce(buf[n:], axis=-1), buf.shape[-1],
                      out=G[m, n:])
            if hermitian:
                G[m + 1:, m] = np.conj(G[m, m + 1:])
    return G


def gram_check(name, G, norms, tol, grid_size, params):
    """(G, norms, report): the worse of a gram_matrix G's largest
    |off-diagonal| and relative error against `norms`, NaN if any is, in
    Python's complex arithmetic on one G.tolist()."""
    entries, size = G.tolist(), range(len(norms))
    off = worst([entries[m][n] for m in size for n in size if m != n])
    diag = nan_max(0.0, *(worst(entries[n][n] - norms[n], abs(norms[n]))
                          for n in size))
    report = IdentityReport(
        name, nan_max(off, diag), tol, grid_size, params,
        notes={"max_offdiag": off, "max_diag_rel_err": diag})
    return G, norms, report


def over_weight(values, w):
    """values / w for the q-Sturm-Liouville weight; a subnormal or 0 w raises."""
    if np.min(np.abs(w)) < UNDERFLOW_FLOOR:
        raise WeightUnderflow("the weight underflowed at an evaluation point")
    return values / w


def _shifted_points(z, qv: float, depth: int) -> list:
    """[z, qz, q(qz), ...], each point q times the last as nested calls do."""
    points = [np.asarray(z, dtype=complex)]
    for _ in range(depth):
        points.append(qv * points[-1])
    return points


def shifted(f, z, q, depth: int) -> np.ndarray:
    """Rows F[k] = f(q^k z), k = 0..depth, with one call of f per row."""
    return np.stack([np.asarray(f(t), dtype=complex)
                     for t in _shifted_points(z, qval(q), depth)])


def dq_rows(F, z, q) -> np.ndarray:
    """Rows (F[k] - F[k+1]) / ((1 - q) q^k z) = (D_q f)(q^k z), k < len(F)-1."""
    qv = qval(q)
    zk = np.stack(_shifted_points(z, qv, len(F) - 2))
    return (F[:-1] - F[1:]) / ((1.0 - qv) * zk)


def tq_rows(F, z, q) -> np.ndarray:
    """Rows q^k z (F[k] - q F[k+1]) / (1 - q) = (T_q f)(q^k z), k < len(F)-1."""
    qv = qval(q)
    zk = np.stack(_shifted_points(z, qv, len(F) - 2))
    return zk * (F[:-1] - qv * F[1:]) / (1.0 - qv)


def tq_power(F, z, q, n: int) -> np.ndarray:
    """(T_q^n f)(z) = z^n sum_k A_k F[k], n+1 rows of f per point: from
    T_q f(z) = (z/(1-q)) (f(z) - q f(qz)), the constants A_k follow the
    recurrence A'_k = (A_k - q^{m+1} A_{k-1}) / (1 - q), m = 0..n-1."""
    qv = qval(q)
    A = np.zeros(n + 1, dtype=float)
    A[0] = 1.0
    for m in range(n):
        A[1:m + 2] -= qv**(m + 1) * A[:m + 1]
        A[:m + 2] /= 1.0 - qv
    return np.asarray(z, dtype=complex)**n * sum(A[k] * F[k]
                                                 for k in range(n + 1))


def dq_apply(f, q):
    """D_q f: z -> (f(z) - f(qz)) / ((1 - q) z)."""
    qv = qval(q)
    return lambda z: _maybe_scalar(dq_rows(shifted(f, z, qv, 1), z, qv)[0])


def tq_apply(f, q):
    """T_q f: z -> z (f(z) - q f(qz)) / (1 - q); the adjoint of D_q."""
    qv = qval(q)
    return lambda z: _maybe_scalar(tq_rows(shifted(f, z, qv, 1), z, qv)[0])


def tq_iterate(f, q, n: int):
    """T_q^n f via the coefficient recurrence (O(n) evaluations per point)."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    if n == 0:
        return f
    qv = qval(q)
    return lambda z: _maybe_scalar(tq_power(shifted(f, z, qv, n), z, qv, n))


def laurent_dq(p: LaurentPoly, q) -> LaurentPoly:
    """Exact coefficient map of D_q: z^m -> ((1 - q^m)/(1 - q)) z^{m-1}.

    The constant term is annihilated; negative degrees are handled by the
    same formula.
    """
    qv = qval(q)
    degrees = p.min_degree + np.arange(len(p.coefficients))
    coeffs = np.zeros(len(degrees), dtype=complex)
    for i, m in enumerate(degrees):
        if m != 0:
            coeffs[i] = p.coefficients[i] * (1.0 - qv**m) / (1.0 - qv)
    return LaurentPoly(p.min_degree - 1, coeffs)
