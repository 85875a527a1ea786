"""Unit-circle quadrature, Laurent polynomials, and the q-difference
operator D_q with its adjoint T_q.

A function f on the circle is an array of rows F[k] = f(q^k z): D_q f and
T_q f at q^k z need rows k and k+1, T_q^n f at z rows 0..n.  Callables
appear only at the API edge: `shifted` and `CircleGrid.rows` (once per grid)
sample one, `dq_apply`/`tq_apply`/`tq_iterate` wrap the row operators.
Trapezoid quadrature on equispaced nodes is exact for Laurent polynomials
with degree span < N and spectrally accurate for analytic integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WeightUnderflow
from .qcore import _maybe_scalar, qval
from .report import IdentityReport, nan_max

UNDERFLOW_FLOOR = 1e-300  # smallest weight `over_weight` divides by


@dataclass(frozen=True)
class CircleGrid:
    """N equispaced nodes e^{2 pi i j / N} on |z| = 1, and rows sampled there."""

    n_nodes: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _samples: dict = field(init=False, repr=False, compare=False,
                           default_factory=dict)

    def __post_init__(self):
        n = int(self.n_nodes)
        if n < 4:
            raise ValueError(f"grid needs at least 4 nodes, got {n}")
        object.__setattr__(self, "n_nodes", n)
        theta = 2.0 * np.pi * np.arange(n) / n
        object.__setattr__(self, "nodes", np.exp(1j * theta))

    def rows(self, f, q, depth: int, *args) -> np.ndarray:
        """A copy of the rows f(q^k z_j, *args), k = 0..depth, at the nodes.

        Rows are sampled once per (f, args, q) on this grid, and a deeper
        request calls f only for the rows not held yet.  f is keyed by
        identity, since callables such as a LaurentPoly are unhashable, and
        kept with its rows so that its id is not reused.
        """
        qv = qval(q)
        held = self._samples.setdefault((id(f), args, qv), (f, []))[1]
        for t in _shifted_points(self.nodes, qv, depth)[len(held):]:
            held.append(np.asarray(f(t, *args), dtype=complex))
        return np.stack(held[:depth + 1])


def _trim(min_degree: int, coeffs: np.ndarray):
    """Drop zero leading/trailing coefficients; identically zero -> ([0], deg 0)."""
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return 0, np.zeros(1, dtype=complex)
    lo, hi = nz[0], nz[-1]
    return min_degree + lo, coeffs[lo:hi + 1].copy()


@dataclass(frozen=True)
class LaurentPoly:
    """Finite two-sided polynomial sum_k c_k z^{min_degree + k}.

    Immutable; coefficients are stored trimmed so the leading and trailing
    entries are nonzero unless the polynomial is identically zero.
    """

    min_degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        lo, coeffs = _trim(int(self.min_degree), coeffs)
        object.__setattr__(self, "min_degree", lo)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.coefficients) - 1

    @property
    def degree_span(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return len(self.coefficients) == 1 and self.coefficients[0] == 0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=complex)
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return _maybe_scalar(acc * z**self.min_degree)

    def bar(self) -> "LaurentPoly":
        """Coefficientwise complex conjugate (the bar operation)."""
        return LaurentPoly(self.min_degree, np.conj(self.coefficients))

    def coefficient(self, degree: int) -> complex:
        k = degree - self.min_degree
        if 0 <= k < len(self.coefficients):
            return complex(self.coefficients[k])
        return 0.0 + 0.0j


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


def gram_check(name, left, right, w, norms, tol, params, **notes):
    """(G, report) for G[m, n] = (1/N) sum_j conj(L_m) R_n w against the
    diagonal `norms`: the worse of the largest |off-diagonal| and relative
    diagonal error, NaN if any is.  One pairwise 1-D mean per entry."""
    G = np.array([[np.mean(np.conj(lm) * rn * w) for rn in right]
                  for lm in left])
    size = range(len(norms))
    off = nan_max(0.0, *(abs(G[m, n]) for m in size for n in size if m != n))
    diag = nan_max(0.0, *(abs(G[n, n] - norms[n]) / abs(norms[n])
                          for n in size))
    report = IdentityReport(
        name, nan_max(off, diag), tol, len(w), params,
        notes={"max_offdiag": off, "max_diag_rel_err": diag, **notes})
    return G, report


def over_weight(values, w, name: str):
    """values / w; an underflowed w (below UNDERFLOW_FLOOR) raises."""
    if np.min(np.abs(w)) < UNDERFLOW_FLOOR:
        raise WeightUnderflow(f"{name} underflowed at an evaluation point")
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
    """(T_q^n f)(z) = z^n sum_k A_k F[k], A = tq_power_coefficients(q, n)."""
    A = tq_power_coefficients(q, n)
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


def tq_power_coefficients(q, n: int) -> np.ndarray:
    """Constants A_k with (T_q^n f)(z) = z^n sum_k A_k f(q^k z).

    From T_q f(z) = (z/(1-q)) (f(z) - q f(qz)) the coefficient functions are
    A z^n with the recurrence A'_k = (A_k - q^{m+1} A_{k-1}) / (1 - q), so an
    application of T_q^n costs n+1 evaluations of f per point.
    """
    qv = qval(q)
    A = np.zeros(n + 1, dtype=float)
    A[0] = 1.0
    for m in range(n):
        A[1:m + 2] -= qv**(m + 1) * A[:m + 1]
        A[:m + 2] /= 1.0 - qv
    return A


def tq_iterate(f, q, n: int):
    """T_q^n f via the coefficient recurrence (O(n) evaluations per point)."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    if n == 0:
        return f
    qv = qval(q)
    return lambda z: _maybe_scalar(tq_power(shifted(f, z, qv, n), z, qv, n))


def adjoint_residual(f, g, q, grid: CircleGrid) -> float:
    """|<D_q f, g>_c - <f, T_q g>_c| on the given grid."""
    lhs = inner_product_c(dq_apply(f, q), g, grid)
    rhs = inner_product_c(f, tq_apply(g, q), grid)
    return abs(lhs - rhs)


def laurent_dq(p: LaurentPoly, q) -> LaurentPoly:
    """Exact coefficient map of D_q: z^m -> ((1 - q^m)/(1 - q)) z^{m-1}.

    The constant term is annihilated; negative degrees are handled by the
    same formula.
    """
    qv = qval(q)
    degrees = np.arange(p.min_degree, p.max_degree + 1)
    coeffs = np.zeros(len(degrees), dtype=complex)
    for i, m in enumerate(degrees):
        if m != 0:
            coeffs[i] = p.coefficients[i] * (1.0 - qv**m) / (1.0 - qv)
    return LaurentPoly(p.min_degree - 1, coeffs)
