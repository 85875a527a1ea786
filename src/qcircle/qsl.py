"""Generic q-Sturm-Liouville operator M f = (1/omega) T_q(p D_q f) with
pluggable coefficient p and weight omega, plus numeric verification of
symmetry, positivity, and eigenfunction orthogonality.

Verdicts act on rows F[k] = f(q^k z) at the grid nodes, P functions at once
as shape (3, P, N); `m_apply` is the callable API and the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# tq_apply stays bound here for benchmarks/tests/test_bench_tracer.py::
# test_uninstall_restores_every_original_binding, which checks its rebinding.
from .circle import (CircleGrid, dq_rows, over_weight, shifted, tq_apply,
                     tq_rows)
from .errors import EigenpairInvalid
from .qcore import QUADRATURE_TOL, _maybe_scalar, qval
from .report import IdentityReport, nan_max, worst

EIGEN_CERT_TOL = 1e-8


@dataclass(frozen=True)
class QSLProblem:
    """Coefficient p, weight omega (callables on an annulus around |z|=1),
    and the base q.  Both p and omega must be real and positive on the
    circle; validate_on checks that numerically.
    """

    p: object
    omega: object
    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", qval(self.q))

    def validate_on(self, grid: CircleGrid):
        for name, fn in (("p", self.p), ("omega", self.omega)):
            vals = grid.rows(fn, self.q, 0)[0]
            if worst(vals.imag) > 1e-12:
                raise ValueError(f"{name} is not real on the grid")
            if np.min(vals.real) <= 0.0:
                raise ValueError(f"{name} is not positive on the grid")


def _m_row(q, F, P, omega, z):
    """M f at z from rows 0..2 of f, rows 0..1 of p and row 0 of omega."""
    return over_weight(tq_rows(P * dq_rows(F, z, q), z, q)[0], omega, "omega")


def m_apply(prob: QSLProblem, f):
    """M f: z -> (1/omega(z)) T_q(p * D_q f)(z)."""
    q = prob.q
    return lambda z: _maybe_scalar(_m_row(
        q, shifted(f, z, q, 2), shifted(prob.p, z, q, 1),
        shifted(prob.omega, z, q, 0)[0], z))


def _m_rows(prob: QSLProblem, F, grid: CircleGrid) -> np.ndarray:
    """M f at the grid nodes, shape (P, N), from rows 0..2 of P functions,
    shape (3, P, N), with p and omega sampled once per grid."""
    return _m_row(prob.q, F, grid.rows(prob.p, prob.q, 1)[:, None],
                  grid.rows(prob.omega, prob.q, 0)[0], grid.nodes[None])


def symmetry_residuals(prob: QSLProblem, F, G, grid: CircleGrid):
    """Per pair (f_i, g_i), given as rows 0..2 of shape (3, P, N), lists of:
    the symmetry residual |(f, Mg)_omega - conj((g, Mf)_omega)|, the form
    (f, Mf)_omega, and the worst of the form's own symmetry residual, its
    distance from the nonnegative (1/2 pi i) \\oint p |D_q f|^2 dz/z, and
    -Re."""
    prob.validate_on(grid)
    w = grid.rows(prob.omega, prob.q, 0)[0]
    mf = _m_rows(prob, F, grid)
    mg = mf if G is F else _m_rows(prob, G, grid)
    lhs = np.mean(F[0] * np.conj(mg) * w, axis=-1).tolist()
    rhs = np.mean(G[0] * np.conj(mf) * w, axis=-1).tolist()
    form = np.mean(F[0] * np.conj(mf) * w, axis=-1).tolist()
    df = dq_rows(F, grid.nodes[None], prob.q)[0]
    direct = np.mean(grid.rows(prob.p, prob.q, 0)[0] * np.abs(df)**2,
                     axis=-1).tolist()
    sym = [worst(a - b.conjugate()) for a, b in zip(lhs, rhs)]
    form_res = [nan_max(worst(f - f.conjugate()), worst(f - d), -f.real)
                for f, d in zip(form, direct)]
    return sym, form, form_res


def eigen_residual(prob: QSLProblem, Y, lams, grid: CircleGrid) -> list:
    """max |M y_i - lam_i y_i| over the grid nodes, per function y_i given
    as rows 0..2 of shape (3, P, N), with P eigenvalues lams."""
    lam = np.array([complex(v) for v in lams])[:, None]
    return worst(_m_rows(prob, Y, grid) - lam * Y[0])


def eigen_orthogonality_check(prob: QSLProblem, Y, lams, grid: CircleGrid,
                              tol: float = QUADRATURE_TOL) -> IdentityReport:
    """|(y1, y2)_omega|, which the symmetry of M forces to vanish, for
    eigenfunctions given as rows 0..2 of shape (3, 2, N) with distinct
    eigenvalues lams, noting the inner product.  Raises EigenpairInvalid if
    the eigenvalues are too close, or a pair's eigen_residual exceeds
    EIGEN_CERT_TOL or its eigenvalue is not (numerically) real."""
    lam1, lam2 = lams = [complex(v) for v in lams]
    if abs(lam1 - lam2) <= 1e-8:
        raise EigenpairInvalid("eigenvalues are too close to test orthogonality")
    prob.validate_on(grid)
    for lam, res in zip(lams, eigen_residual(prob, Y, lams, grid)):
        if res > EIGEN_CERT_TOL:
            raise EigenpairInvalid(
                f"eigenpair residual {res} exceeds {EIGEN_CERT_TOL}")
        if abs(lam.imag) > 1e-10:
            raise EigenpairInvalid(f"eigenvalue {lam} is not real")
    v1, v2 = Y[0]
    w = grid.rows(prob.omega, prob.q, 0)[0]
    weighted = complex(np.mean(v1 * np.conj(v2) * w))
    return IdentityReport(
        "qsl_eigen_orthogonality", worst(weighted), tol, grid.n_nodes,
        {"lambda1": lam1, "lambda2": lam2},
        notes={"weighted_inner_product": weighted})
