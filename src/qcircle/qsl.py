"""Generic q-Sturm-Liouville operator M f = (1/omega) T_q(p D_q f) with
pluggable coefficient p and weight omega, plus numeric verification of
symmetry, positivity, and eigenfunction orthogonality.
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
from .report import IdentityReport, nan_max

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
            if np.max(np.abs(vals.imag)) > 1e-12:
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


def _m_on_grid(prob: QSLProblem, f, grid: CircleGrid):
    """f's rows 0..2 and M f at the grid nodes, with p and omega sampled
    once per grid."""
    F = shifted(f, grid.nodes, prob.q, 2)
    return F, _m_row(prob.q, F, grid.rows(prob.p, prob.q, 1),
                     grid.rows(prob.omega, prob.q, 0)[0], grid.nodes)


def symmetry_check(prob: QSLProblem, f, g, grid: CircleGrid,
                   tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Symmetry residual |(f, Mg)_omega - conj((g, Mf)_omega)|.

    With f = g, also checks that the quadratic form (f, Mf)_omega equals the
    manifestly nonnegative route (1/2 pi i) \\oint p |D_q f|^2 dz/z and is
    >= -tol.
    """
    prob.validate_on(grid)
    F, mf = _m_on_grid(prob, f, grid)
    G, mg = _m_on_grid(prob, g, grid)
    w = grid.rows(prob.omega, prob.q, 0)[0]
    lhs = complex(np.mean(F[0] * np.conj(mg) * w))
    rhs = complex(np.mean(G[0] * np.conj(mf) * w))
    sym = abs(lhs - np.conj(rhs))
    notes = {"form_lhs": lhs, "form_rhs_conj": complex(np.conj(rhs))}
    residual = sym
    if f is g:
        form = lhs
        df = dq_rows(F, grid.nodes, prob.q)[0]
        pv = grid.rows(prob.p, prob.q, 0)[0]
        direct = complex(np.mean(pv * np.abs(df)**2))
        residual = nan_max(sym, abs(form - direct), -form.real)
        notes.update({"quadratic_form": form, "direct_form": direct})
    return IdentityReport("qsl_symmetry", residual, tol, grid.n_nodes,
                          notes=notes)


def eigen_residual(prob: QSLProblem, y, lam, grid: CircleGrid) -> float:
    """max |M y - lam y| over the grid nodes."""
    Y, my = _m_on_grid(prob, y, grid)
    return float(np.max(np.abs(my - complex(lam) * Y[0])))


def certify_eigenpair(prob: QSLProblem, y, lam, grid: CircleGrid,
                      tol: float = EIGEN_CERT_TOL) -> float:
    """Max residual of M y = lam * y on the grid; raises EigenpairInvalid
    beyond tol, or when the claimed eigenvalue is not (numerically) real."""
    res = eigen_residual(prob, y, lam, grid)
    if res > tol:
        raise EigenpairInvalid(f"eigenpair residual {res} exceeds {tol}")
    if abs(complex(lam).imag) > 1e-10:
        raise EigenpairInvalid(f"eigenvalue {lam} is not real")
    return res


def eigen_orthogonality_check(prob: QSLProblem, y1, lam1, y2, lam2,
                              grid: CircleGrid,
                              tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Orthogonality of certified eigenfunctions with distinct eigenvalues.

    Reports both readings: the bare contour mean of y1*y2 (no weight, no
    conjugation) and the omega-weighted inner product (y1, y2)_omega.  The
    report residual is the weighted form, which is the one the symmetry of M
    forces to vanish; the bare value is informational.
    """
    if abs(complex(lam1) - complex(lam2)) <= 1e-8:
        raise EigenpairInvalid("eigenvalues are too close to test orthogonality")
    prob.validate_on(grid)
    certify_eigenpair(prob, y1, lam1, grid)
    certify_eigenpair(prob, y2, lam2, grid)
    v1, v2 = y1(grid.nodes), y2(grid.nodes)
    bare = complex(np.mean(v1 * v2))
    w = grid.rows(prob.omega, prob.q, 0)[0]
    weighted = complex(np.mean(v1 * np.conj(v2) * w))
    return IdentityReport(
        "qsl_eigen_orthogonality", abs(weighted), tol, grid.n_nodes,
        {"lambda1": complex(lam1), "lambda2": complex(lam2)},
        notes={"weighted_inner_product": weighted,
               "bare_contour_mean": bare})
