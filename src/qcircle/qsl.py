"""Generic q-Sturm-Liouville operator M f = (1/omega) T_q(p D_q f) with
pluggable coefficient p and weight omega, plus numeric verification of
symmetry, positivity, and eigenfunction orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleGrid, dq_apply, tq_apply
from .errors import EigenpairInvalid, WeightUnderflow
from .qcore import QUADRATURE_TOL, qval
from .report import IdentityReport, nan_max

UNDERFLOW_FLOOR = 1e-300
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
            vals = np.asarray(fn(grid.nodes), dtype=complex)
            if np.max(np.abs(vals.imag)) > 1e-12:
                raise ValueError(f"{name} is not real on the grid")
            if np.min(vals.real) <= 0.0:
                raise ValueError(f"{name} is not positive on the grid")


def m_apply(prob: QSLProblem, f):
    """M f: z -> (1/omega(z)) T_q(p * D_q f)(z)."""
    qv = prob.q
    df = dq_apply(f, qv)

    def pdf(t):
        return np.asarray(prob.p(t)) * np.asarray(df(t))

    tq = tq_apply(pdf, qv)

    def mf(z):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(prob.omega(z), dtype=complex)
        if np.min(np.abs(w)) < UNDERFLOW_FLOOR:
            raise WeightUnderflow("omega underflowed at an evaluation point")
        out = np.asarray(tq(z)) / w
        return complex(out) if out.ndim == 0 else out

    return mf


def _weighted_ip(f, g, omega, grid: CircleGrid) -> complex:
    z = grid.nodes
    fv = np.asarray(f(z), dtype=complex)
    gv = np.asarray(g(z), dtype=complex)
    wv = np.asarray(omega(z), dtype=complex)
    return complex(np.mean(fv * np.conj(gv) * wv))


def symmetry_check(prob: QSLProblem, f, g, grid: CircleGrid,
                   tol: float = QUADRATURE_TOL) -> IdentityReport:
    """Symmetry residual |(f, Mg)_omega - conj((g, Mf)_omega)|.

    With f = g, also checks that the quadratic form (f, Mf)_omega equals the
    manifestly nonnegative route (1/2 pi i) \\oint p |D_q f|^2 dz/z and is
    >= -tol.
    """
    prob.validate_on(grid)
    mf = m_apply(prob, f)
    mg = m_apply(prob, g)
    lhs = _weighted_ip(f, mg, prob.omega, grid)
    rhs = _weighted_ip(g, mf, prob.omega, grid)
    sym = abs(lhs - np.conj(rhs))
    notes = {"form_lhs": lhs, "form_rhs_conj": complex(np.conj(rhs))}
    residual = sym
    if f is g:
        form = lhs
        z = grid.nodes
        df = np.asarray(dq_apply(f, prob.q)(z))
        pv = np.asarray(prob.p(z), dtype=complex)
        direct = complex(np.mean(pv * np.abs(df)**2))
        residual = nan_max(sym, abs(form - direct), -form.real)
        notes.update({"quadratic_form": form, "direct_form": direct})
    return IdentityReport("qsl_symmetry", residual, tol, grid.n_nodes,
                          notes=notes)


def certify_eigenpair(prob: QSLProblem, y, lam, grid: CircleGrid,
                      tol: float = EIGEN_CERT_TOL) -> float:
    """Max residual of M y = lam * y on the grid; raises EigenpairInvalid
    beyond tol, or when the claimed eigenvalue is not (numerically) real."""
    z = grid.nodes
    res = float(np.max(np.abs(np.asarray(m_apply(prob, y)(z))
                              - complex(lam) * np.asarray(y(z)))))
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
    z = grid.nodes
    bare = complex(np.mean(np.asarray(y1(z)) * np.asarray(y2(z))))
    weighted = _weighted_ip(y1, y2, prob.omega, grid)
    return IdentityReport(
        "qsl_eigen_orthogonality", abs(weighted), tol, grid.n_nodes,
        {"lambda1": complex(lam1), "lambda2": complex(lam2)},
        notes={"weighted_inner_product": weighted,
               "bare_contour_mean": bare})
