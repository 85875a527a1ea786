"""The q-Sturm-Liouville operator M f = (1/w) T_q(w D_q f) of one weight w,
real and positive on the circle, plus numeric verification of symmetry,
positivity, and eigenfunction orthogonality.

Verdicts act on the weight's rows W = (w(z), w(qz)) at the grid nodes, shape
(2, N), and on rows F[k] = f(q^k z), P functions at once as shape (3, P, N);
`m_apply` is the callable API and the tests' oracle.
"""

from __future__ import annotations

import numpy as np

# tq_apply stays bound here for benchmarks/tests/test_bench_tracer.py::
# test_uninstall_restores_every_original_binding, which checks its rebinding.
from .circle import (CircleGrid, dq_rows, over_weight, shifted, tq_apply,
                     tq_rows)
from .errors import EigenpairInvalid
from .qcore import QUADRATURE_TOL, _maybe_scalar, qval
from .report import IdentityReport, nan_max, worst

EIGEN_CERT_TOL = 1e-8


def validate(W):
    """Raise ValueError unless the weight rows W are finite and row W[0], the
    coefficient p of D_q, is real (to an absolute 1e-12) and positive."""
    if not np.all(np.isfinite(W)):
        raise ValueError("p is not finite on the grid")
    if worst(W[0].imag) > 1e-12:
        raise ValueError("p is not real on the grid")
    if np.min(W[0].real) <= 0.0:
        raise ValueError("p is not positive on the grid")


def _m_row(q, F, W, z):
    """M f at z from rows 0..2 of f and rows 0..1 of w."""
    return over_weight(tq_rows(W * dq_rows(F, z, q), z, q)[0], W[0])


def m_apply(w, f, q):
    """M f: z -> (1/w(z)) T_q(w * D_q f)(z)."""
    qv = qval(q)
    return lambda z: _maybe_scalar(_m_row(
        qv, shifted(f, z, qv, 2), shifted(w, z, qv, 1), z))


def _m_rows(W, F, q, grid: CircleGrid) -> np.ndarray:
    """M f at the grid nodes, shape (P, N), from rows 0..2 of P functions,
    shape (3, P, N)."""
    return _m_row(q, F, W[:, None], grid.nodes[None])


def symmetry_residuals(W, F, G, q, grid: CircleGrid):
    """Per pair (f_i, g_i), given as rows 0..2 of shape (3, P, N), lists of:
    the symmetry residual |(f, Mg)_w - conj((g, Mf)_w)|, the form (f, Mf)_w,
    and the worst of the form's own symmetry residual, its distance from the
    nonnegative (1/2 pi i) \\oint w |D_q f|^2 dz/z, and -Re."""
    validate(W)
    w = W[0]
    mf = _m_rows(W, F, q, grid)
    mg = mf if G is F else _m_rows(W, G, q, grid)
    lhs = np.mean(F[0] * np.conj(mg) * w, axis=-1).tolist()
    rhs = np.mean(G[0] * np.conj(mf) * w, axis=-1).tolist()
    form = np.mean(F[0] * np.conj(mf) * w, axis=-1).tolist()
    df = dq_rows(F, grid.nodes[None], q)[0]
    direct = np.mean(w * np.abs(df)**2, axis=-1).tolist()
    sym = [worst(a - b.conjugate()) for a, b in zip(lhs, rhs)]
    form_res = [nan_max(worst(f - f.conjugate()), worst(f - d), -f.real)
                for f, d in zip(form, direct)]
    return sym, form, form_res


def eigen_residual(W, Y, lams, q, grid: CircleGrid) -> list:
    """max |M y_i - lam_i y_i| over the grid nodes, per function y_i given
    as rows 0..2 of shape (3, P, N), with P eigenvalues lams."""
    lam = np.array([complex(v) for v in lams])[:, None]
    return worst(_m_rows(W, Y, q, grid) - lam * Y[0])


def eigen_orthogonality_check(W, Y, lams, q, grid: CircleGrid,
                              tol: float = QUADRATURE_TOL) -> IdentityReport:
    """|(y1, y2)_w|, which the symmetry of M forces to vanish, for
    eigenfunctions given as rows 0..2 of shape (3, 2, N) with distinct
    eigenvalues lams, noting the inner product.  Raises EigenpairInvalid if
    the eigenvalues are too close, or a pair's eigen_residual exceeds
    EIGEN_CERT_TOL or its eigenvalue is not (numerically) real."""
    lam1, lam2 = lams = [complex(v) for v in lams]
    if abs(lam1 - lam2) <= 1e-8:
        raise EigenpairInvalid("eigenvalues are too close to test orthogonality")
    validate(W)
    for lam, res in zip(lams, eigen_residual(W, Y, lams, q, grid)):
        if res > EIGEN_CERT_TOL:
            raise EigenpairInvalid(
                f"eigenpair residual {res} exceeds {EIGEN_CERT_TOL}")
        if abs(lam.imag) > 1e-10:
            raise EigenpairInvalid(f"eigenvalue {lam} is not real")
    v1, v2 = Y[0]
    weighted = complex(np.mean(v1 * np.conj(v2) * W[0]))
    return IdentityReport(
        "qsl_eigen_orthogonality", worst(weighted), tol, grid.n_nodes,
        {"lambda1": lam1, "lambda2": lam2},
        notes={"weighted_inner_product": weighted})
