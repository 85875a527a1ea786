"""Verification suites: bundles of identity checks with serializable
reports, shared by the CLI and the acceptance tests.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import biortho, qsl, szego
from .circle import CircleGrid, LaurentPoly, adjoint_residual
from .qcore import ALGEBRAIC_TOL, QUADRATURE_TOL, PhiSpec, phi, qval
from .report import IdentityReport, nan_max, re_im


@dataclass
class SuiteConfig:
    q: float = 0.5
    max_n: int = 5
    grid_size: int = 256
    tolerance: float = QUADRATURE_TOL
    algebraic_tolerance: float = ALGEBRAIC_TOL
    params: Optional[biortho.BiorthoParams] = None
    seed: int = 0
    output_format: str = "text"

    def __post_init__(self):
        self.q = qval(self.q)
        if self.max_n < 0:
            raise ValueError("max_n must be nonnegative")
        if self.grid_size < 4:
            raise ValueError("grid size must be at least 4")
        if self.tolerance <= 0 or self.algebraic_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def grid(self) -> CircleGrid:
        return CircleGrid(self.grid_size)

    def biortho_params(self) -> biortho.BiorthoParams:
        if self.params is not None:
            return self.params
        return biortho.BiorthoParams(0.3, 0.2, 0.4, 0.1, self.q)

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.params is None:
            del d["params"]
        return d


def random_laurent(rng: np.random.Generator, min_deg: int,
                   max_deg: int) -> LaurentPoly:
    n = max_deg - min_deg + 1
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return LaurentPoly(min_deg, coeffs)


def adjointness_report(q, grid: CircleGrid, seed: int, n_pairs: int = 100,
                       deg_range: int = 5,
                       tol: float = 1e-11) -> IdentityReport:
    """Max adjointness residual over seeded random Laurent-poly pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        f = random_laurent(rng, -deg_range, deg_range)
        g = random_laurent(rng, -deg_range, deg_range)
        worst = nan_max(worst, adjoint_residual(f, g, q, grid))
    return IdentityReport("adjointness", worst, tol, grid.n_nodes,
                          {"q": qval(q), "pairs": n_pairs, "seed": seed})


def szego_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    grid = cfg.grid()
    q = cfg.q
    tol = cfg.tolerance
    reports = [
        szego.total_mass_check(q, grid, tol),
        szego.jacobi_triple_check(q, grid, tol),
    ]
    for n in range(1, cfg.max_n + 1):
        reports.append(szego.lowering_check(n, q, grid, tol))
    for n in range(cfg.max_n + 1):
        reports.append(szego.raising_check(n, q, grid, tol))
        reports.append(szego.rodrigues(n, q, grid, tol))
        reports.append(szego.sturm_liouville_check(n, q, grid, tol))
    _, gram_rep = szego.szego_gram(cfg.max_n, q, grid, tol)
    reports.append(gram_rep)
    reports.append(adjointness_report(q, grid, cfg.seed, n_pairs=50))

    w = grid.rows(szego.szego_weight, q, 0, q)[0]
    pos = nan_max(np.max(np.abs(w.imag)), -float(np.min(w.real)))
    reports.append(IdentityReport(
        "szego_weight_positivity", pos, cfg.algebraic_tolerance,
        grid.n_nodes, {"q": q},
        notes={"min_real": float(np.min(w.real)),
               "max_imag": float(np.max(np.abs(w.imag)))}))
    return reports


def pastro_degeneration_report(p: biortho.BiorthoParams, grid: CircleGrid,
                               max_n: int,
                               tol: float = QUADRATURE_TOL) -> IdentityReport:
    """At a = alpha = 0 the rational functions collapse to polynomials:
    their negative Laurent modes, projected by quadrature, must vanish."""
    pastro = p.with_params(a=0.0, alpha=0.0)
    z = grid.nodes
    worst = 0.0
    for n in range(max_n + 1):
        vals = np.asarray(biortho.r_fn(n, z, pastro))
        for k in range(1, n + 2):
            worst = nan_max(worst, abs(np.mean(vals * z**k)))
    _, gram = biortho.biortho_gram(max_n, pastro, grid)
    diag = gram.notes["max_diag_rel_err"]
    return IdentityReport("pastro_degeneration", nan_max(worst, diag), tol,
                          grid.n_nodes, pastro.as_dict(),
                          notes={"max_negative_mode": worst,
                                 "max_diag_rel_err": diag})


def kappa_random_report(q, grid: CircleGrid, seed: int, n_sets: int = 10,
                        tol: float = QUADRATURE_TOL) -> IdentityReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sets):
        p = biortho.random_params(rng, q)
        worst = nan_max(worst, biortho.kappa_check(p, grid, tol).residual)
    return IdentityReport("biortho_total_mass_random", worst, tol,
                          grid.n_nodes, {"q": qval(q), "sets": n_sets,
                                         "seed": seed})


def biortho_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    grid = cfg.grid()
    p = cfg.biortho_params()
    tol = cfg.tolerance
    reports = [
        biortho.kappa_check(p, grid, tol),
        kappa_random_report(cfg.q, grid, cfg.seed, tol=tol),
        biortho.weight_symmetry_check(p, grid, cfg.algebraic_tolerance),
    ]
    _, gram_rep = biortho.biortho_gram(cfg.max_n, p, grid, tol)
    reports.append(gram_rep)
    for n in range(1, cfg.max_n + 1):
        reports.append(biortho.lowering_biortho_check(n, p, grid, tol))
        reports.append(biortho.raising_biortho_check(n, p, grid, tol))
    reports.append(biortho.variant_reconciliation(
        max(1, min(2, cfg.max_n)), p, grid, tol))
    upper = min(cfg.max_n, 3)
    for m in range(1, upper + 1):
        for n in range(1, upper + 1):
            reports.append(biortho.imn_recursion_check(m, n, p, grid, tol))
    for n in range(min(cfg.max_n, 3) + 1):
        reports.append(biortho.i00_closed_check(n, p, grid, tol))
    if cfg.max_n >= 2:
        reports.append(biortho.imn_iterated_check(
            min(cfg.max_n, 3), min(cfg.max_n, 3), p, grid, tol))
    reports.append(pastro_degeneration_report(p, grid, min(cfg.max_n, 4), tol))
    return reports


def random_balanced_sears(rng: np.random.Generator, q, n: int):
    """Draw (A..F) with moderate magnitudes satisfying the balance condition
    A B C q^{1-n} = D E F (F is solved for)."""
    qv = qval(q)

    def draw():
        return rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())

    A, B, C, D, E = (draw() for _ in range(5))
    F = A * B * C * qv**(1 - n) / (D * E)
    return A, B, C, D, E, F


def sears_suite(cfg: SuiteConfig, n_draws: int = 50) -> list[IdentityReport]:
    rng = np.random.default_rng(cfg.seed)
    reports = []
    worst = 0.0
    nmax = max(1, min(cfg.max_n, 8))
    for _ in range(n_draws):
        n = int(rng.integers(0, nmax + 1))
        A, B, C, D, E, F = random_balanced_sears(rng, cfg.q, n)
        rep = biortho.sears_check(n, A, B, C, D, E, F, cfg.q, cfg.tolerance)
        worst = nan_max(worst, rep.residual)
    reports.append(IdentityReport(
        "sears_random_draws", worst, cfg.tolerance, 0,
        {"q": cfg.q, "draws": n_draws, "seed": cfg.seed, "max_n": nmax}))
    # One deterministic double application: the transformation is an
    # involution under the induced parameter relabeling.
    reports.append(sears_involution_report(cfg.q, tol=1e-11))
    return reports


def sears_involution_report(q, n: int = 4,
                            tol: float = 1e-11) -> IdentityReport:
    """Applying the transformation twice returns the original series value."""
    qv = qval(q)
    A, B, C, D, E = 0.3 + 0.1j, 0.4, 0.25 - 0.2j, 0.5, 0.35 + 0.05j
    F = A * B * C * qv**(1 - n) / (D * E)
    original = phi(PhiSpec((qv**-n, A, B, C), (D, E, F), qv, qv))
    p1, args1 = biortho.sears_transform(n, A, B, C, D, E, F, qv)
    p2, args2 = biortho.sears_transform(n, *args1, qv)
    twice = p1 * p2 * phi(PhiSpec((qv**-n,) + args2[:3], args2[3:], qv, qv))
    residual = abs(twice - original) / max(1.0, abs(original))
    return IdentityReport("sears_involution", residual, tol, 0,
                          {"q": qv, "n": n})


def qsl_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    grid = cfg.grid()
    q = cfg.q
    # p and omega are one callable, so the grid samples the weight once.
    weight = lambda z: szego.szego_weight(z, q)
    prob = qsl.QSLProblem(weight, weight, q)
    reports = []
    worst = 0.0
    for n in range(cfg.max_n + 1):
        worst = nan_max(worst, qsl.eigen_residual(
            prob, szego.szego_poly(n, q),
            szego.sturm_liouville_eigenvalue(n, q), grid))
    reports.append(IdentityReport(
        "qsl_szego_anchor", worst, cfg.tolerance, grid.n_nodes,
        {"q": q, "max_n": cfg.max_n}))

    rng = np.random.default_rng(cfg.seed)
    worst_sym = 0.0
    worst_pos = 0.0
    for _ in range(20):
        f = random_laurent(rng, -3, 3)
        g = random_laurent(rng, -3, 3)
        worst_sym = nan_max(worst_sym,
                            qsl.symmetry_check(prob, f, g, grid).residual)
        worst_pos = nan_max(worst_pos,
                            qsl.symmetry_check(prob, f, f, grid).residual)
    reports.append(IdentityReport(
        "qsl_symmetry_random", worst_sym, cfg.tolerance, grid.n_nodes,
        {"q": q, "seed": cfg.seed}))
    reports.append(IdentityReport(
        "qsl_form_positivity", worst_pos, cfg.tolerance, grid.n_nodes,
        {"q": q, "seed": cfg.seed}))
    reports.append(qsl.eigen_orthogonality_check(
        prob, szego.szego_poly(1, q), szego.sturm_liouville_eigenvalue(1, q),
        szego.szego_poly(2, q), szego.sturm_liouville_eigenvalue(2, q),
        grid, cfg.tolerance))
    return reports


SUITES = {
    "szego": szego_suite,
    "biortho": biortho_suite,
    "sears": sears_suite,
    "qsl": qsl_suite,
}


def run_suite(name: str, cfg: SuiteConfig) -> list[IdentityReport]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(cfg))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{sorted(SUITES)} or 'all'")
    return SUITES[name](cfg)


def summarize(reports: list[IdentityReport]) -> dict:
    failed = sum(1 for r in reports if not r.passed and not r.informational)
    passed = len(reports) - failed
    return {"passed": passed, "failed": failed}


def to_json(suite: str, cfg: SuiteConfig,
            reports: list[IdentityReport]) -> str:
    doc = {
        "suite": suite,
        "config": cfg.as_dict(),
        "reports": [r.as_dict() for r in reports],
        "summary": summarize(reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True, default=re_im)


def to_csv(reports: list[IdentityReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "residual", "tolerance", "passed",
                     "grid_size", "informational"])
    for r in reports:
        writer.writerow([r.name, repr(r.residual), repr(r.tolerance),
                         r.passed, r.grid_size, r.informational])
    return buf.getvalue()


def to_text(suite: str, reports: list[IdentityReport]) -> str:
    lines = [f"suite: {suite}"]
    for r in reports:
        tag = "INFO" if r.informational else ("PASS" if r.passed else "FAIL")
        lines.append(f"  [{tag}] {r.name:<32} residual={r.residual:.3e} "
                     f"tol={r.tolerance:.1e}")
        if r.informational and r.notes:
            for k, v in r.notes.items():
                lines.append(f"         {k}: {v}")
    s = summarize(reports)
    lines.append(f"summary: {s['passed']} passed, {s['failed']} failed")
    return "\n".join(lines)


def render(suite: str, cfg: SuiteConfig,
           reports: list[IdentityReport]) -> str:
    if cfg.output_format == "json":
        return to_json(suite, cfg, reports)
    if cfg.output_format == "csv":
        return to_csv(reports)
    return to_text(suite, reports)
