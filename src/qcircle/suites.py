"""Verification suites: bundles of identity checks with serializable
reports, shared by the CLI and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import biortho, qsl, szego
from .circle import CircleGrid, dq_rows, tq_rows
from .qcore import ALGEBRAIC_TOL, QUADRATURE_TOL, phi, qval, representable
from .report import IdentityReport, nan_max, to_csv, to_json, worst


@dataclass
class SuiteConfig:
    q: float = 0.5
    max_n: int = 5
    grid_size: int = 256
    tolerance: float = QUADRATURE_TOL
    params: Optional[biortho.BiorthoParams] = None
    seed: int = 0
    output_format: str = "text"

    def __post_init__(self):
        self.q = qval(self.q)
        if self.max_n < 0:
            raise ValueError("max_n must be nonnegative")
        self.grid_size = self.grid.n_nodes  # CircleGrid checks the count
        if not 0 < self.tolerance < float("inf"):  # NaN fails too
            raise ValueError("tolerance must be finite and > 0")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    @cached_property
    def grid(self) -> CircleGrid:
        """The one grid of a verdict's suites: each row sampled once."""
        return CircleGrid(self.grid_size)

    def biortho_params(self) -> biortho.BiorthoParams:
        if self.params is not None:
            return self.params
        return biortho.BiorthoParams(*biortho.DEFAULT_PARAMS, self.q)

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.params is None:
            del d["params"]
        return d


def random_laurent_rows(rng: np.random.Generator, count: int, deg_range: int,
                        grid: CircleGrid, q, depth: int) -> np.ndarray:
    """Rows 0..depth at the grid nodes, shape (depth+1, count, N), of
    `count` random Laurent polynomials of degrees -deg_range..deg_range,
    drawn as `count` successive polynomials (real parts, then imaginary):
    one matrix product of their coefficients with the table V[j, k, n] =
    q^{jk} z_{kn mod N} = (q^j z_n)^k, each node power read from the grid's
    nodes by index, so rounded once.  ValueError where a row overflows."""
    x = rng.standard_normal((count, 2, 2 * deg_range + 1))
    k, n = np.arange(-deg_range, deg_range + 1), grid.n_nodes
    with representable(f"the random Laurent rows overflow at q={q}"):
        V = qval(q)**np.outer(np.arange(depth + 1), k)[:, :, None]
        V = V * grid.nodes[np.outer(k, np.arange(n)) % n]
        return (x[:, 0] + 1j * x[:, 1]) @ V


def adjointness_report(q, grid: CircleGrid, seed: int,
                       n_pairs: int = 100) -> IdentityReport:
    """Max |<D_q f, g>_c - <f, T_q g>_c| over seeded random Laurent pairs of
    degrees -5..5, all pairs in one batch of rows, to 1e-11."""
    qv, z = qval(q), grid.nodes[None]
    rows = random_laurent_rows(np.random.default_rng(seed), 2 * n_pairs, 5,
                               grid, qv, 1)
    F, G = rows[:, 0::2], rows[:, 1::2]
    with representable(f"the random pairs' inner products overflow at q={qv}"):
        lhs = np.mean(dq_rows(F, z, qv)[0] * np.conj(G[0]), axis=-1)
        rhs = np.mean(F[0] * np.conj(tq_rows(G, z, qv)[0]), axis=-1)
    return IdentityReport("adjointness", worst((lhs - rhs).tolist()), 1e-11,
                          grid.n_nodes,
                          {"q": qv, "pairs": n_pairs, "seed": seed})


def szego_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    grid, q, tol = cfg.grid, cfg.q, cfg.tolerance
    # The Gram's (0, 0) entry is the total mass, since H_0 = 1.
    G, norms, gram_rep = szego.szego_gram(cfg.max_n, q, grid, tol)
    w = szego.circle_weight(grid, q, norms[0])  # the Gram's weight row
    min_real, max_imag = float(np.min(w.real)), worst(w.imag)
    return [
        IdentityReport("szego_total_mass",
                       worst(complex(G[0, 0]) - norms[0], abs(norms[0])), tol,
                       grid.n_nodes, {"q": q}),
        szego.jacobi_triple_check(q, grid, tol),
        *szego.ladder_reports(cfg.max_n, q, grid, tol),
        # The deepest Pearson ratio row the ladder above uses, times row 0:
        # Rodrigues' at n = max_n, raising and Sturm-Liouville's at 1.
        szego.weight_pearson_check(w, q, grid, max(1, cfg.max_n)),
        gram_rep,
        adjointness_report(q, grid, cfg.seed, n_pairs=50),
        IdentityReport("szego_weight_positivity", nan_max(max_imag, -min_real),
                       ALGEBRAIC_TOL, grid.n_nodes, {"q": q},
                       notes={"min_real": min_real, "max_imag": max_imag}),
    ]


def pastro_degeneration_report(p: biortho.BiorthoParams, grid: CircleGrid,
                               max_n: int,
                               tol: float = QUADRATURE_TOL) -> IdentityReport:
    """At a = alpha = 0 the rational functions collapse to polynomials:
    their negative Laurent modes, projected by quadrature, must vanish."""
    pastro = replace(p, a=0.0, alpha=0.0)
    z = grid.nodes
    R = biortho.r_rows(range(max_n + 1), pastro, z, 0)[0]
    Zk = np.stack([z**k for k in range(1, max_n + 2)])
    modes = np.mean(R[:, None] * Zk, axis=-1).tolist()  # [n][k - 1]
    negative = worst([m for n, row in enumerate(modes) for m in row[:n + 1]])
    *_, gram = biortho.biortho_gram(max_n, pastro, grid)
    diag = gram.notes["max_diag_rel_err"]
    return IdentityReport("pastro_degeneration", nan_max(negative, diag), tol,
                          grid.n_nodes, pastro.as_dict(),
                          notes={"max_negative_mode": negative,
                                 "max_diag_rel_err": diag})


def kappa_random_report(q, grid: CircleGrid, seed: int,
                        tol: float = QUADRATURE_TOL) -> IdentityReport:
    """The total mass's worst residual over 10 seeded random parameter
    sets: |mean(w) - kappa| / |kappa|, biortho_gram(0, ...)'s to the last
    bit as r_0 = s_0 = 1, from one batch of weight rows and one of kappas."""
    n_sets = 10
    rng = np.random.default_rng(seed)
    sets = [biortho.random_params(rng, q) for _ in range(n_sets)]
    # The kappas first: one that underflows raises before the weight rows,
    # which overflow near q = 1, are sampled.
    kappas = biortho.kappa_each(sets)
    residual = nan_max(0.0, *(
        worst(complex(np.mean(w)) - kappa, abs(kappa))
        for w, kappa in zip(biortho.weight_rows(grid, sets), kappas)))
    return IdentityReport("biortho_total_mass_random", residual, tol,
                          grid.n_nodes, {"q": qval(q), "sets": n_sets,
                                         "seed": seed})


def biortho_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    grid, p, tol = cfg.grid, cfg.biortho_params(), cfg.tolerance
    # One I[m, n] at p: the total mass, the Gram and the chain's block.
    G, norms, gram_rep = biortho.biortho_gram(cfg.max_n, p, grid, tol)
    reports = [
        IdentityReport("biortho_total_mass",
                       worst(complex(G[0, 0]) - norms[0], abs(norms[0])), tol,
                       grid.n_nodes, p.as_dict()),
        kappa_random_report(cfg.q, grid, cfg.seed, tol=tol),
        *biortho.weight_symmetry_reports(p, grid),
        # The Szego Pearson step -1/(q^{1/2} z) of the raising ratio rows,
        # on the circle row that the weight rows above share.
        szego.weight_pearson_check(szego.circle_weight(grid, cfg.q), cfg.q,
                                   grid, 1),
        gram_rep,
    ]
    reports += biortho.ladder_reports(cfg.max_n, p, grid, tol)
    reports += biortho.recursion_chain_reports(G[:4, :4], p, grid, norms[0],
                                               tol)
    reports.append(pastro_degeneration_report(p, grid, min(cfg.max_n, 4), tol))
    return reports


def random_balanced_sears(rng: np.random.Generator, q, n: int):
    """Draw (A..F) with moderate magnitudes satisfying the balance condition
    A B C q^{1-n} = D E F (F is solved for)."""
    qv = qval(q)
    # Five (magnitude, phase) pairs: the doubles of ten rng.uniform calls,
    # |X| from [0.2, 0.8) as uniform(0.2, 0.8) scales them.
    u = rng.random(10)
    A, B, C, D, E = (0.2 + (0.8 - 0.2) * u[::2]) * np.exp(2j * np.pi * u[1::2])
    F = A * B * C * qv**(1 - n) / (D * E)  # numpy complex128 scalar math
    return A, B, C, D, E, F


def sears_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    n_draws = 50
    rng = np.random.default_rng(cfg.seed)
    reports = []
    largest = 0.0
    nmax = max(1, min(cfg.max_n, 8))
    for _ in range(n_draws):
        n = int(rng.integers(0, nmax + 1))
        A, B, C, D, E, F = random_balanced_sears(rng, cfg.q, n)
        rep = biortho.sears_check(n, A, B, C, D, E, F, cfg.q, cfg.tolerance)
        largest = nan_max(largest, rep.residual)
    reports.append(IdentityReport(
        "sears_random_draws", largest, cfg.tolerance, 0,
        {"q": cfg.q, "draws": n_draws, "seed": cfg.seed, "max_n": nmax}))
    # One deterministic double application: the transformation is an
    # involution under the induced parameter relabeling.
    reports.append(sears_involution_report(cfg.q))
    return reports


def sears_involution_report(q) -> IdentityReport:
    """Applying the transformation twice returns the original series value,
    at n = 4, to 1e-11."""
    n, tol = 4, 1e-11
    qv = qval(q)
    A, B, C, D, E = 0.3 + 0.1j, 0.4, 0.25 - 0.2j, 0.5, 0.35 + 0.05j
    F = A * B * C * qv**(1 - n) / (D * E)
    original = phi(n, (A, B, C), (D, E, F), qv)
    p1, args1 = biortho.sears_transform(n, A, B, C, D, E, F, qv)
    p2, args2 = biortho.sears_transform(n, *args1, qv)
    twice = p1 * p2 * phi(n, args2[:3], args2[3:], qv)
    residual = worst(twice - original, max(1.0, abs(original)))
    return IdentityReport("sears_involution", residual, tol, 0,
                          {"q": qv, "n": n})


def qsl_suite(cfg: SuiteConfig) -> list[IdentityReport]:
    grid, q = cfg.grid, cfg.q
    # The q-product rows 0 and 1 the biortho suite samples.  validate names
    # a non-finite weight, so the sampling's overflow warnings stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        W = np.stack(grid.rows(szego.product_rows, q, (0, 1)))
    qsl.validate(W)
    # Degrees 0..max(max_n, 2): the eigenpair check reads H_1 and H_2.
    H = szego.poly_rows(range(max(cfg.max_n, 2) + 1), q, grid.nodes, 2)
    anchor = qsl.eigen_residual(
        W, H[:, :cfg.max_n + 1],
        [szego.sturm_liouville_eigenvalue(n, q) for n in range(cfg.max_n + 1)],
        q, grid)
    reports = [IdentityReport(
        "qsl_szego_anchor", nan_max(0.0, *anchor), cfg.tolerance,
        grid.n_nodes, {"q": q, "max_n": cfg.max_n})]

    # 20 seeded pairs (f, g): f's symmetry against g and its own form.
    rows = random_laurent_rows(np.random.default_rng(cfg.seed), 40, 3, grid,
                               q, 2)
    with representable(f"the random pairs' forms overflow at q={q}"):
        sym, _, form_res = qsl.symmetry_residuals(
            W, rows[:, 0::2], rows[:, 1::2], q, grid)
    reports.append(IdentityReport(
        "qsl_symmetry_random", nan_max(0.0, *sym), cfg.tolerance,
        grid.n_nodes, {"q": q, "seed": cfg.seed}))
    reports.append(IdentityReport(
        "qsl_form_positivity", nan_max(0.0, *form_res), cfg.tolerance,
        grid.n_nodes, {"q": q, "seed": cfg.seed}))
    reports.append(qsl.eigen_orthogonality_check(
        W, H[:, 1:3],
        [szego.sturm_liouville_eigenvalue(n, q) for n in (1, 2)], q, grid,
        cfg.tolerance))
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
        return to_json({"suite": suite, "config": cfg.as_dict(),
                        "reports": [r.as_dict() for r in reports],
                        "summary": summarize(reports)})
    if cfg.output_format == "csv":
        return to_csv(["name", "residual", "tolerance", "passed",
                       "grid_size", "informational"],
                      [[r.name, r.residual, r.tolerance, r.passed,
                        r.grid_size, r.informational] for r in reports])
    return to_text(suite, reports)
