"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with `pytest -s` or read captured output on failure).  Tolerances are
frozen here on purpose; loosening them is a behavior change, not a tweak.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qcircle.biortho import (BiorthoParams, biortho_gram, biortho_norms,
                             biortho_weight, imn_iterated_coefficient,
                             imn_table, kappa_closed, r_fn, random_params,
                             recursion_chain_reports, sears_check,
                             weight_rows)
from qcircle.biortho import ladder_reports as biortho_ladder_reports
from qcircle.circle import CircleGrid, LaurentPoly, contour_mean
from qcircle.qsl import m_apply, symmetry_residuals
from qcircle.suites import (adjointness_report, random_balanced_sears,
                            random_laurent_rows)
from qcircle.szego import (coefficient_table, jacobi_triple_check,
                           ladder_reports, product_rows,
                           sturm_liouville_eigenvalue, szego_gram, szego_norms,
                           szego_weight)

Q = 0.5
BASE_PARAMS = BiorthoParams(0.3, 0.2, 0.4, 0.1, Q)
CONJ_PARAMS = BiorthoParams(0.3 + 0.2j, 0.3 - 0.2j, 0.25 - 0.35j,
                            0.25 + 0.35j, Q)


def _verdict(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_01_szego_orthogonality():
    grid = CircleGrid(512)
    worst_off, worst_diag = 0.0, 0.0
    for q in (0.3, 0.5, 0.7):
        G, _, _ = szego_gram(8, q, grid)
        for m in range(9):
            for n in range(9):
                if m == n:
                    ref = szego_norms(n, q)[n]
                    worst_diag = max(worst_diag,
                                     abs(G[n, n] - ref) / abs(ref))
                else:
                    worst_off = max(worst_off, abs(G[m, n]))
    _verdict("criterion 1: Szego 9x9 Gram, q in {0.3,0.5,0.7}, N=512",
             worst_off < 1e-9 and worst_diag < 1e-8,
             f"offdiag={worst_off:.2e} diag_rel={worst_diag:.2e}")


def test_criterion_02_adjointness():
    rep = adjointness_report(Q, CircleGrid(64), seed=0, n_pairs=100)
    _verdict("criterion 2: adjointness, 100 random pairs, span<=10, N=64",
             rep.passed, f"max_residual={rep.residual:.2e}")


def test_criterion_03_szego_ladder_rodrigues_sl():
    worst = max(rep.residual for rep in ladder_reports(8, Q, CircleGrid(256)))
    formula_ok = all(
        sturm_liouville_eigenvalue(n, Q) == (1 - Q**n) / (1 - Q)**2
        for n in range(9))
    _verdict("criterion 3: ladder/Rodrigues/Sturm-Liouville, n<=8, N=256",
             worst < 1e-9 and formula_ok, f"max_residual={worst:.2e}")


def test_criterion_04_jacobi_triple_product():
    grid = CircleGrid(32)
    worst = max(jacobi_triple_check(q, grid, tol=1e-10).residual
                for q in (0.3, 0.5, 0.8))
    _verdict("criterion 4: triple product, 32 points, q in {0.3,0.5,0.8}",
             worst < 1e-10, f"max_residual={worst:.2e}")


def test_criterion_05_total_mass():
    grid = CircleGrid(256)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        p = random_params(rng, Q)
        closed = kappa_closed(p)
        quad = contour_mean(lambda z: biortho_weight(z, p), grid)
        worst = max(worst, abs(closed - quad) / abs(closed))
    _verdict("criterion 5: total mass, 10 seeded parameter sets",
             worst < 1e-10, f"max_rel_error={worst:.2e}")


def test_criterion_06_biorthogonality():
    grid = CircleGrid(512)
    worst_off, worst_diag = 0.0, 0.0
    for p in (BASE_PARAMS, CONJ_PARAMS):
        G, _, _ = biortho_gram(5, p, grid)
        for m in range(6):
            for n in range(6):
                if m == n:
                    ref = biortho_norms(n, p)[n]
                    worst_diag = max(worst_diag, abs(G[n, n] - ref) / abs(ref))
                else:
                    worst_off = max(worst_off, abs(G[m, n]))
    _verdict("criterion 6: biortho 6x6 Gram, real + conjugate-symmetric sets",
             worst_off < 1e-9 and worst_diag < 1e-8,
             f"offdiag={worst_off:.2e} diag_rel={worst_diag:.2e}")


def test_criterion_07_biortho_ladder():
    reports = biortho_ladder_reports(5, BASE_PARAMS, CircleGrid(256))
    worst = max(r.residual for r in reports)
    _verdict("criterion 7: biortho ladder n<=5", worst < 1e-9,
             f"max_residual={worst:.2e}")


def test_criterion_08_sears():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 9))
        A, B, C, D, E, F = random_balanced_sears(rng, Q, n)
        worst = max(worst, sears_check(n, A, B, C, D, E, F, Q).residual)
    _verdict("criterion 8: Sears transformation, 50 balanced draws, n<=8",
             worst < 1e-10, f"max_residual={worst:.2e}")


def test_criterion_09_recursion_chain():
    grid = CircleGrid(256)
    w = weight_rows(grid, [BASE_PARAMS])[0]
    table = imn_table(5, BASE_PARAMS, grid, w)
    chain = recursion_chain_reports(table, BASE_PARAMS, grid,
                                    kappa_closed(BASE_PARAMS))
    worst_step = max(r.residual for r in chain
                     if r.name == "imn_recursion_step")
    worst_closed = max(r.residual for r in chain
                       if r.name == "i00_shifted_closed_form"
                       and r.params["n"] <= 3)
    q = BASE_PARAMS.q
    worst_iter = max(
        abs(table[n, n] - imn_iterated_coefficient(n, BASE_PARAMS)
            * np.mean(weight_rows(grid, [replace(
                BASE_PARAMS, alpha=q**n * BASE_PARAMS.alpha,
                beta=q**n * BASE_PARAMS.beta)])[0]))
        for n in range(1, 5))
    worst_off = max(abs(table[m, n])
                    for m in range(5) for n in range(5) if m != n)
    ok = (worst_step < 1e-9 and worst_iter < 1e-8
          and worst_closed < 1e-9 and worst_off < 1e-9)
    _verdict("criterion 9: recursion chain (step, iterated, closed form, "
             "off-diagonal vanishing)", ok,
             f"step={worst_step:.2e} iter={worst_iter:.2e} "
             f"closed={worst_closed:.2e} offdiag={worst_off:.2e}")


def test_criterion_10_degenerations():
    grid = CircleGrid(256)
    pastro = replace(BASE_PARAMS, a=0.0, alpha=0.0)
    z = grid.nodes
    worst_mode = 0.0
    for n in range(5):
        vals = np.asarray(r_fn(n, z, pastro))
        for k in range(1, n + 2):
            worst_mode = max(worst_mode, abs(np.mean(vals * z**k)))
    G, _, _ = biortho_gram(3, pastro, grid)
    worst_diag = max(abs(G[n, n] - biortho_norms(n, pastro)[n])
                     / abs(biortho_norms(n, pastro)[n]) for n in range(4))
    # all-parameter-zero limit: weight, total mass, and leading Gram entry
    # collapse to the single-family values
    pz = BiorthoParams(0.0, 0.0, 0.0, 0.0, Q)
    w_dev = float(np.max(np.abs(np.asarray(biortho_weight(z, pz))
                                - np.asarray(szego_weight(z, Q)))))
    mass = contour_mean(lambda t: szego_weight(t, Q), grid)
    k_dev = abs(kappa_closed(pz) - mass) / abs(mass)
    G0, _, _ = biortho_gram(0, pz, grid)
    g_dev = abs(G0[0, 0] - szego_norms(0, Q)[0]) / abs(szego_norms(0, Q)[0])
    ok = (worst_mode < 1e-10 and worst_diag < 1e-8
          and w_dev < 1e-10 and k_dev < 1e-10 and g_dev < 1e-10)
    _verdict("criterion 10: Pastro polynomiality + all-zero reduction",
             ok, f"neg_modes={worst_mode:.2e} diag_rel={worst_diag:.2e} "
                 f"weight={w_dev:.2e} kappa={k_dev:.2e} gram00={g_dev:.2e}")


def test_criterion_11_qsl_anchor():
    grid = CircleGrid(256)
    w = lambda t: np.asarray(szego_weight(t, Q))
    z = grid.nodes
    worst = 0.0
    for n in range(9):
        h = LaurentPoly(0, coefficient_table(range(n, n + 1), Q)[0])
        lam = sturm_liouville_eigenvalue(n, Q)
        scale = max(1.0, float(np.max(np.abs(h(z)))))
        worst = max(worst, float(np.max(np.abs(
            np.asarray(m_apply(w, h, Q)(z)) - lam * h(z)))) / scale)
    # 50 polynomials from default_rng(0), degrees -4..4, in one batch.
    rows = random_laurent_rows(np.random.default_rng(0), 50, 4, grid, Q, 2)
    W = np.stack(grid.rows(product_rows, Q, (0, 1)))
    _, form, form_res = symmetry_residuals(W, rows, rows, Q, grid)
    min_form = min(f.real for f in form)
    if not all(r < 1e-8 for r in form_res):
        min_form = -math.inf
    _verdict("criterion 11: generic M reproduces the Szego eigen-problem + "
             "form positivity", worst < 1e-9 and min_form >= -1e-10,
             f"max_eigen_residual={worst:.2e} min_form={min_form:.2e}")


def test_criterion_12_biortho_to_degree_10():
    # Criteria 6 and 7's bounds at n <= 10, where the direct 4phi3 sum of
    # r_n read 5.8e-3, 3.0e9 and 0.14.
    grid = CircleGrid(512)
    worst_off, worst_diag = 0.0, 0.0
    for p in (BASE_PARAMS, CONJ_PARAMS):
        G, norms, _ = biortho_gram(10, p, grid)
        for m in range(11):
            for n in range(11):
                if m == n:
                    worst_diag = max(worst_diag,
                                     abs(G[n, n] - norms[n]) / abs(norms[n]))
                else:
                    worst_off = max(worst_off, abs(G[m, n]))
    ladder = max(r.residual for r in
                 biortho_ladder_reports(10, BASE_PARAMS, CircleGrid(256)))
    _verdict("criterion 12: biortho 11x11 Gram (real + conjugate-symmetric "
             "sets, N=512) and ladder n<=10",
             worst_off < 1e-9 and worst_diag < 1e-8 and ladder < 1e-9,
             f"offdiag={worst_off:.2e} diag_rel={worst_diag:.2e} "
             f"ladder={ladder:.2e}")
