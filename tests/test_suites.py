import json
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from qcircle import biortho, qsl, szego
from qcircle.biortho import (DEFAULT_PARAMS, BiorthoParams, biortho_gram,
                             r_fn, random_params)
from qcircle.circle import CircleGrid, LaurentPoly
from qcircle.cli import main
from qcircle.qcore import QUADRATURE_TOL, qval
from qcircle.report import IdentityReport, nan_max, to_json
from qcircle.suites import (SuiteConfig, pastro_degeneration_report,
                            random_balanced_sears, run_suite, summarize)


def sears_by_uniform(rng, q, n):
    """random_balanced_sears as ten rng.uniform calls and one np.exp per
    draw: the numbers and types its batched draw has to reproduce."""
    qv = qval(q)

    def draw():
        return rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())

    A, B, C, D, E = (draw() for _ in range(5))
    F = A * B * C * qv**(1 - n) / (D * E)
    return A, B, C, D, E, F


def test_random_balanced_sears_bytes():
    for seed in range(300):
        rng, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
        for q, n in ((0.12, 0), (0.5, 4), (0.9, 8)):
            got = random_balanced_sears(rng, q, n)
            want = sears_by_uniform(frozen, q, n)
            assert [type(x) for x in got] == [np.complex128] * 6
            assert [type(x) for x in want] == [np.complex128] * 6
            assert b"".join(x.tobytes() for x in got) == \
                b"".join(x.tobytes() for x in want)
        # Both drew the same number of doubles.
        assert rng.random() == frozen.random()


def test_verify_all_samples_r_n_through_r_rows_only(monkeypatch):
    # biortho.r_rows, one table of every degree per parameter set, is the
    # one r_n sampler of a verdict: no verdict calls r_fn, and each report
    # judges its own identity.
    tables, calls = Counter(), []
    r_fn, r_rows = biortho.r_fn, biortho.r_rows

    def rows(degrees, p, z, depth):
        tables[p] += 1
        return r_rows(degrees, p, z, depth)

    def fn(n, z, p):
        calls.append(n)
        return r_fn(n, z, p)

    monkeypatch.setattr(biortho, "r_rows", rows)
    monkeypatch.setattr(biortho, "r_fn", fn)
    reports = run_suite("all", SuiteConfig(max_n=5, grid_size=64))
    assert not any(r.informational for r in reports)
    assert calls == []
    p = BiorthoParams(*DEFAULT_PARAMS, 0.5)
    # shift_1 is the ladder's raised set and the chain's lower table.
    shift = replace(p, alpha=0.5 * p.alpha, beta=0.5 * p.beta)
    lowered = replace(p, a=0.5 * p.a, b=0.5 * p.b)
    pastro = replace(p, a=0.0, alpha=0.0)
    # The Gram at p and the ladder at p; the modes and the Gram at Pastro.
    assert tables == {p: 2, p.swapped(): 1, lowered: 1, shift: 2,
                      shift.swapped(): 1, pastro: 2, pastro.swapped(): 1}


def test_tol_sets_every_report_but_the_fixed_ones():
    # The algebraic identities keep qcore.ALGEBRAIC_TOL, adjointness and
    # sears_involution their own 1e-11; every other report reads --tol.
    reports = run_suite("all", SuiteConfig(q=0.5, max_n=5, grid_size=256,
                                           tolerance=1e-6))
    fixed = Counter((r.name, r.tolerance) for r in reports
                    if r.tolerance != 1e-6)
    assert fixed == {("szego_weight_pearson", 1e-12): 2,
                     ("szego_weight_positivity", 1e-12): 1,
                     ("biortho_weight_symmetry", 1e-12): 1,
                     ("biortho_weight_series", 1e-12): 1,
                     ("biortho_weight_shift", 1e-12): 1,
                     ("adjointness", 1e-11): 1,
                     ("sears_involution", 1e-11): 1}
    assert len(reports) - fixed.total() == 59


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
def test_suite_config_refuses_a_tolerance_the_cli_refuses(tol):
    # An infinite tolerance would pass every report, a NaN fail them all.
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        SuiteConfig(tolerance=tol)


@pytest.mark.parametrize("count", [64.5, "64"])
def test_suite_config_refuses_a_grid_size_that_is_not_an_integer(count):
    # 64.5 went into the JSON config while every report said 64.
    with pytest.raises(ValueError, match=f"node count {count!r} is not"):
        SuiteConfig(grid_size=count)


def test_suite_config_grid_size_from_a_numpy_integer():
    cfg = SuiteConfig(grid_size=np.int64(64))
    assert type(cfg.grid_size) is int and cfg.grid.n_nodes == 64


def test_notes_hold_only_evidence_of_their_own_residual(capsys):
    # The recursion chain's i00_shifted_closed_form reports carried
    # closed_vs_shifted_kappa, a distance that no residual read.
    # biorthogonality carried max_n, its Gram's size.
    evidence = {"max_offdiag", "max_diag_rel_err", "max_negative_mode",
                "weighted_inner_product", "min_real", "max_imag"}
    main(["verify", "all", "--max-n", "5", "--grid", "256", "--q", "0.5",
          "--format", "json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    for report in reports:
        assert set(report["notes"]) <= evidence, report["name"]
    assert {key for report in reports for key in report["notes"]} \
        == evidence


def test_suite_config_fields():
    assert [f.name for f in fields(SuiteConfig)] == [
        "q", "max_n", "grid_size", "tolerance", "params", "seed",
        "output_format"]


def test_informational_never_fails_suite():
    # No check sets the flag; JSON and CSV keep it.
    failing = IdentityReport("x", 1.0, 1e-10, 4, informational=True)
    assert summarize([failing]) == {"passed": 1, "failed": 0}


def test_verify_all_samples_rows_on_one_grid(monkeypatch):
    # One grid for the three suites that sample, H_1 and H_2 from the Szego
    # row table, s_n from r_rows: no callable is evaluated on the grid.
    calls = Counter()

    def count(name, *owners):
        original = getattr(owners[0], name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        for owner in owners:  # one callable, so the grid keys it once
            monkeypatch.setattr(owner, name, counted)

    for name, *owners in (("__post_init__", CircleGrid),
                          ("__call__", LaurentPoly),
                          ("s_fn", biortho), ("_m_rows", qsl),
                          ("szego_weight", szego, biortho)):
        count(name, *owners)
    run_suite("all", SuiteConfig(q=0.5, max_n=5, grid_size=256, seed=3))
    # M applied once each to the anchor, to f and g, and to H_1 and H_2.
    # The weight: the grid's q-product rows 0 and 1, which the qsl suite
    # reads and the biortho suite's Pearson check samples (row 1), its row
    # 5, the szego suite's Pearson reference, and biortho_weight at 1/z and
    # at z, the two sides of the weight symmetry check.  The biortho
    # suite's weight rows sample none: they are the circle row times a
    # series.
    assert calls == {"__post_init__": 1, "_m_rows": 4, "szego_weight": 5}
    assert not hasattr(qsl, "certify_eigenpair")


def pastro_by_loops(p, grid, max_n):
    """pastro_degeneration_report with one r_fn call per degree and one
    mean per negative mode."""
    pastro = replace(p, a=0.0, alpha=0.0)
    z = grid.nodes
    worst = 0.0
    for n in range(max_n + 1):
        vals = np.asarray(r_fn(n, z, pastro))
        for k in range(1, n + 2):
            worst = nan_max(worst, abs(np.mean(vals * z**k)))
    *_, gram = biortho_gram(max_n, pastro, grid)
    diag = gram.notes["max_diag_rel_err"]
    return IdentityReport("pastro_degeneration", nan_max(worst, diag),
                          QUADRATURE_TOL, grid.n_nodes, pastro.as_dict(),
                          notes={"max_negative_mode": worst,
                                 "max_diag_rel_err": diag})


def eigen_orthogonality_by_callables(q, grid):
    """The qsl_eigen_orthogonality report from H_1 and H_2 as LaurentPoly
    callables and a direct weight row."""
    v1, v2 = (LaurentPoly(0, szego.coefficient_table(range(n, n + 1), q)[0])(
        grid.nodes) for n in (1, 2))
    w = np.asarray(szego.szego_weight(grid.nodes, q))
    weighted = complex(np.mean(v1 * np.conj(v2) * w))
    return IdentityReport(
        "qsl_eigen_orthogonality", abs(weighted), QUADRATURE_TOL,
        grid.n_nodes, {"lambda1": complex(szego.sturm_liouville_eigenvalue(
            1, q)), "lambda2": complex(szego.sturm_liouville_eigenvalue(2, q))},
        notes={"weighted_inner_product": weighted})


@pytest.mark.parametrize("max_n", [0, 1, 4])
@pytest.mark.parametrize("q", [0.05, 0.5, 0.8])
def test_pastro_modes_bytes(q, max_n):
    grid = CircleGrid(256)
    for p in (BiorthoParams(*DEFAULT_PARAMS, q),
              random_params(np.random.default_rng(max_n), q)):
        got = pastro_degeneration_report(p, grid, max_n)
        assert to_json(got.as_dict()) == \
            to_json(pastro_by_loops(p, grid, max_n).as_dict())


@pytest.mark.parametrize("max_n", [0, 1, 4])
@pytest.mark.parametrize("q", [0.05, 0.5, 0.8])
def test_qsl_eigen_orthogonality_bytes(q, max_n):
    cfg = SuiteConfig(q=q, max_n=max_n, grid_size=256)
    (got,) = [r for r in run_suite("qsl", cfg)
              if r.name == "qsl_eigen_orthogonality"]
    want = eigen_orthogonality_by_callables(cfg.q, CircleGrid(256))
    assert to_json(got.as_dict()) == to_json(want.as_dict())
