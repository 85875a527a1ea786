import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qcircle.suites
import qcircle.szego
from qcircle.biortho import (DEFAULT_PARAMS, BiorthoParams, biortho_weight,
                             r_rows, weight_rows)
from qcircle.circle import CircleGrid, gram_matrix
from qcircle.cli import (UFUNC_BUFSIZE, build_parser, four_params, main,
                         parse_complex)
from qcircle.qcore import ALGEBRAIC_TOL, qpochhammer_inf_each, theta_sum
from qcircle.szego import circle_weight, poly_rows, szego_norms

# Keys whose values are complex numbers in the JSON of verify, gram and eval.
COMPLEX_KEYS = {"a", "alpha", "b", "beta", "lambda1", "lambda2",
                "weighted_inner_product", "computed",
                "expected", "kappa_closed", "kappa_quadrature"}


QQ_UNDERFLOW = "error: (q;q)_inf underflowed below the smallest normal float"
KAPPA_UNDERFLOW = ("error: (q, a alpha, b alpha, a beta, b beta; q)_inf "
                   "underflowed below the smallest normal float")


def run_cli(argv):
    """qcircle in a fresh interpreter, so that numpy's warnings reach its
    stderr, as text."""
    src = pathlib.Path(qcircle.suites.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-m", "qcircle.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)})


def json_objects(text):
    """Every object of a JSON document, as its (key, value) pairs in the
    order written."""
    objects = []
    json.loads(text, object_pairs_hook=lambda pairs: objects.append(pairs)
               or dict(pairs))
    return objects


class TestParseComplex:
    def test_real(self):
        assert parse_complex("0.3") == 0.3

    def test_full(self):
        assert parse_complex("0.3+0.1i") == 0.3 + 0.1j

    def test_negative_imaginary(self):
        assert parse_complex("-0.2i") == -0.2j

    def test_garbage_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("zebra")


class TestHelp:
    @pytest.mark.parametrize("columns", ["40", "200"])
    def test_help_is_the_default_formatters(self, columns, monkeypatch):
        # build_parser queries the terminal width once for all its
        # formatters; every help text is the one argparse's default
        # formatter, which queries it itself, writes.
        import argparse
        monkeypatch.setenv("COLUMNS", columns)
        parser = build_parser()
        (commands,) = [action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert list(commands) == ["eval", "verify", "gram"]
        for p in (parser, *commands.values()):
            text = p.format_help()
            p.formatter_class = argparse.HelpFormatter
            assert text == p.format_help()


def main_streams(argv, out_file=None):
    """(exit code, stdout, stderr, --out file text or None) of one main
    call, a SystemExit as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if out_file is not None and out_file.exists():
        written = out_file.read_text()
        out_file.unlink()
    return code, out.getvalue(), err.getvalue(), written


class TestOneParserPerProcess:
    """main builds its parser at the first call and keeps it: a command
    prints what it prints under a fresh parser, whichever ran before it."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        qcircle.cli._parser.cache_clear()
        yield
        qcircle.cli._parser.cache_clear()

    @staticmethod
    def commands(out_file):
        return [
            ["eval", "szego", "--n", "3", "--z", "0.3+0.2i", "--format",
             "json"],
            ["eval", "rn", "--n", "2", "--params", "0.3,0.2,0.4,0.1"],
            ["verify", "sears", "--max-n", "2", "--format", "csv"],
            ["gram", "szego", "--max-n", "2", "--grid", "64", "--format",
             "text"],
            ["gram", "biortho", "--max-n", "2", "--grid", "64", "--out",
             str(out_file)],
            ["verify", "szego", "--params", "0.3,0.2,0.4,0.1"],  # refused
            ["eval", "weight", "--n", "3"],  # refused: weight has no n
            ["verify", "szego", "--max-n", "-1"],
            ["eval", "kappa", "--grid", "3"],  # exits 2: too few nodes
            ["eval", "szego"],  # after the refusals: no --n given
            ["--help"],
        ]

    def test_a_command_is_its_fresh_parsers(self, tmp_path):
        out_file = tmp_path / "gram.json"
        sequence = self.commands(out_file)
        alone = []
        for argv in sequence:
            qcircle.cli._parser.cache_clear()
            alone.append(main_streams(argv, out_file))
        qcircle.cli._parser.cache_clear()
        assert [code for code, *_ in alone] == [0, 0, 0, 0, 0, 2, 2, 2, 2,
                                                0, 0]
        assert alone[4][3].startswith("biortho Gram matrix, N=64")
        for argv, want in [*zip(sequence, alone),
                           *zip(sequence[::-1], alone[::-1])]:
            assert main_streams(argv, out_file) == want, argv

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        built = []
        build = qcircle.cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(qcircle.cli, "build_parser", counting)
        for argv in [["eval", "szego", "--n", "3"], ["eval", "rn"]] * 3:
            assert main(argv) == 0
        assert len(built) == 1
        # build_parser itself still makes a new parser at every call.
        assert qcircle.cli.build_parser() is not qcircle.cli.build_parser()


class TestEval:
    def test_szego_n0_is_one(self, capsys):
        assert main(["eval", "szego", "--n", "0", "--z", "0.7+0.1i"]) == 0
        out = capsys.readouterr().out
        assert "+1.000000000000e+00" in out

    def test_szego_json(self, capsys):
        assert main(["eval", "szego", "--n", "2", "--z", "1.0",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "value" in doc and len(doc["value"]) == 2

    def test_kappa_sides_agree(self, capsys):
        assert main(["eval", "kappa", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["abs_difference"] < 1e-10

    def test_rn_with_params_csv(self, capsys):
        assert main(["eval", "rn", "--n", "1", "--z", "1.0",
                     "--params", "0.3,0.2,0.4,0.1"]) == 0
        assert "r_1" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, value", [
        (["eval", "sn", "--n", "12", "--z", "1"], "+1.152290242332e-12"),
        (["eval", "rn", "--n", "12", "--z", "0", "--q", "0.1"],
         "+4.342820376581e-12"),
        (["eval", "rn", "--n", "12", "--z", "1e-4", "--q", "0.9"],
         "+1.871527340338e-06"),
    ], ids=["sn-12-at-1", "rn-12-at-0", "rn-12-near-0"])
    def test_rn_and_sn_to_the_printed_digits(self, argv, value, capsys):
        # mpmath's 200-digit 4phi3 sums, rounded to the 13 printed digits.
        # The direct double sum printed -8192, 0 and 1.871526407626e-06.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.split(" = ")[1] == f"{value}+0.000000000000e+00i\n"

    def test_theta_near_one_to_the_printed_digits(self, capsys):
        # mpmath's jtheta(3, 0, 0.999999) is 1772.4534077664; capped at
        # 2000 terms a side, the sum printed +1.764253486281e+03.
        assert main(["eval", "theta", "--z", "1", "--q", "0.999999"]) == 0
        assert capsys.readouterr().out.split(" = ")[1] == \
            "+1.772453407766e+03+0.000000000000e+00i\n"

    @pytest.mark.parametrize("q", ["0.5", "0.9"])
    @pytest.mark.parametrize("subject, params", [
        ("weight", None), ("bweight", None),
        ("bweight", "0.3+0.1i,0.2-0.15i,0.4+0.05i,0.1+0.2i")],
        ids=["weight", "bweight", "bweight-complex"])
    def test_weight_at_a_node_is_the_verdicts_row(self, subject, params, q,
                                                  capsys):
        # eval weight prints, bit for bit, the entry of the q-product row
        # that the Pearson checks judge at that grid node.  eval bweight
        # prints biortho_weight's q-products, the reference that
        # biortho_weight_series holds the verdicts' series rows to: bit
        # for bit that row's entry, and the series row's within
        # ALGEBRAIC_TOL, relative.
        grid = CircleGrid(64)
        if subject == "weight":
            (row,) = grid.rows(qcircle.szego.product_rows, float(q), [0])
        else:
            p = BiorthoParams(*(four_params(params) if params
                                else DEFAULT_PARAMS), float(q))
            row = np.asarray(biortho_weight(grid.nodes, p))
            series = weight_rows(grid, [p])[0]
        for j in range(0, 64, 3):
            z = repr(complex(grid.nodes[j])).strip("()").replace("j", "i")
            argv = ["eval", subject, f"--z={z}", "--q", q, "--format", "json"]
            assert main(argv + (["--params", params] if params else [])) == 0
            value = complex(*json.loads(capsys.readouterr().out)["value"])
            assert np.array(value).tobytes() == row[j].tobytes(), j
            if subject == "bweight":
                assert abs(series[j] - value) <= ALGEBRAIC_TOL * abs(value)

    @pytest.mark.parametrize("q", ["0.5", "0.9"])
    @pytest.mark.parametrize("subject, n", [
        ("szego", 0), ("szego", 1), ("szego", 5), ("szego", 12),
        ("theta", None)])
    def test_polynomial_at_a_node_is_the_verdicts_row(self, subject, n, q,
                                                      capsys):
        # eval szego prints, bit for bit, the entry of the H_n row that the
        # verdicts read at that grid node, and eval theta the theta_sum row.
        grid = CircleGrid(64)
        if subject == "szego":
            row = qcircle.szego.poly_rows(range(n + 1), float(q), grid.nodes,
                                          0)[0, n]
        else:
            row = theta_sum(grid.nodes, float(q))
        for j in range(0, 64, 3):
            z = repr(complex(grid.nodes[j])).strip("()").replace("j", "i")
            argv = ["eval", subject, f"--z={z}", "--q", q, "--format", "json"]
            assert main(argv + (["--n", str(n)] if n is not None else [])) == 0
            value = complex(*json.loads(capsys.readouterr().out)["value"])
            assert np.array(value).tobytes() == row[j].tobytes(), j

    @pytest.mark.parametrize("q", ["0.3", "0.9", "0.99"])
    def test_polynomial_off_the_grid_is_the_tables_entry(self, q, capsys):
        # eval szego reads poly_rows' one-degree table at the point given
        # twice; its value is, bit for bit, the entry of a table of every
        # degree at random points off the circle.
        rng = np.random.default_rng(int(float(q) * 100))
        z = rng.normal(size=24) * 1.5 + 1j * rng.normal(size=24)
        table = qcircle.szego.poly_rows(range(21), float(q), z, 0)[0]
        for j, n in enumerate(rng.integers(0, 21, size=24)):
            point = repr(complex(z[j])).strip("()").replace("j", "i")
            assert main(["eval", "szego", "--n", str(n), f"--z={point}",
                         "--q", q, "--format", "json"]) == 0
            value = complex(*json.loads(capsys.readouterr().out)["value"])
            assert np.array(value).tobytes() == table[n, j].tobytes(), j

    @pytest.mark.parametrize("n, z", [("600", "0.5"), ("700", "0.5"),
                                      ("3000", "0.5"), ("565", "0.5"),
                                      ("1040", "1")])
    def test_underflowed_rn_exits_2(self, n, z, capsys):
        # r_n at |z| <= 1 decays through the subnormals to 0, and each
        # printed what was left: +0 at n = 600, 700 and 3000, 2.669e-310 at
        # 565 and 4.941e-324 at 1040.
        assert main(["eval", "rn", "--n", n, "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: r_{n} underflowed below the smallest normal float at a "
            f"point of its table, q=0.5\n")

    @pytest.mark.parametrize("n, z, value", [
        ("560", "0.5", "+1.474605673148e-307+0.000000000000e+00i"),
        ("1", "-0.7942146141233379", "+0.000000000000e+00+0.000000000000e+00i"),
        ("5", "0.5", "+0.000000000000e+00+0.000000000000e+00i"),
    ], ids=["normal", "root", "b-zero"])
    def test_small_or_zero_rn_prints(self, n, z, value, capsys):
        # A normal r_560 two degrees short of the subnormals; an exact 0 of
        # r_1 next to r_0 = 1, a root rather than an underflow; and r_5 at
        # b = 0, where the 4phi3 is 1phi0(q^-n; ; q, q) = 0 for n >= 1.
        params = ["--params", "0.3,0.2,0,0.1"] if n == "5" else []
        assert main(["eval", "rn", "--n", n, f"--z={z}", *params]) == 0
        assert capsys.readouterr().out.endswith(f" = {value}\n")


class TestVerify:
    @pytest.mark.parametrize("suite", ["szego", "sears", "qsl"])
    def test_suites_pass(self, suite, capsys):
        code = main(["verify", suite, "--max-n", "3", "--grid", "128"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out

    def test_biortho_suite_passes(self, capsys):
        code = main(["verify", "biortho", "--max-n", "2", "--grid", "128"])
        assert code == 0, capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["szego", "biortho", "sears", "qsl",
                                       "all"])
    def test_json_config_keys(self, suite, capsys):
        # The tolerance --tol sets; the algebraic one is a constant of the
        # program and each report carries its own.
        main(["verify", suite, "--format", "json", "--max-n", "2", "--grid",
              "64"])
        config = json.loads(capsys.readouterr().out)["config"]
        keys = {"q", "max_n", "grid_size", "tolerance", "seed",
                "output_format"}
        assert set(config) == keys | ({"params"} if suite in ("biortho",
                                                              "all")
                                      else set())

    def test_json_schema(self, capsys):
        assert main(["verify", "sears", "--format", "json",
                     "--max-n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"suite", "config", "reports", "summary"}
        assert doc["summary"]["failed"] == 0

    @pytest.mark.parametrize("argv, code", [
        (["verify", "sears", "--seed", "7", "--format", "json", "--max-n",
          "3"], 0),
        # Every report passes: biorthogonality read 2.7e-9 against 1e-10
        # from the direct 4phi3 sum of r_n, 1.4e-15 from its recurrence.
        (["verify", "all", "--seed", "7", "--format", "json"], 0),
    ], ids=["sears", "all"])
    def test_seeded_output_is_deterministic(self, argv, code, capsys):
        assert main(argv) == code
        first = capsys.readouterr().out
        assert main(argv) == code
        second = capsys.readouterr().out
        assert first == second

    def test_invalid_q_exits_2(self, capsys):
        assert main(["verify", "szego", "--q", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["verify", "sears", "--max-n", "2", "--format", "json",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        doc = json.loads(target.read_text())
        assert doc["summary"]["failed"] == 0


class TestGram:
    def test_szego_text(self, capsys):
        assert main(["gram", "szego", "--max-n", "3", "--grid", "128"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "residual" in out

    def test_biortho_csv(self, capsys):
        assert main(["gram", "biortho", "--max-n", "2", "--grid", "128",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("m,n,computed_re")
        # (max_n+1)^2 data rows
        assert len([ln for ln in out.splitlines() if ln.strip()]) == 10

    def test_csv_cells_are_plain_numbers(self, capsys):
        assert main(["gram", "biortho", "--max-n", "3", "--grid", "128",
                     "--format", "csv"]) == 0
        rows = [r for r in csv.reader(io.StringIO(capsys.readouterr().out))
                if r]
        assert len(rows) == 1 + 16
        for m, n, *cells in rows[1:]:
            assert m.isdigit() and n.isdigit()
            # float() rejects a numpy repr such as np.float64(1e-15).
            assert all(math.isfinite(float(c)) for c in cells)

    def test_json_rows(self, capsys):
        assert main(["gram", "szego", "--max-n", "2", "--grid", "128",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 9
        assert doc["report"]["passed"] is True


class TestNoFalsePass:
    def test_nan_gram_fails(self, monkeypatch, capsys):
        # A NaN in the weight row makes the Gram matrix NaN; a NaN residual
        # must read as FAIL, not PASS.  (At q=0.998 the row overflowed
        # until the subnormal (q;q)_inf there was taken for an underflow.)
        row = qcircle.szego.circle_weight

        def with_nan(grid, q, mass):
            return np.where(np.arange(grid.n_nodes) == 3, np.nan,
                            row(grid, q, mass))

        monkeypatch.setattr(qcircle.szego, "circle_weight", with_nan)
        assert main(["gram", "szego", "--max-n", "2"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] residual=nan" in out
        assert "PASS" not in out

    @pytest.mark.parametrize("argv, invariant", [
        (["verify", "szego", "--tol", "0"], "tolerance must be finite and > 0"),
        (["verify", "szego", "--tol", "nan"], "tolerance must be finite and > 0"),
        (["verify", "szego", "--tol", "inf"], "tolerance must be finite and > 0"),
        (["gram", "szego", "--tol", "-1"], "tolerance must be finite and > 0"),
        (["eval", "szego", "--tol", "0"], "unrecognized arguments: --tol"),
        (["gram", "szego", "--max-n", "-1"], "max-n must be >= 0"),
        (["verify", "sears", "--max-n", "-1"], "max-n must be >= 0"),
        (["verify", "sears", "--n", "-2"], "unrecognized arguments: --n"),
        (["eval", "szego", "--format", "csv"], "invalid choice: 'csv'"),
        (["eval", "rn", "--params", "0.3,abc,0.4,0.1"],
         "argument --params: cannot parse complex number 'abc'"),
        (["verify", "biortho", "--params", "0.3,abc,0.4,0.1"],
         "argument --params: cannot parse complex number 'abc'"),
        (["gram", "biortho", "--params", "0.3,abc,0.4,0.1"],
         "argument --params: cannot parse complex number 'abc'"),
        (["gram", "biortho", "--params", "0.3,0.2,0.4"],
         "expected four comma-separated values a,alpha,b,beta"),
        (["verify", "biortho", "--params", "0.3,nan,0.4,0.1"],
         "argument --params: complex number must be finite, got 'nan'"),
        (["eval", "rn", "--n", "1", "--a", "0.3"],
         "unrecognized arguments: --a"),
        (["eval", "szego", "--n", "2", "--z", "nan"],
         "argument --z: complex number must be finite, got 'nan'"),
        (["eval", "szego", "--z", "1e400"],
         "argument --z: complex number must be finite, got '1e400'"),
        (["verify", "all", "--seed", "-1"],
         "argument --seed: seed must be >= 0, got -1"),
        (["gram", "szego", "--seed", "-1"],
         "argument --seed: seed must be >= 0, got -1"),
        (["verify", "szego", "--max-n", "1", "--grid", "16",
          "--params", "2,0,0,0"],
         "argument --params: verify szego has no rational family"),
        (["verify", "sears", "--params", "0.3,0.2,0.4,0.1"],
         "argument --params: verify sears has no rational family"),
        (["verify", "qsl", "--params", "0.3,0.2,0.4,0.1"],
         "argument --params: verify qsl has no rational family"),
        (["gram", "szego", "--params", "0.3,0.2,0.4,0.1"],
         "argument --params: gram szego has no rational family"),
        (["eval", "szego", "--params", "0.3,0.2,0.4,0.1"],
         "argument --params: eval szego has no rational family"),
        (["eval", "weight", "--params", "0.3,0.2,0.4,0.1"],
         "argument --params: eval weight has no rational family"),
        (["eval", "theta", "--params", "5,5,5,5"],
         "argument --params: eval theta has no rational family"),
        (["eval", "szego", "--grid", "3", "--n", "2"],
         "argument --grid: eval szego does not read it"),
        (["eval", "rn", "--n", "3", "--grid", "2"],
         "argument --grid: eval rn does not read it"),
        (["eval", "weight", "--n", "5", "--z", "1"],
         "argument --n: eval weight does not read it"),
        (["eval", "kappa", "--z", "0.5", "--n", "4"],
         "argument --z: eval kappa does not read it"),
        (["eval", "theta", "--n", "0"],
         "argument --n: eval theta does not read it"),
        (["eval", "bweight", "--grid", "256"],
         "argument --grid: eval bweight does not read it"),
        (["verify", "biortho", "--params", "0.3,0.2,0,0.1", "--max-n", "2",
          "--grid", "16"],
         "error: b*beta = 0: every norm h_n with n >= 1 vanishes"),
        (["verify", "biortho", "--params", "0.3,0.2,0.4,0", "--max-n", "2",
          "--grid", "16"],
         "error: b*beta = 0: every norm h_n with n >= 1 vanishes"),
        (["gram", "biortho", "--max-n", "2", "--params", "0.3,0.2,0.4,0"],
         "error: b*beta = 0: every norm h_n with n >= 1 vanishes"),
        (["gram", "biortho", "--max-n", "2", "--params", "0.3,0.2,0,0.1"],
         "error: b*beta = 0: every norm h_n with n >= 1 vanishes"),
        (["verify", "qsl", "--max-n", "5", "--grid", "256", "--q", "0.999"],
         "error: p is not finite on the grid"),
    ])
    def test_invalid_tolerance_or_degree_exits_2(self, argv, invariant, capsys):
        # Each of these used to run: --tol 0 silently at the default, NaN or
        # a negative tolerance failing every check, --max-n -1 printing PASS
        # on an empty Gram matrix, a NaN parameter or point printing nan.  A
        # malformed --params entry ended in a traceback and exit 1.  verify's
        # former --n alias won silently over --max-n.  verify --seed -1
        # exited 2 with numpy's bare "expected non-negative integer", and
        # gram, which draws nothing at random, exited 0.  --params is the
        # one way to give a,alpha,b,beta: --a and its kin are not flags.  A
        # command without the rational family dropped --params silently:
        # verify szego with |a| = 2 exited 0.  eval dropped --n, --z and
        # --grid silently where its subject does not read them, even when
        # given at their default values.  At b*beta = 0 every norm h_n with
        # n >= 1 vanishes: verify divided by zero in a traceback (b = 0) or
        # failed at NaN (beta = 0), and gram failed at NaN; the parser takes
        # these, so the error line is the whole of stderr.  verify qsl at
        # q = 0.999, where the weight row overflows, exited 1 with four NaN
        # FAILs and numpy's warnings.
        if invariant.startswith("error: "):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == invariant + "\n"
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert invariant in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("z, q, got, want", [
        ("1.5i", "0.9999", "6.357e+165", "2.1e105"),
        ("1.5i", "0.999", "1.258e+02", "8.2e-56"),
        ("-1.5", "0.99", "2.758e-14", "9.7e-73"),
        ("-1", "0.99", "1.954e-16", "9.9e-66")])
    def test_theta_lost_to_rounding_exits_2(self, z, q, got, want, capsys):
        # Off the circle near q = 1, and at z = -1, the terms of the theta
        # sum cancel far below their rounding: each printed `got` and exited
        # 0, while mpmath's jtheta gives `want`.
        assert main(["eval", "theta", f"--z={z}", "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: theta(")
        assert f"is lost to rounding: its terms cancel to {got}, within " \
            "their rounding bound" in line

    def test_underflowed_qq_inf_exits_2(self, capsys):
        # (q;q)_inf underflows to 0 at q=0.999; the total-mass closed form
        # would divide by it.
        assert main(["verify", "szego", "--q", "0.999", "--grid", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(QQ_UNDERFLOW)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, invariant", [
        (["verify", "szego", "--q", "0.998"], QQ_UNDERFLOW),
        (["verify", "all", "--q", "0.998"], QQ_UNDERFLOW),
        (["gram", "szego", "--q", "0.998"], QQ_UNDERFLOW),
        (["verify", "biortho", "--q", "0.997"], KAPPA_UNDERFLOW),
        (["verify", "all", "--q", "0.997"], KAPPA_UNDERFLOW),
    ], ids=["szego-0.998", "all-0.998", "gram-0.998", "biortho-0.997",
            "all-0.997"])
    def test_near_one_underflow_is_one_error_line(self, argv, invariant):
        # At q=0.998 (q;q)_inf is the subnormal 1.5e-323, which passed as
        # nonzero: verify szego exited 1 on NaN FAILs and verify all 2,
        # each after 12 numpy warning lines.  At q=0.997 the random sets'
        # weight rows overflowed, 2 warning lines, before their kappas
        # raised.
        done = run_cli([*argv, "--max-n", "5", "--grid", "256"])
        assert done.returncode == 2
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith(invariant)

    def test_underflowed_weight_fails_without_warning(self, capsys):
        # At q=0.996 the Szego weight underflows to 0 at some nodes, so the
        # Pearson check divides 0 by 0: a NaN residual and a FAIL, once with
        # numpy's "invalid value encountered in divide" on stderr, which the
        # test run turns into an error.
        assert main(["verify", "szego", "--max-n", "5", "--grid", "256",
                     "--q", "0.996"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] szego_weight_pearson             residual=nan" \
            in captured.out
        assert captured.err == ""

    def test_underflowed_qq_inf_exits_2_before_sampling(self, capsys):
        # The norms come before the weight, so the weight at q=0.999, which
        # overflows on 256 nodes, is never sampled.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "szego", "--q", "0.999"]) == 2
        assert capsys.readouterr().err.startswith(QQ_UNDERFLOW)

    @pytest.mark.parametrize("argv, label", [
        (["eval", "weight", "--z", "1e300"], "w_c(+1.000000000000e+300"),
        (["eval", "bweight", "--z", "1e300"], "w(+1.000000000000e+300"),
        (["eval", "szego", "--n", "5", "--z", "1e300"],
         "H_5(+1.000000000000e+300"),
    ], ids=["weight", "bweight", "szego"])
    def test_non_finite_value_exits_2(self, argv, label, capsys):
        # Each printed +nan+nani and exited 0.  No RuntimeWarning escapes
        # either: the test run turns one into an error.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {label}")
        assert "is not finite: +nan+nani" in captured.err

    @pytest.mark.parametrize("argv", [
        ["eval", "weight", "--z", "1e300"],
        ["eval", "bweight", "--z", "1e300"],
        ["eval", "szego", "--n", "5", "--z", "1e300"],
    ], ids=["weight", "bweight", "szego"])
    def test_non_finite_value_stderr_is_one_line(self, argv):
        # numpy's RuntimeWarnings, with file paths, came first: 5 stderr
        # lines for weight and szego, 7 for bweight.
        done = run_cli(argv)
        assert done.returncode == 2
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and "is not finite" in line

    def test_large_finite_value_exits_0(self, capsys):
        assert main(["eval", "weight", "--z", "1e10"]) == 0
        assert capsys.readouterr().out.endswith(
            "= -1.626297517063e+164+0.000000000000e+00i\n")

    @pytest.mark.parametrize("argv, invariant", [
        (["eval", "theta", "--z", "1e-300"],
         "error: theta(+1.000000000000e-300+0.000000000000e+00i, q=0.5) is "
         "not finite: +inf"),
        (["eval", "theta", "--z", "1", "--q", "0.9999999999"],
         "error: theta sum at q=0.9999999999 and max(|z|, 1/|z|)=1 needs "
         "K > 100,000 terms a side"),
        (["eval", "szego", "--n", "3000", "--q", "0.5"],
         "error: the coefficients of H_n are not representable at n=3000, "
         "q=0.5"),
        (["eval", "szego", "--n", "5000", "--q", "0.999"],
         "error: the coefficients of H_n are not representable at n=5000, "
         "q=0.999"),
        (["verify", "szego", "--max-n", "60", "--grid", "64", "--q", "0.3"],
         "error: the Pearson ratio rows w(q^k z)/w(z) are not representable "
         "at depth=60, q=0.3"),
        (["verify", "all", "--max-n", "60", "--grid", "64", "--q", "0.3"],
         "error: the Pearson ratio rows w(q^k z)/w(z) are not representable "
         "at depth=60, q=0.3"),
        (["verify", "szego", "--max-n", "30", "--grid", "64", "--q", "0.05"],
         "error: the Pearson ratio rows w(q^k z)/w(z) are not representable "
         "at depth=30, q=0.05"),
        *[([command, "biortho", "--max-n", n, "--grid", "64"],
           "error: the closed-form norm h_220 underflowed below the "
           "smallest normal float at q=0.5")
          for command, n in (("verify", "220"), ("verify", "240"),
                             ("gram", "240"))],
        # z = 8 = 1/(ab q^{1/2}), the pole of r_1.
        (["eval", "rn", "--n", "1", "--z", "8", "--q", "0.25", "--params",
          "0.5,0.2,0.5,0.1"],
         "error: r_n is not finite at a point of its table, n < 2, q=0.25"),
        # The weight rows' log-Laurent series decays like 0.99999^k.
        *[([command, "biortho", "--max-n", "2", "--grid", "64", "--q", "0.5",
            "--params", "0.3,0.2,0.4,0.99999"],
           "error: the log-Laurent series of the weight at q=0.5 and "
           "max|parameter|=0.99999 needs 5,083,893 terms to meet tail=1e-16, "
           "over the cap of 1,000,000") for command in ("verify", "gram")],
    ], ids=["theta", "theta-past-the-term-cap",
            "szego-overflow", "szego-underflow", "pearson-rows",
            "pearson-rows-all", "pearson-rows-small-q", "biortho-norm-220",
            "biortho-norm-240", "gram-norm-240", "rn-pole",
            "series-past-the-term-cap", "gram-series-past-the-term-cap"])
    def test_unrepresentable_value_exits_2(self, argv, invariant, capsys):
        # Each ended in a traceback: OverflowError from the theta sum's
        # truncation bound (the sum itself, of size e^172000 at z = 1e-300,
        # is not finite) and from q**(-k/2), ZeroDivisionError from an
        # underflowed (q;q)_k.  The Pearson ratio rows, of size q^{-k^2/2},
        # exited 1 with numpy's overflow warnings on stderr.  The default
        # set's closed-form h_n is subnormal from n = 220: its lost digits
        # failed biorthogonality (exit 1), and an h_n of 0 divided the
        # relative diagonal by zero (exit 2 naming ZeroDivisionError).
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(invariant)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, invariant", [
        *[(["verify", suite, "--max-n", "5", "--grid", "256", "--q", q,
            "--seed", seed],
           f"error: the biortho weight rows overflow at q={q}")
          for suite in ("biortho", "all")
          for q, seed in (("0.996", "2"), ("0.9965", "2"), ("0.9968", "2"),
                          ("0.997", "1"))],
    ], ids=["biortho-0.996", "biortho-0.9965", "biortho-0.9968",
            "biortho-0.997", "all-0.996", "all-0.9965", "all-0.9968",
            "all-0.997"])
    def test_overflow_exits_2_naming_what_overflowed(self, argv, invariant,
                                                     capsys):
        # verify biortho exited 1 after numpy's overflow warnings, from the
        # random sets' weights S C D / den near q = 1 (their kappas are
        # representable); verify all exited 2 with the warnings first.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(invariant)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        [command, "biortho", "--max-n", n, "--grid", "64"]
        for command, n in (("verify", "35"), ("verify", "40"), ("gram", "40"),
                           ("verify", "48"), ("verify", "60"))
    ], ids=["verify-35", "verify-40", "gram-40", "verify-48", "verify-60"])
    def test_deep_biortho_tables_pass(self, argv, capsys):
        # The direct r_n sum's terms of size q^(-n^2/2) overflowed the Gram
        # (exit 2 at 36 and 41 degrees) or r_rows itself (exit 2 after
        # numpy's warnings at 49 and 61); the recurrence's rows pass.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err == ""

    def test_unallocatable_grid_exits_2(self, monkeypatch, capsys):
        # --grid 100000000000 raised numpy's MemoryError; no test allocates
        # such a grid, so the grid raises here as numpy does.
        def grid(n_nodes):
            raise MemoryError(f"Unable to allocate {16 * n_nodes} bytes")

        monkeypatch.setattr(qcircle.suites, "CircleGrid", grid)
        assert main(["verify", "szego", "--grid", "100000000000"]) == 2
        assert capsys.readouterr().err == (
            "error: a value is not representable (MemoryError: Unable to "
            "allocate 1600000000000 bytes)\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "weight", "--z", "1", "--q", "0.99999"],
        ["verify", "szego", "--q", "0.99999", "--grid", "16"],
        ["verify", "biortho", "--q", "0.99999", "--grid", "16"],
    ], ids=["eval-weight", "verify-szego", "verify-biortho"])
    def test_q_product_past_the_step_cap_exits_2(self, argv, capsys):
        # eval weight printed an underflowed 0 after 2,000,000 factors; the
        # verify commands exited 2 on an underflowed total mass.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: (a; q)_inf at q=0.99999 and ")
        assert "over the cap of 1,000,000" in captured.err
        assert captured.err.count("\n") == 1

    def test_underflowed_kappa_denominator_exits_2(self, capsys):
        # At q=0.999 (q; q)_inf drags the total-mass denominator below the
        # floor: an underflow, not a fault of the parameters.
        assert main(["verify", "biortho", "--q", "0.999", "--grid", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{KAPPA_UNDERFLOW} at q=0.999")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, target, reason", [
        (["verify", "szego", "--max-n", "2", "--grid", "64"],
         "missing/x.json", "[Errno 2] No such file or directory"),
        (["gram", "szego"], ".", "[Errno 21] Is a directory"),
        (["eval", "szego", "--n", "2"], "missing/x",
         "[Errno 2] No such file or directory"),
    ], ids=["verify", "gram", "eval"])
    def test_unwritable_out_exits_2(self, argv, target, reason, tmp_path,
                                    capsys):
        # Each ended in a traceback and exit 1, the code of a failed identity.
        path = str(tmp_path / target)
        assert main([*argv, "--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}: {path!r}\n"


class TestOneOutputPath:
    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--max-n", "2", "--grid", "128"],
        ["verify", "qsl", "--max-n", "2", "--grid", "128"],
        ["gram", "biortho", "--max-n", "2", "--grid", "128"],
        ["eval", "kappa"],
    ])
    def test_json_writes_complex_as_re_im(self, argv, capsys):
        assert main(argv + ["--format", "json"]) in (0, 1)
        seen = set()
        for pairs in json_objects(capsys.readouterr().out):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            assert set(keys) != {"re", "im"}
            for key, value in pairs:
                if key in COMPLEX_KEYS:
                    seen.add(key)
                    assert isinstance(value, list) and len(value) == 2
                    assert all(isinstance(x, float) for x in value)
        assert seen

    @pytest.mark.parametrize("argv", [
        ["verify", "sears", "--max-n", "2"],
        ["verify", "all", "--max-n", "2", "--grid", "128"],
        ["gram", "biortho", "--max-n", "2", "--grid", "128"],
    ])
    def test_csv_rows_are_one_width(self, argv, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert main(argv + ["--format", "csv"]) in (0, 1)
        out = capsys.readouterr().out
        assert main(argv + ["--format", "csv", "--out", str(target)]) in (0, 1)
        assert target.read_text(encoding="utf-8") == out
        assert "\r" not in out and not out.endswith("\n\n")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1


def at_bufsize(size, f, *args):
    """f(*args) under numpy's ufunc buffer of `size` elements."""
    old = np.setbufsize(size)
    try:
        return f(*args)
    finally:
        np.setbufsize(old)


def gram_of_poly_rows(q):
    grid = CircleGrid(2048)
    H = poly_rows(range(17), q, grid.nodes, 0)[0]
    return gram_matrix(H, H, circle_weight(grid, q, szego_norms(0, q)[0]))


def gram_of_r_rows(p):
    z = CircleGrid(256).nodes
    return gram_matrix(r_rows(range(9), p.swapped(), z, 0)[0],
                       r_rows(range(9), p, z, 0)[0],
                       biortho_weight(z, p))


class TestUfuncBuffer:
    """cli.main runs a command under numpy's ufunc buffer of UFUNC_BUFSIZE
    elements, which changes how numpy copies broadcast operands and not the
    arithmetic: every row a verdict reads has the bytes it has under
    numpy's default 8192."""

    @pytest.mark.parametrize("case", [
        *[(f"qpochhammer_inf_each-{rows}x{width}-q{q}",
           lambda rows=rows, width=width, q=q: qpochhammer_inf_each(
               [c * CircleGrid(width).nodes for c in
                np.random.default_rng(rows).uniform(-0.9, 0.9, rows)
                * np.exp(1j * np.arange(rows))], q))
          for rows, width in ((1, 256), (6, 256), (60, 256), (1, 2048))
          for q in (0.5, 0.987)],
        ("poly_rows", lambda: poly_rows(range(17), 0.5,
                                        CircleGrid(2048).nodes, 0)),
        ("gram_matrix-poly_rows", lambda: gram_of_poly_rows(0.5)),
        *[(f"gram_matrix-r_rows-{i}", lambda p=p: gram_of_r_rows(p))
          for i, p in enumerate((
              BiorthoParams(*DEFAULT_PARAMS, 0.5),
              BiorthoParams(0.3 + 0.1j, 0.2 - 0.15j, 0.4 + 0.05j, 0.1 + 0.2j,
                            0.89)))],
        ("random_laurent_rows", lambda: qcircle.suites.random_laurent_rows(
            np.random.default_rng(3), 100, 5, CircleGrid(256), 0.5, 2)),
    ], ids=lambda case: case[0])
    def test_bytes_do_not_depend_on_the_buffer(self, case):
        default, small = (np.asarray(at_bufsize(size, case[1]))
                          for size in (8192, UFUNC_BUFSIZE))
        assert default.tobytes() == small.tobytes()

    @pytest.mark.parametrize("argv, code", [
        (["eval", "szego", "--n", "3"], 0),
        (["verify", "szego", "--max-n", "1", "--grid", "16", "--tol",
          "1e-300"], 1),
        (["eval", "szego", "--n", "5", "--z", "1e300"], 2),
        (["verify", "nothing"], SystemExit),
    ], ids=["exit-0", "exit-1", "exit-2", "argparse"])
    def test_main_restores_the_callers_buffer(self, argv, code, capsys):
        old = np.setbufsize(4096)
        try:
            if code is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == code
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)

    def test_a_command_runs_under_the_small_buffer(self, monkeypatch,
                                                     capsys):
        seen = []
        run_suite = qcircle.suites.run_suite

        def spy(*args, **kwargs):
            seen.append(np.getbufsize())
            return run_suite(*args, **kwargs)

        monkeypatch.setattr(qcircle.suites, "run_suite", spy)
        assert main(["verify", "szego", "--max-n", "1", "--grid", "16"]) == 0
        assert seen == [UFUNC_BUFSIZE]
