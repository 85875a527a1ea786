import json

import pytest

from qcircle.cli import main, parse_complex


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

    def test_partial_biortho_flags_rejected(self, capsys):
        assert main(["eval", "rn", "--n", "1", "--a", "0.3"]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_json_schema(self, capsys):
        assert main(["verify", "sears", "--format", "json",
                     "--max-n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"suite", "config", "reports", "summary"}
        assert doc["summary"]["failed"] == 0

    def test_seeded_output_is_deterministic(self, capsys):
        argv = ["verify", "sears", "--seed", "7", "--format", "json",
                "--max-n", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
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

    def test_json_rows(self, capsys):
        assert main(["gram", "szego", "--max-n", "2", "--grid", "128",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 9
        assert doc["report"]["passed"] is True


class TestNoFalsePass:
    def test_nan_gram_fails(self, capsys):
        # At q=0.998 the weight overflows on the grid and the Gram matrix is
        # NaN; a NaN residual must read as FAIL, not PASS.
        with pytest.warns(RuntimeWarning):
            assert main(["gram", "szego", "--q", "0.998", "--max-n", "2"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] residual=nan" in out
        assert "PASS" not in out

    @pytest.mark.parametrize("argv, invariant", [
        (["verify", "szego", "--tol", "0"], "tolerance must be finite and > 0"),
        (["verify", "szego", "--tol", "nan"], "tolerance must be finite and > 0"),
        (["verify", "szego", "--tol", "inf"], "tolerance must be finite and > 0"),
        (["gram", "szego", "--tol", "-1"], "tolerance must be finite and > 0"),
        (["eval", "szego", "--tol", "0"], "tolerance must be finite and > 0"),
        (["gram", "szego", "--max-n", "-1"], "max-n must be >= 0"),
        (["verify", "sears", "--max-n", "-1"], "max-n must be >= 0"),
        (["verify", "sears", "--n", "-2"], "max-n must be >= 0"),
    ])
    def test_invalid_tolerance_or_degree_exits_2(self, argv, invariant, capsys):
        # Each of these used to run: --tol 0 silently at the default, NaN or
        # a negative tolerance failing every check, --max-n -1 printing PASS
        # on an empty Gram matrix.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert invariant in captured.err
        assert captured.out == ""

    def test_underflowed_qq_inf_exits_2(self, capsys):
        # (q;q)_inf underflows to 0 at q=0.999; the total-mass closed form
        # would divide by it.
        assert main(["verify", "szego", "--q", "0.999", "--grid", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: (q;q)_inf underflowed to 0")
        assert "Traceback" not in err
