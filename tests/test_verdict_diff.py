"""tools/verdict_diff.py's stdout comparison, on hand-made documents."""

import importlib.util
import json
import pathlib

import pytest

from qcircle.biortho import DEFAULT_PARAMS
from qcircle.cli import main

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location(
    "verdict_diff", TOOLS / "verdict_diff.py")
verdict_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_diff)


def verify_doc(notes, residual=1e-12):
    return {"suite": "biortho", "reports": [
        {"name": "i00_shifted_closed_form", "notes": notes,
         "params": {"n": 1}, "residual": residual},
        {"name": "biortho_total_mass", "notes": {}, "params": {},
         "residual": 2e-16}]}


def gram_doc(notes):
    return {"grid_size": 64, "report": {"name": "biorthogonality",
                                        "notes": notes, "residual": 1e-15},
            "rows": [[1.0, 0.0]]}


def dumps(doc, **kw) -> bytes:
    return json.dumps(doc, **kw).encode()


class TestCompareStdout:
    def test_same_bytes(self):
        out = dumps(verify_doc({"max_n": 5}))
        assert verdict_diff.compare_stdout(out, out) == "same"

    def test_same_document_in_other_bytes(self):
        doc = verify_doc({"a": float("nan")})
        assert verdict_diff.compare_stdout(
            dumps(doc), dumps(doc, indent=2)) == "same document"

    @pytest.mark.parametrize("make", [verify_doc, gram_doc])
    def test_same_reports_when_only_notes_change(self, make):
        before = dumps(make({"closed_vs_shifted_kappa": 0.0, "max_n": 5}))
        assert verdict_diff.compare_stdout(
            before, dumps(make({"max_n": 5}))) == "same reports"
        assert verdict_diff.compare_stdout(
            before, dumps(make({}))) == "same reports"

    def test_differs(self):
        notes = {"max_n": 5}
        assert verdict_diff.compare_stdout(
            dumps(verify_doc(notes)),
            dumps(verify_doc(notes, residual=2e-12))) == "differs"
        # A note change outside a report is not a notes-only change.
        before, after = gram_doc(notes), gram_doc(notes)
        after["notes"] = {"x": 1}
        assert verdict_diff.compare_stdout(
            dumps(before), dumps(after)) == "differs"
        # An eval's value has no reports: a changed key differs.
        assert verdict_diff.compare_stdout(
            dumps({"label": "r_4", "notes": 1}),
            dumps({"label": "r_4", "notes": 2})) == "differs"
        assert verdict_diff.compare_stdout(b"{", b"}") == "differs"


class TestOneInterpreter:
    SWEEP = [["eval", "szego", "--n", "3"], ["verify", "szego", "--q", "2"]]
    FRESH = [(0, b'{"label": "H_3"}\n', b""), (2, b"", b"error: q\n")]

    def test_equal_runs_have_no_fault(self):
        assert verdict_diff.one_interpreter_faults(
            self.SWEEP, self.FRESH, list(self.FRESH)) == []

    def test_each_difference_is_named(self):
        one = [(0, b'{"label": "H_0"}\n', b""), (1, b"", b"")]
        assert verdict_diff.one_interpreter_faults(
            self.SWEEP, self.FRESH, one) == [
            "eval szego --n 3: one interpreter and a fresh one differ in "
            "stdout",
            "verify szego --q 2: one interpreter and a fresh one differ in "
            "exit code, stderr"]

    def test_a_short_run_is_a_fault(self):
        assert verdict_diff.one_interpreter_faults(
            self.SWEEP, self.FRESH, self.FRESH[:1]) == [
            "the sweep in one interpreter ran 1 of 2 commands"]

    def test_runs_match_on_this_tree(self):
        src = verdict_diff.source_dir(str(TOOLS.parent))
        sweep = [["eval", "rn", "--n", "4", "--z", "0.6+0.8i"],
                 ["eval", "weight", "--n", "3"],  # refused by argparse
                 ["eval", "kappa", "--grid", "3"],  # exit 2, one error line
                 ["eval", "szego", "--n", "4"]]
        fresh = [verdict_diff.run(src, argv) for argv in sweep]
        assert [code for code, *_ in fresh] == [0, 2, 2, 0]
        assert verdict_diff.one_interpreter_faults(
            sweep, fresh, verdict_diff.run_in_one_interpreter(src, sweep)) \
            == []

    def test_state_kept_for_the_process_shows(self, tmp_path):
        # A main that counts its calls differs from its fresh runs from the
        # second call on; a warning shown by an earlier command is shown
        # again, as a fresh interpreter shows it.
        (tmp_path / "qcircle").mkdir()
        (tmp_path / "qcircle" / "__init__.py").write_text("")
        (tmp_path / "qcircle" / "cli.py").write_text(FAKE_CLI)
        src = str(tmp_path)
        sweep = [["echo"], ["refuse"], ["echo"], ["count"], ["count"]]
        fresh = [verdict_diff.run(src, argv) for argv in sweep]
        one = verdict_diff.run_in_one_interpreter(src, sweep)
        assert [code for code, *_ in one] == [0, 2, 0, 0, 0]
        assert all(b"RuntimeWarning: shown once" in err for *_, err in one)
        assert verdict_diff.one_interpreter_faults(sweep, fresh, one) == [
            "count: one interpreter and a fresh one differ in stdout"] * 2


FAKE_CLI = """\
import sys
import warnings

calls = []


def main(argv):
    calls.append(argv)
    warnings.warn("shown once", RuntimeWarning)
    print(len(calls) if argv[0] == "count" else " ".join(argv))
    if argv[0] == "refuse":
        sys.exit(2)
    return 0
"""


def mp_weight(z, q, a, alpha, b, beta, mpmath):
    """The four-parameter weight as its eight q-products at mpmath's
    precision; at a = alpha = b = beta = 0, the Szego weight."""
    rq, qp = mpmath.sqrt(q), lambda x: mpmath.qp(x, q, maxterms=10**6)
    return (qp(rq * z) * qp(rq / z) * qp(a * b * rq * z)
            * qp(alpha * beta * rq / z)
            / (qp(a * z) * qp(alpha / z) * qp(b * z) * qp(beta / z)))


def mp_kappa(q, a, alpha, b, beta, mpmath):
    rq, qp = mpmath.sqrt(q), lambda x: mpmath.qp(x, q, maxterms=10**6)
    return (qp(a * rq) * qp(alpha * rq) * qp(b * rq) * qp(beta * rq)
            * qp(a * b * alpha * beta)
            / (qp(q) * qp(a * alpha) * qp(b * alpha) * qp(a * beta)
               * qp(b * beta)))


class TestTailSweep:
    """The sweep's values that the q-product kernel finishes with Euler's
    series for each tail, or theta_sum past z^n's overflow, against mpmath
    at 30 digits."""

    @pytest.mark.parametrize("argv", [
        ["eval", "weight", "--z", "0.6+0.8i", "--q", "0.995"],
        ["eval", "bweight", "--z", "0.6+0.8i", "--q", "0.97"],
        ["eval", "kappa", "--q", "0.99"],
        ["eval", "theta", "--z", "1.5", "--q", "0.9999"]],
        ids=lambda argv: argv[1])
    def test_value_matches_mpmath(self, argv, capsys):
        mpmath = pytest.importorskip("mpmath")
        assert argv in verdict_diff.SWEEP
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = complex(*doc["kappa_closed" if argv[1] == "kappa" else "value"])
        q, params = float(argv[-1]), [0.0] * 4
        with mpmath.workdps(30):
            qm = mpmath.mpf(q)
            z = mpmath.mpc(0.6, 0.8)
            if argv[1] == "theta":
                want = mpmath.jtheta(3, -0.5j * mpmath.log(mpmath.mpf(1.5)),
                                     qm)
            elif argv[1] == "kappa":
                want = mp_kappa(qm, *map(mpmath.mpf, DEFAULT_PARAMS), mpmath)
            else:
                if argv[1] == "bweight":
                    params = map(mpmath.mpf, DEFAULT_PARAMS)
                want = mp_weight(z, qm, *params, mpmath)
            want = complex(want)
        assert abs(got - want) <= 1e-12 * abs(want)
