"""Compare the verdicts of two qcircle source trees over a fixed seeded sweep.

Usage: python tools/verdict_diff.py PARENT_SRC CHANGE_SRC

Each argument is a checkout of the repository (or its `src` directory).
Every command of SWEEP runs once per tree, as `qcircle ... --format json`
(`verify` prints a list of reports, `gram` a single one, `eval` a value
and none) in a fresh interpreter that imports qcircle from that tree,
with `--seed 0` appended unless the command sets its own seed or is an
`eval`, which takes none.  The tool prints one
Markdown table row for every report whose residual moved (name, n, parent
and change residual, |change - parent| / tolerance, and both verdicts), a
summary row per command, which also says whether the command's stdout is
the `same` bytes in both trees, the `same document` (the bytes differ but
json.loads reads equal documents, a NaN equal to a NaN), the `same
reports` (the documents are equal once each report's `notes` is dropped)
or `differs`, a
count of the byte-identical commands, the line count of `src/qcircle/*.py`
in both trees (as `wc -l` counts), then the reports that appear and the
exit codes that change.  The change tree's sweep then runs once more, every
command in one interpreter through `qcircle.cli.main`, so that state kept
for a whole process shows: each command's exit code, stdout and stderr
there must equal its fresh-interpreter run's.

Exit status 1 if any report turns from PASS to FAIL, a report disappears
(named with its verdict in the parent tree), an exit code rises (a
command that exits 0 or 1 without a JSON report, or an `eval` without a
JSON document, counts as exit code 3),
a command's stderr in the change tree breaks the stderr rule (empty
when it exits 0 or 1, exactly one `error: ` line when it exits 2), or a
command in one interpreter differs from its fresh run; 0 otherwise.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

SWEEP = (
    [["verify", "all", "--max-n", "5", "--grid", "256", "--q", q]
     for q in ("0.05", "0.1", "0.3", "0.5", "0.8")]
    + [["verify", "all", "--max-n", "5", "--grid", "256", "--q", q,
        "--seed", seed] for q, seed in (("0.5", "7"), ("0.3", "11"))]
    # The suites branch at max_n 0..3 (min(max_n, 3), max_n >= 2, ...).
    + [["verify", "all", "--max-n", n, "--grid", "64", "--q", "0.5"]
       for n in ("0", "1", "2", "3")]
    # A grid that is not a power of two: the Gram's divide by N is inexact.
    + [["verify", "all", "--max-n", "5", "--grid", "100", "--q", "0.5"]]
    + [["verify", "szego", "--max-n", n, "--grid", "256", "--q", q]
       for n in ("5", "8")
       for q in ("0.9", "0.95", "0.97", "0.98", "0.985", "0.988", "0.99",
                 "0.995")]
    + [["verify", "biortho", "--max-n", n, "--grid", "256", "--q", q]
       for n in ("5", "8")
       for q in ("0.5", "0.7", "0.85", "0.88", "0.89", "0.9", "0.95")]
    # Complex parameters, so that a conjugation or real-part slip shows:
    # generic, conjugate-symmetric (alpha = conj a, beta = conj b), Pastro.
    + [["verify", "biortho", "--max-n", "5", "--grid", "256", "--q", q,
        "--params", params]
       for params in ("0.3+0.1i,0.2-0.15i,0.4+0.05i,0.1+0.2i",
                      "0.3+0.2i,0.3-0.2i,0.25-0.35i,0.25+0.35i")
       for q in ("0.5", "0.89")]
    + [["verify", "biortho", "--max-n", "5", "--grid", "256", "--q", "0.5",
        "--params", "0,0,0.4,0.1"]]
    # beta = q: the weight has a pole at z = 1 one q-step inside the circle.
    + [["verify", "biortho", "--q", "0.5", "--params", "0.3,0.2,0.4,0.5"]]
    # A parameter near the circle: the weight rows' log-Laurent series takes
    # more terms than the grid has nodes (825 at 0.95, 47,819 at 0.999) and
    # folds them.
    + [["verify", "biortho", "--max-n", "5", "--grid", "64", "--q", q,
        "--params", params]
       for q, params in (("0.5", "0.95,0.2,0.4,0.1"),
                         ("0.9", "0.999,0.2,0.4,0.1"))]
    # An odd grid: the Szego circle row's phase pi (2j - N) / N at odd N.
    + [["verify", "szego", "--max-n", "5", "--grid", "255", "--q", "0.9"]]
    # The Szego ladder where the weight underflows, and where (q;q)_inf does
    # (exit 2).
    + [["verify", "szego", "--max-n", "5", "--grid", "256", "--q", q]
       for q in ("0.996", "0.999")]
    # biortho_total_mass_random at q=0.97 passes at 98% of its tolerance
    # (set 3's weight peaks at 1.2e6 |kappa|); q=0.999 exits 2 on kappa.
    + [["verify", "biortho", "--max-n", "5", "--grid", "256", "--q", q]
       for q in ("0.97", "0.999")]
    # sears_random_draws at max_n 8 straddles its tolerance (exit 1).
    + [["verify", "sears", "--max-n", "8", "--q", q, "--seed", seed]
       for q, seed in (("0.12", "2"), ("0.9", "5"))]
    # The n = 6..8 draws at a mid base.
    + [["verify", "sears", "--max-n", "8", "--q", "0.5"]]
    # The q-Sturm-Liouville suite where p is not real on the grid (exit 2),
    # and where qsl_form_positivity rests on its last bits.
    + [["verify", "qsl", "--max-n", n, "--grid", "256", "--q", q]
       for n, q in (("5", "0.9"), ("8", "0.8"))]
    # Random Laurent pairs at a node count that is not a power of two, and
    # at other seeds.
    + [["verify", "qsl", "--max-n", "5", "--grid", "100", "--q", "0.5",
        "--seed", "3"],
       ["verify", "szego", "--max-n", "3", "--grid", "100", "--q", "0.5",
        "--seed", "4"]]
    # The Gram matrices of the gram_json benchmark workload, one report each;
    # the Szego one also at both ends of the coefficient range.
    + [["gram", "szego", "--max-n", "16", "--grid", "2048", "--q", q]
       for q in ("0.5", "0.05", "0.95")]
    # Rows longer than numpy's default 8192-element ufunc buffer.
    + [["gram", "szego", "--max-n", "16", "--grid", "8192", "--q", "0.5"]]
    + [["gram", "biortho", "--max-n", "8", "--grid", "2048", "--q", "0.5",
        *params] for params in
       ([], ["--params", "0.3+0.1i,0.2-0.15i,0.4+0.05i,0.1+0.2i"])]
    # An inverse FFT of a length that is not a power of two.
    + [["gram", "biortho", "--max-n", "8", "--grid", "100", "--q", "0.5"]]
    # biortho_norms' (ab alpha beta; q)_16 near q = 1.
    + [["gram", "biortho", "--max-n", "8", "--grid", "2048", "--q", "0.9"]]
    # kappa underflows (exit 2) where the random sets' weight rows overflow:
    # the one error line must come before any numpy warning.
    + [["verify", suite, "--max-n", "5", "--grid", "256", "--q", "0.997"]
       for suite in ("biortho", "all")]
    # Tables of 13 degrees of r_n and s_n, where the direct 4phi3 sum lost
    # its digits: the generic set, a Gram, and Pastro at q = 0.1; and one of
    # 49 degrees, where it overflowed (exit 2 after numpy's warnings).
    + [["verify", "biortho", "--max-n", "12", "--grid", "256", "--q", "0.5"],
       ["gram", "biortho", "--max-n", "12", "--grid", "512", "--q", "0.3"],
       ["verify", "biortho", "--max-n", "12", "--grid", "64", "--q", "0.1",
        "--params", "0,0,0.4,0.1"],
       ["verify", "biortho", "--max-n", "48", "--grid", "64"]]
    # Small Szego Grams, whose lower triangle mirrors the upper one; at 100
    # nodes the divide by N is inexact.
    + [["gram", "szego", "--max-n", "8", "--grid", "64", "--q", "0.3"],
       ["gram", "szego", "--max-n", "16", "--grid", "100", "--q", "0.5"]]
    # (q;q)_inf is subnormal: the Szego norms are not representable (exit 2).
    + [["verify", suite, "--max-n", "5", "--grid", "256", "--q", "0.998"]
       for suite in ("szego", "all")]
    # The biortho suite alone where kappa underflows (exit 2, one error line).
    + [["verify", "biortho", "--max-n", "5", "--grid", "256", "--q", "0.998"]]
    # Pearson ratio rows of depth 60 that overflow (exit 2, one error line).
    + [["verify", suite, "--max-n", "60", "--grid", "64", "--q", "0.3"]
       for suite in ("szego", "all")]
    # A random set's weight row overflows while its kappa is representable
    # (exit 2, one error line).
    + [["verify", "all", "--max-n", "5", "--grid", "256", "--q", "0.996",
        "--seed", "2"]]
    # A loose --tol: the reports it sets read 1e-6, the algebraic identities
    # keep 1e-12 and adjointness and sears_involution 1e-11.
    + [["verify", "all", "--max-n", "5", "--grid", "256", "--q", "0.5",
        "--tol", "1e-6"]]
    # eval: H_n off the circle, and past its representable coefficients
    # (exit 2, one error line); each weight and theta at a point; r_n, and
    # s_12 at z = 1, which the direct sum read as -8192 for 1.152e-12; the
    # total mass; H_5 at CircleGrid(64)'s node 9, written as its repr; and
    # r_12 at z = 0 and 1e-4, which the direct sum read as 0 for 4.343e-12
    # and with 6 digits; H_16 near q = 1 at a point where Horner's rule over
    # the coefficients loses digits, and H_400 at q = 0.99; and r_560 at
    # z = 0.5, normal, two degrees below r_562, the first subnormal one;
    # theta at q = 0.999999, which needs 5,879 terms a side; then values
    # that qpochhammer_inf finishes with Euler's series for each product's
    # tail (tests/test_verdict_diff.py holds them to mpmath), the last one
    # also past the powers z^n that overflow (it exited 2 until then).
    + [["eval", "szego", "--n", "12", "--z", "0.3+0.2i", "--q", "0.5"],
       ["eval", "szego", "--n", "3000", "--q", "0.5"],
       ["eval", "weight", "--z", "0.6+0.8i", "--q", "0.9"],
       ["eval", "bweight", "--z", "0.6+0.8i",
        "--params", "0.3+0.1i,0.2-0.15i,0.4+0.05i,0.1+0.2i"],
       ["eval", "theta", "--z", "0.3+0.2i", "--q", "0.5"],
       ["eval", "rn", "--n", "4", "--z", "0.6+0.8i"],
       ["eval", "sn", "--n", "12", "--z", "1"],
       ["eval", "kappa", "--grid", "256"],
       ["eval", "szego", "--n", "5", "--q", "0.9",
        "--z", "0.6343932841636455+0.773010453362737i"],
       ["eval", "rn", "--n", "12", "--z", "0", "--q", "0.1"],
       ["eval", "rn", "--n", "12", "--z", "1e-4", "--q", "0.9"],
       ["eval", "szego", "--n", "16", "--q", "0.99",
        "--z=-0.981139731106635+0.19329983974126813i"],
       ["eval", "szego", "--n", "400", "--q", "0.99", "--z", "0.5"],
       ["eval", "rn", "--n", "560", "--z", "0.5"],
       ["eval", "theta", "--z", "1", "--q", "0.999999"],
       ["eval", "weight", "--z", "0.6+0.8i", "--q", "0.995"],
       ["eval", "bweight", "--z", "0.6+0.8i", "--q", "0.97"],
       ["eval", "kappa", "--q", "0.99"],
       ["eval", "theta", "--z", "1.5", "--q", "0.9999"]]
)

# Above qcircle's own exit codes (0 pass, 1 fail, 2 bad configuration).
CRASHED = 3

# Imports qcircle from the directory given as the first argument only.
RUNNER = """\
import sys
src = sys.argv.pop(1)
sys.path.insert(0, src)
import qcircle.cli
if not qcircle.cli.__file__.startswith(src):
    sys.exit(f"qcircle imported from {qcircle.cli.__file__}, not {src}")
sys.exit(qcircle.cli.main(sys.argv[1:]))
"""

# Runs every command it reads from stdin (a JSON list of argv lists) through
# one qcircle.cli.main, imported once from the directory given as the first
# argument, and writes their [exit code, stdout, stderr] as a JSON list, the
# streams' bytes as latin-1 text.  Each command runs under catch_warnings,
# which resets the warnings already shown, so it prints the numpy warnings
# a fresh interpreter would.
ONE_INTERPRETER_RUNNER = """\
import contextlib, io, json, sys, traceback, warnings
src = sys.argv.pop(1)
sys.path.insert(0, src)
import qcircle.cli
if not qcircle.cli.__file__.startswith(src):
    sys.exit(f"qcircle imported from {qcircle.cli.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \\
            warnings.catch_warnings():
        try:
            code = qcircle.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([code, *(text.getvalue().encode(
        stream.encoding, stream.errors).decode("latin-1")
        for text, stream in ((out, sys.stdout), (err, sys.stderr)))])
json.dump(results, sys.stdout)
"""


def source_dir(tree: str) -> str:
    """The directory that holds the qcircle package of a checkout."""
    root = pathlib.Path(tree).resolve()
    src = root / "src" if (root / "src" / "qcircle").is_dir() else root
    if not (src / "qcircle").is_dir():
        sys.exit(f"no qcircle package under {tree}")
    return str(src)


def command(argv: list) -> list:
    """The argv a sweep command runs as: JSON output, and `--seed 0` unless
    it sets its own seed or is an `eval`, which takes none."""
    seed = [] if argv[0] == "eval" or "--seed" in argv else ["--seed", "0"]
    return [*argv, "--format", "json", *seed]


def run(src: str, argv: list) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of one command on one tree,
    in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, src, *command(argv)],
        capture_output=True)
    return done.returncode, done.stdout, done.stderr


def run_in_one_interpreter(src: str, sweep: list) -> list:
    """(exit code, stdout bytes, stderr bytes) of each command of `sweep`
    on one tree, all of them in one interpreter; [] with a message on
    stderr if that interpreter fails."""
    done = subprocess.run(
        [sys.executable, "-c", ONE_INTERPRETER_RUNNER, src],
        input=json.dumps([command(argv) for argv in sweep]).encode(),
        capture_output=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        return []
    return [(code, out.encode("latin-1"), err.encode("latin-1"))
            for code, out, err in json.loads(done.stdout)]


def one_interpreter_faults(sweep: list, fresh: list, one: list) -> list:
    """A line for each command whose exit code, stdout or stderr differ
    between its fresh-interpreter run (`fresh`) and its run in one
    interpreter with the others (`one`), each an (exit code, stdout,
    stderr) per command of `sweep`; one line if `one` lacks commands."""
    if len(one) != len(sweep):
        return [f"the sweep in one interpreter ran {len(one)} of "
                f"{len(sweep)} commands"]
    faults = []
    for argv, alone, shared in zip(sweep, fresh, one):
        moved = [name for name, x, y in zip(("exit code", "stdout", "stderr"),
                                            alone, shared) if x != y]
        if moved:
            faults.append(f"{' '.join(argv)}: one interpreter and a fresh "
                          f"one differ in {', '.join(moved)}")
    return faults


def reports_of(argv: list, code: int, out: bytes) -> tuple:
    """(exit code, {key: report}) of one command's exit code and stdout;
    exit code CRASHED when it exits 0 or 1 without a JSON report, or for
    an `eval` without a JSON document (a traceback)."""
    reports = {}
    if code in (0, 1):
        try:
            doc = json.loads(out)
            if argv[0] == "eval":  # a value, not a verdict: no reports
                found = []
            else:
                found = (doc["reports"] if "reports" in doc
                         else [doc["report"]])
        except (ValueError, KeyError):
            return CRASHED, reports
        seen = {}
        for report in found:
            label = index_label(report["params"])
            occurrence = seen.get((report["name"], label), 0)
            seen[(report["name"], label)] = occurrence + 1
            reports[(report["name"], label, occurrence)] = report
    return code, reports


def stderr_fault(code: int, err: bytes) -> str:
    """What breaks the stderr rule, or "": nothing on stderr at exit 0 or
    1, exactly one `error: ` line at exit 2."""
    lines = err.decode(errors="replace").splitlines()
    if code == 2:
        if len(lines) == 1 and lines[0].startswith("error: "):
            return ""
        return f"exit 2 with {len(lines)} stderr lines, not one error line"
    if lines:
        return f"exit {code} with {len(lines)} stderr lines"
    return ""


def without_notes(doc):
    """The document with each report's `notes` dropped: `verify`'s list of
    reports and `gram`'s one; any other document as it is."""
    def strip(report):
        return {k: v for k, v in report.items() if k != "notes"}

    if not isinstance(doc, dict):
        return doc
    doc = dict(doc)
    if "reports" in doc:
        doc["reports"] = [strip(report) for report in doc["reports"]]
    if "report" in doc:
        doc["report"] = strip(doc["report"])
    return doc


def compare_stdout(a: bytes, b: bytes) -> str:
    """`same` bytes, the `same document` in other bytes, the `same reports`
    once each report's notes are dropped, or `differs`."""
    if a == b:
        return "same"
    try:
        # NaN, Infinity and -Infinity as values equal to the same token only.
        docs = [json.loads(out, parse_constant=lambda token: ("json", token))
                for out in (a, b)]
    except ValueError:
        return "differs"
    if docs[0] == docs[1]:
        return "same document"
    if without_notes(docs[0]) == without_notes(docs[1]):
        return "same reports"
    return "differs"


def line_count(src: str) -> int:
    """Newlines in the tree's qcircle/*.py, the total of `wc -l`."""
    return sum(path.read_bytes().count(b"\n")
               for path in pathlib.Path(src, "qcircle").glob("*.py"))


def index_label(params: dict) -> str:
    """The degree indices of a report (n, or m,n, or the weight row depth)."""
    return ",".join(str(params[k]) for k in ("m", "n", "depth") if k in params)


def verdict(report: dict) -> str:
    if report["informational"]:
        return "INFO"
    return "PASS" if report["passed"] else "FAIL"


def same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src = (source_dir(tree) for tree in argv)
    print("| command | report | n | parent | change | abs(delta)/tol "
          "| verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    summary, notes, bad, identical, fresh = [], [], [], 0, []
    for argv_ in SWEEP:
        command = " ".join(argv_)
        ran_a, ran_b = run(parent_src, argv_), run(change_src, argv_)
        fresh.append(ran_b)
        (code_a, parent), (code_b, change) = (
            reports_of(argv_, *ran[:2]) for ran in (ran_a, ran_b))
        out_a, (_, out_b, err_b) = ran_a[1], ran_b
        identical += out_a == out_b
        fault = stderr_fault(code_b, err_b)
        if fault:
            bad.append(f"{command}: {fault}")
        if code_b > code_a:
            bad.append(f"{command}: exit code {code_a} -> {code_b}")
        if code_b != code_a:
            notes.append(f"{command}: exit code {code_a} -> {code_b}")
        lower = higher = fixed = 0
        largest = (0.0, "")
        for key, old in parent.items():
            name, label, _ = key
            new = change.get(key)
            if new is None:
                bad.append(f"{command}: {name} {label} ({verdict(old)}) "
                           f"disappeared")
                continue
            before, after = verdict(old), verdict(new)
            if before == "PASS" and after == "FAIL":
                bad.append(f"{command}: {name} {label} PASS -> FAIL")
            fixed += before == "FAIL" and after == "PASS"
            r_old, r_new = old["residual"], new["residual"]
            if same(r_old, r_new) and before == after:
                continue
            lower += r_new < r_old
            higher += r_new > r_old
            moved = abs(r_new - r_old) / new["tolerance"]
            if before == after == "PASS" and moved > largest[0]:
                signed = "down" if r_new < r_old else "up"
                largest = (moved, f"{moved:.3g} {signed} ({name} {label})")
            status = before if before == after else f"{before} -> {after}"
            print(f"| {command} | {name} | {label} | {r_old:.3e} | "
                  f"{r_new:.3e} | {moved:.3g} | {status} |")
        for key in sorted(change.keys() - parent.keys()):
            name, label, _ = key
            notes.append(f"{command}: new {name} {label}: residual "
                         f"{change[key]['residual']:.3e}, "
                         f"{verdict(change[key])}")
        summary.append(f"| {command} | {code_a} -> {code_b} | "
                       f"{compare_stdout(out_a, out_b)} | "
                       f"{lower} | {higher} | {fixed} | "
                       f"{largest[1] or '-'} |")
    print()
    print("| command | exit | stdout | lower | higher | FAIL -> PASS "
          "| largest move of a passing residual, /tol |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    print("\n".join(summary))
    print()
    print(f"stdout byte-identical on {identical} of {len(SWEEP)} commands")
    one = run_in_one_interpreter(change_src, SWEEP)
    same_run = sum(a == b for a, b in zip(fresh, one))
    print(f"exit code, stdout and stderr in one interpreter as in a fresh "
          f"one on {same_run} of {len(SWEEP)} commands")
    bad += one_interpreter_faults(SWEEP, fresh, one)
    print(f"src/qcircle/*.py lines: {line_count(parent_src)} -> "
          f"{line_count(change_src)}")
    for line in notes:
        print(line)
    for line in bad:
        print(f"REGRESSION: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
