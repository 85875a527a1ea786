"""Correctness checks on one verdict's output.

Each check returns a ``Verdict`` (reports produced, reports that PASS, and
the per-report statuses) or raises ``BadVerdict``.  A FAIL verdict at exit 1
is a valid output; a verdict is bad when its summary disagrees with its
reports, its exit code disagrees with its summary, a report says PASS with a
non-finite residual or Gram entry, or a closed form the benchmark computes
independently disagrees with the one printed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

REPORT_LINE = re.compile(
    r"^  \[(PASS|FAIL|INFO)\] (\S+)\s+residual=(\S+) tol=(\S+)$")
SUMMARY_LINE = re.compile(r"^summary: (\d+) passed, (\d+) failed$")

# Relative agreement demanded of numbers the benchmark recomputes from the
# same printed values, and of the independent Szego norm.
RECOMPUTE_RTOL = 1e-9
SZEGO_NORM_RTOL = 1e-12


class BadVerdict(Exception):
    """The verdict's output is inconsistent or wrong."""


@dataclass(frozen=True)
class Verdict:
    reports: int
    passed: int
    statuses: tuple  # (name, "PASS" | "FAIL" | "INFO") per report


def _require(cond: bool, message: str):
    if not cond:
        raise BadVerdict(message)


def _check_exit(code: int, failed: int):
    _require(code == (0 if failed == 0 else 1),
             f"exit code {code} disagrees with {failed} failed reports")


def check_text_suite(text: str, code: int, suite: str) -> Verdict:
    """Check `qcircle verify <suite>` text output against its exit code."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == f"suite: {suite}",
             "text output does not start with the suite header")
    statuses = []
    summary = None
    for line in lines[1:]:
        report = REPORT_LINE.match(line)
        if report:
            tag, name, residual, _ = report.groups()
            _require(tag != "PASS" or math.isfinite(float(residual)),
                     f"{name} says PASS with residual {residual}")
            statuses.append((name, tag))
        elif SUMMARY_LINE.match(line):
            summary = tuple(int(x) for x in SUMMARY_LINE.match(line).groups())
    _require(bool(statuses), "no reports in text output")
    _require(summary is not None, "no summary line in text output")
    failed = sum(tag == "FAIL" for _, tag in statuses)
    _require(summary == (len(statuses) - failed, failed),
             f"summary {summary} disagrees with the reports")
    _check_exit(code, failed)
    return Verdict(len(statuses), sum(tag == "PASS" for _, tag in statuses),
                   tuple(statuses))


def check_json_suite(text: str, code: int, suite: str) -> Verdict:
    """Check `qcircle verify <suite> --format json` output."""
    doc = json.loads(text)
    _require(doc.get("suite") == suite, "JSON names another suite")
    statuses = []
    for r in doc["reports"]:
        residual = float(r["residual"])
        _require(r["passed"] == (residual < float(r["tolerance"])),
                 f"{r['name']}: passed flag disagrees with residual")
        _require(not r["passed"] or math.isfinite(residual),
                 f"{r['name']} says PASS with residual {residual}")
        tag = "INFO" if r["informational"] else (
            "PASS" if r["passed"] else "FAIL")
        statuses.append((r["name"], tag))
    _require(bool(statuses), "no reports in JSON output")
    failed = sum(tag == "FAIL" for _, tag in statuses)
    _require(doc["summary"] == {"passed": len(statuses) - failed,
                                "failed": failed},
             f"summary {doc['summary']} disagrees with the reports")
    _check_exit(code, failed)
    return Verdict(len(statuses), sum(tag == "PASS" for _, tag in statuses),
                   tuple(statuses))


def szego_norm(n: int, q: float) -> float:
    """q^{-n} (q;q)_n / (q;q)_inf by plain products, independent of qcircle."""
    finite = 1.0
    for k in range(1, n + 1):
        finite *= 1.0 - q**k
    infinite = 1.0
    qk = q
    while qk > 1e-18:
        infinite *= 1.0 - qk
        qk *= q
    return q**-n * finite / infinite


def check_json_gram(text: str, code: int, subject: str, q: float,
                    max_n: int) -> Verdict:
    """Check `qcircle gram <subject> --format json` output.

    The report residual is recomputed from the printed rows (worst of the
    off-diagonal magnitude and the relative diagonal error), and for the
    Szego family the printed diagonal is checked against the closed-form
    norm computed here.
    """
    doc = json.loads(text)
    report = doc["report"]
    residual = float(report["residual"])
    passed = report["passed"]
    _require(doc["subject"] == subject, "JSON names another subject")
    _require(len(doc["rows"]) == (max_n + 1) ** 2, "wrong number of rows")
    _require(passed == (residual < float(report["tolerance"])),
             "passed flag disagrees with residual")
    off = diag = 0.0
    finite = math.isfinite(residual)
    for row in doc["rows"]:
        computed = complex(*row["computed"])
        expected = complex(*row["expected"])
        finite = finite and all(map(math.isfinite, (
            computed.real, computed.imag, float(row["residual"]))))
        if row["m"] == row["n"]:
            diag = max(diag, abs(computed - expected) / abs(expected))
            if subject == "szego":
                norm = szego_norm(row["n"], q)
                _require(abs(expected - norm) <= SZEGO_NORM_RTOL * norm,
                         f"printed norm {expected} != closed form {norm}")
        else:
            _require(expected == 0, "off-diagonal expected value is not 0")
            off = max(off, abs(computed))
    _require(not passed or finite,
             "report says PASS with a non-finite residual or Gram entry")
    if finite:
        worst = max(off, diag)
        _require(abs(worst - residual) <= RECOMPUTE_RTOL * max(worst, 1e-300),
                 f"report residual {residual} != recomputed {worst}")
    _check_exit(code, 0 if passed else 1)
    name = report["name"]
    return Verdict(1, int(passed), ((name, "PASS" if passed else "FAIL"),))
