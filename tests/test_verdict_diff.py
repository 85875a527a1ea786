"""tools/verdict_diff.py's stdout comparison, on hand-made documents."""

import importlib.util
import json
import pathlib

import pytest

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
