import json

import pytest

import harness
from checks import (BadVerdict, check_json_gram, check_json_suite,
                    check_text_suite)


@pytest.fixture(scope="module")
def cli():
    return harness.load_cli()


def _run(cli, *argv):
    run = harness.run_verdict(cli, list(argv))
    assert run.code in (0, 1), run.err
    return run


@pytest.fixture(scope="module")
def text_run(cli):
    return _run(cli, "verify", "szego", "--max-n", "2", "--grid", "64")


@pytest.fixture(scope="module")
def json_run(cli):
    return _run(cli, "verify", "szego", "--max-n", "2", "--grid", "64",
                "--format", "json")


@pytest.fixture(scope="module")
def gram_run(cli):
    return _run(cli, "gram", "szego", "--max-n", "3", "--grid", "64",
                "--format", "json", "--q", "0.5")


def test_real_outputs_pass(text_run, json_run, gram_run):
    text = check_text_suite(text_run.out, text_run.code, "szego")
    js = check_json_suite(json_run.out, json_run.code, "szego")
    assert text.statuses == js.statuses
    assert text.reports == js.reports > 1 and text.passed == js.passed
    gram = check_json_gram(gram_run.out, gram_run.code, "szego", 0.5, 3)
    assert (gram.reports, gram.passed) == (1, 1)


def _replace_first(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_text_nan_pass_is_flagged(text_run):
    line = next(l for l in text_run.out.splitlines() if "[PASS]" in l)
    residual = line.split("residual=")[1].split()[0]
    bad = _replace_first(text_run.out, line,
                         line.replace(f"residual={residual}", "residual=nan"))
    with pytest.raises(BadVerdict, match="PASS"):
        check_text_suite(bad, text_run.code, "szego")


def test_text_summary_mismatch_is_flagged(text_run):
    line = next(l for l in text_run.out.splitlines() if "[PASS]" in l)
    bad = _replace_first(text_run.out, line, line.replace("[PASS]", "[FAIL]"))
    with pytest.raises(BadVerdict, match="summary"):
        check_text_suite(bad, 1, "szego")


def test_exit_code_must_match_summary(text_run):
    with pytest.raises(BadVerdict, match="exit code"):
        check_text_suite(text_run.out, 1 - text_run.code, "szego")


def test_json_nan_pass_is_flagged(json_run):
    doc = json.loads(json_run.out)
    doc["reports"][0].update(residual=float("nan"), passed=True)
    with pytest.raises(BadVerdict):
        check_json_suite(json.dumps(doc), json_run.code, "szego")


def test_json_summary_mismatch_is_flagged(json_run):
    doc = json.loads(json_run.out)
    doc["summary"]["passed"] += 1
    with pytest.raises(BadVerdict, match="summary"):
        check_json_suite(json.dumps(doc), json_run.code, "szego")


def test_gram_nan_entry_under_pass_is_flagged(gram_run):
    doc = json.loads(gram_run.out)
    assert doc["report"]["passed"]
    doc["rows"][1]["computed"] = [float("nan"), 0.0]
    with pytest.raises(BadVerdict, match="non-finite"):
        check_json_gram(json.dumps(doc), gram_run.code, "szego", 0.5, 3)


def test_gram_wrong_closed_form_is_flagged(gram_run):
    doc = json.loads(gram_run.out)
    doc["rows"][0]["expected"][0] *= 1.0 + 1e-9
    with pytest.raises(BadVerdict, match="closed form"):
        check_json_gram(json.dumps(doc), gram_run.code, "szego", 0.5, 3)


def test_gram_residual_must_match_rows(gram_run):
    doc = json.loads(gram_run.out)
    doc["report"]["residual"] /= 2.0
    with pytest.raises(BadVerdict, match="recomputed"):
        check_json_gram(json.dumps(doc), gram_run.code, "szego", 0.5, 3)


def test_exit_2_is_a_failed_operation(cli):
    from workloads import SZEGO_NEAR_ONE
    argv = ["verify", "qsl", "--max-n", "2", "--grid", "64", "--q", "0.9"]
    run = harness.run_verdict(cli, argv)
    assert run.code == 2
    with pytest.raises(BadVerdict, match="exit 2"):
        harness.check_verdict(SZEGO_NEAR_ONE, argv, run)
