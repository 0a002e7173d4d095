"""The CI checks: ci/check_bench_smoke.py, which both CI jobs run on each
benchmark smoke run (correct outputs, no failed operation, and at seed 1 the
recorded output digest), and ci/check_tier1_report.py, which reads the
Tier-1 JUnit report (no failure besides criterion 07)."""

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ci"))

import check_bench_smoke  # noqa: E402
import check_tier1_report  # noqa: E402


def _run_lines(digest="553f3b45eac1c091", correct=True, failed=0):
    meta = {"workload": "verdict-sweep", "seed": 1, "output_digest": digest}
    result = {"correct": correct, "attempted": 3, "failed": failed, "metrics": {}}
    return ["# note", "# meta " + json.dumps(meta), json.dumps(result)]


@pytest.fixture
def recorded(tmp_path):
    path = tmp_path / "BENCH_1.json"
    doc = {"workloads": {"verdict-sweep": {"trace0": {"output_digest": "553f3b45eac1c091"}}}}
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "lines, seed, reason",
    [
        (_run_lines(), "1", None),
        (_run_lines(digest="0000000000000000"), "1", "output_digest 0000000000000000 differs"),
        # seeds 3 and 5 run other items, whose digest nothing records
        (_run_lines(digest="0000000000000000"), "3", None),
        (_run_lines(correct=False), "3", "outputs not correct"),
        (_run_lines(failed=1), "1", "outputs not correct"),
    ],
)
def test_check_reads_correctness_and_the_seed_1_digest(lines, seed, reason, recorded):
    found = check_bench_smoke.check(lines, "verdict-sweep", seed, recorded)
    if reason is None:
        assert found is None
    else:
        assert reason in found and "verdict-sweep" in found


@pytest.mark.parametrize(
    "stdin",
    [
        # an aborted bench/run.py prints its reason on standard error only
        "",
        "# note\n# meta {}\nTraceback (most recent call last):\n",
    ],
)
def test_a_run_with_no_result_line_fails_with_a_message(stdin, monkeypatch, capsys, recorded):
    monkeypatch.setattr(check_bench_smoke, "newest_results", lambda: recorded)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert check_bench_smoke.main(["driver-walk", "3"]) == 1
    assert capsys.readouterr().err == "driver-walk at seed 3: no result line\n"


def test_newest_results_orders_by_number():
    # the repository holds BENCH_9.json and BENCH_23.json, and the newest is
    # not the last by name
    newest = check_bench_smoke.newest_results()
    assert int(newest.stem[len("BENCH_"):]) >= 23


def _report(tmp_path, *cases):
    """A JUnit report of the given testcase elements, each one passing
    unless it holds a failure or an error."""
    path = tmp_path / "tier1-report.xml"
    path.write_text(
        '<testsuites><testsuite name="pytest">'
        + "".join(cases)
        + "</testsuite></testsuites>"
    )
    return str(path)


def _case(classname, name, outcome=""):
    return f'<testcase classname="{classname}" name="{name}">{outcome}</testcase>'


FAILED = '<failure message="assert False">assert False</failure>'


def _criterion_07(outcome=FAILED):
    return _case("tests.test_acceptance", "test_criterion_07_holonomy_grid_and_loop_transport", outcome)


def test_tier1_check_passes_on_criterion_07_alone(tmp_path, capsys):
    report = _report(
        tmp_path,
        _criterion_07(),
        _case("tests.test_cli", "test_golden_exact"),
    )
    assert check_tier1_report.main([report]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "outcome", [FAILED, '<error message="collection failure">ImportError</error>']
)
def test_tier1_check_names_any_other_failure(tmp_path, capsys, outcome):
    report = _report(
        tmp_path,
        _criterion_07(),
        _case("tests.test_cli", "test_golden_exact", outcome),
    )
    assert check_tier1_report.main([report]) == 1
    assert capsys.readouterr().out == "failed: tests.test_cli::test_golden_exact\n"


def test_tier1_check_fails_on_a_missing_report(tmp_path, capsys):
    assert check_tier1_report.main([str(tmp_path / "tier1-report.xml")]) == 1
    assert "cannot read the Tier-1 report" in capsys.readouterr().err


def test_tier1_check_fails_when_criterion_07_passes(tmp_path, capsys):
    report = _report(tmp_path, _criterion_07(outcome=""))
    assert check_tier1_report.main([report]) == 1
    assert capsys.readouterr().err == "criterion 07 passes: its known failure is gone, see README\n"
