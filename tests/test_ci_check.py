"""ci/check_bench_smoke.py, the check both CI jobs run on each benchmark
smoke run: correct outputs, no failed operation, and at seed 1 the recorded
output digest."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ci"))

import check_bench_smoke  # noqa: E402


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


def test_newest_results_orders_by_number():
    # the repository holds BENCH_9.json and BENCH_23.json, and the newest is
    # not the last by name
    newest = check_bench_smoke.newest_results()
    assert int(newest.stem[len("BENCH_"):]) >= 23
