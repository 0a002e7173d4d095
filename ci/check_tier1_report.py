#!/usr/bin/env python3
"""Check the JUnit report of a Tier-1 run for failures other than criterion 07.

    python -m pytest -q --junitxml=tier1-report.xml
    python3 ci/check_tier1_report.py tier1-report.xml

The Tier-1 run is red while test_criterion_07 fails, by design (its holonomy
criterion is not the monodromy of the loop transport, see README), which
would hide any other failure.  This check prints "failed: CLASS::NAME" for
every other test case with a failure or an error (a collection error
included) and exits 1 on any of them, on a report that cannot be read, and
when criterion 07 no longer fails.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

KNOWN = ("tests.test_acceptance", "test_criterion_07_holonomy_grid_and_loop_transport")


def red_cases(report: str) -> set:
    """(classname, name) of every test case with a failure or an error."""
    return {
        (case.get("classname"), case.get("name"))
        for case in ET.parse(report).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main(argv: list) -> int:
    (report,) = argv
    try:
        red = red_cases(report)
    except (OSError, ET.ParseError) as exc:
        print(f"cannot read the Tier-1 report {report}: {exc}", file=sys.stderr)
        return 1
    for classname, name in sorted(red - {KNOWN}, key=str):
        print(f"failed: {classname}::{name}")
    if KNOWN not in red:
        print("criterion 07 passes: its known failure is gone, see README", file=sys.stderr)
        return 1
    return int(len(red) > 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
