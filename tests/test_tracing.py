"""The benchmark's traced names exist in the package.

``bench/tracing.py`` wraps the functions and methods it names wherever the
package binds them; a name the package no longer has reads 0 in every
per-layer metric and prints "# not in folres" in a traced run.  This test
reads the tracer's lists and fails on such a name before a traced run does.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

TRACED = sorted(
    set(tracing.SPANS)
    | {(module, attr) for module, attrs in tracing.COUNTED.values() for attr in attrs}
    | {tracing.SOLVER}
)
# _bindings looks the names up in the loaded folres modules
for module in {module for module, _ in TRACED}:
    importlib.import_module(f"folres.{module}")


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_is_bound_in_folres(module, attr):
    assert tracing._bindings(module, attr), f"folres.{module}.{attr} is not in folres"
