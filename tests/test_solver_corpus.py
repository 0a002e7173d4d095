"""The graph-separatrix solver on a pinned corpus of about 300 seeded fields.

``tests/golden/solver_corpus.json`` holds, for each field, its printed form,
its ledger, the degree solved to, and either the sha256 of the solved curve's
coefficients and of the image rows it carries, or the class and message of
the error the solve raised.  The test re-solves every field and compares, so
any change of a coefficient, an image row, an obstruction degree or an error
message shows, on fields well beyond the benchmark's three families:

- soak normal forms (``rand_normal_form``) at ledgers 8-24, as they are and
  times z;
- random triples with no constant term (``rand_zero_const_triple``) whose
  third component has a z^k term, a third of which end in ``Obstructed``
  and one in ``NotGraphParameterizable``;
- X_lambda and the degenerate family with random parameters.

Regenerate the golden (only when a change of the solver's output is meant) with

    PYTHONPATH=src:tests python tests/test_solver_corpus.py tests/golden/solver_corpus.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from folres.errors import FolresError
from folres.parsing import format_field, parse_field
from folres.scalars import format_scalar
from folres.separatrix import solve_graph_separatrix
from folres.series import MSeries
from folres.vfield import VectorField

from conftest import (
    field_degenerate_family,
    field_xlambda,
    rand_normal_form,
    rand_zero_const_triple,
)

GOLDEN = Path(__file__).parent / "golden" / "solver_corpus.json"


def _digest(series) -> str:
    h = hashlib.sha256()
    for s in series:
        h.update(f"{s.trunc}:{','.join(format_scalar(c) for c in s.coeffs)};".encode())
    return h.hexdigest()


def _outcome(field: VectorField, degree: int) -> dict:
    try:
        curve = solve_graph_separatrix(field, degree)
    except FolresError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"curve": _digest(curve.components), "image": _digest(curve._image)}


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-7, 7), rng.randint(1, 5))


def _fields():
    """(family, field, degree) for every field of the corpus, in order."""
    for seed in range(120):
        rng = random.Random(seed)
        trunc = rng.randint(8, 24)
        X, _, _ = rand_normal_form(rng, trunc)
        if seed % 2:
            z = MSeries.variable("z", trunc)
            X = VectorField(*(z * c for c in X.components))
        yield "normal-form", X, rng.randint(1, X.trunc)
    for seed in range(120):
        rng = random.Random(1000 + seed)
        trunc = rng.randint(6, 16)
        while True:  # a third component with a z^k term reaches the solve
            X = VectorField(*rand_zero_const_triple(rng, trunc, maxdeg=rng.choice([2, 3])))
            if any(i == j == 0 for i, j, _ in X.fz.terms):
                break
        yield "zero-const-triple", X, rng.randint(1, trunc)
    for seed in range(30):
        rng = random.Random(2000 + seed)
        trunc = rng.randint(12, 40)
        yield "xlambda", field_xlambda(_rand_fraction(rng), trunc), rng.randint(1, trunc - 1)
    for seed in range(30):
        rng = random.Random(3000 + seed)
        trunc = rng.randint(12, 40)
        a, b, lam = (_rand_fraction(rng) for _ in range(3))
        X = field_degenerate_family(a, b, lam, trunc=trunc)
        yield "degenerate-family", X, rng.randint(1, trunc - 1)


def build_corpus() -> list:
    corpus = []
    for family, X, degree in _fields():
        text = format_field(X)
        assert parse_field(text, X.trunc).eq_trusted(X), text
        corpus.append(
            {"family": family, "field": text, "trunc": X.trunc, "degree": degree, **_outcome(X, degree)}
        )
    return corpus


CORPUS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_the_corpus_covers_curves_and_errors():
    assert len(CORPUS) == 300
    errors = {entry.get("error") for entry in CORPUS}
    assert {None, "Obstructed", "NotGraphParameterizable"} <= errors


@pytest.mark.parametrize("start", range(0, 300, 30), ids=lambda s: f"fields-{s}-{s + 29}")
def test_the_solver_reproduces_the_corpus(start):
    for entry in CORPUS[start : start + 30]:
        X = parse_field(entry["field"], entry["trunc"])
        expected = {k: v for k, v in entry.items() if k in ("curve", "image", "error", "message")}
        assert _outcome(X, entry["degree"]) == expected, entry["field"]


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(build_corpus(), indent=1) + "\n")
