"""Spans and counters wrapped around the package from outside it.

The traced run replaces each listed function at every binding the package
holds (``folres.resolve.point_blowup`` as well as ``folres.blowup.point_blowup``,
``folres.cli.solve_graph_separatrix`` as well as the defining module), and
each listed method on its class, then puts the originals back.  No line of
the package changes.

Two kinds of wrapper exist, used in separate passes:

- ``Tracer`` times spans.  A span's self time is its duration minus the time
  its child spans cover.
- ``OpCounter`` counts calls of the scalar and series products, and records the
  degree requested of each separatrix solve and the coefficient height of
  each solved curve.  These wrappers sit on the hottest calls, so they run in
  a pass of their own and never inflate a span's self time.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

import oracle as o

# (module, attribute): functions and methods timed as spans.
SPANS = (
    ("cli", "main"),
    ("parsing", "parse_field"),
    ("resolve", "resolve_along"),
    ("resolve", "detect_persistent_normal_form"),
    ("separatrix", "solve_graph_separatrix"),
    ("separatrix", "invariance_residual"),
    ("separatrix", "multiplicity"),
    ("separatrix", "transform_curve"),
    ("blowup", "point_blowup"),
    ("blowup", "curve_blowup"),
    ("blowup", "weight2_blowup"),
    ("vfield", "classify"),
    ("vfield", "factor_divisor"),
    ("vfield", "nilpotent_normal_form_full"),
    ("vfield", "conjugate"),
    ("vfield", "VectorField.shift_origin"),
    ("series", "compose_curve"),
    ("series", "USeries.divide"),
)

# counter name -> (module, methods counted under it).  Reflected and
# subtracting forms count with their operation; __rsub__ and __rtruediv__
# delegate to __sub__ and __truediv__ and are counted there.
COUNTED = {
    "scalars.mul": ("scalars", ("GaussianRational.__mul__", "GaussianRational.__rmul__")),
    "scalars.add": ("scalars", ("GaussianRational.__add__", "GaussianRational.__radd__", "GaussianRational.__sub__")),
    "scalars.div": ("scalars", ("GaussianRational.__truediv__",)),
    "series.MSeries.mul": ("series", ("MSeries.__mul__",)),
    "series.USeries.mul": ("series", ("USeries.__mul__",)),
}

SOLVER = ("separatrix", "solve_graph_separatrix")


def _bindings(module: str, attr: str):
    """Every (owner, name) through which the package reaches the target;
    none when the package no longer has it."""
    mod = sys.modules.get(f"folres.{module}")
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        cls = getattr(mod, cls_name, None)
        return [(cls, method)] if method in getattr(cls, "__dict__", {}) else []
    target = getattr(mod, attr, None)
    if target is None:
        return []
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "folres" or name.startswith("folres."):
            found.extend((mod, key) for key, value in vars(mod).items() if value is target)
    return found


class _Patch:
    """Swap wrappers in on entry and restore every original on exit.

    ``targets`` holds (module, attribute, make), where ``make`` builds the
    wrapper from the original.  A target the package no longer has is listed
    in ``missing``, and its metrics read 0.
    """

    def __init__(self, targets):
        self.targets = targets
        self.saved = []
        self.missing = []

    def __enter__(self):
        try:
            for module, attr, make in self.targets:
                bindings = _bindings(module, attr)
                if not bindings:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, key = bindings[0]
                wrapper = make(vars(owner)[key])
                for owner, key in bindings:
                    self.saved.append((owner, key, vars(owner)[key]))
                    setattr(owner, key, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self.saved):
            setattr(owner, key, original)
        self.saved.clear()


class Tracer:
    """Self time and call count of each span, summed over what it wraps."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self._stack = []

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return span

    def installed(self) -> _Patch:
        return _Patch([
            (module, attr, functools.partial(self._wrap, f"{module}.{attr}"))
            for module, attr in SPANS
        ])


def _coefficient_bits(curve) -> int:
    """Largest numerator or denominator bit length among the printed
    coefficients of a solved curve."""
    bits = 0
    for series in (curve.phi1, curve.phi2):
        for c in series.coeffs:
            for q in o.parse_scalar(str(c)):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class OpCounter:
    """Exact operation counts, plus solver degrees and coefficient height."""

    def __init__(self):
        self.counts = collections.Counter()
        self.max_bits = 0

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(self_, other):
            counts[name] += 1
            return fn(self_, other)

        return counted

    def _solver(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            curve = fn(*args, **kwargs)
            self.counts["separatrix.solve_graph_separatrix.degrees"] += (
                signature.bind(*args, **kwargs).arguments["degree"]
            )
            self.max_bits = max(self.max_bits, _coefficient_bits(curve))
            return curve

        return solve

    def installed(self) -> _Patch:
        targets = [
            (module, attr, functools.partial(self._count, name))
            for name, (module, attrs) in COUNTED.items()
            for attr in attrs
        ]
        return _Patch(targets + [(*SOLVER, self._solver)])
