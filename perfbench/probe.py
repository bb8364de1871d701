"""Wrappers around the program's public functions, installed where its
callers look the names up.

A ``Probe`` replaces module attributes such as ``harness.brute_force``
with a wrapper and puts the originals back on ``remove``. With
``timed=False`` (the untraced passes) the wrappers time nothing: they
only keep each solver's ``OptResult`` and graph so the benchmark can
validate witnesses that the harness and the CLI do not return. With
``timed=True`` every wrapped call also records a span.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import List, Optional

from majroman import certificates, cli, formulas, harness, labeling, solver

SOLVER_LAYERS = ("solver.brute_force", "solver.branch_and_bound")
GENERATE = "graph.generate"


def _targets():
    """(module, attribute, layer) for every wrapped name."""
    out = [
        (harness, "generate", GENERATE),
        (harness, "validate", "labeling.validate"),
        (labeling, "validate", "labeling.validate"),
        # harness calls its own bindings for the row solve; solver.solve and
        # the nested solve inside cert_tree_support_leaf go through solver's
        (harness, "brute_force", "solver.brute_force"),
        (harness, "branch_and_bound", "solver.branch_and_bound"),
        (solver, "brute_force", "solver.brute_force"),
        (solver, "branch_and_bound", "solver.branch_and_bound"),
        (formulas, "predict", "formulas.predict"),
        (harness, "tree_profile", "trees.tree_profile"),
        (
            harness,
            "find_gamma_set_independent_complement",
            "trees.find_gamma_set",
        ),
        # the CLI looks these up on the harness module as well
        (harness, "check", "harness.check"),
        (harness, "export", "harness.export"),
        (cli, "main", "cli.main"),
    ]
    for name in dir(certificates):
        if name.startswith("cert_") and callable(getattr(certificates, name)):
            out.append((certificates, name, "certificates"))
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: Optional[str]
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass(frozen=True)
class Solve:
    """One solver call as its caller saw it."""

    site: str  # "module.attribute" that was called
    layer: str
    instance: Optional[str]
    graph: object
    result: object


class Probe:
    def __init__(self, timed: bool):
        self.timed = timed
        self.instance: Optional[str] = None
        self.spans: List[Span] = []
        self.solves: List[Solve] = []
        self._stack: List[int] = []
        self._saved = []

    def install(self) -> None:
        for module, attr, layer in _targets():
            if not self.timed and layer not in SOLVER_LAYERS and layer != GENERATE:
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            site = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(original, site, layer))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, site: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == GENERATE:
                self.instance = args[0].label()
            if self.timed:
                result = self._timed_call(fn, layer, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if layer in SOLVER_LAYERS:
                self.solves.append(Solve(site, layer, self.instance, args[0], result))
            return result

        return wrapper

    def _timed_call(self, fn, layer, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, time.perf_counter(), 0.0, parent, self.instance)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.end - span.start
