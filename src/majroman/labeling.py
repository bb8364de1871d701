"""The definitional core: labelings over {-1, +1, 2}, closed-neighborhood
sums, the majority condition, the Roman guard, and weights.

A labeling f is valid for a graph g when

* f(N[v]) >= 1 for at least half of the vertices (normatively: for at
  least ceil(n/2) of them), and
* every vertex labeled -1 has a neighbor labeled 2.

The minimum weight over all valid labelings is the quantity the solver
computes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .graph import Graph

LABEL_VALUES = (-1, 1, 2)


class LabelingError(ValueError):
    """Malformed labeling or graph/labeling mismatch."""


def check_labeling(g: Graph, labels: Sequence[int]) -> None:
    if len(labels) != g.n:
        raise LabelingError(
            f"labeling length {len(labels)} != graph order {g.n}"
        )
    for i, x in enumerate(labels):
        if x not in LABEL_VALUES:
            raise LabelingError(f"label {x!r} at vertex {i} not in {{-1,+1,2}}")


def weight(labels: Sequence[int]) -> int:
    """Sum of labels; equals |P_f| + 2|Q_f| - |O_f|."""
    return sum(labels)


def closed_sum(g: Graph, labels: Sequence[int], v: int) -> int:
    """f(N[v]) = f(v) + sum of f over the neighbors of v."""
    g._check_vertex(v)
    return labels[v] + sum(labels[u] for u in g.adj[v])


def majority_threshold(n: int, mode: str = "ceil") -> int:
    """Number of vertices whose closed sum must reach 1.

    "At least half" is read as ceil(n/2); an integer count >= n/2 is
    equivalent. The "floor" mode exists for sensitivity analysis only and
    is never the normative reading.
    """
    if n < 0:
        raise LabelingError("n must be non-negative")
    if mode == "ceil":
        return -(-n // 2)
    if mode == "floor":
        return n // 2
    raise LabelingError(f"unknown threshold mode {mode!r}")


def satisfied_count(g: Graph, labels: Sequence[int]) -> int:
    """Number of vertices v with f(N[v]) >= 1."""
    check_labeling(g, labels)
    return sum(
        1
        for v in range(g.n)
        if labels[v] + sum(labels[u] for u in g.adj[v]) >= 1
    )


@dataclass(frozen=True, slots=True)
class ValidationReport:
    is_valid: bool
    satisfied_count: int
    threshold: int
    roman_violations: Tuple[int, ...]
    weight: int


def validate(
    g: Graph, labels: Sequence[int], threshold_mode: str = "ceil"
) -> ValidationReport:
    """Check both conditions and aggregate the outcome."""
    sat = satisfied_count(g, labels)  # checks the labeling first
    thr = majority_threshold(g.n, threshold_mode)
    violations = tuple(
        v
        for v in range(g.n)
        if labels[v] == -1 and not any(labels[u] == 2 for u in g.adj[v])
    )
    return ValidationReport(
        is_valid=(sat >= thr and not violations),
        satisfied_count=sat,
        threshold=thr,
        roman_violations=violations,
        weight=weight(labels),
    )


def serialize_labeling(labels: Sequence[int]) -> str:
    """One line of comma-separated labels in vertex order."""
    return ",".join(str(x) for x in labels)


def parse_labeling(text: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in text.strip().split(",")] if text.strip() else []
    out = []
    for p in parts:
        try:
            x = int(p)
        except ValueError:
            raise LabelingError(f"malformed label {p!r}")
        if x not in LABEL_VALUES:
            raise LabelingError(f"label {x} not in {{-1,+1,2}}")
        out.append(x)
    return tuple(out)
