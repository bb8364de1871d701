"""Constructive labelings transcribed from the source proofs.

Policy: transcribe each proof labeling literally, even where its index
ranges look defective. The clause filler applies first-match-wins,
defaults uncovered vertices to +1, and flags gaps and overlaps as defects
instead of silently repairing them; downstream validation classifies each
certificate as valid or not. A "repaired" transcription marks a labeling
we had to construct ourselves (the source states the value but not the
labeling) or adjust to reach the claimed weight.

Index convention: the source's 1-based v_1..v_n maps to vertices 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from .formulas import (
    ceil_div,
    corona_lower_bound,
    corona_upper_bound,
    exact_value,
    outside_domain,
)
from .graph import Graph, GraphSpec, generate
from .solver import SolveOptions, solve
from .trees import is_tree


@dataclass(frozen=True)
class Certificate:
    graph: Graph
    labeling: Tuple[int, ...]
    claimed_weight: Optional[int]
    source: str
    transcription: str  # "literal" | "repaired"
    spec: Optional[GraphSpec] = None
    defects: Tuple[str, ...] = ()


class CertificateError(ValueError):
    pass


def _fill(n: int, clauses: Sequence[Tuple[Iterable[int], int]]):
    """Assign labels from (index-set, label) clauses, first match wins.

    Indices are 0-based. Out-of-range indices, overlaps, and uncovered
    vertices (defaulted to +1) are reported as defects.
    """
    labels = [None] * n
    defects: List[str] = []
    for idxs, value in clauses:
        for i in idxs:
            if not (0 <= i < n):
                defects.append(f"index {i} outside vertex range [0,{n})")
                continue
            if labels[i] is None:
                labels[i] = value
            else:
                defects.append(f"index {i} covered by multiple clauses; first wins")
    for i in range(n):
        if labels[i] is None:
            defects.append(f"index {i} uncovered; defaulted to +1")
            labels[i] = 1
    return tuple(labels), tuple(defects)


def _exact(family: str, *params, transcription: str = "literal") -> Certificate:
    """An exact family's certificate before its labels: its graph, its
    spec, and the closed form's value as the claimed weight. Raises
    CertificateError outside the closed form's domain."""
    claimed = exact_value(family, *params)
    if claimed is None:
        raise CertificateError(outside_domain(family, *params))
    spec = GraphSpec.of(family, *params)
    return Certificate(generate(spec), (), claimed, family, transcription, spec)


# ---------------------------------------------------------------------------
# complete graphs and joins of completes


def cert_complete(n: int) -> Certificate:
    """Weight-matching labeling of K_n (the source states the value only,
    so the construction is ours: one or two 2s, padding +1s, rest -1)."""
    cert = _exact("complete", n, transcription="repaired")
    if n == 3:
        labels = (2, 1, -1)
    elif n % 2 == 0:
        ones = (n - 2) // 2
        labels = (2,) + (1,) * ones + (-1,) * (n - 1 - ones)
    else:
        ones = (n - 5) // 2
        labels = (2, 2) + (1,) * ones + (-1,) * (n - 2 - ones)
    return replace(cert, labeling=labels)


def cert_star(n: int) -> Certificate:
    """Hub 2, leaves -1; attains the exact star value 3 - n."""
    cert = _exact("star", n, transcription="repaired")
    return replace(cert, labeling=(2,) + (-1,) * (n - 1))


def cert_join_complete(m: int, n: int) -> Certificate:
    """Case labelings for K_m v K_n (m even/odd x n even/odd)."""
    cert = _exact("join_complete", m, n)
    # x-side (paper indices 1..m -> 0..m-1)
    if m % 2 == 0:
        x_clauses = [
            (range(0, m // 2), 1),
            (range(m // 2, m), -1),
        ]
    else:
        x_clauses = [
            ([0], 2),
            (range(1, (m - 1) // 2), 1),
            (range((m - 1) // 2, m), -1),
        ]
    # y-side (paper indices 1..n -> offsets m..m+n-1, built 0-based here)
    if n % 2 == 0:
        y_clauses = [
            ([0], 2),
            (range(1, n // 2 + 1), -1),
            (range(n // 2 + 1, n), 1),
        ]
    else:
        y_clauses = [
            ([0, 1], 2),
            (range(2, ceil_div(n, 2) + 2), -1),
            (range(ceil_div(n, 2) + 2, n), 1),
        ]
    x_labels, x_defects = _fill(m, x_clauses)
    y_labels, y_defects = _fill(n, y_clauses)
    return replace(
        cert, labeling=x_labels + y_labels, defects=x_defects + y_defects
    )


# ---------------------------------------------------------------------------
# wheels, fans, complements, matching removal


def cert_wheel_fan(n: int, family: str = "wheel") -> Certificate:
    """Hub 2; +1 at rim positions 3k for 1 <= k <= ceil(n/6); -1 otherwise."""
    if family not in ("wheel", "fan"):
        raise CertificateError("family must be 'wheel' or 'fan'")
    cert = _exact(family, n)
    ones = [3 * k for k in range(1, ceil_div(n, 6) + 1)]
    clauses = [
        ([0], 2),
        (ones, 1),
        (range(1, n), -1),
    ]
    labels, defects = _fill(n, clauses)
    defects = tuple(d for d in defects if "multiple clauses" not in d)
    return replace(cert, labeling=labels, defects=defects)


def cert_complement_path(n: int) -> Certificate:
    """Residue-class labelings of the complement of a path, weight -1."""
    cert = _exact("complement_path", n)
    k = n // 3
    if n % 3 == 0:
        clauses = [
            ([0], 1),
            (range(1, 2 * n // 3 + 1), -1),
            (range(2 * n // 3 + 1, n), 2),
        ]
    elif n % 3 == 1:
        clauses = [
            (range(1, 2 * k + 2), -1),
            (range(0, n), 2),  # "otherwise"
        ]
    else:
        clauses = [
            ([0, n - 1], 1),
            (range(1, 2 * k + 2), -1),
            (range(2 * k + 2, 3 * k + 1), 2),
        ]
    labels, defects = _fill(n, clauses)
    if n % 3 == 1:
        defects = tuple(d for d in defects if "multiple clauses" not in d)
    return replace(cert, labeling=labels, defects=defects)


def cert_complement_cycle(n: int) -> Certificate:
    """The complement-of-path labeling reused on the complement of a cycle."""
    cert = _exact("complement_cycle", n)
    base = cert_complement_path(n)
    return replace(cert, labeling=base.labeling, defects=base.defects)


def cert_complete_minus_matching(n: int) -> Certificate:
    """-1 on v_2..v_{n+2}; 2 on v_1, v_{2n}; +1 otherwise."""
    cert = _exact("complete_minus_matching", n)
    order = 2 * n
    clauses = [
        (range(1, n + 2), -1),
        ([0, order - 1], 2),
        (range(0, order), 1),  # "otherwise"
    ]
    labels, defects = _fill(order, clauses)
    defects = tuple(d for d in defects if "multiple clauses" not in d)
    return replace(cert, labeling=labels, defects=defects)


# ---------------------------------------------------------------------------
# coronas


def cert_corona_k3(k: int) -> Certificate:
    """K_{3k} o K_3: anchors all 2; copies 1..k labeled (1,-1,-1); the
    remaining 2k copies all -1. Weight -k, satisfied count exactly 6k."""
    cert = _exact("corona_k3", k)
    hubs = 3 * k
    labels = [2] * hubs
    for i in range(hubs):
        labels += [1, -1, -1] if i < k else [-1, -1, -1]
    return replace(cert, labeling=tuple(labels))


def _corona_parts(g_spec: GraphSpec, h_spec: GraphSpec):
    g = generate(g_spec)
    h = generate(h_spec)
    spec = GraphSpec("corona", parts=(g_spec, h_spec))
    return g, h, spec, generate(spec)


def cert_corona_general(g_spec: GraphSpec, h_spec: GraphSpec) -> Certificate:
    """Upper-bound construction: anchors 2; first ceil(n/2) copies get m-1
    ones and one -1; remaining copies all -1. Requires H connected with
    min degree >= 2."""
    g, h, spec, graph = _corona_parts(g_spec, h_spec)
    n, m = g.n, h.n
    if m < 3 or not h.is_connected() or min(len(h.adj[v]) for v in range(m)) < 2:
        raise CertificateError("requires H connected with min degree >= 2")
    labels = [2] * n
    half_up = ceil_div(n, 2)
    for i in range(n):
        if i < half_up:
            labels += [1] * (m - 1) + [-1]
        else:
            labels += [-1] * m
    return Certificate(
        graph=graph,
        labeling=tuple(labels),
        claimed_weight=corona_upper_bound(n, m)[1],
        source="corona_upper",
        transcription="literal",
        spec=spec,
    )


def cert_corona_floor(g_spec: GraphSpec, h_spec: GraphSpec) -> Certificate:
    """Lower-bound construction: anchors 2; first floor(n/m) copies get one
    +1 and m-1 (-1)s; remaining copies all -1. Validity is not guaranteed
    (the source itself notes it can fail the majority count)."""
    g, h, spec, graph = _corona_parts(g_spec, h_spec)
    n, m = g.n, h.n
    if m < 3 or min(len(h.adj[v]) for v in range(m)) < 2:
        raise CertificateError("requires H with min degree >= 2")
    labels = [2] * n
    plus_copies = n // m
    for i in range(n):
        if i < plus_copies:
            labels += [1] + [-1] * (m - 1)
        else:
            labels += [-1] * m
    return Certificate(
        graph=graph,
        labeling=tuple(labels),
        claimed_weight=corona_lower_bound(n, m),
        source="corona_lower",
        transcription="literal",
        spec=spec,
    )


# family -> its certificate builder, taking the family's parameters in
# GraphSpec field order. The lambdas look the builders up when called, so
# a rebinding of a module attribute (such as a wrapper) is seen.
CERTIFICATES = {
    "complete": lambda n: cert_complete(n),
    "star": lambda n: cert_star(n),
    "wheel": lambda n: cert_wheel_fan(n, "wheel"),
    "fan": lambda n: cert_wheel_fan(n, "fan"),
    "complement_path": lambda n: cert_complement_path(n),
    "complement_cycle": lambda n: cert_complement_cycle(n),
    "complete_minus_matching": lambda n: cert_complete_minus_matching(n),
    "join_complete": lambda m, n: cert_join_complete(m, n),
    "corona_k3": lambda k: cert_corona_k3(k),
}


# ---------------------------------------------------------------------------
# tree constructions


def cert_tree_from_dominating_set(t: Graph, s: Iterable[int]) -> Certificate:
    """Label 2 on a dominating set with independent complement, -1 off it."""
    s = frozenset(s)
    if not is_tree(t):
        raise CertificateError("input graph is not a tree")
    dominated = set(s)
    for v in s:
        dominated |= t.adj[v]
    if len(dominated) != t.n:
        raise CertificateError("set is not dominating")
    outside = [v for v in range(t.n) if v not in s]
    for u in outside:
        if any(w in t.adj[u] for w in outside):
            raise CertificateError("complement of the set is not independent")
    labels = tuple(2 if v in s else -1 for v in range(t.n))
    return Certificate(
        graph=t,
        labeling=labels,
        claimed_weight=3 * len(s) - t.n,
        source="tree_domination",
        transcription="literal",
    )


def _bfs_farthest(adj, start):
    """BFS from ``start``: the farthest vertex (the lowest index among
    ties), its distance, and the BFS parent of every vertex."""
    dist = {start: 0}
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    best = max(dist.values())
    far = min(v for v in dist if dist[v] == best)
    return far, best, parent


def cert_tree_support_leaf(
    t: Graph, options: Optional[SolveOptions] = None
) -> Certificate:
    """One inductive step of the ceil((n+7s-5l)/4) bound construction.

    Base cases: diameter <= 2 (stars, including P_2 and P_3) label the
    highest-degree vertex 2 and the rest -1, ties toward the lower index.
    Otherwise take v at distance d-1 on a diametral path, strip its
    pendant neighborhood N(v) - {v'}, extend a minimum-weight labeling of
    the stripped tree (standing in for the induction hypothesis) by
    f(v) = 2 and -1 on the stripped leaves. Validity of the extension is
    not re-proved here; downstream validation decides it per instance.
    The stripped tree is solved under the threshold mode and node limit
    of ``options``; a truncated solve is reported as a defect.
    """
    opts = options or SolveOptions()
    if not is_tree(t):
        raise CertificateError("input graph is not a tree")
    if t.n < 2:
        raise CertificateError("requires n >= 2")
    adj = t.adj
    defects = ()
    far_a, _, _ = _bfs_farthest(adj, 0)
    far_b, diameter, parent = _bfs_farthest(adj, far_a)
    if diameter <= 2:
        hub = max(range(t.n), key=lambda v: (len(adj[v]), -v))
        out = tuple(2 if v == hub else -1 for v in range(t.n))
    else:
        # the tree path from far_b back to far_a is its parent chain
        v = parent[far_b]
        v_prime = parent[v]
        strip = adj[v] - {v_prime}
        kept = [u for u in range(t.n) if u not in strip]
        index = {u: i for i, u in enumerate(kept)}
        sub = Graph(
            len(kept),
            [(index[a], index[b]) for a, b in t.edges() if a in index and b in index],
        )
        # the method stays "auto": the extension starts from whichever
        # optimal witness the solve returns, and forcing branch and bound
        # changed the validity or weight of 121 of 1200 certificates (600
        # random trees with n = 4..13, in both threshold modes)
        inner = solve(
            sub,
            SolveOptions(
                threshold_mode=opts.threshold_mode, node_limit=opts.node_limit
            ),
        )
        if not inner.proven:
            defects = (
                f"stripped tree unproven: node limit {opts.node_limit} reached",
            )
        labels = [0] * t.n
        for u in kept:
            labels[u] = inner.witness[index[u]]
        labels[v] = 2
        for x in strip:
            labels[x] = -1
        out = tuple(labels)
    return Certificate(
        graph=t,
        labeling=out,
        claimed_weight=None,
        source="tree_support_leaf",
        transcription="literal",
        defects=defects,
    )
