"""Polynomial tree algorithms: domination number, independence number,
support/leaf counts, and search for a minimum dominating set whose
complement is independent."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

from .graph import Graph

_INF = float("inf")
# largest tree order the exhaustive gamma-set search accepts
GAMMA_SET_CAP = 20


class TreeError(ValueError):
    pass


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.num_edges() == g.n - 1 and g.is_connected()


def _require_tree(g: Graph) -> None:
    if not is_tree(g):
        raise TreeError("input graph is not a tree (connected, acyclic)")


def _postorder(g: Graph, root: int = 0):
    """Vertices in post-order with parents, iteratively."""
    parent = [-1] * g.n
    order = []
    stack = [root]
    seen = [False] * g.n
    seen[root] = True
    while stack:
        u = stack.pop()
        order.append(u)
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                stack.append(v)
    return order[::-1], parent


def domination_number(t: Graph) -> int:
    """Exact minimum dominating set size via rooted three-state DP.

    States: vertex in the set / dominated from below / not yet dominated
    (its parent must take it).
    """
    _require_tree(t)
    if t.n == 1:
        return 1
    order, parent = _postorder(t)
    in_set = [0.0] * t.n
    dominated = [0.0] * t.n
    needs = [0.0] * t.n
    for u in order:
        children = [v for v in t.adj[u] if parent[v] == u]
        if not children:
            in_set[u] = 1.0
            dominated[u] = _INF
            needs[u] = 0.0
            continue
        in_set[u] = 1.0 + sum(
            min(in_set[c], dominated[c], needs[c]) for c in children
        )
        base = sum(min(in_set[c], dominated[c]) for c in children)
        extra = min(in_set[c] - min(in_set[c], dominated[c]) for c in children)
        dominated[u] = base + extra
        needs[u] = base
    root = order[-1]
    return int(min(in_set[root], dominated[root]))


def independence_number(t: Graph) -> int:
    """Exact maximum independent set size via two-state DP."""
    _require_tree(t)
    order, parent = _postorder(t)
    take = [0] * t.n
    skip = [0] * t.n
    for u in order:
        children = [v for v in t.adj[u] if parent[v] == u]
        take[u] = 1 + sum(skip[c] for c in children)
        skip[u] = sum(max(take[c], skip[c]) for c in children)
    root = order[-1]
    return max(take[root], skip[root])


def count_supports_leaves(t: Graph) -> Tuple[int, int]:
    """(s, l): supports are vertices adjacent to a degree-1 vertex, leaves
    are degree-1 vertices. On P_2 each endpoint is both, so (2, 2)."""
    _require_tree(t)
    if t.n < 2:
        raise TreeError("support/leaf counts require n >= 2")
    leaves = {v for v in range(t.n) if len(t.adj[v]) == 1}
    supports = {v for v in range(t.n) if t.adj[v] & leaves}
    return len(supports), len(leaves)


def find_gamma_set_independent_complement(
    t: Graph, cap: int = GAMMA_SET_CAP
) -> Optional[frozenset]:
    """Some minimum dominating set with independent complement, or None.

    Enumerates all vertex subsets of size gamma; exponential but fine at
    desk scale, hence the cap.
    """
    _require_tree(t)
    if t.n > cap:
        raise TreeError(f"n={t.n} exceeds exhaustive cap {cap}")
    gamma = domination_number(t)
    full = (1 << t.n) - 1
    masks = [sum(1 << u for u in t.adj[v]) for v in range(t.n)]
    closed_masks = [masks[v] | (1 << v) for v in range(t.n)]
    for combo in combinations(range(t.n), gamma):
        covered = 0
        for v in combo:
            covered |= closed_masks[v]
        if covered != full:
            continue
        outside = [v for v in range(t.n) if v not in combo]
        if all(not (masks[u] >> v) & 1 for u in outside for v in outside):
            return frozenset(combo)
    return None


@dataclass(frozen=True)
class TreeProfile:
    n: int
    gamma: int
    beta0: int
    supports: int
    leaves: int


def tree_profile(t: Graph) -> TreeProfile:
    s, l = count_supports_leaves(t)
    return TreeProfile(
        n=t.n,
        gamma=domination_number(t),
        beta0=independence_number(t),
        supports=s,
        leaves=l,
    )
