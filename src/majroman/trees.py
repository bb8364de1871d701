"""Polynomial tree algorithms: domination number, a maximum independent
set, support/leaf counts, and the test for a minimum dominating set whose
complement is independent (gamma = n - beta0)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .graph import Graph, bfs

_INF = float("inf")


class TreeError(ValueError):
    pass


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.num_edges() == g.n - 1 and g.is_connected()


def _require_tree(g: Graph) -> None:
    if not is_tree(g):
        raise TreeError("input graph is not a tree (connected, acyclic)")


def domination_number(t: Graph) -> int:
    """Exact minimum dominating set size via rooted three-state DP.

    States: vertex in the set / dominated from below / not yet dominated
    (its parent must take it). Each vertex pushes its values into its
    parent. ``base[u]`` sums, over u's children, the least weight of a
    child dominated without u, and so is the cost of u not yet dominated;
    ``extra[u]`` is the least added cost of making one child a member, so
    u dominated from below costs ``base[u] + extra[u]``.
    """
    _require_tree(t)
    order, parent = bfs(t)
    in_set = [1] * t.n
    base = [0] * t.n
    extra = [_INF] * t.n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            free = min(in_set[u], base[u] + extra[u])
            in_set[p] += min(free, base[u])
            base[p] += free
            extra[p] = min(extra[p], in_set[u] - free)
    return int(min(in_set[0], base[0] + extra[0]))


def maximum_independent_set(t: Graph) -> frozenset:
    """A maximum independent set via the two-state DP (take or skip each
    vertex), traced back from the root; ties take the vertex."""
    _require_tree(t)
    order, parent = bfs(t)
    take = [1] * t.n
    skip = [0] * t.n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            take[p] += skip[u]
            skip[p] += max(take[u], skip[u])
    chosen = set()
    for u in order:
        if parent[u] not in chosen and take[u] >= skip[u]:
            chosen.add(u)
    return frozenset(chosen)


def independence_number(t: Graph) -> int:
    """Exact maximum independent set size."""
    return len(maximum_independent_set(t))


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
    t: Graph, profile: Optional[TreeProfile] = None
) -> Optional[frozenset]:
    """Some minimum dominating set with independent complement, or None.

    A set with independent complement is a vertex cover, and with no
    isolated vertex every vertex cover dominates. So such a set exists
    exactly when gamma = tau = n - beta0 (Gallai), and then the complement
    of any maximum independent set is one. On K_1 the set is {0}. gamma
    and that set are read from ``profile``, computed when not given.
    """
    if t.n == 1:
        return frozenset({0})
    profile = profile or tree_profile(t)
    cover = frozenset(range(t.n)) - profile.independent
    return cover if len(cover) == profile.gamma else None


@dataclass(frozen=True)
class TreeProfile:
    n: int
    gamma: int
    independent: frozenset
    supports: int
    leaves: int

    @property
    def beta0(self) -> int:
        return len(self.independent)


def tree_profile(t: Graph) -> TreeProfile:
    s, l = count_supports_leaves(t)
    return TreeProfile(
        n=t.n,
        gamma=domination_number(t),
        independent=maximum_independent_set(t),
        supports=s,
        leaves=l,
    )
