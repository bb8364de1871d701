"""Graph construction: the standard small-graph families, combinators
(complement, join, corona, matching removal), and edge-list I/O.

Vertex orderings are part of the public contract, since certificate
labelings index into them:

* Wheel / Fan: hub is vertex 0, rim/path vertices are 1..n-1 in cycle/path
  order.
* ComplementPath / ComplementCycle on n vertices: vertex i-1 corresponds to
  the 1-based path/cycle vertex v_i.
* CompleteMinusMatching with parameter n (order 2n): the removed matching
  pairs are (2i, 2i+1) for i = 0..n-1.
* JoinComplete(m, n): vertices 0..m-1 are the K_m side, m..m+n-1 the K_n
  side.
* Corona G o H: vertices 0..|G|-1 are G's, followed by one block of |H|
  copy vertices per anchor, in anchor order.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class GraphError(ValueError):
    """Invalid graph parameters or malformed graph input."""


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    Adjacency is stored as one frozenset of neighbours per vertex.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]) -> None:
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has endpoint outside [0,{n})")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    # -- queries -----------------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def max_degree(self) -> int:
        if self.n == 0:
            raise GraphError("max degree of the empty graph is undefined")
        return max(len(s) for s in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def is_connected(self) -> bool:
        return self.n <= 1 or len(bfs(self)[0]) == self.n

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range [0,{self.n})")

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"


def bfs(g: Graph, root: int = 0) -> Tuple[List[int], List[int]]:
    """Breadth-first search from ``root``, neighbours in index order.

    Returns the vertices reachable from ``root`` in visiting order, and
    each vertex's BFS parent: -1 for the root and for unreached vertices.
    On a tree, reversing the order visits every child before its parent.
    """
    parent = [-1] * g.n
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    for u in order:
        for v in sorted(g.adj[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    return order, parent


# ---------------------------------------------------------------------------
# basic families


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("Path requires n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("Cycle requires n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("Complete requires n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n: int) -> Graph:
    """Star on n vertices: hub 0 plus n-1 leaves."""
    if n < 2:
        raise GraphError("Star requires n >= 2")
    return Graph(n, [(0, v) for v in range(1, n)])


def double_star(a: int, b: int) -> Graph:
    """Double star S_{a,b}: centers 0 (degree a) and 1 (degree b).

    Vertex 0 is adjacent to 1 and to leaves 2..a; vertex 1 to leaves
    a+1..a+b-1. Order is a+b.
    """
    if a < 2 or b < 2:
        raise GraphError("DoubleStar requires a >= 2 and b >= 2")
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, a + 1)]
    edges += [(1, v) for v in range(a + 1, a + b)]
    return Graph(a + b, edges)


def wheel(n: int) -> Graph:
    """Wheel on n vertices: hub 0 joined to an (n-1)-cycle 1..n-1."""
    if n < 4:
        raise GraphError("Wheel requires n >= 4")
    edges = [(0, v) for v in range(1, n)]
    rim = list(range(1, n))
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return Graph(n, edges)


def fan(n: int) -> Graph:
    """Fan on n vertices: hub 0 joined to the path 1..n-1 (= wheel minus
    the rim edge between vertices 1 and n-1)."""
    if n < 2:
        raise GraphError("Fan requires n >= 2")
    edges = [(0, v) for v in range(1, n)]
    edges += [(v, v + 1) for v in range(1, n - 1)]
    return Graph(n, edges)


def complete_minus_matching(n: int) -> Graph:
    """K_{2n} minus the perfect matching {(0,1), (2,3), ...}."""
    if n < 1:
        raise GraphError("CompleteMinusMatching requires n >= 1")
    order = 2 * n
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if not (u % 2 == 0 and v == u + 1)
    ]
    return Graph(order, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled random tree via Pruefer-sequence decode.

    Driven by ``random.Random(seed)`` (Mersenne Twister), so reproducible
    for a fixed seed.
    """
    if seed is None:
        raise GraphError("RandomTree requires a seed")
    if n < 1:
        raise GraphError("RandomTree requires n >= 1")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def gnp(n: int, p: float, seed: int, require_edge: bool = False) -> Graph:
    """Erdos-Renyi G(n, p) with a seeded RNG.

    With ``require_edge`` the sample is redrawn (advancing the same RNG)
    until it has at least one edge; used where a formula needs max degree
    >= 1. No draw with p <= 0 has an edge, so there it raises GraphError.
    """
    if n < 1:
        raise GraphError("G(n,p) requires n >= 1")
    if require_edge and p <= 0 and n >= 2:
        raise GraphError("G(n,p) with p <= 0 has no edge to require")
    rng = random.Random(seed)
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if edges or not require_edge or n == 1:
            return Graph(n, edges)


# ---------------------------------------------------------------------------
# combinators


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adj[u]
    ]
    return Graph(g.n, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all cross edges; g's vertices first."""
    off = g.n
    edges = list(g.edges())
    edges += [(u + off, v + off) for u, v in h.edges()]
    edges += [(u, v + off) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """Corona g o h: one copy of h per vertex of g, fully joined to it."""
    edges = list(g.edges())
    for i in range(g.n):
        off = g.n + i * h.n
        edges += [(u + off, v + off) for u, v in h.edges()]
        edges += [(i, u + off) for u in range(h.n)]
    return Graph(g.n + g.n * h.n, edges)


# ---------------------------------------------------------------------------
# families built from combinators


def complement_path(n: int) -> Graph:
    if n < 2:
        raise GraphError("ComplementPath requires n >= 2")
    return complement(path(n))


def complement_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("ComplementCycle requires n >= 3")
    return complement(cycle(n))


def join_complete(m: int, n: int) -> Graph:
    """K_m v K_n: the K_m side is vertices 0..m-1."""
    if m < 1 or n < 1:
        raise GraphError("JoinComplete requires m >= 1 and n >= 1")
    return join(complete(m), complete(n))


def corona_k3(k: int) -> Graph:
    """K_{3k} o K_3."""
    if k < 1:
        raise GraphError("CoronaK3K3 requires k >= 1")
    return corona(complete(3 * k), complete(3))


# ---------------------------------------------------------------------------
# symbolic family specs


class Family(NamedTuple):
    """A parametrized family: the GraphSpec fields it reads, in the order
    its builder and its label take them."""

    fields: Tuple[str, ...]
    build: Callable[..., Graph]
    label: Callable[..., str]


# every family a GraphSpec can name, except "corona" (two component specs)
FAMILIES = {
    "path": Family(("n",), path, lambda n: f"P_{n}"),
    "cycle": Family(("n",), cycle, lambda n: f"C_{n}"),
    "complete": Family(("n",), complete, lambda n: f"K_{n}"),
    "star": Family(("n",), star, lambda n: f"Star_{n}"),
    "double_star": Family(("n", "m"), double_star, lambda n, m: f"DS_{n}_{m}"),
    "wheel": Family(("n",), wheel, lambda n: f"W_{n}"),
    "fan": Family(("n",), fan, lambda n: f"F_{n}"),
    "complement_path": Family(("n",), complement_path, lambda n: f"Pbar_{n}"),
    "complement_cycle": Family(("n",), complement_cycle, lambda n: f"Cbar_{n}"),
    "complete_minus_matching": Family(
        ("n",), complete_minus_matching, lambda n: f"K{2 * n}-M"
    ),
    "join_complete": Family(("m", "n"), join_complete, lambda m, n: f"K_{m}vK_{n}"),
    "corona_k3": Family(("k",), corona_k3, lambda k: f"K_{3 * k}oK_3"),
    "random_tree": Family(
        ("n", "seed"), random_tree, lambda n, seed: f"T_n{n}_s{seed}"
    ),
}


@dataclass(frozen=True)
class GraphSpec:
    """Symbolic description of a graph family plus parameters.

    ``family`` is a key of ``FAMILIES`` (double_star takes a=n, b=m;
    complete_minus_matching has order 2n), or "corona" (parts).
    """

    family: str
    n: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None
    seed: Optional[int] = None
    parts: Optional[Tuple["GraphSpec", "GraphSpec"]] = None

    @classmethod
    def of(cls, family: str, *params) -> "GraphSpec":
        """The spec of a ``FAMILIES`` entry from its parameters in order."""
        return cls(family, **dict(zip(FAMILIES[family].fields, params)))

    def params(self) -> tuple:
        """The parameters of a ``FAMILIES`` entry, in its field order."""
        return tuple(getattr(self, f) for f in FAMILIES[self.family].fields)

    def label(self) -> str:
        f = self.family
        if f == "corona":
            return f"{self.parts[0].label()}o{self.parts[1].label()}"
        if f in FAMILIES:
            return FAMILIES[f].label(*self.params())
        return f


def generate(spec: GraphSpec) -> Graph:
    """Build the graph for a spec under the documented vertex ordering."""
    f = spec.family
    if f == "corona":
        if spec.parts is None:
            raise GraphError("Corona requires two component specs")
        return corona(generate(spec.parts[0]), generate(spec.parts[1]))
    if f in FAMILIES:
        params = spec.params()
        for field, value in zip(FAMILIES[f].fields, params):
            if value is None:
                raise GraphError(f"{f} requires {field}")
        return FAMILIES[f].build(*params)
    raise GraphError(f"unknown family {f!r}")


# ---------------------------------------------------------------------------
# edge-list I/O
#
# Format: first line "n m", then m lines "u v" with 0 <= u < v < n, no
# duplicates, no loops. serialize emits edges sorted lexicographically.


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge list: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"malformed header {lines[0]!r}: expected integers")
    if n < 0 or m < 0:
        raise GraphError("header counts must be non-negative")
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"malformed edge line {ln!r}")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < v < n):
            raise GraphError(f"edge ({u},{v}) violates 0 <= u < v < {n}")
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def serialize_edge_list(g: Graph) -> str:
    edges = sorted(g.edges())
    lines = [f"{g.n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"
