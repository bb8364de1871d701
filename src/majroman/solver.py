"""Exact computation of the majority Roman domination number.

Two independent routes:

* ``brute_force`` -- exhaustive enumeration of all 3^n labelings (the
  reference oracle), capped at n <= 16 by default. The last min(n, 9)
  vertices form a low block whose 3^9 rows (closed sums, 2-neighbour
  counts, weights, guard bitmasks) are built once per call in int16 by
  mixed-radix broadcasting; the 3^(n-9) labelings of the high prefix are
  then swept in code order, re-comparing only the closed sums of N[high].
  Memory stays near 3^9 x n int16 per array at any n.
* ``branch_and_bound`` -- DFS over partial labelings with four safe
  pruning rules, usable beyond the brute-force cap and on sparse graphs.
  Before searching it compares the incumbent with
  ``majority_lower_bound`` (thr-th smallest degree + 2 - n); a seed that
  meets the bound is optimal and is returned with no search at all.

Both return the same optimum whenever both run. The all-2 labeling is
valid on every graph (every closed sum is positive and there is no -1
vertex), so every instance is feasible; lowering any single 2 to +1 keeps
validity, hence the optimum is always < 2n for n >= 1.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .graph import Graph
from .labeling import majority_threshold, validate, weight as label_weight


class SolverError(RuntimeError):
    pass


class CapExceededError(SolverError):
    """Instance too large for exhaustive enumeration."""


class InfeasibleError(SolverError):
    """No valid labeling exists (unreachable for simple graphs; kept as a
    distinguished outcome rather than a silent wrong answer)."""


@dataclass
class SolveOptions:
    method: str = "auto"  # auto | brute | bb
    # accepted for compatibility; the search is serial and ignores it
    thread_count: int = 1
    seed_labeling: Optional[Tuple[int, ...]] = None
    node_limit: Optional[int] = None
    threshold_mode: str = "ceil"
    brute_cap: int = 16

    def __post_init__(self):
        if self.thread_count < 1:
            raise ValueError("thread_count must be >= 1")


@dataclass(slots=True)
class OptResult:
    optimum: int
    witness: Tuple[int, ...]
    nodes_explored: int
    method: str
    elapsed: float
    proven: bool = True


_LABELS = (-1, 1, 2)
# per digit: a closed neighbour adds its label, an open neighbour counts a 2
_COEF = np.array([_LABELS, (0, 0, 1)], dtype=np.int16)[:, None, None, :]
# order of the low block, whose 3^_LOW rows are built once per call
_LOW = 9


@functools.lru_cache(maxsize=_LOW)
def _block(k: int):
    """Constant tables of the 3^k labelings of k vertices in code order.

    Read-only and cached per block size: the (k, 3^k) int8 labels, the
    int16 bit of vertex j where it is -1 (else 0), and the int16 row
    weights.
    """
    axes = np.meshgrid(*[np.array(_LABELS, dtype=np.int8)] * k, indexing="ij")
    labels = np.stack([a.reshape(-1) for a in axes])
    bits = np.left_shift(1, np.arange(k, dtype=np.int16))[:, None]
    tables = (labels, (labels == -1) * bits, labels.sum(axis=0, dtype=np.int16))
    for t in tables:
        t.flags.writeable = False
    return tables


def _low_rows(coef: np.ndarray) -> np.ndarray:
    """Sums over the low block for every code, by mixed-radix broadcasting.

    ``coef[i, j, d]`` is what low vertex j adds to row i when its digit
    is d. Column r of the result holds, for each row i, the sum over j of
    ``coef[i, j, digit_j(r)]``. It is built one digit at a time, from the
    least significant one, with no decoding of r.
    """
    out = coef[:, -1, :]
    for j in range(coef.shape[1] - 2, -1, -1):
        out = (coef[:, j, :, None] + out[:, None, :]).reshape(len(coef), -1)
    return out


def brute_force(g: Graph, options: Optional[SolveOptions] = None) -> OptResult:
    """Exhaustive minimum over all 3^n labelings.

    The witness is the first optimum in mixed-radix code order, which is
    the lexicographically smallest over vertices 0..n-1 with value order
    (-1, +1, 2).

    The last ``min(n, 9)`` vertices form the low block. Its 3^9 rows
    are built once per call: each vertex's closed sum over the block, its
    number of low 2-neighbours, the row weights and a guard bitmask. The
    labelings of the high prefix (the first ``n - 9`` vertices) are then
    swept in code order. Each one re-compares only the closed sums of
    N[high], and tests the Roman guard with two bitmask tests per row:
    a low -1 vertex with no low 2 needs a high 2 neighbour, and a high -1
    vertex with no high 2 needs a low 2 neighbour. The best row of a
    block is its first lightest valid one; a later block wins only when
    strictly lighter.
    """
    opts = options or SolveOptions()
    n = g.n
    if n > opts.brute_cap:
        raise CapExceededError(
            f"n={n} exceeds brute-force cap {opts.brute_cap}; "
            "use branch_and_bound"
        )
    t0 = time.perf_counter()
    if n == 0:
        return OptResult(0, (), 1, "brute_force", time.perf_counter() - t0)
    thr = majority_threshold(n, opts.threshold_mode)
    h = max(0, n - _LOW)
    high = range(h)
    labels, minus_bits, low_w = _block(n - h)

    # closed-sum rows of N[high] first (they change with the high labels),
    # then the rest; after them one row of low 2-neighbours per vertex
    touched = sorted(set(high).union(*(g.adj[u] for u in high)))
    order = touched + [v for v in range(n) if v not in touched]
    adj = np.zeros(2 * n * n, dtype=np.int16)
    adj[
        [i * n + u for i, v in enumerate(order) for u in (v, *g.adj[v])]
        + [(n + v) * n + u for v in range(n) for u in g.adj[v]]
    ] = 1
    coef = adj.reshape(2, n, n)[:, :, h:, None] * _COEF
    rows = _low_rows(coef.reshape(2 * n, n - h, 3))
    k = len(touched)
    touched_sums = rows[:k]
    sat_rest = np.add.reduce(rows[k:n] >= 1, axis=0, dtype=np.int16)
    low_twos = rows[n:]
    # bit j: low vertex h+j is -1 with no low 2-neighbour
    low_needy = np.add.reduce(
        (low_twos[h:] == 0) * minus_bits, axis=0, dtype=np.int16
    )
    all_low = (1 << (n - h)) - 1
    if h:
        # bit u: high vertex u has a low 2-neighbour
        high_cov = np.add.reduce(
            (low_twos[:h] > 0) * (1 << np.arange(h, dtype=np.int64))[:, None],
            axis=0,
        )
        # per high vertex: its high neighbours and the bitmask of its low ones
        high_adj = [[w for w in g.adj[u] if w < h] for u in high]
        low_adj = [sum(1 << (w - h) for w in g.adj[u] if w >= h) for u in high]
        # per vertex of N[high]: the high vertices in its closed neighbourhood
        high_closed = [[u for u in high if u == v or u in g.adj[v]] for v in touched]

    best_w: Optional[int] = None
    best = None
    for x in itertools.product(_LABELS, repeat=h):
        sat = sat_rest
        cover = 0
        needy = 0
        if h:
            # a vertex of N[high] is satisfied when its low sum reaches
            # 1 minus what its high closed neighbours add
            cut = np.array(
                [[1 - sum(x[u] for u in us)] for us in high_closed], dtype=np.int16
            )
            sat = sat + np.add.reduce(touched_sums >= cut, axis=0, dtype=np.int16)
            for u in high:
                if x[u] == 2:
                    cover |= low_adj[u]
                elif x[u] == -1 and all(x[w] != 2 for w in high_adj[u]):
                    needy |= 1 << u
        ok = (sat >= thr) & ((low_needy & (all_low & ~cover)) == 0)
        if needy:
            ok &= (high_cov & needy) == needy
        if not ok.any():
            continue
        i = int(np.argmin(np.where(ok, low_w, np.int16(2 * n + 1))))
        w = int(low_w[i]) + sum(x)
        if best_w is None or w < best_w:
            best_w = w
            best = x + tuple(int(v) for v in labels[:, i])
    if best is None:
        raise InfeasibleError("no valid labeling found")
    return OptResult(
        optimum=best_w,
        witness=best,
        nodes_explored=3**n,
        method="brute_force",
        elapsed=time.perf_counter() - t0,
    )


class _Search:
    """DFS over partial labelings, holding the best labeling found so far.

    Pruning rules (all safe):
    (a) optimistic completion: current weight plus -1 per unassigned
        vertex cannot beat the incumbent;
    (b) Roman guard death: an assigned -1 vertex whose open neighborhood
        is fully assigned with no 2;
    (c) majority death: vertices whose closed sum can no longer reach 1
        even if every unassigned closed neighbor takes 2; prune once more
        than n - threshold of them exist;
    (d) guard capacity: of the k unassigned vertices U, say P already
        have an assigned 2-neighbour. A completion labelling a vertices
        of U with 2 and c with -1 weighs k + a - 2c on U, and each of
        those -1s needs a 2-neighbour, so c <= min(k - a, P + D(a)) where
        D(a) is the sum of the a largest degrees in U. U therefore weighs
        at least the minimum over a of max(3a - k, k + a - 2P - 2D(a)),
        and the subtree is cut when that cannot beat the incumbent.
        The bound is never below -k, so (d) implies (a) and the search
        tests (d) alone.

    Rules (b) and (c) are tested before a child is applied: one
    read-only pass over N[u] finds the closed neighbours each of the -1
    and +1 children would kill and the guards they would break, so a
    dead child is counted as a node but never assigned or undone. The
    2 child breaks no guard and kills no vertex. Rule (d) is tested on
    entry to a node.

    Every rule only cuts subtrees with no valid leaf lighter than the
    incumbent, so the incumbent sequence, and with it the witness, is the
    same as with no pruning at all.
    """

    def __init__(self, g: Graph, order, weight, witness, allowed_unsat, node_limit):
        n = g.n
        self.n = n
        self.order = order
        self.weight = weight
        self.witness = witness
        self.allowed_unsat = allowed_unsat
        # no limit is a count the search never reaches
        self.node_limit = sys.maxsize if node_limit is None else node_limit
        self.closed_nbrs = [sorted(g.adj[v] | {v}) for v in range(n)]
        self.open_nbrs = [sorted(g.adj[v]) for v in range(n)]
        self.label = [0] * n
        self.sum_closed = [0] * n
        self.un_closed = [len(g.adj[v]) + 1 for v in range(n)]
        self.un_open = [len(g.adj[v]) for v in range(n)]
        self.twos_open = [0] * n
        # unassigned vertices with an assigned 2-neighbour (P of rule d)
        self.covered = 0
        # slack[i] = i - 2 * (sum of the degrees of order[:i])
        self.slack = [0] * (n + 1)
        for i, v in enumerate(order):
            self.slack[i + 1] = self.slack[i] + 1 - 2 * len(g.adj[v])
        self.dead = [False] * n
        self.dead_count = 0
        self.nodes = 0
        self.truncated = False

    def assign(self, u: int, x: int, newly_dead) -> None:
        """Label u with x; ``newly_dead`` are the closed neighbours of u
        whose closed sum can no longer reach 1 once it is labelled."""
        label = self.label
        label[u] = x
        un_open = self.un_open
        twos_open = self.twos_open
        if twos_open[u]:
            self.covered -= 1
        sum_closed = self.sum_closed
        un_closed = self.un_closed
        for v in self.closed_nbrs[u]:
            sum_closed[v] += x
            un_closed[v] -= 1
        if x == 2:
            covered = 0
            for v in self.open_nbrs[u]:
                un_open[v] -= 1
                twos_open[v] += 1
                if twos_open[v] == 1 and not label[v]:
                    covered += 1
            self.covered += covered
        else:
            for v in self.open_nbrs[u]:
                un_open[v] -= 1
        dead = self.dead
        for v in newly_dead:
            dead[v] = True
        self.dead_count += len(newly_dead)

    def unassign(self, u: int, x: int, newly_dead) -> None:
        self.dead_count -= len(newly_dead)
        dead = self.dead
        for v in newly_dead:
            dead[v] = False
        label = self.label
        un_open = self.un_open
        twos_open = self.twos_open
        if x == 2:
            covered = 0
            for v in self.open_nbrs[u]:
                un_open[v] += 1
                twos_open[v] -= 1
                if not twos_open[v] and not label[v]:
                    covered += 1
            self.covered -= covered
        else:
            for v in self.open_nbrs[u]:
                un_open[v] += 1
        for v in self.closed_nbrs[u]:
            self.sum_closed[v] -= x
            self.un_closed[v] += 1
        label[u] = 0
        if twos_open[u]:
            self.covered += 1

    def capacity_bound_reaches(self, depth: int, need: int) -> bool:
        """Whether rule (d) bounds the weight of the unassigned vertices by
        at least ``need``.

        With i = depth + a, f1 = 3a - k rises by 3 per step and
        f2 = k + a - 2P - 2D(a) falls while degrees are positive, then
        rises by 1 per isolated vertex. The bound is f1 at the first a
        with f1 >= f2, or a smaller f2 before it; the walk stops at the
        first value below ``need``.
        """
        k = self.n - depth
        slack = self.slack
        # f2 = base + slack[i]
        base = k - 2 * self.covered - slack[depth]
        f1 = -k
        for i in range(depth, self.n):
            f2 = base + slack[i]
            if f1 >= f2:
                return f1 >= need
            if f2 < need:
                return False
            f1 += 3
        # a = k: f1 = 2k is at least f2
        return f1 >= need

    def dfs(self, depth: int, cur_w: int) -> None:
        n = self.n
        if depth == n:
            # every leaf reached here satisfies both conditions: guard and
            # majority deaths were pruned on the way down
            if cur_w < self.weight:
                self.weight = cur_w
                self.witness = tuple(self.label)
            return
        if self.capacity_bound_reaches(depth, self.weight - cur_w):
            return
        u = self.order[depth]
        # one read-only pass over N[u] decides rules (b) and (c) for the
        # -1 and +1 children; the 2 child always lives
        label = self.label
        un_open = self.un_open
        twos_open = self.twos_open
        sum_closed = self.sum_closed
        un_closed = self.un_closed
        dead = self.dead
        # (b): u labelled -1 needs a neighbour that is unassigned or a 2
        minus_lives = un_open[u] > 0 or twos_open[u] > 0
        plus_lives = True
        # (c): a closed neighbour's sum + 2 * unassigned drops by 3 under
        # -1 and by 1 under +1, and is dead once below 1
        dead_minus = []
        dead_plus = []
        for v in self.closed_nbrs[u]:
            # (b): a -1 neighbour whose last unassigned neighbour is u
            # and that has no 2-neighbour dies unless u takes 2
            if label[v] == -1 and un_open[v] == 1 and not twos_open[v]:
                minus_lives = plus_lives = False
                break
            if not dead[v]:
                potential = sum_closed[v] + 2 * un_closed[v]
                if potential < 4:
                    dead_minus.append(v)
                    if potential < 2:
                        dead_plus.append(v)
        room = self.allowed_unsat - self.dead_count
        children = (
            (-1, dead_minus, minus_lives and len(dead_minus) <= room),
            (1, dead_plus, plus_lives and len(dead_plus) <= room),
            (2, (), True),
        )
        for x, newly_dead, lives in children:
            # also ends this loop once a child's subtree used up the limit
            if self.nodes >= self.node_limit:
                self.truncated = True
                return
            self.nodes += 1
            if lives:
                self.assign(u, x, newly_dead)
                self.dfs(depth + 1, cur_w + x)
                self.unassign(u, x, newly_dead)


def branch_and_bound(
    g: Graph, options: Optional[SolveOptions] = None
) -> OptResult:
    """Exact optimum by pruned DFS; same value as brute_force.

    Branching order is descending degree (ties by index), value order
    (-1, +1, 2). The witness is the lexicographically smallest optimum in
    branching order, and node counts are reproducible.

    ``seed_labeling`` seeds the incumbent with a known valid labeling;
    otherwise the incumbent is the all-2 labeling. Seeding never changes
    the optimum, only node counts.

    When the incumbent already weighs ``majority_lower_bound(g, mode)``,
    no leaf is strictly lighter, so the search could only return the
    incumbent: it is skipped, and the seed comes back proven with
    ``nodes_explored == 0``. The all-2 start weighs 2n, above every
    bound, so an unseeded solve always searches.
    """
    opts = options or SolveOptions()
    n = g.n
    t0 = time.perf_counter()
    if n == 0:
        return OptResult(0, (), 1, "branch_and_bound", time.perf_counter() - t0)
    thr = majority_threshold(n, opts.threshold_mode)
    allowed_unsat = n - thr
    order = sorted(range(n), key=lambda v: (-len(g.adj[v]), v))

    if opts.seed_labeling is not None:
        report = validate(g, opts.seed_labeling, opts.threshold_mode)
        if not report.is_valid:
            raise SolverError("seed_labeling is not a valid labeling")
        weight, witness = report.weight, tuple(opts.seed_labeling)
    else:
        weight, witness = 2 * n, tuple([2] * n)

    if weight <= majority_lower_bound(g, opts.threshold_mode):
        # no leaf is lighter than the incumbent: the search would only
        # confirm it
        return OptResult(
            optimum=weight,
            witness=witness,
            nodes_explored=0,
            method="branch_and_bound",
            elapsed=time.perf_counter() - t0,
        )
    search = _Search(g, order, weight, witness, allowed_unsat, opts.node_limit)
    search.dfs(0, 0)
    return OptResult(
        optimum=search.weight,
        witness=search.witness,
        nodes_explored=search.nodes,
        method="branch_and_bound",
        elapsed=time.perf_counter() - t0,
        proven=not search.truncated,
    )


def choose_method(g: Graph, opts: SolveOptions) -> str:
    """The method ``solve`` runs: "brute" or "bb". "auto" picks brute
    force when n is at most 12 and within ``brute_cap``."""
    if opts.method == "auto":
        return "brute" if g.n <= min(12, opts.brute_cap) else "bb"
    if opts.method in ("brute", "bb"):
        return opts.method
    raise SolverError(f"unknown method {opts.method!r}")


def solve(g: Graph, options: Optional[SolveOptions] = None) -> OptResult:
    """Dispatch on method: "brute", "bb", or "auto" (brute for small n)."""
    opts = options or SolveOptions()
    if choose_method(g, opts) == "brute":
        return brute_force(g, opts)
    return branch_and_bound(g, opts)


def majority_lower_bound(g: Graph, threshold_mode: str = "ceil") -> int:
    """thr-th smallest degree + 2 - n, where thr is the majority threshold.

    A satisfied vertex v has f(N[v]) >= 1, and each of the n - deg(v) - 1
    vertices outside N[v] weighs at least -1, so a valid labeling weighs
    at least deg(v) + 2 - n. At least thr vertices are satisfied, so one
    of them has a degree of at least the thr-th smallest. With thr = 0
    the bound is -n. It holds on every graph, including n = 0 and
    edgeless ones.
    """
    thr = majority_threshold(g.n, threshold_mode)
    if thr == 0:
        return -g.n
    degrees = sorted(len(nbrs) for nbrs in g.adj)
    return degrees[thr - 1] + 2 - g.n


def delta_lower_bound(g: Graph) -> Fraction:
    """n(2 - max_degree) / (max_degree + 1), exactly.

    The counting argument behind it needs at least one edge; on an
    edgeless graph the bound is simply false (all-(+1) has weight n < 2n).
    """
    if g.n < 2:
        raise SolverError("lower bound requires n >= 2")
    d = g.max_degree()
    return Fraction(g.n * (2 - d), d + 1)
