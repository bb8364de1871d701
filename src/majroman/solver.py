"""Exact computation of the majority Roman domination number.

Three independent routes, one ``METHODS`` entry each:

* ``brute_force`` -- exhaustive enumeration of all 3^n labelings (the
  reference oracle), capped at n <= 16 by default. The last min(n, 9)
  vertices form a low block whose 3^9 rows (int8 closed sums and
  2-neighbour counts, then satisfied counts and guard bitmasks) are built
  once per call by mixed-radix broadcasting and kept sorted by weight. The
  3^(n-9) labelings of the high prefix are then swept in code order by an
  odometer that keeps one partial satisfied count per high digit and tests
  only the rows light enough to beat the incumbent. Memory stays near 3^9
  bytes per row: 2n rows while the block is built, then one row per
  partial count and per value of each group's high sum.
* ``branch_and_bound`` -- DFS over partial labelings with four safe
  pruning rules, usable beyond the brute-force cap and on sparse graphs.
  The labelling is passed down the recursion as bitmasks that only grow;
  the per-vertex potentials of the majority rule are the only state undone.
  Before searching it compares the incumbent with
  ``majority_lower_bound`` (thr-th smallest degree + 2 - n); a seed that
  meets the bound is optimal and is returned with no search at all.
* ``tree_dp`` -- dynamic programming over a rooted spanning tree, for
  connected graphs with at most one cycle (m <= n), polynomial in n and
  capped at n <= ``TREE_DP_CAP``.

``solve`` with method "auto" takes brute force for n <= 12, the tree DP
for the other graphs it fits, and branch and bound for the rest. All
routes return the same optimum whenever they run. The all-2 labeling is
valid on every graph (every closed sum is positive and there is no -1
vertex), so every instance is feasible; lowering any single 2 to +1 keeps
validity, hence the optimum is always < 2n for n >= 1.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .graph import Graph
from .labeling import majority_threshold, validate


class SolverError(RuntimeError):
    pass


class CapExceededError(SolverError):
    """Instance too large for exhaustive enumeration."""


@dataclass
class SolveOptions:
    method: str = "auto"  # "auto" or a key of METHODS
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
_COEF = np.array([_LABELS, (0, 0, 1)], dtype=np.int8)[:, None, None, :]
# order of the low block, whose 3^_LOW rows are built once per call
_LOW = 9
# bit j of low vertex j, as a column
_BITS = np.left_shift(1, np.arange(_LOW, dtype=np.int16))[:, None]


@functools.lru_cache(maxsize=_LOW)
def _block(k: int):
    """Constant tables of the 3^k labelings of k vertices.

    Read-only and cached per block size: the int16 bitmask of the -1
    vertices in code order; the codes sorted by weight, ties in code
    order, with their int8 weights; and ``lighter``, where
    ``lighter[t + k]`` counts the codes lighter than t for t = -k..2k + 1.
    """
    coef = np.zeros((2, k, 3), dtype=np.int16)
    coef[0] = _LABELS
    coef[1, :, 0] = _BITS[:k, 0]
    weights, minus = _low_rows(coef)
    order = np.argsort(weights, kind="stable")
    sorted_w = weights[order].astype(np.int8)
    tables = (minus, order, sorted_w)
    for t in tables:
        t.flags.writeable = False
    lighter = np.searchsorted(sorted_w, np.arange(-k, 2 * k + 2)).tolist()
    return tables + (lighter,)


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


def _decode(code: int, k: int) -> Tuple[int, ...]:
    """The labels of the k low vertices at a code, most significant first."""
    out = []
    for _ in range(k):
        code, d = divmod(code, 3)
        out.append(_LABELS[d])
    return tuple(reversed(out))


def _group_tables(sums: np.ndarray, members, size: int, order: np.ndarray):
    """Satisfied counts of one group of N[high] for each value of its high sum.

    ``members`` are rows of ``sums``, each the low closed sums of one
    vertex in code order. A member is satisfied when its low sum reaches
    1 minus the sum s of the group's ``size`` high closed neighbours.
    Entry s + size is (int8 row or None, constant): the count is the row,
    its columns taken in ``order``, plus the constant. A sum that decides
    every member whatever the low labels needs no row.
    """
    block = sums[members]
    lo = block.min(axis=1).tolist()
    hi = block.max(axis=1).tolist()
    # size labels from (-1, 1, 2), p of them 1 and q of them 2
    reached = {
        2 * p + 3 * q - size for p in range(size + 1) for q in range(size + 1 - p)
    }
    cuts = [1 - s if s in reached else None for s in range(-size, 2 * size + 1)]
    varies = [c is not None and any(a < c <= b for a, b in zip(lo, hi)) for c in cuts]
    # reorder whichever is fewer: the member rows, or the count rows
    if sum(varies) > len(members):
        block, order = block.take(order, axis=1), None
    tables = []
    for cut, vary in zip(cuts, varies):
        if not vary:
            tables.append((None, 0 if cut is None else sum(a >= cut for a in lo)))
            continue
        row = np.add.reduce((block >= cut).view(np.int8), axis=0, dtype=np.int8)
        tables.append((row if order is None else row[order], 0))
    return tables


def brute_force(g: Graph, options: Optional[SolveOptions] = None) -> OptResult:
    """Exhaustive minimum over all 3^n labelings.

    The witness is the first optimum in mixed-radix code order, which is
    the lexicographically smallest over vertices 0..n-1 with value order
    (-1, +1, 2).

    The last ``min(n, 9)`` vertices form the low block. Its 3^9 rows are
    built once per call from int8 closed sums and 2-neighbour counts, and
    kept sorted by weight, ties in code order: the satisfied count of the
    vertices outside N[high], a guard bitmask, and the low closed sums of
    N[high]. The vertices of N[high] are grouped by their set H of high
    closed neighbours, and each group gets one satisfied-count row per
    value of the high sum over H.

    The labelings x of the high prefix (the first ``n - 9`` vertices) are
    then swept in code order by an odometer. A group joins the satisfied
    count at the level of its last high vertex, and one partial count is
    kept per level, so a change in digit j redoes only levels j and up,
    each a few int8 row additions. A block tests only the low rows
    lighter than the incumbent minus sum(x), a prefix of the sorted rows,
    and is skipped when there is none. The Roman guard is one bitmask
    test per row: a low -1 vertex with no low 2 needs a high 2
    neighbour, and a high -1 vertex with no high 2 needs a low 2
    neighbour. The first valid row of the prefix is the block's first
    lightest valid one; a later block wins only when strictly lighter.
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
    low = n - h
    high = range(h)
    minus, order, sorted_w, lighter = _block(low)

    # closed-sum rows of N[high] first (they change with the high labels),
    # then the rest; after them one row of low 2-neighbours per vertex
    touched = sorted(set(high).union(*g.adj[:h]))
    rows_of = touched + [v for v in range(n) if v not in touched]
    adj = np.zeros(2 * n * n, dtype=np.int8)
    adj[
        [i * n + u for i, v in enumerate(rows_of) for u in (v, *g.adj[v])]
        + [(n + v) * n + u for v in range(n) for u in g.adj[v]]
    ] = 1
    coef = adj.reshape(2, n, n)[:, :, h:, None] * _COEF
    rows = _low_rows(coef.reshape(2 * n, low, 3))
    k = len(touched)
    base = np.add.reduce((rows[k:n] >= 1).view(np.int8), axis=0, dtype=np.int8)
    # guard bits, one per vertex: a low vertex that is -1 with no low
    # 2-neighbour, a high vertex with no low 2-neighbour
    twos = rows[n:]
    bits = np.int16 if n < 16 else np.int64
    no_two = np.add.reduce((twos[h:] == 0) * _BITS[:low], axis=0, dtype=np.int16)
    guard = (no_two & minus).astype(bits) << h
    for u in high:
        guard |= (twos[u] == 0).astype(bits) << u
    # the sweep tests prefixes of the rows sorted by weight
    base, guard = base[order], guard[order]

    # levels[j]: the tables of the groups whose last high vertex is j
    groups = {}
    for i, v in enumerate(touched):
        key = tuple(u for u in high if u == v or u in g.adj[v])
        groups.setdefault(key, []).append(i)
    levels = [[] for _ in high]
    for key, members in groups.items():
        tables = _group_tables(rows, members, len(key), order)
        levels[key[-1]].append((key, len(key), tables))
    del rows, twos
    # a row fails the guard when it shares a bit with the mask, which
    # starts full and loses, per high vertex labelled +1 or 2, the bits
    # it settles: its own, and for a 2 those of its neighbours
    full = (1 << n) - 1
    nbrs = [sum(1 << w for w in g.adj[u]) for u in high]
    clears = [(0, 1 << u, (1 << u) | nbrs[u]) for u in high]

    # partial[j]: the satisfied count of the vertices outside N[high] and
    # of the groups of levels < j, held as an int8 row plus a constant,
    # with the mask bits that high vertices < j clear
    partial = [(base, 0, 0)] + [None] * h
    bufs = [np.empty_like(base) for _ in high]
    stale = 0  # the lowest level whose partial count is out of date
    digits = [0] * h
    x = [-1] * h
    sx = -h
    best_w: Optional[int] = None
    best = None
    while True:
        if best_w is None:
            m = len(order)
        else:
            m = lighter[min(max(best_w - sx + low, 0), 3 * low + 1)]
        if m:
            # the last level is added on the prefix alone
            for j in range(stale, h):
                row, const, clear = partial[j]
                if j == h - 1:
                    row = row[:m]
                buf = None
                for key, size, tables in levels[j]:
                    add, c = tables[sum(map(x.__getitem__, key)) + size]
                    const += c
                    if add is None:
                        continue
                    if j == h - 1:
                        add = add[:m]
                    if buf is None:
                        buf = bufs[j][: len(row)]
                        np.add(row, add, out=buf)
                    else:
                        buf += add
                clear |= clears[j][digits[j]]
                partial[j + 1] = (row if buf is None else buf, const, clear)
            stale = max(h - 1, 0)
            row, const, clear = partial[h]
            ok = row[:m] >= thr - const
            # rows sharing a bit with the guard mask fail; the mask is
            # full until a high vertex settles a bit
            if clear:
                ok &= (guard[:m] & (full & ~clear)) == 0
            else:
                ok &= guard[:m] == 0
            # the first valid row is the block's first lightest valid one,
            # and lighter than the incumbent
            i = int(ok.argmax())
            if ok[i]:
                best_w = int(sorted_w[i]) + sx
                best = tuple(x) + _decode(int(order[i]), low)
        # next high labeling in code order: the last digit turns fastest
        j = h - 1
        while j >= 0 and digits[j] == 2:
            digits[j] = 0
            x[j] = -1
            sx -= 3
            j -= 1
        if j < 0:
            break
        digits[j] += 1
        sx += _LABELS[digits[j]] - x[j]
        x[j] = _LABELS[digits[j]]
        stale = min(stale, j)
    # the all-2 labeling is valid on every graph, so best is set
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
        is fully assigned and that is not in ``cover``, the bitmask of the
        vertices with an assigned 2-neighbour;
    (c) majority death: each vertex v holds a potential, its closed sum
        plus 2 per unassigned closed neighbour, the most f(N[v]) can still
        reach. It only falls along a branch, so v is dead once it is below
        1; prune once more than n - threshold vertices are dead;
    (d) guard capacity: of the k unassigned vertices U, P are in
        ``cover``. A completion labelling a vertices of U with 2 and c
        with -1 weighs k + a - 2c on U, and each of those -1s needs a
        2-neighbour, so c <= min(k - a, P + D(a)) where
        D(a) is the sum of the a largest degrees in U. U therefore weighs
        at least the minimum over a of max(3a - k, k + a - 2P - 2D(a)),
        and the subtree is cut when that cannot beat the incumbent.
        The bound is never below -k, so (d) implies (a) and the search
        tests (d) alone. D(a) is read as the degrees of the next a
        vertices of ``order``, so ``order`` must be by descending degree;
        the constructor raises ``SolverError`` otherwise.

    Rules (b) and (c) are tested before a child is applied: one
    read-only pass over N[u] counts the closed neighbours each of the -1
    and +1 children would kill and finds the guards they would break, so a
    dead child is counted as a node but never applied. The 2 child breaks
    no guard, kills no vertex and shifts nothing: its step x - 2 is 0, so
    it recurses with the potentials as they are. Rule (d) is tested on
    entry to a node.

    The labelling is passed down ``dfs`` as three bitmasks that only grow
    along a branch, so nothing in them is undone: ``minus`` and ``twos``
    (the vertices assigned -1 and 2; the rest of ``order[:depth]`` are +1)
    and ``cover`` (the vertices with an assigned 2-neighbour). The
    potentials and ``dead_count`` are the only state a -1 or +1 child
    shifts and undoes.

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
        self.open_mask = [sum(1 << w for w in g.adj[v]) for v in range(n)]
        # unassigned[d] = bitmask of order[d:]
        self.unassigned = [0] * (n + 1)
        for d in range(n - 1, -1, -1):
            self.unassigned[d] = self.unassigned[d + 1] | 1 << order[d]
        # rule (c): closed sum + 2 * unassigned closed neighbours
        self.potential = [2 * len(g.adj[v]) + 2 for v in range(n)]
        # rule (d) reads D(a) as the degrees of the next a vertices of order
        degrees = [len(g.adj[v]) for v in order]
        if any(a < b for a, b in zip(degrees, degrees[1:])):
            raise SolverError("rule (d) needs a branching order by descending degree")
        # slack[i] = i - 2 * (sum of the degrees of order[:i])
        self.slack = [0] * (n + 1)
        for i, d in enumerate(degrees):
            self.slack[i + 1] = self.slack[i] + 1 - 2 * d
        # vertices whose potential is below 1
        self.dead_count = 0
        self.nodes = 0
        self.truncated = False

    def shift(self, u: int, step: int, deaths: int) -> None:
        """Add ``step`` to the potentials of N[u] and ``deaths`` to
        ``dead_count``; labelling u with x shifts by x - 2, and back."""
        potential = self.potential
        for v in self.closed_nbrs[u]:
            potential[v] += step
        self.dead_count += deaths

    def capacity_bound_reaches(self, depth: int, need: int, cover: int) -> bool:
        """Whether rule (d) bounds the weight of the unassigned vertices by
        at least ``need``.

        With i = depth + a, f1 = 3a - k rises by 3 per step and
        f2 = k + a - 2P - 2D(a) falls while degrees are positive, then
        rises by 1 per isolated vertex. The bound is f1 at the first a
        with f1 >= f2, or a smaller f2 before it; the walk stops at the
        first value below ``need``. P is the number of unassigned
        vertices in ``cover``.
        """
        k = self.n - depth
        slack = self.slack
        covered = (cover & self.unassigned[depth]).bit_count()
        # f2 = base + slack[i]
        base = k - 2 * covered - slack[depth]
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

    def dfs(self, depth: int, cur_w: int, cover: int, minus: int, twos: int) -> None:
        n = self.n
        if depth == n:
            # every leaf reached here satisfies both conditions: guard and
            # majority deaths were pruned on the way down
            if cur_w < self.weight:
                self.weight = cur_w
                self.witness = tuple(
                    -1 if minus >> v & 1 else 2 if twos >> v & 1 else 1
                    for v in range(n)
                )
            return
        if self.capacity_bound_reaches(depth, self.weight - cur_w, cover):
            return
        u = self.order[depth]
        bit = 1 << u
        unassigned = self.unassigned[depth]
        open_mask = self.open_mask
        potential = self.potential
        # one read-only pass over N[u] decides rules (b) and (c) for the
        # -1 and +1 children; the 2 child always lives
        # (b): u labelled -1 needs a neighbour that is unassigned or a 2
        minus_lives = open_mask[u] & unassigned or cover >> u & 1
        plus_lives = True
        # (b): the -1 neighbours of u that have no 2-neighbour
        unguarded = minus & ~cover & open_mask[u]
        minus_deaths = plus_deaths = 0
        for v in self.closed_nbrs[u]:
            # (b): an unguarded neighbour whose last unassigned neighbour is
            # u dies unless u takes 2
            if unguarded and unguarded >> v & 1 and open_mask[v] & unassigned == bit:
                minus_lives = plus_lives = False
                break
            # (c): a closed neighbour's potential drops by 3 under -1 and by
            # 1 under +1; count the live ones it takes below 1
            if 1 <= potential[v] < 4:
                minus_deaths += 1
                if potential[v] < 2:
                    plus_deaths += 1
        room = self.allowed_unsat - self.dead_count
        children = (
            (-1, minus_deaths, minus_lives, cover, minus | bit, twos),
            (1, plus_deaths, plus_lives, cover, minus, twos),
            (2, 0, True, cover | open_mask[u], minus, twos | bit),
        )
        for x, deaths, lives, child_cover, child_minus, child_twos in children:
            # also ends this loop once a child's subtree used up the limit
            if self.nodes >= self.node_limit:
                self.truncated = True
                return
            self.nodes += 1
            if x == 2:
                # a step of 0 that kills nothing: the state already holds
                self.dfs(depth + 1, cur_w + 2, child_cover, child_minus, child_twos)
            elif lives and deaths <= room:
                self.shift(u, x - 2, deaths)
                self.dfs(depth + 1, cur_w + x, child_cover, child_minus, child_twos)
                self.shift(u, 2 - x, -deaths)


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
    # dfs recurses once per vertex, past the default limit of 1000 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, n + 1000))
    try:
        search.dfs(0, 0, 0, 0, 0)
    finally:
        sys.setrecursionlimit(limit)
    return OptResult(
        optimum=search.weight,
        witness=search.witness,
        nodes_explored=search.nodes,
        method="branch_and_bound",
        elapsed=time.perf_counter() - t0,
        proven=not search.truncated,
    )


# the largest order tree_dp takes; see tree_dp for the measured peaks
TREE_DP_CAP = 500

_INF = np.float32(np.inf)
# the parent label of the root: it adds nothing and guards nothing
_NO_PARENT = (0,)
_X = np.array(_LABELS)


class _Cases(NamedTuple):
    """The runs of one DP pass, side by side on a leading case axis.

    A tree has one case. A unicyclic graph drops one cycle edge (a, b)
    and has nine, one per (f(a), f(b)). For a and b, ``allow[v]`` masks
    v's labels per case, ``plus[v]`` is the other endpoint's label, which
    joins f(N[v]), and ``guarded[v]`` whether that label is 2. Only the
    tables of a, b and their ancestors grow the case axis; the others
    have one case, which broadcasts.
    """

    allow: dict
    plus: dict
    guarded: dict

    def pick(self, k: int) -> "_Cases":
        """Case k alone."""
        fields = (self.allow, self.plus, self.guarded)
        return _Cases(*({v: m[k : k + 1] for v, m in d.items()} for d in fields))


def _clip_counts(out: np.ndarray, thr: int) -> np.ndarray:
    """``out`` with the counts past thr folded into thr."""
    if out.shape[-1] <= thr + 1:
        return out
    view = out[..., thr]
    np.minimum(view, out[..., thr + 1 :].min(axis=-1), out=view)
    return out[..., : thr + 1]


def _min_plus(f: np.ndarray, w: np.ndarray, thr: int) -> np.ndarray:
    """The counts of two disjoint parts add, clipped at thr:
    out[..., min(p + q, thr)] is the least f[..., p] + w[..., q], over
    the broadcast leading axes. The loop runs over the shorter count axis."""
    l1, l2 = f.shape[-1], w.shape[-1]
    shape = np.broadcast_shapes(f.shape[:-1], w.shape[:-1]) + (l1 + l2 - 1,)
    out = np.full(shape, _INF, np.float32)
    if l2 <= l1:
        for q in range(l2):
            view = out[..., q : q + l1]
            np.minimum(view, f + w[..., q, None], out=view)
    else:
        for p in range(l1):
            view = out[..., p : p + l2]
            np.minimum(view, f[..., p, None] + w, out=view)
    return _clip_counts(out, thr)


def _span(i: int, k: int, c_lo: int, c_hi: int) -> Tuple[int, int]:
    """The children's label sums S kept after i of k children are folded.

    Labelled x with e added by a dropped edge, the vertex ends satisfied
    under a parent labelled b when S >= c - b, where c = 1 - x - e; with
    b in (-1, 0, 1, 2), S >= c + 1 satisfies it whatever b is and
    S <= c - 3 never does. With r children left S can still fall by r and
    rise by 2r, so S is clamped to [c - 3 - 2r, c + 1 + r]: a sum above
    can no longer fall below c + 1, one below can no longer reach c - 2.
    Clamping commutes with adding a label, so the kept sums are the
    clamped ends of [-i, 2i]. A fold for several values of c takes the
    widest bounds, [c_lo - 3 - 2r, c_hi + 1 + r].
    """
    lo, hi = c_lo - 3 - 2 * (k - i), c_hi + 1 + (k - i)
    return min(max(-i, lo), hi), max(min(2 * i, hi), lo)


class _TreeDP:
    """The tables of ``tree_dp`` over a BFS spanning tree rooted at 0.

    ``extra`` is the edge the spanning tree leaves out, None on a tree.
    ``cells`` counts the fold states built, the route's nodes_explored.
    """

    def __init__(self, g: Graph, thr: int):
        n = g.n
        self.thr = thr
        self.parent = [-1] * n
        self.children = [[] for _ in range(n)]
        self.extra = None
        order = [0]
        seen = [False] * n
        seen[0] = True
        for u in order:
            for w in sorted(g.adj[u]):
                if not seen[w]:
                    seen[w] = True
                    self.parent[w] = u
                    self.children[u].append(w)
                    order.append(w)
                elif w != self.parent[u]:
                    self.extra = (min(u, w), max(u, w))
        self.up = order[::-1]
        if self.extra is not None:
            # the tables of a, b and their ancestors carry the nine cases:
            # fold them last, so that a fold grows the case axis only at
            # its last one or two children
            cased = set()
            for v in self.extra:
                while v >= 0 and v not in cased:
                    cased.add(v)
                    v = self.parent[v]
            for kids in self.children:
                kids.sort(key=cased.__contains__)
        self.cells = 0
        # _finish's gather indices by the shape of the fold and the case
        self._index = {}

    def cases(self) -> _Cases:
        """One case on a tree; on a unicyclic graph one per (f(a), f(b))
        of the dropped edge (a, b), f(a) the slower."""
        if self.extra is None:
            return _Cases({}, {}, {})
        a, b = self.extra
        fa, fb = np.repeat(_X, 3), np.tile(_X, 3)
        return _Cases(
            {a: fa[:, None] == _X, b: fb[:, None] == _X},
            {a: fb, b: fa},
            {a: fb == 2, b: fa == 2},
        )

    def _start(self, xs: int, tracked: bool) -> np.ndarray:
        """The fold state before any child: S = 0, no flag, count 0, for
        ``xs`` labels of v."""
        f = np.full((1, xs, 1, 1 + tracked, 1), _INF, np.float32)
        f[:, :, 0, 0, 0] = 0
        return f

    def _fold(self, f, i, k, span, tab) -> np.ndarray:
        """Fold child i into the state f[case, f(v), S, some child is 2,
        count]; ``tab`` is the child's table, its parent axis cut to the
        labels of f."""
        lo = _span(i, k, *span)[0]
        new_lo, new_hi = _span(i + 1, k, *span)
        rows = f.shape[2]
        # h[case, child label, f(v), S, flag, count], S before the child
        h = _min_plus(f[:, None], tab[:, :, :, None, None, :], self.thr)
        if f.shape[3] == 2:
            # a 2-child sets the flag
            h[:, 2, :, :, 1] = h[:, 2].min(axis=3)
            h[:, 2, :, :, 0] = _INF
        # the sums S + y from lo - 1 to lo + rows + 1, then clamped: the
        # rows past either end of [new_lo, new_hi] fold into it
        raw = np.full(
            (len(h), f.shape[1], rows + 3) + h.shape[4:], _INF, np.float32
        )
        for iy, y in enumerate(_LABELS):
            view = raw[:, :, 1 + y : 1 + y + rows]
            np.minimum(view, h[:, iy], out=view)
        a, b = new_lo - lo + 1, new_hi - lo + 1
        out = raw[:, :, a : b + 1]
        if a:
            view = out[:, :, 0]
            np.minimum(view, raw[:, :, :a].min(axis=2), out=view)
        if b < rows + 2:
            view = out[:, :, -1]
            np.minimum(view, raw[:, :, b + 1 :].min(axis=2), out=view)
        self.cells += out.size
        return out

    def _finish(self, f, k, span, xs, e, guarded, parents) -> np.ndarray:
        """table[case, f(v), f(parent), count] from the full fold: f(v)
        joins the weight, and v the count when its closed sum reaches 1.
        A -1 vertex needs a 2-child unless its parent or the dropped edge
        guards it."""
        lo = _span(k, k, *span)[0]
        cases = max(len(f), len(e))
        # per source (any flag, flag set), the least state over the sums
        # below a split and over those from it on
        src = np.full(
            (2,) + f.shape[:2] + (f.shape[2] + 2, f.shape[4]), _INF, np.float32
        )
        src[0, :, :, 1:-1] = f.min(axis=3)
        src[1, :, :, 1:-1] = f[:, :, :, -1]
        below = np.minimum.accumulate(src[:, :, :, :-1], axis=3)
        above = np.minimum.accumulate(src[:, :, :, :0:-1], axis=3)[:, :, :, ::-1]
        key = (lo, f.shape[2], len(f), len(parents), e.tobytes(), guarded.tobytes())
        index = self._index.get(key)
        if index is None:
            b = np.array(parents)
            c = 1 - xs[None, :, None] - e[:, None, None]
            split = np.clip(c - b - lo, 0, f.shape[2])
            need_two = (xs == -1)[None, :, None] & ~guarded[:, None, None] & (b != 2)
            case = np.arange(cases)[:, None, None] if len(f) == cases else 0
            index = (need_two.astype(np.intp), case, np.arange(len(xs))[:, None], split)
            self._index[key] = index
        out = np.full(
            (cases, len(xs), len(parents), f.shape[-1] + 1), _INF, np.float32
        )
        out[..., :-1] = below[index]
        view = out[..., 1:]
        np.minimum(view, above[index], out=view)
        return _clip_counts(out, self.thr) + xs[:, None, None]

    def _local(self, v: int, cases: _Cases):
        """What the dropped edge gives v per case: its addition to f(N[v])
        and whether it guards v."""
        return (
            cases.plus.get(v, np.zeros(1, np.intp)),
            cases.guarded.get(v, np.zeros(1, bool)),
        )

    def tables(self, cases: _Cases) -> dict:
        """table[case, f(v), f(parent), count] of every vertex, children
        first: the least weight of v's subtree with ``count`` vertices of
        closed sum at least 1 in it, the count clipped at thr."""
        tables = {}
        # the table of every leaf that is neither root nor on the dropped edge
        leaf = None
        for v in self.up:
            kids = self.children[v]
            plain = not kids and v != 0 and v not in cases.plus
            if plain and leaf is not None:
                tables[v] = leaf
                continue
            e, guarded = self._local(v, cases)
            span = (-1 - int(e.max()), 2 - int(e.min()))
            f = self._start(3, True)
            for i, u in enumerate(kids):
                f = self._fold(f, i, len(kids), span, tables[u])
            parents = _NO_PARENT if v == 0 else _LABELS
            out = self._finish(f, len(kids), span, _X, e, guarded, parents)
            if v in cases.allow:
                out[~cases.allow[v]] = _INF
            tables[v] = out
            if plain:
                leaf = out
        return tables

    def witness(self, cases: _Cases, chosen: int, tables: dict) -> Tuple[int, ...]:
        """A labelling at the optimum of case ``chosen``, rebuilt from the
        root down from ``tables``, which it empties.

        Each vertex's fold runs again for its chosen label alone and is
        walked back one child at a time. Of a fold of k children only every
        isqrt(k)-th state is kept; the states in between are refolded from
        the nearest kept one when the walk gets there.
        """
        thr = self.thr
        cases = cases.pick(chosen)

        def chosen_case(table):
            return table[chosen : chosen + 1] if len(table) > 1 else table

        labels = [0] * len(self.parent)
        root = chosen_case(tables.pop(0))[0, :, 0, thr]
        ix = int(root.argmin())
        stack = [(0, ix, 0, thr, root[ix])]
        while stack:
            v, ix, jb, cnt, value = stack.pop()
            x = _LABELS[ix]
            labels[v] = x
            kids = self.children[v]
            k = len(kids)
            if not k:
                continue
            e, guarded = self._local(v, cases)
            c = 1 - x - int(e[0])
            tracked = x == -1 and not guarded[0]
            b = (_NO_PARENT if v == 0 else _LABELS)[jb]
            tabs = [chosen_case(tables.pop(u))[:, :, ix : ix + 1] for u in kids]
            step = math.isqrt(k)
            marks = {}
            f = self._start(1, tracked)
            for i in range(k):
                if i % step == 0:
                    marks[i] = f
                f = self._fold(f, i, k, (c, c), tabs[i])
            state = self._back_finish(f[0, 0], k, c, tracked, b, cnt, value - x)
            for start in reversed(range(0, k, step)):
                end = min(start + step, k)
                seg = [marks.pop(start)]
                for i in range(start, end - 1):
                    seg.append(self._fold(seg[-1], i, k, (c, c), tabs[i]))
                for i in reversed(range(start, end)):
                    tab = tabs[i][0, :, 0]
                    prev = seg.pop()[0, 0]
                    iy, state, q = self._back_fold(prev, i, k, c, tab, state)
                    stack.append((kids[i], iy, ix, q, tab[iy, q]))
        return tuple(labels)

    def _back_finish(self, f, k, c, tracked, b, cnt, value):
        """A state (sum row, flag, count, value) of the full fold f[S,
        flag, count] that ``_finish`` turns into ``cnt`` under parent
        label b."""
        lo = _span(k, k, c, c)[0]
        # v itself counts on the rows whose sum satisfies it
        own = (np.arange(lo, lo + len(f)) >= c - b)[:, None, None]
        counts = np.minimum(np.arange(f.shape[2]) + own, self.thr)
        hit = (f == value) & (counts == cnt)
        if tracked and b != 2:
            hit[:, 0] = False  # a -1 vertex needs a 2-child
        return (*self._first(hit), value)

    def _back_fold(self, prev, i, k, c, tab, state):
        """The child's label, the state before child i, and the child's
        count that ``_fold`` combined into ``state``."""
        r_new, h_new, cnt, value = state
        thr = self.thr
        lo = _span(i, k, c, c)[0]
        new_lo, new_hi = _span(i + 1, k, c, c)
        target = new_lo + r_new
        p = np.arange(prev.shape[2])
        for iy, (y, w) in enumerate(zip(_LABELS, tab)):
            flags = [h_new]
            if y == 2 and prev.shape[1] == 2:
                if h_new == 0:
                    continue
                flags = [0, 1]
            # the rows whose sum S clamps to the target once y is added
            r0 = 0 if target == new_lo else target - y - lo
            r1 = len(prev) if target == new_hi else target - y - lo + 1
            r0, r1 = max(r0, 0), min(r1, len(prev))
            if r0 >= r1:
                continue
            block = prev[r0:r1, flags]
            # per count p before the child, the child's count q: cnt - p
            # below thr, any q >= thr - p at thr, where the least w is used
            if cnt < thr:
                q = cnt - p
            else:
                q = np.maximum(thr - p, 0)
                w = np.minimum.accumulate(w[::-1])[::-1]
            inside = (q >= 0) & (q < len(w))
            wq = np.where(inside, w[np.clip(q, 0, len(w) - 1)], _INF)
            hit = block + wq == value
            if not hit.any():
                continue
            r, h, p = self._first(hit)
            q = int(q[p])
            if cnt == thr:
                q += int(np.flatnonzero(block[r, h, p] + tab[iy, q:] == value)[0])
            return iy, (r0 + r, flags[h], p, block[r, h, p]), q
        raise SolverError("tree_dp lost its optimum while rebuilding the witness")

    @staticmethod
    def _first(hit: np.ndarray):
        """The first True index of ``hit`` in C order."""
        i = int(hit.argmax())
        if not hit.flat[i]:
            raise SolverError("tree_dp lost its optimum while rebuilding the witness")
        return tuple(int(j) for j in np.unravel_index(i, hit.shape))


def _tree_dp_fits(g: Graph) -> bool:
    """Whether ``tree_dp`` takes g's shape: connected, with m <= n, so a
    tree or a graph with exactly one cycle."""
    return g.num_edges() <= g.n and g.is_connected()


def tree_dp(g: Graph, options: Optional[SolveOptions] = None) -> OptResult:
    """Exact optimum on a connected graph with at most one cycle.

    The DP roots a BFS spanning tree at vertex 0. For each vertex v it
    builds ``table[f(v), f(parent), count]``, the least weight of v's
    subtree in which ``count`` vertices have a closed sum of at least 1,
    the count clipped at thr (float32, exact for these integers). The
    children are folded in one at a time, for the three labels of v at
    once, into a state (S, some child is 2, count), where S is the sum of
    the children's labels so far. S is clamped so that its range leaves
    room for the children still to come: with r left, to
    [c - 3 - 2r, c + 1 + r] where c = 1 - f(v), so at most 3r + 5 sums
    are kept (``_span``). The flag matters only when v is -1 and nothing
    else guards it. The optimum is the root's least weight at count thr.

    A unicyclic graph drops one cycle edge (a, b) from the spanning tree
    and runs the nine cases of (f(a), f(b)) side by side on a case axis
    of the tables of a, b and their ancestors; in each case an endpoint's
    label counts in the other's closed sum and guards it when it is 2.
    Those vertices fold their case-carrying children last, so a vertex of
    high degree folds its other children on one case. Every table is kept
    (at most nine cases of 9 (thr + 1) floats per vertex), the first least
    case wins, and the witness is rebuilt from the root down for that case
    alone (``_TreeDP.witness``).

    ``nodes_explored`` counts the fold states built, witness rebuild
    included; it depends only on the graph and the threshold mode.
    ``node_limit`` bounds branch and bound only and is ignored here; the
    result is always proven.

    A vertex of degree d costs about d^2 times its subtree's count range,
    so a star is the worst shape, and time, not memory, sets the cap. At
    ``TREE_DP_CAP`` = 500 on a 2-CPU Intel Xeon (CPython 3.11, numpy 2.4)
    star(500) takes 5.3 s, cycle(500) 0.61 s, path(500) 0.16 s and
    random_tree(500, 1) 0.12 s; tracemalloc peaks at 29 MB, 42 MB,
    6.8 MB and 1.2 MB, far below 256 MB. Above the cap it raises
    ``CapExceededError``; a closed-form fold of a vertex's leaf children
    would lift the star's cost and the cap.
    """
    opts = options or SolveOptions()
    n = g.n
    if not _tree_dp_fits(g):
        raise SolverError(
            f"tree_dp needs a connected graph with m <= n; this one has "
            f"n={n}, m={g.num_edges()}"
            + ("" if g.is_connected() else " and is not connected")
        )
    if n > TREE_DP_CAP:
        raise CapExceededError(
            f"n={n} exceeds tree-DP cap {TREE_DP_CAP}; use branch_and_bound"
        )
    t0 = time.perf_counter()
    if n == 0:
        return OptResult(0, (), 0, "tree_dp", time.perf_counter() - t0)
    thr = majority_threshold(n, opts.threshold_mode)
    dp = _TreeDP(g, thr)
    cases = dp.cases()
    tables = dp.tables(cases)
    # the least weight at count thr per case; the first least case wins
    values = tables[0][:, :, 0, thr].min(axis=1)
    k = int(values.argmin())
    optimum = int(values[k])
    witness = dp.witness(cases, k, tables)
    return OptResult(
        optimum=optimum,
        witness=witness,
        nodes_explored=dp.cells,
        method="tree_dp",
        elapsed=time.perf_counter() - t0,
    )


class Method(NamedTuple):
    """One route of ``solve``: whether it takes a graph under the
    options, its solve function, and whether it reads ``node_limit``."""

    fits: Callable[[Graph, SolveOptions], bool]
    run: Callable[[Graph, SolveOptions], OptResult]
    node_limit: bool


# every method of ``solve`` by its --method name. ``run`` looks the solve
# function up when called, so a wrapper installed on this module sees it.
METHODS = {
    "brute": Method(
        lambda g, opts: g.n <= opts.brute_cap,
        lambda g, opts: brute_force(g, opts),
        False,
    ),
    "bb": Method(
        lambda g, opts: True,
        lambda g, opts: branch_and_bound(g, opts),
        True,
    ),
    "dp": Method(
        lambda g, opts: g.n <= TREE_DP_CAP and _tree_dp_fits(g),
        lambda g, opts: tree_dp(g, opts),
        False,
    ),
}


def choose_method(g: Graph, opts: SolveOptions) -> str:
    """The key of ``METHODS`` that ``solve`` runs. "auto" picks brute
    force when n is at most 12 and within ``brute_cap``, then the tree DP
    on a connected graph with m <= n within its cap, and branch and bound
    otherwise."""
    if opts.method == "auto":
        if g.n <= 12 and METHODS["brute"].fits(g, opts):
            return "brute"
        return "dp" if METHODS["dp"].fits(g, opts) else "bb"
    if opts.method in METHODS:
        return opts.method
    raise SolverError(f"unknown method {opts.method!r}")


def solve(g: Graph, options: Optional[SolveOptions] = None) -> OptResult:
    """Run the method ``choose_method`` picks."""
    opts = options or SolveOptions()
    return METHODS[choose_method(g, opts)].run(g, opts)


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
    edgeless graph the bound is simply false (all-(+1) has weight n < 2n),
    so it raises SolverError there.
    """
    if not g.num_edges():
        raise SolverError("delta lower bound requires at least one edge")
    d = g.max_degree()
    return Fraction(g.n * (2 - d), d + 1)
