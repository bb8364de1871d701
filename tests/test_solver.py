"""Exact solver: brute force, branch and bound, seeding, and the degree
lower bound."""

import copy
import gc
import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from majroman.graph import (
    Graph,
    complement,
    complete,
    corona,
    cycle,
    gnp,
    path,
    random_tree,
    star,
    wheel,
)
from majroman import solver
from majroman.labeling import validate, weight
from majroman.solver import (
    CapExceededError,
    SolveOptions,
    SolverError,
    branch_and_bound,
    brute_force,
    delta_lower_bound,
    majority_lower_bound,
    solve,
    tree_dp,
)
from majroman.certificates import CERTIFICATES, cert_star, cert_wheel_fan


def enumerate_optimum(g, threshold_mode="ceil"):
    """Tiny-graph oracle: scan itertools.product in code order."""
    best = None
    best_labels = None
    for labels in itertools.product((-1, 1, 2), repeat=g.n):
        if validate(g, labels, threshold_mode).is_valid:
            w = weight(labels)
            if best is None or w < best:
                best = w
                best_labels = labels
    return best, best_labels


FROZEN_VALUES = [
    (path(2), 1),
    (path(3), 0),
    (path(4), 1),
    (path(5), 1),
    (path(6), 2),
    (path(7), 1),
    (cycle(3), 2),
    (cycle(4), 1),
    (cycle(5), 2),
    (cycle(6), 2),
    (cycle(7), 3),
    (complete(4), 1),
    (Graph(1, []), 1),
    (wheel(12), -5),
]


class TestBruteForce:
    @pytest.mark.parametrize("g,value", FROZEN_VALUES)
    def test_frozen_values(self, g, value):
        assert brute_force(g).optimum == value

    def test_k3(self):
        assert brute_force(complete(3)).optimum == 2

    def test_corona_k3_k3(self):
        assert brute_force(corona(complete(3), complete(3))).optimum == -1

    def test_empty_graph(self):
        res = brute_force(Graph(0, []))
        assert res.optimum == 0 and res.witness == ()

    def test_witness_is_valid_and_optimal(self):
        g = wheel(6)
        res = brute_force(g)
        report = validate(g, res.witness)
        assert report.is_valid and report.weight == res.optimum == -1

    def test_witness_lex_minimal(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 6)
            g = gnp(n, 0.5, rng.randrange(2**32))
            value, labels = enumerate_optimum(g)
            res = brute_force(g)
            assert res.optimum == value
            assert res.witness == labels

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force(star(18))
        # the cap is configurable in both directions
        with pytest.raises(CapExceededError):
            brute_force(path(10), SolveOptions(brute_cap=9))
        lowered = brute_force(path(10), SolveOptions(brute_cap=10))
        assert lowered.optimum == brute_force(path(10)).optimum

    def test_floor_mode_never_exceeds_ceil(self):
        rng = random.Random(4)
        for _ in range(15):
            g = gnp(rng.randint(2, 8), 0.5, rng.randrange(2**32))
            ceil_opt = brute_force(g).optimum
            floor_opt = brute_force(
                g, SolveOptions(threshold_mode="floor")
            ).optimum
            assert floor_opt <= ceil_opt


def disjoint_union(a, b):
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, list(a.edges()) + shifted)


def small_graphs():
    """n = 0..8: edgeless, complete, disconnected and random graphs."""
    out = [(f"E{n}", Graph(n, [])) for n in range(9)]
    out += [(f"K{n}", complete(n)) for n in range(1, 9)]
    out += [
        ("P3+K2", disjoint_union(path(3), complete(2))),
        ("Star4+K1", disjoint_union(star(4), Graph(1, []))),
        ("C4+P4", disjoint_union(cycle(4), path(4))),
        ("K3+E2+P2", disjoint_union(complete(3), disjoint_union(Graph(2, []), path(2)))),
    ]
    rng = random.Random(2024)
    for n in range(1, 9):
        for p in (0.3, 0.6):
            out.append((f"G{n}_{p}", gnp(n, p, rng.randrange(2**32))))
        out.append((f"T{n}", random_tree(n, rng.randrange(2**32))))
    return [pytest.param(g, id=name) for name, g in out]


# optima and witnesses of earlier enumerations, on orders n = 10..16: the
# 9-vertex low block under a swept high prefix of 1..7 vertices, in both
# modes (the first six from the chunked enumeration with an 11-vertex low
# block, the rest from the row-comparing sweep)
FROZEN_WITNESSES = [
    (random_tree(12, 12), "ceil", 1, (-1, -1, -1, 1, -1, 2, 1, 2, -1, -1, 2, -1)),
    (random_tree(13, 13), "floor", 0, (-1, -1, -1, -1, 2, -1, -1, 1, -1, 1, 2, -1, 2)),
    (random_tree(14, 14), "ceil", 1, (-1, 2, -1, -1, -1, -1, -1, -1, 2, -1, 2, 2, 2, -1)),
    (gnp(13, 0.3, 13), "ceil", -1, (-1, -1, -1, -1, -1, 2, 2, -1, -1, 2, 2, -1, -1)),
    (gnp(14, 0.3, 14), "floor", -4, (-1, 2, -1, -1, -1, -1, 2, -1, -1, -1, 1, -1, 1, -1)),
    (wheel(13), "ceil", -4, (2, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1, 1)),
    (random_tree(10, 30), "ceil", 1, (-1, -1, -1, -1, 2, -1, 1, -1, 2, 2)),
    (gnp(10, 0.3, 11), "floor", -2, (-1, -1, -1, 2, -1, -1, 1, 2, -1, -1)),
    (gnp(10, 0.8, 12), "ceil", 0, (-1, -1, -1, -1, -1, 1, 1, 2, -1, 2)),
    (wheel(10), "floor", -3, (2, -1, -1, -1, -1, -1, -1, 1, -1, 1)),
    (random_tree(11, 33), "floor", 2, (-1, -1, 2, 2, -1, -1, 1, 1, -1, 2, -1)),
    (gnp(11, 0.3, 12), "ceil", 0, (-1, -1, 1, -1, 2, 1, -1, 1, -1, -1, 1)),
    (gnp(11, 0.8, 13), "floor", 0, (-1, -1, -1, -1, -1, -1, -1, 1, 2, 2, 2)),
    (wheel(11), "ceil", -4, (2, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1)),
    (random_tree(12, 36), "ceil", 1, (2, -1, -1, 2, -1, -1, 1, -1, -1, 2, 1, -1)),
    (gnp(12, 0.3, 13), "floor", -2, (-1, 1, -1, -1, -1, -1, -1, -1, 2, 2, 1, -1)),
    (gnp(12, 0.8, 14), "ceil", 0, (-1, -1, -1, -1, -1, -1, -1, -1, 2, 2, 2, 2)),
    (wheel(12), "floor", -5, (2, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1)),
    (random_tree(13, 39), "floor", 0, (2, -1, -1, 2, 2, -1, -1, -1, -1, -1, -1, 1, 1)),
    (gnp(13, 0.3, 14), "ceil", -2, (-1, -1, -1, -1, 2, 2, -1, -1, -1, 2, 1, -1, -1)),
    (gnp(13, 0.8, 15), "floor", -1, (-1, -1, -1, -1, -1, -1, -1, 1, 1, 2, -1, 2, 1)),
    (wheel(13), "floor", -6, (2, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1)),
    (random_tree(14, 42), "ceil", 1, (-1, 2, -1, -1, 2, 1, -1, 1, -1, 1, -1, 2, -1, -1)),
    (gnp(14, 0.3, 15), "floor", -2, (-1, -1, -1, 2, 2, -1, -1, -1, -1, -1, 2, 2, -1, -1)),
    (gnp(14, 0.8, 16), "ceil", -1, (1, -1, -1, 1, -1, 2, -1, -1, -1, 2, -1, -1, -1, 2)),
    (wheel(14), "floor", -5, (2, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1, 1)),
    (random_tree(15, 45), "floor", -1,
     (-1, 2, -1, -1, 2, -1, 2, -1, -1, -1, -1, 2, -1, 1, -1)),
    (gnp(15, 0.3, 16), "ceil", -3,
     (-1, -1, -1, -1, -1, -1, -1, -1, 2, -1, 2, -1, 2, -1, 2)),
    (gnp(15, 0.8, 17), "floor", -2,
     (-1, -1, -1, -1, 1, -1, -1, -1, 1, -1, 2, 2, -1, -1, 2)),
    (wheel(15), "ceil", -6, (2, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1, -1, 1)),
    (random_tree(16, 48), "ceil", 1,
     (-1, -1, -1, -1, 2, -1, 2, -1, -1, 2, 2, 2, 1, -1, -1, -1)),
    (gnp(16, 0.3, 17), "floor", -5,
     (-1, -1, -1, -1, -1, 1, -1, -1, 2, 2, 2, -1, -1, -1, -1, -1)),
    (gnp(16, 0.8, 18), "ceil", -1,
     (-1, -1, -1, -1, -1, -1, 1, -1, 2, 2, -1, 1, -1, 1, 2, -1)),
    (wheel(16), "floor", -7,
     (2, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1, -1, 1)),
    (disjoint_union(star(7), cycle(4)), "ceil", -3,
     (2, -1, -1, -1, -1, -1, -1, -1, 1, -1, 2)),
    (disjoint_union(star(11), cycle(4)), "floor", -7,
     (2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, 2)),
    (Graph(10, []), "floor", 10, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    (Graph(16, []), "ceil", 16, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
]


class TestBlockEnumeration:
    @pytest.mark.parametrize("mode", ["ceil", "floor"])
    @pytest.mark.parametrize("g", small_graphs())
    def test_matches_pure_python_reference(self, g, mode):
        value, labels = enumerate_optimum(g, mode)
        res = brute_force(g, SolveOptions(threshold_mode=mode))
        assert (res.optimum, res.witness) == (value, labels)
        assert res.nodes_explored == 3**g.n

    @pytest.mark.parametrize("mode", ["ceil", "floor"])
    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_block_boundary_agrees_with_branch_and_bound(self, n, mode):
        opts = SolveOptions(threshold_mode=mode)
        graphs = [
            random_tree(n, n),
            gnp(n, 0.3, n),
            Graph(n, []),
            disjoint_union(star(n - 4), cycle(4)),
        ]
        for g in graphs:
            res = brute_force(g, opts)
            assert res.nodes_explored == 3**n
            assert res.optimum == branch_and_bound(g, opts).optimum
            report = validate(g, res.witness, mode)
            assert report.is_valid and report.weight == res.optimum

    @pytest.mark.parametrize("g,mode,value,labels", FROZEN_WITNESSES)
    def test_frozen_witnesses(self, g, mode, value, labels):
        res = brute_force(g, SolveOptions(threshold_mode=mode))
        assert (res.optimum, res.witness) == (value, labels)

    @pytest.mark.parametrize(
        "g,mode", [(random_tree(10, 30), "ceil"), (wheel(10), "floor")]
    )
    def test_one_high_vertex_matches_pure_python_reference(self, g, mode):
        # n = 10 sweeps a high prefix of one vertex over the low block
        res = brute_force(g, SolveOptions(threshold_mode=mode))
        assert (res.optimum, res.witness) == enumerate_optimum(g, mode)

    def test_sweep_leaves_no_reference_cycles(self):
        # arrays caught in a cycle outlive the call until the cyclic
        # collector runs, and every pass of a long run would hold them
        g = random_tree(13, 7)
        brute_force(g)
        gc.collect()
        gc.disable()
        try:
            brute_force(g)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBranchAndBound:
    def test_matches_brute_on_random_sample(self):
        rng = random.Random(99)
        for i in range(60):
            n = rng.randint(1, 9)
            if i % 2 == 0:
                g = random_tree(n, rng.randrange(2**32))
            else:
                g = gnp(n, rng.choice([0.3, 0.6]), rng.randrange(2**32))
            assert branch_and_bound(g).optimum == brute_force(g).optimum

    def test_witness_valid_at_optimum(self):
        for g in (wheel(9), path(7), complete(5)):
            res = branch_and_bound(g)
            report = validate(g, res.witness)
            assert report.is_valid and report.weight == res.optimum

    def test_single_thread_deterministic(self):
        g = wheel(10)
        a = branch_and_bound(g)
        b = branch_and_bound(g)
        assert (a.optimum, a.witness, a.nodes_explored) == (
            b.optimum,
            b.witness,
            b.nodes_explored,
        )

    def test_seed_labeling_preserves_optimum(self):
        for n in (6, 9, 12):
            cert = cert_wheel_fan(n, "wheel")
            plain = branch_and_bound(cert.graph)
            seeded = branch_and_bound(cert.graph, seed_labeling=cert.labeling)
            assert seeded.optimum == plain.optimum
            assert validate(cert.graph, seeded.witness).is_valid

    def test_invalid_seed_rejected(self):
        with pytest.raises(SolverError):
            branch_and_bound(path(2), seed_labeling=(-1, 1))

    def test_node_limit_truncates(self):
        res = branch_and_bound(wheel(10), SolveOptions(node_limit=5))
        assert not res.proven

    @pytest.mark.parametrize(
        "g",
        [wheel(10), cycle(16), random_tree(22, 1), complement(path(30))],
        ids=["W_10", "C_16", "T_22", "Pbar_30"],
    )
    @pytest.mark.parametrize("limit", [1, 2, 3, 7, 100, 5000])
    def test_node_limit_never_overshot(self, g, limit):
        res = branch_and_bound(g, SolveOptions(node_limit=limit))
        assert res.nodes_explored <= limit
        if not res.proven:
            assert res.nodes_explored == limit
        report = validate(g, res.witness)
        assert report.is_valid and report.weight == res.optimum

    def test_node_limit_equal_to_search_size_proves(self):
        g = wheel(9)
        full = branch_and_bound(g)
        exact = branch_and_bound(g, SolveOptions(node_limit=full.nodes_explored))
        assert exact.proven and exact.nodes_explored == full.nodes_explored
        short = branch_and_bound(
            g, SolveOptions(node_limit=full.nodes_explored - 1)
        )
        assert not short.proven
        assert short.nodes_explored == full.nodes_explored - 1

    def test_deep_search_keeps_the_recursion_limit(self):
        # dfs recurses once per vertex, deeper than the default limit
        limit = sys.getrecursionlimit()
        g = path(1500)
        res = branch_and_bound(g, SolveOptions(node_limit=100_000))
        assert sys.getrecursionlimit() == limit
        assert not res.proven and res.nodes_explored == 100_000
        report = validate(g, res.witness)
        assert report.is_valid and report.weight == res.optimum

    def test_thread_count_has_no_effect(self):
        for g in (wheel(9), corona(complete(2), complete(3)), star(10)):
            single = branch_and_bound(g, SolveOptions(thread_count=1))
            multi = branch_and_bound(g, SolveOptions(thread_count=4))
            assert multi.optimum == single.optimum
            assert multi.witness == single.witness
            assert multi.nodes_explored == single.nodes_explored
            report = validate(g, multi.witness)
            assert report.is_valid and report.weight == multi.optimum

    def test_thread_count_guard(self):
        with pytest.raises(ValueError):
            SolveOptions(thread_count=0)

    @pytest.mark.parametrize("method", ["xyz", "brute_force", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            SolveOptions(method=method)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_node_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="node_limit must be >= 1"):
            SolveOptions(node_limit=limit)

    @pytest.mark.parametrize("mode", ["round", "Ceil", ""])
    def test_unknown_threshold_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown threshold mode"):
            SolveOptions(threshold_mode=mode)

    def test_valid_options_construct(self):
        # the options the benchmark workloads pass, and every method name
        SolveOptions(method="brute", brute_cap=16, thread_count=2)
        SolveOptions(method="auto", node_limit=300_000)
        SolveOptions(node_limit=1, threshold_mode="floor")
        for method in solver.METHODS:
            assert SolveOptions(method=method).method == method


@st.composite
def bound_graphs(draw):
    """n = 0..11: edgeless, sparse with isolated vertices (G(n, 0.1)),
    random, dense, and disjoint unions of two of them."""

    def part(n):
        if n == 0:
            return Graph(0, [])
        p = draw(st.sampled_from([0.0, 0.1, 0.1, 0.3, 0.5, 0.9]))
        return gnp(n, p, draw(st.integers(0, 2**31)))

    n = draw(st.integers(0, 11))
    left = draw(st.integers(0, n))
    if draw(st.booleans()):
        return disjoint_union(part(left), part(n - left))
    return part(n)


# optima and witnesses of branch and bound before the guard-capacity bound
FROZEN_BB = [
    (wheel(9), -2, (2, -1, -1, -1, -1, -1, 1, -1, 1)),
    (path(7), 1, (-1, 2, -1, 1, -1, 2, -1)),
    (cycle(16), 4, (-1, -1, 2, -1, -1, 2, -1, 1, 1, -1, 2, -1, 1, 1, -1, 2)),
    (random_tree(13, 5), 1, (-1, 2, -1, -1, 2, -1, -1, 2, 1, -1, -1, 2, -1)),
    (random_tree(13, 6), 1, (2, 2, -1, 1, 2, -1, -1, -1, -1, 2, -1, -1, -1)),
]


class TestGuardCapacityBound:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(g=bound_graphs(), mode=st.sampled_from(["ceil", "floor"]))
    def test_agrees_with_brute_force(self, g, mode):
        opts = SolveOptions(threshold_mode=mode)
        res = branch_and_bound(g, opts)
        assert res.proven
        brute = brute_force(g, opts)
        assert res.optimum == brute.optimum
        report = validate(g, res.witness, mode)
        assert report.is_valid and report.weight == res.optimum
        assert majority_lower_bound(g, mode) <= brute.optimum
        seeded = branch_and_bound(g, opts, seed_labeling=brute.witness)
        assert seeded.proven and seeded.optimum == brute.optimum

    @pytest.mark.parametrize("n", [18, 20])
    def test_long_cycles_proven_under_node_limit(self, n):
        g = cycle(n)
        res = branch_and_bound(g, SolveOptions(node_limit=300_000))
        assert res.proven and res.optimum == 5
        # an unseeded search starts above the majority bound: it searches
        assert res.nodes_explored == {18: 37_440, 20: 51_084}[n]
        report = validate(g, res.witness)
        assert report.is_valid and report.weight == 5

    @pytest.mark.parametrize("g,value,labels", FROZEN_BB)
    def test_frozen_witnesses(self, g, value, labels):
        res = branch_and_bound(g)
        assert (res.optimum, res.witness) == (value, labels)

    def test_order_must_descend_in_degree(self):
        # D(a) is read as the degrees of the next a vertices of the order;
        # under this BFS order the search would return 2, flagged proven,
        # where the optimum is 0
        g = random_tree(20, 1)
        start = max(range(g.n), key=lambda v: (len(g.adj[v]), -v))
        order = [start]
        for v in order:
            order += sorted(g.adj[v] - set(order), key=lambda w: (-len(g.adj[w]), w))
        assert sorted(order) == list(range(g.n))
        with pytest.raises(SolverError, match="descending degree"):
            solver._Search(g, order, 2 * g.n, (2,) * g.n, 10, None)


# recorded before rules (b) and (c) were decided ahead of each child: the
# search must cut, count and return exactly as it did
G40_WITNESS = (
    -1, 1, 2, -1, -1, 2, -1, -1, -1, -1, 2, 2, 2, -1, -1, -1, 2, -1, -1, 1,
    2, 2, -1, -1, -1, -1, -1, -1, 2, -1, -1, -1, 1, -1, 2, 2, -1, 2, 2, -1,
)
# per mode: summed nodes, and sha256 of repr() of the list of witnesses
SMALL_PINS = {
    "ceil": (
        15678,
        "5ab7e26586b4c4cd87af871d1d18e721fe126cfc5b45c5b5e84b1fcae40a74de",
    ),
    "floor": (
        15114,
        "505d087e56029f16b4330eaedf0f7fe7c081e1c0ec423453837dab9e541a5a0c",
    ),
}

# the instances of the bb_reach benchmark that no other pin covers: its six
# seed-1 trees and C_16, solved unseeded by branch and bound under its node
# limit (with C_18, C_20 and G(40, 0.2) they explore 423,105 nodes), then
# the branch-and-bound witness, and the tree DP's witness and fold states
BB_REACH_PINS = [
    (random_tree(13, 577090037), 6768, 2, "+----+2+22---", "-2-22----2--2", 2076),
    (random_tree(13, 271041745), 1968, 0, "-2----2+-2--+", "-2----2+-2--+", 2129),
    (random_tree(13, 1095513148), 7038, 2, "2-222--2-----", "22222--------", 2051),
    (random_tree(13, 506456969), 3294, 0, "-22--++-----2", "-22--++-----2", 2656),
    (random_tree(13, 2127877499), 5433, 1, "-2--2---+22--", "-2--2---22+--", 2284),
    (random_tree(13, 1930549411), 2337, 1, "--+2-2-2----2", "-+---2-2---22", 2047),
    (cycle(16), 7743, 4, "--2--2-++-2-++-2", "--2-++-2--2-++-2", 18712),
]


def _labels(text):
    return tuple({"-": -1, "+": 1, "2": 2}[c] for c in text)


# node-limit truncation of unseeded branch and bound: per graph and mode,
# (optimum, witness, nodes, proven) at each of TRUNCATION_LIMITS. The even
# orders have one threshold in both modes; C_19 has two.
TRUNCATION_LIMITS = (1, 2, 3, 7, 50, 500, 5000)
TRUNCATION_GRAPHS = {
    "W_16": wheel(16),
    "C_19": cycle(19),
    "C_20": cycle(20),
    "gnp_18": gnp(18, 0.3, 4),
    "gnp_40": gnp(40, 0.2, 1),
}
TRUNCATION_PINS = {
    ("W_16", "ceil"): [
        (32, "2222222222222222", 1, False),
        (32, "2222222222222222", 2, False),
        (32, "2222222222222222", 3, False),
        (32, "2222222222222222", 7, False),
        (5, "---2--2--2+-2++2", 50, False),
        (5, "---2--2--2+-2++2", 500, False),
        (4, "---2-+-2-+-2-++2", 5000, False),
    ],
    ("C_19", "ceil"): [
        (38, "2222222222222222222", 1, False),
        (38, "2222222222222222222", 2, False),
        (38, "2222222222222222222", 3, False),
        (38, "2222222222222222222", 7, False),
        (7, "--2--2--2-++-2+-2+2", 50, False),
        (7, "--2--2--2-++-2+-2+2", 500, False),
        (6, "--2--2-+-2-++-2-++2", 5000, False),
    ],
    ("C_20", "ceil"): [
        (40, "22222222222222222222", 1, False),
        (40, "22222222222222222222", 2, False),
        (40, "22222222222222222222", 3, False),
        (40, "22222222222222222222", 7, False),
        (7, "--2--2--2-+-2+-2+-22", 50, False),
        (6, "--2--2--2-++-2-++-22", 500, False),
        (5, "--2--2-+-2-++-2-++-2", 5000, False),
    ],
    ("gnp_18", "ceil"): [
        (36, "222222222222222222", 1, False),
        (36, "222222222222222222", 2, False),
        (36, "222222222222222222", 3, False),
        (36, "222222222222222222", 7, False),
        (5, "-22+-+--+2--2-+-2-", 50, False),
        (3, "-2-+-+--22--2-2-+-", 500, False),
        (2, "-2-+-+--2+--2-2--+", 5000, False),
    ],
    ("gnp_40", "ceil"): [
        (80, "2222222222222222222222222222222222222222", 1, False),
        (80, "2222222222222222222222222222222222222222", 2, False),
        (80, "2222222222222222222222222222222222222222", 3, False),
        (80, "2222222222222222222222222222222222222222", 7, False),
        (80, "2222222222222222222222222222222222222222", 50, False),
        (9, "--2--2----+22-+-22-222-+----2---2-2+-+2-", 500, False),
        (7, "--2--2----+22-+-22--22-2----+---2-22-+2-", 5000, False),
    ],
    ("W_16", "floor"): [
        (32, "2222222222222222", 1, False),
        (32, "2222222222222222", 2, False),
        (32, "2222222222222222", 3, False),
        (32, "2222222222222222", 7, False),
        (5, "---2--2--2+-2++2", 50, False),
        (5, "---2--2--2+-2++2", 500, False),
        (4, "---2-+-2-+-2-++2", 5000, False),
    ],
    ("C_19", "floor"): [
        (38, "2222222222222222222", 1, False),
        (38, "2222222222222222222", 2, False),
        (38, "2222222222222222222", 3, False),
        (38, "2222222222222222222", 7, False),
        (7, "--2--2--2-+-2+-2++2", 50, False),
        (6, "--2--2--2-++-2-+++2", 500, False),
        (6, "--2--2--2-++-2-+++2", 5000, False),
    ],
    ("C_20", "floor"): [
        (40, "22222222222222222222", 1, False),
        (40, "22222222222222222222", 2, False),
        (40, "22222222222222222222", 3, False),
        (40, "22222222222222222222", 7, False),
        (7, "--2--2--2-+-2+-2+-22", 50, False),
        (6, "--2--2--2-++-2-++-22", 500, False),
        (5, "--2--2-+-2-++-2-++-2", 5000, False),
    ],
    ("gnp_18", "floor"): [
        (36, "222222222222222222", 1, False),
        (36, "222222222222222222", 2, False),
        (36, "222222222222222222", 3, False),
        (36, "222222222222222222", 7, False),
        (5, "-22+-+--+2--2-+-2-", 50, False),
        (3, "-2-+-+--22--2-2-+-", 500, False),
        (2, "-2-+-+--2+--2-2--+", 5000, False),
    ],
    ("gnp_40", "floor"): [
        (80, "2222222222222222222222222222222222222222", 1, False),
        (80, "2222222222222222222222222222222222222222", 2, False),
        (80, "2222222222222222222222222222222222222222", 3, False),
        (80, "2222222222222222222222222222222222222222", 7, False),
        (80, "2222222222222222222222222222222222222222", 50, False),
        (9, "--2--2----+22-+-22-222-+----2---2-2+-+2-", 500, False),
        (7, "--2--2----+22-+-22--22-2----+---2-22-+2-", 5000, False),
    ],
}


class TestSearchKernelPins:
    def test_node_limited_gnp40(self):
        res = branch_and_bound(gnp(40, 0.2, 1), SolveOptions(node_limit=300_000))
        assert (res.nodes_explored, res.proven, res.optimum) == (300_000, False, 5)
        assert res.witness == G40_WITNESS

    @pytest.mark.parametrize("mode", ["ceil", "floor"])
    @pytest.mark.parametrize("name", list(TRUNCATION_GRAPHS))
    def test_node_limit_truncation(self, name, mode):
        g = TRUNCATION_GRAPHS[name]
        got = []
        for limit in TRUNCATION_LIMITS:
            opts = SolveOptions(threshold_mode=mode, node_limit=limit)
            r = branch_and_bound(g, opts)
            got.append((r.optimum, r.witness, r.nodes_explored, r.proven))
        assert got == [
            (value, _labels(labels), nodes, proven)
            for value, labels, nodes, proven in TRUNCATION_PINS[name, mode]
        ]

    @pytest.mark.parametrize("mode", ["ceil", "floor"])
    def test_small_graphs(self, mode):
        graphs = []
        for n in range(1, 11):
            graphs += [random_tree(n, n)] + [gnp(n, p, n) for p in (0.2, 0.5, 0.8)]
        results = [
            branch_and_bound(g, SolveOptions(threshold_mode=mode)) for g in graphs
        ]
        assert all(r.proven for r in results)
        digest = hashlib.sha256(
            repr([r.witness for r in results]).encode()
        ).hexdigest()
        assert (sum(r.nodes_explored for r in results), digest) == SMALL_PINS[mode]

    @pytest.mark.parametrize(
        "g,nodes,value,labels,dp_labels,cells",
        BB_REACH_PINS,
        ids=[f"g{i}-{p[1]}-{p[2]}-{p[3]}" for i, p in enumerate(BB_REACH_PINS)],
    )
    def test_bb_reach_instances(self, g, nodes, value, labels, dp_labels, cells):
        # auto sends these to the tree DP; the search pins stay on
        # branch and bound
        res = branch_and_bound(g, SolveOptions(node_limit=300_000))
        assert res.proven
        assert (res.nodes_explored, res.optimum) == (nodes, value)
        assert res.witness == _labels(labels)
        dp = solve(g, SolveOptions(method="auto", node_limit=300_000))
        assert (dp.method, dp.proven, dp.optimum) == ("tree_dp", True, value)
        assert (dp.witness, dp.nodes_explored) == (_labels(dp_labels), cells)
        report = validate(g, dp.witness)
        assert report.is_valid and report.weight == value


# a tree, a wheel, G(n, p) with and without a node limit, an edgeless graph
POTENTIAL_CASES = [
    (random_tree(12, 3), None),
    (wheel(9), None),
    (gnp(11, 0.3, 7), None),
    (gnp(14, 0.3, 2), 2000),
    (Graph(6, []), None),
]


class TestSearchPotential:
    @pytest.mark.parametrize("mode", ["ceil", "floor"])
    @pytest.mark.parametrize(
        "g,limit", POTENTIAL_CASES, ids=["tree", "wheel", "gnp", "gnp-limit", "empty"]
    )
    def test_recounted_at_every_node(self, monkeypatch, g, limit, mode):
        closed = [g.adj[v] | {v} for v in range(g.n)]
        fields = ("potential", "dead_count")

        def state(search):
            return {f: copy.copy(getattr(search, f)) for f in fields}

        roots = []
        visits = 0
        dfs = solver._Search.dfs

        def checked(search, depth, cur_w, cover, minus, twos):
            nonlocal visits
            visits += 1
            if not roots:
                roots.append((search, state(search)))
            assigned = sum(1 << v for v in search.order[:depth])
            assert minus & twos == 0
            assert (minus | twos) & ~assigned == 0
            # the labelling the masks hold; 0 marks an unassigned vertex
            label = [
                -1 if minus >> v & 1 else 2 if twos >> v & 1 else assigned >> v & 1
                for v in range(g.n)
            ]
            assert cur_w == sum(label)
            # f(N[v]) over the assigned vertices + 2 per unassigned one
            potential = [
                sum(label[w] if label[w] else 2 for w in nbrs) for nbrs in closed
            ]
            assert search.potential == potential
            assert search.dead_count == sum(p < 1 for p in potential)
            assert cover == sum(
                1 << v for v in range(g.n) if any(label[w] == 2 for w in g.adj[v])
            )
            dfs(search, depth, cur_w, cover, minus, twos)

        monkeypatch.setattr(solver._Search, "dfs", checked)
        res = branch_and_bound(g, SolveOptions(threshold_mode=mode, node_limit=limit))
        assert res.proven == (limit is None) and visits > g.n
        ((search, initial),) = roots
        assert state(search) == initial


# the wheels and fans the family_bb benchmark checks, seeded with their
# certificates: nodes, optimum and witness (- for -1, + for +1, 2 for 2)
SEEDED_SEARCH_PINS = {
    ("wheel", 13): (2226, -4, "2--+--+--+---"),
    ("wheel", 14): (2865, -5, "2--+--+--+----"),
    ("wheel", 15): (3276, -6, "2--+--+--+-----"),
    ("wheel", 16): (4134, -7, "2--+--+--+------"),
    ("fan", 13): (2109, -4, "2--+--+--+---"),
    ("fan", 14): (2730, -5, "2--+--+--+----"),
    ("fan", 15): (3150, -6, "2--+--+--+-----"),
    ("fan", 16): (3990, -7, "2--+--+--+------"),
}


class TestMajorityLowerBound:
    @pytest.mark.parametrize(
        "family,n",
        [
            ("complement_path", 40),
            ("complement_cycle", 40),
            ("complete_minus_matching", 20),
            ("complete", 40),
            ("star", 40),
        ],
    )
    def test_certificate_seed_proven_at_root(self, family, n):
        cert = CERTIFICATES[family](n)
        # a search would stop at the limit, unproven
        res = branch_and_bound(
            cert.graph, SolveOptions(node_limit=1), seed_labeling=cert.labeling
        )
        assert res.nodes_explored == 0 and res.proven
        assert res.witness == tuple(cert.labeling)
        assert res.optimum == majority_lower_bound(cert.graph)

    def test_seed_above_bound_still_searches(self):
        for (kind, n), (nodes, optimum, labels) in SEEDED_SEARCH_PINS.items():
            cert = cert_wheel_fan(n, kind)
            assert majority_lower_bound(cert.graph) < validate(
                cert.graph, cert.labeling
            ).weight
            res = branch_and_bound(cert.graph, seed_labeling=cert.labeling)
            assert res.proven and res.nodes_explored == nodes
            assert res.optimum == optimum
            witness = tuple({"-": -1, "+": 1, "2": 2}[c] for c in labels)
            assert res.witness == witness

    def test_values(self):
        # thr-th smallest degree + 2 - n; thr = 0 gives -n
        assert majority_lower_bound(star(5)) == -2
        assert majority_lower_bound(complete(6)) == 1
        assert majority_lower_bound(cycle(7)) == -3
        assert majority_lower_bound(Graph(0, [])) == 0
        assert majority_lower_bound(Graph(1, [])) == 1
        assert majority_lower_bound(Graph(1, []), "floor") == -1
        assert majority_lower_bound(Graph(4, []), "floor") == -2


class TestDispatchAndBounds:
    def test_auto_dispatch(self):
        assert solve(path(5)).method == "brute_force"
        assert solve(star(14)).method == "tree_dp"
        # n = 14 and m = 26 > n: no tree DP
        assert solve(wheel(14)).method == "branch_and_bound"
        with pytest.raises(SolverError):
            solve(path(3), SolveOptions(method="simplex"))

    def test_all_plus_one_upper_bound(self):
        rng = random.Random(12)
        for _ in range(20):
            g = gnp(rng.randint(1, 9), 0.4, rng.randrange(2**32))
            assert solve(g).optimum <= g.n

    def test_delta_lower_bound_values(self):
        assert delta_lower_bound(star(10)) == Fraction(-7)
        assert delta_lower_bound(complete(2)) == Fraction(1)
        assert delta_lower_bound(cycle(6)) == Fraction(0)
        with pytest.raises(SolverError):
            delta_lower_bound(Graph(1, []))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_delta_lower_bound_needs_an_edge(self, n):
        # the formula would give 2n, but all-(+1) weighs n
        g = Graph(n, [])
        assert solve(g).optimum == n
        with pytest.raises(SolverError, match="at least one edge"):
            delta_lower_bound(g)

    def test_delta_lower_bound_sharp_on_stars(self):
        for n in range(2, 11):
            assert solve(star(n)).optimum == delta_lower_bound(star(n)) == 3 - n

    def test_star_certificate_consistency(self):
        for n in range(2, 11):
            cert = cert_star(n)
            assert validate(cert.graph, cert.labeling).weight == solve(
                cert.graph
            ).optimum


def _plus_edge(g: Graph, rng: random.Random) -> Graph:
    """g with one more edge, between two random non-adjacent vertices."""
    while True:
        u, v = rng.sample(range(g.n), 2)
        if v not in g.adj[u]:
            return Graph(g.n, [*g.edges(), (u, v)])


def _cycle_with_trees(n: int, seed: int) -> Graph:
    """C_{n // 2} with the other vertices hung on it as a random forest."""
    rng = random.Random(seed)
    c = n // 2
    edges = [(v, (v + 1) % c) for v in range(c)]
    return Graph(n, edges + [(v, rng.randrange(v)) for v in range(c, n)])


def _check_dp(g, mode="ceil"):
    """The tree DP's result on g, its witness validated at its optimum."""
    res = tree_dp(g, SolveOptions(threshold_mode=mode))
    assert res.method == "tree_dp" and res.proven
    report = validate(g, res.witness, mode)
    assert report.is_valid and report.weight == res.optimum
    return res


class TestTreeDP:
    def test_matches_brute_force(self):
        # 1000 seeded graphs with n = 1..12: random trees, and from n = 3
        # on every other one a tree plus one edge, in both modes
        rng = random.Random(20261020)
        for i in range(1000):
            n = 1 + i % 12
            g = random_tree(n, rng.randrange(2**31))
            if i % 2 and n >= 3:
                g = _plus_edge(g, rng)
            for mode in ("ceil", "floor"):
                optimum = brute_force(g, SolveOptions(threshold_mode=mode)).optimum
                assert _check_dp(g, mode).optimum == optimum, (g.n, list(g.edges()))

    @pytest.mark.parametrize("n", range(13, 21))
    @pytest.mark.parametrize("family", ["path", "cycle", "tree", "cycle_with_trees"])
    def test_matches_branch_and_bound(self, family, n):
        g = {
            "path": path,
            "cycle": cycle,
            "tree": lambda n: random_tree(n, n),
            "cycle_with_trees": lambda n: _cycle_with_trees(n, n),
        }[family](n)
        assert _check_dp(g).optimum == branch_and_bound(g).optimum

    @pytest.mark.parametrize(
        "g,value",
        [
            (path(28), 7),
            (cycle(24), 6),
            (random_tree(30, 1), -1),
            (path(200), 50),
            (cycle(200), 50),
            (cycle(400), 100),
        ],
        ids=["P_28", "C_24", "T_n30_s1", "P_200", "C_200", "C_400"],
    )
    def test_values_past_branch_and_bound(self, g, value):
        # branch and bound leaves P_28 and random_tree(30, 1) unproven at
        # 3M nodes
        assert _check_dp(g).optimum == value

    def test_at_cap(self):
        g = path(solver.TREE_DP_CAP)
        assert solver.choose_method(g, SolveOptions()) == "dp"
        # floor(n / 4) + [n = 2 mod 4] on paths
        assert _check_dp(g).optimum == solver.TREE_DP_CAP // 4

    def test_above_cap(self):
        g = path(solver.TREE_DP_CAP + 1)
        with pytest.raises(
            CapExceededError, match=f"exceeds tree-DP cap {solver.TREE_DP_CAP}"
        ):
            tree_dp(g)
        # auto keeps branch and bound
        assert solver.choose_method(g, SolveOptions()) == "bb"

    @pytest.mark.parametrize(
        "g,reason",
        [
            (wheel(6), "n=6, m=10$"),
            (Graph(4, [(0, 1), (2, 3)]), "n=4, m=2 and is not connected$"),
            (Graph(2, []), "n=2, m=0 and is not connected$"),
        ],
    )
    def test_other_shapes_rejected(self, g, reason):
        assert solver.choose_method(g, SolveOptions(method="auto")) != "dp"
        with pytest.raises(SolverError, match="needs a connected graph with m <= n"):
            tree_dp(g)
        with pytest.raises(SolverError, match=reason):
            solve(g, SolveOptions(method="dp"))

    def test_empty_graph(self):
        res = tree_dp(Graph(0, []))
        assert (res.optimum, res.witness, res.proven) == (0, (), True)

    def test_ignores_node_limit_and_is_reproducible(self):
        g = _cycle_with_trees(40, 7)
        first = tree_dp(g, SolveOptions(node_limit=1))
        second = tree_dp(g)
        assert first.proven
        assert (first.optimum, first.witness, first.nodes_explored) == (
            second.optimum,
            second.witness,
            second.nodes_explored,
        )

    def test_method_table(self):
        assert set(solver.METHODS) == {"brute", "bb", "dp"}
        assert [m.node_limit for m in solver.METHODS.values()] == [False, True, False]
        names = {"brute": "brute_force", "bb": "branch_and_bound", "dp": "tree_dp"}
        for key in solver.METHODS:
            assert solve(star(14), SolveOptions(method=key)).method == names[key]
