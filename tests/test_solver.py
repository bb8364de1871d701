"""Exact solver: brute force, branch and bound, seeding, and the degree
lower bound."""

import hashlib
import itertools
import random
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


# optima and witnesses of the earlier chunked enumeration, on orders that
# span the 11-vertex low block and a swept high prefix
FROZEN_WITNESSES = [
    (random_tree(12, 12), "ceil", 1, (-1, -1, -1, 1, -1, 2, 1, 2, -1, -1, 2, -1)),
    (random_tree(13, 13), "floor", 0, (-1, -1, -1, -1, 2, -1, -1, 1, -1, 1, 2, -1, 2)),
    (random_tree(14, 14), "ceil", 1, (-1, 2, -1, -1, -1, -1, -1, -1, 2, -1, 2, 2, 2, -1)),
    (gnp(13, 0.3, 13), "ceil", -1, (-1, -1, -1, -1, -1, 2, 2, -1, -1, 2, 2, -1, -1)),
    (gnp(14, 0.3, 14), "floor", -4, (-1, 2, -1, -1, -1, -1, 2, -1, -1, -1, 1, -1, 1, -1)),
    (wheel(13), "ceil", -4, (2, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 1, 1)),
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
            seeded = branch_and_bound(
                cert.graph, SolveOptions(seed_labeling=cert.labeling)
            )
            assert seeded.optimum == plain.optimum
            assert validate(cert.graph, seeded.witness).is_valid

    def test_invalid_seed_rejected(self):
        with pytest.raises(SolverError):
            branch_and_bound(path(2), SolveOptions(seed_labeling=(-1, 1)))

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
        seeded = branch_and_bound(
            g, SolveOptions(threshold_mode=mode, seed_labeling=brute.witness)
        )
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


class TestSearchKernelPins:
    def test_node_limited_gnp40(self):
        res = branch_and_bound(gnp(40, 0.2, 1), SolveOptions(node_limit=300_000))
        assert (res.nodes_explored, res.proven, res.optimum) == (300_000, False, 5)
        assert res.witness == G40_WITNESS

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
            cert.graph, SolveOptions(seed_labeling=cert.labeling, node_limit=1)
        )
        assert res.nodes_explored == 0 and res.proven
        assert res.witness == tuple(cert.labeling)
        assert res.optimum == majority_lower_bound(cert.graph)

    def test_seed_above_bound_still_searches(self):
        cert = cert_wheel_fan(16, "wheel")
        assert majority_lower_bound(cert.graph) < validate(
            cert.graph, cert.labeling
        ).weight
        res = branch_and_bound(
            cert.graph, SolveOptions(seed_labeling=cert.labeling)
        )
        assert res.proven and res.nodes_explored == 4134
        assert res.optimum == -7

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
        assert solve(star(14)).method == "branch_and_bound"
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

    def test_delta_lower_bound_sharp_on_stars(self):
        for n in range(2, 11):
            assert solve(star(n)).optimum == delta_lower_bound(star(n)) == 3 - n

    def test_star_certificate_consistency(self):
        for n in range(2, 11):
            cert = cert_star(n)
            assert validate(cert.graph, cert.labeling).weight == solve(
                cert.graph
            ).optimum
