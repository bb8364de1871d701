"""Tree DPs checked against brute-force subset oracles."""

import random
from itertools import combinations

import pytest

from majroman.graph import (
    Graph,
    complete,
    corona,
    cycle,
    double_star,
    path,
    random_tree,
    star,
)
from majroman.trees import (
    TreeError,
    count_supports_leaves,
    domination_number,
    find_gamma_set_independent_complement,
    independence_number,
    is_tree,
    maximum_independent_set,
    tree_profile,
)


def brute_domination(g):
    for r in range(1, g.n + 1):
        for combo in combinations(range(g.n), r):
            covered = set(combo)
            for v in combo:
                covered |= g.adj[v]
            if len(covered) == g.n:
                return r
    raise AssertionError("unreachable")


def brute_independence(g):
    best = 0
    for r in range(1, g.n + 1):
        for combo in combinations(range(g.n), r):
            if all(v not in g.adj[u] for u, v in combinations(combo, 2)):
                best = r
                break
    return best


def brute_gamma_set_independent_complement(g):
    """The first gamma-set, in combinations order, whose complement is
    independent; None when there is none."""
    gamma = brute_domination(g)
    for combo in combinations(range(g.n), gamma):
        covered = set(combo)
        for v in combo:
            covered |= g.adj[v]
        outside = [v for v in range(g.n) if v not in combo]
        if len(covered) == g.n and all(
            v not in g.adj[u] for u, v in combinations(outside, 2)
        ):
            return frozenset(combo)
    return None


def assert_gamma_set_independent_complement(t, s, gamma):
    assert len(s) == gamma
    covered = set(s)
    for v in s:
        covered |= t.adj[v]
    assert len(covered) == t.n
    outside = [v for v in range(t.n) if v not in s]
    assert all(v not in t.adj[u] for u, v in combinations(outside, 2))


class TestIsTree:
    def test_positives(self):
        assert is_tree(path(1))
        assert is_tree(path(6))
        assert is_tree(star(5))

    def test_negatives(self):
        assert not is_tree(cycle(4))
        assert not is_tree(Graph(4, [(0, 1), (2, 3)]))

    def test_guard_on_non_tree(self):
        with pytest.raises(TreeError):
            domination_number(cycle(5))
        with pytest.raises(TreeError):
            independence_number(Graph(3, []))


class TestDomination:
    def test_frozen(self):
        assert domination_number(path(4)) == 2
        assert domination_number(path(7)) == 3
        assert domination_number(path(1)) == 1
        for n in range(2, 9):
            assert domination_number(star(n)) == 1

    def test_oracle(self):
        rng = random.Random(71)
        for _ in range(40):
            t = random_tree(rng.randint(1, 10), rng.randrange(2**32))
            assert domination_number(t) == brute_domination(t)


class TestIndependence:
    def test_frozen(self):
        assert independence_number(path(4)) == 2
        assert independence_number(path(5)) == 3
        for n in range(2, 9):
            assert independence_number(star(n)) == n - 1

    def test_oracle(self):
        rng = random.Random(72)
        for _ in range(40):
            t = random_tree(rng.randint(1, 10), rng.randrange(2**32))
            assert independence_number(t) == brute_independence(t)
            s = maximum_independent_set(t)
            assert len(s) == brute_independence(t)
            assert all(v not in t.adj[u] for u, v in combinations(s, 2))


class TestSupportsLeaves:
    def test_frozen(self):
        assert count_supports_leaves(double_star(3, 3)) == (2, 4)
        assert count_supports_leaves(path(5)) == (2, 2)
        # degenerate: each endpoint of P_2 is both a support and a leaf
        assert count_supports_leaves(path(2)) == (2, 2)
        for n in range(3, 9):
            assert count_supports_leaves(star(n)) == (1, n - 1)

    def test_guard(self):
        with pytest.raises(TreeError):
            count_supports_leaves(path(1))


class TestGammaSetIndependentComplement:
    def test_p4(self):
        s = find_gamma_set_independent_complement(path(4))
        assert s is not None
        assert_gamma_set_independent_complement(path(4), s, 2)

    def test_star(self):
        s = find_gamma_set_independent_complement(star(7))
        assert s == frozenset({0})

    def test_k1(self):
        assert find_gamma_set_independent_complement(path(1)) == frozenset({0})

    def test_p6_has_none(self):
        # the unique gamma-set of P_6 is {1, 4}, whose complement contains
        # the edge (2, 3)
        assert find_gamma_set_independent_complement(path(6)) is None

    def test_guard_on_non_tree(self):
        with pytest.raises(TreeError):
            find_gamma_set_independent_complement(cycle(4))

    def test_oracle(self):
        rng = random.Random(74)
        for _ in range(300):
            t = random_tree(rng.randint(1, 14), rng.randrange(2**32))
            expected = brute_gamma_set_independent_complement(t)
            s = find_gamma_set_independent_complement(t)
            assert (s is None) == (expected is None)
            if s is not None:
                assert_gamma_set_independent_complement(t, s, brute_domination(t))

    def test_n300(self):
        # every spine vertex of a corona P_150 o K_1 has a pendant leaf, so
        # gamma = beta0 = 150 = n - beta0; on P_300, gamma = 100 < 150
        t = corona(path(150), complete(1))
        s = find_gamma_set_independent_complement(t)
        assert s is not None
        assert_gamma_set_independent_complement(t, s, 150)
        assert find_gamma_set_independent_complement(path(300)) is None
        t = random_tree(300, 5)
        assert (domination_number(t), independence_number(t)) == (110, 170)
        assert find_gamma_set_independent_complement(t) is None


class TestProfile:
    def test_profile(self):
        p = tree_profile(path(7))
        assert (p.n, p.gamma, p.beta0, p.supports, p.leaves) == (7, 3, 4, 2, 2)
