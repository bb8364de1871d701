"""Closed forms, bound formulas, applicability guards, and the
floor/ceiling inequality."""

import pytest

from majroman.formulas import (
    ceil_div,
    corona_lower_bound,
    corona_upper_bound,
    exact_value,
    lemma_inequality_holds,
    predict,
    tree_domination_bound,
    tree_independence_bounds,
    tree_support_leaf_bound,
)
from majroman.graph import GraphSpec
from majroman.solver import brute_force
from majroman.graph import double_star


class TestCeilDiv:
    def test_values(self):
        assert ceil_div(12, 6) == 2
        assert ceil_div(5, 2) == 3
        assert ceil_div(1, 1) == 1
        assert ceil_div(-1, 4) == 0
        assert ceil_div(-4, 4) == -1


class TestExactValues:
    def test_complete(self):
        assert exact_value("complete", 3) == 2
        assert exact_value("complete", 2) == 1
        assert exact_value("complete", 6) == 1
        assert exact_value("complete", 1) is None

    def test_wheel_and_fan(self):
        assert exact_value("wheel", 7) == 0
        assert exact_value("wheel", 12) == -5
        assert exact_value("wheel", 4) == 1
        for n in range(4, 15):
            assert exact_value("fan", n) == exact_value("wheel", n)
        assert exact_value("wheel", 3) is None

    def test_star(self):
        assert exact_value("star", 5) == -2
        for n in range(2, 15):
            assert exact_value("star", n) == 3 - n
        assert exact_value("star", 1) is None

    def test_complements(self):
        assert exact_value("complement_path", 12) == -1
        assert exact_value("complement_cycle", 15) == -1
        assert exact_value("complement_path", 11) is None
        assert exact_value("complement_cycle", 11) is None

    def test_complete_minus_matching(self):
        for n in range(3, 10):
            assert exact_value("complete_minus_matching", n) == 0
        assert exact_value("complete_minus_matching", 2) is None

    def test_join(self):
        assert exact_value("join_complete", 2, 2) == 1
        assert exact_value("join_complete", 4, 7) == 1
        for bad in [(3, 4), (4, 3), (1, 5), (5, 2)]:
            assert exact_value("join_complete", *bad) is None

    def test_corona_k3(self):
        assert exact_value("corona_k3", 1) == -1
        assert exact_value("corona_k3", 2) == -2
        assert exact_value("corona_k3", 0) is None


class TestTreeBounds:
    def test_support_leaf(self):
        assert tree_support_leaf_bound(4, 2, 2) == 2  # P_4
        # stars: (n + 7 - 5(n-1)) / 4 collapses to the exact star value
        for n in range(2, 15):
            assert tree_support_leaf_bound(n, 1, n - 1) == 3 - n
        # P_2 is degenerate (each endpoint is both support and leaf);
        # with s = l = 2 the bound is 2, which still holds above the true
        # value 1
        assert tree_support_leaf_bound(2, 2, 2) == 2
        with pytest.raises(ValueError):
            tree_support_leaf_bound(4, 0, 2)

    def test_domination(self):
        assert tree_domination_bound(4, 2) == 2
        assert tree_domination_bound(3, 1) == 0
        with pytest.raises(ValueError):
            tree_domination_bound(4, 3)  # above ceil(n/2)
        with pytest.raises(ValueError):
            tree_domination_bound(4, 0)

    def test_domination_sharp_on_double_stars(self):
        # double stars have gamma = 2, so the bound reads 6 - a - b
        for a, b in [(2, 2), (2, 3), (3, 3)]:
            bound = tree_domination_bound(a + b, 2)
            assert bound == 6 - a - b
            assert brute_force(double_star(a, b)).optimum <= bound

    def test_independence(self):
        assert tree_independence_bounds(5, 4) == (6, -2)
        assert tree_independence_bounds(4, 2) == (6, 2)
        assert tree_independence_bounds(2, 1) == (3, 1)
        with pytest.raises(ValueError):
            tree_independence_bounds(5, 2)  # below ceil(n/2)


class TestCoronaBounds:
    def test_upper_pair(self):
        assert corona_upper_bound(1, 3) == (1, 3)
        assert corona_upper_bound(2, 3) == (0, 2)
        # the stated formula and the construction weight always differ by
        # 2 * ceil(n/2)
        for n in range(1, 10):
            for m in range(3, 8):
                stated, construction = corona_upper_bound(n, m)
                assert construction - stated == 2 * ceil_div(n, 2)
        with pytest.raises(ValueError):
            corona_upper_bound(1, 2)

    def test_lower(self):
        assert corona_lower_bound(3, 3) == -1
        assert corona_lower_bound(6, 3) == -2
        assert corona_lower_bound(1, 4) == -2
        with pytest.raises(ValueError):
            corona_lower_bound(0, 3)

    def test_lower_matches_corona_k3_identity(self):
        # on K_{3k} o K_3 the lower bound collapses to the exact value -k
        for k in range(1, 6):
            assert corona_lower_bound(3 * k, 3) == exact_value("corona_k3", k)


class TestLemma:
    def test_examples(self):
        assert lemma_inequality_holds(1, 3)
        assert lemma_inequality_holds(3, 3)
        assert lemma_inequality_holds(7, 3)

    def test_exhaustive_small(self):
        assert all(
            lemma_inequality_holds(n, m)
            for n in range(1, 60)
            for m in range(3, 60)
        )

    def test_guards(self):
        with pytest.raises(ValueError):
            lemma_inequality_holds(0, 3)
        with pytest.raises(ValueError):
            lemma_inequality_holds(4, 2)


class TestPredict:
    def test_exact_families(self):
        (p,) = predict(GraphSpec("wheel", n=7))
        assert (p.kind, p.value, p.applicable) == ("exact", 0, True)
        (p,) = predict(GraphSpec("star", n=5))
        assert p.value == -2
        (p,) = predict(GraphSpec("corona_k3", k=2))
        assert p.value == -2

    def test_inapplicable_flagging(self):
        (p,) = predict(GraphSpec("complement_path", n=11))
        assert not p.applicable and p.value is None and p.reason

    def test_join_guard(self):
        (p,) = predict(GraphSpec("join_complete", m=3, n=5))
        assert not p.applicable

    def test_corona_hypothesis(self):
        ok = GraphSpec(
            "corona", parts=(GraphSpec("complete", n=2), GraphSpec("cycle", n=4))
        )
        preds = predict(ok)
        assert [p.kind for p in preds] == ["upper", "upper", "lower"]
        assert all(p.applicable for p in preds)
        # H = P_3 has a degree-1 vertex, so the corona bounds do not apply
        bad = GraphSpec(
            "corona", parts=(GraphSpec("complete", n=2), GraphSpec("path", n=3))
        )
        assert all(not p.applicable for p in predict(bad))

    def test_no_closed_form(self):
        assert predict(GraphSpec("path", n=5)) == []
