"""Constructive labelings: claimed weights, validity, and defect
reporting."""

import itertools
import random

import pytest

from majroman.certificates import (
    CERTIFICATES,
    CertificateError,
    cert_complement_cycle,
    cert_complement_path,
    cert_complete,
    cert_complete_minus_matching,
    cert_corona_floor,
    cert_corona_general,
    cert_corona_k3,
    cert_join_complete,
    cert_star,
    cert_tree_from_dominating_set,
    cert_tree_support_leaf,
    cert_wheel_fan,
)
from majroman.formulas import EXACT_VALUES, exact_value, tree_support_leaf_bound
from majroman.graph import (
    FAMILIES,
    GraphSpec,
    complement,
    cycle,
    path,
    random_tree,
    star,
)
from majroman.labeling import satisfied_count, validate, weight
from majroman.solver import SolveOptions, brute_force
from majroman.trees import count_supports_leaves


def assert_valid_at_claim(cert):
    report = validate(cert.graph, cert.labeling)
    assert report.is_valid, (cert.source, report)
    assert report.weight == cert.claimed_weight


@pytest.mark.parametrize("family", list(EXACT_VALUES))
def test_certificate_domain_is_the_closed_forms(family):
    # the builder refuses exactly the parameters the closed form does not
    # cover, and elsewhere attains the closed form's value
    arity = len(FAMILIES[family].fields)
    for params in itertools.product(range(16), repeat=arity):
        value = exact_value(family, *params)
        if value is None:
            with pytest.raises(CertificateError):
                CERTIFICATES[family](*params)
            continue
        cert = CERTIFICATES[family](*params)
        assert cert.claimed_weight == value, params
        assert_valid_at_claim(cert)


class TestComplete:
    def test_n3(self):
        cert = cert_complete(3)
        assert cert.labeling == (2, 1, -1)
        assert cert.claimed_weight == 2

    def test_n2(self):
        cert = cert_complete(2)
        assert cert.labeling == (2, -1) and cert.claimed_weight == 1

    def test_range_valid(self):
        for n in range(2, 13):
            cert = cert_complete(n)
            assert cert.claimed_weight == (2 if n == 3 else 1)
            assert_valid_at_claim(cert)

    def test_guard(self):
        with pytest.raises(CertificateError):
            cert_complete(1)


class TestStar:
    def test_values_and_optimality(self):
        for n in range(2, 11):
            cert = cert_star(n)
            assert cert.labeling == (2,) + (-1,) * (n - 1)
            assert cert.claimed_weight == 3 - n
            assert_valid_at_claim(cert)
            assert brute_force(cert.graph).optimum == cert.claimed_weight


class TestJoinComplete:
    def test_2_2(self):
        cert = cert_join_complete(2, 2)
        assert cert.labeling == (1, -1, 2, -1)
        assert cert.claimed_weight == 1
        assert_valid_at_claim(cert)

    def test_2_4(self):
        cert = cert_join_complete(2, 4)
        assert cert.labeling == (1, -1, 2, -1, -1, 1)
        assert_valid_at_claim(cert)

    def test_4_5(self):
        cert = cert_join_complete(4, 5)
        assert cert.labeling == (1, 1, -1, -1, 2, 2, -1, -1, -1)
        assert weight(cert.labeling) == 1
        assert_valid_at_claim(cert)

    def test_all_small_cases_valid(self):
        for m in range(2, 8):
            for n in range(m, 8):
                if m == 3 or n == 3:
                    continue
                assert_valid_at_claim(cert_join_complete(m, n))

    def test_guard(self):
        with pytest.raises(CertificateError):
            cert_join_complete(3, 5)
        with pytest.raises(CertificateError):
            cert_join_complete(4, 2)


class TestWheelFan:
    def test_n6(self):
        cert = cert_wheel_fan(6, "wheel")
        assert cert.labeling == (2, -1, -1, 1, -1, -1)
        assert cert.claimed_weight == -1

    def test_n4(self):
        cert = cert_wheel_fan(4, "wheel")
        assert cert.labeling == (2, -1, -1, 1)
        assert cert.claimed_weight == 1

    def test_n12(self):
        assert cert_wheel_fan(12, "fan").claimed_weight == -5

    def test_valid_both_families(self):
        for family in ("wheel", "fan"):
            for n in range(4, 15):
                assert_valid_at_claim(cert_wheel_fan(n, family))

    def test_guards(self):
        with pytest.raises(CertificateError):
            cert_wheel_fan(3, "wheel")
        with pytest.raises(CertificateError):
            cert_wheel_fan(6, "gear")


class TestComplements:
    def test_n12_labels(self):
        cert = cert_complement_path(12)
        assert cert.labeling == (1,) + (-1,) * 8 + (2, 2, 2)
        assert cert.claimed_weight == -1

    def test_n13_labels(self):
        # the "otherwise" clause of the n = 3k+1 case covers vertex 0 too
        cert = cert_complement_path(13)
        assert cert.labeling == (2,) + (-1,) * 9 + (2, 2, 2)
        assert weight(cert.labeling) == -1

    def test_n14_labels_and_no_defect(self):
        cert = cert_complement_path(14)
        assert cert.labeling == (1,) + (-1,) * 9 + (2, 2, 2) + (1,)
        # the n = 3k+2 index ranges tile 1..n exactly; nothing is
        # double-assigned or left uncovered
        assert cert.defects == ()

    def test_valid_range(self):
        for n in range(12, 21):
            assert_valid_at_claim(cert_complement_path(n))
            assert cert_complement_path(n).defects == ()

    def test_cycle_variant(self):
        for n in range(12, 16):
            cert = cert_complement_cycle(n)
            assert cert.graph == complement(cycle(n))
            assert_valid_at_claim(cert)

    def test_guard(self):
        with pytest.raises(CertificateError):
            cert_complement_path(11)


class TestCompleteMinusMatching:
    def test_n3(self):
        cert = cert_complete_minus_matching(3)
        assert cert.labeling == (2, -1, -1, -1, -1, 2)
        assert cert.claimed_weight == 0

    def test_n4(self):
        cert = cert_complete_minus_matching(4)
        assert cert.labeling == (2, -1, -1, -1, -1, -1, 1, 2)

    def test_valid_range(self):
        for n in range(3, 21):
            assert_valid_at_claim(cert_complete_minus_matching(n))


class TestCoronaK3:
    def test_figure_labeling(self):
        cert = cert_corona_k3(1)
        assert cert.labeling == (2, 2, 2, 1, -1, -1, -1, -1, -1, -1, -1, -1)
        assert cert.claimed_weight == -1

    def test_weight_and_majority_identity(self):
        for k in range(1, 5):
            cert = cert_corona_k3(k)
            report = validate(cert.graph, cert.labeling)
            assert report.is_valid
            assert report.weight == -k
            assert satisfied_count(cert.graph, cert.labeling) == 6 * k
            assert report.threshold == 6 * k


class TestCoronaGeneral:
    K1 = GraphSpec("complete", n=1)
    K2 = GraphSpec("complete", n=2)
    K3 = GraphSpec("complete", n=3)

    def test_upper_constructions(self):
        cert = cert_corona_general(self.K1, self.K3)
        assert cert.labeling == (2, 1, 1, -1)
        assert cert.claimed_weight == 3
        assert_valid_at_claim(cert)
        cert23 = cert_corona_general(self.K2, self.K3)
        assert cert23.claimed_weight == 2
        assert_valid_at_claim(cert23)
        cert33 = cert_corona_general(self.K3, self.K3)
        assert cert33.claimed_weight == 5
        assert_valid_at_claim(cert33)

    def test_hypothesis_guard(self):
        with pytest.raises(CertificateError):
            cert_corona_general(self.K2, GraphSpec("path", n=3))

    def test_floor_constructions(self):
        # the lower-bound labeling coincides with the K_3-corona one here
        cert = cert_corona_floor(self.K3, self.K3)
        assert cert.labeling == cert_corona_k3(1).labeling
        assert cert.claimed_weight == -1
        assert_valid_at_claim(cert)

    def test_floor_can_fail_majority(self):
        # with floor(n/m) = 0 no copy carries a +1 and the majority count
        # falls short; the construction proves nothing on these orders
        for g_spec in (self.K1, self.K2):
            cert = cert_corona_floor(g_spec, self.K3)
            report = validate(cert.graph, cert.labeling)
            assert report.weight == cert.claimed_weight
            assert not report.is_valid


class TestTreeDominationCert:
    def test_p3(self):
        cert = cert_tree_from_dominating_set(path(3), {1})
        assert cert.labeling == (-1, 2, -1)
        assert cert.claimed_weight == 0
        assert_valid_at_claim(cert)

    def test_p4(self):
        cert = cert_tree_from_dominating_set(path(4), {1, 2})
        assert cert.claimed_weight == 2
        assert_valid_at_claim(cert)

    def test_star(self):
        cert = cert_tree_from_dominating_set(star(6), {0})
        assert cert.claimed_weight == -3
        assert_valid_at_claim(cert)

    def test_rejects_bad_sets(self):
        with pytest.raises(CertificateError):
            cert_tree_from_dominating_set(path(4), {0})  # not dominating
        with pytest.raises(CertificateError):
            # complement {2, 3} holds an edge
            cert_tree_from_dominating_set(path(4), {0, 1})
        with pytest.raises(CertificateError):
            cert_tree_from_dominating_set(cycle(4), {0, 2})


class TestTreeSupportLeafCert:
    def test_base_cases(self):
        assert cert_tree_support_leaf(path(2)).labeling == (2, -1)
        cert = cert_tree_support_leaf(path(3))
        assert weight(cert.labeling) == 0
        assert validate(cert.graph, cert.labeling).is_valid
        cert = cert_tree_support_leaf(star(7))
        assert weight(cert.labeling) == -4
        assert validate(cert.graph, cert.labeling).is_valid

    def test_seeded_example(self):
        t = random_tree(10, 42)
        cert = cert_tree_support_leaf(t)
        report = validate(t, cert.labeling)
        assert report.is_valid
        s, l = count_supports_leaves(t)
        assert report.weight <= tree_support_leaf_bound(10, s, l)

    def test_random_trees_respect_bound(self):
        # a valid certificate is an upper bound on the optimum, and the
        # theorem's bound must dominate the optimum either way
        rng = random.Random(14)
        for _ in range(50):
            t = random_tree(rng.randint(2, 12), rng.randrange(2**32))
            cert = cert_tree_support_leaf(t)
            report = validate(t, cert.labeling)
            optimum = brute_force(t).optimum
            if report.is_valid:
                assert optimum <= report.weight
            s, l = count_supports_leaves(t)
            assert optimum <= tree_support_leaf_bound(t.n, s, l)

    def test_guard(self):
        with pytest.raises(CertificateError):
            cert_tree_support_leaf(cycle(5))

    def test_threshold_mode_reaches_inner_solve(self):
        # the stripped tree is solved in the requested mode, and on this
        # tree the floor-mode extension is lighter than the ceil-mode one
        t = random_tree(7, 22)
        ceil_cert = cert_tree_support_leaf(t)
        floor_cert = cert_tree_support_leaf(t, SolveOptions(threshold_mode="floor"))
        assert ceil_cert.labeling == (2, 2, -1, 2, -1, -1, -1)
        assert floor_cert.labeling == (-1, 2, -1, 2, -1, -1, -1)
        assert validate(t, floor_cert.labeling, "floor").is_valid
        ceil_opts = SolveOptions(threshold_mode="ceil")
        assert cert_tree_support_leaf(t, ceil_opts).labeling == ceil_cert.labeling

    def test_node_limit_reaches_inner_solve(self):
        # a truncated solve of the stripped tree is named as a defect; its
        # best labeling is still extended and validated downstream
        t = random_tree(30, 0)
        cert = cert_tree_support_leaf(t, SolveOptions(node_limit=500))
        assert cert.defects == ("stripped tree unproven: node limit 500 reached",)
        assert validate(t, cert.labeling).is_valid
        assert cert_tree_support_leaf(random_tree(10, 42)).defects == ()
