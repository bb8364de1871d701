"""Acceptance suite: thirteen exact, zero-tolerance criteria.

Each test emits exactly one "criterion NN PASS/FAIL" line (collected into
the terminal summary by conftest). Timing limits apply to criteria 1
(< 1 s), 2 (< 5 min, branch and bound) and 11 (< 1 s).
"""

import random
import time
from contextlib import contextmanager

from majroman import formulas, harness
from majroman.certificates import (
    cert_complement_cycle,
    cert_complement_path,
    cert_complete_minus_matching,
    cert_corona_k3,
    cert_join_complete,
    cert_star,
)
from majroman.graph import (
    GraphSpec,
    complete,
    corona,
    generate,
    gnp,
    join,
    random_tree,
    star,
)
from majroman.labeling import satisfied_count, validate
from majroman.solver import (
    SolveOptions,
    branch_and_bound,
    brute_force,
    delta_lower_bound,
)

from conftest import ACCEPTANCE_LINES


@contextmanager
def criterion(num, description, time_limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num:02d} FAIL: {description}")
        print(ACCEPTANCE_LINES[-1])
        raise
    elapsed = time.perf_counter() - t0
    line = f"criterion {num:02d} PASS: {description} ({elapsed:.2f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    if time_limit is not None:
        assert elapsed < time_limit, (
            f"criterion {num} exceeded {time_limit}s: {elapsed:.2f}s"
        )


def seeded_exact(g, labeling):
    """Exact optimum: brute force up to 12 vertices, seeded search above."""
    if g.n <= 12:
        return brute_force(g).optimum
    return branch_and_bound(g, seed_labeling=labeling).optimum


def test_criterion_01_complete_graphs():
    with criterion(1, "complete graphs K_n exact for n in [2,10]", 1.0):
        for n in range(2, 11):
            expected = 2 if n == 3 else 1
            assert brute_force(complete(n)).optimum == expected


def test_criterion_02_wheels_and_fans():
    with criterion(
        2, "wheels and fans exact via branch and bound for n in [4,14]", 300.0
    ):
        for n in range(4, 15):
            expected = 2 * formulas.ceil_div(n, 6) - n + 3
            for family in ("wheel", "fan"):
                g = generate(GraphSpec(family, n=n))
                assert branch_and_bound(g).optimum == expected


def test_criterion_03_stars():
    with criterion(3, "stars exact 3 - n for n in [2,14]"):
        for n in range(2, 15):
            assert seeded_exact(star(n), cert_star(n).labeling) == 3 - n


def test_criterion_04_complements():
    with criterion(4, "path and cycle complements exact -1 for n in [12,15]"):
        for n in range(12, 16):
            for cert in (cert_complement_path(n), cert_complement_cycle(n)):
                assert seeded_exact(cert.graph, cert.labeling) == -1


def test_criterion_05_complete_minus_matching():
    with criterion(
        5, "K_{2n}-M exact 0 for n in [3,7]; labeling valid up to n = 20"
    ):
        for n in range(3, 8):
            cert = cert_complete_minus_matching(n)
            assert seeded_exact(cert.graph, cert.labeling) == 0
        for n in range(3, 21):
            cert = cert_complete_minus_matching(n)
            report = validate(cert.graph, cert.labeling)
            assert report.is_valid and report.weight == 0


def test_criterion_06_join_of_completes():
    with criterion(
        6, "joins of completes exact 1 for 2 <= m <= n <= 7, m,n != 3"
    ):
        for m in range(2, 8):
            for n in range(m, 8):
                if m == 3 or n == 3:
                    continue
                cert = cert_join_complete(m, n)
                value = seeded_exact(cert.graph, cert.labeling)
                assert value == 1
                # consistency: the join of completes is K_{m+n}
                assert cert.graph == complete(m + n)
                assert value == formulas.exact_value("complete", m + n)


def test_criterion_07_corona_k3():
    with criterion(
        7, "K_3 o K_3 exact -1; K_{3k} o K_3 certificates for k in [1,10]"
    ):
        optimum = brute_force(corona(complete(3), complete(3))).optimum
        assert optimum == -1
        for k in range(1, 11):
            cert = cert_corona_k3(k)
            report = validate(cert.graph, cert.labeling)
            assert report.is_valid
            assert report.weight == -k
            assert satisfied_count(cert.graph, cert.labeling) == 6 * k
        assert cert_corona_k3(1).claimed_weight == optimum


def test_criterion_08_delta_lower_bound():
    with criterion(
        8, "degree lower bound on 300 random graphs; sharp on stars"
    ):
        for _, g in harness.random_graph_suite(300, seed=20240817):
            assert brute_force(g).optimum >= delta_lower_bound(g)
        for n in range(2, 15):
            g = star(n)
            assert (
                seeded_exact(g, cert_star(n).labeling)
                == delta_lower_bound(g)
                == 3 - n
            )


def test_criterion_09_tree_bounds():
    with criterion(
        9, "tree bound harness classifies 200 random trees reproducibly"
    ):
        rng = random.Random(90210)
        specs = [
            GraphSpec("random_tree", n=rng.randint(4, 13), seed=rng.randrange(2**31))
            for _ in range(200)
        ]
        opts = SolveOptions(method="brute", brute_cap=16)
        report = harness.check("tree_bounds", specs, opts)
        instances = {r.spec.rsplit("/", 1)[0] for r in report.rows}
        assert len(instances) == 200
        for r in report.rows:
            tag = r.spec.rsplit("/", 1)[1]
            assert r.verdict != "UNPROVEN"
            # (a) and (b) are proven bounds; a violation would be a solver
            # or transcription bug, so zero tolerance here
            if tag in ("support_leaf", "domination"):
                assert r.verdict in (
                    "BOUND_HOLDS",
                    "BOUND_TIGHT",
                    "CERT_INVALID",
                ), r
        # (c) both independence candidates are recorded for every instance
        for label in instances:
            tags = {
                r.spec.rsplit("/", 1)[1]
                for r in report.rows
                if r.spec.rsplit("/", 1)[0] == label
            }
            assert {"independence_stated", "independence_proof"} <= tags
        # reproducibility of the report
        again = harness.check("tree_bounds", specs[:25], opts)
        head = [r for r in report.rows if r.spec.rsplit("/", 1)[0] in
                {s.label() for s in specs[:25]}]
        assert harness.export(again, "csv") == harness.export(
            harness.TheoremReport("tree_bounds", head), "csv"
        )


def test_criterion_10_corona_bounds_audit():
    with criterion(
        10, "corona audit flags the stated upper bound at (n,m) = (1,3)"
    ):
        instances = harness.corona_audit_instances(14)
        lower = harness.check("corona_lower", instances)
        assert all(
            r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT") for r in lower.rows
        )
        upper = harness.check("corona_upper", instances)
        by_spec = {r.spec: r for r in upper.rows}
        flagged = by_spec["K_1oK_3/stated"]
        assert flagged.verdict == "MISMATCH"
        assert flagged.predicted == 1
        assert flagged.cert_weight == 3
        assert flagged.optimum == 1
        for r in upper.rows:
            if r.spec.endswith("/construction"):
                assert r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT")
        # the disagreement is visible in the exported report
        assert "K_1oK_3/stated,1,3,true,1,MISMATCH" in harness.export(
            upper, "csv"
        )


def test_criterion_11_floor_ceiling_lemma():
    with criterion(
        11, "floor/ceiling inequality exhaustive on [1,500] x [3,500]", 1.0
    ):
        assert all(
            formulas.lemma_inequality_holds(n, m)
            for n in range(1, 501)
            for m in range(3, 501)
        )


def test_criterion_12_join_subadditivity():
    with criterion(
        12, "join subadditivity on 50 sampled pairs; tight at P_2 v K_1"
    ):
        pairs = harness.subadditivity_pairs(50, seed=31337)
        opts = SolveOptions(method="brute", brute_cap=16)
        report = harness.check("subadditivity", pairs, opts)
        assert report.rows
        assert all(
            r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT") for r in report.rows
        )
        g, h = generate(GraphSpec("path", n=2)), complete(1)
        left = brute_force(join(g, h)).optimum
        assert left == 2 == brute_force(g).optimum + brute_force(h).optimum


def test_criterion_13_oracle_equivalence():
    with criterion(
        13, "branch and bound equals brute force on 500 random graphs"
    ):
        rng = random.Random(777)
        for i in range(500):
            n = rng.randint(1, 10)
            if i % 2 == 0:
                g = random_tree(n, rng.randrange(2**32))
            else:
                g = gnp(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(2**32))
            assert branch_and_bound(g).optimum == brute_force(g).optimum
