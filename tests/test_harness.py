"""Cross-validation harness: verdicts, suites, and export formats."""

import dataclasses
import json
from pathlib import Path

import pytest

from majroman import certificates, harness
from majroman.graph import GraphSpec, star
from majroman.harness import (
    TheoremReport,
    _verdict,
    check,
    corona_audit_instances,
    export,
    random_graph_suite,
    subadditivity_pairs,
)
from majroman.solver import SolveOptions, solve
from majroman.graph import generate, join


EXPECTED_COMPLETE_CSV = """spec,predicted,cert_weight,cert_valid,optimum,verdict
K_2,1,1,true,1,MATCH
K_3,2,2,true,2,MATCH
K_4,1,1,true,1,MATCH
K_5,1,1,true,1,MATCH
K_6,1,1,true,1,MATCH
K_7,1,1,true,1,MATCH
K_8,1,1,true,1,MATCH
K_9,1,1,true,1,MATCH
K_10,1,1,true,1,MATCH
"""


class TestExactFamilies:
    def test_complete_all_match_exact_csv(self):
        report = check("complete", range(2, 11))
        assert export(report, "csv") == EXPECTED_COMPLETE_CSV

    def test_star_all_match(self):
        report = check("star", range(2, 9))
        assert all(r.verdict == "MATCH" for r in report.rows)

    def test_wheel_fan_small(self):
        for theorem in ("wheel", "fan"):
            report = check(theorem, range(4, 9))
            assert all(r.verdict == "MATCH" for r in report.rows)

    def test_join_complete(self):
        report = check("join_complete", [(2, 2), (2, 4), (4, 4)])
        assert all(r.verdict == "MATCH" for r in report.rows)

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            check("fermat", [1])

    def test_invalid_certificate_before_unproven(self, monkeypatch):
        wheel_cert = certificates.CERTIFICATES["wheel"]

        def all_minus_one(n):
            cert = wheel_cert(n)
            return dataclasses.replace(cert, labeling=(-1,) * cert.graph.n)

        monkeypatch.setitem(certificates.CERTIFICATES, "wheel", all_minus_one)
        row = check("wheel", [13], SolveOptions(node_limit=10)).rows[0]
        assert row.optimum is None
        assert row.cert_valid is False
        assert row.verdict == "CERT_INVALID"


class TestVerdict:
    @pytest.mark.parametrize(
        "optimum, bound, kind, cert_valid, verdict",
        [
            (None, 1, "exact", False, "CERT_INVALID"),
            (1, 1, "upper", False, "CERT_INVALID"),
            (None, 1, "exact", True, "UNPROVEN"),
            (None, 1, "lower", True, "UNPROVEN"),
            (1, 1, "exact", True, "MATCH"),
            (2, 1, "exact", True, "MISMATCH"),
            (1, None, "exact", True, "MISMATCH"),
            (1, 1, "upper", True, "BOUND_TIGHT"),
            (0, 1, "upper", True, "BOUND_HOLDS"),
            (2, 1, "upper", True, "MISMATCH"),
            (1, 1, "lower", True, "BOUND_TIGHT"),
            (2, 1, "lower", True, "BOUND_HOLDS"),
            (0, 1, "lower", True, "MISMATCH"),
        ],
    )
    def test_order(self, optimum, bound, kind, cert_valid, verdict):
        assert _verdict(optimum, bound, kind, cert_valid) == verdict


class TestCoronaAudit:
    def test_instances(self):
        pairs = corona_audit_instances()
        assert len(pairs) == 8
        assert all(generate(g).n * (1 + generate(h).n) <= 14 for g, h in pairs)

    def test_upper_report_exposes_stated_mismatch(self):
        report = check("corona_upper", corona_audit_instances())
        assert len(report.rows) == 16
        by_spec = {r.spec: r for r in report.rows}
        row = by_spec["K_1oK_3/stated"]
        # the stated formula value 1 happens to equal the optimum, yet its
        # own construction weighs 3; the audit must flag the disagreement
        assert row.predicted == 1
        assert row.cert_weight == 3
        assert row.optimum == 1
        assert row.verdict == "MISMATCH"
        constr = by_spec["K_1oK_3/construction"]
        assert constr.predicted == 3
        assert constr.verdict == "BOUND_HOLDS"
        for r in report.rows:
            if r.spec.endswith("/construction"):
                assert r.cert_valid
                assert r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT")

    def test_lower_report(self):
        report = check("corona_lower", corona_audit_instances())
        assert len(report.rows) == 8
        assert all(
            r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT") for r in report.rows
        )


class TestTreeBounds:
    def test_classification_and_reproducibility(self):
        specs = [GraphSpec("random_tree", n=4 + (i % 7), seed=500 + i) for i in range(8)]
        first = check("tree_bounds", specs)
        second = check("tree_bounds", specs)
        assert export(first, "csv") == export(second, "csv")
        tags = {r.spec.rsplit("/", 1)[1] for r in first.rows}
        assert {"support_leaf", "independence_stated", "independence_proof"} <= tags
        for r in first.rows:
            assert r.verdict in (
                "MATCH",
                "BOUND_HOLDS",
                "BOUND_TIGHT",
                "MISMATCH",
                "CERT_INVALID",
            )

    def test_proven_bounds_never_mismatch(self):
        specs = [GraphSpec("random_tree", n=5 + (i % 6), seed=900 + i) for i in range(10)]
        report = check("tree_bounds", specs)
        for r in report.rows:
            tag = r.spec.rsplit("/", 1)[1]
            if tag in ("support_leaf", "domination"):
                assert r.verdict != "MISMATCH", r


    def test_floor_mode_reaches_certificate(self):
        spec = GraphSpec("random_tree", n=7, seed=22)
        weights = {
            mode: check("tree_bounds", [spec], SolveOptions(threshold_mode=mode))
            .rows[0]
            .cert_weight
            for mode in ("ceil", "floor")
        }
        assert weights == {"ceil": 2, "floor": -1}

    def test_large_tree_runs_under_node_limit(self):
        specs = [
            GraphSpec("random_tree", n=5, seed=1),
            GraphSpec("random_tree", n=25, seed=1),
        ]
        # auto would prove the large tree by the tree DP, which ignores the
        # node limit
        opts = SolveOptions(method="bb", node_limit=2000)
        report = check("tree_bounds", specs, opts)
        rows = {r.spec: r for r in report.rows}
        assert rows["T_n5_s1/support_leaf"].optimum is not None
        large = rows["T_n25_s1/support_leaf"]
        assert large.verdict == "UNPROVEN"
        assert large.cert_defects == (
            "stripped tree unproven: node limit 2000 reached",
        )

    def test_large_tree_proven_by_tree_dp(self):
        # auto sends both the tree and its stripped tree to the tree DP,
        # which ignores the node limit
        spec = GraphSpec("random_tree", n=25, seed=1)
        report = check("tree_bounds", [spec], SolveOptions(node_limit=2000))
        assert all(r.optimum is not None for r in report.rows)
        assert all(r.cert_defects == () for r in report.rows)

    def test_truncated_inner_solve_is_not_cert_invalid(self):
        # under this limit the stripped tree's best labeling extends to an
        # invalid labeling; that is no finding against the construction
        spec = GraphSpec("random_tree", n=17, seed=3)
        opts = SolveOptions(method="bb", node_limit=3000)
        row = check("tree_bounds", [spec], opts).rows[0]
        assert row.cert_valid is False and row.cert_defects
        assert row.verdict == "UNPROVEN"


class TestDeltaBound:
    def test_suite_properties(self):
        suite = random_graph_suite(20, 7)
        assert len(suite) == 20
        assert suite == random_graph_suite(20, 7)
        assert all(g.max_degree() >= 1 for _, g in suite)
        assert all(2 <= g.n <= 10 for _, g in suite)

    def test_holds_on_suite(self):
        report = check("delta_bound", random_graph_suite(20, 7))
        assert all(
            r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT") for r in report.rows
        )

    def test_tight_on_star(self):
        report = check("delta_bound", [("Star_6", star(6))])
        assert report.rows[0].verdict == "BOUND_TIGHT"


class TestSubadditivity:
    def test_no_mismatch_and_hypothesis_filter(self):
        pairs = subadditivity_pairs(15, 3)
        report = check(
            "subadditivity", pairs, SolveOptions(method="brute", brute_cap=16)
        )
        assert len(report.rows) <= len(pairs)
        assert all(
            r.verdict in ("BOUND_HOLDS", "BOUND_TIGHT") for r in report.rows
        )

    def test_witness_pair_equality(self):
        g = generate(GraphSpec("path", n=2))
        h = generate(GraphSpec("complete", n=1))
        assert solve(g).optimum == 1
        assert solve(h).optimum == 1
        assert solve(join(g, h)).optimum == 2

    def test_pairs_deterministic(self):
        assert subadditivity_pairs(10, 5) == subadditivity_pairs(10, 5)

    def test_unproven_operand_gives_unproven_row(self):
        # auto solves n <= 12 by brute force and K_13, which has more
        # edges than vertices, by branch and bound, which stops at five
        # nodes; W_8 is proven at -1
        pairs = [
            (GraphSpec("path", n=3), GraphSpec("complete", n=13)),
            (GraphSpec("complete", n=13), GraphSpec("path", n=3)),
            (GraphSpec("wheel", n=8), GraphSpec("complete", n=13)),
            (GraphSpec("path", n=2), GraphSpec("complete", n=1)),
        ]
        report = check("subadditivity", pairs, SolveOptions(node_limit=5))
        # an unproven operand gives no bound; a negative one fails the
        # hypothesis whatever the other operand is
        assert [(r.spec, r.predicted, r.optimum, r.verdict) for r in report.rows] == [
            ("P_3vK_13", None, None, "UNPROVEN"),
            ("K_13vP_3", None, None, "UNPROVEN"),
            ("P_2vK_1", 2, 2, "BOUND_TIGHT"),
        ]


class TestLemmaCheck:
    def test_holds(self):
        report = check("lemma", (50, 50))
        assert report.rows[0].verdict == "BOUND_HOLDS"


class TestExport:
    def test_header_only_when_empty(self):
        report = TheoremReport("empty")
        assert export(report, "csv") == (
            "spec,predicted,cert_weight,cert_valid,optimum,verdict\n"
        )

    def test_jsonl_parses(self):
        report = check("complete", [3])
        lines = export(report, "jsonl").strip().splitlines()
        row = json.loads(lines[0])
        assert row["spec"] == "K_3"
        assert row["optimum"] == 2
        assert row["verdict"] == "MATCH"
        assert row["cert_valid"] is True
        assert row["predicted"] == "2" and row["cert_defects"] == []
        fields = dataclasses.fields(harness.ReportRow)
        assert sorted(row) == sorted(f.name for f in fields)

    def test_table_layout(self):
        text = export(check("complete", [3]), "table")
        lines = text.splitlines()
        assert lines[0].split() == [
            "spec",
            "predicted",
            "cert_weight",
            "cert_valid",
            "optimum",
            "verdict",
        ]
        assert "K_3" in lines[2]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export(TheoremReport("x"), "xml")

    def test_csv_cells_comma_free(self):
        report = check("corona_upper", corona_audit_instances()[:2])
        for line in export(report, "csv").splitlines():
            assert line.count(",") == 5


class TestBenchmarkBindings:
    def test_probe_installs_and_restores(self, monkeypatch):
        # the benchmark wraps these harness names; a rename must fail here
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        import probe

        original = harness.brute_force
        p = probe.Probe(timed=True)
        p.install()
        try:
            assert harness.brute_force is not original
        finally:
            p.remove()
        assert harness.brute_force is original
