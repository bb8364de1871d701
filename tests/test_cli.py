"""End-to-end CLI behavior through main(argv)."""

import hashlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from majroman import formulas, harness
from majroman.certificates import CERTIFICATES
from majroman.cli import _spec_flags, main
from majroman.formulas import EXACT_VALUES, exact_value, predict
from majroman.graph import (
    FAMILIES,
    GraphError,
    GraphSpec,
    generate,
    serialize_edge_list,
)
from majroman.labeling import validate
from majroman.solver import SolveOptions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_complete_3(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "complete", "--n", "3")
        assert code == 0
        assert "optimum:  2" in out
        assert out.strip().splitlines()[-1].startswith("RESULT optimum=2")

    def test_deterministic_stdout(self, capsys):
        _, first, _ = run(capsys, "solve", "--family", "wheel", "--n", "8")
        _, second, _ = run(capsys, "solve", "--family", "wheel", "--n", "8")
        assert first == second

    def test_solve_from_file(self, capsys, tmp_path):
        path = tmp_path / "k3.el"
        path.write_text("3 3\n0 1\n0 2\n1 2\n")
        code, out, _ = run(capsys, "solve", "--file", str(path))
        assert code == 0 and "optimum=2" in out

    def test_requires_input(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 1 and "error:" in err

    def test_family_without_order(self, capsys):
        code, _, err = run(capsys, "solve", "--family", "path")
        assert code == 1 and "error: family path needs --n" in err

    def test_family_missing_second_parameter(self, capsys):
        code, _, err = run(capsys, "solve", "--family", "double_star", "--a", "2")
        assert code == 1 and "error: family double_star needs --b" in err

    def test_seed_rejected_where_not_a_parameter(self, capsys):
        code, out, err = run(
            capsys, "solve", "--family", "wheel", "--n", "8", "--seed", "2"
        )
        assert code == 1
        assert err == "error: wheel takes no --seed\n"
        assert out == ""

    def test_node_limit_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "solve", "--family", "complement_path", "--n", "30",
            "--node-limit", "20000",
        )
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert "best:" in out and "(unproven: node limit 20000 reached)" in out
        assert "nodes:    20000 " in out
        assert "optimum:" not in out
        assert out.strip().splitlines()[-1].endswith("proven=False")

    def test_node_limit_must_be_positive(self, capsys):
        code, out, err = run(
            capsys, "solve", "--family", "path", "--n", "4", "--node-limit", "0"
        )
        assert code == 1 and "error: --node-limit must be >= 1" in err
        assert "RESULT" not in out

    def test_path_200_by_tree_dp(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "path", "--n", "200")
        assert code == 0
        assert "optimum:  50" in out
        assert out.strip().splitlines()[-1].endswith("method=tree_dp proven=True")

    def test_tree_dp_needs_at_most_one_cycle(self, capsys):
        code, out, err = run(
            capsys, "solve", "--family", "wheel", "--n", "8", "--method", "dp"
        )
        assert code == 1
        assert err == (
            "error: tree_dp needs a connected graph with m <= n; "
            "this one has n=8, m=14\n"
        )
        assert "RESULT" not in out

    def test_tree_dp_above_cap(self, capsys):
        code, out, err = run(
            capsys, "solve", "--family", "path", "--n", "501", "--method", "dp"
        )
        assert code == 1
        assert "error: n=501 exceeds tree-DP cap 500" in err
        assert "RESULT" not in out

    def test_brute_force_above_cap(self, capsys):
        code, out, err = run(
            capsys, "solve", "--family", "wheel", "--n", "20", "--method", "brute"
        )
        assert code == 1
        assert "error: n=20 exceeds brute-force cap 16" in err
        assert "RESULT" not in out


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path", "--n", "3")
        assert code == 0
        assert out.startswith("3 2\n0 1\n1 2\n")

    def test_to_file_and_back(self, capsys, tmp_path):
        path = tmp_path / "w6.el"
        code, _, _ = run(
            capsys, "gen", "--family", "wheel", "--n", "6", "-o", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "solve", "--file", str(path))
        assert code == 0 and "optimum=-1" in out

    def test_seed_positions(self, capsys):
        _, after, _ = run(
            capsys, "gen", "--family", "random_tree", "--n", "7", "--seed", "3"
        )
        _, before, _ = run(
            capsys, "--seed", "3", "gen", "--family", "random_tree", "--n", "7"
        )
        assert after == before

    def test_seed_defaults_to_zero(self, capsys):
        _, unseeded, _ = run(capsys, "gen", "--family", "random_tree", "--n", "5")
        _, seeded, _ = run(
            capsys, "gen", "--family", "random_tree", "--n", "5", "--seed", "0"
        )
        assert unseeded == seeded

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "hypercube", "--n", "3")
        assert code == 1 and "unknown family" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["path", "--n", "3", "--k", "2"], "path takes no --k"),
            (
                ["double_star", "--a", "2", "--b", "3", "--n", "4"],
                "double_star takes no --n",
            ),
            (["cycle", "--n", "5", "--m", "2"], "cycle takes no --m"),
        ],
    )
    def test_flag_not_a_parameter(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", "--family", *argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""


class TestCert:
    def test_cpath_validate(self, capsys):
        code, out, _ = run(
            capsys, "cert", "--theorem", "cpath", "--n", "12", "--validate"
        )
        assert code == 0
        assert "valid=True" in out and "claimed:      -1" in out

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "cert", "--theorem", "riemann", "--n", "5")
        assert code == 1 and "unknown certificate theorem" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "cert", "--theorem", "join", "--n", "3")
        assert code == 1 and "error: theorem join needs --m" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["cert", "--theorem", "wheel", "--n", "6", "--m", "3"],
                "wheel takes no --m",
            ),
            (
                ["cert", "--theorem", "join", "--m", "2", "--n", "4", "--k", "1"],
                "join takes no --k",
            ),
            (
                ["--seed", "1", "cert", "--theorem", "cpath", "--n", "12"],
                "cpath takes no --seed",
            ),
        ],
    )
    def test_flag_not_a_parameter(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["wheel", "--n", "3"],
                "wheel: n=3 outside the closed form's domain (needs n >= 4)",
            ),
            (
                ["join", "--m", "3", "--n", "5"],
                "join_complete: m=3, n=5 outside the closed form's domain "
                "(needs 2 <= m <= n and m, n != 3)",
            ),
        ],
    )
    def test_outside_domain(self, capsys, argv, message):
        # the same message as check's pre-check
        code, out, err = run(capsys, "cert", "--theorem", *argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""


class TestCheck:
    def test_star_strict_all_match(self, capsys):
        code, out, _ = run(
            capsys, "check", "--theorem", "star", "--range", "2..12", "--strict"
        )
        assert code == 0
        assert "match=11" in out
        assert "MISMATCH" not in out

    def test_strict_flags_corona_stated_mismatch(self, capsys):
        code, out, _ = run(
            capsys, "check", "--theorem", "corona_upper", "--strict"
        )
        assert code == 2
        assert "MISMATCH" in out

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            "check",
            "--theorem",
            "complete",
            "--range",
            "2..5",
            "--csv",
            str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "spec,predicted,cert_weight,cert_valid,optimum,verdict"
        assert "K_3,2,2,true,2,MATCH" in lines

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        code, _, _ = run(
            capsys, "check", "--theorem", "wheel", "--range", "4..5",
            "--json", str(path),
        )
        assert code == 0
        report = harness.check("wheel", [4, 5], SolveOptions())
        assert path.read_text() == harness.export(report, "jsonl")
        assert len(path.read_text().splitlines()) == 2

    def test_rows_past_brute_cap_unproven(self, capsys):
        # brute force refuses n = 17, so every row of the tree is UNPROVEN
        code, out, _ = run(
            capsys, "check", "--theorem", "tree_bounds", "--method", "brute",
            "--range", "17..17", "--count", "1",
        )
        assert code == 0
        assert out.count("UNPROVEN") == 3
        assert out.splitlines()[-1] == "RESULT theorem=tree_bounds rows=3 unproven=3"

    def test_malformed_range(self, capsys):
        code, _, err = run(
            capsys, "check", "--theorem", "star", "--range", "2-12"
        )
        assert code == 1 and "malformed range" in err

    def test_range_of_non_integers(self, capsys):
        code, out, err = run(
            capsys, "check", "--theorem", "star", "--range", "a..b"
        )
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == (
            "error: malformed range 'a..b'; expected integers"
        )

    def test_unknown_theorem(self, capsys):
        code, out, err = run(capsys, "check", "--theorem", "nosuch")
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: unknown theorem id 'nosuch'"

    @pytest.mark.parametrize("theorem", ["wheel", "join_complete"])
    def test_missing_range(self, capsys, theorem):
        code, _, err = run(capsys, "check", "--theorem", theorem)
        assert code == 1 and "error: missing --range" in err

    def test_empty_range(self, capsys):
        code, out, err = run(
            capsys, "check", "--theorem", "tree_bounds", "--range", "5..4"
        )
        assert code == 1 and "error: empty range '5..4'" in err
        assert "RESULT" not in out

    @pytest.mark.parametrize(
        "theorem, rng, n, reason",
        [
            ("complete", "1..3", 1, "needs n >= 2"),
            ("fan", "2..5", 2, "needs n >= 4"),
            ("complement_path", "2..5", 2, "needs n >= 12"),
            ("complete_minus_matching", "1..3", 1, "needs n >= 3"),
        ],
    )
    def test_order_outside_domain(self, capsys, theorem, rng, n, reason):
        code, out, err = run(capsys, "check", "--theorem", theorem, "--range", rng)
        assert code == 1
        assert (
            f"error: {theorem}: n={n} outside the closed form's domain ({reason})"
            in err
        )
        assert out == ""

    @pytest.mark.parametrize("rng, lo", [("3..3", 3), ("1..1", 1)])
    def test_range_covering_no_pair(self, capsys, rng, lo):
        # an empty table would pass --strict without checking anything
        code, out, err = run(
            capsys, "check", "--theorem", "join_complete", "--range", rng, "--strict"
        )
        assert code == 1
        assert err == (
            f"error: join_complete: m={lo}, n={lo} outside the closed form's "
            "domain (needs 2 <= m <= n and m, n != 3)\n"
        )
        assert out == ""

    @pytest.mark.parametrize(
        "theorem, flag",
        [
            pytest.param(t, f, id=t if f == "range" else f"{t}-{f}")
            for f in ("range", "count", "seed")
            for t, entry in harness.THEOREMS.items()
            if f not in entry.flags
        ],
    )
    def test_range_rejected_where_unread(self, capsys, theorem, flag):
        # these theorems build their instances without the flag; a narrowed
        # or reseeded run must not silently become the default one
        argv = {
            "range": ["--range", "1..3", "--count", "2"],
            "count": ["--count", "2"],
            "seed": ["--seed", "5"],
        }[flag]
        code, out, err = run(capsys, "check", "--theorem", theorem, *argv)
        assert code == 1
        assert err == f"error: {theorem} takes no --{flag}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv", [["wheel", "--range", "4..4"], ["lemma"], ["corona_lower"]]
    )
    def test_seed_before_check_rejected_where_unread(self, capsys, argv):
        # a global --seed is given too, even at its default value
        code, out, err = run(capsys, "--seed", "0", "check", "--theorem", *argv)
        assert code == 1
        assert err == f"error: {argv[0]} takes no --seed\n"
        assert out == ""

    @pytest.mark.parametrize("theorem", ["tree_bounds", "delta_bound", "subadditivity"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_rejected(self, capsys, theorem, count):
        code, out, err = run(
            capsys, "check", "--theorem", theorem, "--count", count
        )
        assert code == 1
        assert "error: --count must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("rng, n", [("1..3", 1), ("0..0", 0)])
    def test_tree_bounds_order_below_two_rejected(self, capsys, rng, n):
        # rejected before any solve, naming the theorem and the order
        code, out, err = run(
            capsys, "check", "--theorem", "tree_bounds", "--range", rng
        )
        assert code == 1
        assert (
            f"error: tree_bounds: n={n} outside the theorem's domain "
            "(needs n >= 2)" in err
        )
        assert out == ""

    def test_node_limit_leaves_rows_unproven(self, capsys):
        code, out, _ = run(
            capsys, "check", "--theorem", "wheel", "--range", "13..13",
            "--node-limit", "50",
        )
        assert code == 0
        assert "RESULT theorem=wheel rows=1 unproven=1" in out

    def test_subadditivity_unproven_operands_are_rows(self, capsys):
        code, out, _ = run(
            capsys, "check", "--theorem", "subadditivity", "--count", "2",
            "--method", "bb", "--node-limit", "5",
        )
        assert code == 0
        assert out.splitlines()[-1] == "RESULT theorem=subadditivity rows=2 unproven=2"

    def test_result_line_without_rows_has_no_trailing_space(self, capsys, monkeypatch):
        entry = harness.THEOREMS["subadditivity"]
        monkeypatch.setitem(
            harness.THEOREMS, "subadditivity", entry._replace(instances=lambda: [])
        )
        code, out, _ = run(capsys, "check", "--theorem", "subadditivity")
        assert code == 0
        assert out.splitlines()[-1] == "RESULT theorem=subadditivity rows=0"

    def test_star_by_tree_dp(self, capsys):
        code, out, _ = run(
            capsys, "check", "--theorem", "star", "--range", "13..14",
            "--method", "dp", "--strict",
        )
        assert code == 0
        assert out.splitlines()[-1] == "RESULT theorem=star rows=2 match=2"

    def test_tree_bounds_beyond_brute_range_under_node_limit(self, capsys):
        # trees of any order run under branch and bound: the row solve and
        # the certificate's inner solve both stop at the node limit
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "check", "--theorem", "tree_bounds", "--range", "30..30",
            "--count", "2", "--method", "bb", "--node-limit", "20000",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert "RESULT theorem=tree_bounds rows=6 unproven=6" in out

    @pytest.mark.parametrize(
        "theorem, rng, matches",
        [("complete_minus_matching", "9..10", 2), ("complement_path", "12..40", 29)],
    )
    def test_dense_families_proven_at_root(self, capsys, theorem, rng, matches):
        # the certificate meets the majority lower bound, so branch and
        # bound proves it without a search
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "check", "--theorem", theorem, "--range", rng, "--strict"
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert out.strip().splitlines()[-1] == (
            f"RESULT theorem={theorem} rows={matches} match={matches}"
        )

    def test_lemma_default_run_pinned(self, capsys, tmp_path):
        csv = tmp_path / "lemma.csv"
        code, out, err = run(capsys, "check", "--theorem", "lemma", "--csv", str(csv))
        assert (code, err) == (0, "")
        assert out == (
            "spec           predicted  cert_weight  cert_valid  optimum  verdict    \n"
            "-------------  ---------  -----------  ----------  -------  -----------\n"
            "n<=500_m<=500  1                                   1        BOUND_HOLDS\n"
            "RESULT theorem=lemma rows=1 bound_holds=1\n"
        )
        assert csv.read_text() == (
            "spec,predicted,cert_weight,cert_valid,optimum,verdict\n"
            "n<=500_m<=500,1,,,1,BOUND_HOLDS\n"
        )

    @pytest.mark.parametrize(
        "argv, lines, digest",
        [
            (
                ["tree_bounds"],
                187,
                "d3212c32e5687e4b5120e69b25579dfea30d5932164b57f7885148acc885db0c",
            ),
            (
                # holds the CERT_INVALID row T_n19_s19/support_leaf
                ["tree_bounds", "--range", "14..20", "--count", "50"],
                163,
                "54a159af5b5679f3bbd421eb943b412de39e25cd9fda8fbb1399beb89d39794d",
            ),
            (
                ["wheel", "--range", "4..14"],
                12,
                "8d01c2ba4e94b7221714e77245b3369da609b956af2dabd578f3200b25e56961",
            ),
        ],
        ids=lambda x: "_".join(x) if isinstance(x, list) else "",
    )
    def test_check_csv_pinned(self, capsys, tmp_path, argv, lines, digest):
        csv = tmp_path / "out.csv"
        code, _, _ = run(capsys, "check", "--theorem", *argv, "--csv", str(csv))
        text = csv.read_bytes()
        assert code == 0
        assert (text.count(b"\n"), hashlib.sha256(text).hexdigest()) == (lines, digest)


class TestBoundsAndLemma:
    def test_bounds_family(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "star", "--n", "5")
        assert code == 0
        assert "star: exact -2" in out
        assert "delta lower bound: -2" in out
        assert "majority lower bound: -2" in out

    @pytest.mark.parametrize(
        "argv", [["complement_cycle", "--n", "3"], ["path", "--n", "1"]]
    )
    def test_bounds_family_edgeless(self, capsys, argv):
        # the delta bound would read 2n on Cbar_3, above its optimum n
        code, out, _ = run(capsys, "bounds", "--family", *argv)
        assert code == 0
        assert "delta lower bound: inapplicable (no edge)\n" in out

    def test_bounds_tree_file(self, capsys, tmp_path):
        path = tmp_path / "p4.el"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "bounds", "--tree", str(path))
        assert code == 0
        assert "gamma=2" in out and "support_leaf=2" in out
        assert "domination=2" in out
        # P_6 has gamma = 2 < n - beta0 = 3: 3*gamma - n = 0 is no bound
        # (its optimum is 2), so none is printed
        path = tmp_path / "p6.el"
        path.write_text("6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        code, out, _ = run(capsys, "bounds", "--tree", str(path))
        assert code == 0
        assert "domination upper bound:      inapplicable (gamma != n - beta0)" in out
        assert "domination=None" in out

    @pytest.mark.parametrize(
        "spec, stdout",
        [
            (
                GraphSpec("path", n=4),
                "tree: n=4 gamma=2 beta0=2 supports=2 leaves=2\n"
                "support/leaf upper bound:    2\n"
                "domination upper bound:      2\n"
                "independence bounds:         stated=6 proof=2\n"
                "RESULT n=4 gamma=2 beta0=2 support_leaf=2 domination=2 "
                "independence_stated=6 independence_proof=2\n",
            ),
            (
                # the domination hypothesis fails: gamma = 2 < n - beta0 = 3
                GraphSpec("path", n=6),
                "tree: n=6 gamma=2 beta0=3 supports=2 leaves=2\n"
                "support/leaf upper bound:    3\n"
                "domination upper bound:      inapplicable (gamma != n - beta0)\n"
                "independence bounds:         stated=9 proof=3\n"
                "RESULT n=6 gamma=2 beta0=3 support_leaf=3 domination=None "
                "independence_stated=9 independence_proof=3\n",
            ),
            (
                GraphSpec("star", n=5),
                "tree: n=5 gamma=1 beta0=4 supports=1 leaves=4\n"
                "support/leaf upper bound:    -2\n"
                "domination upper bound:      -2\n"
                "independence bounds:         stated=6 proof=-2\n"
                "RESULT n=5 gamma=1 beta0=4 support_leaf=-2 domination=-2 "
                "independence_stated=6 independence_proof=-2\n",
            ),
        ],
        ids=lambda x: x.label() if isinstance(x, GraphSpec) else "",
    )
    def test_bounds_tree_stdout_pinned(self, capsys, tmp_path, spec, stdout):
        path = tmp_path / "tree.el"
        path.write_text(serialize_edge_list(generate(spec)))
        code, out, err = run(capsys, "bounds", "--tree", str(path))
        assert (code, out, err) == (0, stdout, "")

    def test_bounds_family_flag_not_a_parameter(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--family", "star", "--n", "5", "--a", "1"
        )
        assert code == 1
        assert err == "error: star takes no --a\n"
        assert out == ""

    def test_bounds_requires_input(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 1 and "error:" in err

    def test_lemma_grid(self, capsys, monkeypatch):
        # every cell of the 100 x 98 grid, 1 <= n <= 100 and 3 <= m <= 100
        cells = []
        holds = formulas.lemma_inequality_holds
        monkeypatch.setattr(
            formulas,
            "lemma_inequality_holds",
            lambda n, m: cells.append((n, m)) or holds(n, m),
        )
        code, out, _ = run(capsys, "check", "--theorem", "lemma", "--range", "1..100")
        assert code == 0
        assert "n<=100_m<=100  1" in out
        assert out.splitlines()[-1] == "RESULT theorem=lemma rows=1 bound_holds=1"
        assert cells == list(itertools.product(range(1, 101), range(3, 101)))

    @pytest.mark.parametrize("rng", ["0..5", "1..2"])
    def test_lemma_grid_too_small(self, capsys, rng):
        code, out, err = run(
            capsys, "check", "--theorem", "lemma", "--range", rng, "--strict"
        )
        assert code == 1
        assert err == (
            f"error: lemma: range {rng} outside the theorem's domain "
            "(needs n >= 1 and some m >= 3)\n"
        )
        assert out == ""

    def test_lemma_failure_is_mismatch(self, capsys, monkeypatch):
        # one MISMATCH row per failing cell, in row order
        failing = {(7, 3), (2, 4)}
        holds = formulas.lemma_inequality_holds
        monkeypatch.setattr(
            formulas,
            "lemma_inequality_holds",
            lambda n, m: (n, m) not in failing and holds(n, m),
        )
        code, out, _ = run(capsys, "check", "--theorem", "lemma", "--strict")
        assert code == 2
        assert [line.split() for line in out.splitlines()[2:4]] == [
            ["n=2_m=4", "1", "0", "MISMATCH"],
            ["n=7_m=3", "1", "0", "MISMATCH"],
        ]
        assert out.splitlines()[-1] == "RESULT theorem=lemma rows=2 mismatch=2"

    def test_lemma_subcommand_removed(self, capsys):
        code, out, err = run(capsys, "lemma", "--n-max", "5")
        assert code == 1
        assert err.startswith("usage: majroman")
        assert "error: argument command: invalid choice: 'lemma'" in err
        assert out == ""

    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{solve,gen,cert,check,bounds}" in capsys.readouterr().out


class TestGlobalFlags:
    def test_floor_mode_marked_experimental(self, capsys):
        code, out, _ = run(
            capsys,
            "--threshold-mode",
            "floor",
            "solve",
            "--family",
            "path",
            "--n",
            "4",
        )
        assert code == 0
        assert "EXPERIMENTAL" in out

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--file", "/no/such/file.el")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("solve --file F --family wheel --n 9", "solve --file takes no --family"),
            ("solve --file F --n 3", "solve --file takes no --n"),
            ("--seed 1 solve --file F", "solve --file takes no --seed"),
            ("bounds --tree F --family star --n 4", "bounds --tree takes no --family"),
            ("bounds --tree F --b 2", "bounds --tree takes no --b"),
            (
                "--threshold-mode ceil bounds --tree F",
                "bounds --tree takes no --threshold-mode",
            ),
            (
                "--threshold-mode floor gen --family path --n 3",
                "gen takes no --threshold-mode",
            ),
            ("check --theorem lemma --node-limit 5", "lemma takes no --node-limit"),
            ("check --theorem lemma --method bb", "lemma takes no --method"),
            (
                "--threshold-mode floor check --theorem lemma",
                "lemma takes no --threshold-mode",
            ),
            (
                "--threshold-mode floor cert --theorem wheel --n 7",
                "cert without --validate takes no --threshold-mode",
            ),
            (
                "solve --family path --n 3 --method brute --node-limit 5",
                "solve --method brute takes no --node-limit",
            ),
            (
                "check --theorem wheel --range 4..5 --method brute --node-limit 5",
                "check --method brute takes no --node-limit",
            ),
            (
                "solve --family path --n 3 --method dp --node-limit 5",
                "solve --method dp takes no --node-limit",
            ),
            (
                "check --theorem star --range 4..5 --method dp --node-limit 5",
                "check --method dp takes no --node-limit",
            ),
        ],
    )
    def test_unread_flag_rejected(self, capsys, tmp_path, argv, message):
        # F names no file: the flag is rejected before any file is read
        missing = str(tmp_path / "absent.el")
        code, out, err = run(
            capsys, *[missing if a == "F" else a for a in argv.split()]
        )
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--family", "wheel", "--n", "7"],
            ["check", "--theorem", "wheel", "--range", "4..5"],
            ["cert", "--theorem", "wheel", "--n", "6", "--validate"],
            ["bounds", "--family", "path", "--n", "5"],
        ],
    )
    def test_threshold_mode_defaults_to_ceil(self, capsys, argv):
        _, unset, _ = run(capsys, *argv)
        code, ceil, _ = run(capsys, "--threshold-mode", "ceil", *argv)
        assert code == 0 and ceil == unset
        code, floor, _ = run(capsys, "--threshold-mode", "floor", *argv)
        assert code == 0 and floor != unset


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "majroman", "check", "--theorem", "star",
         "--range", "2..4"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT theorem=star rows=3 match=3"


def _smallest_params(family):
    """The first parameters over 0..15 that the family accepts, and for an
    exact family the first its value covers."""
    for params in itertools.product(range(16), repeat=len(FAMILIES[family].fields)):
        if family in EXACT_VALUES:
            if exact_value(family, *params) is not None:
                return params
            continue
        try:
            generate(GraphSpec.of(family, *params))
        except GraphError:
            continue
        return params
    raise AssertionError(f"no parameters found for {family}")


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_table(capsys, family):
    params = _smallest_params(family)
    spec = GraphSpec.of(family, *params)
    assert "," not in spec.label()
    flags = [a for f, v in zip(_spec_flags(family), params) for a in (f"--{f}", str(v))]
    code, out, _ = run(capsys, "gen", "--family", family, *flags)
    assert code == 0
    assert out.splitlines()[-1].startswith(f"RESULT family={spec.label()} ")
    if family in EXACT_VALUES:
        cert = CERTIFICATES[family](*params)
        report = validate(cert.graph, cert.labeling)
        (prediction,) = predict(spec)
        assert report.is_valid and report.weight == prediction.value


# a small run of each theorem that is not an exact family, giving only
# the flags it reads
_SMALL_CHECKS = {
    "corona_upper": [],
    "corona_lower": [],
    "tree_bounds": ["--range", "4..5", "--count", "2"],
    "delta_bound": ["--count", "2"],
    "subadditivity": ["--count", "2"],
    "lemma": ["--range", "1..10"],
}


def test_theorem_table_complete():
    assert set(harness.THEOREMS) == set(EXACT_VALUES) | set(_SMALL_CHECKS)


@pytest.mark.parametrize("theorem", list(harness.THEOREMS))
def test_theorem_table(capsys, theorem):
    if theorem in EXACT_VALUES:
        params = _smallest_params(theorem)
        argv = ["--range", f"{min(params)}..{max(params)}"]
    else:
        argv = _SMALL_CHECKS[theorem]
    assert {a[2:] for a in argv if a.startswith("--")} <= set(
        harness.THEOREMS[theorem].flags
    )
    code, out, err = run(capsys, "check", "--theorem", theorem, *argv)
    assert code == 0, err
    last = out.splitlines()[-1]
    assert last.startswith(f"RESULT theorem={theorem} rows=")
    assert "rows=0" not in last
