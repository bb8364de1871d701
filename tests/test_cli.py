"""End-to-end CLI behavior through main(argv)."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from majroman.certificates import CERTIFICATES
from majroman.cli import _spec_flags, main
from majroman.formulas import EXACT_VALUES, exact_value, predict
from majroman.graph import FAMILIES, GraphError, GraphSpec, generate
from majroman.labeling import validate


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

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "hypercube", "--n", "3")
        assert code == 1 and "unknown family" in err


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

    def test_malformed_range(self, capsys):
        code, _, err = run(
            capsys, "check", "--theorem", "star", "--range", "2-12"
        )
        assert code == 1 and "malformed range" in err

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
        "theorem",
        ["corona_upper", "corona_lower", "delta_bound", "subadditivity", "lemma"],
    )
    def test_range_rejected_where_unread(self, capsys, theorem):
        # these theorems build their instances without --range; a narrowed
        # run must not silently become the default one
        code, out, err = run(
            capsys, "check", "--theorem", theorem, "--range", "1..3", "--count", "2"
        )
        assert code == 1
        assert err == f"error: {theorem} takes no --range\n"
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

    def test_tree_bounds_beyond_brute_range_under_node_limit(self, capsys):
        # trees of any order run: the row solve and the certificate's
        # inner solve both stop at the node limit
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "check", "--theorem", "tree_bounds", "--range", "30..30",
            "--count", "2", "--node-limit", "20000",
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


class TestBoundsAndLemma:
    def test_bounds_family(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "star", "--n", "5")
        assert code == 0
        assert "star: exact -2" in out
        assert "delta lower bound: -2" in out
        assert "majority lower bound: -2" in out

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

    def test_bounds_requires_input(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 1 and "error:" in err

    def test_lemma_grid(self, capsys):
        code, out, _ = run(capsys, "lemma", "--n-max", "100", "--m-max", "100")
        assert code == 0
        assert "inequality holds on 100x98 grid" in out
        assert "RESULT holds=True checked=9800" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--n-max", "0", "--n-max must be >= 1"), ("--m-max", "1", "--m-max must be >= 3")],
    )
    def test_lemma_grid_too_small(self, capsys, flag, value, message):
        code, out, err = run(capsys, "lemma", flag, value)
        assert code == 1 and f"error: {message}" in err
        assert "RESULT" not in out


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
