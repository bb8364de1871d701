"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one full pass through
the program's public API, and then checks that pass's output instance by
instance. The checks run after the timed pass and outside any span.

Why these four (each loads different layers; see README.md):

* ``tree_audit``   -- brute force, including the second solve inside
  ``cert_tree_support_leaf``; the criterion-09 configuration.
* ``family_bb``    -- certificate-seeded branch and bound on dense family
  graphs, through ``cli.main`` and ``harness.export``; no brute force.
* ``bb_reach``     -- unseeded ``solve(method="auto")`` beyond the brute
  range under one node limit; pruning and dispatch show as proven_frac.
* ``small_oracle`` -- hundreds of tiny graphs through both exact routes;
  per-call overhead dominates, so an optimisation for large n is bypassed.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from majroman import cli, graph, harness, labeling, solver
from majroman.graph import GraphSpec
from majroman.solver import SolveOptions


@dataclass
class Outcome:
    """One instance of one pass."""

    instance: str
    proven: bool = False
    failure: Optional[str] = None


def _witness_failure(solve) -> Optional[str]:
    """Why a solver result is not a validated optimum, or None."""
    res = solve.result
    report = labeling.validate(solve.graph, res.witness)
    if not report.is_valid:
        return f"{solve.site} witness rejected by validate"
    if report.weight != res.optimum:
        return f"{solve.site} witness weight {report.weight} != optimum {res.optimum}"
    return None


def _csv_rows(text: str) -> List[List[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != harness._CSV_HEADER:
        raise ValueError("CSV export has an unexpected header")
    return [line.split(",") for line in lines[1:]]


def _fail(outcomes: List[Outcome], reason: str) -> List[Outcome]:
    for o in outcomes:
        o.proven = False
        o.failure = o.failure or reason
    return outcomes


class TreeAudit:
    """``harness.check("tree_bounds")`` over seeded random trees.

    The orders are fixed and only the tree shapes depend on the seed:
    brute-force cost is 3^n, so a seeded choice of n would make the pass
    time depend on the seed far more than any code change does.
    """

    name = "tree_audit"
    ORDERS = (9, 10, 11, 12, 13) * 2
    OPTIONS = SolveOptions(method="brute", brute_cap=16, thread_count=2)
    # (a) and (b) are proven bounds; the independence rows are audit
    # findings and may legitimately read MISMATCH
    PROVEN_TAGS = ("support_leaf", "domination")
    REQUIRED_TAGS = ("support_leaf", "independence_stated", "independence_proof")

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.specs = [
            GraphSpec("random_tree", n=n, seed=rng.randrange(2**31))
            for n in self.ORDERS
        ]

    def warm_up(self) -> None:
        harness.check("tree_bounds", [GraphSpec("random_tree", n=6, seed=0)], self.OPTIONS)

    def run_pass(self, probe):
        return harness.check("tree_bounds", self.specs, self.OPTIONS)

    def reference_output(self, output) -> Dict[str, str]:
        return {"csv": harness.export(output, "csv")}

    def check(self, output, solves, reference) -> List[Outcome]:
        labels = [s.label() for s in self.specs]
        outcomes = {label: Outcome(label) for label in labels}
        rows: Dict[str, List[List[str]]] = {label: [] for label in labels}
        csv = harness.export(output, "csv")
        for row in _csv_rows(csv):
            label = row[0].rpartition("/")[0]
            if label not in rows:
                return _fail(list(outcomes.values()), f"unexpected row {row[0]}")
            rows[label].append(row)
        ref_rows = None
        if reference is not None:
            ref_rows = {}
            for row in _csv_rows(reference["csv"]):
                ref_rows.setdefault(row[0].rpartition("/")[0], []).append(row)
        row_solves = {
            s.instance: s for s in solves if s.site == "harness.brute_force"
        }
        for label, o in outcomes.items():
            o.failure = self._instance_failure(
                rows[label], row_solves.get(label), solves, label
            )
            if o.failure is None and ref_rows is not None and rows[label] != ref_rows.get(label):
                o.failure = "rows differ from the reference"
            optima = {r[4] for r in rows[label]}
            o.proven = o.failure is None and "" not in optima
        return list(outcomes.values())

    def _instance_failure(self, rows, row_solve, solves, label) -> Optional[str]:
        tags = {r[0].rpartition("/")[2] for r in rows}
        missing = set(self.REQUIRED_TAGS) - tags
        if missing:
            return f"missing rows {sorted(missing)}"
        optima = {r[4] for r in rows}
        if len(optima) != 1:
            return "rows disagree on the optimum"
        optimum = optima.pop()
        for spec, _, cert_weight, cert_valid, _, verdict in rows:
            tag = spec.rpartition("/")[2]
            if tag in self.PROVEN_TAGS and verdict == "MISMATCH":
                return f"{tag} MISMATCH on a proven bound"
            if cert_valid == "true" and optimum and int(optimum) > int(cert_weight):
                return f"{tag} certificate weighs less than the optimum"
        if optimum == "":
            return None  # UNPROVEN is not a failure
        if row_solve is None:
            return "no solver call seen for the row"
        if str(row_solve.result.optimum) != optimum:
            return "row optimum differs from the solver's"
        for s in solves:
            if s.instance == label:
                failure = _witness_failure(s)
                if failure:
                    return failure
        return None


class FamilyBB:
    """``majroman check --strict`` in process on dense family graphs.

    Complements stop at n = 14: n = 15 alone takes about 7 s of branch
    and bound on a 2-CPU Intel Xeon, too long to repeat within one run.
    The workload does not depend on the seed.
    """

    name = "family_bb"
    CHECKS = (
        ("complement_path", "13..14"),
        ("complement_cycle", "13..14"),
        ("wheel", "13..16"),
        ("fan", "13..16"),
    )

    def __init__(self, seed: int, out_dir: Path):
        self.csv_paths = {t: out_dir / f"family_bb-{t}.csv" for t, _ in self.CHECKS}

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def warm_up(self) -> None:
        self._main(["check", "--theorem", "wheel", "--range", "4..6", "--strict"])

    def run_pass(self, probe):
        out = {}
        for path in self.csv_paths.values():
            path.unlink(missing_ok=True)
        for theorem, rng in self.CHECKS:
            argv = ["check", "--theorem", theorem, "--range", rng, "--strict",
                    "--csv", str(self.csv_paths[theorem])]
            out[theorem] = self._main(argv)
        return out

    def reference_output(self, output) -> Dict[str, str]:
        return {t: p.read_text(encoding="utf-8") for t, p in self.csv_paths.items()}

    def check(self, output, solves, reference) -> List[Outcome]:
        bb = {s.instance: s for s in solves if s.site == "harness.branch_and_bound"}
        result = []
        for theorem, _ in self.CHECKS:
            rc, stdout = output[theorem]
            path = self.csv_paths[theorem]
            if not path.is_file():
                result.append(Outcome(theorem, failure=f"no CSV written (exit code {rc})"))
                continue
            csv = path.read_text(encoding="utf-8")
            rows = _csv_rows(csv)
            outcomes = [Outcome(r[0]) for r in rows]
            result.extend(outcomes)
            if rc != 0:
                _fail(outcomes, f"exit code {rc} under --strict")
                continue
            last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
            if not last.startswith(f"RESULT theorem={theorem} rows={len(rows)} "):
                _fail(outcomes, "RESULT line does not match the rows")
                continue
            if reference is not None and csv != reference[theorem]:
                _fail(outcomes, "CSV differs from the reference")
                continue
            for o, row in zip(outcomes, rows):
                verdict, optimum = row[5], row[4]
                if verdict == "UNPROVEN":
                    continue
                if verdict != "MATCH":
                    o.failure = f"verdict {verdict}"
                elif o.instance not in bb:
                    o.failure = "no branch-and-bound call seen for the row"
                elif str(bb[o.instance].result.optimum) != optimum:
                    o.failure = "row optimum differs from the solver's"
                else:
                    o.failure = _witness_failure(bb[o.instance])
                o.proven = o.failure is None
        return result


class _Direct:
    """Workloads that call the solver themselves, instance by instance.

    A pass returns (label, results) pairs; results is None when
    the instance raised, else a tuple whose first item is the OptResult
    that the reference pins.
    """

    def reference_output(self, output) -> Dict[str, int]:
        return {
            label: done[0].optimum
            for label, done in output
            if done is not None and done[0].proven
        }

    def _run(self, probe, label, fn):
        probe.instance = label
        try:
            return fn()
        except Exception:  # one instance failing must not stop the pass
            traceback.print_exc(file=sys.stderr)
            return None


class BBReach(_Direct):
    """Unseeded ``solve(method="auto")`` beyond the auto-brute range.

    At this commit NODE_LIMIT proves the seeded trees (n = 13 needs 10k..47k
    nodes over 150 seeds) and C_16 (227k), and stops C_18 (1.14M needed),
    C_20 and G(40, 0.2), so proven_frac is 0.7 whatever the seed. Trees
    with n = 16 or 18 need 73k..370k and 0.34M..1.2M nodes, so under any
    affordable limit their status and cost would depend on the seed;
    G(40, 0.2) is the fixed seed-1 instance for the same reason (its time
    per node varies by 15% between seeds).
    """

    name = "bb_reach"
    NODE_LIMIT = 300_000
    TREES = 6

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        specs = [
            GraphSpec("random_tree", n=13, seed=rng.randrange(2**31))
            for _ in range(self.TREES)
        ]
        specs += [GraphSpec("cycle", n=n) for n in (16, 18, 20)]
        self.instances = [(spec.label(), graph.generate(spec)) for spec in specs]
        self.instances.append(("G_n40_p0.2_s1", graph.gnp(40, 0.2, 1)))
        self.options = SolveOptions(method="auto", node_limit=self.NODE_LIMIT)

    def warm_up(self) -> None:
        g = graph.generate(GraphSpec("cycle", n=8))
        labeling.validate(g, solver.solve(g, self.options).witness)

    def run_pass(self, probe):
        out = []
        for label, g in self.instances:
            def one(g=g):
                res = solver.solve(g, self.options)
                return res, labeling.validate(g, res.witness)
            out.append((label, self._run(probe, label, one)))
        return out

    def check(self, output, solves, reference) -> List[Outcome]:
        result = []
        for label, done in output:
            o = Outcome(label)
            result.append(o)
            if done is None:
                o.failure = "raised"
                continue
            res, report = done
            if not report.is_valid:
                o.failure = "witness rejected by validate"
            elif report.weight != res.optimum:
                o.failure = "witness weight differs from the optimum"
            elif (
                reference is not None
                and res.proven
                and reference.get(label) is not None
                and reference[label] != res.optimum
            ):
                o.failure = "optimum differs from the reference"
            o.proven = o.failure is None and res.proven
        return result


class SmallOracle(_Direct):
    """Both exact routes on 500 tiny graphs, both witnesses validated.

    Orders cycle through 1..10 and p through {0.2, 0.5, 0.8}, so each seed
    has the same size mix; the seed picks the shapes.
    """

    name = "small_oracle"
    COUNT = 500
    PS = (0.2, 0.5, 0.8)

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.instances = []
        for i in range(self.COUNT):
            n = 1 + (i // 2) % 10
            s = rng.randrange(2**31)
            if i % 2 == 0:
                spec = GraphSpec("random_tree", n=n, seed=s)
                self.instances.append((spec.label(), graph.generate(spec)))
            else:
                p = self.PS[(i // 2) % 3]
                self.instances.append((f"G_n{n}_p{p}_s{s}", graph.gnp(n, p, s)))

    def warm_up(self) -> None:
        g = graph.generate(GraphSpec("cycle", n=6))
        labeling.validate(g, solver.brute_force(g).witness)
        labeling.validate(g, solver.branch_and_bound(g).witness)

    def run_pass(self, probe):
        out = []
        for label, g in self.instances:
            def one(g=g):
                bf = solver.brute_force(g)
                bb = solver.branch_and_bound(g)
                return (
                    bf,
                    bb,
                    labeling.validate(g, bf.witness),
                    labeling.validate(g, bb.witness),
                )
            out.append((label, self._run(probe, label, one)))
        return out

    def check(self, output, solves, reference) -> List[Outcome]:
        result = []
        for label, done in output:
            o = Outcome(label)
            result.append(o)
            if done is None:
                o.failure = "raised"
                continue
            bf, bb, vbf, vbb = done
            if not (vbf.is_valid and vbb.is_valid):
                o.failure = "witness rejected by validate"
            elif vbf.weight != bf.optimum or vbb.weight != bb.optimum:
                o.failure = "witness weight differs from the optimum"
            elif bf.optimum != bb.optimum or not bb.proven:
                o.failure = "brute force and branch and bound disagree"
            elif reference is not None and reference.get(label) != bf.optimum:
                o.failure = "optimum differs from the reference"
            o.proven = o.failure is None
        return result


WORKLOADS = {w.name: w for w in (TreeAudit, FamilyBB, BBReach, SmallOracle)}
