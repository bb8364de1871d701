"""Command-line interface: solve / gen / cert / check / bounds.

It parses arguments and prints; every audit is a theorem of
``harness.THEOREMS`` that ``check`` runs. Each subcommand ends with a
machine-readable ``RESULT key=value ...`` line. With ``--strict``, ``check``
exits 2 when any row is MISMATCH or CERT_INVALID (for CI). Usage errors exit 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import certificates as certs
from . import formulas, harness
from .graph import (
    FAMILIES,
    GraphError,
    GraphSpec,
    generate,
    parse_edge_list,
    serialize_edge_list,
)
from .labeling import serialize_labeling, validate
from .solver import (
    METHODS,
    SolveOptions,
    SolverError,
    delta_lower_bound,
    majority_lower_bound,
    solve,
)
from .trees import TreeError


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# command-line flags of the families whose flags differ from their
# GraphSpec fields
_FLAG_ALIASES = {"double_star": ("a", "b")}
# every flag of a family parameter
_PARAM_FLAGS = ("n", "m", "k", "a", "b", "seed")
# every flag a theorem's check may read
_CHECK_FLAGS = ("range", "count", "seed", *harness.SOLVE_FLAGS)


def _reject_given(args, name: str, flags) -> None:
    """A usage error for the first of ``flags`` that is given, since
    ``name`` does not read it."""
    for f in flags:
        if getattr(args, f, None) is not None:
            raise CliError(f"{name} takes no --{f.replace('_', '-')}")


def _required(args, flags, kind: str, name: str) -> list:
    """The values of ``flags``, seed 0 where --seed is not given; a usage
    error for a parameter flag given outside ``flags``, then for the
    missing ones."""
    _reject_given(args, name, [f for f in _PARAM_FLAGS if f not in flags])
    values = [
        (args.seed or 0) if f == "seed" else getattr(args, f, None) for f in flags
    ]
    missing = [f"--{f}" for f, v in zip(flags, values) if v is None]
    if missing:
        raise CliError(f"{kind} {name} needs {' '.join(missing)}")
    return values


def _spec_flags(family: str) -> tuple:
    """The command-line flags of a family's parameters, in field order."""
    return _FLAG_ALIASES.get(family, FAMILIES[family].fields)


def _spec_from_args(args) -> GraphSpec:
    fam = args.family
    if fam not in FAMILIES:
        raise CliError(f"unknown family {fam!r}; choose from {list(FAMILIES)}")
    return GraphSpec.of(fam, *_required(args, _spec_flags(fam), "family", fam))


def _load_graph(args):
    if getattr(args, "file", None):
        _reject_given(args, f"{args.command} --file", ("family",) + _PARAM_FLAGS)
        with open(args.file, encoding="utf-8") as fh:
            return parse_edge_list(fh.read()), f"file:{args.file}"
    if getattr(args, "family", None):
        spec = _spec_from_args(args)
        return generate(spec), spec.label()
    raise CliError("provide either --family or --file")


def _parse_range(text: str) -> range:
    if ".." not in text:
        raise CliError(f"malformed range {text!r}; expected A..B")
    lo, hi = text.split("..", 1)
    try:
        r = range(int(lo), int(hi) + 1)
    except ValueError:
        raise CliError(f"malformed range {text!r}; expected integers")
    if not r:
        raise CliError(f"empty range {text!r}; expected A <= B")
    return r


def _mode(args) -> str:
    """The threshold mode; ceil where --threshold-mode is not given."""
    return args.threshold_mode or "ceil"


def _solve_options(args) -> SolveOptions:
    if args.method in METHODS and not METHODS[args.method].node_limit:
        _reject_given(args, f"{args.command} --method {args.method}", ("node_limit",))
    node_limit = args.node_limit
    if node_limit is not None and node_limit < 1:
        raise CliError("--node-limit must be >= 1")
    return SolveOptions(
        method=args.method or "auto",
        thread_count=args.threads,
        node_limit=node_limit,
        threshold_mode=_mode(args),
    )


def _warn_floor(args) -> None:
    if args.threshold_mode == "floor":
        print(
            "WARNING: --threshold-mode floor is EXPERIMENTAL and not the "
            "normative majority reading"
        )


def cmd_solve(args) -> int:
    g, label = _load_graph(args)
    opts = _solve_options(args)
    _warn_floor(args)
    res = solve(g, opts)
    print(f"instance: {label} (n={g.n}, m={g.num_edges()})")
    if res.proven:
        print(f"optimum:  {res.optimum}")
    else:
        print(
            f"best:     {res.optimum}  "
            f"(unproven: node limit {opts.node_limit} reached)"
        )
    print(f"witness:  {serialize_labeling(res.witness)}")
    print(f"nodes:    {res.nodes_explored}  method: {res.method}")
    print(
        f"RESULT optimum={res.optimum} witness={serialize_labeling(res.witness)} "
        f"nodes={res.nodes_explored} method={res.method} proven={res.proven}"
    )
    return 0


def cmd_gen(args) -> int:
    _reject_given(args, "gen", ("threshold_mode",))
    spec = _spec_from_args(args)
    g = generate(spec)
    text = serialize_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"RESULT family={spec.label()} n={g.n} m={g.num_edges()}")
    return 0


# shorter command-line names of some certificate theorems
_CERT_ALIASES = {
    "join_complete": "join",
    "complement_path": "cpath",
    "complement_cycle": "ccycle",
    "complete_minus_matching": "kminusm",
}
# certificate theorem -> its family
_CERT_THEOREMS = {_CERT_ALIASES.get(f, f): f for f in certs.CERTIFICATES}


def cmd_cert(args) -> int:
    if args.theorem not in _CERT_THEOREMS:
        raise CliError(
            f"unknown certificate theorem {args.theorem!r}; "
            f"choose from {sorted(_CERT_THEOREMS)}"
        )
    if not args.validate:
        # only the validation reads the mode
        _reject_given(args, "cert without --validate", ("threshold_mode",))
    family = _CERT_THEOREMS[args.theorem]
    values = _required(args, FAMILIES[family].fields, "theorem", args.theorem)
    _warn_floor(args)
    cert = certs.CERTIFICATES[family](*values)
    print(f"source:       {cert.source} ({cert.transcription})")
    print(f"labeling:     {serialize_labeling(cert.labeling)}")
    print(f"claimed:      {cert.claimed_weight}")
    for d in cert.defects:
        print(f"DEFECT: {d}")
    valid = ""
    if args.validate:
        report = validate(cert.graph, cert.labeling, _mode(args))
        print(
            f"validation:   valid={report.is_valid} weight={report.weight} "
            f"satisfied={report.satisfied_count}/{report.threshold} "
            f"violations={list(report.roman_violations)}"
        )
        valid = f" valid={report.is_valid} weight={report.weight}"
    print(
        f"RESULT theorem={args.theorem} claimed={cert.claimed_weight}"
        f"{valid} defects={len(cert.defects)}"
    )
    return 0


def cmd_check(args) -> int:
    theorem = args.theorem
    if theorem not in harness.THEOREMS:
        raise CliError(f"unknown theorem id {theorem!r}")
    entry = harness.THEOREMS[theorem]
    _reject_given(args, theorem, [f for f in _CHECK_FLAGS if f not in entry.flags])
    if args.count is not None and args.count < 1:
        raise CliError("--count must be >= 1")
    _warn_floor(args)
    opts = _solve_options(args)
    rng = None if args.range is None else _parse_range(args.range)
    given = {"orders": rng, "count": args.count, "seed": args.seed}
    params = entry.instances(**{k: v for k, v in given.items() if v is not None})
    report = harness.check(theorem, params, opts)
    sys.stdout.write(harness.export(report, "table"))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(harness.export(report, "csv"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(harness.export(report, "jsonl"))
    counts = report.counts()
    summary = "".join(f" {k.lower()}={v}" for k, v in sorted(counts.items()))
    print(f"RESULT theorem={theorem} rows={len(report.rows)}{summary}")
    bad = counts.get("MISMATCH", 0) + counts.get("CERT_INVALID", 0)
    if args.strict and bad:
        return 2
    return 0


def cmd_bounds(args) -> int:
    if args.tree:
        _reject_given(
            args, "bounds --tree", ("threshold_mode", "family") + _PARAM_FLAGS
        )
        with open(args.tree, encoding="utf-8") as fh:
            b = harness.tree_bounds(parse_edge_list(fh.read()))
        p = b.profile
        tree = f"n={p.n} gamma={p.gamma} beta0={p.beta0}"
        dom = b.domination
        if dom is None:
            dom = "inapplicable (gamma != n - beta0)"
        stated, proof = b.independence_stated, b.independence_proof
        print(f"tree: {tree} supports={p.supports} leaves={p.leaves}")
        print(f"support/leaf upper bound:    {b.support_leaf}")
        print(f"domination upper bound:      {dom}")
        print(f"independence bounds:         stated={stated} proof={proof}")
        print(
            f"RESULT {tree} support_leaf={b.support_leaf} domination={b.domination} "
            f"independence_stated={stated} independence_proof={proof}"
        )
        return 0
    if args.family:
        spec = _spec_from_args(args)
        preds = formulas.predict(spec)
        g = generate(spec)
        for p in preds:
            if p.applicable:
                print(f"{p.source}: {p.kind} {p.value}")
            else:
                print(f"{p.source}: inapplicable ({p.reason})")
        delta = delta_lower_bound(g) if g.num_edges() else "inapplicable (no edge)"
        print(f"delta lower bound: {delta}")
        # holds on every graph, unlike the delta bound
        print(f"majority lower bound: {majority_lower_bound(g, _mode(args))}")
        print(f"RESULT family={spec.label()} predictions={len(preds)}")
        return 0
    raise CliError("provide --tree FILE or --family FAMILY")


def _add_family_args(p) -> None:
    p.add_argument("--family", help="graph family name")
    p.add_argument("--n", type=int, help="order parameter n")
    p.add_argument("--m", type=int, help="second parameter m")
    p.add_argument("--k", type=int, help="parameter k (corona_k3)")
    p.add_argument("--a", type=int, help="double-star center degree a")
    p.add_argument("--b", type=int, help="double-star center degree b")
    # Accept --seed after the subcommand as well; SUPPRESS keeps a value
    # given before the subcommand from being overwritten by a default.
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def _add_node_limit_arg(p) -> None:
    p.add_argument(
        "--node-limit",
        type=int,
        help="stop branch and bound after N nodes; the result is then unproven",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="majroman", description=__doc__)
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; the search is serial and ignores it",
    )
    parser.add_argument("--threshold-mode", choices=["ceil", "floor"])
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the exact optimum")
    _add_family_args(p)
    p.add_argument("--file", help="edge-list file")
    p.add_argument("--method", choices=["auto", *METHODS])
    _add_node_limit_arg(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a family graph as an edge list")
    _add_family_args(p)
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cert", help="emit a proof-certificate labeling")
    p.add_argument("--theorem", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--validate", action="store_true")
    p.set_defaults(func=cmd_cert)

    p = sub.add_parser("check", help="cross-validate a theorem on a range")
    p.add_argument("--theorem", required=True)
    p.add_argument("--range", help="parameter range A..B")
    p.add_argument("--count", type=int, help="sample count (default 50)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    # no default: None reads as auto, so that a theorem whose check
    # solves nothing can reject a given --method
    p.add_argument("--method", choices=["auto", *METHODS])
    p.add_argument("--csv", help="write CSV to this path")
    p.add_argument("--json", help="write JSON lines to this path")
    p.add_argument("--strict", action="store_true", help="exit 2 on MISMATCH/CERT_INVALID")
    _add_node_limit_arg(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="closed-form bounds for a tree or family")
    p.add_argument("--tree", help="edge-list file containing a tree")
    _add_family_args(p)
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, GraphError, TreeError, SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
