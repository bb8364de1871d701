"""Cross-validation engine: generate instances for a theorem, run the
solver, the closed forms, and the certificates, and emit verdict tables.

Verdict taxonomy (the central audit feature):

* MATCH        -- exact optimum equals the predicted exact value
* BOUND_HOLDS  -- the bound holds but is not attained
* BOUND_TIGHT  -- the bound holds with equality
* MISMATCH     -- a predicted value or bound is contradicted (for the
                  stated corona upper bound, also: the stated formula
                  disagrees with the weight of its own construction)
* CERT_INVALID -- the transcribed proof labeling fails validation
* UNPROVEN     -- no proven optimum: the instance is beyond the size cap
                  or the search hit the node limit; certificate data only

``_verdict`` decides every row in one order: CERT_INVALID first, then
UNPROVEN, then the optimum against the value or bound (MATCH/MISMATCH,
or BOUND_TIGHT/BOUND_HOLDS/MISMATCH).

Instances that fail a theorem's hypothesis (e.g. a subadditivity operand
with a negative optimum, or a tree without a minimum dominating set with
independent complement) are excluded, not failed. An operand whose
optimum is not proven fails no hypothesis: its pair is an UNPROVEN row.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

from . import certificates as certs
from . import formulas
from .graph import FAMILIES, Graph, GraphSpec, generate, gnp, join, random_tree
from .labeling import validate
from .solver import (
    CapExceededError,
    SolveOptions,
    branch_and_bound,
    brute_force,
    choose_method,
    delta_lower_bound,
    tree_dp,
)
from .trees import TreeProfile, find_gamma_set_independent_complement, tree_profile

Number = Union[int, Fraction]


@dataclass(frozen=True, kw_only=True)
class ReportRow:
    spec: str
    predicted: Optional[Number]
    cert_weight: Optional[int] = None
    cert_valid: Optional[bool] = None
    cert_defects: Tuple[str, ...] = ()
    optimum: Optional[int]
    verdict: str


@dataclass
class TheoremReport:
    theorem: str
    rows: List[ReportRow] = field(default_factory=list)

    def counts(self) -> dict:
        out = {}
        for row in self.rows:
            out[row.verdict] = out.get(row.verdict, 0) + 1
        return out


def _exact(g: Graph, opts: SolveOptions, seed_labeling=None) -> Optional[int]:
    """The proven optimum, or None beyond the size cap or the node limit."""
    try:
        method = choose_method(g, opts)
        if method == "brute":
            res = brute_force(g, opts)
        elif method == "dp":
            res = tree_dp(g, opts)
        else:
            res = branch_and_bound(g, opts, seed_labeling=seed_labeling)
    except CapExceededError:
        return None
    return res.optimum if res.proven else None


def _verdict(optimum, bound, kind: str, cert_valid: bool = True) -> str:
    """The verdict of one row: CERT_INVALID, then UNPROVEN, then the
    optimum against ``bound`` as an "exact" value or an "upper" or
    "lower" bound."""
    if not cert_valid:
        return "CERT_INVALID"
    if optimum is None:
        return "UNPROVEN"
    if kind == "exact":
        return "MATCH" if optimum == bound else "MISMATCH"
    if optimum == bound:
        return "BOUND_TIGHT"
    holds = optimum < bound if kind == "upper" else optimum > bound
    return "BOUND_HOLDS" if holds else "MISMATCH"


def _cert_fields(cert, cert_report) -> dict:
    """The certificate fields of a row."""
    return dict(
        cert_weight=cert_report.weight,
        cert_valid=cert_report.is_valid,
        cert_defects=cert.defects,
    )


def _check_exact_family(theorem: str, params, opts) -> Iterator[ReportRow]:
    """Rows for an exact family; ``params`` holds its orders, or tuples of
    its parameters when it takes more than one."""
    for p in params:
        values = p if isinstance(p, tuple) else (p,)
        spec = GraphSpec.of(theorem, *values)
        g = generate(spec)
        predicted = formulas.exact_value(theorem, *values)
        cert = certs.CERTIFICATES[theorem](*values)
        cert_report = validate(g, cert.labeling, opts.threshold_mode)
        seed = cert.labeling if cert_report.is_valid else None
        optimum = _exact(g, opts, seed_labeling=seed)
        yield ReportRow(
            spec=spec.label(),
            predicted=predicted,
            optimum=optimum,
            verdict=_verdict(optimum, predicted, "exact", cert_report.is_valid),
            **_cert_fields(cert, cert_report),
        )


def _check_corona_upper(params, opts) -> Iterator[ReportRow]:
    for g_spec, h_spec in params:
        cert = certs.cert_corona_general(g_spec, h_spec)
        bounds = {p.source: p.value for p in formulas.predict(cert.spec)}
        stated, construction = bounds["corona_upper_stated"], cert.claimed_weight
        cert_report = validate(cert.graph, cert.labeling, opts.threshold_mode)
        seed = cert.labeling if cert_report.is_valid else None
        optimum = _exact(cert.graph, opts, seed_labeling=seed)
        # stated formula: flagged MISMATCH whenever it disagrees with the
        # weight its own construction attains, even if it numerically holds
        if optimum is not None and stated != cert_report.weight:
            stated_verdict = "MISMATCH"
        else:
            stated_verdict = _verdict(optimum, stated, "upper")
        constr_verdict = _verdict(
            optimum, construction, "upper", cert_report.is_valid
        )
        for tag, bound, verdict in (
            ("stated", stated, stated_verdict),
            ("construction", construction, constr_verdict),
        ):
            yield ReportRow(
                spec=f"{cert.spec.label()}/{tag}",
                predicted=bound,
                optimum=optimum,
                verdict=verdict,
                **_cert_fields(cert, cert_report),
            )


def _check_corona_lower(params, opts) -> Iterator[ReportRow]:
    for g_spec, h_spec in params:
        cert = certs.cert_corona_floor(g_spec, h_spec)
        bound = cert.claimed_weight
        cert_report = validate(cert.graph, cert.labeling, opts.threshold_mode)
        optimum = _exact(cert.graph, opts)
        # no validity: the source says this construction can fail
        yield ReportRow(
            spec=cert.spec.label(),
            predicted=bound,
            optimum=optimum,
            verdict=_verdict(optimum, bound, "lower"),
            **_cert_fields(cert, cert_report),
        )


class TreeBounds(NamedTuple):
    """A tree's profile and its bounds. ``gamma_set`` is a minimum
    dominating set with independent complement and ``domination`` is
    3*gamma - n; both are None where no such set exists."""

    profile: TreeProfile
    support_leaf: int
    gamma_set: Optional[frozenset]
    domination: Optional[int]
    independence_stated: int
    independence_proof: int


def tree_bounds(t: Graph) -> TreeBounds:
    """The tree's profile and its bounds, the domination hypothesis decided
    here once; raises ``TreeError`` if ``t`` is no tree."""
    p = tree_profile(t)
    gamma_set = find_gamma_set_independent_complement(t, p)
    return TreeBounds(
        p,
        formulas.tree_support_leaf_bound(p.n, p.supports, p.leaves),
        gamma_set,
        None if gamma_set is None else formulas.tree_domination_bound(p.n, p.gamma),
        *formulas.tree_independence_bounds(p.n, p.beta0),
    )


def _check_tree_bounds(params, opts) -> Iterator[ReportRow]:
    for spec in params:
        t = generate(spec)
        b = tree_bounds(t)
        label = spec.label()
        optimum = _exact(t, opts)

        # (a) support/leaf bound via the inductive construction
        cert = certs.cert_tree_support_leaf(t, opts)
        cert_report = validate(t, cert.labeling, opts.threshold_mode)
        # its only defect is a truncated solve of the stripped tree; the
        # extension of a labeling that is not minimum tests no proof step
        valid = cert_report.is_valid or bool(cert.defects)
        yield ReportRow(
            spec=f"{label}/support_leaf",
            predicted=b.support_leaf,
            optimum=optimum,
            verdict=_verdict(optimum, b.support_leaf, "upper", valid),
            **_cert_fields(cert, cert_report),
        )

        # (b) 3*gamma - n, only when the hypothesis holds
        if b.domination is not None:
            dom_cert = certs.cert_tree_from_dominating_set(t, b.gamma_set)
            dom_report = validate(t, dom_cert.labeling, opts.threshold_mode)
            yield ReportRow(
                spec=f"{label}/domination",
                predicted=b.domination,
                optimum=optimum,
                verdict=_verdict(optimum, b.domination, "upper", dom_report.is_valid),
                **_cert_fields(dom_cert, dom_report),
            )

        # (c) both candidate independence bounds, recorded side by side
        for tag in ("independence_stated", "independence_proof"):
            yield ReportRow(
                spec=f"{label}/{tag}",
                predicted=getattr(b, tag),
                optimum=optimum,
                verdict=_verdict(optimum, getattr(b, tag), "upper"),
            )


def _check_delta_bound(params, opts) -> Iterator[ReportRow]:
    for label, g in params:
        bound = delta_lower_bound(g)
        optimum = _exact(g, opts)
        yield ReportRow(
            spec=label,
            predicted=bound,
            optimum=optimum,
            verdict=_verdict(optimum, bound, "lower"),
        )


def _check_subadditivity(params, opts) -> Iterator[ReportRow]:
    for g_spec, h_spec in params:
        g = generate(g_spec)
        h = generate(h_spec)
        opt_g = _exact(g, opts)
        opt_h = _exact(h, opts)
        if any(opt is not None and opt < 0 for opt in (opt_g, opt_h)):
            continue  # hypothesis requires both operands non-negative
        bound = None if None in (opt_g, opt_h) else opt_g + opt_h
        optimum = None if bound is None else _exact(join(g, h), opts)
        yield ReportRow(
            spec=f"{g_spec.label()}v{h_spec.label()}",
            predicted=bound,
            optimum=optimum,
            verdict=_verdict(optimum, bound, "upper"),
        )


def _check_lemma(params, opts) -> Iterator[ReportRow]:
    """A MISMATCH row per failing (n, m), else one BOUND_HOLDS row."""
    ns, ms = params
    failures = formulas.lemma_failures(ns, ms)
    for n, m in failures:
        yield ReportRow(spec=f"n={n}_m={m}", predicted=1, optimum=0, verdict="MISMATCH")
    if not failures:
        n_lo = "" if ns[0] == 1 else f"{ns[0]}<="
        m_lo = "" if ms[0] == 3 else f"{ms[0]}<="
        spec = f"{n_lo}n<={ns[-1]}_{m_lo}m<={ms[-1]}"
        yield ReportRow(spec=spec, predicted=1, optimum=1, verdict="BOUND_HOLDS")


# ---------------------------------------------------------------------------
# instance suites used by the CLI and the acceptance checks


def random_graph_suite(count: int = 50, seed: int = 0) -> List[Tuple[str, Graph]]:
    """Deterministic mix of random trees and G(n, p in {0.3, 0.5}) with
    n in [2, 10]; G(n, p) samples are redrawn until they have an edge
    (the degree-based lower bound needs max degree >= 1)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, 10)
        sub_seed = rng.randrange(2**32)
        if i % 2 == 0:
            out.append((f"T_n{n}_s{sub_seed}", random_tree(n, sub_seed)))
        else:
            p = rng.choice([0.3, 0.5])
            out.append(
                (f"G_n{n}_p{p}_s{sub_seed}", gnp(n, p, sub_seed, require_edge=True))
            )
    return out


def subadditivity_pairs(
    count: int = 50, seed: int = 0
) -> List[Tuple[GraphSpec, GraphSpec]]:
    """Deterministic sample of spec pairs with orders <= 7.

    Operands with negative optima are excluded downstream by the
    hypothesis filter inside the check.
    """
    pool = (
        [GraphSpec("complete", n=n) for n in range(1, 8)]
        + [GraphSpec("path", n=n) for n in range(2, 8)]
        + [GraphSpec("cycle", n=n) for n in range(3, 8)]
    )
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = rng.choice(pool)
        b = rng.choice(pool)
        pairs.append((a, b))
    return pairs


def corona_audit_instances(max_order: int = 14) -> List[Tuple[GraphSpec, GraphSpec]]:
    """All coronas G o H with |G|(1+|H|) <= max_order, for the audit suite."""
    g_pool = [
        GraphSpec("complete", n=1),
        GraphSpec("complete", n=2),
        GraphSpec("path", n=3),
        GraphSpec("complete", n=3),
    ]
    h_pool = [
        GraphSpec("complete", n=3),
        GraphSpec("cycle", n=4),
        GraphSpec("cycle", n=5),
    ]
    out = []
    for gs in g_pool:
        for hs in h_pool:
            n = generate(gs).n
            m = generate(hs).n
            if n * (1 + m) <= max_order:
                out.append((gs, hs))
    return out


def _exact_family_instances(family: str, orders: Optional[range] = None) -> List[tuple]:
    """The parameter tuples over ``orders`` that an exact family's value
    covers: all of them, or for a family of two parameters at least one."""
    if orders is None:
        raise ValueError("missing --range A..B")
    arity = len(FAMILIES[family].fields)
    tuples = list(itertools.product(orders, repeat=arity))
    params = [p for p in tuples if formulas.exact_value(family, *p) is not None]
    # fail before any solve rather than on a certificate's guard
    if len(params) < len(tuples) and (arity == 1 or not params):
        first = next(p for p in tuples if formulas.exact_value(family, *p) is None)
        raise ValueError(formulas.outside_domain(family, *first))
    return params


def _tree_instances(
    orders: range = range(4, 14), count: int = 50, seed: int = 0
) -> List[GraphSpec]:
    """Random trees cycling through ``orders``, the i-th seeded ``seed + i``."""
    if orders[0] < 2:
        raise ValueError(
            f"tree_bounds: n={orders[0]} outside the theorem's domain (needs n >= 2)"
        )
    return [
        GraphSpec("random_tree", n=orders[i % len(orders)], seed=seed + i)
        for i in range(count)
    ]


def _lemma_instances(orders: range = range(1, 501)) -> Tuple[range, range]:
    """The lemma's grid: n over ``orders``, m over its part from 3."""
    ms = range(max(orders[0], 3), orders[-1] + 1)
    if orders[0] < 1 or not ms:
        raise ValueError(
            f"lemma: range {orders[0]}..{orders[-1]} outside the theorem's "
            "domain (needs n >= 1 and some m >= 3)"
        )
    return orders, ms


class Theorem(NamedTuple):
    """A checked theorem: its rows over a parameter iterable, the builder
    of a command-line check's parameters, and the command-line flags the
    check reads. Of these, the builder reads --range, --count and --seed;
    it takes each one given as a keyword, ``orders``, ``count`` or
    ``seed``, and defaults the others. The rows read ``SOLVE_FLAGS``
    where they solve (the lemma's do not)."""

    rows: Callable[[object, SolveOptions], Iterator[ReportRow]]
    instances: Callable[..., object]
    flags: Tuple[str, ...] = ()


# the solve options a check takes from the command line
SOLVE_FLAGS = ("threshold_mode", "method", "node_limit")

# every theorem ``check`` audits, by id
THEOREMS = {
    **{
        f: Theorem(
            functools.partial(_check_exact_family, f),
            functools.partial(_exact_family_instances, f),
            ("range", *SOLVE_FLAGS),
        )
        for f in formulas.EXACT_VALUES
    },
    "corona_upper": Theorem(_check_corona_upper, corona_audit_instances, SOLVE_FLAGS),
    "corona_lower": Theorem(_check_corona_lower, corona_audit_instances, SOLVE_FLAGS),
    "tree_bounds": Theorem(
        _check_tree_bounds, _tree_instances, ("range", "count", "seed", *SOLVE_FLAGS)
    ),
    "delta_bound": Theorem(
        _check_delta_bound, random_graph_suite, ("count", "seed", *SOLVE_FLAGS)
    ),
    "subadditivity": Theorem(
        _check_subadditivity, subadditivity_pairs, ("count", "seed", *SOLVE_FLAGS)
    ),
    "lemma": Theorem(_check_lemma, _lemma_instances, ("range",)),
}


def check(
    theorem_id: str, params, solve_options: Optional[SolveOptions] = None
) -> TheoremReport:
    """Run one theorem of ``THEOREMS`` over parameters shaped as its
    builder returns them; an exact family also takes bare orders. A
    parameter outside a closed form's domain raises ``CertificateError``
    with the message of ``formulas.outside_domain``."""
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    rows = THEOREMS[theorem_id].rows(params, solve_options or SolveOptions())
    return TheoremReport(theorem_id, list(rows))


# ---------------------------------------------------------------------------
# export


_COLUMNS = ("spec", "predicted", "cert_weight", "cert_valid", "optimum", "verdict")
_CSV_HEADER = ",".join(_COLUMNS)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _cells(r: ReportRow) -> List[str]:
    return [_cell(getattr(r, c)) for c in _COLUMNS]


def export(report: TheoremReport, fmt: str) -> str:
    """Render a report; bit-stable for fixed input."""
    if fmt == "csv":
        lines = [_CSV_HEADER] + [",".join(_cells(r)) for r in report.rows]
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = []
        for r in report.rows:
            row = asdict(r)
            if r.predicted is not None:
                row["predicted"] = str(r.predicted)
            lines.append(json.dumps(row, sort_keys=True))
        return "\n".join(lines) + "\n"
    if fmt == "table":
        rows = [_cells(r) for r in report.rows]
        widths = [
            max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
            for i, c in enumerate(_COLUMNS)
        ]
        lines = [
            "  ".join(c.ljust(widths[i]) for i, c in enumerate(_COLUMNS)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
