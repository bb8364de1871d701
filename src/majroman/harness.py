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
independent complement) are excluded, not failed.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple, Union

from . import certificates as certs
from . import formulas
from .graph import Graph, GraphSpec, generate, gnp, join, random_tree
from .labeling import validate
from .solver import (
    CapExceededError,
    SolveOptions,
    branch_and_bound,
    brute_force,
    choose_method,
    delta_lower_bound,
)
from .trees import find_gamma_set_independent_complement, tree_profile

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
        if choose_method(g, opts) == "brute":
            res = brute_force(g, opts)
        else:
            seed = seed_labeling or opts.seed_labeling
            res = branch_and_bound(g, replace(opts, seed_labeling=seed))
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
        g = generate(g_spec)
        h = generate(h_spec)
        stated, construction = formulas.corona_upper_bound(g.n, h.n)
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
        g = generate(g_spec)
        h = generate(h_spec)
        bound = formulas.corona_lower_bound(g.n, h.n)
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


def _check_tree_bounds(params, opts) -> Iterator[ReportRow]:
    for spec in params:
        t = generate(spec)
        profile = tree_profile(t)
        label = spec.label()
        optimum = _exact(t, opts)

        # (a) support/leaf bound via the inductive construction
        cert = certs.cert_tree_support_leaf(t, opts)
        cert_report = validate(t, cert.labeling, opts.threshold_mode)
        bound = formulas.tree_support_leaf_bound(
            profile.n, profile.supports, profile.leaves
        )
        # its only defect is a truncated solve of the stripped tree; the
        # extension of a labeling that is not minimum tests no proof step
        yield ReportRow(
            spec=f"{label}/support_leaf",
            predicted=bound,
            optimum=optimum,
            verdict=_verdict(
                optimum, bound, "upper", cert_report.is_valid or bool(cert.defects)
            ),
            **_cert_fields(cert, cert_report),
        )

        # (b) 3*gamma - n, only when the hypothesis holds
        s = find_gamma_set_independent_complement(t)
        if s is not None:
            dom_cert = certs.cert_tree_from_dominating_set(t, s)
            dom_report = validate(t, dom_cert.labeling, opts.threshold_mode)
            dom_bound = formulas.tree_domination_bound(profile.n, profile.gamma)
            yield ReportRow(
                spec=f"{label}/domination",
                predicted=dom_bound,
                optimum=optimum,
                verdict=_verdict(optimum, dom_bound, "upper", dom_report.is_valid),
                **_cert_fields(dom_cert, dom_report),
            )

        # (c) both candidate independence bounds, recorded side by side
        stated, proof = formulas.tree_independence_bounds(profile.n, profile.beta0)
        for tag, bound in (("independence_stated", stated), ("independence_proof", proof)):
            yield ReportRow(
                spec=f"{label}/{tag}",
                predicted=bound,
                optimum=optimum,
                verdict=_verdict(optimum, bound, "upper"),
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
        if opt_g is None or opt_h is None:
            continue
        if opt_g < 0 or opt_h < 0:
            continue  # hypothesis requires both operands non-negative
        optimum = _exact(join(g, h), opts)
        bound = opt_g + opt_h
        yield ReportRow(
            spec=f"{g_spec.label()}v{h_spec.label()}",
            predicted=bound,
            optimum=optimum,
            verdict=_verdict(optimum, bound, "upper"),
        )


def _check_lemma(params, opts) -> Iterator[ReportRow]:
    n_max, m_max = params
    holds = not formulas.lemma_failures(n_max, m_max)
    yield ReportRow(
        spec=f"n<={n_max}_m<={m_max}",
        predicted=1,
        optimum=1 if holds else 0,
        verdict="BOUND_HOLDS" if holds else "MISMATCH",
    )


# the theorems that are not an exact family, by id
_CHECKS = {
    "corona_upper": _check_corona_upper,
    "corona_lower": _check_corona_lower,
    "tree_bounds": _check_tree_bounds,
    "delta_bound": _check_delta_bound,
    "subadditivity": _check_subadditivity,
    "lemma": _check_lemma,
}


def check(
    theorem_id: str, params, solve_options: Optional[SolveOptions] = None
) -> TheoremReport:
    """Run one theorem check over a parameter iterable.

    Parameter meanings per theorem: exact family checks take orders n (or
    k for the K_3 corona), or tuples of the family's parameters in field
    order, such as the (m, n) pairs of ``join_complete``; a parameter
    outside the closed form's domain raises ``CertificateError`` with the
    message of ``formulas.outside_domain``. ``corona_upper``,
    ``corona_lower`` and ``subadditivity`` take spec pairs;
    ``tree_bounds`` takes random-tree specs; ``delta_bound`` takes
    (label, graph) pairs; ``lemma`` takes (n_max, m_max). On the command
    line only the exact families and ``tree_bounds`` read ``--range``.
    """
    opts = solve_options or SolveOptions()
    if theorem_id in formulas.EXACT_VALUES:
        rows = _check_exact_family(theorem_id, params, opts)
    elif theorem_id in _CHECKS:
        rows = _CHECKS[theorem_id](params, opts)
    else:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return TheoremReport(theorem_id, list(rows))


# ---------------------------------------------------------------------------
# instance suites used by the CLI and the acceptance checks


def random_graph_suite(count: int, seed: int) -> List[Tuple[str, Graph]]:
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


def subadditivity_pairs(count: int, seed: int) -> List[Tuple[GraphSpec, GraphSpec]]:
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
