"""Closed-form values, bound formulas, and the floor/ceiling lemma, as pure
functions of the family parameters.

Every formula carries an explicit applicability guard; outside its guard a
prediction is flagged inapplicable rather than extrapolated. Each exact
family's value and domain are stated once, in ``EXACT_VALUES``. Where the
source states one bound but its own construction attains another (the
corona upper bound, the tree independence bound), both versions are
computed side by side so the harness can report which survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from .graph import FAMILIES, Graph, GraphSpec, generate


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Prediction:
    kind: str  # "exact" | "upper" | "lower"
    source: str
    value: Optional[int]
    applicable: bool = True
    reason: Optional[str] = None

    @staticmethod
    def inapplicable(kind: str, source: str, reason: str) -> "Prediction":
        return Prediction(kind, source, None, applicable=False, reason=reason)


# ---------------------------------------------------------------------------
# tree bounds


def tree_support_leaf_bound(n: int, s: int, l: int) -> int:
    """ceil((n + 7s - 5l) / 4)."""
    if n < 2 or s < 1 or l < 1:
        raise ValueError("requires n >= 2, s >= 1, l >= 1")
    return ceil_div(n + 7 * s - 5 * l, 4)


def tree_domination_bound(n: int, gamma: int) -> int:
    """3*gamma - n; gamma within Ore's range."""
    if not (1 <= gamma <= ceil_div(n, 2)):
        raise ValueError("requires 1 <= gamma <= ceil(n/2)")
    return 3 * gamma - n


def tree_independence_bounds(n: int, beta0: int) -> Tuple[int, int]:
    """The stated bound 2n - beta0 and the proof-derived 2n - 3*beta0.

    The statement and its proof disagree; both candidates are returned,
    (stated, proof_derived), and tested empirically downstream.
    """
    if not (ceil_div(n, 2) <= beta0 <= n):
        raise ValueError("requires ceil(n/2) <= beta0 <= n")
    return 2 * n - beta0, 2 * n - 3 * beta0


# ---------------------------------------------------------------------------
# corona bounds (|G| = n, |H| = m, H within CORONA_DOMAIN)

CORONA_DOMAIN = "needs H connected with min degree >= 2 (so |H| >= 3)"


def corona_covers(h: Graph) -> bool:
    """Whether H meets the hypothesis of every corona bound, as stated in
    ``CORONA_DOMAIN``."""
    return h.n >= 3 and h.is_connected() and min(map(len, h.adj)) >= 2


def corona_upper_bound(n: int, m: int) -> Tuple[int, int]:
    """(stated_formula, construction_weight) for the corona upper bound.

    The stated formula is (m-4)*ceil(n/2) - m*floor(n/2) + 2n. The
    labeling used to prove it (anchors 2; m-1 ones and one -1 in the first
    ceil(n/2) copies; -1 elsewhere) actually weighs
    2n + (m-2)*ceil(n/2) - m*floor(n/2); both are reported.
    """
    if m < 3 or n < 1:
        raise ValueError("requires m >= 3 and n >= 1")
    half_up = ceil_div(n, 2)
    half_down = n // 2
    stated = (m - 4) * half_up - m * half_down + 2 * n
    construction = 2 * n + (m - 2) * half_up - m * half_down
    return stated, construction


def corona_lower_bound(n: int, m: int) -> int:
    """(2 - m) * n + 2 * floor(n/m)."""
    if m < 3 or n < 1:
        raise ValueError("requires m >= 3 and n >= 1")
    return (2 - m) * n + 2 * (n // m)


def lemma_inequality_holds(n: int, m: int) -> bool:
    """floor(n/m)*m + n <= ceil((n*m + n) / 2)."""
    if m < 3 or n < 1:
        raise ValueError("requires m >= 3 and n >= 1")
    return (n // m) * m + n <= ceil_div(n * m + n, 2)


def lemma_failures(ns: range, ms: range) -> List[Tuple[int, int]]:
    """The (n, m) of ``ns`` x ``ms`` where the lemma inequality fails."""
    return [(n, m) for n in ns for m in ms if not lemma_inequality_holds(n, m)]


# ---------------------------------------------------------------------------
# prediction dispatch


class ExactFamily(NamedTuple):
    """A family theorem: the closed-form value, the test of the parameter
    tuples it covers, and that domain as text. Parameters come in the
    family's GraphSpec field order."""

    value: Callable[..., int]
    covers: Callable[..., bool]
    domain: str


def _wheel_fan(n: int) -> int:
    return 2 * ceil_div(n, 6) - n + 3


# every exact family, by its graph.FAMILIES name
EXACT_VALUES = {
    "complete": ExactFamily(
        lambda n: 2 if n == 3 else 1, lambda n: n >= 2, "needs n >= 2"
    ),
    "star": ExactFamily(lambda n: 3 - n, lambda n: n >= 2, "needs n >= 2"),
    "wheel": ExactFamily(_wheel_fan, lambda n: n >= 4, "needs n >= 4"),
    "fan": ExactFamily(_wheel_fan, lambda n: n >= 4, "needs n >= 4"),
    "complement_path": ExactFamily(lambda n: -1, lambda n: n >= 12, "needs n >= 12"),
    "complement_cycle": ExactFamily(lambda n: -1, lambda n: n >= 12, "needs n >= 12"),
    "complete_minus_matching": ExactFamily(
        lambda n: 0, lambda n: n >= 3, "needs n >= 3"
    ),
    "join_complete": ExactFamily(
        lambda m, n: 1,
        lambda m, n: 2 <= m <= n and 3 not in (m, n),
        "needs 2 <= m <= n and m, n != 3",
    ),
    "corona_k3": ExactFamily(lambda k: -k, lambda k: k >= 1, "needs k >= 1"),
}


def exact_value(family: str, *params) -> Optional[int]:
    """An exact family's value at its parameters, or None outside its domain."""
    fam = EXACT_VALUES[family]
    return fam.value(*params) if fam.covers(*params) else None


def outside_domain(family: str, *params) -> str:
    """Why an exact family's parameters get no value, naming each one."""
    given = ", ".join(f"{f}={p}" for f, p in zip(FAMILIES[family].fields, params))
    return (
        f"{family}: {given} outside the closed form's domain "
        f"({EXACT_VALUES[family].domain})"
    )


def predict(spec: GraphSpec) -> List[Prediction]:
    """All closed-form predictions that name this spec's family.

    Predictions outside a theorem's stated domain are returned flagged as
    inapplicable. Families without a closed form yield an empty list.
    """
    f = spec.family
    out: List[Prediction] = []
    if f in EXACT_VALUES:
        value = exact_value(f, *spec.params())
        if value is None:
            out.append(Prediction.inapplicable("exact", f, EXACT_VALUES[f].domain))
        else:
            out.append(Prediction("exact", f, value))
    elif f == "corona":
        g_spec, h_spec = spec.parts
        g = generate(g_spec)
        h = generate(h_spec)
        n, m = g.n, h.n
        if corona_covers(h):
            stated, construction = corona_upper_bound(n, m)
            out.append(Prediction("upper", "corona_upper_stated", stated))
            out.append(Prediction("upper", "corona_upper_construction", construction))
            out.append(Prediction("lower", "corona_lower", corona_lower_bound(n, m)))
        else:
            for kind, source in (
                ("upper", "corona_upper_stated"),
                ("upper", "corona_upper_construction"),
                ("lower", "corona_lower"),
            ):
                out.append(Prediction.inapplicable(kind, source, CORONA_DOMAIN))
    return out
