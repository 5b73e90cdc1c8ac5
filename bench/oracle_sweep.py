"""``oracle-sweep``: the traffic of ``weylkit verify orderings/commutators``.

Each item computes a closed form and compares it exactly with
brute-force rewriting, as the verify suites do, on seeded exponents.
The rewriting in ``opalg`` does most of the work; many-term ``convert``,
the parser and the numeric layers do almost none.
"""

from __future__ import annotations

from weylkit import opalg, ordering as conv, verify
from weylkit.opalg import ADAG, A, Ordering, P, ProductNode, Q

import reference as ref
from harness import Item, expect, gaussian_terms, rng_for

NAME = "oracle-sweep"
MAX_EXP = 6
MAX_DEGREE = 10
MAX_LADDER_EXP = 7
MAX_LADDER_DEGREE = 9
_GRID = [(m, r) for m in range(MAX_EXP + 1) for r in range(MAX_EXP + 1) if m + r <= MAX_DEGREE]
_LADDER_GRID = [
    (k, j) for k in range(MAX_LADDER_EXP + 1) for j in range(MAX_LADDER_EXP + 1) if k + j <= MAX_LADDER_DEGREE
]
KINDS = {
    "qp_to_pq": len(_GRID),
    "pq_to_qp": len(_GRID),
    "weyl_to_pq": len(_GRID),
    "commutator": len(_GRID),
    "p_plus_q_power": 9,
    "normal_order": len(_LADDER_GRID),
}
SETUP = ""

_ORDER = {Ordering.PQ: "pq", Ordering.QP: "qp"}


def generate(seed: int) -> list[Item]:
    """The exponent grid of the verify suites, every pair once per kind.

    Rewriting cost grows exponentially with the smaller exponent, so a
    sampled grid would make batch cost depend on the draw.  For the same
    reason the commutator ordering, which decides whether the oracle also
    rewrites the closed form, alternates over the grid.  The seed picks
    the (P+Q)^n targets and the order in which the items run.
    """
    rng = rng_for(seed, NAME)
    items = [Item(kind, pair) for kind in ("qp_to_pq", "pq_to_qp", "weyl_to_pq") for pair in _GRID]
    items += [Item("commutator", (m, r, ("pq", "qp")[(m + r) % 2])) for m, r in _GRID]
    items += [Item("p_plus_q_power", (n, rng.choice(("pq", "qp")))) for n in range(KINDS["p_plus_q_power"])]
    items += [Item("normal_order", pair) for pair in _LADDER_GRID]
    rng.shuffle(items)
    return items


def prepare(item: Item, workdir):
    return None


def _tag(name: str) -> Ordering:
    return Ordering.PQ if name == "pq" else Ordering.QP


def execute(item: Item, prepared):
    kind, params = item
    if kind == "qp_to_pq":
        m, r = params
        got = conv.qp_to_pq(m, r)
        want = opalg.rewrite_to_pq(ProductNode((Q,) * m + (P,) * r))
    elif kind == "pq_to_qp":
        m, r = params
        got = conv.pq_to_qp(m, r)
        want = opalg.rewrite_to_qp(ProductNode((P,) * r + (Q,) * m))
    elif kind == "weyl_to_pq":
        m, r = params
        got = conv.weyl_to_pq(m, r)
        want = opalg.rewrite_to_pq(conv.weyl_symmetrization(m, r))
    elif kind == "commutator":
        m, r, variant = params
        got = conv.commutator_closed_form(m, r, _tag(variant))
        want = opalg.commutator(Q**m, P**r)
        if variant == "qp":
            return got, want, opalg.poly_equal(got, want)
    elif kind == "p_plus_q_power":
        n, target = params
        tag = _tag(target)
        got = conv.p_plus_q_power(n, tag)
        rewrite = opalg.rewrite_to_pq if tag is Ordering.PQ else opalg.rewrite_to_qp
        want = rewrite(ProductNode((P + Q,) * n))
    elif kind == "normal_order":
        k, j = params
        return opalg.normal_order(ProductNode((A,) * k + (ADAG,) * j)), None, True
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return got, want, verify._exact(kind, got, want).passed


def _reference(item: Item):
    """(tag, terms) of the closed form and of the rewriting oracle."""
    kind, params = item
    if kind == "qp_to_pq":
        m, r = params
        want = ("pq", ref.word("Q" * m + "P" * r, "pq"))
        return want, want
    if kind == "pq_to_qp":
        m, r = params
        want = ("qp", ref.word("P" * r + "Q" * m, "qp"))
        return want, want
    if kind == "weyl_to_pq":
        want = ("pq", ref.weyl_symmetrization(*params, "pq"))
        return want, want
    if kind == "commutator":
        m, r, variant = params
        closed = ref.commutator(ref.word("Q" * m, variant), ref.word("P" * r, variant), variant)
        brute = ref.commutator(ref.word("Q" * m, "pq"), ref.word("P" * r, "pq"), "pq")
        return (variant, closed), ("pq", brute)
    n, target = params
    want = (target, ref.p_plus_q_power(n, target))
    return want, want


def check(item: Item, prepared, output) -> None:
    got, oracle, verdict = output
    label = f"{item.kind}{item.params}"
    expect(verdict is True, f"{label}: weylkit's own comparison failed")
    if item.kind == "normal_order":
        expect(got.ordering is opalg.LadderOrdering.NORMAL, f"{label}: not normal-ordered")
        expect(gaussian_terms(got.terms) == ref.wick(*item.params), f"{label}: differs from Wick")
        return
    for what, poly, (tag, terms) in zip(("closed form", "rewriting"), (got, oracle), _reference(item)):
        expect(_ORDER.get(poly.ordering) == tag, f"{label}: {what} has tag {poly.ordering}")
        expect(gaussian_terms(poly.terms) == terms, f"{label}: {what} differs from the reference")
