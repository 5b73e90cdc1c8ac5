"""Closed-form conversions among Weyl, P-Q and Q-P operator orderings.

All six monomial conversion maps are literally one generator,
:func:`weylkit.opalg._conversion_terms`, of the coefficient family

    sum over l of f^l l! C(m,l) C(r,l) * Q^(m-l) P^(r-l),

with the factor f read by source and target tag from ``_FACTORS``:
+-i/2 to or from Weyl form, +-i between the two word orders.  The
generator lives in :mod:`weylkit.opalg` beside :func:`weylkit.opalg._product`,
the package's one polynomial product, which reorders by the same family.
The closed-form commutators, :func:`convert` and the (P+Q)^n expansions
are sums over the same generator, each accumulated by one
:func:`weylkit.opalg.collect`.

Two second routes reach the same coefficients without reading
``_FACTORS``, and ``weylkit verify hermite`` checks both exactly:
two-variable Hermite polynomials with scaled arguments give the Weyl
images of words (:func:`_weyl_image_via_hermite`, over Q(i, sqrt2), so
:func:`hermite_two_var` keeps its own factorial formula), and repeated
differentiation of e^{-2ist} gives :func:`weyl_to_pq`
(:func:`derivative_representation`).  Both return
:class:`weylkit.opalg.OrderedPolynomial` values, tagged Weyl and P-Q,
and neither calls the generator or the product.  Everything here is a pure
function over exact scalars, but for :func:`convert` charging an open
work budget, so conversions can be cross-checked bit-for-bit against
the brute-force rewriting oracle in :mod:`weylkit.opalg`, which shares
none of this code.
"""

from __future__ import annotations

import math
from itertools import chain, islice

from .exactnum import ExactScalar, I, I_HALF, MINUS_I, ONE, SQRT2
from .opalg import (
    FreeExpression,
    OrderedPolynomial,
    Ordering,
    P,
    ProductNode,
    Q,
    ScalarNode,
    SumNode,
    _BUDGET,
    _coefficient_bits,
    _conversion_term_work,
    _conversion_terms,
    collect,
)

MINUS_I_HALF = -I_HALF
MINUS_2I = MINUS_I * ExactScalar.from_int(2)


def hermite_two_var(m: int, r: int) -> OrderedPolynomial:
    """Two-variable Hermite polynomial H[m,r](t, s) with exact coefficients,
    read as a Weyl symbol (t -> Q, s -> P).

    H[m,r](t, s) = sum_{l=0}^{min(m,r)} m! r! (-1)^l / (l!(m-l)!(r-l)!)
                   * t^(m-l) s^(r-l)
    """
    terms = []
    for l in range(min(m, r) + 1):
        num = math.factorial(m) * math.factorial(r) * (-1) ** l
        den = math.factorial(l) * math.factorial(m - l) * math.factorial(r - l)
        terms.append(((m - l, r - l), ExactScalar.rational(num, den)))
    return OrderedPolynomial.from_terms(Ordering.WEYL, terms)


# Factor of the coefficient family for each (source, target) tag pair.
_FACTORS = {
    (Ordering.WEYL, Ordering.PQ): I_HALF,
    (Ordering.WEYL, Ordering.QP): MINUS_I_HALF,
    (Ordering.QP, Ordering.WEYL): I_HALF,
    (Ordering.PQ, Ordering.WEYL): MINUS_I_HALF,
    (Ordering.QP, Ordering.PQ): I,
    (Ordering.PQ, Ordering.QP): MINUS_I,
}


def _monomial_image(
    source: Ordering, target: Ordering, m: int, r: int
) -> OrderedPolynomial:
    factor = _FACTORS[source, target]
    return OrderedPolynomial.from_terms(target, _conversion_terms(m, r, factor))


def weyl_to_pq(m: int, r: int) -> OrderedPolynomial:
    """P-Q expansion of the symmetrized monomial Q^m P^r."""
    return _monomial_image(Ordering.WEYL, Ordering.PQ, m, r)


def weyl_to_qp(m: int, r: int) -> OrderedPolynomial:
    """Q-P expansion of the symmetrized monomial Q^m P^r."""
    return _monomial_image(Ordering.WEYL, Ordering.QP, m, r)


def qp_to_weyl(m: int, r: int) -> OrderedPolynomial:
    """Weyl-ordered expansion of the word Q^m P^r."""
    return _monomial_image(Ordering.QP, Ordering.WEYL, m, r)


def pq_to_weyl(m: int, r: int) -> OrderedPolynomial:
    """Weyl-ordered expansion of the word P^r Q^m."""
    return _monomial_image(Ordering.PQ, Ordering.WEYL, m, r)


def qp_to_pq(m: int, r: int) -> OrderedPolynomial:
    """P-Q expansion of the word Q^m P^r."""
    return _monomial_image(Ordering.QP, Ordering.PQ, m, r)


def pq_to_qp(m: int, r: int) -> OrderedPolynomial:
    """Q-P expansion of the word P^r Q^m."""
    return _monomial_image(Ordering.PQ, Ordering.QP, m, r)


def _weyl_image_via_hermite(m: int, r: int, conjugated: bool) -> OrderedPolynomial:
    """Literal Hermite-form route to the Weyl symbol of Q^m P^r / P^r Q^m.

    Expands (1/sqrt2)^(m+r) (-i)^r H[m,r](sqrt2 x, i sqrt2 y) exactly
    over Q(i, sqrt2); the sqrt2 and i powers cancel into Q(i).  With
    ``conjugated`` the i's flip sign, giving the reversed-word variant.
    """
    sign_i = MINUS_I if not conjugated else I
    prefactor = SQRT2.invert() ** (m + r) * sign_i**r
    cy = -sign_i * SQRT2
    scaled = (
        ((j, k), coeff * SQRT2**j * cy**k)
        for (j, k), coeff in hermite_two_var(m, r).terms.items()
    )
    return OrderedPolynomial.from_terms(Ordering.WEYL, scaled).scale(prefactor)


def derivative_representation(m: int, r: int) -> OrderedPolynomial:
    """Coefficients of :func:`weyl_to_pq` (m, r) via repeated
    differentiation of e^{-2ist}.

    Computes e^{2ist} (d/dt)^r (d/ds)^m e^{-2ist} on the polynomial
    prefactor and divides by (-2i)^(m+r): each derivative of the
    exponential word pulls down a factor -2i times the dual variable, so
    the raw result overshoots by exactly that power.  Each step only
    shifts keys, so the route needs no polynomial product.
    """
    # u(t, s) is the prefactor of e^{-2ist}, keyed (power of t, power of s):
    # d/ds maps it to du/ds - 2i t u, and d/dt to du/dt - 2i s u.
    u = {(0, 0): ONE}
    for _ in range(m):
        u = collect(chain(
            (((i, j - 1), c * ExactScalar.from_int(j)) for (i, j), c in u.items() if j),
            (((i + 1, j), c * MINUS_2I) for (i, j), c in u.items()),
        ))
    for _ in range(r):
        u = collect(chain(
            (((i - 1, j), c * ExactScalar.from_int(i)) for (i, j), c in u.items() if i),
            (((i, j + 1), c * MINUS_2I) for (i, j), c in u.items()),
        ))
    return OrderedPolynomial.from_terms(Ordering.PQ, u.items()).scale(I_HALF ** (m + r))


def commutator_closed_form(m: int, r: int, variant: Ordering) -> OrderedPolynomial:
    """Closed form of [Q^m, P^r] in P-Q or Q-P ordering.

    The P-Q variant drops the k = 0 term of the Q^m P^r expansion; the
    Q-P variant carries an overall minus sign (fixed by [Q, P] = i, as
    the m = r = 1 case shows).
    """
    if variant is Ordering.PQ:
        terms = islice(_conversion_terms(m, r, I), 1, None)
        return OrderedPolynomial.from_terms(Ordering.PQ, terms)
    if variant is Ordering.QP:
        terms = islice(_conversion_terms(m, r, MINUS_I), 1, None)
        return OrderedPolynomial.from_terms(
            Ordering.QP, ((key, -c) for key, c in terms)
        )
    raise ValueError("commutator_closed_form takes the PQ or QP tag")


def p_plus_q_power(n: int, target: Ordering) -> OrderedPolynomial:
    """Expansion of (P + Q)^n in the requested ordering.

    In Weyl form the binomial theorem applies directly,
    (P + Q)^n = sum_l C(n,l) * weyl(Q^l P^(n-l)); the P-Q and Q-P forms
    convert each symmetrized term.
    """
    if n < 0:
        raise ValueError("power must be non-negative")
    if not isinstance(target, Ordering):
        raise ValueError(f"unknown target ordering {target!r}")
    binomial = (
        ((l, n - l), ExactScalar.from_int(math.comb(n, l))) for l in range(n + 1)
    )
    return convert(OrderedPolynomial.from_terms(Ordering.WEYL, binomial), target)


def convert(p: OrderedPolynomial, target: Ordering) -> OrderedPolynomial:
    """Linear extension of the monomial conversion maps.

    In a :class:`weylkit.opalg.work_budget`, each term is charged its
    ``_conversion_term_work`` before its products are made."""
    if p.ordering is target:
        return p
    factor = _FACTORS[p.ordering, target]
    half = Ordering.WEYL in (p.ordering, target)
    budget = _BUDGET.get()
    bits = None if budget is None else _coefficient_bits(p.terms)

    def terms():
        for (m, r), coeff in p.terms.items():
            if budget is not None:
                budget.charge(_conversion_term_work(m, r, bits, half))
            for key, c in _conversion_terms(m, r, factor):
                yield key, c * coeff

    return OrderedPolynomial.from_terms(target, terms())


def weyl_symmetrization(m: int, r: int) -> FreeExpression:
    """Defining symmetrized word: (1/2)^m sum_l C(m,l) Q^(m-l) P^r Q^l.

    Returns a free expression; rewriting it is the ground-truth oracle
    for the Weyl conversion formulas.
    """
    parts = []
    for l in range(m + 1):
        coeff = ExactScalar.rational(math.comb(m, l), 2**m)
        word = (Q,) * (m - l) + (P,) * r + (Q,) * l
        node = ProductNode(word) if word else ScalarNode(ONE)
        parts.append(ScalarNode(coeff) * node)
    return SumNode(tuple(parts))
