"""Closed-form conversions among Weyl, P-Q and Q-P operator orderings.

All six monomial conversion maps are literally one generator,
:func:`weylkit.opalg._conversion_terms`, of the coefficient family

    sum over l of f^l l! C(m,l) C(r,l) * Q^(m-l) P^(r-l),

with the factor f read by source and target tag from ``_FACTORS``:
+-i/2 to or from Weyl form, +-i between the two word orders.  The
generator lives in :mod:`weylkit.opalg` beside :func:`weylkit.opalg._product`,
the package's one polynomial product, which reorders by the same family;
:class:`CommutativePoly2` multiplies through it with f = 0.  The
closed-form commutators, :func:`convert`, the (P+Q)^n expansions and the
symbolic phase-space transform in :mod:`weylkit.phasexform` are sums
over the same generator, each accumulated by one
:func:`weylkit.opalg.collect`.

The same reduction arises from two-variable Hermite polynomials with
scaled arguments; both routes are implemented (the Hermite route
symbolically, over Q(i, sqrt2)) and their exact agreement is part of
the test suite, so :func:`hermite_two_var` keeps its own factorial
formula.  Everything here is a pure function over exact scalars, so
conversions can be cross-checked bit-for-bit against the brute-force
rewriting oracle in :mod:`weylkit.opalg`, which shares none of this code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping

from .exactnum import ExactScalar, I, I_HALF, MINUS_I, ONE, SQRT2, ZERO
from .opalg import (
    FreeExpression,
    OrderedPolynomial,
    Ordering,
    P,
    ProductNode,
    Q,
    ScalarNode,
    SumNode,
    _conversion_terms,
    _product,
    collect,
)

MINUS_I_HALF = -I_HALF


@dataclass(frozen=True)
class CommutativePoly2:
    """Commutative polynomial in two variables with exact coefficients."""

    terms: Mapping[tuple[int, int], ExactScalar] = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[tuple[int, int], ExactScalar]]
    ) -> CommutativePoly2:
        return cls(collect(terms))

    @classmethod
    def zero(cls) -> CommutativePoly2:
        return cls({})

    @classmethod
    def monomial(cls, i: int, j: int, coeff: ExactScalar = ONE) -> CommutativePoly2:
        return cls.from_terms([((i, j), coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: CommutativePoly2) -> CommutativePoly2:
        return CommutativePoly2.from_terms(
            list(self.terms.items()) + list(other.terms.items())
        )

    def __mul__(self, other: CommutativePoly2) -> CommutativePoly2:
        return CommutativePoly2(_product(self.terms, other.terms, ZERO))

    def scale(self, factor: ExactScalar) -> CommutativePoly2:
        if factor.is_zero():
            return CommutativePoly2.zero()
        return CommutativePoly2(
            {key: coeff * factor for key, coeff in self.terms.items()}
        )

    def scale_vars(self, cx: ExactScalar, cy: ExactScalar) -> CommutativePoly2:
        """Substitute x -> cx*x, y -> cy*y."""
        return CommutativePoly2.from_terms(
            ((i, j), coeff * cx**i * cy**j)
            for (i, j), coeff in self.terms.items()
        )

    def derivative(self, var: int) -> CommutativePoly2:
        """Partial derivative with respect to variable 0 (x) or 1 (y)."""
        out: list[tuple[tuple[int, int], ExactScalar]] = []
        for (i, j), coeff in self.terms.items():
            if var == 0 and i > 0:
                out.append(((i - 1, j), coeff * ExactScalar.from_int(i)))
            elif var == 1 and j > 0:
                out.append(((i, j - 1), coeff * ExactScalar.from_int(j)))
        return CommutativePoly2.from_terms(out)

    def evaluate(self, x: complex, y: complex) -> complex:
        """Double-precision evaluation."""
        total = 0.0 + 0.0j
        for (i, j), coeff in self.terms.items():
            total += coeff.to_complex() * (x**i) * (y**j)
        return total


def hermite_two_var(m: int, r: int) -> CommutativePoly2:
    """Two-variable Hermite polynomial H[m,r](t, s) with exact coefficients.

    H[m,r](t, s) = sum_{l=0}^{min(m,r)} m! r! (-1)^l / (l!(m-l)!(r-l)!)
                   * t^(m-l) s^(r-l)
    """
    terms = []
    for l in range(min(m, r) + 1):
        num = math.factorial(m) * math.factorial(r) * (-1) ** l
        den = math.factorial(l) * math.factorial(m - l) * math.factorial(r - l)
        terms.append(((m - l, r - l), ExactScalar.rational(num, den)))
    return CommutativePoly2.from_terms(terms)


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


def _weyl_image_via_hermite(m: int, r: int, conjugated: bool) -> CommutativePoly2:
    """Literal Hermite-form route to the Weyl symbol of Q^m P^r / P^r Q^m.

    Expands (1/sqrt2)^(m+r) (-i)^r H[m,r](sqrt2 x, i sqrt2 y) exactly
    over Q(i, sqrt2); the sqrt2 and i powers cancel into Q(i).  With
    ``conjugated`` the i's flip sign, giving the reversed-word variant.
    """
    sign_i = MINUS_I if not conjugated else I
    prefactor = SQRT2.invert() ** (m + r) * sign_i**r
    scaled = hermite_two_var(m, r).scale_vars(
        SQRT2, (I if not conjugated else MINUS_I) * SQRT2
    )
    return scaled.scale(prefactor)


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
    """Linear extension of the monomial conversion maps."""
    if p.ordering is target:
        return p
    factor = _FACTORS[p.ordering, target]
    return OrderedPolynomial.from_terms(
        target,
        (
            (key, c * coeff)
            for mon, coeff in p.terms.items()
            for key, c in _conversion_terms(mon.m, mon.r, factor)
        ),
    )


def weyl_symmetrization(m: int, r: int) -> FreeExpression:
    """Defining symmetrized word: (1/2)^m sum_l C(m,l) Q^(m-l) P^r Q^l.

    Returns a free expression; rewriting it is the ground-truth oracle
    for the Weyl conversion formulas.
    """
    parts = []
    for l in range(m + 1):
        coeff = ExactScalar(Fraction(math.comb(m, l), 2**m))
        word = (Q,) * (m - l) + (P,) * r + (Q,) * l
        node = ProductNode(word) if word else ScalarNode(ONE)
        parts.append(ScalarNode(coeff) * node)
    return SumNode(tuple(parts))
