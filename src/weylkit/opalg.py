"""Noncommutative polynomials in (Q, P) and (a, a+): one closed-form
product, and the brute-force rewriting oracle kept apart from it.

:func:`_product` is the package's one polynomial product.  Its terms are
keyed (a, b) = left^a right^b; it moves right^b1 past left^a2 under
right*left = left*right + f by the reordering family that
:mod:`weylkit.ordering` converts with, :func:`_conversion_terms`, which
lives here.  :func:`_evaluate` folds it over a parse tree: f = 0 for
block bodies and :class:`weylkit.ordering.CommutativePoly2`, f = 1 over
(a+, a) for :func:`normal_order` and :func:`substitute_ladder`.

The rewriting oracle (:func:`rewrite_to_pq`, :func:`rewrite_to_qp`,
:func:`commutator`) uses none of it: it expands into words over the
symbol alphabet and applies adjacent-pair rules to exhaustion,

    Q P -> P Q + i        (P-Q target)
    P Q -> Q P - i        (Q-P target)
    a a+ -> a+ a + 1      (normal ordering)

Each swap strictly reduces the number of out-of-order pairs, so the
process terminates; confluence makes the normal form independent of the
scan strategy.  The rule is applied one pair at a time, at the leftmost
out-of-order pair, but each intermediate word of one word's rewrite is
normal-ordered once and the powers of the correction are counted as
integers, so the cost is polynomial in the word length.  The oracle is
the ground truth that every closed form is tested against.

:func:`collect` is the package's single sparse-sum core.  All values are
immutable and the operations are pure.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .exactnum import ExactScalar, I, MINUS_I, ONE, SQRT2, ZERO


class UnsupportedSymbolError(ValueError):
    """An operation received a symbol outside its alphabet."""


class Ordering(enum.Enum):
    """Interpretation tag for an :class:`OrderedPolynomial`."""

    PQ = "pq"      # each term (m, r) means P^r Q^m
    QP = "qp"      # each term (m, r) means Q^m P^r
    WEYL = "weyl"  # each term (m, r) means the fully symmetrized Q^m P^r


class LadderOrdering(enum.Enum):
    NORMAL = "normal"  # each term (j, k) means (a+)^j a^k


class Monomial(NamedTuple):
    """Exponent pair: ``m`` powers of Q and ``r`` powers of P."""

    m: int
    r: int

    @property
    def degree(self) -> int:
        return self.m + self.r


def collect(pairs: Iterable[tuple[Hashable, ExactScalar]]) -> dict:
    """Sum coefficients by key, dropping keys whose sum is zero.

    Keys stay in order of first appearance (a key whose sum hit zero
    re-enters at the end), so one call over a concatenation gives the
    same dict, order included, as collecting its parts in turn.
    """
    out: dict = {}
    for key, coeff in pairs:
        acc = out.get(key)
        coeff = coeff if acc is None else acc + coeff
        if coeff.is_zero():
            out.pop(key, None)
        else:
            out[key] = coeff
    return out


def _conversion_terms(
    m: int, r: int, factor: ExactScalar
) -> Iterator[tuple[tuple[int, int], ExactScalar]]:
    """((m-l, r-l), factor^l l! C(m,l) C(r,l)) for l = 0..min(m,r): right^m
    left^r as left^(r-l) right^(m-l), keyed (#right, #left), when
    right*left = left*right + factor.  The l = 0 coefficient is ``ONE``
    itself, and a zero factor yields it alone: no scalar products."""
    yield (m, r), ONE
    if factor.is_zero():
        return
    power = ONE
    for l in range(1, min(m, r) + 1):
        power = power * factor
        count = math.factorial(l) * math.comb(m, l) * math.comb(r, l)
        yield (m - l, r - l), ExactScalar.from_int(count) * power


def _product(x: Mapping, y: Mapping, f: ExactScalar) -> dict:
    """Product of term dicts keyed (a, b) = left^a right^b, x outer, y inner:
    (left^a1 right^b1)(left^a2 right^b2) = sum_l f^l l! C(b1,l) C(a2,l)
    left^(a1+a2-l) right^(b1+b2-l), where right*left = left*right + f."""

    def terms():
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                c = c1 * c2
                for (b, a), n in _conversion_terms(b1, a2, f):
                    yield (a1 + a, b + b2), c if n is ONE else c * n

    return collect(terms())


def term_sort_key(mon: Monomial) -> tuple[int, int]:
    """Descending total degree, then descending Q power."""
    return (-mon.degree, -mon.m)


@dataclass(frozen=True)
class OrderedPolynomial:
    """Finite sum of monomials Q^m P^r under a fixed ordering tag."""

    ordering: Ordering
    terms: Mapping[Monomial, ExactScalar] = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls,
        ordering: Ordering,
        terms: Iterable[tuple[tuple[int, int], ExactScalar]],
    ) -> OrderedPolynomial:
        return cls(ordering, collect((Monomial(*key), c) for key, c in terms))

    @classmethod
    def zero(cls, ordering: Ordering) -> OrderedPolynomial:
        return cls(ordering, {})

    @classmethod
    def monomial(
        cls, ordering: Ordering, m: int, r: int, coeff: ExactScalar = ONE
    ) -> OrderedPolynomial:
        return cls.from_terms(ordering, [((m, r), coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, ExactScalar]]:
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __add__(self, other: OrderedPolynomial) -> OrderedPolynomial:
        if self.ordering is not other.ordering:
            raise ValueError("cannot add polynomials with different tags")
        return OrderedPolynomial.from_terms(
            self.ordering,
            list(self.terms.items()) + list(other.terms.items()),
        )

    def __neg__(self) -> OrderedPolynomial:
        return self.scale(ExactScalar.from_int(-1))

    def __sub__(self, other: OrderedPolynomial) -> OrderedPolynomial:
        return self + (-other)

    def scale(self, factor: ExactScalar) -> OrderedPolynomial:
        if factor.is_zero():
            return OrderedPolynomial.zero(self.ordering)
        return OrderedPolynomial(
            self.ordering,
            {mon: coeff * factor for mon, coeff in self.terms.items()},
        )

    def max_degree(self) -> int:
        return max((mon.degree for mon in self.terms), default=0)

    def adjoint(self) -> OrderedPolynomial:
        """Formal adjoint: reverse each word, conjugate coefficients.

        Q and P are self-adjoint, so (P^r Q^m)+ = Q^m P^r and the tag
        flips between PQ and QP; the Weyl tag is self-reversing.
        """
        flip = {Ordering.PQ: Ordering.QP, Ordering.QP: Ordering.PQ}
        tag = flip.get(self.ordering, self.ordering)
        return OrderedPolynomial(
            tag, {mon: coeff.conjugate() for mon, coeff in self.terms.items()}
        )


@dataclass(frozen=True)
class LadderPolynomial:
    """Finite sum of ladder words (a+)^j a^k under an ordering tag."""

    ordering: LadderOrdering
    terms: Mapping[tuple[int, int], ExactScalar] = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls,
        ordering: LadderOrdering,
        terms: Iterable[tuple[tuple[int, int], ExactScalar]],
    ) -> LadderPolynomial:
        return cls(ordering, collect(terms))

    def is_zero(self) -> bool:
        return not self.terms


# ---------------------------------------------------------------------------
# Free expressions
# ---------------------------------------------------------------------------


class Symbol(enum.Enum):
    Q = "Q"
    P = "P"
    A = "a"
    ADAG = "adag"


Word = tuple[Symbol, ...]


class FreeExpression:
    """Unreduced parse tree of sums, products and powers of symbols."""

    __slots__ = ()

    def __add__(self, other) -> FreeExpression:
        other = _as_expression(other)
        return SumNode((self, other))

    def __radd__(self, other) -> FreeExpression:
        return _as_expression(other) + self

    def __sub__(self, other) -> FreeExpression:
        return self + (-_as_expression(other))

    def __rsub__(self, other) -> FreeExpression:
        return _as_expression(other) + (-self)

    def __neg__(self) -> FreeExpression:
        return ScalarNode(ExactScalar.from_int(-1)) * self

    def __mul__(self, other) -> FreeExpression:
        other = _as_expression(other)
        return ProductNode((self, other))

    def __rmul__(self, other) -> FreeExpression:
        return _as_expression(other) * self

    def __pow__(self, exponent: int) -> FreeExpression:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("powers take non-negative integer exponents")
        return PowerNode(self, exponent)

    def expand(self) -> dict[Word, ExactScalar]:
        """Distribute into a word-indexed linear combination."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarNode(FreeExpression):
    __slots__ = ("value",)
    value: ExactScalar

    def expand(self) -> dict[Word, ExactScalar]:
        if self.value.is_zero():
            return {}
        return {(): self.value}


@dataclass(frozen=True)
class SymbolNode(FreeExpression):
    __slots__ = ("symbol",)
    symbol: Symbol

    def expand(self) -> dict[Word, ExactScalar]:
        return {(self.symbol,): ONE}


@dataclass(frozen=True)
class SumNode(FreeExpression):
    __slots__ = ("children",)
    children: tuple[FreeExpression, ...]

    def expand(self) -> dict[Word, ExactScalar]:
        return collect(
            pair for child in self.children for pair in child.expand().items()
        )


@dataclass(frozen=True)
class ProductNode(FreeExpression):
    __slots__ = ("children",)
    children: tuple[FreeExpression, ...]

    def expand(self) -> dict[Word, ExactScalar]:
        out: dict[Word, ExactScalar] = {(): ONE}
        for child in self.children:
            rhs = child.expand()
            out = collect(
                (w1 + w2, c1 * c2)
                for w1, c1 in out.items()
                for w2, c2 in rhs.items()
            )
        return out


@dataclass(frozen=True)
class PowerNode(FreeExpression):
    __slots__ = ("base", "exponent")
    base: FreeExpression
    exponent: int

    def expand(self) -> dict[Word, ExactScalar]:
        return ProductNode((self.base,) * self.exponent).expand()


def _as_expression(value) -> FreeExpression:
    if isinstance(value, FreeExpression):
        return value
    if isinstance(value, ExactScalar):
        return ScalarNode(value)
    if isinstance(value, int):
        return ScalarNode(ExactScalar.from_int(value))
    raise TypeError(f"cannot use {value!r} in a free expression")


def scalar(value: ExactScalar | int) -> FreeExpression:
    return _as_expression(value)


Q = SymbolNode(Symbol.Q)
P = SymbolNode(Symbol.P)
A = SymbolNode(Symbol.A)
ADAG = SymbolNode(Symbol.ADAG)


def _evaluate(tree: FreeExpression, leaves: Mapping, f: ExactScalar) -> dict:
    """Terms of ``tree``, each symbol read as its term dict in ``leaves``,
    folded bottom-up and left to right with :func:`_product`.

    A symbol without a leaf is refused wherever it stands, even under a
    zero coefficient.  A one-term leaf must be a bare generator with
    coefficient ``ONE``, so that its power is one monomial.
    """
    if isinstance(tree, SumNode):
        parts = (_evaluate(child, leaves, f).items() for child in tree.children)
        return collect(pair for part in parts for pair in part)
    if isinstance(tree, ScalarNode):
        return {} if tree.value.is_zero() else {(0, 0): tree.value}
    if isinstance(tree, SymbolNode):
        if tree.symbol not in leaves:
            name = tree.symbol.value
            raise UnsupportedSymbolError(f"symbol {name!r} is not in this algebra")
        return dict(leaves[tree.symbol])
    if isinstance(tree, PowerNode):
        base = _evaluate(tree.base, leaves, f)
        if isinstance(tree.base, SymbolNode) and len(base) == 1:
            ((a, b),) = base  # one monomial, not e - 1 products
            return {(a * tree.exponent, b * tree.exponent): ONE}
        factors = itertools.repeat(base, tree.exponent)
    else:
        factors = (_evaluate(child, leaves, f) for child in tree.children)
    out = next(factors, {(0, 0): ONE})  # an empty product is the unit
    for factor in factors:
        out = _product(out, factor, f)
    return out


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def _rewrite_word(
    word: Word, left: Symbol, right: Symbol, correction: ExactScalar
) -> tuple[dict[tuple[int, int], ExactScalar], int]:
    """Normal-order one word so every `left` stands left of every `right`.

    The rule  right*left -> left*right + correction  is applied at the
    leftmost out-of-order pair until none remains.  Also returns the
    longest chain of rule applications: each application removes an
    inversion from the word it rewrites, so chains are bounded by the
    inversion count and never exceed len(word)**2.

    The rule is still applied one pair at a time, but each intermediate
    word is normal-ordered once per call: a memo, dropped on return, maps
    it to an integer path count per output key (#right, #left) and its
    longest chain.  Powers of the correction are counted as integers:
    each contraction removes one right/left pair, so a key was reached by
    k = (len(word) - #right - #left) / 2 contractions and its coefficient
    is  count * correction**k.
    """
    for sym in word:
        if sym is not left and sym is not right:
            raise UnsupportedSymbolError(
                f"symbol {sym.value!r} not supported by this rewrite"
            )
    # One character per symbol: "l" for `left`, "r" for `right`.
    text = "".join("l" if sym is left else "r" for sym in word)
    if "rl" not in text:
        return {(text.count("r"), text.count("l")): ONE}, 0
    memo: dict[str, tuple[dict[tuple[int, int], int], int]] = {}
    stack = [text]
    while stack:
        current = stack[-1]
        if current in memo:
            stack.pop()
            continue
        pos = current.find("rl")
        if pos < 0:
            memo[current] = ({(current.count("r"), current.count("l")): 1}, 0)
            stack.pop()
            continue
        swapped = current[:pos] + "lr" + current[pos + 2 :]
        contracted = current[:pos] + current[pos + 2 :]
        pending = [w for w in (swapped, contracted) if w not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        # Contracted paths first, as a depth-first walk would meet them.
        counts, chain = memo[contracted]
        counts = dict(counts)
        for key, n in memo[swapped][0].items():
            counts[key] = counts.get(key, 0) + n
        memo[current] = (counts, 1 + max(chain, memo[swapped][1]))
    counts, longest_chain = memo[text]
    powers = [ONE]
    out: dict[tuple[int, int], ExactScalar] = {}
    for key, n in counts.items():
        k = (len(text) - sum(key)) // 2
        while len(powers) <= k:
            powers.append(powers[-1] * correction)
        c = powers[k]  # scaled componentwise: 4 products, not 16
        out[key] = ExactScalar(n * c.ra, n * c.ia, n * c.rb, n * c.ib)
    return out, longest_chain


def _rewrite_expression(
    e: FreeExpression, target: Ordering
) -> tuple[OrderedPolynomial, int]:
    if target is Ordering.PQ:
        left, right, correction = Symbol.P, Symbol.Q, I
        key_of = lambda counts: counts  # (m, r) = (#Q, #P)
    else:
        left, right, correction = Symbol.Q, Symbol.P, MINUS_I
        key_of = lambda counts: (counts[1], counts[0])
    terms: list[tuple[tuple[int, int], ExactScalar]] = []
    longest_chain = 0
    for word, coeff in e.expand().items():
        word_terms, chain = _rewrite_word(word, left, right, correction)
        longest_chain = max(longest_chain, chain)
        for counts, c in word_terms.items():
            terms.append((key_of(counts), c * coeff))
    return OrderedPolynomial.from_terms(target, terms), longest_chain


def rewrite_to_pq(e: FreeExpression) -> OrderedPolynomial:
    """Canonical P-Q form of an expression over {Q, P, scalars}."""
    return _rewrite_expression(e, Ordering.PQ)[0]


def rewrite_to_qp(e: FreeExpression) -> OrderedPolynomial:
    """Canonical Q-P form of an expression over {Q, P, scalars}."""
    return _rewrite_expression(e, Ordering.QP)[0]


# Ladder terms are keyed (j, k) = (a+)^j a^k, and a a+ = a+ a + 1.
_LADDER_LEAVES = {Symbol.ADAG: {(1, 0): ONE}, Symbol.A: {(0, 1): ONE}}
_INV_SQRT2 = SQRT2.invert()
# Q = (a + a+)/sqrt2,  P = (a - a+)/(sqrt2 i)
_LADDER_IMAGE = {
    Symbol.Q: {(0, 1): _INV_SQRT2, (1, 0): _INV_SQRT2},
    Symbol.P: {(0, 1): MINUS_I * _INV_SQRT2, (1, 0): I * _INV_SQRT2},
}


def normal_order(e: FreeExpression) -> LadderPolynomial:
    """Normal-order an expression over {a, a+, scalars}."""
    return LadderPolynomial(LadderOrdering.NORMAL, _evaluate(e, _LADDER_LEAVES, ONE))


def substitute_ladder(e: FreeExpression) -> LadderPolynomial:
    """Rewrite a {Q, P} expression in normal-ordered ladder form."""
    return LadderPolynomial(LadderOrdering.NORMAL, _evaluate(e, _LADDER_IMAGE, ONE))


def commutator(x: FreeExpression, y: FreeExpression) -> OrderedPolynomial:
    """[x, y] = xy - yx in canonical P-Q form."""
    return rewrite_to_pq(x * y - y * x)


def _qp_monomial_expression(m: int, r: int) -> FreeExpression:
    return ProductNode((Q,) * m + (P,) * r) if m + r else ScalarNode(ONE)


def _pq_monomial_expression(m: int, r: int) -> FreeExpression:
    return ProductNode((P,) * r + (Q,) * m) if m + r else ScalarNode(ONE)


def to_expression(p: OrderedPolynomial) -> FreeExpression:
    """Explicit word form of a PQ- or QP-tagged polynomial."""
    if p.ordering is Ordering.WEYL:
        raise UnsupportedSymbolError(
            "Weyl-tagged polynomials have no direct word form; convert first"
        )
    build = (
        _pq_monomial_expression
        if p.ordering is Ordering.PQ
        else _qp_monomial_expression
    )
    parts = [
        ScalarNode(coeff) * build(mon.m, mon.r)
        for mon, coeff in p.sorted_terms()
    ]
    if not parts:
        return ScalarNode(ZERO)
    return SumNode(tuple(parts))


def canonical_pq(p: OrderedPolynomial) -> OrderedPolynomial:
    """Funnel any tag to the canonical P-Q form."""
    if p.ordering is Ordering.PQ:
        return p
    from . import ordering as _ordering  # deferred: avoids import cycle

    return _ordering.convert(p, Ordering.PQ)


def poly_equal(x: OrderedPolynomial, y: OrderedPolynomial) -> bool:
    """Operator equality, decided on canonical P-Q forms."""
    return canonical_pq(x).terms == canonical_pq(y).terms
