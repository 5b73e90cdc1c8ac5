"""Noncommutative polynomials in (Q, P) and (a, a+): one closed-form
product, and the brute-force rewriting oracle kept apart from it.

:func:`_product` is the package's one polynomial product.  Its terms are
keyed (a, b) = left^a right^b; it moves right^b1 past left^a2 under
right*left = left*right + f by the reordering family that
:mod:`weylkit.ordering` converts with, :func:`_conversion_terms`, which
lives here, and :func:`_power` raises a term dict to a power with it.
The parser folds ordering-block bodies with both, f = 0, as it reads
them; :func:`_evaluate` folds them over a parse tree, f = 1 over (a+, a)
for :func:`normal_order`, a run of one symbol as one power.
In a :class:`work_budget`, :func:`_product` and
:func:`weylkit.ordering.convert` charge their work right before they
multiply, and :func:`_power` before it raises one coefficient; any other
power is its products, charged as the same product written out.  Work
past ``MAX_WORK`` in all is refused; outside a budget nothing is charged
or bounded.

The rewriting oracle (:func:`rewrite_to_pq`, :func:`rewrite_to_qp`,
:func:`commutator`) uses none of it: it expands into words over the
symbol alphabet, a run of symbols or a power of one term as one word,
and applies adjacent-pair rules to exhaustion,

    Q P -> P Q + i        (P-Q target)
    P Q -> Q P - i        (Q-P target)
    a a+ -> a+ a + 1      (normal ordering)

Each swap strictly reduces the number of out-of-order pairs, so the
process terminates; confluence makes the normal form independent of the
scan strategy.  The rule is applied one pair at a time, at the leftmost
out-of-order pair, but each intermediate word is reduced once per call
to its integer path counts by the number of contractions: one memo,
made by the call and dropped on return, serves every word.  Counts are
summed across words before any exact product, so the cost is
polynomial in the word length.  The oracle is the ground truth that
every closed form is tested against.

:func:`collect` is the package's single sparse-sum core.  All values are
immutable and the operations are pure, but for charging an open budget.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .exactnum import ExactScalar, I, MINUS_I, ONE, ZERO

# Most work an ordering block's products and powers, or a command's
# conversion, may do, in coefficient products times their bits.  The
# worst accepted block of either spelling, pq{(1+Q+P)^102} or its 102
# factors written out, is charged 6.7e7 and folds in 0.8-1.3 s of CPU
# (in-process, 2-core x86-64, Python 3.11); pq{(Q+P)^464} is charged
# 6.7e7 and folds in 0.5 s.
MAX_WORK = 2**26


class UnsupportedSymbolError(ValueError):
    """An operation received a symbol outside its alphabet."""


class WorkLimitError(ValueError):
    """Work inside a :class:`work_budget` would pass ``MAX_WORK``."""


class work_budget:
    """Context manager that bounds the products, powers and conversions
    made inside it to ``MAX_WORK`` of work in all, read at each charge.
    It enters as itself, ``work`` the total charged, and sets an
    enclosing budget aside until it exits."""

    def __enter__(self) -> work_budget:
        self.work, self._token = 0, _BUDGET.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _BUDGET.reset(self._token)

    def charge(self, work: int) -> None:
        self.work += work
        if self.work > MAX_WORK:
            raise WorkLimitError(f"work past {MAX_WORK} coefficient products times coefficient bits")


# The open budget of this thread or task: each has its own, or none.
_BUDGET = contextvars.ContextVar("weylkit_work_budget", default=None)


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


# Monomial(*key) without NamedTuple's Python-level __new__.
_monomial = functools.partial(tuple.__new__, Monomial)


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
    right*left = left*right + factor, ``factor`` nonzero.  The l = 0
    coefficient is ``ONE`` itself."""
    yield (m, r), ONE
    power, count = ONE, 1
    for l in range(1, min(m, r) + 1):
        power = power * factor
        count = count * (m - l + 1) * (r - l + 1) // l  # exact: l! C(m,l) C(r,l)
        yield (m - l, r - l), count * power


def _conversion_term_work(m: int, r: int, bits: int, half: bool) -> int:
    """The work of converting one term Q^m P^r with a ``bits``-bit
    coefficient: k + 1 products of it by a ``count``-bit l! C(m,l)
    C(r,l), over 2^l if ``half`` (f = +-i/2), each charged bits + count
    (at least 1), times min(bits, count) / 2**16 past 2**16."""
    k = min(m, r)  # l! C(m,l) C(r,l) <= min(2^(m+r) k!, (mr)^k) for l <= k
    count = min(m + r + math.ceil(math.lgamma(k + 1) / math.log(2)),
                k * (m * r).bit_length()) + (k if half else 0)
    return (k + 1) * max(1, bits + count) * max(1, min(bits, count) >> 16)


def _coefficient_bits(terms: Mapping) -> int:
    """Bits that bound the components and denominator of every
    coefficient of a k-fold product of ``terms``, per factor.

    With D the lcm of the denominators, a coefficient of the k-fold
    product is a sum of products of k numerators over D**k.  The weight
    |a| + |b| + 2(|c| + |d|) of a numerator (a + b*i + (c + d*i)*sqrt2)
    bounds its components and is submultiplicative and subadditive, so
    the numerators of the product are bounded by W**k, W the sum of the
    weights of the numerators over D.
    """
    den = math.lcm(*(c.canonical[4] for c in terms.values()))
    weight = 0
    for coeff in terms.values():
        a, b, c, d, q = coeff.canonical
        weight += (abs(a) + abs(b) + 2 * (abs(c) + abs(d))) * (den // q)
    return (weight - 1).bit_length() + (den - 1).bit_length()


def _bit_work(bits: int) -> int:
    """The work of one coefficient product of at most ``bits`` bits: its
    bits, times bits / 2**16 past 2**16, as Python multiplies long ints
    in more than linear time."""
    return bits * max(1, bits >> 16)


def _product_work(x: Mapping, y: Mapping) -> int:
    """Coefficient products of x*y times the work of each."""
    return len(x) * len(y) * _bit_work(_coefficient_bits(x) + _coefficient_bits(y))


def _product(x: Mapping, y: Mapping, f: ExactScalar) -> dict:
    """Product of term dicts keyed (a, b) = left^a right^b, x outer, y inner:
    (left^a1 right^b1)(left^a2 right^b2) = sum_l f^l l! C(b1,l) C(a2,l)
    left^(a1+a2-l) right^(b1+b2-l), where right*left = left*right + f.
    In a budget it is charged ``_product_work`` first when a side has more
    than one term.

    No coefficient is multiplied by the l = 0 factor 1.  When f = 0 and
    one side has one term, the other's keys shift without collect: they
    stay distinct, and products of nonzero coefficients are nonzero."""
    budget = _BUDGET.get()
    if budget is not None and (len(x) > 1 or len(y) > 1):
        budget.charge(_product_work(x, y))
    commuting = f.is_zero()
    if commuting and len(y) == 1:
        return _shift(x, *next(iter(y.items())))
    if commuting and len(x) == 1:
        return _shift(y, *next(iter(x.items())))

    def terms():
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                c = c1 * c2
                yield (a1 + a2, b1 + b2), c
                if b1 and a2 and not commuting:
                    contractions = _conversion_terms(b1, a2, f)
                    for (b, a), n in itertools.islice(contractions, 1, None):
                        yield (a1 + a, b + b2), c * n

    return collect(terms())


def _shift(terms: Mapping, key: tuple[int, int], coeff: ExactScalar) -> dict:
    """``terms`` times the one commuting term ``coeff`` left^a right^b,
    ``key`` = (a, b), in ``terms``' order, multiplying by no 1."""
    a, b = key
    if coeff is ONE:
        return {(a1 + a, b1 + b): c for (a1, b1), c in terms.items()}
    return {
        (a1 + a, b1 + b): coeff if c is ONE else c * coeff
        for (a1, b1), c in terms.items()
    }


def _power(base: Mapping, exponent: int, f: ExactScalar) -> dict:
    """``base`` to the power ``exponent`` under :func:`_product` with f.

    A power of one term whose factors commute (any term when f = 0, a
    power of one generator otherwise) is one monomial, its coefficient
    raised by squaring; in a budget that is charged once, before it is
    raised, and a unit's power is free.  Any other nonzero base is
    multiplied out exponent - 1 times, left to right, by :func:`_product`,
    so it is charged as the same product written out; the empty product
    is the unit.
    """
    if len(base) == 1:
        (((a, b), c),) = base.items()
        if not (a and b) or f.is_zero():
            budget = _BUDGET.get()
            if budget is not None and c is not ONE:
                budget.charge(_bit_work(exponent * _coefficient_bits(base)))
            return {(a * exponent, b * exponent): c if c is ONE else c**exponent}
    if not exponent:
        return {(0, 0): ONE}
    out = base  # zero, when base is, at once
    for _ in range(exponent - 1 if base else 0):
        out = _product(out, base, f)
    return out


def term_sort_key(key: tuple[int, int]) -> tuple[int, int]:
    """Descending total degree, then descending Q power, of a key (m, r)."""
    m, r = key
    return (-m - r, -m)


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
        return cls(ordering, collect((_monomial(key), c) for key, c in terms))

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

    def sorted_terms(self) -> list[tuple[tuple[int, int], ExactScalar]]:
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
        return max((m + r for m, r in self.terms), default=0)

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

    # Members are singletons compared by identity, so the identity hash
    # is sound, and it skips the Python-level Enum.__hash__ that every
    # word-keyed dict lookup would otherwise call once per symbol.
    __hash__ = object.__hash__


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
        """Children distributed left to right; a run of symbols is one
        word, appended to every current word in one pass."""
        out: dict[Word, ExactScalar] = {(): ONE}
        for kind, run in itertools.groupby(self.children, type):
            if kind is SymbolNode:
                # From a list: a tuple grown from an iterator fragments memory.
                tail = tuple([child.symbol for child in run])
                out = {w + tail: c for w, c in out.items()}
                continue
            for child in run:
                out = _concatenate(out, child.expand())
        return out


@dataclass(frozen=True)
class PowerNode(FreeExpression):
    __slots__ = ("base", "exponent")
    base: FreeExpression
    exponent: int

    def expand(self) -> dict[Word, ExactScalar]:
        """The base expanded once: one term is its word repeated, its coefficient
        raised as :func:`_power` does; more are multiplied in exponent times."""
        base = self.base.expand()
        if len(base) == 1:
            ((word, c),) = base.items()
            return {word * self.exponent: c if c is ONE else c**self.exponent}
        out = base if self.exponent else {(): ONE}  # base is the unit times base
        for _ in range(self.exponent - 1):
            out = _concatenate(out, base)
        return out


def _concatenate(x: Mapping, y: Mapping) -> dict[Word, ExactScalar]:
    """The words of x followed by those of y, x outer."""
    if len(y) == 1:  # distinct keys, nonzero products: the dict collect would build
        ((w2, c2),) = y.items()
        return {w1 + w2: c1 * c2 for w1, c1 in x.items()}
    return collect((w1 + w2, c1 * c2) for w1, c1 in x.items() for w2, c2 in y.items())


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
    folded bottom-up and left to right with :func:`_product` and
    :func:`_power`; a run of one symbol in a product is one power of its
    leaf, one monomial for a generator.  A symbol without a leaf is
    refused wherever it stands, even under a zero coefficient."""
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
        return _power(_evaluate(tree.base, leaves, f), tree.exponent, f)
    out = None
    runs = itertools.groupby(tree.children, lambda node: getattr(node, "symbol", None))
    for symbol, run in runs:
        run = [*run]
        for child in run if symbol is None else [PowerNode(run[0], len(run))]:
            factor = _evaluate(child, leaves, f)
            out = factor if out is None else _product(out, factor, f)
    return {(0, 0): ONE} if out is None else out  # an empty product is the unit


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


def _rewrite_word(
    word: Word, left: Symbol, right: Symbol, correction: ExactScalar
) -> dict[tuple[int, int], ExactScalar]:
    """Normal-order one word so every `left` stands left of every `right`:
    the rule  right*left -> left*right + correction  is applied at the
    leftmost out-of-order pair until none remains.  Terms are keyed
    (#right, #left)."""
    return dict(_rewrite_words(((word, ONE),), left, right, correction))


def _rewrite_words(
    pairs: Iterable[tuple[Word, ExactScalar]], left: Symbol, right: Symbol,
    correction: ExactScalar,
) -> list[tuple[tuple[int, int], ExactScalar]]:
    """:func:`_rewrite_word` over a linear combination of words, as
    uncollected terms keyed (#right, #left).

    One memo, made here and dropped on return, maps each intermediate
    word to its list of integer path counts by the number k of
    contractions: a word of R `right`s and L `left`s reaches key (R - k,
    L - k) count times, times correction**k.  Counts are summed by word
    coefficient, key and k, and each group becomes coeff * (count *
    correction**k) once."""
    letters = {left: "l", right: "r"}
    memo: dict[str, list[int]] = {}
    # coefficient -> (key, k) -> count: one scalar hash per word.
    groups: dict[ExactScalar, dict[tuple[tuple[int, int], int], int]] = {}
    for word, coeff in pairs:
        try:
            text = "".join(map(letters.__getitem__, word))
        except KeyError as err:
            raise UnsupportedSymbolError(
                f"symbol {err.args[0].value!r} not supported by this rewrite"
            ) from None
        n_right = text.count("r")
        n_left = len(text) - n_right
        group = groups.setdefault(coeff, {})
        for k, n in enumerate(_path_counts(text.lstrip("l").rstrip("r"), memo)):
            key = ((n_right - k, n_left - k), k)
            group[key] = group.get(key, 0) + n
    powers, terms = [ONE], []
    for coeff, group in groups.items():
        for (key, k), n in group.items():
            while len(powers) <= k:
                powers.append(powers[-1] * correction)
            c = n * powers[k]  # an int scale: 4 products, not 16
            terms.append((key, coeff * c))
    return terms


def _path_counts(core: str, memo: dict[str, list[int]]) -> list[int]:
    """Path counts by k of an "l"/"r" word without leading "l"s or trailing
    "r"s: no rule reaches those, so the memo keys words without them.
    Walked with an explicit stack, not recursion: a word is pushed again,
    as (word, swapped, contracted), under its two rewrites, and combined
    once both are in the memo."""
    memo.setdefault("", [1])
    stack: list = [core]
    while stack:
        current = stack.pop()
        if current.__class__ is tuple:
            current, swapped, contracted = current
            # A swap keeps k and a contraction adds one.  A swap never
            # allows more contractions than the word itself, so
            # len(s) <= len(t) + 1.
            s, t = memo[swapped], memo[contracted]
            memo[current] = [s[0], *map(operator.add, s[1:], t), *t[len(s) - 1 :]]
        elif current not in memo:
            pos = current.find("rl")
            swapped = (current[:pos] + "lr" + current[pos + 2 :]).lstrip("l").rstrip("r")
            contracted = (current[:pos] + current[pos + 2 :]).lstrip("l").rstrip("r")
            stack.append((current, swapped, contracted))
            if swapped not in memo:
                stack.append(swapped)
            if contracted not in memo:
                stack.append(contracted)
    return memo[core]


def _rewrite_expression(e: FreeExpression, target: Ordering) -> OrderedPolynomial:
    # Terms come back keyed (#right, #left): (#Q, #P) = (m, r) for P-Q.
    if target is Ordering.PQ:
        terms = _rewrite_words(e.expand().items(), Symbol.P, Symbol.Q, I)
        return OrderedPolynomial.from_terms(target, terms)
    terms = _rewrite_words(e.expand().items(), Symbol.Q, Symbol.P, MINUS_I)
    return OrderedPolynomial.from_terms(target, (((m, r), c) for (r, m), c in terms))


def rewrite_to_pq(e: FreeExpression) -> OrderedPolynomial:
    """Canonical P-Q form of an expression over {Q, P, scalars}."""
    return _rewrite_expression(e, Ordering.PQ)


def rewrite_to_qp(e: FreeExpression) -> OrderedPolynomial:
    """Canonical Q-P form of an expression over {Q, P, scalars}."""
    return _rewrite_expression(e, Ordering.QP)


# Ladder terms are keyed (j, k) = (a+)^j a^k, and a a+ = a+ a + 1.
_LADDER_LEAVES = {Symbol.ADAG: {(1, 0): ONE}, Symbol.A: {(0, 1): ONE}}


def normal_order(e: FreeExpression) -> LadderPolynomial:
    """Normal-order an expression over {a, a+, scalars}."""
    return LadderPolynomial(LadderOrdering.NORMAL, _evaluate(e, _LADDER_LEAVES, ONE))


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
        ScalarNode(coeff) * build(m, r)
        for (m, r), coeff in p.sorted_terms()
    ]
    if not parts:
        return ScalarNode(ZERO)
    return SumNode(tuple(parts))


def poly_equal(x: OrderedPolynomial, y: OrderedPolynomial) -> bool:
    """Operator equality, decided on canonical P-Q forms."""
    from .ordering import convert  # deferred: avoids import cycle

    x, y = (
        p if p.ordering is Ordering.PQ else convert(p, Ordering.PQ) for p in (x, y)
    )
    return x.terms == y.terms
