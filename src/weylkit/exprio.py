"""Parser and pretty-printer for operator expressions.

Surface syntax (ASCII only; explicit operators, no implicit products):

    expr    := ['-'] term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | factor
    factor  := primary ('^' uint)?
    primary := scalar | symbol | '(' expr ')' | ordering-block
    scalar  := integer | integer '/' integer | 'i' | 'r2'
    symbol  := 'Q' | 'P' | 'a' | 'adag'
    block   := ('pq{' | 'qp{' | 'weyl{') expr '}'

There is one grammar.  Outside an ordering block, products are
noncommutative and the result is a :class:`FreeExpression` tree, the
input of the rewriting oracle.  Inside a block the symbols commute, and
every subexpression folds as it is parsed into its terms, a dict keyed
(m, r) for Q^m P^r, through the package's one product
(:func:`weylkit.opalg._product` and :func:`weylkit.opalg._power` with
f = 0): a block body builds no tree, and the block denotes an
:class:`OrderedPolynomial` with that tag.  Inside a block, ladder
symbols and nested blocks are refused.  A block that is the whole input
parses to the polynomial itself.  Any other block, whatever its tag, is
spliced in as its P-Q words (:func:`as_words`), and the command line
gives a lone block to ``commutator`` or ``expand`` the same splice.

The lexer is one ``findall`` of one compiled ``re.ASCII`` pattern over
the text, each match a token with the blanks before it skipped, and one
dict lookup per token gives its kind.  Only numbers and errors take a
Python step of their own.  The syntax is ASCII only: any other
character, be it a digit, a letter or a space elsewhere in Unicode, is
an unexpected character.  Token spans are found again only for
:func:`tokenize` and for an error.

The parser has one value model, in a block or not.  A product whose
factors are all scalars, a sum whose parts are all scalars and a negated
scalar each fold as they are parsed into one exact value; any other
value is its terms in a block and a tree outside one.  A scalar becomes
a :class:`ScalarNode` only when it goes into a tree node or is the whole
result, so ``(1 + 1)*Q`` parses to the tree of ``2*Q``.  A power is
never a scalar: in a block it is its terms, outside a :class:`PowerNode`.

Parentheses and unary minus nest at most ``MAX_NESTING`` levels deep,
and an integer literal may have at most as many digits as Python reads
into an int (:func:`max_int_digits`); past either bound the parser
raises :class:`ParseError`.  So does a block whose products, powers and,
if it is spliced, conversion to words charge its own
:class:`weylkit.opalg.work_budget` past ``opalg.MAX_WORK``: at the
operator, or the opening tag for the conversion, before the product that
would pass the cap is made.  A power of more than one term is its
products, so it is refused at its '^' after the products under the cap.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from typing import NamedTuple

from . import opalg, ordering as _conv
from .exactnum import MINUS_ONE, ExactScalar, I, ONE, SQRT2, ZERO
from .opalg import (
    FreeExpression,
    OrderedPolynomial,
    Ordering,
    PowerNode,
    ProductNode,
    ScalarNode,
    SumNode,
    Symbol,
    SymbolNode,
    WorkLimitError,
    _as_expression,
    _monomial,
    _power,
    _product,
    collect,
    to_expression,
    work_budget,
)

# Deepest nesting of '(' and unary '-' the parser accepts; the recursive
# descent takes up to five Python frames per level.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or semantic error with a source span."""

    def __init__(
        self,
        message: str,
        span: tuple[int, int],
        expected: frozenset[str] = frozenset(),
    ):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def pretty(self, source: str) -> str:
        start, end = self.span
        caret = " " * start + "^" * max(1, end - start)
        lines = [self.message, "  " + source, "  " + caret]
        if self.expected:
            lines.append("expected: " + ", ".join(sorted(self.expected)))
        return "\n".join(lines)


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


_SYMBOLS = {
    "Q": Symbol.Q,
    "P": Symbol.P,
    "a": Symbol.A,
    "adag": Symbol.ADAG,
}
_ORDER_TAGS = {tag.value: tag for tag in Ordering}
# The symbols allowed in a block, as the key (m, r) of Q^m P^r.
_COMMUTING = {Symbol.Q: (1, 0), Symbol.P: (0, 1)}
_WORDS = {"i": "imag", "r2": "sqrt2", **dict.fromkeys(_SYMBOLS, "symbol")}
# The kind of each token text that has one.  An ordering tag's token
# text keeps its '{' and the end of the text is the empty token.  Any
# other text is a number or an error.
_KINDS = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    "}": "rbrace",
    **_WORDS,
    **{tag + "{": "order_open" for tag in _ORDER_TAGS},
    "": "eof",
}
_BLOCK_TAGS = {tag.value + "{": tag for tag in Ordering}
# The tokens that may end a term.
_TERM_FOLLOW = frozenset(["plus", "minus", "rparen", "rbrace", "eof"])
# One match per token, its leading blanks skipped: digits with an
# optional '/' and denominator digits, a word with an optional '{', one
# other character, or nothing at the end of the text.  The blanks are
# the ASCII characters str.isspace() accepts.  No alternative starts on
# a blank, so a match never backtracks into them, and only the end of
# the text matches nothing.
_TOKEN = re.compile(
    r"[\s\x1c-\x1f]*(\d+(?:/\d*)?|[A-Za-z]\w*\{?|[^\s\x1c-\x1f]|\Z)", re.ASCII
)
# Token(*fields) without its Python-level __new__.
_token = functools.partial(tuple.__new__, Token)


def max_int_digits() -> int:
    """Python's limit on the digits of an int read from or written as
    text (``sys.get_int_max_str_digits``, Python >= 3.10.7); 0 if none."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


def _check_digits(start: int, end: int, limit: int) -> None:
    if limit and end - start > limit:
        raise ParseError(
            f"integer literal has more than {limit} digits", (start, end)
        )


def _lex(text: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of the tokens of ``text``, ending with one
    ``eof``, or the first error in the text as a :class:`ParseError`."""
    texts = _TOKEN.findall(text)
    del texts[texts.index("") + 1 :]
    kinds = list(map(_KINDS.get, texts))
    limit = max_int_digits()
    index = 0
    for _ in range(kinds.count(None)):
        index = kinds.index(None, index)
        token = texts[index]
        num, slash, den = token.partition("/")
        if (
            not "0" <= token[0] <= "9"
            or (slash and not den)
            or (limit and max(len(num), len(den)) > limit)
        ):
            _raise_token_error(text, index, limit)
        kinds[index] = "rational" if slash else "int"
    return kinds, texts


def _match(text: str, index: int) -> re.Match:
    """The match of token ``index`` of ``text``."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None))


def _make_token(kind: str, match: re.Match) -> Token:
    start, end = match.span(1)
    word = match.group(1)
    if kind == "order_open":
        word = word[:-1]  # the span keeps the '{'
    return _token((kind, word, start, end))


def _raise_token_error(text: str, index: int, limit: int):
    """Raise the error of token ``index`` of ``text``, one :func:`_lex`
    found no kind for, with its span."""
    match = _match(text, index)
    token, start = match.group(1), match.start(1)
    if "0" <= token[0] <= "9":
        num, _, den = token.partition("/")
        end = start + len(num)
        _check_digits(start, end, limit)
        _check_digits(end + 1, end + 1 + len(den), limit)
        raise ParseError("rational literal needs digits after '/'", (start, end + 1))
    if not (token[0].isascii() and token[0].isalpha()):
        raise ParseError(f"unexpected character {token!r}", (start, start + 1))
    word = token.removesuffix("{")
    end = start + len(word)
    if word in _ORDER_TAGS:
        raise ParseError(
            f"ordering tag {word!r} must be followed by '{{'",
            (start, end),
            frozenset(["{"]),
        )
    if word not in _WORDS:
        raise ParseError(
            f"unknown symbol {word!r}",
            (start, end),
            frozenset(["Q", "P", "a", "adag", "i", "r2"]),
        )
    # A known word with a '{': only an ordering tag opens a block.
    raise ParseError("unexpected character '{'", (end, end + 1))


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one ``eof`` token."""
    kinds, _ = _lex(text)
    return list(map(_make_token, kinds, _TOKEN.finditer(text)))


# ---------------------------------------------------------------------------
# Parse values: an exact scalar, or else a dict of terms keyed (m, r) in a
# block and a tree outside one
# ---------------------------------------------------------------------------


def _terms(value) -> dict:
    """A block value as its terms: a scalar is the constant term."""
    if value.__class__ is dict:
        return value
    return {} if value.is_zero() else {(0, 0): value}


def _negate(value):
    """-value: a scalar or a block's terms negated, a tree wrapped."""
    if value.__class__ is dict:
        return {key: -c for key, c in value.items()}
    return -value


def _scalar_fold(parts: list, combine, node_type):
    """``parts`` combined into one scalar if every part is one; else a
    block's terms summed (``node_type`` None) or one ``node_type`` node."""
    if all(part.__class__ is ExactScalar for part in parts):
        return functools.reduce(combine, parts)
    if node_type is None:
        return collect(pair for part in parts for pair in _terms(part).items())
    return node_type(tuple(map(_as_expression, parts)))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _lex(text)
        self.pos = 0
        self.depth = 0
        self.in_block = False
        # The token of the block's last product, power or conversion: the
        # span of a refusal by the block's work budget.
        self.op = 0

    def token(self, pos: int) -> Token:
        """Token ``pos`` with its span, for an error."""
        return _make_token(self.kinds[pos], _match(self.text, pos))

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            token = self.token(pos)
            raise ParseError(
                f"expected {kind}, found {token.text or 'end of input'!r}",
                token.span,
                frozenset([kind]),
            )
        self.pos = pos + 1
        return self.texts[pos]

    def fail_junk(self, pos: int):
        token = self.token(pos)
        if token.kind == "caret":
            raise ParseError(
                "powers do not chain; parenthesize the base, as in (Q^2)^3",
                token.span,
                frozenset(["*", "+", "-"]),
            )
        raise ParseError(
            f"unexpected {token.text or 'end of input'!r}; "
            f"operators must be explicit",
            token.span,
            frozenset(["+", "-", "*", "^"]),
        )

    def nested(self, pos: int, parse):
        """Run ``parse`` one level deeper, refusing past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} levels",
                self.token(pos).span,
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse_expr(self):
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == "minus":
            self.pos += 1
        parts = []
        while True:
            term = self.parse_term()
            parts.append(_negate(term) if kind == "minus" else term)
            # parse_term checked that a '+', '-' or an end follows.
            kind = kinds[self.pos]
            if kind != "plus" and kind != "minus":
                break
            self.pos += 1
        if len(parts) == 1:
            return parts[0]
        return _scalar_fold(parts, operator.add, None if self.in_block else SumNode)

    def parse_term(self):
        kinds = self.kinds
        value = self.parse_unary()
        if kinds[self.pos] == "star":
            if self.in_block:
                # Folded left to right as read, as the tree would be.
                while kinds[self.pos] == "star":
                    star = self.pos
                    self.pos += 1
                    value = self.multiply(value, self.parse_unary(), star)
            else:
                factors = [value]
                while kinds[self.pos] == "star":
                    self.pos += 1
                    factors.append(self.parse_unary())
                value = _scalar_fold(factors, operator.mul, ProductNode)
        if kinds[self.pos] not in _TERM_FOLLOW:
            self.fail_junk(self.pos)
        return value

    def multiply(self, x, y, star: int):
        if x.__class__ is ExactScalar and y.__class__ is ExactScalar:
            return x * y
        self.op = star
        return _product(_terms(x), _terms(y), ZERO)

    def parse_unary(self):
        """A unary, with its factor's power read here too."""
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "minus":
            self.pos = pos + 1
            return _negate(self.nested(pos, self.parse_unary))
        base = self.parse_primary(pos, kind)
        caret = self.pos
        if self.kinds[caret] != "caret":
            return base
        self.pos = caret + 1
        exponent = int(self.expect("int"))
        if not self.in_block:
            return PowerNode(_as_expression(base), exponent)
        self.op = caret
        return _power(_terms(base), exponent, ZERO)

    def parse_primary(self, pos: int, kind: str):
        self.pos = pos + 1
        if kind == "symbol":
            symbol = _SYMBOLS[self.texts[pos]]
            if not self.in_block:
                return SymbolNode(symbol)
            key = _COMMUTING.get(symbol)
            if key is None:
                raise ParseError(
                    "ladder symbols cannot appear inside an ordering block",
                    self.token(pos).span,
                )
            return {key: ONE}
        if kind == "int":
            value = ExactScalar.from_int(int(self.texts[pos]))
        elif kind == "rational":
            num, _, den = self.texts[pos].partition("/")
            try:
                value = ExactScalar.rational(int(num), int(den))
            except ZeroDivisionError:
                raise ParseError(
                    "rational literal has zero denominator", self.token(pos).span
                ) from None
        elif kind == "imag":
            value = I
        elif kind == "sqrt2":
            value = SQRT2
        elif kind == "lparen":
            inner = self.nested(pos, self.parse_expr)
            self.expect("rparen")
            return inner
        elif kind == "order_open":
            return self.parse_block(pos)
        else:
            token = self.token(pos)
            raise ParseError(
                f"expected a value, found {token.text or 'end of input'!r}",
                token.span,
                frozenset(
                    ["scalar", "Q", "P", "("]
                    if self.in_block
                    else ["scalar", "symbol", "(", "pq{", "qp{", "weyl{"]
                ),
            )
        return value

    def parse_block(self, pos: int):
        if self.in_block:
            raise ParseError("ordering blocks cannot nest", self.token(pos).span)
        self.in_block = True
        try:
            with work_budget():
                body = self.parse_expr()
                self.expect("rbrace")
                self.in_block = False
                block = OrderedPolynomial(
                    _BLOCK_TAGS[self.texts[pos]],
                    {_monomial(key): c for key, c in _terms(body).items()},
                )
                # A block that is the whole input is the polynomial itself.
                if pos == 0 and self.kinds[self.pos] == "eof":
                    return block
                self.op = pos
                # A zero block is the scalar 0, as its words are.
                return ZERO if block.is_zero() else as_words(block)
        except WorkLimitError:
            raise ParseError(
                "ordering block too large to multiply out: its products, "
                f"powers and conversion may do at most {opalg.MAX_WORK} coefficient "
                "products times coefficient bits (bits squared over 2^16 past 2^16 bits)",
                self.token(self.op).span,
            ) from None


def parse(text: str) -> FreeExpression | OrderedPolynomial:
    """Parse surface syntax; blocks alone give tagged polynomials."""
    if not isinstance(text, str):
        raise ParseError("input must be text", (0, 0))
    parser = _Parser(text)
    value = parser.parse_expr()
    parser.expect("eof")
    return ScalarNode(value) if value.__class__ is ExactScalar else value


def as_words(block: OrderedPolynomial) -> FreeExpression:
    """A block as a bare expression: its P-Q words."""
    return to_expression(_conv.convert(block, Ordering.PQ))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _component_count(value: ExactScalar) -> int:
    return sum(1 for n in value.canonical[:4] if n)


def _word_text(key: tuple[int, int], tag: Ordering) -> str:
    m, r = key
    q_part = "Q" if m == 1 else (f"Q^{m}" if m else "")
    p_part = "P" if r == 1 else (f"P^{r}" if r else "")
    if tag is Ordering.PQ:
        parts = [p_part, q_part]
    else:
        parts = [q_part, p_part]
    return "*".join(x for x in parts if x)


def _term_text(key: tuple[int, int], coeff: ExactScalar, tag: Ordering) -> str:
    word = _word_text(key, tag)
    if not word:
        text = coeff.render()
        return f"({text})" if _component_count(coeff) > 1 else text
    if coeff == ONE:
        return word
    if coeff == MINUS_ONE:
        return "-" + word
    if _component_count(coeff) > 1:
        return f"({coeff.render()})*{word}"
    return f"{coeff.render()}*{word}"


def render_terms(p: OrderedPolynomial) -> str:
    """Body text without the ordering wrapper, e.g. ``P*Q + i``."""
    if p.is_zero():
        return "0"
    return " + ".join(
        _term_text(key, coeff, p.ordering) for key, coeff in p.sorted_terms()
    )


def render(p: OrderedPolynomial) -> str:
    """Re-parseable text: the body wrapped in its ordering block."""
    if p.is_zero():
        return "0"
    return f"{p.ordering.value}{{{render_terms(p)}}}"


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def scalar_to_json(value: ExactScalar) -> dict:
    return dict(zip(("ra", "ia", "rb", "ib"), value.component_texts()))


def polynomial_to_json(p: OrderedPolynomial) -> dict:
    return {
        "node": "polynomial",
        "ordering": p.ordering.value,
        "terms": [
            {"m": m, "r": r, "coeff": scalar_to_json(coeff)}
            for (m, r), coeff in p.sorted_terms()
        ],
    }
