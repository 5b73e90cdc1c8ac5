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
noncommutative and the result is a :class:`FreeExpression`.  A block
body is parsed by the same rules into a :class:`FreeExpression` tree,
which is then evaluated with the symbols commuting, by the package's one
product (:func:`weylkit.opalg._evaluate` with f = 0): the block denotes an
:class:`OrderedPolynomial` with that tag.  Inside a block, ladder
symbols and nested blocks are refused.  A block that is the whole input
parses to the polynomial itself.  Any other block, whatever its tag, is
spliced in as its P-Q words (:func:`as_words`), and the command line
gives a lone block to ``commutator`` or ``expand`` the same splice.

The lexer is one pass of one compiled ``re.ASCII`` pattern over the
text; each match is a token together with the blanks before it.  The
syntax is ASCII only: any other character, be it a digit, a letter or
a space elsewhere in Unicode, is an unexpected character.

Scalar subexpressions fold as they are parsed.  A product whose factors
are all scalars, a sum whose parts are all scalars and a negated scalar
each become one :class:`ScalarNode` holding the exact value, so
``(1 + 1)*Q`` parses to the tree of ``2*Q``.  Powers are not folded.

Parentheses and unary minus nest at most ``MAX_NESTING`` levels deep,
and an integer literal may have at most as many digits as Python reads
into an int (:func:`max_int_digits`); past either bound the parser
raises :class:`ParseError`.
"""

from __future__ import annotations

import functools
import operator
import re
import sys
from typing import NamedTuple

from . import ordering as _conv
from .exactnum import MINUS_ONE, ExactScalar, I, ONE, SQRT2, ZERO
from .opalg import (
    FreeExpression,
    Monomial,
    OrderedPolynomial,
    Ordering,
    PowerNode,
    ProductNode,
    ScalarNode,
    SumNode,
    Symbol,
    SymbolNode,
    _evaluate,
    to_expression,
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
# The symbols allowed in a block, as commutative monomials Q^m P^r.
_COMMUTING = {Symbol.Q: {(1, 0): ONE}, Symbol.P: {(0, 1): ONE}}
_WORDS = {"i": "imag", "r2": "sqrt2", **dict.fromkeys(_SYMBOLS, "symbol")}
_PUNCT = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    "}": "rbrace",
}
# The tokens that may end a term.
_TERM_FOLLOW = frozenset(["plus", "minus", "rparen", "rbrace", "eof"])
# One match per token, its leading blanks folded in: the blanks, then
# digits with an optional '/' and denominator digits, a word with an
# optional '{', one other character, or nothing at the end of the text.
# The blanks are the ASCII characters str.isspace() accepts.  No
# alternative starts on a blank, so a match never backtracks into them.
_TOKEN = re.compile(
    r"([\s\x1c-\x1f]*)"
    r"(?:(\d+)(?:(/)(\d*))?|([A-Za-z]\w*)(\{)?|([^\s\x1c-\x1f])|\Z)",
    re.ASCII,
)
# Token(*fields) without the Python-level NamedTuple.__new__.
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


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    limit = max_int_digits()
    start = 0
    for blanks, num, slash, den, word, brace, ch in _TOKEN.findall(text):
        if blanks:
            start += len(blanks)
        if ch:
            kind = _PUNCT.get(ch)
            if kind is None:
                raise ParseError(f"unexpected character {ch!r}", (start, start + 1))
            append(_token((kind, ch, start, start + 1)))
            start += 1
        elif word:
            end = start + len(word)
            if word in _ORDER_TAGS:
                if not brace:
                    raise ParseError(
                        f"ordering tag {word!r} must be followed by '{{'",
                        (start, end),
                        frozenset(["{"]),
                    )
                append(_token(("order_open", word, start, end + 1)))
                start = end + 1
                continue
            kind = _WORDS.get(word)
            if kind is None:
                raise ParseError(
                    f"unknown symbol {word!r}",
                    (start, end),
                    frozenset(["Q", "P", "a", "adag", "i", "r2"]),
                )
            if brace:  # only an ordering tag opens a block
                raise ParseError("unexpected character '{'", (end, end + 1))
            append(_token((kind, word, start, end)))
            start = end
        elif num:
            end = start + len(num)
            _check_digits(start, end, limit)
            if slash:
                _check_digits(end + 1, end + 1 + len(den), limit)
                if not den:
                    raise ParseError(
                        "rational literal needs digits after '/'", (start, end + 1)
                    )
                end += 1 + len(den)
                append(_token(("rational", text[start:end], start, end)))
            else:
                append(_token(("int", num, start, end)))
            start = end
        else:
            append(_token(("eof", "", start, start)))
            break
    return tokens


def _rational_value(token: Token) -> ExactScalar:
    num, _, den = token.text.partition("/")
    try:
        return ExactScalar.rational(int(num), int(den))
    except ZeroDivisionError:
        raise ParseError(
            "rational literal has zero denominator", token.span
        ) from None


def _negate(node: FreeExpression) -> FreeExpression:
    """-node, a scalar folded into its value."""
    if type(node) is ScalarNode:
        return ScalarNode(-node.value)
    return -node


def _fold(nodes: list, combine, node_type) -> FreeExpression:
    """``node_type`` of ``nodes``, or one scalar if every node is one."""
    if all(type(node) is ScalarNode for node in nodes):
        return ScalarNode(functools.reduce(combine, [node.value for node in nodes]))
    return node_type(tuple(nodes))


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.in_block = False

    def expect(self, kind: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.text or 'end of input'!r}",
                token.span,
                frozenset([kind]),
            )
        self.pos += 1
        return token

    def fail_junk(self, token: Token):
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

    def nested(self, token: Token, parse):
        """Run ``parse`` one level deeper, refusing past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} levels", token.span
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse_expr(self) -> FreeExpression:
        tokens = self.tokens
        kind = tokens[self.pos].kind
        if kind == "minus":
            self.pos += 1
        parts = []
        while True:
            term = self.parse_term()
            parts.append(_negate(term) if kind == "minus" else term)
            # parse_term checked that a '+', '-' or an end follows.
            kind = tokens[self.pos].kind
            if kind != "plus" and kind != "minus":
                break
            self.pos += 1
        return parts[0] if len(parts) == 1 else _fold(parts, operator.add, SumNode)

    def parse_term(self) -> FreeExpression:
        tokens = self.tokens
        factors = [self.parse_unary()]
        while tokens[self.pos].kind == "star":
            self.pos += 1
            factors.append(self.parse_unary())
        token = tokens[self.pos]
        if token.kind not in _TERM_FOLLOW:
            self.fail_junk(token)
        return factors[0] if len(factors) == 1 else _fold(factors, operator.mul, ProductNode)

    def parse_unary(self) -> FreeExpression:
        """A unary, with its factor's power read here too."""
        token = self.tokens[self.pos]
        if token.kind == "minus":
            self.pos += 1
            return _negate(self.nested(token, self.parse_unary))
        base = self.parse_primary(token)
        if self.tokens[self.pos].kind == "caret":
            self.pos += 1
            return PowerNode(base, int(self.expect("int").text))
        return base

    def parse_primary(self, token: Token) -> FreeExpression:
        kind = token.kind
        if kind == "symbol":
            symbol = _SYMBOLS[token.text]
            if self.in_block and symbol not in _COMMUTING:
                raise ParseError(
                    "ladder symbols cannot appear inside an ordering block",
                    token.span,
                )
            self.pos += 1
            return SymbolNode(symbol)
        if kind == "int":
            self.pos += 1
            return ScalarNode(ExactScalar.from_int(int(token.text)))
        if kind == "rational":
            self.pos += 1
            return ScalarNode(_rational_value(token))
        if kind == "imag":
            self.pos += 1
            return ScalarNode(I)
        if kind == "sqrt2":
            self.pos += 1
            return ScalarNode(SQRT2)
        if kind == "lparen":
            self.pos += 1
            inner = self.nested(token, self.parse_expr)
            self.expect("rparen")
            return inner
        if kind == "order_open":
            if self.in_block:
                raise ParseError("ordering blocks cannot nest", token.span)
            lone = self.pos == 0
            self.pos += 1
            self.in_block = True
            body = self.parse_expr()
            self.expect("rbrace")
            self.in_block = False
            block = OrderedPolynomial.from_terms(
                _ORDER_TAGS[token.text], _evaluate(body, _COMMUTING, ZERO).items()
            )
            # A block that is the whole input is the polynomial itself.
            if lone and self.tokens[self.pos].kind == "eof":
                return block
            return as_words(block)
        raise ParseError(
            f"expected a value, found {token.text or 'end of input'!r}",
            token.span,
            frozenset(
                ["scalar", "Q", "P", "("]
                if self.in_block
                else ["scalar", "symbol", "(", "pq{", "qp{", "weyl{"]
            ),
        )


def parse(text: str) -> FreeExpression | OrderedPolynomial:
    """Parse surface syntax; blocks alone give tagged polynomials."""
    if not isinstance(text, str):
        raise ParseError("input must be text", (0, 0))
    parser = _Parser(text)
    value = parser.parse_expr()
    parser.expect("eof")
    return value


def as_words(value: FreeExpression | OrderedPolynomial) -> FreeExpression:
    """``value`` as a bare expression: a block becomes its P-Q words."""
    if isinstance(value, OrderedPolynomial):
        return to_expression(_conv.convert(value, Ordering.PQ))
    return value


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _component_count(value: ExactScalar) -> int:
    return sum(1 for n in value.canonical[:4] if n)


def _word_text(mon: Monomial, tag: Ordering) -> str:
    q_part = "Q" if mon.m == 1 else (f"Q^{mon.m}" if mon.m else "")
    p_part = "P" if mon.r == 1 else (f"P^{mon.r}" if mon.r else "")
    if tag is Ordering.PQ:
        parts = [p_part, q_part]
    else:
        parts = [q_part, p_part]
    return "*".join(x for x in parts if x)


def _term_text(mon: Monomial, coeff: ExactScalar, tag: Ordering) -> str:
    word = _word_text(mon, tag)
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
        _term_text(mon, coeff, p.ordering) for mon, coeff in p.sorted_terms()
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
            {"m": mon.m, "r": mon.r, "coeff": scalar_to_json(coeff)}
            for mon, coeff in p.sorted_terms()
        ],
    }
