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
symbols and nested blocks are refused.  A block standing alone parses to
the polynomial itself; a block embedded in a larger expression is
spliced in as its explicit P-Q word expansion.

Parentheses and unary minus nest at most ``MAX_NESTING`` levels deep,
and an integer literal may have at most as many digits as Python reads
into an int (:func:`max_int_digits`); past either bound the parser
raises :class:`ParseError`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from . import ordering as _conv
from .exactnum import ExactScalar, I, ONE, SQRT2, ZERO
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
# descent takes up to six Python frames per level.
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


@dataclass(frozen=True)
class Token:
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
_ORDER_TAGS = {"pq": Ordering.PQ, "qp": Ordering.QP, "weyl": Ordering.WEYL}
# The symbols allowed in a block, as commutative monomials Q^m P^r.
_COMMUTING = {Symbol.Q: {(1, 0): ONE}, Symbol.P: {(0, 1): ONE}}
_PUNCT = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    "}": "rbrace",
}


def max_int_digits() -> int:
    """Python's limit on the digits of an int read from or written as
    text (``sys.get_int_max_str_digits``, Python >= 3.10.7); 0 if none."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


def _digits_end(text: str, start: int, limit: int) -> int:
    """End of the run of decimal digits at ``start``, at most ``limit`` long."""
    end = start
    while end < len(text) and text[end].isdecimal():
        end += 1
    if limit and end - start > limit:
        raise ParseError(
            f"integer literal has more than {limit} digits", (start, end)
        )
    return end


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    limit = max_int_digits()
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, pos, pos + 1))
            pos += 1
            continue
        if ch.isdecimal():
            end = _digits_end(text, pos, limit)
            if end < size and text[end] == "/":
                den_start = end + 1
                den_end = _digits_end(text, den_start, limit)
                if den_end == den_start:
                    raise ParseError(
                        "rational literal needs digits after '/'",
                        (pos, den_start),
                    )
                tokens.append(
                    Token("rational", text[pos:den_end], pos, den_end)
                )
                pos = den_end
            else:
                tokens.append(Token("int", text[pos:end], pos, end))
                pos = end
            continue
        if ch.isalpha():
            end = pos + 1
            while end < size and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            if word in _ORDER_TAGS:
                if end < size and text[end] == "{":
                    tokens.append(Token("order_open", word, pos, end + 1))
                    pos = end + 1
                    continue
                raise ParseError(
                    f"ordering tag {word!r} must be followed by '{{'",
                    (pos, end),
                    frozenset(["{"]),
                )
            if word == "i":
                tokens.append(Token("imag", word, pos, end))
            elif word == "r2":
                tokens.append(Token("sqrt2", word, pos, end))
            elif word in _SYMBOLS:
                tokens.append(Token("symbol", word, pos, end))
            else:
                raise ParseError(
                    f"unknown symbol {word!r}",
                    (pos, end),
                    frozenset(["Q", "P", "a", "adag", "i", "r2"]),
                )
            pos = end
            continue
        raise ParseError(f"unexpected character {ch!r}", (pos, pos + 1))
    tokens.append(Token("eof", "", size, size))
    return tokens


def _rational_value(token: Token) -> ExactScalar:
    try:
        return ExactScalar(Fraction(token.text))
    except ZeroDivisionError:
        raise ParseError(
            "rational literal has zero denominator", token.span
        ) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.in_block = False
        self.blocks: dict[int, tuple[OrderedPolynomial, int]] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.text or 'end of input'!r}",
                token.span,
                frozenset([kind]),
            )
        return self.advance()

    def fail_junk(self, token: Token):
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

    def parse_input(self) -> FreeExpression | OrderedPolynomial:
        # A lone ordering block yields the polynomial itself.
        if self.peek().kind == "order_open":
            mark = self.pos
            block = self.parse_block()
            if self.peek().kind == "eof":
                return block
            self.pos = mark
        expr = self.parse_expr()
        self.expect("eof")
        return expr

    def parse_expr(self) -> FreeExpression:
        parts = []
        negate = False
        if self.peek().kind == "minus":
            self.advance()
            negate = True
        term = self.parse_term()
        parts.append(-term if negate else term)
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            term = self.parse_term()
            parts.append(-term if op.kind == "minus" else term)
        return parts[0] if len(parts) == 1 else SumNode(tuple(parts))

    def parse_term(self) -> FreeExpression:
        factors = [self.parse_unary()]
        while self.peek().kind == "star":
            self.advance()
            factors.append(self.parse_unary())
        token = self.peek()
        if token.kind not in ("plus", "minus", "rparen", "rbrace", "eof"):
            self.fail_junk(token)
        return factors[0] if len(factors) == 1 else ProductNode(tuple(factors))

    def parse_unary(self) -> FreeExpression:
        token = self.peek()
        if token.kind == "minus":
            self.advance()
            return -self.nested(token, self.parse_unary)
        return self.parse_factor()

    def parse_factor(self) -> FreeExpression:
        base = self.parse_primary()
        if self.peek().kind == "caret":
            self.advance()
            exponent = self.expect("int")
            return PowerNode(base, int(exponent.text))
        return base

    def parse_primary(self) -> FreeExpression:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ScalarNode(ExactScalar(Fraction(int(token.text))))
        if token.kind == "rational":
            self.advance()
            return ScalarNode(_rational_value(token))
        if token.kind == "imag":
            self.advance()
            return ScalarNode(I)
        if token.kind == "sqrt2":
            self.advance()
            return ScalarNode(SQRT2)
        if token.kind == "symbol":
            symbol = _SYMBOLS[token.text]
            if self.in_block and symbol not in _COMMUTING:
                raise ParseError(
                    "ladder symbols cannot appear inside an ordering block",
                    token.span,
                )
            self.advance()
            return SymbolNode(symbol)
        if token.kind == "lparen":
            self.advance()
            inner = self.nested(token, self.parse_expr)
            self.expect("rparen")
            return inner
        if token.kind == "order_open":
            if self.in_block:
                raise ParseError("ordering blocks cannot nest", token.span)
            block = self.parse_block()
            # Embedded block: splice in its explicit word expansion.
            if block.ordering is Ordering.WEYL:
                block = _conv.convert(block, Ordering.PQ)
            return to_expression(block)
        raise ParseError(
            f"expected a value, found {token.text or 'end of input'!r}",
            token.span,
            frozenset(
                ["scalar", "Q", "P", "("]
                if self.in_block
                else ["scalar", "symbol", "(", "pq{", "qp{", "weyl{"]
            ),
        )

    def parse_block(self) -> OrderedPolynomial:
        # Memoized by the opening token: parse_input backtracks over a
        # leading block that more input follows and meets it again.
        start = self.pos
        if start in self.blocks:
            block, self.pos = self.blocks[start]
            return block
        open_token = self.expect("order_open")
        self.in_block = True
        body = self.parse_expr()
        self.expect("rbrace")
        self.in_block = False
        block = OrderedPolynomial.from_terms(
            _ORDER_TAGS[open_token.text], _evaluate(body, _COMMUTING, ZERO).items()
        )
        self.blocks[start] = (block, self.pos)
        return block


def parse(text: str) -> FreeExpression | OrderedPolynomial:
    """Parse surface syntax; blocks alone give tagged polynomials."""
    if not isinstance(text, str):
        raise ParseError("input must be text", (0, 0))
    return _Parser(text).parse_input()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _component_count(value: ExactScalar) -> int:
    return sum(1 for f in (value.ra, value.ia, value.rb, value.ib) if f != 0)


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
    if coeff == ExactScalar.from_int(-1):
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
    return {
        "ra": str(value.ra),
        "ia": str(value.ia),
        "rb": str(value.rb),
        "ib": str(value.ib),
    }


def polynomial_to_json(p: OrderedPolynomial) -> dict:
    return {
        "node": "polynomial",
        "ordering": p.ordering.value,
        "terms": [
            {"m": mon.m, "r": mon.r, "coeff": scalar_to_json(coeff)}
            for mon, coeff in p.sorted_terms()
        ],
    }
