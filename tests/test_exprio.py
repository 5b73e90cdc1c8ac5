import json
import random
import string
import sys
import threading
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import cli, exprio, opalg, ordering as conv
from weylkit.exactnum import SQRT2, ZERO, ExactScalar, I, ONE
from weylkit.exprio import (
    MAX_NESTING,
    ParseError,
    max_int_digits,
    parse,
    polynomial_to_json,
    render,
    render_terms,
    tokenize,
)
from weylkit.opalg import (
    MAX_WORK,
    FreeExpression,
    Monomial,
    OrderedPolynomial,
    Ordering,
    PowerNode,
    ProductNode,
    ScalarNode,
    SumNode,
    SymbolNode,
    _bit_work,
    _coefficient_bits,
    _power,
    _product,
    _product_work,
    collect,
    rewrite_to_pq,
    work_budget,
)


def test_parse_commutator_expression():
    expr = parse("Q*P - P*Q")
    assert isinstance(expr, FreeExpression)
    assert rewrite_to_pq(expr).terms == {Monomial(0, 0): I}


def test_parse_weyl_block():
    poly = parse("weyl{Q^2*P}")
    assert isinstance(poly, OrderedPolynomial)
    assert poly.ordering is Ordering.WEYL
    assert poly.terms == {Monomial(2, 1): ONE}


def test_parse_scalar_head_product():
    expr = parse("(1/2 + 3/4*i)*P*Q*P")
    head = ExactScalar.rational(1, 2) + ExactScalar.rational(3, 4) * I
    plain = parse("P*Q*P")
    assert rewrite_to_pq(expr).terms == rewrite_to_pq(plain).scale(head).terms


def test_parse_block_tags_fix_interpretation():
    # Inside a block the symbols commute; the tag decides how the
    # exponent pairs are read back as operator words.
    pq = parse("pq{Q*P}")
    qp = parse("qp{P*Q}")
    assert pq.ordering is Ordering.PQ and qp.ordering is Ordering.QP
    assert pq.terms == {Monomial(1, 1): ONE}
    assert qp.terms == {Monomial(1, 1): ONE}
    assert rewrite_to_pq(parse("Q*P")).terms != pq.terms


def test_embedded_block_splices_words():
    expr = parse("weyl{Q*P} * P")
    manual = parse("(P*Q + 1/2*i)*P")
    assert rewrite_to_pq(expr).terms == rewrite_to_pq(manual).terms


def test_render_examples():
    poly = OrderedPolynomial.from_terms(
        Ordering.PQ, [((1, 1), ONE), ((0, 0), I)]
    )
    assert render_terms(poly) == "P*Q + i"
    assert render(poly) == "pq{P*Q + i}"
    weyl = OrderedPolynomial.monomial(Ordering.WEYL, 1, 1)
    assert render(weyl) == "weyl{Q*P}"
    assert render(OrderedPolynomial.zero(Ordering.QP)) == "0"
    assert render_terms(conv.weyl_to_pq(2, 2)) == "P^2*Q^2 + 2*i*P*Q + -1/2"


def test_round_trip_on_ordering_outputs():
    makers = (
        conv.weyl_to_pq,
        conv.weyl_to_qp,
        conv.qp_to_pq,
        conv.pq_to_qp,
        conv.qp_to_weyl,
        conv.pq_to_weyl,
    )
    for m in range(7):
        for r in range(7):
            for maker in makers:
                poly = maker(m, r)
                back = parse(render(poly))
                assert isinstance(back, OrderedPolynomial)
                assert back.ordering is poly.ordering
                assert back.terms == poly.terms


def test_parse_errors_carry_spans():
    cases = {
        "Q2": "unknown symbol",
        "2i": "operators must be explicit",
        "Q^": "expected int",
        "Q^1/2": "expected int",
        "1/": "rational literal",
        "(Q": "expected rparen",
        "Q )": "expected",
        "pq": "followed by",
        "pq{a}": "ladder symbols",
        "weyl{pq{Q}}": "cannot nest",
        "": "expected a value",
        "pq{Q + }": "expected a value",
        "Q $ P": "unexpected character",
        # Superscript two is a digit to str.isdigit but not to int().
        "Q^\u00b2": "unexpected character",
        "1/\u00b2": "rational literal",
    }
    for text, fragment in cases.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment.lower() in str(err.value).lower(), text
        start, end = err.value.span
        assert 0 <= start <= end <= len(text)
    # After a leading block the parse goes on as after any other value.
    value = ["(", "pq{", "qp{", "scalar", "symbol", "weyl{"]
    after_block = {
        "pq{Q} Q": ("unexpected 'Q'; operators must be explicit", (6, 7), "*+-^"),
        "pq{Q}}": ("expected eof, found '}'", (5, 6), ["eof"]),
        "pq{Q} +": ("expected a value, found 'end of input'", (7, 7), value),
        "pq{Q}^": ("expected int, found 'end of input'", (6, 6), ["int"]),
        "pq{Q": ("expected rbrace, found 'end of input'", (4, 4), ["rbrace"]),
        "pq{Q}*pq{P": ("expected rbrace, found 'end of input'", (10, 10), ["rbrace"]),
        "pq{Q}(": ("unexpected '('; operators must be explicit", (5, 6), "*+-^"),
    }
    for text, (message, span, expected) in after_block.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.message == message, text
        assert err.value.span == span, text
        assert err.value.expected == frozenset(expected), text
    assert isinstance(parse("pq{Q}^2"), PowerNode)
    assert isinstance(parse("-pq{Q}"), ProductNode)


def test_pretty_error_shows_caret():
    try:
        parse("Q*(P + ")
    except ParseError as exc:
        pretty = exc.pretty("Q*(P + ")
        assert "^" in pretty


def test_mixing_ladder_inside_block_is_semantic_error():
    with pytest.raises(ParseError):
        parse("pq{Q*adag}")


def test_unary_minus_shapes():
    assert rewrite_to_pq(parse("-Q")).terms == {
        Monomial(1, 0): ExactScalar.from_int(-1)
    }
    assert rewrite_to_pq(parse("3 - -2")).terms == {
        Monomial(0, 0): ExactScalar.from_int(5)
    }
    assert rewrite_to_pq(parse("-Q^2")).terms == {
        Monomial(2, 0): ExactScalar.from_int(-1)
    }


def test_scalar_subexpressions_fold_as_they_parse():
    coeff = parse("(4 + -8/3*r2 + -2*i*r2)")
    assert coeff == ScalarNode(
        ExactScalar.from_int(4)
        - ExactScalar.rational(8, 3) * SQRT2
        - ExactScalar.from_int(2) * I * SQRT2
    )
    assert parse("-(2*3) + 1/2 - i") == ScalarNode(
        ExactScalar.rational(-11, 2) - I
    )
    assert parse("--3") == ScalarNode(ExactScalar.from_int(3))
    assert parse("1 - 1") == ScalarNode(ExactScalar.from_int(0))
    # Symbols stop a fold, and powers are never folded.
    assert isinstance(parse("2*3*Q"), ProductNode)
    assert isinstance(parse("1 + Q"), SumNode)
    assert isinstance(parse("-Q"), ProductNode)
    assert isinstance(parse("2^3"), PowerNode)
    term = parse("(4 + -8/3*r2 + -2*i*r2)*Q^3*P^2")
    assert isinstance(term, ProductNode)
    assert term.children[0] == coeff


def _int(n: int) -> ScalarNode:
    return ScalarNode(ExactScalar.from_int(n))


def _words(text: str) -> FreeExpression:
    return opalg.to_expression(conv.convert(parse(text), Ordering.PQ))


_Q, _P = SymbolNode(opalg.Symbol.Q), SymbolNode(opalg.Symbol.P)


@pytest.mark.parametrize(
    "text, expected",
    [
        # Bare: scalars fold, and become nodes only inside a tree.
        # A leading '-' negates the whole term, a nested one its factor.
        ("-(2)*Q", ProductNode((_int(-1), ProductNode((_int(2), _Q))))),
        ("Q*-(2)", ProductNode((_Q, _int(-2)))),
        ("Q*(1+1)", ProductNode((_Q, _int(2)))),
        ("(2*3)^2*Q", ProductNode((PowerNode(_int(6), 2), _Q))),
        ("-(1 - 1)", _int(0)),
        ("2^3", PowerNode(_int(2), 3)),
        # Spliced blocks and negated trees.
        ("-pq{Q}", ProductNode((_int(-1), _words("pq{Q}")))),
        ("2*pq{Q}*P", ProductNode((_int(2), _words("pq{Q}"), _P))),
        ("-(-Q)", ProductNode((_int(-1), ProductNode((_int(-1), _Q))))),
        # A spliced zero block is the scalar 0, as its words are.
        ("pq{Q - Q}*Q", ProductNode((_int(0), _Q))),
        ("-qp{0} + 1", _int(1)),
        # Blocks: their terms in order.
        ("pq{-(2)*Q}", [(Monomial(1, 0), ExactScalar.from_int(-2))]),
        ("pq{1 - 1}", []),
        ("qp{-(Q - Q)}", []),
        ("pq{(1/2 + i)*(2 - i)}", [(Monomial(0, 0), 2 + ExactScalar.rational(3, 2) * I)]),
    ],
)
def test_every_fold_site(text, expected):
    value = parse(text)
    if isinstance(value, OrderedPolynomial):
        value = list(value.terms.items())
    assert value == expected


def test_chained_powers_name_their_remedy():
    for text, start in (("Q^2^3", 3), ("(P + Q)^2 ^3", 10), ("-Q^1^1", 4)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.message == (
            "powers do not chain; parenthesize the base, as in (Q^2)^3"
        )
        assert err.value.span == (start, start + 1)
        assert err.value.expected == frozenset(["*", "+", "-"])
    assert rewrite_to_pq(parse("(Q^2)^3")).terms == {Monomial(6, 0): ONE}


@pytest.mark.parametrize(
    "text, start",
    [("\u0663*Q", 0), ("Q\xa0+ 1", 1), ("Q\u00e9", 1), ("pq{Q\u2003}", 4)],
)
def test_non_ascii_characters_are_refused(text, start):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == f"unexpected character {text[start]!r}"
    assert err.value.span == (start, start + 1)


def test_tokenize_spans_nest():
    tokens = tokenize("pq{Q^2} + 1/2")
    assert [t.kind for t in tokens] == [
        "order_open",
        "symbol",
        "caret",
        "int",
        "rbrace",
        "plus",
        "rational",
        "eof",
    ]
    for tok in tokens:
        assert 0 <= tok.start <= tok.end <= len("pq{Q^2} + 1/2")


def test_polynomial_json_shape():
    poly_doc = polynomial_to_json(conv.qp_to_pq(2, 1))
    json.dumps(poly_doc)
    assert poly_doc["ordering"] == "pq"
    assert {t["m"] for t in poly_doc["terms"]} == {2, 1}


junk_text = st.text(
    alphabet=st.sampled_from(
        list("QPai rdg2weyl{}()+-*^/0123456789\t\0\\~é∑")
    ),
    max_size=40,
)


@given(junk_text)
@settings(max_examples=400, deadline=None)
def test_parser_never_panics(text):
    try:
        parse(text)
    except ParseError:
        pass


def _block_factors(rng, m, r, coeff):
    """Factors of coeff * Q^m * P^r, powered, repeated and shuffled."""
    factors = [str(coeff) if coeff.denominator > 1 else str(coeff.numerator)]
    if m and r and rng.random() < 0.4:
        k = rng.randint(1, min(m, r))
        factors.append(rng.choice(("(Q*P)^{}", "(P*Q)^{}")).format(k))
        m, r = m - k, r - k
    for name, count in (("Q", m), ("P", r)):
        while count:
            k = rng.randint(1, count)
            factors.append(name if k == 1 else f"{name}^{k}")
            count -= k
    if rng.random() < 0.2:
        factors.append(rng.choice(("Q^0", "P^0")))
    rng.shuffle(factors)
    return "*".join(factors)


def test_block_terms_sum_like_fractions():
    rng = random.Random(20261018)
    for _ in range(300):
        drawn = []
        for _ in range(rng.randint(1, 8)):
            m, r = rng.randint(0, 4), rng.randint(0, 4)
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            drawn.append((m, r, coeff))
            if rng.random() < 0.3:
                drawn.append((m, r, -coeff))
            elif rng.random() < 0.3:
                drawn.append((m, r, Fraction(rng.randint(-6, 6), 2)))
        rng.shuffle(drawn)
        expected = {}
        body = ""
        for index, (m, r, coeff) in enumerate(drawn):
            expected[(m, r)] = expected.get((m, r), 0) + coeff
            sign = "-" if coeff < 0 else ("+" if index else "")
            body += f" {sign} {_block_factors(rng, m, r, abs(coeff))}"
        expected = {key: c for key, c in expected.items() if c}
        tag = rng.choice(("pq", "qp", "weyl"))
        poly = parse(f"{tag}{{{body}}}")
        assert poly.ordering.value == tag
        assert {tuple(k): c for k, c in poly.terms.items()} == {
            key: ExactScalar(c) for key, c in expected.items()
        }, body


def test_parser_fuzz_seeded_corpus():
    rng = random.Random(20260808)
    alphabet = "QPaig2r dewyl{}()+-*^/0123456789." + string.ascii_letters
    for _ in range(20000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 30))
        )
        try:
            parse(text)
        except ParseError:
            pass


_MINUS_ONE = ExactScalar.from_int(-1)
_REFERENCE_PUNCT = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    "}": "rbrace",
}
_REFERENCE_WORDS = {"i": "imag", "r2": "sqrt2", "Q": "symbol", "P": "symbol",
                    "a": "symbol", "adag": "symbol"}


def _reference_digits_end(text: str, start: int, limit: int) -> int:
    end = start
    while end < len(text) and text[end].isdecimal():
        end += 1
    if limit and end - start > limit:
        raise ParseError(
            f"integer literal has more than {limit} digits", (start, end)
        )
    return end


def _reference_tokenize(text: str) -> list[tuple]:
    """The lexer as a loop over characters, giving (kind, text, start,
    end) tuples.  On ASCII text it must agree with :func:`tokenize`."""
    tokens = []
    limit = max_int_digits()
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _REFERENCE_PUNCT:
            tokens.append((_REFERENCE_PUNCT[ch], ch, pos, pos + 1))
            pos += 1
            continue
        if ch.isdecimal():
            end = _reference_digits_end(text, pos, limit)
            if end < size and text[end] == "/":
                den_start = end + 1
                den_end = _reference_digits_end(text, den_start, limit)
                if den_end == den_start:
                    raise ParseError(
                        "rational literal needs digits after '/'",
                        (pos, den_start),
                    )
                tokens.append(("rational", text[pos:den_end], pos, den_end))
                pos = den_end
            else:
                tokens.append(("int", text[pos:end], pos, end))
                pos = end
            continue
        if ch.isalpha():
            end = pos + 1
            while end < size and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            if word in ("pq", "qp", "weyl"):
                if end < size and text[end] == "{":
                    tokens.append(("order_open", word, pos, end + 1))
                    pos = end + 1
                    continue
                raise ParseError(
                    f"ordering tag {word!r} must be followed by '{{'",
                    (pos, end),
                    frozenset(["{"]),
                )
            if word not in _REFERENCE_WORDS:
                raise ParseError(
                    f"unknown symbol {word!r}",
                    (pos, end),
                    frozenset(["Q", "P", "a", "adag", "i", "r2"]),
                )
            tokens.append((_REFERENCE_WORDS[word], word, pos, end))
            pos = end
            continue
        raise ParseError(f"unexpected character {ch!r}", (pos, pos + 1))
    tokens.append(("eof", "", size, size))
    return tokens


def _lexed(lexer, text: str):
    """The token tuples of ``text``, or its error's (message, span, expected)."""
    try:
        return [tuple(token) for token in lexer(text)]
    except ParseError as exc:
        return (exc.message, exc.span, exc.expected)


# Every character the grammar uses, the ASCII blanks str.isspace()
# accepts, and a few it refuses.
ascii_grammar_text = st.text(
    alphabet=st.sampled_from(
        list("QPadgirwyeql2{}()+-*^/0123456789 \t\n\r\x0b\x0c\x1c\x1f_.$xZ")
    ),
    max_size=40,
)


@given(ascii_grammar_text)
@example("pq{Q^2} + 1/2")
@example("weyl {Q}")
@example("Q{P}")
@example("12/ 3")
@example("Q\x1c+\x1fP  ")
@settings(max_examples=2000, deadline=None)
def test_lexer_matches_the_reference_on_ascii(text):
    assert _lexed(tokenize, text) == _lexed(_reference_tokenize, text)


def test_lexer_matches_the_reference_on_all_ascii_characters():
    rng = random.Random(20261019)
    alphabet = "".join(map(chr, range(128)))
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        assert _lexed(tokenize, text) == _lexed(_reference_tokenize, text), text


@pytest.fixture
def digit_limit_640():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit on this Python")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def test_lexer_digit_limits_match_the_reference(digit_limit_640):
    long, edge = "9" * 641, "9" * 640
    for text in (
        f"{long}*Q",
        f"{edge}*Q",
        f"1/{long}",
        f"{long}/",
        f"{edge}/{edge}",
        f"{long}/{long}",
        f"{edge}/{long} + Q",
        f"Q^{long}",
        f"pq{{1/{long}}}",
        f"  {long}",
    ):
        want = _lexed(_reference_tokenize, text)
        assert _lexed(tokenize, text) == want, text[:12]
        if long in text:
            assert want[0] == "integer literal has more than 640 digits"


_REFERENCE_SCALARS = {
    "int": lambda text: ExactScalar(Fraction(int(text))),
    "rational": lambda text: ExactScalar(Fraction(text)),
    "imag": lambda text: I,
    "sqrt2": lambda text: SQRT2,
}


def _reference_product(x: dict, y: dict) -> dict:
    """Commutative product by its own loop, x's terms outer, y's inner."""
    return collect(
        ((i1 + i2, j1 + j2), c1 * c2)
        for (i1, j1), c1 in x.items()
        for (i2, j2), c2 in y.items()
    )


def _reference_negate(x: dict) -> dict:
    return {key: coeff * _MINUS_ONE for key, coeff in x.items()}


_ReferenceToken = namedtuple("_ReferenceToken", "kind text start end")


class _ReferenceBlock:
    """The block grammar as its own recursive descent, building the
    commutative value, a dict of terms keyed (m, r), while it parses, to
    check the parser's fold of the block's free parse tree.  Valid
    bodies only."""

    def __init__(self, body: str):
        self.tokens = [_ReferenceToken(*token) for token in _reference_tokenize(body)]
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos].kind

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self) -> dict:
        terms = []
        negate = self.peek() == "minus"
        if negate:
            self.advance()
        while True:
            term = self.term()
            terms.extend((_reference_negate(term) if negate else term).items())
            if self.peek() not in ("plus", "minus"):
                return collect(terms)
            negate = self.advance().kind == "minus"

    def term(self) -> dict:
        total = self.unary()
        while self.peek() == "star":
            self.advance()
            total = _reference_product(total, self.unary())
        return total

    def unary(self) -> dict:
        if self.peek() == "minus":
            self.advance()
            return _reference_negate(self.unary())
        return self.factor()

    def factor(self) -> dict:
        base = self.primary()
        if self.peek() == "caret":
            self.advance()
            out = {(0, 0): ONE}
            for index in range(int(self.advance().text)):
                out = _reference_product(out, base) if index else base
            return out
        return base

    def primary(self) -> dict:
        token = self.advance()
        if token.kind == "lparen":
            inner = self.expr()
            assert self.advance().kind == "rparen"
            return inner
        if token.kind == "symbol":
            return {{"Q": (1, 0), "P": (0, 1)}[token.text]: ONE}
        return collect([((0, 0), _REFERENCE_SCALARS[token.kind](token.text))])


def _reference_block(body: str) -> list:
    """The block body's terms, in dict order, by the reference grammar."""
    parser = _ReferenceBlock(body)
    terms = parser.expr()
    assert parser.peek() == "eof"
    return list(terms.items())


def _block_nodes(children):
    return st.one_of(
        children.map(lambda s: f"({s})"),
        children.map(lambda s: f"-{s}"),
        st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(
            st.sampled_from(["Q", "P", "2", "i", "r2", "1/2"]), st.integers(0, 4)
        ).map(lambda t: f"{t[0]}^{t[1]}"),
        st.lists(children, min_size=2, max_size=3).map("*".join),
        st.tuples(
            children, st.sampled_from([" + ", " - ", "+-", "--"]), children
        ).map("".join),
    )


block_bodies = st.recursive(
    st.sampled_from(["Q", "P", "i", "r2", "0", "1", "2", "3/4", "-5/3", "Q^0"]),
    _block_nodes,
    max_leaves=10,
)


@given(block_bodies, st.sampled_from(["pq", "qp", "weyl"]))
@example("(Q + 1)*(P + 2)*(Q - P)", "pq")
@example("-(Q + P)^2*Q^3 - P^2*(i + r2)^0", "qp")
@example("Q - Q + P + Q", "pq")
@example("0*Q^3 + P", "weyl")
@example("(Q - Q)^2*P", "qp")
@example("2*Q^0*P*(1/2)^3*Q + (1/2)^3*Q^0", "pq")
@example("--Q*-P - -(-Q)^2 + ---1 - -(-(P - Q))", "weyl")
@settings(max_examples=300, deadline=None)
def test_block_fold_matches_reference_grammar(body, tag):
    poly = parse(f"{tag}{{{body}}}")
    assert poly.ordering.value == tag
    got = [((mon.m, mon.r), coeff) for mon, coeff in poly.terms.items()]
    assert got == _reference_block(body), body


def test_block_bodies_fold_without_a_tree_and_splice_once(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a block body builds no tree and needs no evaluation")

    monkeypatch.setattr(opalg, "_evaluate", refused)
    spliced = []
    as_words = exprio.as_words

    def counted(block):
        spliced.append(block.ordering.value)
        return as_words(block)

    monkeypatch.setattr(exprio, "as_words", counted)
    for text, tags in (
        ("pq{(Q+P+1)^4} + Q", ["pq"]),
        ("Q + pq{(Q+P+1)^4}", ["pq"]),
        ("qp{Q} * weyl{P} - pq{1}", ["qp", "weyl", "pq"]),
    ):
        spliced.clear()
        assert isinstance(parse(text), FreeExpression)
        assert spliced == tags, text
    # A lone block makes no node, no word form and no conversion.
    for node_type in (ScalarNode, SymbolNode, SumNode, ProductNode, PowerNode):
        monkeypatch.setattr(node_type, "__init__", refused)
    monkeypatch.setattr(exprio, "to_expression", refused)
    monkeypatch.setattr(exprio._conv, "convert", refused)
    spliced.clear()
    body = "-(Q+P+1)^4*(2*Q - i*P^2) + (1/2)^3 + r2*(Q - Q)"
    poly = parse(f"weyl{{{body}}}")
    assert poly.ordering is Ordering.WEYL and spliced == []
    assert [(tuple(mon), c) for mon, c in poly.terms.items()] == _reference_block(body)


def test_block_rules_end_at_the_closing_brace():
    expr = parse("pq{Q*P} * adag + qp{Q - P} * a")
    assert isinstance(expr, FreeExpression)
    with pytest.raises(ParseError) as err:
        parse("pq{Q + }")
    assert err.value.expected == frozenset(["scalar", "Q", "P", "("])
    with pytest.raises(ParseError) as err:
        parse("pq{Q} * (P + )")
    assert err.value.expected == frozenset(
        ["scalar", "symbol", "(", "pq{", "qp{", "weyl{"]
    )


def test_block_at_the_nesting_cap_folds_like_the_reference(capsys):
    # Each '-(1 + Q*' is two levels: a unary minus and a parenthesis.
    half = MAX_NESTING // 2
    body = "Q*" + "-(1 + Q*" * half + "P" + ")" * half
    poly = parse(f"qp{{{body}}}")
    assert len(poly.terms) == half + 1
    assert [(tuple(mon), c) for mon, c in poly.terms.items()] == _reference_block(body)
    too_deep = "qp{Q*" + "-(1 + Q*" * half + "-P" + ")" * half + "}"
    assert cli.main(["convert", too_deep, "--to", "pq", "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)["payload"]
    start = len("qp{Q*") + len("-(1 + Q*") * half
    assert payload["span"] == [start, start + 1]
    assert payload["message"].splitlines()[0] == (
        f"expression nests deeper than {MAX_NESTING} levels"
    )


def test_block_work_bound_refuses_before_multiplying(monkeypatch):
    # A power of one commuting term is charged once, before it is raised.
    # Past 2**16 bits a coefficient's bits count squared over 2**16:
    # 3^1300000 would have 2.1e6 bits.
    def refused(*args):
        raise AssertionError("raised before the charge")

    for text in ("pq{2^1000000000}", "pq{3^1300000}"):
        with mock.patch.object(ExactScalar, "__pow__", refused), pytest.raises(ParseError) as err:
            parse(text)
        assert str(MAX_WORK) in err.value.message
        assert err.value.span == (4, 5)
    # One scalar and one term with a unit coefficient do no work, and
    # zero to any power is raised at once.
    assert parse("pq{i^100000000*(Q*P)^1000}").terms == {Monomial(1000, 1000): ONE}
    assert parse("pq{(Q - Q)^1000000000 + 0^0}").terms == {Monomial(0, 0): ONE}
    # The work of one block adds up over its products, and each block
    # has its own bound.
    monkeypatch.setattr(opalg, "MAX_WORK", 3 * _product_work(
        {(1, 0): ONE, (0, 1): ONE}, {(1, 0): ONE, (0, 1): ONE}
    ))
    parse("pq{(Q+P)*(Q+P)} + qp{(Q+P)*(Q+P)}")
    with pytest.raises(ParseError) as err:
        parse("pq{(Q+P)*(Q+P) + (Q+P)*(Q+P)*(Q+P)}")
    assert err.value.span == (28, 29)
    # Each one-term factor of a sum counts too: here 2 each.
    parse("pq{(Q+P)" + "*Q" * 12 + "}")
    with pytest.raises(ParseError) as err:
        parse("pq{(Q+P)" + "*Q" * 13 + "}")
    assert err.value.span == (32, 33)
    help_text = " ".join(cli.build_parser().format_help().split())
    assert f"at most {opalg.MAX_WORK} coefficient products" in help_text


def test_a_multi_term_power_is_refused_at_its_crossing_product(monkeypatch):
    # A power of more than one term is made product by product, each
    # charged as in its written-out spelling: (Q+P)^464 fits under the cap
    # after 463 products.  A hopeless power is refused at the '^' by the
    # product that would pass the cap, the 464th, as the 465-factor
    # product is refused at its last '*'.
    calls, product = [], opalg._product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(opalg, "_product", counted)
    assert len(parse("pq{(Q+P)^464}").terms) == 465
    assert len(calls) == 463
    calls.clear()
    with pytest.raises(ParseError) as err:
        parse("pq{(Q+P)^2000}")
    assert err.value.span == (8, 9) and str(MAX_WORK) in err.value.message
    assert len(calls) == 464
    with pytest.raises(ParseError) as err:
        parse("pq{" + "*".join(["(Q+P)"] * 465) + "}")
    star = len("pq{") + 6 * 464 - 1
    assert err.value.span == (star, star + 1) and str(MAX_WORK) in err.value.message


def test_a_refused_block_leaves_no_budget_open(monkeypatch):
    # Refused at a power, a product or a splice's conversion, the parse
    # leaves no budget behind.
    for text in ("pq{(Q+P)^2000}", "pq{(1+Q+P)^40*(1+Q+P)^40}", "P + weyl{Q^3000*P^3000}"):
        with pytest.raises(ParseError):
            parse(text)
        assert opalg._BUDGET.get() is None, text
    # The next parse charges a fresh budget, and a library conversion
    # after it has no bound at all.
    assert len(parse("pq{(1+Q+P)^64}").terms) == 66 * 65 // 2
    monkeypatch.setattr(opalg, "MAX_WORK", 0)
    block = parse("pq{(Q*P)^20 - 3*Q}")
    assert len(conv.convert(block, Ordering.QP).terms) == 22


def test_threads_charge_their_own_block_budgets(monkeypatch):
    # Each of two threads parses a block at the cap, their products in
    # lockstep: a shared budget would pass the cap at the third product.
    pair = {(1, 0): ONE, (0, 1): ONE}
    text = "pq{(Q+P)*(Q+P) + (Q+P)*(Q+P)}"
    want = parse(text)
    monkeypatch.setattr(opalg, "MAX_WORK", 2 * _product_work(pair, pair))
    with pytest.raises(ParseError):
        parse("pq{(Q+P)*(Q+P) + (Q+P)*(Q+P)*(Q+P)}")
    barrier = threading.Barrier(2, timeout=10)

    def product(*args):
        out = _product(*args)
        barrier.wait()
        return out

    monkeypatch.setattr(exprio, "_product", product)
    results = []

    def target():
        try:
            results.append(parse(text))
        except Exception as exc:  # reported below, not lost in the thread
            barrier.abort()
            results.append(exc)

    threads = [threading.Thread(target=target) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert results == [want, want]


def _largest(terms: dict) -> int:
    """The largest integer in the canonical form of any coefficient."""
    return max((abs(n) for c in terms.values() for n in c.canonical), default=1)


block_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(
        lambda parts, d: ExactScalar(*(Fraction(n, d) for n in parts)),
        st.tuples(*[st.integers(-9, 9)] * 4),
        st.integers(1, 6),
    ),
    min_size=1,
    max_size=4,
).map(lambda t: {key: c for key, c in t.items() if not c.is_zero()})


def _product_charge(x: dict, y: dict) -> int:
    """Reference for a product's charge, as the parser summed it: its
    _product_work when a side has more than one term, else nothing."""
    return _product_work(x, y) if len(x) > 1 or len(y) > 1 else 0


def _power_charge(x: dict, exponent: int) -> int:
    """Reference for a power's charge: one term is charged its
    coefficient raised, once; more are charged the sum of _product_charge
    over the left fold x*x*...*x."""
    if len(x) == 1:
        return _bit_work(exponent * _coefficient_bits(x))
    work, out = 0, x
    for _ in range(exponent - 1):
        work += _product_charge(out, x)
        out = _reference_product(out, x)
    return work


def _block_charge(x: dict, y: dict, exponent: int) -> int:
    """Reference for the parser's sum over the block (x)*(y)^exponent:
    the power's charge, then the product's."""
    return _power_charge(y, exponent) + _product_charge(x, _power(y, exponent, ZERO))


@given(block_terms, block_terms, st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_block_work_bounds_the_result(x, y, exponent):
    # No integer of a coefficient of a k-fold product passes 2**(k*B),
    # B = _coefficient_bits of one factor, and a product of x and y has at
    # most len(x) * len(y) terms.  A budget is charged the reference.
    bits = _coefficient_bits(x)
    with work_budget() as budget:
        product = _product(x, y, ZERO)
    assert budget.work == _product_charge(x, y)
    assert len(product) <= len(x) * len(y)
    assert _largest(product) <= 2 ** (bits + _coefficient_bits(y))
    with work_budget() as budget:
        power = _power(x, exponent, ZERO)
    assert budget.work == _power_charge(x, exponent)
    assert _largest(power) <= 2 ** (exponent * bits)
    # The power's charge covers each of its products: terms times terms
    # times the bits of the result.
    work, out = 0, x
    for _ in range(exponent - 1 if len(x) > 1 else 0):
        step = _product(out, x, ZERO)
        work += len(out) * len(x) * max(1, _largest(step).bit_length() - 1)
        out = step
    assert work <= budget.work


@given(block_terms, block_terms, st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_block_budget_charges_what_the_parser_summed(x, y, exponent):
    # A block is accepted with MAX_WORK at the reference sum and refused
    # one below it, at the operator whose charge crosses: the '*' when
    # the product is charged, else the '^'.
    left, right = (render_terms(OrderedPolynomial.from_terms(Ordering.QP, t.items())) for t in (x, y))
    text = f"qp{{({left})*({right})^{exponent}}}"
    charge = _block_charge(x, y, exponent)
    with mock.patch.object(opalg, "MAX_WORK", charge):
        parse(text)
    if not charge:
        return
    with mock.patch.object(opalg, "MAX_WORK", charge - 1), pytest.raises(ParseError) as err:
        parse(text)
    star = len(f"qp{{({left})")
    at = star if _product_charge(x, _power(y, exponent, ZERO)) else text.index(")^") + 1
    assert err.value.span == (at, at + 1)


@given(block_terms, st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_a_power_is_charged_as_its_written_out_product(x, exponent):
    # A power of more than one term charges what the left fold x*x*...*x
    # charges through _product, and makes the same terms.  So at a cap of
    # that charge both spellings are accepted, and one below both are
    # refused: the power at the '^', the product at the '*' whose charge
    # crosses.  One term keeps its one charge before it is raised, which
    # its written-out product, one-term factors only, never pays.
    with work_budget() as power_budget:
        power = _power(x, exponent, ZERO)
    with work_budget() as fold_budget:
        fold, steps = (x if exponent else {(0, 0): ONE}), []
        for _ in range(exponent - 1):
            work = fold_budget.work
            fold = _product(fold, x, ZERO)
            steps.append(fold_budget.work - work)
    assert power == fold
    charge = power_budget.work
    if len(x) == 1:
        assert (charge, fold_budget.work) == (_bit_work(exponent * _coefficient_bits(x)), 0)
        return
    assert charge == fold_budget.work == _power_charge(x, exponent)
    body = f"({render_terms(OrderedPolynomial.from_terms(Ordering.QP, x.items()))})"
    power_text = f"qp{{{body}^{exponent}}}"
    written_text = "qp{" + ("*".join([body] * exponent) or "1") + "}"
    with mock.patch.object(opalg, "MAX_WORK", charge):
        assert parse(power_text) == parse(written_text)
    if not charge:
        return
    crossing = next(k for k in range(len(steps)) if sum(steps[: k + 1]) > charge - 1)
    star = len("qp{") + (crossing + 1) * (len(body) + 1) - 1
    caret = len(power_text) - len(f"^{exponent}}}")
    for text, at in ((power_text, caret), (written_text, star)):
        with mock.patch.object(opalg, "MAX_WORK", charge - 1), pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span == (at, at + 1), text


def _parens(depth: int) -> str:
    return "(" * depth + "Q" + ")" * depth


@pytest.mark.parametrize("wrap", ["{}", "pq{{{}}}"])
def test_nesting_is_capped(wrap):
    offset = wrap.format("\0").index("\0")
    for text in (_parens(MAX_NESTING), "Q + " + "-" * MAX_NESTING + "Q"):
        parse(wrap.format(text))
    too_deep = {
        _parens(MAX_NESTING + 1): MAX_NESTING,
        _parens(320): MAX_NESTING,
        "Q + " + "-" * 2000 + "Q": 4 + MAX_NESTING,
        "-" * 2000 + "Q": 1 + MAX_NESTING,
        # Each level is a unary minus and a parenthesis.
        "Q*" + "-(Q*" * 60 + "Q" + ")" * 60: 2 + 4 * (MAX_NESTING // 2),
    }
    for text, start in too_deep.items():
        with pytest.raises(ParseError) as err:
            parse(wrap.format(text))
        assert err.value.message == (
            f"expression nests deeper than {MAX_NESTING} levels"
        )
        assert err.value.span == (offset + start, offset + start + 1)


def test_overlong_integer_literals_are_parse_errors():
    limit = max_int_digits()
    if not limit:
        pytest.skip("this Python reads ints of any length")
    parse("9" * limit + "*Q")
    digits = "9" * (limit + 1)
    for text, start in (
        (f"{digits}*Q", 0),
        (f"Q^{digits}", 2),
        (f"pq{{1/{digits}*Q}}", 5),
        (f"pq{{P^{digits}}}", 5),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span == (start, start + limit + 1)
        assert f"more than {limit} digits" in err.value.message
