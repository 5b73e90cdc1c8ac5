import json
import random
import string
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import exprio, ordering as conv
from weylkit.exactnum import SQRT2, ExactScalar, I, ONE
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
    FreeExpression,
    Monomial,
    OrderedPolynomial,
    Ordering,
    rewrite_to_pq,
)
from weylkit.ordering import CommutativePoly2


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
_REFERENCE_SCALARS = {
    "int": lambda text: ExactScalar(Fraction(int(text))),
    "rational": lambda text: ExactScalar(Fraction(text)),
    "imag": lambda text: I,
    "sqrt2": lambda text: SQRT2,
}


def _reference_product(x: CommutativePoly2, y: CommutativePoly2) -> CommutativePoly2:
    """Commutative product by its own loop, x's terms outer, y's inner."""
    return CommutativePoly2.from_terms(
        ((i1 + i2, j1 + j2), c1 * c2)
        for (i1, j1), c1 in x.terms.items()
        for (i2, j2), c2 in y.terms.items()
    )


class _ReferenceBlock:
    """The block grammar as its own recursive descent, building the
    commutative value while it parses, to check the parser's fold of
    the block's free parse tree.  Valid bodies only."""

    def __init__(self, body: str):
        self.tokens = tokenize(body)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos].kind

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expr(self) -> CommutativePoly2:
        terms = []
        negate = self.peek() == "minus"
        if negate:
            self.advance()
        while True:
            term = self.term()
            terms.extend((term.scale(_MINUS_ONE) if negate else term).terms.items())
            if self.peek() not in ("plus", "minus"):
                return CommutativePoly2.from_terms(terms)
            negate = self.advance().kind == "minus"

    def term(self) -> CommutativePoly2:
        total = self.unary()
        while self.peek() == "star":
            self.advance()
            total = _reference_product(total, self.unary())
        return total

    def unary(self) -> CommutativePoly2:
        if self.peek() == "minus":
            self.advance()
            return self.unary().scale(_MINUS_ONE)
        return self.factor()

    def factor(self) -> CommutativePoly2:
        base = self.primary()
        if self.peek() == "caret":
            self.advance()
            out = CommutativePoly2.monomial(0, 0)
            for index in range(int(self.advance().text)):
                out = _reference_product(out, base) if index else base
            return out
        return base

    def primary(self) -> CommutativePoly2:
        token = self.advance()
        if token.kind == "lparen":
            inner = self.expr()
            assert self.advance().kind == "rparen"
            return inner
        if token.kind == "symbol":
            return CommutativePoly2.monomial(*{"Q": (1, 0), "P": (0, 1)}[token.text])
        return CommutativePoly2.monomial(0, 0, _REFERENCE_SCALARS[token.kind](token.text))


def _reference_block(body: str) -> list:
    """The block body's terms, in dict order, by the reference grammar."""
    parser = _ReferenceBlock(body)
    poly = parser.expr()
    assert parser.peek() == "eof"
    return list(poly.terms.items())


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
@settings(max_examples=300, deadline=None)
def test_block_fold_matches_reference_grammar(body, tag):
    poly = parse(f"{tag}{{{body}}}")
    assert poly.ordering.value == tag
    got = [((mon.m, mon.r), coeff) for mon, coeff in poly.terms.items()]
    assert got == _reference_block(body), body


def test_each_block_body_is_evaluated_once(monkeypatch):
    calls = []
    evaluate = exprio._evaluate

    def counted(*args):
        calls.append(args[0])
        return evaluate(*args)

    def refused(*args):
        raise AssertionError("a lone block needs no word form")

    monkeypatch.setattr(exprio, "_evaluate", counted)
    for text, count in (
        ("pq{(Q+P+1)^4} + Q", 1),
        ("Q + pq{(Q+P+1)^4}", 1),
        ("qp{Q} * weyl{P} - pq{1}", 3),
    ):
        calls.clear()
        assert isinstance(parse(text), FreeExpression)
        assert len(calls) == count, text
    monkeypatch.setattr(exprio, "to_expression", refused)
    monkeypatch.setattr(exprio._conv, "convert", refused)
    calls.clear()
    assert parse("weyl{(Q+P+1)^4}").ordering is Ordering.WEYL
    assert len(calls) == 1


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
