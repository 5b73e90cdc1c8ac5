import json
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import ordering as conv
from weylkit.exactnum import ExactScalar, I, ONE
from weylkit.exprio import (
    ParseError,
    parse,
    polynomial_to_json,
    render,
    render_terms,
    to_json_ast,
    tokenize,
)
from weylkit.opalg import (
    FreeExpression,
    Monomial,
    OrderedPolynomial,
    Ordering,
    rewrite_to_pq,
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
        "Q $ P": "unexpected character",
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


def test_json_ast_shapes():
    doc = to_json_ast(parse("Q*P^2 + 3"))
    assert doc["node"] == "sum"
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
