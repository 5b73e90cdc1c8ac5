import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.exactnum import ZERO, ExactScalar, I, MINUS_I, ONE, SQRT2
from weylkit.opalg import (
    A,
    ADAG,
    Monomial,
    OrderedPolynomial,
    Ordering,
    P,
    ProductNode,
    Q,
    ScalarNode,
    Symbol,
    UnsupportedSymbolError,
    _evaluate,
    _product,
    _rewrite_word,
    commutator,
    normal_order,
    poly_equal,
    rewrite_to_pq,
    rewrite_to_qp,
    scalar,
    substitute_ladder,
    to_expression,
)
from weylkit.ordering import qp_to_pq

INV_SQRT2 = SQRT2.invert()


def terms(poly):
    return {tuple(k): v for k, v in poly.terms.items()}


def test_rewrite_to_pq_examples():
    assert terms(rewrite_to_pq(Q)) == {(1, 0): ONE}
    assert terms(rewrite_to_pq(Q * P)) == {(1, 1): ONE, (0, 0): I}
    assert terms(rewrite_to_pq(Q * P * Q)) == {(2, 1): ONE, (1, 0): I}


def test_rewrite_to_qp_examples():
    assert terms(rewrite_to_qp(P * Q)) == {(1, 1): ONE, (0, 0): MINUS_I}
    assert terms(rewrite_to_qp(P * P * Q * Q)) == {
        (2, 2): ONE,
        (1, 1): ExactScalar.from_int(-4) * I,
        (0, 0): ExactScalar.from_int(-2),
    }
    assert terms(rewrite_to_qp(P**3)) == {(0, 3): ONE}


def test_rewrite_rejects_ladder_symbols():
    with pytest.raises(UnsupportedSymbolError):
        rewrite_to_pq(A * Q)
    with pytest.raises(UnsupportedSymbolError):
        rewrite_to_qp(ADAG)


def test_substitute_ladder_examples():
    assert substitute_ladder(Q).terms == {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2}
    ih = I * ExactScalar.rational(1, 2)
    assert substitute_ladder(Q * P).terms == {
        (2, 0): ih,
        (0, 2): -ih,
        (0, 0): ih,
    }
    with pytest.raises(UnsupportedSymbolError):
        substitute_ladder(A)


def test_normal_order_companion_input():
    assert normal_order(A * ADAG).terms == {(1, 1): ONE, (0, 0): ONE}
    with pytest.raises(UnsupportedSymbolError):
        normal_order(Q * A)


def test_commutator_examples():
    assert terms(commutator(Q, P)) == {(0, 0): I}
    assert terms(commutator(Q**2, P**2)) == {
        (1, 1): ExactScalar.from_int(4) * I,
        (0, 0): ExactScalar.from_int(-2),
    }
    assert commutator(Q**3, scalar(1)).is_zero()


def test_poly_equal_examples():
    lhs = OrderedPolynomial.from_terms(Ordering.PQ, [((1, 1), ONE), ((0, 0), I)])
    assert poly_equal(lhs, rewrite_to_pq(Q * P))
    qp = OrderedPolynomial.monomial(Ordering.QP, 1, 1)
    pq = OrderedPolynomial.monomial(Ordering.PQ, 1, 1)
    assert not poly_equal(qp, pq)
    assert poly_equal(qp_to_pq(2, 2), rewrite_to_pq(Q * Q * P * P))


def all_words(max_len, alphabet=(Symbol.Q, Symbol.P)):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def test_involution_consistency_exhaustive():
    # Round-tripping through the P-Q normal form preserves the Q-P form.
    for word in all_words(8):
        expr = ProductNode(tuple(map(_symbol_node, word))) if word else scalar(1)
        via = rewrite_to_qp(to_expression(rewrite_to_pq(expr)))
        assert via.terms == rewrite_to_qp(expr).terms, word


def _symbol_node(sym):
    return Q if sym is Symbol.Q else P


def test_ladder_consistency():
    # a = (Q + iP)/sqrt2 and its conjugate undo the ladder substitution.
    a_img = (Q + ScalarNode(I) * P) * ScalarNode(INV_SQRT2)
    adag_img = (Q - ScalarNode(I) * P) * ScalarNode(INV_SQRT2)
    for word in all_words(6):
        expr = ProductNode(tuple(map(_symbol_node, word))) if word else scalar(1)
        ladder = substitute_ladder(expr)
        parts = []
        for (j, k), coeff in ladder.terms.items():
            node = ScalarNode(coeff)
            for _ in range(j):
                node = node * adag_img
            for _ in range(k):
                node = node * a_img
            parts.append(node)
        back = rewrite_to_pq(sum(parts[1:], parts[0])) if parts else rewrite_to_pq(scalar(0))
        assert back.terms == rewrite_to_pq(expr).terms, word


def test_termination_bound():
    # Every chain of rule applications removes inversions one at a time,
    # so no chain is longer than L^2.
    for word in all_words(8):
        _, longest_chain = _rewrite_word(word, Symbol.P, Symbol.Q, I)
        assert longest_chain <= max(1, len(word)) ** 2


def _reference_rewrite_word(word, left, right, correction):
    # Rule at a time, no reuse: every branch is walked on its own and its
    # coefficient multiplied by the correction at each contraction.
    out = {}
    stack = [(word, ONE, 0)]
    longest_chain = 0
    while stack:
        current, coeff, chain = stack.pop()
        pos = next(
            (
                idx
                for idx in range(len(current) - 1)
                if current[idx] is right and current[idx + 1] is left
            ),
            -1,
        )
        if pos < 0:
            longest_chain = max(longest_chain, chain)
            key = (current.count(right), current.count(left))
            total = out.get(key, ExactScalar()) + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
            continue
        stack.append((current[:pos] + (left, right) + current[pos + 2 :], coeff, chain + 1))
        stack.append((current[:pos] + current[pos + 2 :], coeff * correction, chain + 1))
    return out, longest_chain


@pytest.mark.parametrize(
    "left, right, correction",
    [
        (Symbol.P, Symbol.Q, I),
        (Symbol.Q, Symbol.P, MINUS_I),
        (Symbol.ADAG, Symbol.A, ONE),
    ],
    ids=["pq", "qp", "ladder"],
)
def test_rewrite_word_matches_rule_at_a_time_reference(left, right, correction):
    for word in all_words(8, alphabet=(left, right)):
        got, got_chain = _rewrite_word(word, left, right, correction)
        want, want_chain = _reference_rewrite_word(word, left, right, correction)
        assert got == want, word
        assert got_chain == want_chain, word


coefficients = st.builds(
    lambda n, d: ExactScalar.rational(n, d),
    st.integers(-9, 9),
    st.integers(1, 4),
)
words = st.lists(st.sampled_from([Q, P]), min_size=0, max_size=5).map(
    lambda syms: ProductNode(tuple(syms)) if syms else scalar(1)
)


@given(coefficients, coefficients, words, words)
@settings(max_examples=80, deadline=None)
def test_rewriting_is_linear(alpha, beta, x, y):
    combo = ScalarNode(alpha) * x + ScalarNode(beta) * y
    direct = rewrite_to_pq(combo)
    split = rewrite_to_pq(x).scale(alpha) + rewrite_to_pq(y).scale(beta)
    assert direct.terms == split.terms


def test_adjoint_flips_tag():
    poly = qp_to_pq(2, 1)
    adj = poly.adjoint()
    assert adj.ordering is Ordering.QP
    assert adj.terms == {
        Monomial(2, 1): ONE,
        Monomial(1, 0): MINUS_I * ExactScalar.from_int(2),
    }


_QP_LEAVES = {Symbol.Q: {(1, 0): ONE}, Symbol.P: {(0, 1): ONE}}
_NODES = {Symbol.Q: Q, Symbol.P: P, Symbol.A: A, Symbol.ADAG: ADAG}


def _word_node(word):
    return ProductNode(tuple(_NODES[sym] for sym in word))


def test_normal_order_matches_rewriting_on_every_word():
    for word in all_words(8, alphabet=(Symbol.A, Symbol.ADAG)):
        want, _ = _rewrite_word(word, Symbol.ADAG, Symbol.A, ONE)
        # _rewrite_word keys (#a, #a+); ladder terms are keyed (#a+, #a).
        want = {(n_adag, n_a): c for (n_a, n_adag), c in want.items()}
        assert normal_order(_word_node(word)).terms == want, word


def test_qp_product_matches_rewriting_on_every_word():
    for word in all_words(8):
        got = _evaluate(_word_node(word), _QP_LEAVES, MINUS_I)
        assert got == terms(rewrite_to_qp(_word_node(word))), word
    for m1, r1, m2, r2 in itertools.product(range(5), repeat=4):
        if m1 + r1 + m2 + r2 > 8:
            continue
        got = _product({(m1, r1): ONE}, {(m2, r2): ONE}, MINUS_I)
        word = (Q,) * m1 + (P,) * r1 + (Q,) * m2 + (P,) * r2
        assert got == terms(rewrite_to_qp(ProductNode(word))), (m1, r1, m2, r2)


qp_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=4
).map(lambda t: {key: c for key, c in t.items() if not c.is_zero()})


@given(qp_polynomials, qp_polynomials)
@settings(max_examples=60, deadline=None)
def test_qp_product_of_polynomials_matches_rewriting(x, y):
    words = [
        to_expression(OrderedPolynomial.from_terms(Ordering.QP, t.items()))
        for t in (x, y)
    ]
    assert _product(x, y, MINUS_I) == terms(rewrite_to_qp(words[0] * words[1]))


def test_product_edge_cases():
    unit = {(0, 0): ONE}
    assert normal_order(ProductNode(())).terms == unit
    assert substitute_ladder(ProductNode(())).terms == unit
    assert normal_order(ADAG**0).terms == unit
    assert substitute_ladder(Q**0 * P).terms == substitute_ladder(P).terms
    assert normal_order(scalar(0) * A * ADAG).is_zero()
    assert normal_order(scalar(0)).is_zero()
    assert _product({}, {(1, 2): ONE}, ONE) == {}
    assert _product({(1, 0): ONE}, {(0, 1): ONE}, ZERO) == {(1, 1): ONE}


def test_symbols_outside_the_algebra_are_refused_under_zero():
    # Refused wherever they stand, not only where they survive expansion.
    for call, expr in (
        (normal_order, scalar(0) * Q),
        (normal_order, Q**0),
        (normal_order, A + scalar(0) * P**3),
        (substitute_ladder, scalar(0) * A),
        (substitute_ladder, ADAG**0 * Q),
    ):
        with pytest.raises(UnsupportedSymbolError):
            call(expr)
