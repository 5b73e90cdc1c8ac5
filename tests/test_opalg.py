import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import exprio, fockspace, opalg
from weylkit.exactnum import ZERO, ExactScalar, I, MINUS_I, ONE, SQRT2
from weylkit.opalg import (
    A,
    ADAG,
    LadderOrdering,
    LadderPolynomial,
    Monomial,
    OrderedPolynomial,
    Ordering,
    P,
    PowerNode,
    ProductNode,
    Q,
    ScalarNode,
    SumNode,
    Symbol,
    UnsupportedSymbolError,
    WorkLimitError,
    _evaluate,
    _power,
    _product,
    _rewrite_expression,
    _rewrite_word,
    collect,
    commutator,
    normal_order,
    poly_equal,
    rewrite_to_pq,
    rewrite_to_qp,
    scalar,
    to_expression,
    work_budget,
)
from weylkit.ordering import convert, qp_to_pq

INV_SQRT2 = SQRT2.invert()
# Q = (a + a+)/sqrt2,  P = (a - a+)/(sqrt2 i)
LADDER_IMAGE = {
    Symbol.Q: {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2},
    Symbol.P: {(0, 1): MINUS_I * INV_SQRT2, (1, 0): I * INV_SQRT2},
}


def substitute_ladder(e):
    """A {Q, P} expression in normal-ordered ladder form, by the product."""
    return LadderPolynomial(LadderOrdering.NORMAL, _evaluate(e, LADDER_IMAGE, ONE))


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
    # The message names the first symbol outside the rewrite's alphabet.
    with pytest.raises(UnsupportedSymbolError) as err:
        rewrite_to_pq(A * Q)
    assert str(err.value) == "symbol 'a' not supported by this rewrite"
    with pytest.raises(UnsupportedSymbolError) as err:
        rewrite_to_qp(ADAG)
    assert str(err.value) == "symbol 'adag' not supported by this rewrite"
    with pytest.raises(UnsupportedSymbolError) as err:
        _rewrite_word((Symbol.A, Symbol.Q, Symbol.ADAG), Symbol.ADAG, Symbol.A, ONE)
    assert str(err.value) == "symbol 'Q' not supported by this rewrite"


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
            total = out.get(key, ZERO) + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
            continue
        stack.append((current[:pos] + (left, right) + current[pos + 2 :], coeff, chain + 1))
        stack.append((current[:pos] + current[pos + 2 :], coeff * correction, chain + 1))
    return out, longest_chain


_ALPHABETS = pytest.mark.parametrize(
    "left, right, correction",
    [
        (Symbol.P, Symbol.Q, I),
        (Symbol.Q, Symbol.P, MINUS_I),
        (Symbol.ADAG, Symbol.A, ONE),
    ],
    ids=["pq", "qp", "ladder"],
)


@_ALPHABETS
def test_rewrite_word_matches_rule_at_a_time_reference(left, right, correction):
    for word in all_words(8, alphabet=(left, right)):
        want, _ = _reference_rewrite_word(word, left, right, correction)
        assert _rewrite_word(word, left, right, correction) == want, word


@_ALPHABETS
def test_longest_chain_is_the_inversion_count(left, right, correction):
    # A swap removes one inversion (a `right` before a `left`) and a
    # contraction at least one, so the longest chain of rule applications
    # swaps only: its length is the word's inversion count, which bounds
    # every chain without walking any.
    for word in all_words(10, alphabet=(left, right)):
        inversions = sum(
            a is right and b is left for a, b in itertools.combinations(word, 2)
        )
        assert _reference_rewrite_word(word, left, right, correction)[1] == inversions, word


_TARGETS = {
    Ordering.PQ: (Symbol.P, Symbol.Q, I),
    Ordering.QP: (Symbol.Q, Symbol.P, MINUS_I),
}
_C1 = ExactScalar(Fraction(3, 2), Fraction(-1, 3))
_C2 = ExactScalar(Fraction(-5, 7), 2)


@pytest.mark.parametrize("target", list(_TARGETS), ids=lambda t: t.value)
@pytest.mark.parametrize(
    "expr",
    [
        # Mixed lengths that reach the same keys after different k.
        Q * P + Q**2 * P**2,
        Q * P * Q * P + P * Q + Q**3 * P**3,
        # Equal and unequal Gaussian-rational coefficients.
        scalar(_C1) * Q * P + scalar(_C1) * Q**2 * P**2 + scalar(_C1) * P * Q**2 * P,
        scalar(_C1) * Q * P + scalar(_C2) * P * Q + scalar(_C2) * Q**2 * P**2,
        scalar(_C2) * Q * P * Q + scalar(_C1) * P * Q * Q + scalar(_C1) * Q * Q * P,
        # Sums that cancel: [Q, P] - i and a multiple of [Q^2, P] - 2iQ.
        Q * P - P * Q - scalar(I),
        scalar(_C1) * (Q**2 * P - P * Q**2) - scalar(2 * I * _C1) * Q,
        (P + Q) ** 5,
    ],
    ids=["mixed", "mixed3", "equal", "unequal", "unequal3", "cancel", "cancel2", "p_plus_q"],
)
def test_one_memo_for_all_words_matches_rewriting_each_word(expr, target):
    # One call shares its memo across the words and sums integer counts
    # before any exact product; the result is the sum over the words of
    # the rule-at-a-time reference.
    left, right, correction = _TARGETS[target]
    swap = target is Ordering.QP
    want_pairs = []
    for word, coeff in expr.expand().items():
        word_terms, _ = _reference_rewrite_word(word, left, right, correction)
        want_pairs += [(key[::-1] if swap else key, coeff * c) for key, c in word_terms.items()]
    want = collect(want_pairs)
    for _ in range(2):  # the same expression twice in a row
        got = _rewrite_expression(expr, target)
        assert got.ordering is target
        assert terms(got) == want


def test_each_rewriting_call_walks_with_a_fresh_memo(monkeypatch):
    # Nothing outlives a call: a second identical call repeats the walk.
    seen = []
    path_counts = opalg._path_counts

    def spy(core, memo):
        seen.append((id(memo), len(memo)))
        return path_counts(core, memo)

    monkeypatch.setattr(opalg, "_path_counts", spy)
    expr = (P + Q) ** 4
    first = rewrite_to_pq(expr)
    calls = len(seen)
    second = rewrite_to_pq(expr)
    assert first == second
    assert len(seen) == 2 * calls == 2 * len(expr.expand())
    # Within a call every word shares one growing memo; the next call
    # starts from an empty one.
    assert len({memo for memo, _ in seen[:calls]}) == 1
    assert seen[calls - 1][1] > 0
    assert seen[0][1] == seen[calls][1] == 0


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


def _reference_expand(e):
    """Word expansion with every product through ``collect``, as it was
    before one-term factors were distributed by a dict comprehension."""
    if isinstance(e, PowerNode):
        return _reference_expand(ProductNode((e.base,) * e.exponent))
    if isinstance(e, ProductNode):
        out = {(): ONE}
        for child in e.children:
            rhs = _reference_expand(child)
            out = collect(
                (w1 + w2, c1 * c2)
                for w1, c1 in out.items()
                for w2, c2 in rhs.items()
            )
        return out
    if isinstance(e, SumNode):
        return collect(
            pair for child in e.children for pair in _reference_expand(child).items()
        )
    return e.expand()


_EXPAND_SCALARS = (ZERO, ONE, I, MINUS_I, ExactScalar.from_int(-1), ExactScalar.rational(1, 2))
expression_trees = st.recursive(
    st.one_of(
        st.sampled_from([Q, P]),
        st.sampled_from(_EXPAND_SCALARS).map(ScalarNode),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5).map(lambda c: ProductNode(tuple(c))),
        st.lists(kids, min_size=1, max_size=3).map(lambda c: SumNode(tuple(c))),
        st.tuples(kids, st.integers(0, 5)).map(lambda t: PowerNode(*t)),
    ),
    max_leaves=8,
)


def _word_bound(e):
    """At most this many words in the expansion of ``e``."""
    if isinstance(e, SumNode):
        return sum(map(_word_bound, e.children))
    if isinstance(e, ProductNode):
        return math.prod(map(_word_bound, e.children))
    if isinstance(e, PowerNode):
        return _word_bound(e.base) ** e.exponent
    return 1


# Nested powers of sums would reach 2**25 words; keep each example small.
@given(expression_trees.filter(lambda tree: _word_bound(tree) <= 1024))
@settings(max_examples=300, deadline=None)
def test_expand_matches_collecting_every_product(tree):
    got, want = tree.expand(), _reference_expand(tree)
    # Item by item: the same words, coefficients and order.
    assert list(got.items()) == list(want.items())


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
        want = _rewrite_word(word, Symbol.ADAG, Symbol.A, ONE)
        # _rewrite_word keys (#a, #a+); ladder terms are keyed (#a+, #a).
        want = {(n_adag, n_a): c for (n_a, n_adag), c in want.items()}
        assert normal_order(_word_node(word)).terms == want, word


def _run_node(word):
    # One PowerNode per run of one symbol.
    return ProductNode(
        tuple(PowerNode(_NODES[sym], len(list(run))) for sym, run in itertools.groupby(word))
    )


@pytest.mark.parametrize(
    "left, right, correction, evaluate",
    [
        (Symbol.Q, Symbol.P, MINUS_I, lambda e: _evaluate(e, _QP_LEAVES, MINUS_I)),
        (Symbol.ADAG, Symbol.A, ONE, lambda e: normal_order(e).terms),
    ],
    ids=["qp", "ladder"],
)
def test_runs_and_powers_build_the_same_word(left, right, correction, evaluate):
    # A word built one node per symbol and one power per run expands to
    # that one word, and both forms fold to its rewriting (keyed (#right,
    # #left), the leaves' terms (#left, #right)).
    for word in all_words(8, alphabet=(left, right)):
        want = _rewrite_word(word, left, right, correction)
        want = {(n_left, n_right): c for (n_right, n_left), c in want.items()}
        for node in (_word_node(word), _run_node(word)):
            assert node.expand() == {word: ONE}, word
            assert evaluate(node) == want, (word, node)


def test_power_expands_its_base_once(monkeypatch):
    calls = []
    for cls in (SumNode, ProductNode):
        expand = cls.expand

        def counted(self, expand=expand):
            calls.append(self)
            return expand(self)

        monkeypatch.setattr(cls, "expand", counted)
    for base in (Q + P, scalar(I) * Q * P, Q + P + scalar(2) * Q * Q):
        calls.clear()
        PowerNode(base, 5).expand()
        assert sum(node is base for node in calls) == 1, base


def test_power_expansion_edge_cases():
    assert ((scalar(0) * Q) ** 3).expand() == {}
    assert ((scalar(0) * Q) ** 0).expand() == {(): ONE}
    assert ((Q + P) ** 0).expand() == {(): ONE}
    assert ((scalar(I) * Q * P) ** 5).expand() == {(Symbol.Q, Symbol.P) * 5: I**5}
    assert ((Q + P) ** 1).expand() == (Q + P).expand()


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


def test_plain_pair_keys_read_like_monomials():
    # A polynomial built with plain (m, r) tuples as keys renders, sorts,
    # converts, encodes, becomes words and evaluates as its Monomial-keyed
    # twin does.
    pairs = [((1, 1), ONE), ((0, 2), 2 * I), ((3, 0), SQRT2), ((0, 0), MINUS_I)]
    for tag in Ordering:
        plain = OrderedPolynomial(tag, dict(pairs))
        twin = OrderedPolynomial.from_terms(tag, pairs)
        assert plain.sorted_terms() == twin.sorted_terms()
        assert plain.max_degree() == twin.max_degree() == 3
        for render in (exprio.render, exprio.render_terms, exprio.polynomial_to_json):
            assert render(plain) == render(twin), render
        for target in Ordering:
            assert convert(plain, target) == convert(twin, target)
        if tag is Ordering.WEYL:
            continue
        assert to_expression(plain) == to_expression(twin)
        assert np.array_equal(fockspace.evaluate(plain, 8).data, fockspace.evaluate(twin, 8).data)


def test_nothing_is_bounded_outside_a_budget(monkeypatch):
    # With no budget open, a cap of 0 bounds nothing: the product, the
    # power, normal ordering and conversion return what they did before.
    pair = {(1, 0): ONE, (0, 1): ONE}
    weyl = OrderedPolynomial.from_terms(Ordering.WEYL, [((3, 3), 2 * I), ((1, 0), ONE)])
    calls = (
        lambda: _product(pair, pair, ONE),
        lambda: _power(pair, 4, ONE),
        lambda: normal_order((A + ADAG) ** 4),
        lambda: convert(weyl, Ordering.QP),
    )
    want = [call() for call in calls]
    monkeypatch.setattr(opalg, "MAX_WORK", 0)
    assert [call() for call in calls] == want
    assert opalg._BUDGET.get() is None
    # Inside a budget each is refused before it multiplies, and the
    # budget closes on the way out.
    for call in calls:
        with pytest.raises(WorkLimitError), work_budget() as budget:
            call()
        assert budget.work > 0 and opalg._BUDGET.get() is None
    # Budgets nest: the inner one charges only itself.
    monkeypatch.undo()
    with work_budget() as outer:
        with work_budget() as inner:
            _product(pair, pair, ZERO)
        assert opalg._BUDGET.get() is outer
    assert (outer.work, inner.work) == (0, opalg._product_work(pair, pair))


def test_powers_of_one_commuting_term_are_one_monomial(monkeypatch):
    # A one-term leaf whose factors commute (any term at f = 0, a power of
    # one generator or a scalar at f = 1) is raised without the product;
    # every power agrees with the product taken e - 1 times.  A run of one
    # symbol in a product is that power too.
    products = []

    def counted(*args):
        products.append(args)
        return _product(*args)

    two_i = 2 * I
    cases = (
        ({(2, 1): two_i}, ZERO, False),
        ({(2, 0): two_i}, ONE, False),
        ({(0, 1): two_i}, ONE, False),
        ({(0, 0): two_i}, ONE, False),
        ({(1, 1): ONE}, ONE, True),  # (a+ a)^e under normal_order
        ({(1, 1): two_i}, MINUS_I, True),
    )
    for leaf, f, multiplies in cases:
        leaves = {Symbol.Q: leaf}
        for e in range(6):
            want = dict(leaf) if e else {(0, 0): ONE}
            for _ in range(e - 1):
                want = _product(want, leaf, f)
            for tree in (PowerNode(Q, e), ProductNode((Q,) * e)):
                monkeypatch.setattr(opalg, "_product", counted)
                products.clear()
                got = _evaluate(tree, leaves, f)
                monkeypatch.undo()
                assert got == want, (leaf, f, e, tree)
                assert len(products) == (max(e - 1, 0) if multiplies else 0), (leaf, e, tree)
    assert _evaluate(PowerNode(scalar(I), 10**8), {}, ZERO) == {(0, 0): ONE}


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
