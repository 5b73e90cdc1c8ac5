import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit.exactnum import ExactScalar, I, MINUS_I, ONE
from weylkit.opalg import (
    OrderedPolynomial,
    Ordering,
    P,
    Q,
    commutator,
    poly_equal,
    rewrite_to_pq,
    rewrite_to_qp,
    to_expression,
)
from weylkit import exprio, opalg, ordering as conv, verify

TWO = ExactScalar.from_int(2)
I_HALF = I * ExactScalar.rational(1, 2)


def terms(poly):
    return {tuple(k): v for k, v in poly.terms.items()}


def test_hermite_two_var_examples():
    assert conv.hermite_two_var(2, 1).ordering is Ordering.WEYL
    assert terms_c(conv.hermite_two_var(0, 0)) == {(0, 0): ONE}
    assert terms_c(conv.hermite_two_var(1, 1)) == {
        (1, 1): ONE,
        (0, 0): ExactScalar.from_int(-1),
    }
    assert terms_c(conv.hermite_two_var(2, 1)) == {
        (2, 1): ONE,
        (1, 0): ExactScalar.from_int(-2),
    }


def terms_c(poly):
    return dict(poly.terms)


def test_weyl_to_pq_examples():
    assert terms(conv.weyl_to_pq(0, 0)) == {(0, 0): ONE}
    assert terms(conv.weyl_to_pq(1, 1)) == {(1, 1): ONE, (0, 0): I_HALF}
    assert terms(conv.weyl_to_pq(2, 0)) == {(2, 0): ONE}
    assert terms(conv.weyl_to_pq(2, 1)) == {(2, 1): ONE, (1, 0): I}


def test_weyl_to_qp_examples():
    assert terms(conv.weyl_to_qp(1, 1)) == {(1, 1): ONE, (0, 0): -I_HALF}
    assert terms(conv.weyl_to_qp(2, 1)) == {(2, 1): ONE, (1, 0): MINUS_I}
    for m in range(5):
        assert terms(conv.weyl_to_qp(m, 0)) == {(m, 0): ONE}


def test_qp_to_weyl_examples():
    assert terms(conv.qp_to_weyl(1, 1)) == {(1, 1): ONE, (0, 0): I_HALF}
    assert terms(conv.qp_to_weyl(1, 0)) == {(1, 0): ONE}
    assert terms(conv.qp_to_weyl(2, 2)) == {
        (2, 2): ONE,
        (1, 1): TWO * I,
        (0, 0): ExactScalar.rational(-1, 2),
    }


def test_pq_to_weyl_examples():
    assert terms(conv.pq_to_weyl(1, 1)) == {(1, 1): ONE, (0, 0): -I_HALF}
    for r in range(5):
        assert terms(conv.pq_to_weyl(0, r)) == {(0, r): ONE}
    assert terms(conv.pq_to_weyl(2, 1)) == {(2, 1): ONE, (1, 0): MINUS_I}


def test_qp_to_pq_examples():
    assert terms(conv.qp_to_pq(1, 1)) == {(1, 1): ONE, (0, 0): I}
    assert terms(conv.qp_to_pq(2, 2)) == {
        (2, 2): ONE,
        (1, 1): ExactScalar.from_int(4) * I,
        (0, 0): ExactScalar.from_int(-2),
    }
    assert terms(conv.qp_to_pq(3, 1)) == {
        (3, 1): ONE,
        (2, 0): ExactScalar.from_int(3) * I,
    }


def test_pq_to_qp_examples():
    assert terms(conv.pq_to_qp(1, 1)) == {(1, 1): ONE, (0, 0): MINUS_I}
    assert terms(conv.pq_to_qp(2, 2)) == {
        (2, 2): ONE,
        (1, 1): ExactScalar.from_int(-4) * I,
        (0, 0): ExactScalar.from_int(-2),
    }
    for m in range(5):
        assert terms(conv.pq_to_qp(m, 0)) == {(m, 0): ONE}


def test_commutator_closed_form_examples():
    assert terms(conv.commutator_closed_form(1, 1, Ordering.PQ)) == {(0, 0): I}
    assert terms(conv.commutator_closed_form(2, 2, Ordering.PQ)) == {
        (1, 1): ExactScalar.from_int(4) * I,
        (0, 0): ExactScalar.from_int(-2),
    }
    assert terms(conv.commutator_closed_form(2, 2, Ordering.QP)) == {
        (1, 1): ExactScalar.from_int(4) * I,
        (0, 0): TWO,
    }
    with pytest.raises(ValueError):
        conv.commutator_closed_form(1, 1, Ordering.WEYL)


def test_p_plus_q_power_examples():
    for target in (Ordering.PQ, Ordering.QP, Ordering.WEYL):
        assert terms(conv.p_plus_q_power(1, target)) == {
            (1, 0): ONE,
            (0, 1): ONE,
        }
    assert terms(conv.p_plus_q_power(2, Ordering.PQ)) == {
        (0, 2): ONE,
        (1, 1): TWO,
        (2, 0): ONE,
        (0, 0): I,
    }
    assert terms(conv.p_plus_q_power(2, Ordering.QP)) == {
        (0, 2): ONE,
        (1, 1): TWO,
        (2, 0): ONE,
        (0, 0): MINUS_I,
    }
    with pytest.raises(ValueError):
        conv.p_plus_q_power(-1, Ordering.PQ)


def test_convert_examples():
    start = OrderedPolynomial.from_terms(Ordering.PQ, [((1, 1), ONE), ((0, 0), I)])
    got = conv.convert(start, Ordering.QP)
    assert terms(got) == {(1, 1): ONE}
    assert conv.convert(start, Ordering.PQ) is start
    weyl22 = OrderedPolynomial.monomial(Ordering.WEYL, 2, 2)
    assert terms(conv.convert(weyl22, Ordering.PQ)) == {
        (2, 2): ONE,
        (1, 1): TWO * I,
        (0, 0): ExactScalar.rational(-1, 2),
    }


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("r", range(5))
def test_oracle_equivalence(m, r):
    qp_word = Q**m * P**r
    pq_word = P**r * Q**m
    assert conv.qp_to_pq(m, r).terms == rewrite_to_pq(qp_word).terms
    assert conv.pq_to_qp(m, r).terms == rewrite_to_qp(pq_word).terms


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("r", range(5))
def test_weyl_symmetrization_ground_truth(m, r):
    sym = conv.weyl_symmetrization(m, r)
    assert conv.weyl_to_pq(m, r).terms == rewrite_to_pq(sym).terms
    assert conv.weyl_to_qp(m, r).terms == rewrite_to_qp(sym).terms


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("r", range(5))
def test_hermite_reduction_consistency(m, r):
    reduced = {(k.m, k.r): v for k, v in conv.qp_to_weyl(m, r).terms.items()}
    assert conv._weyl_image_via_hermite(m, r, False).terms == reduced
    reduced = {(k.m, k.r): v for k, v in conv.pq_to_weyl(m, r).terms.items()}
    assert conv._weyl_image_via_hermite(m, r, True).terms == reduced


def test_hermite_suite_sees_a_wrong_weyl_to_pq_factor(monkeypatch):
    monkeypatch.setitem(conv._FACTORS, (Ordering.WEYL, Ordering.PQ), I)
    failed = [c for c in verify.suite_hermite() if not c.passed]
    assert [c.name for c in failed] == [
        "derivative representation equals Weyl to P-Q coefficients, m,r <= 8"
    ]
    # The derivative route carries its own P-Q tag.
    (check,) = failed
    assert check.detail == "first failure at (1, 1)"
    assert check.computed == exprio.render(conv.derivative_representation(1, 1))
    assert check.oracle == exprio.render(conv.weyl_to_pq(1, 1))
    assert check.computed != check.oracle


def test_sweep_compares_tags_as_well_as_terms():
    check = verify._sweep(
        "same terms, different tags",
        [(1, 1)],
        lambda m, r: [
            (
                OrderedPolynomial.monomial(Ordering.PQ, m, r),
                OrderedPolynomial.monomial(Ordering.QP, m, r),
            )
        ],
    )
    assert not check.passed
    assert check.detail == "first failure at (1, 1)"
    assert check.computed == exprio.render(OrderedPolynomial.monomial(Ordering.PQ, 1, 1))
    assert check.oracle == exprio.render(OrderedPolynomial.monomial(Ordering.QP, 1, 1))


def test_second_routes_run_neither_the_generator_nor_the_product(monkeypatch):
    # The routes check _conversion_terms and _product, so they must not
    # run them: every binding of both names raises while they run.
    closed = {
        (m, r): (conv.qp_to_weyl(m, r), conv.pq_to_weyl(m, r), conv.weyl_to_pq(m, r))
        for m in range(5)
        for r in range(5)
    }

    def refuse(*args):
        raise AssertionError("a second route ran the code it checks")

    for module in (opalg, conv):
        for name in ("_product", "_conversion_terms"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    routes = {
        (m, r): (
            conv._weyl_image_via_hermite(m, r, False),
            conv._weyl_image_via_hermite(m, r, True),
            conv.derivative_representation(m, r),
        )
        for m, r in closed
    }
    assert routes == closed


def test_round_trip_all_tag_pairs():
    tags = (Ordering.PQ, Ordering.QP, Ordering.WEYL)
    for m in range(9):
        for r in range(9):
            for t1 in tags:
                start = OrderedPolynomial.monomial(t1, m, r)
                for t2 in tags:
                    back = conv.convert(conv.convert(start, t2), t1)
                    assert back.terms == start.terms, (m, r, t1, t2)


def test_commutator_cross_check():
    for m in range(4):
        for r in range(4):
            brute = commutator(Q**m, P**r)
            assert conv.commutator_closed_form(m, r, Ordering.PQ).terms == brute.terms
            assert poly_equal(
                conv.commutator_closed_form(m, r, Ordering.QP), brute
            )


def test_adjoint_hermiticity_property():
    for m in range(6):
        for r in range(6):
            adj = conv.qp_to_pq(m, r).adjoint()
            assert adj.terms == conv.pq_to_qp(m, r).terms


_COEFFS = (ONE, -ONE, TWO, I, MINUS_I, I_HALF, ExactScalar.rational(-3, 4))


@st.composite
def word_polynomials(draw):
    """PQ- or QP-tagged sums of up to 12 terms, m, r <= 5.

    Some terms are followed by their negation, so coefficients cancel
    while the polynomial is built.
    """
    tag = draw(st.sampled_from((Ordering.PQ, Ordering.QP)))
    drawn = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.sampled_from(_COEFFS),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    terms = []
    for m, r, coeff, cancel in drawn:
        terms.append(((m, r), coeff))
        if cancel:
            terms.append(((m, r), -coeff))
    return OrderedPolynomial.from_terms(tag, terms)


@settings(max_examples=60, deadline=None)
@given(word_polynomials())
def test_convert_word_polynomials_matches_rewriting(p):
    if p.ordering is Ordering.PQ:
        target, rewrite = Ordering.QP, rewrite_to_qp
    else:
        target, rewrite = Ordering.PQ, rewrite_to_pq
    assert conv.convert(p, target).terms == rewrite(to_expression(p)).terms


FACTORS = (I, MINUS_I, I_HALF, -I_HALF)


def _factorial_conversion_terms(m, r, factor):
    """The conversion family term by term from l! C(m,l) C(r,l), as the
    generator computed it before its ratio recurrence."""
    out, power = [((m, r), ONE)], ONE
    for l in range(1, min(m, r) + 1):
        power = power * factor
        count = math.factorial(l) * math.comb(m, l) * math.comb(r, l)
        out.append(((m - l, r - l), count * power))
    return out


def test_conversion_recurrence_matches_the_factorial_formula(monkeypatch):
    cases = list(itertools.product(range(41), range(41), FACTORS))
    expected = [_factorial_conversion_terms(*case) for case in cases]
    # The generator builds each coefficient from the one before it.
    for name in ("factorial", "comb"):
        monkeypatch.setattr(math, name, None)
    for case, want in zip(cases, expected):
        assert list(opalg._conversion_terms(*case)) == want, case


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from(FACTORS))
def test_conversion_recurrence_matches_the_factorial_formula_far_out(m, r, factor):
    assert list(opalg._conversion_terms(m, r, factor)) == _factorial_conversion_terms(
        m, r, factor
    )


def _bits(c) -> int:
    """Bits of the largest numerator component of ``c`` plus bits of its
    denominator, each as the floor of its log2."""
    *components, den = c.canonical
    return max(abs(n) for n in components).bit_length() - 1 + den.bit_length() - 1


conversion_inputs = st.dictionaries(
    st.tuples(st.integers(0, 60), st.integers(0, 60))
    | st.tuples(st.integers(0, 3000), st.integers(0, 4)),
    st.builds(
        lambda parts, d: ExactScalar(*(Fraction(n, d) for n in parts)),
        st.tuples(*[st.integers(-99, 99)] * 4),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=4,
)


def _conversion_work(poly: OrderedPolynomial, target: Ordering) -> int:
    """Reference for the work a budget charges ``convert``, in one pass
    over the terms: per term Q^m P^r, k + 1 products of a ``bits``-bit
    coefficient by a ``count``-bit l! C(m,l) C(r,l), over 2^l if f =
    +-i/2, each charged bits + count (at least 1), times min(bits, count)
    / 2**16 past 2**16."""
    if poly.ordering is target:
        return 0
    half = Ordering.WEYL in (poly.ordering, target)
    bits, work = opalg._coefficient_bits(poly.terms), 0
    for m, r in poly.terms:
        k = min(m, r)
        count = min(m + r + math.ceil(math.lgamma(k + 1) / math.log(2)),
                    k * (m * r).bit_length()) + (k if half else 0)
        work += (k + 1) * max(1, bits + count) * max(1, min(bits, count) >> 16)
    return work


def _charged(poly: OrderedPolynomial, target: Ordering) -> int:
    """The work a budget is charged for converting ``poly`` to ``target``."""
    with opalg.work_budget() as budget:
        conv.convert(poly, target)
    return budget.work


@given(conversion_inputs, st.sampled_from(list(Ordering)), st.sampled_from(list(Ordering)))
@settings(max_examples=200, deadline=None)
@example({(400, 400): ONE}, Ordering.WEYL, Ordering.PQ)
@example({(1, 1): ExactScalar(Fraction(-3, 7))}, Ordering.QP, Ordering.PQ)
@example({(2000000, 1): ONE, (3, 2000): ONE}, Ordering.PQ, Ordering.QP)
@example({(0, 0): I}, Ordering.PQ, Ordering.QP)  # a unit: 0 bits, 0 count
def test_conversion_work_bounds_the_coefficient_products(terms, source, target):
    # A budget charges a conversion the reference work, term by term.  Per
    # input term, each of its k + 1 coefficient products is charged at
    # least its bits, times the shorter operand's bits / 2**16 past 2**16,
    # and the work of a sum is at least the sum of its terms' work.  A
    # conversion to its own tag does nothing.
    poly = OrderedPolynomial.from_terms(source, terms.items())
    charged = _charged(poly, target)
    assert charged == _conversion_work(poly, target)
    if source is target:
        assert charged == 0
        return
    factor, total = conv._FACTORS[source, target], 0
    for (m, r), c in poly.terms.items():
        work = _charged(OrderedPolynomial(source, {(m, r): c}), target)
        factors = [n for _, n in opalg._conversion_terms(m, r, factor)]
        bits = max(1, *(_bits(n * c) for n in factors))
        shorter = min(_bits(c), max(map(_bits, factors)))
        assert len(factors) * bits * max(1, shorter >> 16) <= work
        total += work
    assert charged >= total
