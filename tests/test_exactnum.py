import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.exactnum import (
    ExactArithmeticError,
    ExactScalar,
    I,
    I_HALF,
    MINUS_I,
    ONE,
    SQRT2,
    ZERO,
)
from weylkit.exprio import parse
from weylkit.opalg import rewrite_to_pq

fractions = st.builds(
    Fraction, st.integers(-60, 60), st.integers(1, 24)
)
scalars = st.builds(ExactScalar, fractions, fractions, fractions, fractions)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def test_basic_examples():
    assert ONE + I == ExactScalar(Fraction(1), Fraction(1))
    assert SQRT2 * SQRT2 == ExactScalar.from_int(2)
    inv = (ONE + I).invert()
    assert inv == ExactScalar(Fraction(1, 2), Fraction(-1, 2))
    assert (ONE + I) * inv == ONE


def test_invert_zero_raises():
    with pytest.raises(ExactArithmeticError):
        ZERO.invert()


def test_to_complex_examples():
    half_i = ExactScalar(Fraction(0), Fraction(1, 2))
    assert half_i.to_complex() == 0.5j
    assert abs(SQRT2.to_complex() - math.sqrt(2.0)) <= 4 * 2e-16 * math.sqrt(2)
    x = (ONE + I) * SQRT2 * ExactScalar.rational(1, 2)
    want = complex(math.sqrt(2) / 2, math.sqrt(2) / 2)
    assert abs(x.to_complex() - want) <= 4 * 2e-16


def test_powers_and_division():
    assert SQRT2**2 == ExactScalar.from_int(2)
    assert SQRT2**-2 == ExactScalar.rational(1, 2)
    assert (ONE + I) / (ONE + I) == ONE


def test_conjugate_fixes_sqrt2():
    x = ExactScalar(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    c = x.conjugate()
    assert c == ExactScalar(Fraction(1), Fraction(-2), Fraction(3), Fraction(-4))
    assert SQRT2.conjugate() == SQRT2


@given(scalars, scalars, scalars)
@settings(max_examples=150)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@given(nonzero_scalars)
@settings(max_examples=150)
def test_multiplicative_inverse(x):
    assert x * x.invert() == ONE


@given(scalars)
@settings(max_examples=200)
def test_render_parse_round_trip(x):
    # The CLI prints coefficients this way and reads its output back in.
    want = {} if x.is_zero() else {(0, 0): x}
    assert rewrite_to_pq(parse(x.render())).terms == want


def test_render_canonical_forms():
    assert ZERO.render() == "0"
    assert I.render() == "i"
    assert (-I).render() == "-i"
    assert (ExactScalar.from_int(2) * I).render() == "2*i"
    assert ExactScalar.rational(-1, 2).render() == "-1/2"
    assert (ExactScalar.rational(1, 2) * SQRT2).render() == "1/2*r2"
    assert (I * SQRT2).render() == "i*r2"
    assert (ONE + I).invert().render() == "1/2 + -1/2*i"


# -- reference arithmetic ---------------------------------------------
#
# The componentwise Fraction arithmetic that ExactScalar's integer
# numerators replace, kept as the reference the ring operations must
# reproduce exactly.


def _reference_add(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    return ExactScalar(x.ra + y.ra, x.ia + y.ia, x.rb + y.rb, x.ib + y.ib)


def _reference_mul(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    # (A + B*sqrt2)(C + D*sqrt2) = (AC + 2BD) + (AD + BC)*sqrt2
    # with A, B, C, D Gaussian rationals.
    a_re, a_im, b_re, b_im = x.ra, x.ia, x.rb, x.ib
    c_re, c_im, d_re, d_im = y.ra, y.ia, y.rb, y.ib
    ac_re = a_re * c_re - a_im * c_im
    ac_im = a_re * c_im + a_im * c_re
    bd_re = b_re * d_re - b_im * d_im
    bd_im = b_re * d_im + b_im * d_re
    ad_re = a_re * d_re - a_im * d_im
    ad_im = a_re * d_im + a_im * d_re
    bc_re = b_re * c_re - b_im * c_im
    bc_im = b_re * c_im + b_im * c_re
    return ExactScalar(
        ac_re + 2 * bd_re,
        ac_im + 2 * bd_im,
        ad_re + bc_re,
        ad_im + bc_im,
    )


def _reference_neg(x: ExactScalar) -> ExactScalar:
    return ExactScalar(-x.ra, -x.ia, -x.rb, -x.ib)


def _reference_pow(x: ExactScalar, k: int) -> ExactScalar:
    out = ONE
    for _ in range(k):
        out = _reference_mul(out, x)
    return out


def _reference_invert(x: ExactScalar) -> ExactScalar:
    conj = ExactScalar(x.ra, x.ia, -x.rb, -x.ib)
    norm = _reference_mul(x, conj)
    den = norm.ra * norm.ra + norm.ia * norm.ia
    return _reference_mul(conj, ExactScalar(norm.ra / den, -norm.ia / den))


def _assert_reduced(x: ExactScalar) -> None:
    for comp in (x.ra, x.ia, x.rb, x.ib):
        assert type(comp) is Fraction
        assert comp.denominator > 0
        assert math.gcd(comp.numerator, comp.denominator) == 1


# Zero-heavy components, numerators up to 10**30, denominators up to
# 10**12, and a strategy whose sqrt2 parts are never both zero.
wide_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 4, 3])),
    st.builds(
        Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)
    ),
)
wide_scalars = st.builds(
    ExactScalar, wide_fractions, wide_fractions, wide_fractions, wide_fractions
)
surd_scalars = wide_scalars.filter(lambda s: s.rb or s.ib)
any_scalars = st.one_of(wide_scalars, surd_scalars)


@given(any_scalars, any_scalars)
@settings(max_examples=400)
def test_ring_operations_match_reference(x, y):
    cases = [
        (x * y, _reference_mul(x, y)),
        (x + y, _reference_add(x, y)),
        (x - y, _reference_add(x, _reference_neg(y))),
        (3 - x, _reference_add(ExactScalar.from_int(3), _reference_neg(x))),
        (x * 5, _reference_mul(x, ExactScalar.from_int(5))),
    ]
    for got, want in cases:
        assert got == want
        _assert_reduced(got)


@given(any_scalars, st.integers(0, 5))
@settings(max_examples=150)
def test_powers_and_inverse_match_reference(x, k):
    got = x**k
    assert got == _reference_pow(x, k)
    _assert_reduced(got)
    if not x.is_zero():
        inv = x.invert()
        assert inv == _reference_invert(x)
        _assert_reduced(inv)
        assert _reference_mul(x, inv) == ONE


@given(any_scalars, any_scalars)
@settings(max_examples=150)
def test_equal_values_hash_equal(x, y):
    routes = [(x + y) - y, x * ONE, (x * y) * ONE - x * y + x, x + ZERO]
    for value in routes:
        assert value == x
        assert hash(value) == hash(x)
    assert hash(x * y) == hash(y * x) == hash(_reference_mul(x, y))


# Units built four ways: the constant, both constructors and arithmetic.
UNITS = (
    ONE,
    ExactScalar.from_int(1),
    ExactScalar(1),
    ExactScalar.rational(1, 2) + ExactScalar.rational(1, 2),
)


@pytest.mark.parametrize("unit", UNITS, ids=("ONE", "from_int", "init", "sum"))
@given(any_scalars)
@settings(max_examples=60)
def test_a_unit_operand_returns_the_other_as_is(unit, x):
    before = x.canonical
    assert (x * unit).canonical == (unit * x).canonical == before
    assert x.canonical == before
    if before != ONE.canonical:  # of two units, the other one comes back
        assert x * unit is x and unit * x is x
    assert unit * ONE is ONE and ONE * unit is unit


@given(any_scalars, any_scalars)
@settings(max_examples=150)
def test_non_unit_products_match_the_componentwise_formula(x, y):
    if x.canonical == ONE.canonical or y.canonical == ONE.canonical:
        return
    got = x * y
    assert got == _reference_mul(x, y)
    _assert_canonical(got)


def test_int_operands_take_the_int_path(monkeypatch):
    from weylkit import exactnum

    reduced = []
    real = exactnum._reduced
    monkeypatch.setattr(exactnum, "_reduced", lambda *t: reduced.append(t) or real(*t))
    x = ExactScalar(Fraction(1, 6), Fraction(2), Fraction(-1, 3))
    # The int path scales four numerators and reduces by one gcd only.
    for n in (1, 3, -2, 0):
        assert x * n == n * x == _reference_mul(x, ExactScalar.from_int(n))
    assert reduced == []
    x * ExactScalar.from_int(3)
    assert len(reduced) == 1


def test_dataclass_replace_keeps_working():
    x = ExactScalar(Fraction(1, 3), Fraction(2), Fraction(-1, 6), Fraction(0))
    y = dataclasses.replace(x, ra=Fraction(1, 2))
    assert y == ExactScalar(Fraction(1, 2), Fraction(2), Fraction(-1, 6))
    assert y * SQRT2 == _reference_mul(y, SQRT2)
    assert y + x == _reference_add(y, x)


@pytest.mark.parametrize("use", [
    "ExactScalar(1, 2) == ExactScalar.rational(1) + 2 * I",
    "I_HALF.ra == 0 and I_HALF.ia == 0.5",
    "repr(I_HALF) == 'ExactScalar(ra=Fraction(0, 1), ia=Fraction(1, 2), "
    "rb=Fraction(0, 1), ib=Fraction(0, 1))'",
    "pickle.loads(pickle.dumps(I_HALF)) == I_HALF",
    "dataclasses.replace(I_HALF, rb=1) == I_HALF + SQRT2",
])
def test_fraction_uses_load_fractions_themselves(use):
    # The exact layers run without fractions; each use that builds a
    # Fraction loads it, in an interpreter that has not.
    import weylkit

    probe = "\n".join([
        "import dataclasses, pickle, sys",
        "from weylkit.exactnum import ExactScalar, I, I_HALF, SQRT2",
        "import weylkit.cli",
        "assert 'fractions' not in sys.modules",
        f"assert {use}",
        "assert 'fractions' in sys.modules",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(weylkit.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


# -- canonical form -----------------------------------------------------


def _assert_canonical(x: ExactScalar) -> None:
    *nums, den = x.canonical
    assert all(type(n) is int for n in x.canonical)
    assert den > 0
    assert math.gcd(*nums, den) == 1
    if x.is_zero():
        assert x.canonical == (0, 0, 0, 0, 1)


@given(any_scalars, any_scalars, st.integers(-4, 4), st.integers(-30, 30))
@settings(max_examples=300)
def test_every_operation_returns_canonical_form(x, y, k, n):
    results = [x, x + y, x - y, x * y, -x, x.conjugate(), n * x, x * n, n - x, x + n]
    if not x.is_zero():
        results += [x.invert(), x**k, y / x]
    elif k >= 0:
        results.append(x**k)
    if n:
        results.append(x / n)
    for value in results:
        _assert_canonical(value)
    _assert_canonical(x - x)
    assert (x - x).canonical == (0, 0, 0, 0, 1)
    assert (x * 0).canonical == (0, 0, 0, 0, 1)


def test_canonical_form_examples():
    assert ZERO.canonical == (0, 0, 0, 0, 1)
    assert ExactScalar(Fraction(1, 2), Fraction(-1, 3)).canonical == (3, -2, 0, 0, 6)
    assert ExactScalar.rational(2, -4).canonical == (-1, 0, 0, 0, 2)
    assert (ExactScalar.rational(1, 2) + ExactScalar.rational(1, 2)).canonical == (
        1, 0, 0, 0, 1
    )
    with pytest.raises(ZeroDivisionError):
        ExactScalar.rational(1, 0)
    # The unit constants are built from their tuples.
    assert I == ExactScalar(0, 1)
    assert MINUS_I == ExactScalar(0, -1)
    assert SQRT2 == ExactScalar(0, 0, 1)
    assert I_HALF == ExactScalar(0, Fraction(1, 2))
    assert I_HALF.canonical == (0, 1, 0, 0, 2)


def test_equal_rationals_built_three_ways():
    routes = [
        ExactScalar(Fraction(2, 6)),
        ExactScalar.rational(1, 3),
        ExactScalar.from_int(1) / 3,
        ExactScalar.rational(-2, -6),
    ]
    for value in routes:
        assert value == routes[0]
        assert hash(value) == hash(routes[0])
        assert value.canonical == (1, 0, 0, 0, 3)


def test_int_arguments_equal_fraction_arguments():
    assert ExactScalar(1, 2) == ExactScalar(Fraction(1), Fraction(2))
    assert ExactScalar(0, 0, 3, -4) == ExactScalar(
        Fraction(0), Fraction(0), Fraction(3), Fraction(-4)
    )
    assert ExactScalar(1, Fraction(1, 2)).canonical == (2, 1, 0, 0, 2)
    assert type(ExactScalar(1, 2).ra) is Fraction


def test_integer_constructors_accept_fractions():
    half = ExactScalar(Fraction(1, 2))
    assert ExactScalar.from_int(Fraction(1, 2)) == half
    assert hash(ExactScalar.from_int(Fraction(1, 2))) == hash(half)
    assert ExactScalar.rational(Fraction(1, 2), 3) == ExactScalar(Fraction(1, 6))
    assert ExactScalar.rational(3, Fraction(-1, 2)).canonical == (-6, 0, 0, 0, 1)
    for value in (
        ExactScalar.from_int(Fraction(4, 2)),
        ExactScalar.rational(Fraction(1, 2), 3),
    ):
        _assert_canonical(value)
    with pytest.raises(ZeroDivisionError):
        ExactScalar.rational(Fraction(1, 2), 0)


@given(any_scalars)
@settings(max_examples=100)
def test_copy_and_pickle_round_trip(x):
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x
        assert hash(clone) == hash(x)
        assert repr(clone) == repr(x)
        _assert_canonical(clone)


def test_scalars_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ONE.ra = Fraction(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ONE._t = (2, 0, 0, 0, 1)
    assert ONE == ExactScalar.from_int(1)


def test_repr_shows_the_four_fractions():
    x = ExactScalar(Fraction(1, 2), 0, Fraction(-3, 4))
    assert repr(x) == (
        "ExactScalar(ra=Fraction(1, 2), ia=Fraction(0, 1), "
        "rb=Fraction(-3, 4), ib=Fraction(0, 1))"
    )


@given(any_scalars)
@settings(max_examples=150)
def test_component_texts_and_complex_match_fractions(x):
    parts = (x.ra, x.ia, x.rb, x.ib)
    assert x.component_texts() == tuple(str(f) for f in parts)
    want = complex(
        float(x.ra) + float(x.rb) * math.sqrt(2.0),
        float(x.ia) + float(x.ib) * math.sqrt(2.0),
    )
    assert x.to_complex() == want


def test_powers_square_no_further_than_the_top_bit(monkeypatch):
    # Square-and-multiply makes one square per bit below the top one and
    # one product per set bit; a square past the top bit is never used.
    x = ExactScalar(Fraction(3, 2), Fraction(1))
    cases = [(x, k) for k in (0, 1, 2, 3, 5, 8, 13, 64, 100)] + [(I, 2**20), (I, 2**20 + 1)]
    expected = [math.prod([base] * k, start=ONE) for base, k in cases[:-2]] + [ONE, I]
    calls = []
    mul = ExactScalar.__mul__
    monkeypatch.setattr(ExactScalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for (base, k), want in zip(cases, expected):
        calls.clear()
        assert base**k == want
        assert len(calls) == max(0, k.bit_length() - 1) + bin(k).count("1"), k
