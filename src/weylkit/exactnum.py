"""Exact scalar arithmetic over the field Q(i, sqrt2).

Every coefficient produced by the ordering conversions lives in the
Gaussian rationals, optionally times sqrt(2) (the ladder-operator
substitution is the only source of sqrt(2) factors).  A scalar is stored
as one tuple of integers (a, b, c, d, den) meaning

    (a + b*i + (c + d*i) * sqrt(2)) / den

in canonical form: den > 0 and gcd(a, b, c, d, den) = 1, so zero is
(0, 0, 0, 0, 1).  The form is unique because {1, i, sqrt2, i*sqrt2} are
linearly independent over Q, so equality and hashing compare tuples.
All operations are pure and values are immutable, so they are safe to
share between threads.

The ring operations run on Python integers only: a product is 16 integer
products over den1*den2 (a unit operand returns the other one as is), a
sum brings both numerator sets to one common denominator, and each result
is reduced by a single five-way gcd.  The rational components ra, ia, rb
and ib (the dataclass fields, in the repr) are read-only ``Fraction``
views of the tuple, built on demand.  ``fractions`` loads only when a
``Fraction`` is built: by a view, by the general constructor, or by
``rational`` given a non-int, so the int-only arithmetic of the
conversions never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

_ZERO_TUPLE = (0, 0, 0, 0, 1)
_ONE_TUPLE = (1, 0, 0, 0, 1)


class ExactArithmeticError(ArithmeticError):
    """Raised on domain errors such as inverting zero."""


def _fraction(*args):
    """``Fraction(*args)``, importing ``fractions`` on first use."""
    from fractions import Fraction

    return Fraction(*args)


@dataclass(frozen=True, init=False, eq=False)
class ExactScalar:
    """Element of Q(i, sqrt2): (a + b*i + (c + d*i)*sqrt2) / den, canonical.

    ``ExactScalar(ra, ia, rb, ib)`` takes the four rational components,
    as ``int`` or ``Fraction``.
    """

    __slots__ = ("_t",)

    # The fields are views of ``_t``; dataclasses takes each property for
    # the field's default, which the hand-written __init__ never uses.
    ra: Fraction = property(lambda self: _fraction(self._t[0], self._t[4]))
    ia: Fraction = property(lambda self: _fraction(self._t[1], self._t[4]))
    rb: Fraction = property(lambda self: _fraction(self._t[2], self._t[4]))
    ib: Fraction = property(lambda self: _fraction(self._t[3], self._t[4]))

    def __init__(self, ra=0, ia=0, rb=0, ib=0) -> None:
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so the tuple is canonical without a gcd.
        parts = [_fraction(x) for x in (ra, ia, rb, ib)]
        den = math.lcm(*(x.denominator for x in parts))
        _store(
            self,
            tuple(x.numerator * (den // x.denominator) for x in parts) + (den,),
        )

    # -- constructors ------------------------------------------------

    # Both build the tuple directly from ints; any other rational
    # argument (such as a Fraction) takes the general constructor.

    @classmethod
    def from_int(cls, n: int) -> ExactScalar:
        if type(n) is int:
            return _make((n, 0, 0, 0, 1))
        return cls(n)

    @classmethod
    def rational(cls, num: int, den: int = 1) -> ExactScalar:
        if type(num) is not int or type(den) is not int:
            return cls(_fraction(num, den))
        if not den:
            raise ZeroDivisionError(f"rational {num}/0")
        if den < 0:
            num, den = -num, -den
        return _reduced(num, 0, 0, 0, den)

    @property
    def canonical(self) -> tuple[int, int, int, int, int]:
        """The stored integers (a, b, c, d, den)."""
        return self._t

    # -- equality ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ExactScalar:
            return self._t == other._t
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._t)

    def __reduce__(self):
        return ExactScalar, (self.ra, self.ia, self.rb, self.ib)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return self._t == _ZERO_TUPLE

    # -- ring operations ---------------------------------------------

    def __add__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self._t, other._t, 1)

    __radd__ = __add__

    def __neg__(self) -> ExactScalar:
        a, b, c, d, den = self._t
        return _make((-a, -b, -c, -d, den))

    def __sub__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self._t, other._t, -1)

    def __rsub__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(other._t, self._t, -1)

    def __mul__(self, other: ExactScalar | int) -> ExactScalar:
        if other.__class__ is ExactScalar:
            # A unit operand returns the other one: values are immutable.
            x, y = self._t, other._t
            if x == _ONE_TUPLE:
                return other
            if y == _ONE_TUPLE:
                return self
            # ((a + b*i) + (c + d*i)*sqrt2) * ((e + f*i) + (g + h*i)*sqrt2)
            # over den1 * den2.
            a, b, c, d, den1 = x
            e, f, g, h, den2 = y
            return _reduced(
                a * e - b * f + 2 * (c * g - d * h),
                a * f + b * e + 2 * (c * h + d * g),
                a * g - b * h + c * e - d * f,
                a * h + b * g + c * f + d * e,
                den1 * den2,
            )
        if isinstance(other, int):
            # 4 products; gcd(n, den) is the only common factor left.
            a, b, c, d, den = self._t
            g = gcd(other, den)
            n = other // g
            return _make((n * a, n * b, n * c, n * d, den // g))
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> ExactScalar:
        """Multiplicative inverse; raises on zero."""
        if self.is_zero():
            raise ExactArithmeticError("cannot invert zero")
        a, b, c, d, den = self._t
        # x = (A + B*sqrt2)/den with Gaussian integers A, B; then
        # 1/x = den*(A - B*sqrt2)*conj(N)/|N|^2 with N = A^2 - 2*B^2,
        # which is nonzero because the representation is unique.
        nr = a * a - b * b - 2 * (c * c - d * d)
        ni = 2 * (a * b - 2 * c * d)
        return _reduced(
            den * (a * nr + b * ni),
            den * (b * nr - a * ni),
            -den * (c * nr + d * ni),
            -den * (d * nr - c * ni),
            nr * nr + ni * ni,
        )

    def __truediv__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __pow__(self, exponent: int) -> ExactScalar:
        if exponent < 0:
            return self.invert() ** (-exponent)
        out, base, k = ONE, self, exponent
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # no square past the top bit
                base = base * base
        return out

    def conjugate(self) -> ExactScalar:
        """Complex conjugation: fixes sqrt2, maps i to -i."""
        a, b, c, d, den = self._t
        return _make((a, -b, c, -d, den))

    # -- numeric bridge ----------------------------------------------

    def to_complex(self) -> complex:
        """Double-precision value, accurate to a few ulp."""
        # int / int rounds correctly, so a / den is float(Fraction(a, den)).
        a, b, c, d, den = self._t
        re = a / den + c / den * math.sqrt(2.0)
        im = b / den + d / den * math.sqrt(2.0)
        return complex(re, im)

    # -- canonical text ----------------------------------------------

    def component_texts(self) -> tuple[str, str, str, str]:
        """``str`` of ra, ia, rb and ib, without building the Fractions."""
        den = self._t[4]
        out = []
        for n in self._t[:4]:
            g = gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return tuple(out)

    def render(self) -> str:
        """Canonical rendering, e.g. ``1/2 + -1/2*i`` or ``r2``."""
        parts = []
        for text, tag in zip(self.component_texts(), ("", "i", "r2", "i*r2")):
            if text == "0":
                continue
            if not tag:
                parts.append(text)
            elif text == "1":
                parts.append(tag)
            elif text == "-1":
                parts.append("-" + tag)
            else:
                parts.append(f"{text}*{tag}")
        if not parts:
            return "0"
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


_new = object.__new__
_store = ExactScalar._t.__set__


def _make(t: tuple[int, int, int, int, int]) -> ExactScalar:
    """Wrap an already canonical tuple."""
    x = _new(ExactScalar)
    _store(x, t)
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, den: int) -> ExactScalar:
    """The scalar (n0 + n1*i + (n2 + n3*i)*sqrt2) / den for den > 0."""
    g = gcd(n0, n1, n2, n3, den)
    if g != 1:
        n0, n1, n2, n3, den = n0 // g, n1 // g, n2 // g, n3 // g, den // g
    return _make((n0, n1, n2, n3, den))


def _combine(x: tuple, y: tuple, sign: int) -> ExactScalar:
    """x + sign*y for canonical tuples x, y and sign in {1, -1}."""
    a, b, c, d, den1 = x
    e, f, g, h, den2 = y
    if den1 != den2:
        common = gcd(den1, den2)
        s1, s2 = den2 // common, den1 // common
        a, b, c, d = a * s1, b * s1, c * s1, d * s1
        e, f, g, h = e * s2, f * s2, g * s2, h * s2
        den1 *= s1
    if sign < 0:
        return _reduced(a - e, b - f, c - g, d - h, den1)
    return _reduced(a + e, b + f, c + g, d + h, den1)


def _coerce(value: ExactScalar | int) -> ExactScalar | None:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, int):
        return _make((value, 0, 0, 0, 1))
    return None


ZERO = _make(_ZERO_TUPLE)
ONE = ExactScalar.from_int(1)
MINUS_ONE = ExactScalar.from_int(-1)
I = _make((0, 1, 0, 0, 1))
MINUS_I = _make((0, -1, 0, 0, 1))
SQRT2 = _make((0, 0, 1, 0, 1))
I_HALF = _make((0, 1, 0, 0, 2))
