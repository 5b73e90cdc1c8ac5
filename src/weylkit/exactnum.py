"""Exact scalar arithmetic over the field Q(i, sqrt2).

Every coefficient produced by the ordering conversions lives in the
Gaussian rationals, optionally times sqrt(2) (the ladder-operator
substitution is the only source of sqrt(2) factors).  A scalar is stored
as four reduced rationals (ra, ia, rb, ib) meaning

    (ra + ia*i) + (rb + ib*i) * sqrt(2)

which is a unique representation because {1, i, sqrt2, i*sqrt2} are
linearly independent over Q.  All operations are pure and values are
immutable, so they are safe to share between threads.

The ring operations run on Python integers: each operand is read as four
integer numerators over one common denominator (the lcm of its four), so
a product is 16 integer products over one denominator, and each nonzero
result component is reduced once, by a single ``Fraction(n, den)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: Reduced rational numbers (positive denominator, gcd-free) with
#: unbounded integer components.  The stdlib type maintains exactly the
#: invariants required here.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactArithmeticError(ArithmeticError):
    """Raised on domain errors such as inverting zero."""


@dataclass(frozen=True)
class ExactScalar:
    """Element of Q(i, sqrt2), stored componentwise in lowest terms."""

    ra: Fraction = _ZERO
    ia: Fraction = _ZERO
    rb: Fraction = _ZERO
    ib: Fraction = _ZERO

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> ExactScalar:
        return cls(Fraction(n))

    @classmethod
    def rational(cls, num: int, den: int = 1) -> ExactScalar:
        return cls(Fraction(num, den))

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.ra or self.ia or self.rb or self.ib)

    # -- ring operations ---------------------------------------------

    def __add__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> ExactScalar:
        return ExactScalar(-self.ra, -self.ia, -self.rb, -self.ib)

    def __sub__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # ((a + b*i) + (c + d*i)*sqrt2) * ((e + f*i) + (g + h*i)*sqrt2),
        # numerators over den1 and den2 respectively.
        a, b, c, d, den1 = _numerators(self)
        e, f, g, h, den2 = _numerators(other)
        return _from_numerators(
            a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e,
            den1 * den2,
        )

    __rmul__ = __mul__

    def invert(self) -> ExactScalar:
        """Multiplicative inverse; raises on zero."""
        if self.is_zero():
            raise ExactArithmeticError("cannot invert zero")
        # Clear sqrt2 by the conjugate A - B*sqrt2, then clear i by the
        # Gaussian conjugate; both denominators are nonzero because the
        # representation is unique.
        conj = ExactScalar(self.ra, self.ia, -self.rb, -self.ib)
        norm = self * conj  # lands in Q(i): rb = ib = 0
        den = norm.ra * norm.ra + norm.ia * norm.ia
        inv_norm = ExactScalar(norm.ra / den, -norm.ia / den)
        return conj * inv_norm

    def __truediv__(self, other: ExactScalar | int) -> ExactScalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __pow__(self, exponent: int) -> ExactScalar:
        if exponent < 0:
            return self.invert() ** (-exponent)
        out = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> ExactScalar:
        """Complex conjugation: fixes sqrt2, maps i to -i."""
        return ExactScalar(self.ra, -self.ia, self.rb, -self.ib)

    # -- numeric bridge ----------------------------------------------

    def to_complex(self) -> complex:
        """Double-precision value, accurate to a few ulp."""
        re = float(self.ra) + float(self.rb) * math.sqrt(2.0)
        im = float(self.ia) + float(self.ib) * math.sqrt(2.0)
        return complex(re, im)

    # -- canonical text ----------------------------------------------

    def render(self) -> str:
        """Canonical rendering, e.g. ``1/2 + -1/2*i`` or ``r2``."""
        parts = []
        for value, tag in (
            (self.ra, ""),
            (self.ia, "i"),
            (self.rb, "r2"),
            (self.ib, "i*r2"),
        ):
            if value == 0:
                continue
            if not tag:
                parts.append(str(value))
            elif value == 1:
                parts.append(tag)
            elif value == -1:
                parts.append("-" + tag)
            else:
                parts.append(f"{value}*{tag}")
        if not parts:
            return "0"
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _numerators(x: ExactScalar) -> tuple[int, int, int, int, int]:
    """x's components as integer numerators over the lcm of their denominators."""
    ra, ia, rb, ib = x.ra, x.ia, x.rb, x.ib
    d0, d1, d2, d3 = ra.denominator, ia.denominator, rb.denominator, ib.denominator
    den = math.lcm(d0, d1, d2, d3)
    return (
        ra.numerator * (den // d0),
        ia.numerator * (den // d1),
        rb.numerator * (den // d2),
        ib.numerator * (den // d3),
        den,
    )


def _from_numerators(n0: int, n1: int, n2: int, n3: int, den: int) -> ExactScalar:
    """The scalar (n0 + n1*i + (n2 + n3*i)*sqrt2) / den, reduced componentwise."""
    return ExactScalar(
        Fraction(n0, den) if n0 else _ZERO,
        Fraction(n1, den) if n1 else _ZERO,
        Fraction(n2, den) if n2 else _ZERO,
        Fraction(n3, den) if n3 else _ZERO,
    )


def _combine(x: ExactScalar, y: ExactScalar, sign: int) -> ExactScalar:
    """x + sign*y for sign in {1, -1}."""
    a, b, c, d, den1 = _numerators(x)
    e, f, g, h, den2 = _numerators(y)
    if den1 != den2:
        den = math.lcm(den1, den2)
        s1, s2 = den // den1, den // den2
        a, b, c, d = a * s1, b * s1, c * s1, d * s1
        e, f, g, h = e * s2, f * s2, g * s2, h * s2
        den1 = den
    return _from_numerators(
        a + sign * e, b + sign * f, c + sign * g, d + sign * h, den1
    )


def _coerce(value: ExactScalar | int) -> ExactScalar | None:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, int):
        return ExactScalar(Fraction(value))
    return None


def parse_scalar(text: str) -> ExactScalar:
    """Parse the canonical rendering produced by :meth:`ExactScalar.render`."""
    text = text.strip()
    if text == "0":
        return ZERO
    total = ZERO
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty component in scalar {text!r}")
        negative = part.startswith("-")
        if negative:
            part = part[1:].strip()
        factors = part.split("*")
        value = _ONE
        has_i = False
        has_r2 = False
        for factor in factors:
            factor = factor.strip()
            if factor == "i":
                if has_i:
                    raise ValueError(f"repeated i in {part!r}")
                has_i = True
            elif factor == "r2":
                if has_r2:
                    raise ValueError(f"repeated r2 in {part!r}")
                has_r2 = True
            else:
                value = Fraction(factor)
        if negative:
            value = -value
        if not has_i and not has_r2:
            comp = ExactScalar(value)
        elif has_i and not has_r2:
            comp = ExactScalar(_ZERO, value)
        elif not has_i and has_r2:
            comp = ExactScalar(_ZERO, _ZERO, value)
        else:
            comp = ExactScalar(_ZERO, _ZERO, _ZERO, value)
        total = total + comp
    return total


def i_power(k: int) -> ExactScalar:
    """i**k for any integer k."""
    k %= 4
    if k == 0:
        return ONE
    if k == 1:
        return I
    if k == 2:
        return MINUS_ONE
    return MINUS_I


ZERO = ExactScalar()
ONE = ExactScalar(_ONE)
MINUS_ONE = ExactScalar(-_ONE)
I = ExactScalar(_ZERO, _ONE)
MINUS_I = ExactScalar(_ZERO, -_ONE)
SQRT2 = ExactScalar(_ZERO, _ZERO, _ONE)
HALF = ExactScalar(Fraction(1, 2))
I_HALF = ExactScalar(_ZERO, Fraction(1, 2))
