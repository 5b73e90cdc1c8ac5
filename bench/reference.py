"""Exact references the benchmark checks weylkit against.

Nothing here imports weylkit.  Coefficients are Gaussian rationals held
as ``(re, im)`` pairs of :class:`fractions.Fraction`; a polynomial is a
dict from the exponent pair ``(m, r)`` to its coefficient, read in one
of two orders:

* ``"pq"``: the key ``(m, r)`` means the word P^r Q^m;
* ``"qp"``: the key ``(m, r)`` means the word Q^m P^r.

Products are formed term by term with the single-swap expansions

    Q^m P^r = sum_k k! C(m,k) C(r,k) i^k    P^(r-k) Q^(m-k)
    P^r Q^m = sum_k k! C(m,k) C(r,k) (-i)^k Q^(m-k) P^(r-k)

which follow from [Q, P] = i.  They are a second route to the same
operators that weylkit reaches by its closed forms and by brute-force
rewriting, so the three can be compared exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

ONE = (Fraction(1), Fraction(0))
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def g_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def accumulate(out: dict, key, coeff) -> None:
    """Add ``coeff`` at ``key`` and drop the entry if it cancels."""
    acc = out.get(key)
    total = coeff if acc is None else (acc[0] + coeff[0], acc[1] + coeff[1])
    if total[0] or total[1]:
        out[key] = total
    else:
        out.pop(key, None)


def add(x: dict, y: dict, factor=ONE) -> dict:
    out = dict(x)
    for key, coeff in y.items():
        accumulate(out, key, g_mul(coeff, factor))
    return out


def product(x: dict, y: dict, order: str) -> dict:
    """Product ``x * y`` of two polynomials read in the same order."""
    sign = 1 if order == "pq" else -1
    out: dict = {}
    for (m1, r1), c1 in x.items():
        for (m2, r2), c2 in y.items():
            # The middle pair is out of order: Q^m1 P^r2 for "pq",
            # P^r1 Q^m2 for "qp".
            qs, ps = (m1, r2) if order == "pq" else (m2, r1)
            c12 = g_mul(c1, c2)
            for k in range(min(qs, ps) + 1):
                weight = factorial(k) * comb(qs, k) * comb(ps, k)
                phase = _I_POWERS[(sign * k) % 4]
                accumulate(
                    out,
                    (m1 + m2 - k, r1 + r2 - k),
                    g_mul(c12, (Fraction(phase[0] * weight), Fraction(phase[1] * weight))),
                )
    return out


def symbol(name: str) -> dict:
    return {(1, 0): ONE} if name == "Q" else {(0, 1): ONE}


def word(symbols, order: str) -> dict:
    """Ordered form of the operator word spelled by ``symbols``."""
    out = {(0, 0): ONE}
    for name in symbols:
        out = product(out, symbol(name), order)
    return out


def power(x: dict, n: int, order: str) -> dict:
    out = {(0, 0): ONE}
    for _ in range(n):
        out = product(out, x, order)
    return out


def commutator(x: dict, y: dict, order: str) -> dict:
    return add(product(x, y, order), product(y, x, order), (Fraction(-1), Fraction(0)))


def weyl_symmetrization(m: int, r: int, order: str) -> dict:
    """Symmetrized Q^m P^r as (1/2)^m sum_l C(m,l) Q^(m-l) P^r Q^l."""
    out: dict = {}
    for l in range(m + 1):
        term = word("Q" * (m - l) + "P" * r + "Q" * l, order)
        out = add(out, term, (Fraction(comb(m, l), 2**m), Fraction(0)))
    return out


def weyl_to_ordered(terms: dict, order: str) -> dict:
    """Ordered form of a sum of symmetrized monomials."""
    out: dict = {}
    for (m, r), coeff in terms.items():
        out = add(out, weyl_symmetrization(m, r, order), coeff)
    return out


def p_plus_q_power(n: int, order: str) -> dict:
    return power({(1, 0): ONE, (0, 1): ONE}, n, order)


def wick(k: int, j: int) -> dict:
    """Normal form of a^k (a+)^j: key (#a+, #a), integer coefficients."""
    return {
        (j - l, k - l): (Fraction(factorial(l) * comb(k, l) * comb(j, l)), Fraction(0))
        for l in range(min(k, j) + 1)
    }
