"""weylkit: exact operator-ordering calculus with numeric verification.

The package has three layers:

* exact symbolic algebra over Q(i, sqrt2) -- :mod:`weylkit.exactnum`,
  :mod:`weylkit.opalg` (the one product, brute-force rewriting) and
  :mod:`weylkit.ordering` (closed-form conversions);
* a truncated-Fock-space numeric oracle -- :mod:`weylkit.fockspace`;
* the two-fold phase-space transform -- :mod:`weylkit.phasexform`.

:mod:`weylkit.exprio` provides the surface syntax, :mod:`weylkit.verify`
the reproducible check suites behind ``weylkit verify``.
"""

from .exactnum import ExactScalar, Rational
from .opalg import (
    FreeExpression,
    LadderOrdering,
    LadderPolynomial,
    Monomial,
    OrderedPolynomial,
    Ordering,
    commutator,
    normal_order,
    poly_equal,
    rewrite_to_pq,
    rewrite_to_qp,
    substitute_ladder,
)
from .ordering import (
    CommutativePoly2,
    commutator_closed_form,
    convert,
    hermite_two_var,
    p_plus_q_power,
    pq_to_qp,
    pq_to_weyl,
    qp_to_pq,
    qp_to_weyl,
    weyl_to_pq,
    weyl_to_qp,
)
from .exprio import ParseError, parse, render, render_terms
from .fockspace import (
    FockMatrix,
    PhasePoint,
    TruncationError,
    build_ladder,
    build_qp,
    coherent_state,
    evaluate,
    marginal_check,
    wigner_function,
    wigner_operator,
)
from .phasexform import (
    SampledField,
    derivative_representation,
    forward_transform,
    inverse_transform,
    monomial_forward,
    monomial_inverse,
    parseval_check,
)

__version__ = "0.1.0"

__all__ = [
    "CommutativePoly2",
    "ExactScalar",
    "FockMatrix",
    "FreeExpression",
    "LadderOrdering",
    "LadderPolynomial",
    "Monomial",
    "OrderedPolynomial",
    "Ordering",
    "ParseError",
    "PhasePoint",
    "Rational",
    "SampledField",
    "TruncationError",
    "build_ladder",
    "build_qp",
    "coherent_state",
    "commutator",
    "commutator_closed_form",
    "convert",
    "derivative_representation",
    "evaluate",
    "forward_transform",
    "hermite_two_var",
    "inverse_transform",
    "marginal_check",
    "monomial_forward",
    "monomial_inverse",
    "normal_order",
    "p_plus_q_power",
    "parse",
    "parseval_check",
    "poly_equal",
    "pq_to_qp",
    "pq_to_weyl",
    "qp_to_pq",
    "qp_to_weyl",
    "render",
    "render_terms",
    "rewrite_to_pq",
    "rewrite_to_qp",
    "substitute_ladder",
    "weyl_to_pq",
    "weyl_to_qp",
    "wigner_function",
    "wigner_operator",
]
