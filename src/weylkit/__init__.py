"""weylkit: exact operator-ordering calculus with numeric verification.

The package has three layers:

* exact symbolic algebra over Q(i, sqrt2) -- :mod:`weylkit.exactnum`,
  :mod:`weylkit.opalg` (the one product, brute-force rewriting) and
  :mod:`weylkit.ordering` (closed-form conversions);
* a truncated-Fock-space numeric oracle -- :mod:`weylkit.fockspace`;
* the two-fold phase-space transform -- :mod:`weylkit.phasexform`.

:mod:`weylkit.exprio` provides the surface syntax, :mod:`weylkit.verify`
the reproducible check suites behind ``weylkit verify``.

Only the exact layers load with the package, and :mod:`weylkit.cli`
adds only what every command needs: :mod:`weylkit.verify` loads with
``weylkit verify``, ``json`` with JSON output, and ``fractions`` on the
first use of a ``Fraction`` (a scalar's component views or its general
constructor, see :mod:`weylkit.exactnum`).  The two numeric modules need
numpy, so they and the names they export load on first access:
``fockspace``, ``FockMatrix``, ``TruncationError``, ``build_ladder``,
``build_qp``, ``coherent_state``, ``evaluate``, ``marginal_check`` and
``wigner_function``; ``phasexform``, ``SampledField``,
``forward_transform``, ``inverse_transform`` and ``parseval_check``.
"""

import importlib

from .exactnum import ExactScalar
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
)
from .ordering import (
    commutator_closed_form,
    convert,
    derivative_representation,
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

__version__ = "0.1.0"

# The numeric modules and the names they provide, imported on first
# access (PEP 562) so that the exact layers never load numpy.
_LAZY = {
    "fockspace": (
        "FockMatrix", "TruncationError", "build_ladder", "build_qp",
        "coherent_state", "evaluate", "marginal_check", "wigner_function",
    ),
    "phasexform": (
        "SampledField", "forward_transform", "inverse_transform", "parseval_check",
    ),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExactScalar",
    "FockMatrix",
    "FreeExpression",
    "LadderOrdering",
    "LadderPolynomial",
    "Monomial",
    "OrderedPolynomial",
    "Ordering",
    "ParseError",
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
    "weyl_to_pq",
    "weyl_to_qp",
    "wigner_function",
]
