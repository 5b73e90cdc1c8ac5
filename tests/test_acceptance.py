"""Acceptance gate: every release criterion at its stated tolerance.

Each test covers one numbered criterion and prints a PASS line (visible
with ``pytest -s``); the ``-v`` test report gives the same one line per
criterion.  Tolerances here are contractual -- do not relax them.
"""

import math
import random
import string
import time

import numpy as np
import pytest

from weylkit import exprio, fockspace, phasexform
from weylkit import ordering as conv
from weylkit.exactnum import ExactScalar, I, ONE
from weylkit.opalg import (
    Monomial,
    OrderedPolynomial,
    Ordering,
    P,
    Q,
    commutator,
    poly_equal,
    rewrite_to_pq,
    rewrite_to_qp,
    scalar,
)

DEGREE_SPAN = range(7)  # m, r in 0..6


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} [{label}]: PASS")


@pytest.fixture(scope="module")
def conversion_table():
    """All six closed-form conversions for every m, r in 0..6."""
    table = {}
    for m in DEGREE_SPAN:
        for r in DEGREE_SPAN:
            table[(m, r)] = {
                "weyl_to_pq": conv.weyl_to_pq(m, r),
                "weyl_to_qp": conv.weyl_to_qp(m, r),
                "qp_to_pq": conv.qp_to_pq(m, r),
                "pq_to_qp": conv.pq_to_qp(m, r),
                "qp_to_weyl": conv.qp_to_weyl(m, r),
                "pq_to_weyl": conv.pq_to_weyl(m, r),
            }
    return table


@pytest.fixture(scope="module")
def quantization_quadratures():
    """Shared [-7,7]^2 step-0.02 sweep for criteria 6a and 6b."""
    start = time.monotonic()
    quads = fockspace.monomial_quantization_quadrature(
        4, block=8, half_range=7.0, step=0.02
    )
    return quads, time.monotonic() - start


def test_criterion_1_exact_ordering_equivalence(conversion_table):
    start = time.monotonic()
    for m in DEGREE_SPAN:
        for r in DEGREE_SPAN:
            maps = conversion_table[(m, r)]
            qp_word = Q**m * P**r
            pq_word = P**r * Q**m
            sym = conv.weyl_symmetrization(m, r)

            assert maps["qp_to_pq"].terms == rewrite_to_pq(qp_word).terms
            assert maps["pq_to_qp"].terms == rewrite_to_qp(pq_word).terms
            assert maps["weyl_to_pq"].terms == rewrite_to_pq(sym).terms
            assert maps["weyl_to_qp"].terms == rewrite_to_qp(sym).terms
            via_pq = conv.convert(maps["qp_to_weyl"], Ordering.PQ)
            assert via_pq.terms == rewrite_to_pq(qp_word).terms
            via_qp = conv.convert(maps["pq_to_weyl"], Ordering.QP)
            assert via_qp.terms == rewrite_to_qp(pq_word).terms
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.1f}s"
    _report(1, "exact ordering equivalence, 49 pairs x 6 directions")


def test_criterion_2_commutator_identity():
    printed_case = conv.commutator_closed_form(1, 1, Ordering.PQ)
    assert printed_case.terms == {Monomial(0, 0): I}
    for m in DEGREE_SPAN:
        for r in DEGREE_SPAN:
            brute = commutator(Q**m, P**r)
            closed_pq = conv.commutator_closed_form(m, r, Ordering.PQ)
            closed_qp = conv.commutator_closed_form(m, r, Ordering.QP)
            assert closed_pq.terms == brute.terms
            assert poly_equal(closed_qp, brute)
            assert poly_equal(closed_pq, closed_qp)
    _report(2, "commutator closed forms, both orderings")


def test_criterion_3_p_plus_q_powers():
    for n in range(9):
        direct = (P + Q) ** n if n else scalar(1)
        assert (
            conv.p_plus_q_power(n, Ordering.PQ).terms
            == rewrite_to_pq(direct).terms
        )
        assert (
            conv.p_plus_q_power(n, Ordering.QP).terms
            == rewrite_to_qp(direct).terms
        )
    _report(3, "(P+Q)^n expansions, n <= 8")


def test_criterion_4_hermite_derivative_consistency():
    assert conv.hermite_two_var(1, 1).terms == {
        (1, 1): ONE,
        (0, 0): ExactScalar.from_int(-1),
    }
    assert conv.hermite_two_var(2, 1).terms == {
        (2, 1): ONE,
        (1, 0): ExactScalar.from_int(-2),
    }
    for m in range(9):
        for r in range(9):
            assert (
                conv.derivative_representation(m, r).terms
                == conv.weyl_to_pq(m, r).terms
            )
    _report(4, "derivative route equals Weyl to P-Q coefficients, m,r <= 8")


def test_criterion_5_wigner_marginals():
    dim, block, tolerance = 64, 8, 1e-6
    worst = 0.0
    for axis in ("q", "p"):
        for value in (-2.0, -1.0, 0.0, 1.0, 2.0):
            numeric, analytic = fockspace.marginal_check(
                axis, value, dim, block=block
            )
            worst = max(
                worst, float(np.abs(numeric.data - analytic.data).max())
            )
            if axis == "q" and value == 0.0:
                origin = float(numeric.data[0, 0].real)
    assert worst < tolerance, f"marginal error {worst:.3e}"
    assert abs(origin - 1.0 / math.sqrt(math.pi)) < tolerance
    _report(5, f"marginals match projectors, worst {worst:.2e}")


def test_criterion_6_quantization_and_smeared_transform(
    quantization_quadratures,
):
    quads, sweep_seconds = quantization_quadratures
    dim, block, tolerance = 64, 8, 1e-3
    worst_weyl = 0.0
    for (m, r), integral in quads.items():
        reference = fockspace.evaluate(conv.weyl_to_pq(m, r), dim)
        worst_weyl = max(
            worst_weyl,
            float(
                np.abs(integral - reference.data[:block, :block]).max()
            ),
        )
    assert worst_weyl < tolerance, f"quantization error {worst_weyl:.3e}"

    worst_smeared = 0.0
    for m in range(4):
        for r in range(4 - m):
            symbol = {
                (k.m, k.r): c.to_complex()
                for k, c in conv.pq_to_weyl(m, r).terms.items()
            }
            got = fockspace.symbol_quantization(symbol, quads)
            want = fockspace.evaluate(
                OrderedPolynomial.monomial(Ordering.PQ, m, r), dim
            ).data[:block, :block]
            worst_smeared = max(
                worst_smeared, float(np.abs(got - want).max())
            )
    assert worst_smeared < tolerance, f"smeared error {worst_smeared:.3e}"
    assert sweep_seconds < 600.0, "quadrature sweep exceeded minutes"
    _report(
        6,
        f"quantization {worst_weyl:.2e}, smeared {worst_smeared:.2e}, "
        f"sweep {sweep_seconds:.1f}s",
    )


def test_criterion_7_coherent_wigner_functions():
    dim = 64
    axis = np.linspace(-3.0, 3.0, 25)
    qg, pg = np.meshgrid(axis, axis, indexing="ij")
    worst = 0.0
    for beta in (0.0, 1.0, 1.0j, 0.6 + 0.8j, -0.5 + 0.5j):
        state = fockspace.coherent_state(beta, dim)
        rho = np.outer(state, state.conj())
        wig = fockspace.wigner_function(rho, axis, axis)
        qb = math.sqrt(2.0) * beta.real
        pb = math.sqrt(2.0) * beta.imag
        exact = np.exp(-((qg - qb) ** 2) - (pg - pb) ** 2) / math.pi
        worst = max(worst, float(np.abs(wig - exact).max()))
    assert worst < 1e-6, f"coherent Wigner error {worst:.3e}"

    step = 0.05
    count = int(round(12.0 / step))
    grid = -6.0 + (np.arange(count) + 0.5) * step
    state = fockspace.coherent_state(0.6 + 0.8j, dim)
    rho = np.outer(state, state.conj())
    wig = fockspace.wigner_function(rho, grid, grid)
    total = float(wig.real.sum() * step * step)
    assert abs(total - 1.0) < 1e-4, f"normalization {total:.6f}"
    _report(7, f"coherent Wigner {worst:.2e}, normalization {total:.6f}")


def test_criterion_8_phase_space_transform():
    field = phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-(pg**2) - qg**2)
    )
    image = phasexform.forward_transform(field)
    qg, pg = np.meshgrid(field.q_axis, field.p_axis, indexing="ij")
    exact = (
        np.exp(-(qg**2 + pg**2) / 2.0 + 1j * pg * qg) / math.sqrt(2.0)
    )
    pair_err = float(np.abs(image.values - exact).max())
    assert pair_err < 1e-6, f"Gaussian pair error {pair_err:.3e}"

    back = phasexform.inverse_transform(image)
    nq = field.nq
    central = slice(nq // 4, 3 * nq // 4)
    rt_err = float(
        np.abs((back.values - field.values)[central, central]).max()
    )
    assert rt_err < 1e-5, f"round-trip error {rt_err:.3e}"

    lhs, rhs = phasexform.parseval_check(field)
    assert abs(lhs - 0.5) < 1e-5 and abs(rhs - 0.5) < 1e-5
    _report(
        8,
        f"Gaussian pair {pair_err:.2e}, round trip {rt_err:.2e}, "
        f"norms {lhs:.6f}/{rhs:.6f}",
    )


def test_criterion_9_parser_round_trip_and_fuzz(conversion_table):
    count = 0
    for maps in conversion_table.values():
        for poly in maps.values():
            back = exprio.parse(exprio.render(poly))
            assert isinstance(back, OrderedPolynomial)
            assert back.ordering is poly.ordering
            assert back.terms == poly.terms
            count += 1

    rng = random.Random(1202608)
    alphabet = (
        "QPaig2r dewyl{}()+-*^/0123456789." + string.ascii_letters + "\t\\"
    )
    crashes = 0
    for _ in range(100_000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 24))
        )
        try:
            exprio.parse(text)
        except exprio.ParseError:
            pass
        except Exception:  # noqa: BLE001 - the contract is ParseError only
            crashes += 1
    assert crashes == 0
    _report(9, f"round trip on {count} polynomials, 100000 fuzz inputs")
