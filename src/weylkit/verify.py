"""Verification suites: every module invariant as a reproducible check.

Each suite returns a list of :class:`CheckResult` so the command line,
the test suite and downstream harnesses all consume one implementation.
Exact checks report max_error 0.0 on success.  A failing exact sweep
names its first failing case, and carries the computed and oracle
renderings.  Numeric checks report the measured error against the
stated tolerance.  The numeric suites import numpy when they run, so
the exact ones never load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from . import exprio, ordering as conv
from .exactnum import ExactScalar, I, ONE
from .opalg import (
    OrderedPolynomial,
    Ordering,
    P,
    ProductNode,
    Q,
    _pq_monomial_expression,
    _qp_monomial_expression,
    commutator,
    rewrite_to_pq,
    rewrite_to_qp,
)

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# Block of the Wigner operator whose transforms `verify transform` checks.
_DELTA_BLOCK = 6


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float = 0.0
    tolerance: float = 0.0
    detail: str = ""
    computed: str | None = None
    oracle: str | None = None

    def to_json(self) -> dict:
        """The check as JSON; a non-finite max_error is written as null."""
        optional = {
            "detail": self.detail or None,
            "computed": self.computed,
            "oracle": self.oracle,
        }
        return {
            "name": self.name,
            "passed": self.passed,
            "max_error": self.max_error if math.isfinite(self.max_error) else None,
            "tolerance": self.tolerance,
            **{k: v for k, v in optional.items() if v is not None},
        }


def _exact(name: str, computed: OrderedPolynomial, oracle: OrderedPolynomial) -> CheckResult:
    passed = computed.ordering is oracle.ordering and computed.terms == oracle.terms
    return CheckResult(
        name,
        passed,
        max_error=0.0 if passed else math.inf,
        computed=None if passed else exprio.render(computed),
        oracle=None if passed else exprio.render(oracle),
    )


def _numeric(name: str, error: float, tolerance: float, detail: str = "") -> CheckResult:
    passed = bool(error <= tolerance)
    return CheckResult(
        name,
        passed,
        float(error),
        tolerance,
        detail,
        computed=None if passed else f"max error {error:.6e}",
        oracle=None if passed else f"tolerance {tolerance:.0e}",
    )


def _sweep(name: str, cases, pairs) -> CheckResult:
    """Exact check over ``cases``: ``pairs(*case)`` yields (computed,
    oracle) pairs, and the first case where a pair's tags or terms differ
    fails the check, as :func:`_exact` renders it."""
    for case in cases:
        for got, want in pairs(*case):
            check = _exact(name, got, want)
            if not check.passed:
                where = case if len(case) > 1 else case[0]
                return replace(check, detail=f"first failure at {where}")
    return CheckResult(name, True)


def _grid(top: int):
    """Exponent pairs (m, r) with m, r <= top."""
    return itertools.product(range(top + 1), repeat=2)


# ---------------------------------------------------------------------------
# Symbolic suites
# ---------------------------------------------------------------------------


def suite_orderings(max_degree: int = 6) -> list[CheckResult]:
    """Closed-form conversions against brute-force rewriting oracles."""
    top = max_degree
    adjoint_top = min(top, 5)
    tags = (Ordering.PQ, Ordering.QP, Ordering.WEYL)
    # The rewriting oracles: Q^m P^r in P-Q order and P^r Q^m in Q-P order.
    qp_words = {c: rewrite_to_pq(_qp_monomial_expression(*c)) for c in _grid(top)}
    pq_words = {c: rewrite_to_qp(_pq_monomial_expression(*c)) for c in _grid(top)}

    def symmetrized(m, r):
        sym = conv.weyl_symmetrization(m, r)
        yield conv.weyl_to_pq(m, r), rewrite_to_pq(sym)
        yield conv.weyl_to_qp(m, r), rewrite_to_qp(sym)

    def round_trips(m, r):
        for t1 in tags:
            start = OrderedPolynomial.monomial(t1, m, r)
            for t2 in tags:
                yield conv.convert(conv.convert(start, t2), t1), start

    return [
        _sweep(
            f"qp_to_pq equals rewriting, m,r <= {top}",
            _grid(top),
            lambda m, r: [(conv.qp_to_pq(m, r), qp_words[m, r])],
        ),
        _sweep(
            f"pq_to_qp equals rewriting, m,r <= {top}",
            _grid(top),
            lambda m, r: [(conv.pq_to_qp(m, r), pq_words[m, r])],
        ),
        _sweep(
            f"weyl_to_pq/weyl_to_qp equal symmetrized-word rewriting, m,r <= {top}",
            _grid(top),
            symmetrized,
        ),
        # Weyl image of the ordered words, checked through rewriting.
        _sweep(
            f"qp_to_weyl/pq_to_weyl invert through rewriting, m,r <= {top}",
            _grid(top),
            lambda m, r: [
                (conv.convert(conv.qp_to_weyl(m, r), Ordering.PQ), qp_words[m, r]),
                (conv.convert(conv.pq_to_weyl(m, r), Ordering.QP), pq_words[m, r]),
            ],
        ),
        _sweep(
            f"round-trip identity over all tag pairs, m,r <= {top}",
            _grid(top),
            round_trips,
        ),
        _sweep(
            f"adjoint symmetry between qp_to_pq and pq_to_qp, m,r <= {adjoint_top}",
            _grid(adjoint_top),
            lambda m, r: [(conv.qp_to_pq(m, r).adjoint(), conv.pq_to_qp(m, r))],
        ),
    ]


def suite_commutators(max_degree: int = 6) -> list[CheckResult]:
    """Closed-form commutators against brute force, in both orderings."""
    top = min(max_degree, 8)

    def commutators(m, r):
        brute = commutator(Q**m, P**r)
        closed_pq = conv.commutator_closed_form(m, r, Ordering.PQ)
        closed_qp = conv.convert(
            conv.commutator_closed_form(m, r, Ordering.QP), Ordering.PQ
        )
        return [
            (closed_pq, brute),
            (closed_qp, brute),
            (conv.convert(closed_pq, Ordering.PQ), closed_qp),
        ]

    def powers(n):
        word = ProductNode((P + Q,) * n)
        yield conv.p_plus_q_power(n, Ordering.PQ), rewrite_to_pq(word)
        yield conv.p_plus_q_power(n, Ordering.QP), rewrite_to_qp(word)

    return [
        _exact(
            "[Q, P] = i",
            conv.commutator_closed_form(1, 1, Ordering.PQ),
            OrderedPolynomial.from_terms(Ordering.PQ, [((0, 0), I)]),
        ),
        _sweep(
            f"closed-form commutators equal [Q^m, P^r] by rewriting, m,r <= {max_degree}",
            _grid(max_degree),
            commutators,
        ),
        _sweep(
            f"(P+Q)^n expansions equal rewriting, n <= {top}",
            ((n,) for n in range(top + 1)),
            powers,
        ),
    ]


def suite_hermite(max_degree: int = 8) -> list[CheckResult]:
    """Two-variable Hermite identities and the second routes to the
    conversion coefficients."""
    top = max_degree
    hermite_top = min(top, 6)
    return [
        _exact(
            "H[1,1](t,s) = ts - 1",
            conv.hermite_two_var(1, 1),
            OrderedPolynomial.from_terms(
                Ordering.WEYL, [((1, 1), ONE), ((0, 0), ExactScalar.from_int(-1))]
            ),
        ),
        _exact(
            "H[2,1](t,s) = t^2 s - 2t",
            conv.hermite_two_var(2, 1),
            OrderedPolynomial.from_terms(
                Ordering.WEYL, [((2, 1), ONE), ((1, 0), ExactScalar.from_int(-2))]
            ),
        ),
        _sweep(
            f"derivative representation equals Weyl to P-Q coefficients, m,r <= {top}",
            _grid(top),
            lambda m, r: [(conv.derivative_representation(m, r), conv.weyl_to_pq(m, r))],
        ),
        _sweep(
            f"scaled-Hermite route equals reduced Weyl coefficients, m,r <= {hermite_top}",
            _grid(hermite_top),
            lambda m, r: [
                (conv._weyl_image_via_hermite(m, r, False), conv.qp_to_weyl(m, r)),
                (conv._weyl_image_via_hermite(m, r, True), conv.pq_to_weyl(m, r)),
            ],
        ),
    ]


# ---------------------------------------------------------------------------
# Numeric suites
# ---------------------------------------------------------------------------


def suite_wigner(dim: int = 64) -> list[CheckResult]:
    """Marginals, quantization quadratures and Wigner functions."""
    import numpy as np

    from . import fockspace

    checks: list[CheckResult] = []
    block = 8

    worst = 0.0
    origin_entry = None
    for axis in ("q", "p"):
        for value in (-2.0, -1.0, 0.0, 1.0, 2.0):
            numeric, analytic = fockspace.marginal_check(
                axis, value, dim, block=block
            )
            err = float(np.abs(numeric.data - analytic.data).max())
            worst = max(worst, err)
            if axis == "q" and value == 0.0:
                origin_entry = float(numeric.data[0, 0].real)
    checks.append(
        _numeric(
            "kernel marginals match projector matrices on the 8x8 block",
            worst,
            1e-6,
            detail="x in {-2..2}, both axes",
        )
    )
    checks.append(
        _numeric(
            "q-marginal (0,0) entry at x=0 equals 1/sqrt(pi)",
            abs(origin_entry - INV_SQRT_PI),
            1e-6,
            detail=f"value {origin_entry:.9f}",
        )
    )

    quads = fockspace.monomial_quantization_quadrature(4, block=block)
    worst_q = 0.0
    for (m, r), got in quads.items():
        ref = fockspace.evaluate(conv.weyl_to_pq(m, r), dim).data[:block, :block]
        worst_q = max(worst_q, float(np.abs(got - ref).max()))
    checks.append(
        _numeric(
            "monomial quadratures match symmetrized-monomial matrices, m+r <= 4",
            worst_q,
            1e-3,
            detail="grid [-7,7]^2, step 0.02",
        )
    )

    worst_s = 0.0
    for m in range(4):
        for r in range(4 - m):
            symbol = {
                (j, k): c.to_complex()
                for (j, k), c in conv.pq_to_weyl(m, r).terms.items()
            }
            got = fockspace.symbol_quantization(symbol, quads)
            ref = fockspace.evaluate(
                OrderedPolynomial.monomial(Ordering.PQ, m, r), dim
            ).data[:block, :block]
            worst_s = max(worst_s, float(np.abs(got - ref).max()))
    checks.append(
        _numeric(
            "smeared-kernel transform reproduces ordered words, m+r <= 3",
            worst_s,
            1e-3,
            detail="quantizing the P-Q Weyl symbols",
        )
    )

    axis = np.linspace(-3.0, 3.0, 25)
    qg, pg = np.meshgrid(axis, axis, indexing="ij")
    worst_w = 0.0
    worst_imag = 0.0
    for beta in (0.0, 1.0, 1.0j, 0.6 + 0.8j, 0.3 - 0.4j):
        state = fockspace.coherent_state(beta, dim)
        rho = np.outer(state, state.conj())
        w = fockspace.wigner_function(rho, axis, axis)
        qb, pb = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
        exact = np.exp(-((qg - qb) ** 2) - (pg - pb) ** 2) / math.pi
        worst_w = max(worst_w, float(np.abs(w - exact).max()))
        worst_imag = max(worst_imag, float(np.abs(w.imag).max()))
    checks.append(
        _numeric(
            "coherent-state Wigner functions are the shifted Gaussians, |beta| <= 1",
            worst_w,
            1e-6,
            detail="|q|,|p| <= 3",
        )
    )
    checks.append(
        _numeric(
            "Wigner function is real for Hermitian states", worst_imag, 1e-8
        )
    )

    # wigner_function sums the coordinate form of the kernel; the
    # Laguerre kernel columns are an independent route to Tr[rho Delta].
    rng = np.random.default_rng(2009)
    mix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mix @ mix.conj().T
    rho /= np.trace(rho)
    axis = np.linspace(-2.0, 2.0, 5)
    qg, pg = np.meshgrid(axis, axis, indexing="ij")
    want = np.zeros(qg.size, dtype=complex)
    # Tr[rho Delta] = sum_{j,k} rho[k,j] Delta[j,k]; column k holds
    # Delta[j,k] for j >= k, and Hermiticity gives the j < k terms.
    for k, col in enumerate(fockspace._kernel_columns(qg.ravel(), pg.ravel(), dim)):
        want += rho[k, k:] @ col + (rho[k + 1:, k].conj() @ col[1:]).conj()
    got = fockspace.wigner_function(rho, axis, axis).ravel()
    checks.append(
        _numeric(
            "Wigner function matches Tr[rho Delta] from the Laguerre kernel",
            float(np.abs(got - want).max()),
            1e-12,
            detail="random mixed state, 5x5 grid on [-2,2]^2",
        )
    )

    step = 0.05
    count = int(round(12.0 / step))
    grid = -6.0 + (np.arange(count) + 0.5) * step
    state = fockspace.coherent_state(0.6 + 0.8j, dim)
    rho = np.outer(state, state.conj())
    w = fockspace.wigner_function(rho, grid, grid)
    total = float(w.real.sum() * step * step)
    checks.append(
        _numeric(
            "Wigner function integrates to one",
            abs(total - 1.0),
            1e-4,
            detail=f"quadrature on [-6,6]^2 step {step}, value {total:.6f}",
        )
    )
    return checks


def suite_transform() -> list[CheckResult]:
    """Grid transform: Gaussian pair, round trip, norm identity,
    linearity, and the transforms of the Wigner operator."""
    import numpy as np

    from . import fockspace, phasexform

    checks: list[CheckResult] = []
    gauss = phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-(pg**2) - qg**2)
    )
    forward = phasexform.forward_transform(gauss)
    qg, pg = np.meshgrid(gauss.q_axis, gauss.p_axis, indexing="ij")
    exact = (
        np.exp(-(qg**2 + pg**2) / 2.0 + 1j * pg * qg) / math.sqrt(2.0)
    )
    checks.append(
        _numeric(
            "Gaussian transforms to the chirped half-width Gaussian",
            float(np.abs(forward.values - exact).max()),
            1e-6,
            detail="[-8,8]^2, 400x400",
        )
    )
    centered = phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-(pg**2) - qg**2), nq=401, np_=401
    )
    centered_fwd = phasexform.forward_transform(centered)
    iq = int(np.argmin(np.abs(centered.q_axis)))
    ip = int(np.argmin(np.abs(centered.p_axis)))
    checks.append(
        _numeric(
            "transform of the Gaussian at the origin equals 1/sqrt(2)",
            abs(centered_fwd.values[iq, ip] - 1.0 / math.sqrt(2.0)),
            1e-6,
        )
    )

    back = phasexform.inverse_transform(forward)
    nq, np_ = gauss.nq, gauss.np_
    qs = slice(nq // 4, 3 * nq // 4)
    ps = slice(np_ // 4, 3 * np_ // 4)
    checks.append(
        _numeric(
            "inverse(forward(h)) returns h on the central half grid",
            float(np.abs(back.values - gauss.values)[qs, ps].max()),
            1e-5,
        )
    )

    lhs, rhs = phasexform._parseval_sides(gauss, forward)
    checks.append(
        _numeric("norm identity, analytic side", abs(lhs - 0.5), 1e-8)
    )
    checks.append(
        _numeric("norm identity, transform side", abs(rhs - 0.5), 1e-5)
    )
    shifted = phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-((pg - 1.0) ** 2) - (qg + 1.0) ** 2)
    )
    lhs_s, rhs_s = phasexform.parseval_check(shifted)
    checks.append(
        _numeric(
            "norm identity for a shifted Gaussian",
            max(abs(lhs_s - 0.5), abs(rhs_s - 0.5)),
            1e-5,
        )
    )

    other = phasexform.SampledField.from_function(
        lambda qg, pg: (qg + 1j * pg) * np.exp(-(pg**2) - qg**2)
    )
    combo = replace(gauss, values=2.0 * gauss.values - 0.5j * other.values)
    lin = phasexform.forward_transform(combo).values - (
        2.0 * forward.values
        - 0.5j * phasexform.forward_transform(other).values
    )
    checks.append(
        _numeric("transform is linear", float(np.abs(lin).max()), 1e-12)
    )

    (qs, ps), inverse, forward, edge = _wigner_operator_images()
    # <m|p><p|q><q|n> = i^m psi_m(p) e^{-ipq} psi_n(q) / sqrt(2 pi).
    delta_pq = np.stack([
        np.outer(
            (1j) ** np.arange(_DELTA_BLOCK) * fockspace.hermite_functions(p, _DELTA_BLOCK),
            fockspace.hermite_functions(q, _DELTA_BLOCK),
        ) * np.exp(-1j * p * q) / math.sqrt(2.0 * math.pi)
        for q, p in zip(qs, ps)
    ], axis=-1)
    detail = f"block {_DELTA_BLOCK}, [-8,8]^2, 400x400, 16 points, kernel edge {edge:.1e}"
    checks.append(
        _numeric(
            "inverse transform of the Wigner operator is delta(p-P) delta(q-Q)",
            float(np.abs(inverse - delta_pq).max()),
            1e-12,
            detail=detail,
        )
    )
    checks.append(
        _numeric(
            "forward transform of the Wigner operator is delta(q-Q) delta(p-P)",
            float(np.abs(forward - delta_pq.conj().swapaxes(0, 1)).max()),
            1e-12,
            detail=detail,
        )
    )
    return checks


def _wigner_operator_images():
    """Both grid transforms of each entry <j|Delta(q', p')|k>, j, k < 6.

    The entries come from the kernel columns on the 400^2 grid of
    [-8, 8]^2, and each of the 36 is transformed on its own.  Returns the
    (q, p) of 16 interior cells, the inverse and forward images there as
    (6, 6, 16) arrays, and the entries' largest magnitude on the grid
    edge, which the transform needs far below its decay threshold.
    """
    import numpy as np

    from . import fockspace, phasexform

    shell = phasexform.SampledField.from_function(lambda qg, pg: 0.0 * qg)
    nq, np_ = shell.nq, shell.np_
    rows, cols = np.meshgrid([120, 170, 230, 280], [130, 190, 215, 265], indexing="ij")
    cells = (rows.ravel(), cols.ravel())
    qg, pg = np.meshgrid(shell.q_axis, shell.p_axis, indexing="ij")
    inverse = np.empty((_DELTA_BLOCK, _DELTA_BLOCK, len(cells[0])), dtype=complex)
    forward = np.empty_like(inverse)
    edge = 0.0
    columns = fockspace._kernel_columns(qg.ravel(), pg.ravel(), _DELTA_BLOCK)
    for k, col in enumerate(columns):
        for d, entry in enumerate(col):
            # Delta[k, k+d] = conj(Delta[k+d, k]): the kernel is Hermitian.
            mirror = [(k, k + d, entry.conj())] if d else []
            for j, i, values in [(k + d, k, entry)] + mirror:
                field = replace(shell, values=values.reshape(nq, np_))
                edge = max(edge, field.boundary_max())
                inverse[j, i] = phasexform.inverse_transform(field).values[cells]
                forward[j, i] = phasexform.forward_transform(field).values[cells]
    return (shell.q_axis[cells[0]], shell.p_axis[cells[1]]), inverse, forward, edge


SUITES = {
    "orderings": suite_orderings,
    "commutators": suite_commutators,
    "hermite": suite_hermite,
    "wigner": suite_wigner,
    "transform": suite_transform,
}
