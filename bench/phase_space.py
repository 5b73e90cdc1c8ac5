"""``phase-space``: the numeric traffic of ``weylkit verify wigner/transform``
and ``weylkit transform --input --out``.

The kernel in ``fockspace`` and the chirp transform in ``phasexform`` do
all the work; the exact layers do none.  Wigner grids of dense coherent
states (wide kernel blocks at few points) and the quantization sweep
(an 8x8 block at many points) use the kernel in two different ways.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite

from weylkit import fockspace, ordering as conv, phasexform, verify

from harness import Item, expect, rng_for

NAME = "phase-space"
TRANSFORM_SIZES = (256, 512, 768, 1024)
KINDS = {"wigner": 48, "marginal": 46, "sweep": 1, "transform": len(TRANSFORM_SIZES), "csv": 1}
WIGNER_AXIS = np.linspace(-3.0, 3.0, 17)
MARGINAL_DIM = 64
SWEEP = {"max_total_degree": 4, "block": 8, "step": 0.05}
SWEEP_DIM = 64
CSV_SIZE = 256
# The tolerances of weylkit's own wigner and transform suites.
TOL_WIGNER, TOL_REAL, TOL_MARGINAL, TOL_SWEEP = 1e-6, 1e-8, 1e-6, 1e-3
TOL_ROUND_TRIP, TOL_NORM_INPUT, TOL_NORM_OUTPUT = 1e-5, 1e-8, 1e-5
SETUP = """
from weylkit import fockspace
import numpy as np
state = np.zeros(64); state[0] = 1.0
fockspace.wigner_function(np.outer(state, state), [0.0], [0.0])
fockspace.displacement(0.5, 64)
"""


def generate(seed: int) -> list[Item]:
    """Every Wigner dimension 16..63 and marginal block 8..16, and the
    grids 256^2..1024^2, in a fixed order.

    The sizes set the cost and the order sets the allocator's high-water
    mark, so both are fixed; the seed draws the coherent amplitudes, the
    marginal axes and points, and the Gaussian centres.
    """
    rng = rng_for(seed, NAME)
    items = []
    for dim in range(16, 16 + KINDS["wigner"]):
        radius, angle = math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
        items.append(Item("wigner", (dim, radius * math.cos(angle), radius * math.sin(angle))))
    for index in range(KINDS["marginal"]):
        items.append(Item("marginal", (rng.choice("qp"), rng.uniform(-2.0, 2.0), 8 + index % 9)))
    items.append(Item("sweep", ()))
    for size in TRANSFORM_SIZES:
        # Centres within 1 of the origin keep the chirped output below the
        # boundary-decay threshold, so the inverse input stays reliable.
        items.append(Item("transform", (size, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))))
    items.append(Item("csv", (CSV_SIZE, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))))
    return items


def _gaussian(size: int, q0: float, p0: float) -> phasexform.SampledField:
    return phasexform.SampledField.from_function(
        lambda qg, pg: np.exp(-((qg - q0) ** 2) - (pg - p0) ** 2), nq=size, np_=size
    )


def prepare(item: Item, workdir):
    kind, params = item
    if kind == "wigner":
        dim, re, im = params
        state = fockspace.coherent_state(complex(re, im), dim)
        return np.outer(state, state.conj())
    if kind == "transform":
        return _gaussian(*params)
    if kind == "csv":
        return phasexform.forward_transform(_gaussian(*params)), str(workdir / "grid.csv")
    return None


def execute(item: Item, prepared):
    kind, params = item
    if kind == "wigner":
        return fockspace.wigner_function(prepared, WIGNER_AXIS, WIGNER_AXIS)
    if kind == "marginal":
        axis, value, block = params
        numeric, _ = fockspace.marginal_check(axis, value, MARGINAL_DIM, block=block)
        return numeric
    if kind == "sweep":
        return fockspace.monomial_quantization_quadrature(SWEEP["max_total_degree"], block=SWEEP["block"], step=SWEEP["step"])
    if kind == "transform":
        forward = phasexform.forward_transform(prepared)
        return forward, phasexform.inverse_transform(forward)
    if kind == "csv":
        grid, path = prepared
        grid.to_csv(path)
        return phasexform.SampledField.from_csv(path)
    raise ValueError(f"unknown item kind {kind!r}")


# -- checks --------------------------------------------------------------


def _within(name: str, error: float, tolerance: float) -> None:
    result = verify._numeric(name, error, tolerance)
    expect(result.passed, f"{name}: error {error:.3e} over {tolerance:.0e}")


def _oscillator_functions(x: float, count: int) -> np.ndarray:
    """psi_n(x) from the Hermite series, n < count."""
    norms = [1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)) for n in range(count)]
    return np.array([norms[n] * hermite.hermval(x, [0] * n + [1]) for n in range(count)]) * math.exp(-x * x / 2)


def _projector(axis: str, value: float, block: int) -> np.ndarray:
    psi = _oscillator_functions(value, block).astype(complex)
    if axis == "p":
        psi = (1j) ** np.arange(block) * psi
    return np.outer(psi, psi.conj())


def _norm(field) -> float:
    return float((np.abs(field.values) ** 2).sum() * field.dq * field.dp / np.pi)


def check(item: Item, prepared, output) -> None:
    kind, params = item
    if kind == "wigner":
        _, re, im = params
        qg, pg = np.meshgrid(WIGNER_AXIS, WIGNER_AXIS, indexing="ij")
        exact = np.exp(-((qg - math.sqrt(2.0) * re) ** 2) - (pg - math.sqrt(2.0) * im) ** 2) / math.pi
        _within(f"wigner{params}", float(np.abs(output - exact).max()), TOL_WIGNER)
        _within(f"wigner{params} imaginary part", float(np.abs(output.imag).max()), TOL_REAL)
    elif kind == "marginal":
        error = float(np.abs(output.data - _projector(*params)).max())
        _within(f"marginal{params}", error, TOL_MARGINAL)
    elif kind == "sweep":
        block = SWEEP["block"]
        worst = 0.0
        for (m, r), got in output.items():
            want = fockspace.evaluate(conv.weyl_to_pq(m, r), SWEEP_DIM).data[:block, :block]
            worst = max(worst, float(np.abs(got - want).max()))
        expect(len(output) == 15, f"sweep returned {len(output)} monomials, not 15")
        _within("quantization sweep", worst, TOL_SWEEP)
    elif kind == "transform":
        forward, back = output
        expect(forward.reliable and back.reliable, f"transform{params} flagged unreliable")
        n = prepared.nq
        centre = (slice(n // 4, 3 * n // 4),) * 2
        _within(f"transform{params} round trip", float(np.abs(back.values - prepared.values)[centre].max()), TOL_ROUND_TRIP)
        _within(f"transform{params} input norm", abs(_norm(prepared) - 0.5), TOL_NORM_INPUT)
        _within(f"transform{params} output norm", abs(_norm(forward) - 0.5), TOL_NORM_OUTPUT)
    elif kind == "csv":
        grid, _ = prepared
        bounds = lambda f: (f.q_min, f.q_max, f.p_min, f.p_max, f.nq, f.np_)
        expect(bounds(output) == bounds(grid), "CSV round trip changed the grid header")
        expect(np.array_equal(output.values, grid.values), "CSV round trip changed a cell")
