import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from weylkit import fockspace as fs
from weylkit import ordering as conv
from weylkit.exactnum import I, ONE
from weylkit.opalg import OrderedPolynomial, Ordering


def test_build_ladder_entries():
    a, adag = fs.build_ladder(3)
    assert a.data[0, 1] == 1.0
    assert abs(a.data[1, 2] - math.sqrt(2.0)) < 1e-15
    assert np.count_nonzero(a.data) == 2
    assert np.array_equal(adag.data, a.data.conj().T)
    assert a.reliable_dim == 2


def test_build_ladder_commutator_block():
    a, adag = fs.build_ladder(16)
    comm = a.data @ adag.data - adag.data @ a.data
    assert np.abs(comm[:15, :15] - np.eye(15)).max() < 1e-14


def test_ladder_annihilates_vacuum():
    a, _ = fs.build_ladder(8)
    vacuum = np.eye(8)[:, 0]
    assert np.abs(a.data @ vacuum).max() == 0.0


def test_build_ladder_rejects_small_dim():
    with pytest.raises(ValueError):
        fs.build_ladder(1)


def test_build_qp_entries():
    q, p = fs.build_qp(2)
    assert abs(q.data[0, 1] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(q.data[1, 0] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert np.abs(q.data - q.data.conj().T).max() == 0.0
    assert np.abs(p.data - p.data.conj().T).max() < 1e-16


def test_vacuum_q_squared_expectation():
    q, _ = fs.build_qp(3)
    assert abs((q.data @ q.data)[0, 0] - 0.5) < 1e-15


def test_qp_commutator_block():
    q, p = fs.build_qp(64)
    comm = q.data @ p.data - p.data @ q.data
    assert np.abs(comm[:63, :63] - 1j * np.eye(63)).max() < 1e-13


def test_coherent_state_examples():
    vac = fs.coherent_state(0.0, 8)
    assert vac[0] == 1.0 and np.abs(vac[1:]).max() == 0.0
    state = fs.coherent_state(1.0, 64)
    a, _ = fs.build_ladder(64)
    residual = (a.data @ state - state)[:56]
    assert np.abs(residual).max() < 1e-8
    for beta in (2.0, 1.0 + 1.0j, -2.0j):
        vec = fs.coherent_state(beta, 64)
        assert abs(np.vdot(vec, vec) - 1.0) < 1e-10


def test_coherent_state_adequacy_guard():
    with pytest.raises(fs.TruncationError):
        fs.coherent_state(3.0, 16)


@pytest.mark.parametrize(
    "beta", [complex("nan"), math.inf, complex(1.0, -math.inf), math.nan]
)
def test_coherent_state_refuses_a_non_finite_amplitude(beta):
    # abs(nan)**2 > dim/4 is False: the adequacy guard alone misses nan.
    with pytest.raises(ValueError, match="finite"):
        fs.coherent_state(beta, 8)


def test_displacement_matches_scaling_and_squaring():
    a, adag = fs.build_ladder(48)
    rng = np.random.default_rng(7)
    for _ in range(8):
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        spectral = fs.displacement(alpha, 48)
        direct = expm(alpha * adag.data - np.conj(alpha) * a.data)
        assert np.abs(spectral - direct).max() < 1e-12


def _reference_kernel_blocks(qs, ps, block):
    # The entry-by-entry Laguerre closed form, one library call per entry:
    # (1/pi) (-1)^k sqrt(k!/j!) b^(j-k) e^{-|b|^2/2} L_k^(j-k)(|b|^2).
    beta = math.sqrt(2.0) * (np.asarray(qs) + 1j * np.asarray(ps))
    absq = np.abs(beta) ** 2
    damp = np.exp(-0.5 * absq)
    out = np.empty((len(beta), block, block), dtype=complex)
    for j in range(block):
        for k in range(j + 1):
            ratio = math.exp(0.5 * (math.lgamma(k + 1.0) - math.lgamma(j + 1.0)))
            val = ratio * beta ** (j - k) * damp * eval_genlaguerre(k, j - k, absq)
            sign = -1.0 if k % 2 else 1.0
            out[:, j, k] = sign * val
            out[:, k, j] = sign * np.conj(val)
    return out / math.pi


def _trust_disc_points(block, count, rng):
    # Points with |alpha|^2 <= block/8, a quarter of them on the edge.
    radius = math.sqrt(block / 8.0) * np.sqrt(rng.random(count))
    radius[: count // 4] = math.sqrt(block / 8.0)
    angle = rng.uniform(0.0, 2.0 * math.pi, count)
    alpha = radius * np.exp(1j * angle)
    return math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag


@pytest.mark.parametrize("block", [1, 2, 8, 64, 128])
def test_kernel_blocks_match_laguerre_reference(block):
    qs, ps = _trust_disc_points(block, 40, np.random.default_rng(block))
    got = fs._kernel_sums(qs, ps, np.eye(len(qs)), block)
    assert np.abs(got - _reference_kernel_blocks(qs, ps, block)).max() < 1e-12


def test_kernel_blocks_at_marginal_scale_points():
    rng = np.random.default_rng(11)
    qs = np.concatenate([[4.0, -4.0, 4.0, 0.0], rng.uniform(-4.0, 4.0, 20)])
    ps = np.concatenate([[12.0, -12.0, 0.0, 12.0], rng.uniform(-12.0, 12.0, 20)])
    got = fs._kernel_sums(qs, ps, np.eye(len(qs)), 128)
    assert np.isfinite(got).all()
    assert np.abs(got - _reference_kernel_blocks(qs, ps, 128)).max() < 1e-12


def test_quadrature_sweep_matches_reference_across_pass_seams():
    # 100 lines at 40 lines per pass: two full passes and a partial one.
    half_range, step, block = 2.5, 0.05, 6
    count = int(round(2.0 * half_range / step))
    lines = fs._KERNEL_CHUNK // count
    assert count > lines and count % lines
    got = fs.monomial_quantization_quadrature(
        4, block=block, half_range=half_range, step=step
    )
    grid = -half_range + (np.arange(count) + 0.5) * step
    want = {mr: 0.0 for mr in got}
    for q_value in grid:
        blocks = _reference_kernel_blocks(np.full(count, q_value), grid, block)
        for m, r in got:
            want[m, r] += np.einsum("n,njk->jk", q_value**m * grid**r, blocks)
    for mr, mat in got.items():
        assert np.abs(mat - want[mr] * step * step).max() < 1e-12, mr


def test_quadrature_sweep_default_grid_at_block_8():
    # The [-7, 7]^2 window sets the error at block 8, not the step: the
    # default step 0.05 and the finer 0.02 agree to about 1.5e-11.
    coarse = fs.monomial_quantization_quadrature(4, block=8)
    fine = fs.monomial_quantization_quadrature(4, block=8, step=0.02)
    assert len(coarse) == 15
    for (m, r), got in coarse.items():
        want = fs.evaluate(conv.weyl_to_pq(m, r), 64).data[:8, :8]
        assert np.abs(got - want).max() < 1e-8, (m, r)
        assert np.abs(got - fine[m, r]).max() < 1e-10, (m, r)


def test_wigner_function_matches_reference_across_chunks():
    dim = 128
    rng = np.random.default_rng(5)
    mix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mix @ mix.conj().T
    rho /= np.trace(rho)
    # |q|, |p| <= 4 keeps every point inside the trust disc of dim 128.
    axis = np.linspace(-4.0, 4.0, 65)
    assert len(axis) ** 2 > fs._KERNEL_CHUNK
    got = fs.wigner_function(rho, axis, axis).ravel()
    qg, pg = np.meshgrid(axis, axis, indexing="ij")
    seam = fs._KERNEL_CHUNK
    # The q rows are summed a few at a time (9 rows here); the last point
    # of every row and the first of the next straddle each possible seam.
    row_ends = np.arange(1, len(axis)) * len(axis)
    picks = np.unique(np.concatenate([
        [0, len(got) - 1],
        np.arange(seam - 3, seam + 3),
        rng.choice(len(got), 40, replace=False),
        row_ends - 1,
        row_ends,
    ]))
    blocks = _reference_kernel_blocks(qg.ravel()[picks], pg.ravel()[picks], dim)
    want = np.einsum("kj,njk->n", rho, blocks)
    assert np.abs(got[picks] - want).max() < 1e-12


def _laguerre_blocks(q_axis, p_axis, dim):
    # Kernel blocks from the Laguerre recurrence at every grid point,
    # shape (len(q_axis), len(p_axis), dim, dim).
    qg, pg = np.meshgrid(q_axis, p_axis, indexing="ij")
    blocks = fs._kernel_sums(qg.ravel(), pg.ravel(), np.eye(qg.size), dim)
    return blocks.reshape(qg.shape + (dim, dim))


def _laguerre_wigner(rho, blocks):
    # Tr[rho Delta] = sum_{j,k} rho[k,j] Delta[j,k].
    return np.einsum("kj,...jk->...", rho, blocks)


def _normalized(vec):
    return vec / np.linalg.norm(vec)


def _cross_route_axes(dim):
    # Points out to past the turning radius sqrt(2 dim + 1), unsorted and
    # unevenly spaced.
    edge = math.sqrt(2 * dim + 1)
    q_axis = edge * np.array([0.4, -1.1, 0.0, 0.93, -0.55, 1.04, -0.2])
    p_axis = edge * np.array([-0.7, 0.15, 1.08, -1.02, 0.6, 0.0])
    return q_axis, p_axis


@pytest.mark.parametrize("dim", [14, 64, 128])
def test_wigner_function_matches_laguerre_route_on_pure_and_mixed_states(dim):
    q_axis, p_axis = _cross_route_axes(dim)
    blocks = _laguerre_blocks(q_axis, p_axis, dim)
    rng = np.random.default_rng(dim)
    coherent = [
        _normalized(fs.coherent_state(beta, dim))
        for beta in (0.0, 1.2 - 0.5j, -0.8 + 1.1j, math.sqrt(dim / 5.0) * 1j)
    ]
    states = [np.outer(vec, vec.conj()) for vec in coherent]
    fock = np.zeros((dim, dim))
    fock[3, 3] = 1.0
    states.append(0.5 * states[1] + 0.3 * states[2] + 0.2 * fock)
    mix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    positive = mix @ mix.conj().T
    states.append(positive / np.trace(positive))
    # Hermitian with unit trace but not positive.
    indefinite = (mix + mix.conj().T) / 2.0
    indefinite += np.eye(dim) * (1.0 - np.trace(indefinite)) / dim
    states.append(indefinite)
    for rho in states:
        got = fs.wigner_function(rho, q_axis, p_axis)
        assert np.abs(got - _laguerre_wigner(rho, blocks)).max() < 1e-12


@pytest.mark.parametrize("dim", [14, 64, 128])
def test_wigner_function_matches_laguerre_route_on_every_fock_state(dim):
    q_axis, p_axis = _cross_route_axes(dim)
    # The Wigner function of |n> is the kernel's diagonal entry n.
    diagonals = np.einsum("...nn->n...", _laguerre_blocks(q_axis, p_axis, dim))
    for n in range(dim):
        rho = np.zeros((dim, dim))
        rho[n, n] = 1.0
        got = fs.wigner_function(rho, q_axis, p_axis)
        assert np.abs(got - diagonals[n]).max() < 1e-12, n


def test_wigner_function_axes_shapes():
    rho = np.zeros((8, 8))
    rho[0, 0] = 1.0
    for q_axis, p_axis, shape in (
        ([], [0.0], (0, 1)),
        ([0.0, 1.0], [], (2, 0)),
        ([], [], (0, 0)),
        (0.3, -0.2, (1, 1)),
    ):
        got = fs.wigner_function(rho, q_axis, p_axis)
        assert got.shape == shape and got.dtype == complex
    single = fs.wigner_function(rho, [0.3], [-0.2])
    assert abs(single[0, 0] - math.exp(-0.13) / math.pi) < 1e-15


def test_wigner_function_on_unsorted_uneven_axes():
    dim = 32
    rng = np.random.default_rng(17)
    vec = _normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    rho = np.outer(vec, vec.conj())
    q_axis = rng.uniform(-7.0, 7.0, 23)
    p_axis = np.concatenate([rng.uniform(-7.0, 7.0, 11), [0.5, 0.5, -0.5]])
    got = fs.wigner_function(rho, q_axis, p_axis)
    want = _laguerre_wigner(rho, _laguerre_blocks(q_axis, p_axis, dim))
    assert np.abs(got - want).max() < 1e-12
    order_q, order_p = np.argsort(q_axis), np.argsort(p_axis)
    in_order = fs.wigner_function(rho, q_axis[order_q], p_axis[order_p])
    assert np.abs(in_order - got[np.ix_(order_q, order_p)]).max() < 1e-12


def test_wigner_function_across_a_p_block_seam():
    # More than _KERNEL_CHUNK p points: the p axis is taken in blocks.
    dim = 8
    p_axis = np.linspace(-5.0, 5.0, fs._KERNEL_CHUNK + 7)
    q_axis = [-0.4, 1.3]
    rho = np.diag(np.linspace(1.0, 2.0, dim)) / np.linspace(1.0, 2.0, dim).sum()
    got = fs.wigner_function(rho, q_axis, p_axis)
    cols = np.arange(fs._KERNEL_CHUNK - 3, fs._KERNEL_CHUNK + 3)
    want = _laguerre_wigner(rho, _laguerre_blocks(q_axis, p_axis[cols], dim))
    assert np.abs(got[:, cols] - want).max() < 1e-12


def test_wigner_function_trust_region_edge():
    # Past the reach R = sqrt(2 dim + 1) + 6 the Wigner function is below
    # rounding, so points there are returned as 0; inside it they are summed.
    dim = 64
    reach = math.sqrt(2 * dim + 1) + 6.0
    rho = np.zeros((dim, dim))
    rho[dim - 1, dim - 1] = 1.0
    axis = np.array([0.0, reach - 1e-9, reach + 1e-9, -reach - 1e-9, 50.0])
    got = fs.wigner_function(rho, axis, axis)
    want = _laguerre_wigner(rho, _laguerre_blocks(axis, axis, dim))
    assert np.abs(want[:, 2:]).max() < 1e-30 and np.abs(want[2:]).max() < 1e-30
    assert np.all(got[:, 2:] == 0) and np.all(got[2:] == 0)
    assert np.abs(got - want).max() < 1e-12


def test_wigner_function_far_axes_run_in_bounded_memory():
    # An unclipped position grid would grow with max|p|: 1.4e7 points at
    # |p| = 1e6, a 14 GB table at dim 64.  Far coordinates used to give nan.
    dim = 64
    state = fs.coherent_state(0.5, dim)
    rho = np.outer(state, state.conj())
    near = fs.wigner_function(rho, [0.0, 0.7], [0.0, 0.3])
    tracemalloc.start()
    try:
        got = fs.wigner_function(rho, [0.0, 0.7, 1e200], [0.0, 0.3, 1e6, -1e300])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.array_equal(got[:2, :2], near)
    assert np.all(got[2] == 0) and np.all(got[:, 2:] == 0)


def test_wigner_function_refuses_a_dim_past_its_trust_region():
    # psi_0 = pi^(-1/4) e^{-x^2/2} must stay a normal double out to the
    # reach: sqrt(2 dim + 1) + 6 <= 37 holds up to dim 480.
    edge = np.zeros((480, 480))
    edge[479, 479] = 1.0
    assert np.isfinite(fs.wigner_function(edge, [0.0, 31.0], [0.0])).all()
    past = np.eye(481) / 481
    with pytest.raises(fs.TruncationError, match="dim <= 480"):
        fs.wigner_function(past, [0.0], [0.0])
    with pytest.raises(ValueError):
        fs.wigner_function(past, [0.0], [0.0])


def _kernel_at(q, p, dim):
    return fs._kernel_sums([q], [p], np.ones((1, 1)), dim)[0]


def test_wigner_operator_at_origin_is_parity():
    w = _kernel_at(0.0, 0.0, 16)
    assert np.abs(w - np.diag((-1.0) ** np.arange(16)) / math.pi).max() < 1e-15


def test_wigner_operator_is_hermitian():
    w = _kernel_at(1.3, -0.7, 32)
    assert np.abs(w - w.conj().T).max() < 1e-12


def test_wigner_operator_displaced_parity_identity():
    # Standing identity: the closed-form entries agree with the
    # exponentiate-then-sandwich construction away from the truncation
    # boundary (the product spreads about dim/2 levels here).
    dim = 64
    for (q, p) in ((0.5, 0.5), (1.0, -1.0), (0.0, 1.4), (-1.2, 0.0)):
        w = _kernel_at(q, p, dim)
        disp = fs.displacement(complex(q, p) / math.sqrt(2.0), dim)
        parity = np.diag((-1.0) ** np.arange(dim))
        sandwich = disp @ parity @ disp.conj().T / math.pi
        half = dim // 2
        assert np.abs((w - sandwich)[:half, :half]).max() < 1e-12


def test_wigner_operator_coherent_expectation():
    beta = 0.6 + 0.3j
    state = fs.coherent_state(beta, 64)
    qb, pb = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
    for (q, p) in ((0.0, 0.0), (1.0, 1.0), (-0.5, 0.25)):
        w = _kernel_at(q, p, 64)
        got = np.vdot(state, w @ state)
        want = math.exp(-((q - qb) ** 2) - (p - pb) ** 2) / math.pi
        assert abs(got - want) < 1e-6


def test_wigner_operator_vacuum_trace_at_origin():
    w = _kernel_at(0.0, 0.0, 64)
    rho = np.zeros((64, 64), dtype=complex)
    rho[0, 0] = 1.0
    assert abs(np.trace(rho @ w) - 1.0 / math.pi) < 1e-14


def test_evaluate_commutator_identity():
    poly = OrderedPolynomial.from_terms(Ordering.PQ, [((1, 1), ONE), ((0, 0), I)])
    lhs = fs.evaluate(poly, 24)
    rhs = fs.evaluate(OrderedPolynomial.monomial(Ordering.QP, 1, 1), 24)
    block = slice(0, min(lhs.reliable_dim, rhs.reliable_dim))
    assert np.abs(lhs.data[block, block] - rhs.data[block, block]).max() < 1e-13


def test_evaluate_against_direct_product():
    mat = fs.evaluate(conv.qp_to_pq(2, 2), 32)
    q, p = fs.build_qp(32)
    direct = q.data @ q.data @ p.data @ p.data
    block = slice(0, mat.reliable_dim)
    assert np.abs(mat.data[block, block] - direct[block, block]).max() < 1e-10


def test_evaluate_zero_and_weyl_guard():
    zero = fs.evaluate(OrderedPolynomial.zero(Ordering.PQ), 8)
    assert np.abs(zero.data).max() == 0.0
    with pytest.raises(ValueError):
        fs.evaluate(OrderedPolynomial.monomial(Ordering.WEYL, 1, 1), 8)


def test_wigner_function_coherent_gaussian():
    beta = 0.5 - 0.5j
    state = fs.coherent_state(beta, 64)
    rho = np.outer(state, state.conj())
    axis = np.linspace(-3.0, 3.0, 13)
    w = fs.wigner_function(rho, axis, axis)
    qg, pg = np.meshgrid(axis, axis, indexing="ij")
    qb, pb = math.sqrt(2.0) * beta.real, math.sqrt(2.0) * beta.imag
    exact = np.exp(-((qg - qb) ** 2) - (pg - pb) ** 2) / math.pi
    assert np.abs(w - exact).max() < 1e-6
    assert np.abs(w.imag).max() < 1e-8


def test_wigner_function_validates_state():
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        fs.wigner_function(bad, np.array([0.0]), np.array([0.0]))
    unnormalized = np.eye(8, dtype=complex)
    with pytest.raises(ValueError):
        fs.wigner_function(unnormalized, np.array([0.0]), np.array([0.0]))
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fs.wigner_function(rho, [bad, 0.0], [0.0])
        with pytest.raises(ValueError):
            fs.wigner_function(rho, [0.0], [0.0, bad])


@pytest.mark.parametrize("entry", [(1, 1), (0, 2)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_wigner_function_refuses_a_non_finite_state(entry, bad):
    # The Hermitian and trace checks compare with >, which is False for
    # nan: they alone would return nan samples.
    rho = np.eye(4, dtype=complex) / 4
    rho[entry] = bad
    with pytest.raises(ValueError, match="state must be a finite square matrix"):
        fs.wigner_function(rho, [0.0], [0.0])


def test_wigner_function_quick_normalization():
    state = fs.coherent_state(0.4 + 0.2j, 32)
    rho = np.outer(state, state.conj())
    step = 0.1
    count = int(round(12.0 / step))
    axis = -6.0 + (np.arange(count) + 0.5) * step
    w = fs.wigner_function(rho, axis, axis)
    assert abs(w.real.sum() * step * step - 1.0) < 1e-3


def test_marginal_origin_entries():
    numeric, analytic = fs.marginal_check("q", 0.0, 64, block=8)
    assert abs(numeric.data[0, 0].real - 1.0 / math.sqrt(math.pi)) < 1e-6
    assert abs(numeric.data[0, 1]) < 1e-6
    assert np.abs(numeric.data - analytic.data).max() < 1e-6
    numeric_p, _ = fs.marginal_check("p", 0.0, 64, block=8)
    assert abs(numeric_p.data[0, 0].real - 1.0 / math.sqrt(math.pi)) < 1e-6


def _marginal_grid(block):
    # The midpoint grid the marginal derives from its block: reach
    # R = sqrt(2 block + 1) + 6, step pi / (R + 6), points h (n + 1/2).
    reach = math.sqrt(2 * block + 1) + 6.0
    step = math.pi / (reach + 6.0)
    half = math.ceil(reach / step)
    return step * (np.arange(-half, half) + 0.5), step


@pytest.mark.parametrize("block", [1, 2, 8, 16, 31, 64, 128])
def test_marginal_matches_the_projector_on_the_whole_block(block):
    # Every entry of the block is trusted, not only a corner: a fixed
    # window of half-width 12 holds only the top-left 31 x 31.
    for axis, projector in (("q", fs.position_projector), ("p", fs.momentum_projector)):
        for value in (-4.0, -2.0, 0.0, 1.3, 4.0):
            numeric, analytic = fs.marginal_check(axis, value, block)
            assert numeric.reliable_dim == analytic.reliable_dim == block
            assert np.array_equal(analytic.data, projector(value, block))
            assert np.abs(numeric.data - analytic.data).max() < 1e-12, (axis, value)


def test_marginal_matches_reference_sum():
    grid, step = _marginal_grid(12)
    assert len(grid) == 120
    numeric, _ = fs.marginal_check("p", 1.5, 64, block=12)
    blocks = _reference_kernel_blocks(grid, np.full(len(grid), 1.5), 12)
    assert np.abs(numeric.data - blocks.sum(axis=0) * step).max() < 1e-12


def test_kernel_sums_match_reference_across_a_chunk_seam():
    # 8000 points: the chunk seam falls near q = 0.3, where the kernel is
    # large.  One weight row sums every point, the other only the six
    # points at the seam.
    step = 0.003
    grid = -12.0 + (np.arange(8000) + 0.5) * step
    seam = fs._KERNEL_CHUNK
    assert len(grid) > seam
    weights = np.zeros((2, len(grid)))
    weights[0] = step
    weights[1, seam - 3:seam + 3] = 1.0
    ps = np.full(len(grid), 1.5)
    got = fs._kernel_sums(grid, ps, weights, 12)
    blocks = _reference_kernel_blocks(grid, ps, 12)
    want = np.einsum("wn,njk->wjk", weights, blocks)
    assert np.abs(got - want).max() < 1e-12


def test_marginal_memory_is_bounded_by_the_chunk():
    # One (points x block x block) array would be 103 MB at block 128 on
    # its 394 points; a few columns of (block x points) are under 1 MB
    # each, and the peak is about 4 MB.
    tracemalloc.start()
    try:
        numeric, _ = fs.marginal_check("q", 0.0, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_marginal_grid(128)[0]) == 394
    assert peak < 16e6
    assert np.isfinite(numeric.data).all()


def test_marginal_check_guards():
    with pytest.raises(ValueError):
        fs.marginal_check("x", 0.0, 16)
    with pytest.raises(ValueError):
        fs.marginal_check("q", 5.0, 16)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fs.marginal_check("q", bad, 16)
        with pytest.raises(ValueError):
            fs.marginal_check("p", bad, 16)
    for block in (0, -1):
        with pytest.raises(ValueError, match="block"):
            fs.marginal_check("q", 0.0, 16, block=block)
    with pytest.raises(ValueError, match="block"):
        fs.marginal_check("p", 0.0, 0)
    # The grid follows from the block: a window or a step is not taken.
    for option in ("half_range", "step"):
        with pytest.raises(TypeError):
            fs.marginal_check("q", 0.0, 16, **{option: 1.0})


def test_hermite_functions_match_explicit_forms():
    for x in (-1.5, 0.0, 0.3, 2.0):
        psi = fs.hermite_functions(x, 4)
        norm = math.pi ** -0.25 * math.exp(-x * x / 2.0)
        assert abs(psi[0] - norm) < 1e-15
        assert abs(psi[1] - math.sqrt(2.0) * x * norm) < 1e-14
        assert abs(psi[2] - (2.0 * x * x - 1.0) / math.sqrt(2.0) * norm) < 1e-13


def test_hermite_functions_vectorize_over_x():
    xs = np.array([[-1.5, 0.0], [0.3, 2.0], [7.5, -40.0]])
    table = fs.hermite_functions(xs, 9)
    assert table.shape == (9, 3, 2)
    for index in np.ndindex(xs.shape):
        assert np.array_equal(table[(slice(None),) + index], fs.hermite_functions(xs[index], 9))
    assert fs.hermite_functions(0.5, 1).shape == (1,)


def test_fock_matrix_validation():
    with pytest.raises(ValueError):
        fs.FockMatrix(np.zeros((2, 3)), 1)
    with pytest.raises(ValueError):
        fs.FockMatrix(np.zeros((3, 3)), 4)
