"""Truncated-Fock-space matrices: the numeric ground truth.

Ladder, coordinate and momentum operators are the standard dense
truncations.  The phase-space kernel operator (the displaced parity,
scaled by 1/pi) needs more care: exponentiating the *truncated*
displacement generator is machine-exact only while the doubled
displacement stays well inside the basis, and boundary reflection
corrupts the low matrix elements far outside that disc.  The kernel
entries are therefore computed in closed form -- matrix elements of the
full displacement operator, which carry the true Gaussian decay in
(q, p) -- and then truncated.  The test suite takes the kernel at one
point as ``_kernel_sums([q], [p], np.ones((1, 1)), dim)[0]`` and pins,
at dim 64 and |alpha| <= 1, that its top-left 32 x 32 block agrees to
1e-12 with (1/pi) D(alpha) Pi D(alpha)+ built from :func:`displacement`,
which is itself pinned against a scaling-and-squaring matrix exponential.

The marginals, the quantization sweep and the transforms that
``verify transform`` checks use one kernel evaluator, because they check
the kernel itself.  With b = 2 alpha and x = |b|^2, the normalised
entries

    e_k^(d) = (1/pi) e^{-x/2} b^d sqrt(k!/(k+d)!) L_k^(d)(x) = (-1)^k Delta[k+d, k]

obey the Laguerre three-term recurrence rescaled to them,

    sqrt((k+1)(k+1+d)) e_{k+1} = (2k+1+d-x) e_k - sqrt(k(k+d)) e_{k-1},

which walks every diagonal d at once: a dim x dim block at N points
costs O(dim^2 N), with no factorial and no special-function call.
Every consumer contracts each column as it is generated, over passes
of at most ``_KERNEL_CHUNK`` points, so memory stays O(dim * chunk)
and no block per point is ever formed.

Wigner grids take the other route to Tr[rho Delta]: the coordinate form
Delta(q, p) = (1/pi) int dv |q+v><q-v| e^{2ipv} turns a grid into a
Hermite recurrence on one shared position grid and two matrix products,
O(dim * rows * len(x)) instead of O(dim^2 * points); see
:func:`wigner_function`.  The two routes share no code past the state,
so each checks the other (``verify wigner`` and the tests).

Quadratures use the midpoint rule on uniform grids.  Passes are
accumulated in a fixed order, so results are reproducible independent
of any parallel scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .opalg import OrderedPolynomial, Ordering

SQRT2 = math.sqrt(2.0)
# Points per pass of every kernel sweep, and entries per chunk of a Wigner
# grid's mirror-point recurrence: bounds their memory at O(dim * chunk).
_KERNEL_CHUNK = 4096


class TruncationError(ValueError):
    """The requested evaluation is outside the reliable truncation zone."""


@dataclass(frozen=True)
class FockMatrix:
    """Dense operator on the first ``dim`` number states.

    Only the top-left ``reliable_dim`` square is guaranteed free of
    truncation artifacts; comparisons should restrict to it.
    """

    data: np.ndarray
    reliable_dim: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("FockMatrix data must be square")
        if not 1 <= self.reliable_dim <= data.shape[0]:
            raise ValueError("reliable_dim must be in 1..dim")

    @property
    def dim(self) -> int:
        return self.data.shape[0]


# ---------------------------------------------------------------------------
# Basic operators and states
# ---------------------------------------------------------------------------


def build_ladder(dim: int) -> tuple[FockMatrix, FockMatrix]:
    """Annihilation and creation matrices; exact except the last level."""
    if dim < 2:
        raise ValueError("need at least two levels")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return (
        FockMatrix(a, dim - 1),
        FockMatrix(a.conj().T, dim - 1),
    )


def build_qp(dim: int) -> tuple[FockMatrix, FockMatrix]:
    """Coordinate and momentum matrices Q = (a + a+)/sqrt2, P = (a - a+)/(sqrt2 i)."""
    a, adag = build_ladder(dim)
    q = (a.data + adag.data) / SQRT2
    p = (a.data - adag.data) / (1j * SQRT2)
    return FockMatrix(q, dim - 1), FockMatrix(p, dim - 1)


def coherent_state(beta: complex, dim: int) -> np.ndarray:
    """Normalized coherent-state column, componentwise e^{-|b|^2/2} b^n/sqrt(n!)."""
    if abs(beta) ** 2 > dim / 4.0:
        raise TruncationError(
            f"|beta|^2 = {abs(beta) ** 2:.3f} too large for dim {dim}; "
            f"need |beta|^2 <= dim/4"
        )
    vec = np.empty(dim, dtype=complex)
    vec[0] = math.exp(-abs(beta) ** 2 / 2.0)
    for n in range(1, dim):
        vec[n] = vec[n - 1] * beta / math.sqrt(n)
    return vec


@lru_cache(maxsize=8)
def _displacement_eigensystem(dim: int):
    # a+ - a = i*H with H Hermitian; cache the eigensystem per dimension.
    _, adag = build_ladder(dim)
    herm = -1j * (adag.data - adag.data.conj().T)
    eigvals, eigvecs = np.linalg.eigh(herm)
    return eigvals, eigvecs, eigvecs.conj().T


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a+ - conj(alpha) a) on the truncated basis.

    Computed spectrally from the Hermitian generator; agrees with a
    scaling-and-squaring matrix exponential to better than 1e-12.
    """
    eigvals, vecs, vecs_h = _displacement_eigensystem(dim)
    mag, phase = abs(alpha), np.angle(alpha) if alpha != 0 else 0.0
    core = (vecs * np.exp(1j * mag * eigvals)) @ vecs_h
    rot = np.exp(1j * phase * np.arange(dim))
    return (rot[:, None] * core) * rot.conj()[None, :]


# ---------------------------------------------------------------------------
# Phase-space kernel operator
# ---------------------------------------------------------------------------


def _kernel_columns(qs: np.ndarray, ps: np.ndarray, dim: int):
    """Yield, for k = 0..dim-1, the kernel column Delta[k+d, k] for d < dim-k.

    Each column has shape (dim-k, n) over the n points.  Entries are
    (1/pi) (-1)^k <j|D(2 alpha)|k> with the displacement matrix element
    in Laguerre closed form,

        <j|D(b)|k> = sqrt(k!/j!) b^(j-k) e^{-|b|^2/2} L_k^(j-k)(|b|^2),

    for j >= k; the j < k triangle follows from Hermiticity of the
    kernel.  With d = j - k and x = |b|^2, the normalised entries

        e_k^(d) = (1/pi) e^{-x/2} b^d sqrt(k!/(k+d)!) L_k^(d)(x)

    start from the running product e_0^(d) = e^{-x/2} b^d / sqrt(d!) / pi
    and obey the rescaled three-term recurrence

        sqrt((k+1)(k+1+d)) e_{k+1} = (2k+1+d-x) e_k - sqrt(k(k+d)) e_{k-1},

    one step per k over every diagonal and point.  The parity sign
    (-1)^k rides along by flipping the middle coefficient to (x-2k-1-d);
    the coefficients depend only on (k, d) and are tabled once per call.
    Each entry is a matrix element of a unitary over pi, so
    |e_k^(d)| <= 1/pi: nothing overflows and no factorial is formed.
    These are the entries of the untruncated operator, so they decay like
    e^{-(q^2+p^2)} and quadratures against polynomial weights converge on
    any fixed block.
    """
    beta = SQRT2 * (qs + 1j * ps)
    x = np.abs(beta) ** 2
    col = np.empty((dim, len(qs)), dtype=complex)
    col[0] = np.exp(-0.5 * x) / np.pi
    for d in range(1, dim):
        col[d] = col[d - 1] * beta / math.sqrt(d)
    # Recurrence coefficients, indexed [k, d].
    ks = np.arange(dim, dtype=float)[:, None]
    ds = ks.T
    middle = 2 * ks + 1 + ds
    inv = 1.0 / np.sqrt((ks + 1) * (ks + 1 + ds))
    lower = np.sqrt(ks * (ks + ds)) * inv
    prev = col
    for k in range(dim):
        yield col
        rows = dim - k - 1
        if rows == 0:
            return
        step = ((x - middle[k, :rows, None]) * inv[k, :rows, None]) * col[:rows]
        if k:
            step -= lower[k, :rows, None] * prev[:rows]
        prev, col = col[:rows], step


def _fill_upper(acc: np.ndarray) -> np.ndarray:
    """Fill the strict upper triangle of each trailing square of ``acc``
    from its lower triangle by Hermiticity; real weights keep it."""
    acc += np.tril(acc, -1).conj().swapaxes(-1, -2)
    return acc


def _kernel_sums(qs, ps, weights, block: int) -> np.ndarray:
    """Weighted sums of the kernel's top-left block, shape (W, block, block).

    Entry i is sum_n weights[i, n] Delta(q_n, p_n) for real weights of
    shape (W, n).  Points are taken ``_KERNEL_CHUNK`` at a time and each
    column is contracted with the weights as it is generated, one matrix
    product per k, so no block per point is ever formed.
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    out = np.zeros((len(weights), block, block), dtype=complex)
    for start in range(0, len(qs), _KERNEL_CHUNK):
        part = slice(start, start + _KERNEL_CHUNK)
        # Complex so each product stays in BLAS.
        wt = np.asarray(weights[:, part], dtype=complex).T
        for k, col in enumerate(_kernel_columns(qs[part], ps[part], block)):
            out[:, k:, k] += (col @ wt).T
    return _fill_upper(out)


def evaluate(poly: OrderedPolynomial, dim: int) -> FockMatrix:
    """Matrix of a PQ- or QP-tagged polynomial on the truncated basis."""
    if poly.ordering is Ordering.WEYL:
        raise ValueError(
            "Weyl-tagged polynomials are symbolic; convert to PQ or QP first"
        )
    q, p = build_qp(dim)
    max_m = max((m for m, _ in poly.terms), default=0)
    max_r = max((r for _, r in poly.terms), default=0)
    q_pows = _matrix_powers(q.data, max_m)
    p_pows = _matrix_powers(p.data, max_r)
    total = np.zeros((dim, dim), dtype=complex)
    for (m, r), coeff in poly.terms.items():
        if poly.ordering is Ordering.PQ:
            word = p_pows[r] @ q_pows[m]
        else:
            word = q_pows[m] @ p_pows[r]
        total += coeff.to_complex() * word
    reliable = max(1, dim - poly.max_degree())
    return FockMatrix(total, reliable)


def _matrix_powers(mat: np.ndarray, top: int) -> list[np.ndarray]:
    powers = [np.eye(mat.shape[0], dtype=complex)]
    for _ in range(top):
        powers.append(powers[-1] @ mat)
    return powers


# ---------------------------------------------------------------------------
# Wigner functions and marginals
# ---------------------------------------------------------------------------


def wigner_function(rho: FockMatrix | np.ndarray, q_axis, p_axis) -> np.ndarray:
    """Samples of Tr[rho * kernel(q, p)] on the grid q_axis x p_axis.

    Returns the (len(q_axis), len(p_axis)) array of samples.  The state
    must be Hermitian with unit trace (checked to 1e-8), and every
    coordinate finite; the axes may be unsorted and non-uniform.  Values
    are returned complex; they are real to working precision for a valid
    state.

    The samples come from the coordinate form of the kernel,
    Delta(q, p) = (1/pi) int dv |q+v><q-v| e^{2ipv}, so that with x = q + v

        W(q, p) = (1/pi) e^{-2ipq} int dx <2q-x|rho|x> e^{2ipx},

    summed by the trapezoid rule on one position grid x that every q row
    shares.  The trust region follows from dim alone:

    * reach R = sqrt(2 dim + 1) + 6: every psi_n with n < dim, and so W
      itself, is below rounding past R, so a point with |q| or |p| > R
      is returned as 0;
    * step h = pi / (max|p| + R + 6) over the points with |p| <= R: the
      sum's aliases W(q, p + m pi/h), m != 0, then lie past R + 6;
    * x runs over h * {-ceil(R/h), ..., ceil(R/h)}, so it holds at most
      about 2R(2R + 6)/pi + 3 points whatever the axes;
    * the recurrence starts from psi_0 = pi^(-1/4) e^{-x^2/2}, which
      stays a normal double only while |x| <= 37, so a state with
      R > 37 (dim > 480) is refused with :class:`TruncationError`.

    Against the Laguerre kernel (:func:`_kernel_sums`) at dims 14, 64
    and 128, out to 1.1 times the turning radius sqrt(2 dim + 1), the
    largest difference measured was 1.2e-16 on coherent states, 1.6e-16
    on random positive states, 3.5e-14 on Fock states (at |127>), and
    6.9e-14 on a random indefinite Hermitian matrix of unit trace.

    With Phi = rho @ Psi(x), the kernel K[q, x] = <2q-x|rho|x> is
    summed as sum_n psi_n(2q - x) Phi_n(x), the recurrence running at
    the mirror points 2q - x, ``_KERNEL_CHUNK // len(x)`` q rows at a
    time; then W = (h/pi) e^{-2ipq} (K @ e^{2ixp}), in p blocks of at
    most ``_KERNEL_CHUNK`` columns.
    """
    mat = rho.data if isinstance(rho, FockMatrix) else np.asarray(rho, complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("state must be a square matrix")
    if np.abs(mat - mat.conj().T).max() > 1e-8:
        raise ValueError("state must be Hermitian (tolerance 1e-8)")
    if abs(np.trace(mat) - 1.0) > 1e-8:
        raise ValueError("state must have unit trace (tolerance 1e-8)")
    dim = mat.shape[0]
    qs = np.asarray(q_axis, float).ravel()
    ps = np.asarray(p_axis, float).ravel()
    if not (np.isfinite(qs).all() and np.isfinite(ps).all()):
        raise ValueError("phase-space coordinates must be finite")
    reach = math.sqrt(2 * dim + 1) + 6.0
    if reach > 37.0:
        raise TruncationError(
            f"dim {dim} too large for the Wigner grid: need "
            f"sqrt(2*dim+1) + 6 <= 37, i.e. dim <= 480"
        )

    out = np.zeros((len(qs), len(ps)), dtype=complex)
    rows = np.flatnonzero(np.abs(qs) <= reach)
    cols = np.flatnonzero(np.abs(ps) <= reach)
    if not (rows.size and cols.size):
        return out
    step = math.pi / (np.abs(ps[cols]).max() + reach + 6.0)
    half = math.ceil(reach / step)
    xs = step * np.arange(-half, half + 1)
    phi = mat @ hermite_functions(xs, dim)
    lines = max(1, _KERNEL_CHUNK // len(xs))
    for first in range(0, len(cols), _KERNEL_CHUNK):
        block = cols[first:first + _KERNEL_CHUNK]
        wave = np.exp(2j * np.outer(xs, ps[block]))
        for start in range(0, len(rows), lines):
            chunk = rows[start:start + lines]
            kern = np.zeros((len(chunk), len(xs)), dtype=complex)
            mirror = 2.0 * qs[chunk, None] - xs
            for psi, phi_n in zip(_hermite_rows(mirror, dim), phi):
                kern += psi * phi_n
            phase = np.exp(-2j * np.outer(qs[chunk], ps[block])) * (step / math.pi)
            out[np.ix_(chunk, block)] = phase * (kern @ wave)
    return out


def _hermite_rows(x: np.ndarray, count: int):
    """Yield psi_0(x), ..., psi_{count-1}(x), each shaped like x, by the
    stable three-term recurrence on the normalized functions themselves."""
    prev, cur = 0.0, math.pi ** -0.25 * np.exp(-x * x / 2.0)
    for n in range(1, count + 1):
        yield cur
        if n < count:
            nxt = math.sqrt(2.0 / n) * x * cur
            nxt -= math.sqrt((n - 1) / n) * prev
            prev, cur = cur, nxt


def hermite_functions(x, count: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_0..psi_{count-1} at x, shape
    (count,) + shape(x), by the recurrence of :func:`_hermite_rows`."""
    x = np.asarray(x, dtype=float)
    return np.array(list(_hermite_rows(x, count))).reshape((count,) + x.shape)


def position_projector(value: float, block: int) -> np.ndarray:
    """Matrix elements <m|q><q|n> = psi_m(q) psi_n(q)."""
    psi = hermite_functions(value, block)
    return np.outer(psi, psi).astype(complex)


def momentum_projector(value: float, block: int) -> np.ndarray:
    """Matrix elements <m|p><p|n>; the momentum eigenfunction picks up i^m."""
    psi = hermite_functions(value, block)
    vec = (1j) ** np.arange(block) * psi
    return np.outer(vec, vec.conj())


def marginal_check(
    axis: str,
    value: float,
    dim: int,
    *,
    block: int | None = None,
    half_range: float = 12.0,
    step: float = 0.01,
) -> tuple[FockMatrix, FockMatrix]:
    """Quadrature marginal of the kernel against the analytic projector.

    Integrating out p at fixed q = value must give |q><q|, and
    symmetrically for the p axis.  Returns (numeric, analytic) matrices
    of size ``block`` (defaults to ``dim``).  The quadrature window
    [-L, L] bounds which entries converge: entry (m, n) needs the
    classical turning radius sqrt(2 max(m,n)+1) plus a Gaussian tail
    inside L, which is what the declared reliable_dim records.
    """
    if axis not in ("q", "p"):
        raise ValueError("axis must be 'q' or 'p'")
    if not abs(value) <= 4.0:
        raise ValueError("marginal value must satisfy |value| <= 4")
    if block is None:
        block = dim
    count = int(round(2.0 * half_range / step))
    grid = -half_range + (np.arange(count) + 0.5) * step
    fixed = np.full(count, float(value))
    if axis == "q":
        qs, ps = fixed, grid
        analytic = position_projector(value, block)
    else:
        qs, ps = grid, fixed
        analytic = momentum_projector(value, block)
    numeric = _kernel_sums(qs, ps, np.full((1, count), step), block)[0]
    reliable = int(max(1, min(block, ((half_range - 4.0) ** 2 - 1.0) // 2)))
    return (
        FockMatrix(numeric, reliable),
        FockMatrix(analytic, block),
    )


# ---------------------------------------------------------------------------
# Quantization quadratures
# ---------------------------------------------------------------------------


def monomial_quantization_quadrature(
    max_total_degree: int,
    *,
    block: int = 8,
    half_range: float = 7.0,
    step: float = 0.02,
) -> dict[tuple[int, int], np.ndarray]:
    """All integrals of q^m p^r against the kernel, in one grid sweep.

    Returns the top-left ``block`` square of each operator
    double-integral dq dp q^m p^r Delta(q, p) for m + r up to the given
    total degree, by the midpoint rule on [-L, L]^2.  One sweep serves
    every monomial: each pass takes as many whole grid lines as fit
    ``_KERNEL_CHUNK`` points, contracts every kernel column along the
    lines against the p powers and then across them against the q
    powers, and passes are accumulated in a fixed order.
    """
    monomials = [
        (m, r)
        for m in range(max_total_degree + 1)
        for r in range(max_total_degree + 1 - m)
    ]
    count = int(round(2.0 * half_range / step))
    grid = -half_range + (np.arange(count) + 0.5) * step
    # powers[i, r] = grid[i]^r; complex so the contractions stay in BLAS.
    powers = np.vander(grid, max_total_degree + 1, increasing=True).astype(complex)
    # acc[m, r] holds the lower triangle of the q^m p^r integral.
    top = max_total_degree + 1
    acc = np.zeros((top, top, block, block), dtype=complex)
    lines = max(1, _KERNEL_CHUNK // count)
    for start in range(0, count, lines):
        q_powers = powers[start:start + lines].T
        taken = q_powers.shape[1]
        qs = np.repeat(grid[start:start + lines], count)
        ps = np.tile(grid, taken)
        for k, col in enumerate(_kernel_columns(qs, ps, block)):
            # Sum along each line against p^r, then across lines against q^m.
            by_p = (col.reshape(-1, count) @ powers).reshape(block - k, taken, -1)
            acc[:, :, k:, k] += np.moveaxis(q_powers @ by_p, 0, -1)
    _fill_upper(acc)
    weight = step * step
    return {(m, r): acc[m, r] * weight for m, r in monomials}


def symbol_quantization(
    symbol_terms: dict[tuple[int, int], complex],
    quadratures: dict[tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Quantize a polynomial symbol sum c[m,r] q^m p^r using precomputed
    monomial quadratures."""
    keys = iter(quadratures.values())
    shape = next(keys).shape
    total = np.zeros(shape, dtype=complex)
    for (m, r), coeff in symbol_terms.items():
        total += coeff * quadratures[(m, r)]
    return total
