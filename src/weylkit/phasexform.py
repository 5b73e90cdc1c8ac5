"""Two-fold phase-space transform, numeric on grids and symbolic on monomials.

The forward transform is

    G(p, q) = (1/pi) double-integral dq' dp' h(p', q') e^{2i(p-p')(q-q')}

and the inverse flips the kernel sign.  The output grid is the input
grid, so with u, v the q and p cell indices counted from the grid
centre the kernel is e^{ic(u-u')(v-v')}, c = 2 dq dp.  Writing each of
the four products in its expansion as xy = (x^2 + y^2 - (x-y)^2)/2, the
squares cancel and only the chirp w(x) = e^{icx^2/2} of index
differences is left:

    e^{ic(u-u')(v-v')} = w*(v-u) w(v-u') w(v'-u) w*(v'-u').

So the transform is a chirp multiply, a convolution with w along p, one
along q and a chirp multiply again: the chirp-z transform of Bluestein
(1970) and Rabiner, Schafer & Rader (1969), in two dimensions.  The
outer chirp w*(v-u) is constant along diagonals, a strided view of one
1-D array, and each convolution is a batch of zero-padded FFTs, so an
n x n grid costs O(n^2 log n) where two dense chirp matrix products
cost O(n^3).  Monomial inputs do not decay, so they are
handled only symbolically: the transform of x^m y^r is a two-variable
Hermite polynomial in closed form, and the same polynomial falls out of
repeated differentiation of e^{-2ist} (up to the normalization
(-2i)^(m+r), which the derivative route divides out so both paths agree
exactly).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exactnum import ExactScalar, I_HALF, MINUS_I
from .opalg import _conversion_terms
from .ordering import MINUS_I_HALF, CommutativePoly2

BOUNDARY_DECAY = 1e-10
_CHIRP_ROWS = 128

MINUS_2I = MINUS_I * ExactScalar.from_int(2)


class GridDomainWarning(UserWarning):
    """Input does not decay at the grid boundary; result is unreliable."""


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on a rectangular (q, p) grid.

    Samples live at cell centers: ``q_i = q_min + (i + 1/2) dq`` and
    likewise for p, matching the midpoint quadrature rule used
    throughout.  ``values[i, j]`` is the sample at ``(q_i, p_j)``.
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    values: np.ndarray
    reliable: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 2:
            raise ValueError("values must be a 2-D array, at least 2x2")
        if not (
            math.isfinite(self.q_min)
            and math.isfinite(self.q_max)
            and math.isfinite(self.p_min)
            and math.isfinite(self.p_max)
        ):
            raise ValueError("grid bounds must be finite")
        if self.q_max <= self.q_min or self.p_max <= self.p_min:
            raise ValueError("grid bounds must satisfy max > min")

    @property
    def nq(self) -> int:
        return self.values.shape[0]

    @property
    def np_(self) -> int:
        return self.values.shape[1]

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.nq

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np_

    @property
    def q_axis(self) -> np.ndarray:
        return self.q_min + (np.arange(self.nq) + 0.5) * self.dq

    @property
    def p_axis(self) -> np.ndarray:
        return self.p_min + (np.arange(self.np_) + 0.5) * self.dp

    def boundary_max(self) -> float:
        v = self.values
        return float(max(np.abs(edge).max() for edge in (v[0], v[-1], v[:, 0], v[:, -1])))

    @classmethod
    def from_function(
        cls,
        func,
        q_min: float = -8.0,
        q_max: float = 8.0,
        p_min: float = -8.0,
        p_max: float = 8.0,
        nq: int = 400,
        np_: int = 400,
    ) -> SampledField:
        """Sample ``func(q, p)`` (vectorized) on the default grid."""
        shell = cls(q_min, q_max, p_min, p_max, np.zeros((nq, np_), complex))
        qg, pg = np.meshgrid(shell.q_axis, shell.p_axis, indexing="ij")
        return replace(shell, values=np.asarray(func(qg, pg), dtype=complex))

    # -- serialization -------------------------------------------------

    def to_csv(self, path) -> None:
        """Header line with bounds/counts, then re,im cells row-major in q."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                f"{float(self.q_min)!r},{float(self.q_max)!r},"
                f"{float(self.p_min)!r},{float(self.p_max)!r},"
                f"{self.nq},{self.np_}\n"
            )
            for row in self.values:
                for cell in row:
                    handle.write(f"{float(cell.real)!r},{float(cell.imag)!r}\n")

    @classmethod
    def from_csv(cls, path) -> SampledField:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
            fields = header.split(",")
            if len(fields) != 6:
                raise ValueError(
                    f"line 1: expected 6 header fields "
                    f"(qmin,qmax,pmin,pmax,nq,np), got {len(fields)}"
                )
            try:
                q_min, q_max, p_min, p_max = (float(x) for x in fields[:4])
                nq, np_ = int(fields[4]), int(fields[5])
            except ValueError as exc:
                raise ValueError(f"line 1: bad header value: {exc}") from None
            if nq < 2 or np_ < 2:
                raise ValueError("line 1: sample counts must be at least 2")
            # Cells are collected as they are read, so the header alone
            # never sizes an allocation.
            cells = []
            for idx in range(nq * np_):
                line = handle.readline()
                if not line:
                    raise ValueError(
                        f"line 1: header declares {nq}x{np_} cells, but the "
                        f"file ends before line {idx + 2}, after {idx} of "
                        f"{nq * np_} value lines"
                    )
                parts = line.strip().split(",")
                if len(parts) != 2:
                    raise ValueError(
                        f"line {idx + 2}: expected 're,im', got {line.strip()!r}"
                    )
                try:
                    cells.append(complex(float(parts[0]), float(parts[1])))
                except ValueError:
                    raise ValueError(
                        f"line {idx + 2}: non-numeric cell {line.strip()!r}"
                    ) from None
            if handle.readline().strip():
                raise ValueError("trailing data after the final cell")
            data = np.array(cells, dtype=complex)
            # A finite cell such as 1.5e308,1.5e308 still has an infinite
            # magnitude, which would make boundary_max inf.
            with np.errstate(over="ignore"):
                finite = np.isfinite(np.abs(data))
            if not finite.all():
                idx = int(np.argmin(finite))
                raise ValueError(f"line {idx + 2}: non-finite cell {data[idx]}")
        return cls(q_min, q_max, p_min, p_max, data.reshape(nq, np_))

    def to_json(self) -> dict:
        return {
            "qmin": self.q_min,
            "qmax": self.q_max,
            "pmin": self.p_min,
            "pmax": self.p_max,
            "nq": self.nq,
            "np": self.np_,
            "values": [
                [float(c.real), float(c.imag)] for c in self.values.ravel()
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> SampledField:
        values = np.array(
            [complex(re, im) for re, im in doc["values"]], dtype=complex
        ).reshape(int(doc["nq"]), int(doc["np"]))
        return cls(
            float(doc["qmin"]),
            float(doc["qmax"]),
            float(doc["pmin"]),
            float(doc["pmax"]),
            values,
        )


def _chirp_convolve(x: np.ndarray, m: int, c: float, shift: float) -> np.ndarray:
    """out[:, k] = sum_n x[:, n] w(k - n + shift) for k < m, w(t) = e^{ict^2/2}.

    The n + m - 1 lags of the chirp fill one circular buffer of the next
    power-of-two length, negative lags wrapped to its end, so the first
    m outputs of the circular convolution are the linear one.  Rows go
    through the FFTs in blocks of ``_CHIRP_ROWS``, which bounds the padded
    spectra whatever the grid size.
    """
    rows, n = x.shape
    size = 1 << (n + m - 2).bit_length()
    lag = np.arange(size, dtype=float)
    lag[size - n + 1:] -= size
    lag += shift
    kernel = np.fft.fft(np.exp(0.5j * c * lag * lag))
    out = np.empty((rows, m), dtype=complex)
    for start in range(0, rows, _CHIRP_ROWS):
        block = np.fft.fft(x[start:start + _CHIRP_ROWS], n=size, axis=1)
        block *= kernel
        block = np.fft.ifft(block, axis=1)
        out[start:start + _CHIRP_ROWS] = block[:, :m]
    return out


def _chirp_transform(h: SampledField, sign: float) -> SampledField:
    nq, np_ = h.nq, h.np_
    c = 2.0 * sign * h.dq * h.dp
    # v - u = (j - i) + (nq - np_)/2 on cells (i, j); row i of the outer
    # chirp is a window of one array over j - i = 1 - nq .. np_ - 1.
    lag = np.arange(1 - nq, np_) + 0.5 * (nq - np_)
    outer = sliding_window_view(np.exp(-0.5j * c * lag * lag), np_)[::-1]
    along_p = _chirp_convolve(h.values * outer, nq, c, 0.5 * (np_ - nq))
    along_p = np.ascontiguousarray(along_p.T)
    values = _chirp_convolve(along_p, np_, c, 0.5 * (nq - np_))
    values *= outer
    values *= h.dq * h.dp / np.pi
    return SampledField(
        h.q_min, h.q_max, h.p_min, h.p_max, values, reliable=h.reliable
    )


def _check_decay(h: SampledField) -> bool:
    peak = h.boundary_max()
    if not peak < BOUNDARY_DECAY:  # NaN included
        warnings.warn(
            f"input magnitude {peak:.3e} at the grid boundary exceeds "
            f"{BOUNDARY_DECAY:.0e}; the oscillatory quadrature is unreliable",
            GridDomainWarning,
            stacklevel=3,
        )
        return False
    return True


def forward_transform(h: SampledField) -> SampledField:
    """Chirp-kernel transform of a decaying field, on the same grid."""
    ok = _check_decay(h)
    out = _chirp_transform(h, +1.0)
    return out if ok else replace(out, reliable=False)


def inverse_transform(g: SampledField) -> SampledField:
    """Inverse transform (conjugate kernel), on the same grid."""
    ok = _check_decay(g)
    out = _chirp_transform(g, -1.0)
    return out if ok else replace(out, reliable=False)


def parseval_check(h: SampledField) -> tuple[float, float]:
    """Both sides of the norm identity: (lhs, rhs) quadrature values."""
    g = forward_transform(h)
    weight = h.dq * h.dp / np.pi
    lhs = float((np.abs(h.values) ** 2).sum() * weight)
    rhs = float((np.abs(g.values) ** 2).sum() * (g.dq * g.dp / np.pi))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Symbolic monomial path
# ---------------------------------------------------------------------------


def monomial_forward(m: int, r: int) -> CommutativePoly2:
    """Exact transform image of x^m y^r, a polynomial in (t, s).

    Closed form: sum_l (i/2)^l l! C(m,l) C(r,l) t^(m-l) s^(r-l); the
    test suite pins this against the literal scaled-Hermite expression
    and against the regularized numeric transform.
    """
    return CommutativePoly2.from_terms(_conversion_terms(m, r, I_HALF))


def inverse_symbol(poly: CommutativePoly2) -> CommutativePoly2:
    """Linear extension of the inverse coefficient map on monomials."""
    return CommutativePoly2.from_terms(
        (key, c * coeff)
        for (m, r), coeff in poly.terms.items()
        for key, c in _conversion_terms(m, r, MINUS_I_HALF)
    )


def monomial_inverse(m: int, r: int) -> CommutativePoly2:
    """Round trip of the symbolic maps; equals the bare monomial t^m s^r."""
    return inverse_symbol(monomial_forward(m, r))


def derivative_representation(m: int, r: int) -> CommutativePoly2:
    """Transform of x^m y^r via repeated differentiation of e^{-2ist}.

    Computes e^{2ist} (d/dt)^r (d/ds)^m e^{-2ist} on the polynomial
    prefactor and divides by (-2i)^(m+r): each derivative of the
    exponential word pulls down a factor -2i times the dual variable, so
    the raw result overshoots the integral transform by exactly that
    power.  Must equal :func:`monomial_forward` for all m, r.
    """
    # u(t, s) tracks the prefactor of e^{-2ist}; vars are (t, s) = (0, 1).
    u = CommutativePoly2.monomial(0, 0)
    t_factor = CommutativePoly2.monomial(1, 0, MINUS_2I)
    s_factor = CommutativePoly2.monomial(0, 1, MINUS_2I)
    for _ in range(m):
        u = u.derivative(1) + u * t_factor
    for _ in range(r):
        u = u.derivative(0) + u * s_factor
    return u.scale(I_HALF ** (m + r))
