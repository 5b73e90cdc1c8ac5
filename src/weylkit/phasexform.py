"""Two-fold phase-space transform of fields sampled on a grid.

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
cost O(n^3).  The FFTs run on rows in blocks of ``_CHIRP_ROWS``, one
thread per usable core, each in its own reused buffer; the blocks
depend on the grid alone, so the result is bit-identical for any number
of cores.

Against the source paper: its transform of the Wigner operator has the
kernel e^{-2i(p-p')(q-q')}, so the paper's forward transform is
:func:`inverse_transform` here; ``weylkit verify transform`` checks
that it takes the Wigner operator to delta(p-P) delta(q-Q), and
:func:`forward_transform` to delta(q-Q) delta(p-P).  Both kernels here carry 1/pi, which
makes a round trip the identity (``weylkit verify transform`` checks
it); the paper prints its inverse without 1/pi, and composing that pair
as printed gives pi times the identity.

Monomials do not decay, so on a grid they come out flagged unreliable.
The test suite transforms q^m p^r times a Gaussian and extrapolates in
its width: the forward transform of q^m p^r is the polynomial in (q, p)
whose coefficients are those of :func:`weylkit.ordering.weyl_to_pq`
(m, r).
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BOUNDARY_DECAY = 1e-10
_CHIRP_ROWS = 128
_CSV_BLOCK = 4096
# Most cells a grid file may declare: twice the largest grid the package
# is checked on (1024^2).  `weylkit transform --input` on a 2048 x 1024
# file of random cells peaks at 108 MB resident and takes 5-7 s of CPU,
# mostly reading and writing text (2-core x86-64, Python 3.11, numpy 2.4).
MAX_CSV_CELLS = 1 << 21


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
            cells = "%r,%r\n" * self.np_
            for row in self.values:
                handle.write(cells % tuple(np.ascontiguousarray(row).view(float).tolist()))

    @classmethod
    def from_csv(cls, path) -> SampledField:
        """Read a grid written by :meth:`to_csv`; ValueError names a bad line.

        numpy's text reader parses the cell lines in blocks of
        ``_CSV_BLOCK``.  A block it refuses, or reads to any shape but one
        row of two per line, goes through a per-line loop instead, which
        names the first bad line and also reads the spellings only
        ``float()`` accepts, such as ``1_0``.
        """
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
            if nq * np_ > MAX_CSV_CELLS:
                raise ValueError(
                    f"line 1: header declares {nq}x{np_} cells, more than "
                    f"the {MAX_CSV_CELLS} a grid file may hold"
                )
            # Cells are read in blocks of at most _CSV_BLOCK lines, so the
            # header alone never sizes an allocation.
            total = nq * np_
            blocks = []
            done = 0
            while done < total:
                want = min(_CSV_BLOCK, total - done)
                blocks.append(_parse_cells(list(itertools.islice(handle, want)), done + 2))
                done += len(blocks[-1])
                if len(blocks[-1]) < want:
                    raise ValueError(
                        f"line 1: header declares {nq}x{np_} cells, but the "
                        f"file ends before line {done + 2}, after {done} of "
                        f"{total} value lines"
                    )
            while chunk := handle.read(1 << 16):
                if chunk.strip():
                    raise ValueError("trailing data after the final cell")
            data = np.concatenate(blocks).view(complex).ravel()
            del blocks  # frees them before the check below allocates |data|
            # A finite cell such as 1.5e308,1.5e308 still has an infinite
            # magnitude, which would make boundary_max inf.
            with np.errstate(over="ignore"):
                finite = np.isfinite(np.abs(data))
            if not finite.all():
                idx = int(np.argmin(finite))
                raise ValueError(f"line {idx + 2}: non-finite cell {data[idx]}")
        return cls(q_min, q_max, p_min, p_max, data.reshape(nq, np_))


def _parse_cells(lines: list[str], first: int) -> np.ndarray:
    """The ``re,im`` cells of ``lines`` as an (n, 2) float array; ``first``
    is the file line number of ``lines[0]``, for the error messages."""
    # loadtxt skips an empty line, and warns when a block holds nothing
    # else, so a block with one goes straight to the loop, which names it.
    if lines and "\n" not in lines:
        try:
            cells = np.loadtxt(
                lines, delimiter=",", dtype=float, comments=None, quotechar=None, ndmin=2
            )
        except ValueError:
            pass
        else:
            if cells.shape == (len(lines), 2):
                return cells
    # The line loop names the first bad line, and it takes the spellings
    # only float() reads, such as 1_0 or non-ASCII digits.
    cells = np.empty((len(lines), 2))
    for idx, line in enumerate(lines):
        parts = line.strip().split(",")
        if len(parts) != 2:
            raise ValueError(f"line {first + idx}: expected 're,im', got {line.strip()!r}")
        try:
            cells[idx] = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"line {first + idx}: non-numeric cell {line.strip()!r}") from None
    return cells


def _smooth_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target, a length pocketfft runs fast."""
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _chirp_spectrum(size: int, n: int, c: float, shift: float, scale: float) -> np.ndarray:
    """scale * FFT of w(t + shift), w(t) = e^{ict^2/2}, over lags t of one
    circular buffer: 0, 1, ... from the start and the n - 1 negative lags
    wrapped to its end."""
    lag = np.arange(size, dtype=float)
    lag[size - n + 1:] -= size
    lag += shift
    kernel = np.fft.fft(np.exp(0.5j * c * lag * lag))
    kernel *= scale
    return kernel


def _convolve_in_place(block: np.ndarray, n: int, spectrum: np.ndarray) -> None:
    """Circular convolution of each row of ``block``, whose first n
    entries hold the input, with the kernel of ``spectrum``."""
    block[:, n:] = 0.0
    np.fft.fft(block, out=block)
    block *= spectrum
    np.fft.ifft(block, out=block, norm="forward")


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(rows: int, width: int, work) -> None:
    """Call ``work(start, buffer)`` for each block start in
    ``range(0, rows, _CHIRP_ROWS)``.

    One worker per usable core, but no more than there are blocks: worker
    k takes every count-th block from the k-th, all in one complex buffer
    made here before any worker starts, ``width`` wide and a block (or
    all rows) high.  Worker 0 is the calling thread and the rest run on a
    thread pool that is shut down before this returns.  An error in one
    worker does not stop the others: each finishes its share, and then
    the caller's error, or else the first pool worker's, is raised here.
    """
    count = min(_cores(), -(-rows // _CHIRP_ROWS))
    buffers = [np.empty((min(rows, _CHIRP_ROWS), width), complex) for _ in range(count)]

    def run(k):
        for start in range(k * _CHIRP_ROWS, rows, count * _CHIRP_ROWS):
            work(start, buffers[k])

    with ThreadPoolExecutor(max(1, count - 1)) as pool:
        others = [pool.submit(run, k) for k in range(1, count)]
        run(0)
    for future in others:
        future.result()


def _chirp_transform(h: SampledField, sign: float) -> SampledField:
    """The grid transform as two passes of chirp convolutions: along p
    into an nq x nq array stored transposed, then along q into the
    output, for nq <= np.

    Both convolutions pad to one 5-smooth length (:func:`_smooth_length`)
    and go through the FFTs ``_CHIRP_ROWS`` rows at a time, in place in
    one buffer per worker.  The outer chirp is applied to each block on
    the way in and on the way out, and dq dp / pi rides in the second
    kernel spectrum, so the one full-grid array is the one the first pass
    writes, which the output then shares.  The kernel is symmetric in q
    and p, so a grid with nq > np is transformed transposed, which keeps
    that array at the output's size.
    """
    if h.nq > h.np_:
        swapped = SampledField(h.p_min, h.p_max, h.q_min, h.q_max, h.values.T)
        values = _chirp_transform(swapped, sign).values.T
        return SampledField(
            h.q_min, h.q_max, h.p_min, h.p_max, values, reliable=h.reliable
        )
    nq, np_ = h.nq, h.np_
    c = 2.0 * sign * h.dq * h.dp
    # v - u = (j - i) + (nq - np_)/2 on cells (i, j); row i of the outer
    # chirp is a window of one array over j - i = 1 - nq .. np_ - 1.
    lag = np.arange(1 - nq, np_) + 0.5 * (nq - np_)
    outer = sliding_window_view(np.exp(-0.5j * c * lag * lag), np_)[::-1]
    # Both convolutions have nq + np_ - 1 lags, so they share one padded
    # length; ifft runs unscaled and the spectra carry 1/size instead.
    size = _smooth_length(nq + np_ - 1)
    along_p = _chirp_spectrum(size, np_, c, 0.5 * (np_ - nq), 1.0 / size)
    along_q = _chirp_spectrum(size, nq, c, 0.5 * (nq - np_), h.dq * h.dp / (np.pi * size))
    # middle[k, i] = sum_j h[i, j] outer[i, j] w(k - j + (np_ - nq)/2),
    # stored transposed so the pass along q reads contiguous rows.  That
    # pass writes each block of output rows over the rows it has just
    # read, so the output shares the array.
    middle = np.empty((nq, np_), complex)

    def pass_p(start, buf):
        stop = min(start + _CHIRP_ROWS, nq)
        block = buf[:stop - start]
        np.multiply(h.values[start:stop], outer[start:stop], out=block[:, :np_])
        _convolve_in_place(block, np_, along_p)
        middle[:, start:stop] = block[:, :nq].T

    def pass_q(start, buf):
        stop = min(start + _CHIRP_ROWS, nq)
        block = buf[:stop - start]
        block[:, :nq] = middle[start:stop, :nq]
        _convolve_in_place(block, nq, along_q)
        np.multiply(block[:, :np_], outer[start:stop], out=middle[start:stop])

    _run_blocks(nq, size, pass_p)
    _run_blocks(nq, size, pass_q)
    return SampledField(
        h.q_min, h.q_max, h.p_min, h.p_max, middle, reliable=h.reliable
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
    return _parseval_sides(h, forward_transform(h))


def _parseval_sides(h: SampledField, g: SampledField) -> tuple[float, float]:
    """The norm identity's quadratures of h and of its forward transform g."""
    weight = h.dq * h.dp / np.pi
    lhs = float((np.abs(h.values) ** 2).sum() * weight)
    rhs = float((np.abs(g.values) ** 2).sum() * (g.dq * g.dp / np.pi))
    return lhs, rhs

