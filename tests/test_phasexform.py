import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from weylkit import ordering as conv, phasexform as px, verify
from weylkit.exactnum import ExactScalar, I, ONE

I_HALF = I * ExactScalar.rational(1, 2)


def gaussian_field(**kwargs):
    return px.SampledField.from_function(
        lambda qg, pg: np.exp(-(pg**2) - qg**2), **kwargs
    )


def exact_gaussian_image(field):
    qg, pg = np.meshgrid(field.q_axis, field.p_axis, indexing="ij")
    return np.exp(-(qg**2 + pg**2) / 2.0 + 1j * pg * qg) / math.sqrt(2.0)


def _reference_chirp_transform(h, sign):
    """The dense O(n^3) route: chirp pre/post-multipliers around two
    plane-wave matrix products, straight from the kernel expansion
    e^{2i(p-p')(q-q')} = e^{2ipq} e^{-2ipq'} e^{-2ip'q} e^{2ip'q'}."""
    q = h.q_axis
    p = h.p_axis
    s = 2j * sign
    chirp_in = np.exp(s * np.outer(q, p))            # e^{s i q' p'}
    plane_p = np.exp(-s * np.outer(p, q))            # e^{-s i p' q}, (np, nq)
    plane_q = np.exp(-s * np.outer(q, p))            # e^{-s i q' p}, (nq, np)
    inner = (h.values * chirp_in) @ plane_p          # sum over p'
    outer = inner.T @ plane_q                        # sum over q'
    return (h.dq * h.dp / np.pi) * np.exp(s * np.outer(q, p)) * outer


def _textured_field(q_min, q_max, p_min, p_max, nq, np_, width, seed):
    """A seeded complex field: white noise about an off-centre Gaussian,
    so every frequency and both axes carry weight, with |values| of
    order one."""
    shell = px.SampledField(q_min, q_max, p_min, p_max, np.zeros((nq, np_), complex))
    qg, pg = np.meshgrid(shell.q_axis, shell.p_axis, indexing="ij")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((nq, np_)) + 1j * rng.standard_normal((nq, np_))
    envelope = np.exp(-((qg - 0.7) ** 2 + (pg + 0.4) ** 2) / width**2)
    return replace(shell, values=envelope * (1.0 + 0.3 * noise))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "inverse"])
@pytest.mark.parametrize(
    "grid",
    [
        (-8.0, 8.0, -8.0, 8.0, 64, 64, 2.0),
        (-8.0, 8.0, -8.0, 8.0, 400, 400, 2.0),
        (-6.0, 9.0, -7.0, 5.0, 37, 64, 2.0),
        (-6.0, 9.0, -7.0, 5.0, 64, 37, 2.0),
        (-8.0, 8.0, -9.0, 7.0, 400, 401, 2.0),
        (-1.0, 1.5, -2.0, 1.0, 2, 3, 1.0),
        (-1.0, 1.5, -2.0, 1.0, 3, 2, 1.0),
    ],
    ids=["64sq", "400sq", "37x64", "64x37", "400x401", "2x3", "3x2"],
)
def test_chirp_transform_matches_dense_reference(grid, sign):
    field = _textured_field(*grid, seed=sum(grid[4:6]))
    got = px._chirp_transform(field, sign)
    assert got.values.shape == field.values.shape
    want = _reference_chirp_transform(field, sign)
    assert np.abs(got.values - want).max() < 1e-12


def _force_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("shape", [(300, 257), (257, 300)], ids=["300x257", "257x300"])
def test_chirp_transform_is_bit_identical_for_any_worker_count(monkeypatch, shape):
    # Neither row count is a multiple of the block height, so the last
    # block is short and the workers get unequal shares.
    assert shape[0] % px._CHIRP_ROWS
    field = _textured_field(-7.0, 8.0, -6.0, 7.5, *shape, 2.0, seed=shape[0])
    machine = px._chirp_transform(field, 1.0).values
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (1, 3):
            _force_cores(monkeypatch, count)
            results.append(px._chirp_transform(field, 1.0).values)
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert np.array_equal(got, machine)
    want = _reference_chirp_transform(field, 1.0)
    assert np.abs(machine - want).max() < 1e-12


@pytest.mark.parametrize("shape", [(4000, 4), (4, 4000)], ids=["4000x4", "4x4000"])
def test_chirp_transform_memory_follows_the_grid_not_its_longer_side(shape):
    # An nq x nq intermediate would be 256 MB at 4000 x 4; the input is
    # 256 kB, and the transform may use a few MB beyond it.
    field = _textured_field(-30.0, 30.0, -2.0, 2.0, *shape, 2.0, seed=4)
    tracemalloc.start()
    try:
        got = px._chirp_transform(field, 1.0).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field.values.nbytes + (2 << 20)
    assert np.abs(got - _reference_chirp_transform(field, 1.0)).max() < 1e-12


def test_chirp_transform_leaves_no_thread_running(monkeypatch):
    _force_cores(monkeypatch, 4)
    field = gaussian_field(nq=400, np_=300)
    before = threading.active_count()
    px.forward_transform(field)
    assert threading.active_count() == before


@pytest.mark.parametrize("in_caller", [False, True], ids=["thread", "caller"])
def test_chirp_transform_raises_a_worker_fault(monkeypatch, in_caller):
    _force_cores(monkeypatch, 4)
    field = gaussian_field(nq=400, np_=400)
    fft = np.fft.fft

    def faulty(a, *args, **kwargs):
        # Row blocks are 2-D; the kernel spectra, made before any worker
        # starts, are 1-D.
        in_main = threading.current_thread() is threading.main_thread()
        if a.ndim == 2 and in_main == in_caller:
            raise RuntimeError("injected FFT fault")
        return fft(a, *args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(np.fft, "fft", faulty)
    with pytest.raises(RuntimeError, match="injected FFT fault"):
        px._chirp_transform(field, 1.0)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "target, size",
    [(1, 1), (2, 2), (7, 8), (11, 12), (13, 15), (97, 100), (799, 800), (1535, 1536), (2047, 2048)],
)
def test_smooth_length(target, size):
    assert px._smooth_length(target) == size


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "inverse"])
def test_chirp_transform_matches_dense_reference_on_wide_grid(sign):
    # The 1600^2 grid of half-width 40 the regularized-monomial test
    # uses, with its weakest regularization of the constant monomial.
    shell = px.SampledField(-40.0, 40.0, -40.0, 40.0, np.zeros((1600, 1600), complex))
    qg, pg = np.meshgrid(shell.q_axis, shell.p_axis, indexing="ij")
    field = replace(shell, values=np.exp(-0.005 * (qg**2 + pg**2)))
    got = px._chirp_transform(field, sign).values
    assert np.abs(got - _reference_chirp_transform(field, sign)).max() < 1e-12


def test_forward_gaussian_pointwise():
    field = gaussian_field()
    image = px.forward_transform(field)
    assert image.reliable
    assert np.abs(image.values - exact_gaussian_image(field)).max() < 1e-6


def test_forward_gaussian_origin_and_unit_values():
    # An odd sample count puts cell centers exactly on the integer
    # lattice, so the closed-form spot values apply literally.
    field = gaussian_field(nq=401, np_=401)
    image = px.forward_transform(field)
    iq = int(np.argmin(np.abs(field.q_axis)))
    ip = int(np.argmin(np.abs(field.p_axis)))
    assert abs(field.q_axis[iq]) < 1e-12 and abs(field.p_axis[ip]) < 1e-12
    assert abs(image.values[iq, ip] - 1.0 / math.sqrt(2.0)) < 1e-6
    iq1 = int(np.argmin(np.abs(field.q_axis - 1.0)))
    ip1 = int(np.argmin(np.abs(field.p_axis - 1.0)))
    q1, p1 = field.q_axis[iq1], field.p_axis[ip1]
    want = math.exp(-(q1**2 + p1**2) / 2.0) * np.exp(1j * p1 * q1) / math.sqrt(2.0)
    assert abs(image.values[iq1, ip1] - want) < 1e-6


@pytest.mark.parametrize(
    "func",
    [
        lambda qg, pg: np.exp(-(pg**2) - qg**2),
        lambda qg, pg: (qg**2 - 1j * pg) * np.exp(-(pg**2) - qg**2),
        lambda qg, pg: qg * pg * np.exp(-((pg - 0.5) ** 2) - (qg + 0.5) ** 2),
    ],
    ids=["gaussian", "poly-gaussian", "shifted-poly-gaussian"],
)
def test_round_trip_on_central_half(func):
    field = px.SampledField.from_function(func)
    back = px.inverse_transform(px.forward_transform(field))
    nq, np_ = field.nq, field.np_
    qs = slice(nq // 4, 3 * nq // 4)
    ps = slice(np_ // 4, 3 * np_ // 4)
    assert np.abs((back.values - field.values)[qs, ps]).max() < 1e-5


def test_inverse_of_exact_gaussian_image():
    field = gaussian_field()
    image = px.SampledField(
        field.q_min,
        field.q_max,
        field.p_min,
        field.p_max,
        exact_gaussian_image(field),
    )
    recovered = px.inverse_transform(image)
    assert np.abs(recovered.values - field.values).max() < 1e-5


def test_linearity():
    f1 = gaussian_field()
    f2 = px.SampledField.from_function(
        lambda qg, pg: (qg - 1j * pg) * np.exp(-(pg**2) - qg**2)
    )
    combo = px.SampledField(
        f1.q_min, f1.q_max, f1.p_min, f1.p_max,
        1.5 * f1.values + (2.0 - 1.0j) * f2.values,
    )
    direct = px.forward_transform(combo).values
    split = (
        1.5 * px.forward_transform(f1).values
        + (2.0 - 1.0j) * px.forward_transform(f2).values
    )
    assert np.abs(direct - split).max() < 1e-12


def test_boundary_decay_warning():
    flat = px.SampledField.from_function(lambda qg, pg: np.ones_like(qg))
    with pytest.warns(px.GridDomainWarning):
        out = px.forward_transform(flat)
    assert not out.reliable
    field = gaussian_field(nq=8, np_=8)
    values = field.values.copy()
    values[0, 3] = np.nan
    with pytest.warns(px.GridDomainWarning):
        out = px.forward_transform(replace(field, values=values))
    assert not out.reliable


def test_parseval_examples():
    lhs, rhs = px.parseval_check(gaussian_field())
    assert abs(lhs - 0.5) < 1e-8
    assert abs(rhs - 0.5) < 1e-5
    zero = px.SampledField.from_function(lambda qg, pg: np.zeros_like(qg))
    assert px.parseval_check(zero) == (0.0, 0.0)
    shifted = px.SampledField.from_function(
        lambda qg, pg: np.exp(-((pg - 1.0) ** 2) - (qg + 1.0) ** 2)
    )
    lhs_s, rhs_s = px.parseval_check(shifted)
    assert abs(lhs_s - 0.5) < 1e-5
    assert abs(rhs_s - 0.5) < 1e-5


def test_derivative_representation_examples():
    assert conv.derivative_representation(0, 0).terms == {(0, 0): ONE}
    # single derivatives: one s-derivative leaves t, one t-derivative
    # leaves s, each after dividing out the raw -2i factor
    assert conv.derivative_representation(1, 0).terms == {(1, 0): ONE}
    assert conv.derivative_representation(0, 1).terms == {(0, 1): ONE}
    assert conv.derivative_representation(1, 1).terms == {
        (1, 1): ONE,
        (0, 0): I_HALF,
    }


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("r", range(9))
def test_derivative_representation_equals_forward(m, r):
    assert (
        conv.derivative_representation(m, r).terms
        == conv.weyl_to_pq(m, r).terms
    )


def test_transforms_of_the_wigner_operator_are_the_ordered_deltas():
    # The source paper's identity: (1/pi) double-integral Delta(q', p')
    # e^{-2i(p-p')(q-q')} dq' dp' = delta(p-P) delta(q-Q), which is
    # inverse_transform here; forward_transform gives delta(q-Q) delta(p-P).
    (qs, ps), inverse, forward, edge = verify._wigner_operator_images()
    n = np.arange(6)[:, None]
    norm = 1.0 / np.sqrt(2.0**n * np.array([math.factorial(k) for k in range(6)])[:, None])
    psi = lambda x: norm * math.pi**-0.25 * eval_hermite(n, x) * np.exp(-x * x / 2.0)
    # <m|p><p|q><q|n> = i^m psi_m(p) e^{-ipq} psi_n(q) / sqrt(2 pi).
    delta_pq = (
        ((1j) ** n * psi(ps))[:, None] * psi(qs)[None]
        * np.exp(-1j * ps * qs) / math.sqrt(2.0 * math.pi)
    )
    delta_qp = delta_pq.conj().swapaxes(0, 1)
    assert edge < px.BOUNDARY_DECAY
    assert np.abs(inverse - delta_pq).max() < 1e-12
    assert np.abs(forward - delta_qp).max() < 1e-12
    # The two orderings differ by far more, so the check tells them apart.
    assert np.abs(inverse - delta_qp).max() > 0.1
    assert np.abs(forward - delta_pq).max() > 0.1


def test_inverse_of_the_conjugate_is_the_conjugate_of_forward():
    # The identity that lets verify transform only the lower triangle of
    # the Wigner operator, checked on a field with no symmetry.
    field = px.SampledField.from_function(
        lambda qg, pg: (qg + 1j * pg) * np.exp(-((qg - 0.7) ** 2) - (pg + 0.4) ** 2)
    )
    conjugate = replace(field, values=field.values.conj())
    want = px.forward_transform(field).values.conj()
    assert np.abs(want).max() > 0.1
    assert np.abs(px.inverse_transform(conjugate).values - want).max() < 1e-14


def test_wigner_operator_images_transform_the_lower_triangle_only(monkeypatch):
    calls = {"forward": 0, "inverse": 0}

    def counted(name, transform):
        def wrapper(field):
            calls[name] += 1
            return transform(field)
        return wrapper

    monkeypatch.setattr(px, "forward_transform", counted("forward", px.forward_transform))
    monkeypatch.setattr(px, "inverse_transform", counted("inverse", px.inverse_transform))
    verify._wigner_operator_images()
    # 6 * 7 / 2 entries with j >= k; the other 15 follow by Hermiticity.
    assert calls == {"forward": 21, "inverse": 21}


def test_regularized_monomials_extrapolate_to_symbol():
    """Gaussian-regularized monomials, Richardson-extrapolated in the
    regularization strength, reproduce the exact symbols.

    The oscillatory quadrature needs the grid to resolve the kernel at
    the boundary (samples > 4 L^2 / pi), hence the large dense grid.
    """
    half = 40.0
    n = 1600
    shell = px.SampledField(
        -half, half, -half, half, np.zeros((n, n), dtype=complex)
    )
    qg, pg = np.meshgrid(shell.q_axis, shell.p_axis, indexing="ij")
    t_idx = [int(np.argmin(np.abs(shell.q_axis - t))) for t in
             (-1.0, -0.5, 0.0, 0.5, 1.0)]
    s_idx = [int(np.argmin(np.abs(shell.p_axis - s))) for s in
             (-1.0, -0.5, 0.0, 0.5, 1.0)]
    t_pts = shell.q_axis[t_idx]
    s_pts = shell.p_axis[s_idx]
    worst = 0.0
    for m in range(4):
        for r in range(4 - m):
            images = {}
            for eps in (0.02, 0.01, 0.005):
                values = qg**m * pg**r * np.exp(-eps * (qg**2 + pg**2))
                field = px.SampledField(
                    -half, half, -half, half, values
                )
                with warnings.catch_warnings():
                    # weak regularization decays slowly; the boundary
                    # warning is expected and Richardson absorbs it
                    warnings.simplefilter("ignore", px.GridDomainWarning)
                    image = px.forward_transform(field)
                images[eps] = image.values[np.ix_(t_idx, s_idx)]
            first = 2.0 * images[0.01] - images[0.02]
            second = 2.0 * images[0.005] - images[0.01]
            extrapolated = (4.0 * second - first) / 3.0
            symbol = conv.weyl_to_pq(m, r)
            tt, ss = np.meshgrid(t_pts, s_pts, indexing="ij")
            exact = np.zeros_like(extrapolated)
            for (i, j), coeff in symbol.terms.items():
                exact += coeff.to_complex() * tt**i * ss**j
            worst = max(worst, float(np.abs(extrapolated - exact).max()))
    assert worst < 1e-2, worst


def test_sampled_field_validation():
    with pytest.raises(ValueError):
        px.SampledField(0.0, 1.0, 0.0, 1.0, np.zeros((1, 4), dtype=complex))
    with pytest.raises(ValueError):
        px.SampledField(1.0, 0.0, 0.0, 1.0, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        px.SampledField(0.0, math.inf, 0.0, 1.0, np.zeros((4, 4), dtype=complex))


def _reference_from_csv(path):
    """The per-line reader the block reader replaced: one readline, split
    and pair of float() calls per cell.  Every file it accepts must load
    bit-identically, and every file it refuses must fail with its message."""
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
        if nq * np_ > px.MAX_CSV_CELLS:
            raise ValueError(
                f"line 1: header declares {nq}x{np_} cells, more than "
                f"the {px.MAX_CSV_CELLS} a grid file may hold"
            )
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
        while chunk := handle.read(1 << 16):
            if chunk.strip():
                raise ValueError("trailing data after the final cell")
        data = np.array(cells, dtype=complex)
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.abs(data))
        if not finite.all():
            idx = int(np.argmin(finite))
            raise ValueError(f"line {idx + 2}: non-finite cell {data[idx]}")
    return px.SampledField(q_min, q_max, p_min, p_max, data.reshape(nq, np_))


def _read_outcome(reader, path):
    """What ``reader`` makes of ``path``: the header and the bits of every
    cell, or the message of the ValueError it raises."""
    try:
        field = reader(path)
    except ValueError as exc:
        return str(exc)
    bounds = (field.q_min, field.q_max, field.p_min, field.p_max)
    return bounds, field.values.shape, field.values.view(np.uint64).tolist()


# Lines only float() reads (1_0, an Arabic-Indic digit), lines numpy's
# reader skips or reads to another shape (empty, one or three fields),
# non-finite cells, a signed zero and lines both readers refuse.
_ODD_LINES = [
    " 1.5 , 2 ", "1_0,2", "\u0661,2", "+1.,-.5", "1e500,0", "nan,0",
    '"1",2', "1,2,3", "1", "", " \t ", "1.5e308,1.5e308", "-0.0,-0.0",
]


@st.composite
def _grid_files(draw):
    """(block size, file bytes): a header, then cell lines of repr'd
    doubles with odd lines put anywhere but often at the first or last
    line of a block, maybe too few or too many cell lines, a tail, and a
    mix of LF and CRLF endings."""
    nq, np_ = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    block = draw(st.sampled_from([1, 2, 3, 5, 4096]))
    count = draw(st.just(nq * np_) | st.integers(0, nq * np_ + 2))
    doubles = st.floats(width=64, allow_nan=False)
    lines = [f"{draw(doubles)!r},{draw(doubles)!r}" for _ in range(count)]
    edges = [idx for idx in range(count) if idx % block in (0, block - 1)]
    for _ in range(draw(st.integers(0, 2)) if count else 0):
        idx = draw(st.sampled_from(edges) | st.integers(0, count - 1))
        lines[idx] = draw(st.sampled_from(_ODD_LINES))
    tail = draw(st.sampled_from(["", "", "\n", "\n  \n\t", "1,2", "\ngarbage"]))
    text = f"-1.5,2.0,-0.1,0.1,{nq},{np_}"
    for line in lines + [tail]:
        text += draw(st.sampled_from(["\n", "\r\n"])) + line
    return block, text.encode()


@given(_grid_files())
@settings(max_examples=400, deadline=None)
def test_csv_block_reader_matches_the_line_reader(tmp_path_factory, grid_file):
    block, data = grid_file
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_bytes(data)
    with patch.object(px, "_CSV_BLOCK", block):
        got = _read_outcome(px.SampledField.from_csv, path)
    assert got == _read_outcome(_reference_from_csv, path)


@pytest.mark.parametrize("line", [0, 4095, 4096, 4097, 8191])
@pytest.mark.parametrize("odd", ["1_0,2", "1,2,3", "", "nan,0", '"1",2'])
def test_csv_line_numbers_cross_the_block_boundary(tmp_path, line, odd):
    field = _textured_field(-8.0, 8.0, -8.0, 8.0, 64, 128, 2.0, seed=31)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[line + 1] = odd + "\n"
    path.write_text("".join(lines))
    want = _read_outcome(_reference_from_csv, path)
    if odd == "1_0,2":
        assert isinstance(want, tuple)
    else:
        assert want.startswith(f"line {line + 2}: ")
    assert _read_outcome(px.SampledField.from_csv, path) == want


def test_csv_round_trip(tmp_path):
    field = gaussian_field(nq=12, np_=10)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    back = px.SampledField.from_csv(path)
    assert back.nq == 12 and back.np_ == 10
    assert back.q_min == field.q_min and back.p_max == field.p_max
    assert np.array_equal(back.values, field.values)


def test_csv_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0,1\n")
    with pytest.raises(ValueError, match="line 1"):
        px.SampledField.from_csv(path)
    path.write_text("0.0,1.0,0.0,1.0,2,2\n1.0,0.0\n")
    with pytest.raises(ValueError, match="line 3"):
        px.SampledField.from_csv(path)
    path.write_text("0.0,1.0,0.0,1.0,2,2\n1,0\n2,0\n3,0\nnope\n")
    with pytest.raises(ValueError, match="line 5"):
        px.SampledField.from_csv(path)
    path.write_text("0,1,0,1,2,2\n0,0\nnan,0\n0,0\n0,0\n")
    with pytest.raises(ValueError, match="line 3: non-finite cell"):
        px.SampledField.from_csv(path)
    # Finite parts whose magnitude overflows to inf.
    path.write_text("0,1,0,1,2,2\n0,0\n0,0\n0,0\n1.5e308,1.5e308\n")
    with pytest.raises(ValueError, match="line 5: non-finite cell"):
        px.SampledField.from_csv(path)
    # Anything but whitespace after the final cell, however far after.
    path.write_text("0,1,0,1,2,2\n1,0\n2,0\n3,0\n4,0\n\ngarbage\n")
    with pytest.raises(ValueError, match="trailing data"):
        px.SampledField.from_csv(path)
    path.write_text("0,1,0,1,2,2\n1,0\n2,0\n3,0\n4,0\n\n  \n\t\n")
    assert px.SampledField.from_csv(path).values.ravel().tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("order", ["C", "F"])
def test_csv_bytes_are_repr_per_cell(tmp_path, order):
    values = np.array(
        [
            [complex(-0.0, 0.1), complex(5e-324, -0.0), complex(1e16, 1.0)],
            [complex(0.1, -1e16), complex(2.5, 5e-324), complex(-1.0, 0.3)],
        ],
        order=order,
    )
    field = px.SampledField(-1.5, 2.0, -0.1, 0.1, values)
    assert field.values.flags.f_contiguous == (order == "F")
    path = tmp_path / "field.csv"
    field.to_csv(path)
    want = "-1.5,2.0,-0.1,0.1,2,3\n" + "".join(
        f"{float(cell.real)!r},{float(cell.imag)!r}\n" for row in values for cell in row
    )
    assert path.read_bytes() == want.encode()
    assert "-0.0,0.1\n5e-324,-0.0\n1e+16,1.0\n" in want
    assert np.array_equal(px.SampledField.from_csv(path).values, values)


def test_csv_header_cannot_force_allocation(tmp_path):
    # 2000x2000 complex cells would be 64 MB; only the one value line
    # the file holds is ever stored.
    path = tmp_path / "oversized.csv"
    path.write_text("0,1,0,1,2000,2000\n0,0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="line 1: header declares 2000x2000"):
            px.SampledField.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "text, error",
    [
        ("0,1,0,1,2,2\n1,0\n2,0\n3,0\n4,-1\n", None),
        ("0,1,0,1,2000,2000\n0,0\n", "line 1: header declares 2000x2000"),
    ],
    ids=["grid", "oversized"],
)
def test_csv_from_pipe(tmp_path, text, error):
    # A grid read from a pipe, which cannot seek and has no size, loads
    # as from a file, and the header check still refuses an oversized one.
    path = tmp_path / "grid.pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    if error is None:
        field = px.SampledField.from_csv(path)
        assert field.values.ravel().tolist() == [1, 2, 3, 4 - 1j]
    else:
        with pytest.raises(ValueError, match=error):
            px.SampledField.from_csv(path)
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("case", ["empty block after the cells", "empty block among the cells", "256sq"])
def test_csv_reader_lets_no_warning_escape(tmp_path, case):
    path = tmp_path / "field.csv"
    if case == "256sq":
        field = _textured_field(-8.0, 8.0, -8.0, 8.0, 256, 256, 2.0, seed=5)
        field.to_csv(path)
    elif case == "empty block after the cells":
        path.write_text("0,1,0,1,2,2\n1,0\n2,0\n3,0\n4,0\n" + "\n" * 5000)
    else:
        # 4096 cells, a block of 4096 empty lines, then the 2 cells left.
        path.write_text("0,1,0,1,2,4097\n" + "1,0\n" * 4096 + "\n" * 4096 + "1,0\n" * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case == "empty block among the cells":
            with pytest.raises(ValueError) as error:
                px.SampledField.from_csv(path)
            assert str(error.value) == "line 4098: expected 're,im', got ''"
        else:
            back = px.SampledField.from_csv(path)
    if case == "256sq":
        assert np.array_equal(back.values, field.values)
    elif case == "empty block after the cells":
        assert back.values.ravel().tolist() == [1, 2, 3, 4]


def test_csv_reading_peaks_below_the_line_reader(tmp_path):
    # Measured on a 256^2 file (numpy 2.4): the block reader peaks at
    # 2.02 MiB, the blocks and their join; the line reader at 4.11 MiB,
    # a list of 65536 complex objects and the array made from it.
    field = _textured_field(-8.0, 8.0, -8.0, 8.0, 256, 256, 2.0, seed=5)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    peaks = []
    for reader in (px.SampledField.from_csv, _reference_from_csv):
        tracemalloc.start()
        try:
            reader(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 5 << 19 < peaks[1], peaks
