"""Straightening a Beltrami field on a square grid, and what it buys.

The straightening map h solves dbar(h) = mu * d(h), fixes 0 and 1, and is
computed by a fixed-point sweep in the derivative variable, diagonalized by
the FFT. Central-difference Wirtinger operators make the sweep multiplier
unimodular, so the iteration contracts whenever sup|mu| < 1. The four modes
the central stencil cannot see (mean and the three Nyquist corners) are
matched explicitly through an affine channel and three checkerboard kernel
terms. mu lives on a block of rows and columns of the padded grid, and the
sweep needs the iterate only there: the multiplier restricted to the block is
a convolution with its periodic kernel at offsets inside the block, applied
by one zero-padded FFT pair of about twice the block's size per sweep. That
kernel is the d of the periodic Cauchy kernel, which also carries the
converged iterate from the block to the window, so one inverse transform
per grid and block gives both.
Conjugating the germ by h realizes the requested multipliers globally, and a
Cauchy integral over the h-image of a chart circle measures them from
forward values of h alone; sampling h along a parameter path gives the
motion probe.
"""

from __future__ import annotations

import cmath
import functools
import io
import math
import numbers
import os
import struct
import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .beltrami import BeltramiField, FieldEntry, _assemble, shear_coefficient, walk_charts
from .cycles import classify, repelling_cycle, repelling_cycles
from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    SingularDerivativeError,
    UnreliableEstimateError,
)
from .germ import Germ, check_integer, check_positive, is_finite
from .koenigs import build_chart
from .local_deform import cauchy_cycle_derivative

SOLVER_TOL = 1e-8
MAX_SWEEPS = 200
DEFAULT_GRID = 1024
DEFAULT_PAD = 2
MU_SUP_CAP = 1.0 - 1e-3
BORDER_FRACTION = 0.05
GLOBAL_MEASURE_FACTOR = 0.85
GLOBAL_AGREEMENT = 1e-3
# largest two-radius spread |m1 - m2| a measurement may show against the
# move |target - multiplier| it measures, fixed before any germ was measured
MOVE_SPREAD = 0.1
# largest drift |measured - f'(0)| an indifferent fixed point's multiplier may
# show against the smallest move, read on the h-image of |z| =
# FIXED_POINT_RADIUS; both fixed before any germ was measured
FIXED_POINT_DRIFT = 0.1
FIXED_POINT_RADIUS = 0.02
MOTION_GRID = 256
MOTION_TOL = 1e-10
# largest padded grid pad * grid: the solve's memory grows with its square,
# and a straighten run of 2z + z^2 at pad 2 peaks at about 0.11 GB at 2048
# and 0.32 GB at 4096 (ru_maxrss, 2 CPUs)
MAX_PADDED_GRID = 4096

_BOX_MIN_HALF_WIDTH = 1.25
# rows per pass of the sweep kernel's differences in the kernel fit
_BAND = 64
# nodes per pass of the orientation check. Its temporaries are then small
# enough for the heap to reuse; at 64 rows of a 256 grid, two t values of a
# motion finished at once on 2 CPUs raised its peak RSS by about 1.5 MB
_BAND_POINTS = 1 << 13
# the CPUs this process may run on; each line transform of the solve is split
# into one chunk of lines per CPU
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no CPU affinity on this platform
    _CPUS = os.cpu_count() or 1
# points below which a line transform runs as one call. Measured on 2 CPUs:
# split in two, 64 lines of 1024 took as long as one call and 64 lines of
# 2048 about a fifth less; below this run, for instance, the sweep
# transforms of a 256 grid
_SPLIT_POINTS = 1 << 17
# chunks start on multiples of this many lines, so that numpy's FFT groups
# the lines for SIMD as it does in one call
_LINE_ALIGN = 8
# lines per band of a pass that makes arrays of its own on each CPU: the
# kernel fit's passes along x and y, and a correction written over its
# kernel's spectrum; a multiple of _LINE_ALIGN. Heap freed by a pool thread
# stays resident, and at N=1024 bands of 64 rows raised a straighten's peak
# RSS by about 4 MB
_BAND_LINES = 16


@dataclass(frozen=True)
class Box:
    """Square window [-W, W) x [-W, W) centered at 0, sampled on an N x N
    lattice with the right endpoint excluded (FFT convention)."""

    half_width: float = _BOX_MIN_HALF_WIDTH

    def __post_init__(self):
        check_positive("box half width", self.half_width)

    def spacing(self, n: int) -> float:
        """The node spacing of an n x n lattice; n is a positive integer."""
        check_integer("n", n)
        if n < 1:
            raise DomainError("n must be at least 1 (got %s)" % n)
        return 2.0 * self.half_width / n

    def axis(self, n: int) -> np.ndarray:
        """The n node coordinates along either axis of nodes(n): column j of
        nodes(n) has real part axis(n)[j] and row i imaginary part
        axis(n)[i], bit for bit."""
        return -self.half_width + self.spacing(n) * np.arange(n)

    def nodes(self, n: int) -> np.ndarray:
        """The n x n lattice (row i at y, column j at x)."""
        t = self.axis(n)
        return t[None, :] + 1j * t[:, None]

    def extents(self) -> tuple[float, float, float, float]:
        w = self.half_width
        return (-w, w, -w, w)

    def check_inside(self, z) -> None:
        """Raise DomainError unless every point is finite and lies in the
        closed box (no comparison with NaN is true, so NaN is named first)."""
        z = np.asarray(z, dtype=complex)
        bad = z[~np.isfinite(z)]
        if bad.size:
            raise DomainError("evaluation point not finite: %s" % ", ".join(map(repr, bad[:3].tolist())))
        x0, x1, y0, y1 = self.extents()
        if (
            np.any(z.real < x0) or np.any(z.real > x1)
            or np.any(z.imag < y0) or np.any(z.imag > y1)
        ):
            raise DomainError("evaluation point outside grid box")


def box_for(germ: Germ) -> Box:
    # keep the normalization point z = 1 strictly inside
    return Box(max(2.0 * germ.radius_U, _BOX_MIN_HALF_WIDTH))


def check_solver_settings(n: int, tol: float, pad: int) -> None:
    """Refuse a grid size, pad factor or tolerance the solve cannot use or
    reach, or a padded grid pad * grid over MAX_PADDED_GRID, with a
    DomainError that names it as its config key does."""
    check_integer("grid", n)
    check_integer("pad", pad)
    if n < 16 or n % 2:
        raise DomainError("grid must be even and at least 16 (got %s)" % n)
    if pad < 1:
        raise DomainError("pad must be >= 1 (got %s)" % pad)
    if not (is_finite(tol) and tol > 0):
        raise DomainError("solver_tol must be finite and > 0 (got %s)" % tol)
    if n * pad > MAX_PADDED_GRID:
        raise DomainError("grid * pad must be at most %d (got grid %d, pad %d)" % (MAX_PADDED_GRID, n, pad))


def _central_symbol(n: int, dx: float) -> np.ndarray:
    """The central difference's symbol along one axis, exactly zero at
    Nyquist. The 2-D symbol s_c is s[j] + i s[i] at row i, column j; the
    dbar symbol is (i/2) s_c and the d symbol (i/2) conj(s_c)."""
    j = np.fft.fftfreq(n, d=1.0 / n)  # integer mode indices
    s = np.sin(2.0 * np.pi * j / n) / dx
    s[np.abs(j.astype(int)) == n // 2] = 0.0
    return s


def _corner_bins(n: int):
    half = n // 2
    return ((0, half), (half, 0), (half, half))


def _checkerboards(n: int, rows: slice, cols: slice):
    """The three checkerboards of the n x n grid, on the given rows and
    columns: alternating along x, along y, and both."""
    sign = (-1.0) ** np.arange(n)
    sx = sign[cols][None, :]
    sy = sign[rows][:, None]
    shape = (sy.shape[0], sx.shape[1])
    return np.broadcast_to(sx, shape), np.broadcast_to(sy, shape), sy * sx


def _smooth_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length numpy's FFT runs fast on."""
    v = max(m, 1)
    while True:
        r = v
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return v
        v += 1


def _wirtinger_grid(s: np.ndarray, dx: float):
    """(d, dbar) of grid samples by central differences, on the interior
    nodes only (one node in from every edge)."""
    fx = (s[1:-1, 2:] - s[1:-1, :-2]) / (2 * dx)
    fy = (s[2:, 1:-1] - s[:-2, 1:-1]) / (2 * dx)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _min_jacobian(s: np.ndarray, dx: float) -> float:
    """Smallest Jacobian u_x v_y - u_y v_x of grid samples s = u + iv by
    central differences, which is |d|^2 - |dbar|^2, on the nodes two in
    from every edge, over bands of rows. It is read on the real and
    imaginary planes from unscaled differences, and the minimum is scaled
    once by 1/(2 dx)^2."""
    n = s.shape[0]
    u, v = s.real, s.imag
    band = max(1, _BAND_POINTS // n)
    low = math.inf
    for i in range(2, n - 2, band):
        end = min(i + band, n - 2)
        rows, up, down = np.s_[i:end], np.s_[i + 1 : end + 1], np.s_[i - 1 : end - 1]
        jac = u[rows, 3:-1] - u[rows, 1:-3]
        jac *= v[up, 2:-2] - v[down, 2:-2]
        cross = u[up, 2:-2] - u[down, 2:-2]
        cross *= v[rows, 3:-1] - v[rows, 1:-3]
        jac -= cross
        low = min(low, float(np.min(jac)))
    return low / (2.0 * dx) ** 2


def _support_span(nonzero: np.ndarray, off: int) -> tuple[int, int]:
    """First and one-past-last index of the True entries, shifted by off
    ((off, off) when there are none)."""
    idx = np.flatnonzero(nonzero)
    return (off + int(idx[0]), off + int(idx[-1]) + 1) if idx.size else (off, off)


def _keys_stencil(u: np.ndarray, n: int):
    """The four nodes around fractional grid coordinates u along one axis:
    their weights in Keys' cubic convolution kernel with a = -1/2 (IEEE
    Trans. ASSP 29(6), 1981), their indices clamped to 0..n-1, and how far,
    in nodes, the weighted clamped nodes fall short of the unclamped ones.
    At a node the weights are exactly 0, 1, 0, 0."""
    base = np.floor(u)
    t = u - base
    t2 = t * t
    t3 = t2 * t
    weights = (
        0.5 * (2.0 * t2 - t3 - t),
        0.5 * (3.0 * t3 - 5.0 * t2 + 2.0),
        0.5 * (4.0 * t2 - 3.0 * t3 + t),
        0.5 * (t3 - t2),
    )
    idx = [base.astype(int) + k for k in (-1, 0, 1, 2)]
    clamped = [np.clip(k, 0, n - 1) for k in idx]
    shortfall = sum(w * (k - c) for w, k, c in zip(weights, idx, clamped))
    return weights, clamped, shortfall


def _keys(box: Box, samples: np.ndarray, z: np.ndarray) -> np.ndarray:
    """GridMap.__call__ on the samples of the box's n x n nodes, at points
    z of the closed box, without the map's checks."""
    n = samples.shape[0]
    x0, _, y0, _ = box.extents()
    dx = box.spacing(n)
    wx, cols, short_x = _keys_stencil((z.real - x0) / dx, n)
    wy, rows, short_y = _keys_stencil((z.imag - y0) / dx, n)
    # each tap is one take at i * step + j from the memory the rows span,
    # so a window of a wider array (the solve's h) is read where it lies
    size = samples.itemsize
    if samples.strides[1] != size or samples.strides[0] % size or samples.strides[0] < n * size:
        samples = np.ascontiguousarray(samples)
    step = samples.strides[0] // size
    flat = np.lib.stride_tricks.as_strided(samples, ((n - 1) * step + n,), (size,), writeable=False)
    h = np.zeros(z.shape, dtype=complex)
    for w_row, i in zip(wy, rows):
        at = i * step
        row = np.zeros(z.shape, dtype=complex)
        for w_col, j in zip(wx, cols):
            row += w_col * flat.take(at + j)
        h += w_row * row
    # the kernel reproduces z, so holding h - z at the clamped nodes adds
    # back the distance they were moved
    h += dx * (short_x + 1j * short_y)
    return h


_KERNEL_DBAR = (-0.5, -0.5j, -0.5)
_KERNEL_D = (-0.5, +0.5j, -0.5)


class GridMap:
    """Sampled straightening map with interpolation and a finite-difference
    Beltrami readback.

    samples[i, j] is h at node (row i, col j) of box.nodes(n); h is already
    normalized to fix 0 and 1.
    """

    def __init__(self, box: Box, samples: np.ndarray, diagnostics: dict[str, Any] | None = None):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[0] != samples.shape[1]:
            raise DomainError("grid map samples must be square")
        if not samples.size:
            raise DomainError("grid map samples must not be empty")
        if not np.isfinite(samples.view(float)).all():
            raise DomainError("grid map samples must be finite")
        self.box = box
        self.n = samples.shape[0]
        self.samples = samples
        self.diagnostics = dict(diagnostics or {})

    # ---- evaluation ----------------------------------------------------

    def __call__(self, z):
        """h at points of the closed box, by Keys' cubic convolution
        (Catmull-Rom, a = -1/2) of the displacement h - z on the 4 x 4 nodes
        around each point. Past the last node the displacement is held at
        its edge value. The interpolant passes through the samples,
        reproduces quadratics and is C^1; each point reads only its own 16
        nodes."""
        z = np.asarray(z, dtype=complex)
        self.box.check_inside(z)
        h = _keys(self.box, self.samples, z)
        return complex(h) if z.ndim == 0 else h

    def beltrami_at(self, z: complex) -> complex:
        """mu = dbar h / d h from raw central differences at the nearest
        interior node. No interpolation, so it is an honest readback. z is
        checked as GridMap.__call__ checks its points."""
        z = complex(z)
        self.box.check_inside(z)
        x0, _, y0, _ = self.box.extents()
        dx = self.box.spacing(self.n)
        j = int(round((z.real - x0) / dx))
        i = int(round((z.imag - y0) / dx))
        if not (2 <= i < self.n - 2 and 2 <= j < self.n - 2):
            raise DomainError("point too close to the grid border for a derivative readback")
        d, db = _wirtinger_grid(self.samples[i - 1 : i + 2, j - 1 : j + 2], dx)
        d, db = d[0, 0], db[0, 0]
        if abs(d) < 1e-10:
            raise SingularDerivativeError("holomorphic derivative vanished at readback node")
        return complex(db / d)

    # ---- serialization ---------------------------------------------------

    def write(self, fh) -> None:
        """Write the map to a binary file: n as a little-endian uint32, the
        box extents as four little-endian float64, then the samples in C
        order as little-endian complex128 (real part first), from their own
        buffer where it is already laid out so."""
        fh.write(struct.pack("<I4d", self.n, *self.box.extents()))
        fh.write(np.ascontiguousarray(self.samples, dtype="<c16").data)

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self.write(buf)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GridMap":
        if len(raw) < 4 + 32:
            raise DomainError("grid map blob too short")
        (n,) = struct.unpack_from("<I", raw, 0)
        x0, x1, y0, y1 = struct.unpack_from("<4d", raw, 4)
        expected = 4 + 32 + n * n * 16
        if len(raw) != expected:
            raise DomainError("grid map blob has wrong length for n = %d" % n)
        if (x0, y0, y1) != (-x1, -x1, x1):
            raise DomainError("grid map blob box is not a square centered at 0")
        # the samples as write laid them out, every bit kept (a sum re + 1j *
        # im would turn a -0.0 real part into +0.0)
        return cls(Box(x1), np.frombuffer(raw, dtype="<c16", offset=36).reshape(n, n).copy())

    def sidecar(self) -> dict[str, Any]:
        x0, x1, y0, y1 = self.box.extents()
        out = {"n": self.n, "box": [x0, x1, y0, y1]}
        out.update(self.diagnostics)
        return out


@functools.cache
def _pool():
    """The threads that run all but the caller's call of a split, started
    at the first split."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="germdeform-fft")


# set on a thread while it runs a call of a split
_in_split = threading.local()


def _run_in_split(call) -> None:
    _in_split.active = True
    try:
        call()
    finally:
        _in_split.active = False


def _split(calls: Sequence) -> None:
    """Run the calls, the first on the caller and the rest on _pool(), and
    return once every one has finished, raising the first failure in call
    order. A split asked for from inside a call of another split runs its
    calls in turn on its own thread, so that no pool thread ever waits on
    the pool; a single call runs alone on the caller."""
    if len(calls) == 1 or getattr(_in_split, "active", False):
        for call in calls:
            call()
        return
    futures = [_pool().submit(_run_in_split, call) for call in calls[1:]]
    try:
        _run_in_split(calls[0])
    finally:
        for f in futures:
            f.exception()  # waits until that call is done with its arrays
    for f in futures:
        f.result()


def _split_lines(lines: int, points: int, work) -> None:
    """work(a, b) on lines a to b - 1 of 0 to lines - 1, in one contiguous
    chunk per CPU, each starting on a multiple of _LINE_ALIGN, run by
    _split; or work(0, lines) alone on one CPU or below _SPLIT_POINTS
    points."""
    if _CPUS == 1 or points < _SPLIT_POINTS:
        work(0, lines)
        return
    step = -(-lines // _CPUS)
    step = -(-step // _LINE_ALIGN) * _LINE_ALIGN
    _split([functools.partial(work, a, min(a + step, lines)) for a in range(0, lines, step)])


def _lines(transform, src: np.ndarray, out: np.ndarray, axis: int, n: int | None = None) -> None:
    """transform(src, n, axis, out=out), np.fft.fft or ifft along axis 1 (the
    rows are the lines) or axis 0 (the columns are), into the caller's out,
    which may be src itself, split by _split_lines on the points of out.
    numpy's FFT releases the GIL and transforms each line on its own, so the
    bits are those of the one call."""

    def chunk(a: int, b: int) -> None:
        # a cut takes rows when the lines are rows, columns when they are columns
        cut = (slice(None),) * (1 - axis) + (slice(a, b),)
        transform(src[cut], n, axis, None, out[cut])

    _split_lines(out.shape[1 - axis], out.size, chunk)


def _residue_offsets(m: int, size: int) -> np.ndarray:
    """For each residue mod m, the offset in [1 - size, m - size] congruent
    to it."""
    return (np.arange(m) + size - 1) % m - (size - 1)


class BeurlingKernel:
    """The periodic Cauchy kernel of one padded grid, between mu's support
    block and the n0 x n0 window.

    Made for a box, grid size n0 and pad factor; fit(block) takes the
    inverse transform of the correction multiplier c_mult = -2i/s_c once, on
    the Hermitian half of its symbol, at the offsets the block and the
    window need, and keeps two spectra of it: corr_hat for the correction
    and kernel_hat for the sweep. Neither is of the padded grid's size
    unless the window and the block together outspan it (as at pad 1).
    Once fitted, a kernel is only read, by apply and correct, so it may
    serve every series on its block, on several threads at once; but a
    single_use kernel (a solve's own) writes its correction over corr_hat,
    so that the correction makes no second spectrum of that size, and is
    spent after one correction.

    Every line transform of the fit, apply and correct from _SPLIT_POINTS
    points up is split into one chunk of lines per CPU the process may run
    on (os.sched_getaffinity, or os.cpu_count() where that is missing) and
    run on a thread pool; each line is transformed on its own, so the bits
    do not depend on the count.
    """

    def __init__(self, box: Box, n0: int, pad: int, single_use: bool = False):
        self.box = box
        self.n0 = n0
        self.pad = pad
        self.single_use = single_use
        self.block: tuple[int, int, int, int] | None = None

    def fit(self, block: tuple[int, int, int, int]) -> None:
        """Rows r0:r1 and columns c0:c1 of the padded grid, as (r0, r1, c0,
        c1).

        The correction reads g = ifft2(c_mult) at the offsets of window rows
        from block rows, 1 - R to n0 - 1, and of columns likewise. They sit
        at their residues on an Mr x Mc grid: Mr is the smallest 5-smooth
        length >= n0 + R - 1, which keeps them apart, or n when that is
        shorter, where offsets that share a residue carry the same value of
        the n-periodic g.

        The central symbol is odd to the bit, so c_mult(-kx, ky) = conj
        c_mult(kx, ky) and c_mult(kx, -ky) = -conj c_mult(kx, ky): the
        inverse transform of each row along x is real, that of row -ky is
        that of row ky reflected in x and negated, and only rows 0 to n/2
        are made, each as the irfft of its first n/2 + 1 symbols, in bands
        of rows split over the CPUs, keeping the Mc columns and their
        reflections. The inverse along y of those real columns is, at
        offset y, conj(F[y]) for y <= n/2 and F[n - y] above, where F is
        their rfft scaled by 1/n; it is made in bands of columns split over
        the CPUs, keeping the Mr rows. So no complex array of n rows, and no
        array of the whole n x n grid, is made.

        The sweep's kernel is k = ifft2(conj(s_c)/s_c), and conj(s_c)/s_c =
        (i/2) conj(s_c) c_mult, where (i/2) conj(s_c) is the symbol of the
        central-difference d: so k is d of g, on the offsets (-R, R) x
        (-C, C), made in bands of rows and placed on the Lr x Lc grid of
        apply. The frame of the solve keeps the block off the window's edge,
        so g is at hand on the offsets [-R, R] x [-C, C] that the
        differences read."""
        r0, r1, c0, c1 = block
        n0, n = self.n0, self.n0 * self.pad
        off, half = (n - n0) // 2, n // 2
        R, C = r1 - r0, c1 - c0
        self.boards = _checkerboards(n, np.s_[r0:r1], np.s_[c0:c1])
        if not R:  # mu == 0: nothing to convolve
            self.corr_hat = self.kernel_hat = None
            self.block = block
            return
        assert off < r0 and r1 < off + n0 and off < c0 and c1 < off + n0, block
        dx = self.box.spacing(n0)
        s = _central_symbol(n, dx)
        Mr = min(n, _smooth_length(n0 + R - 1))
        Mc = min(n, _smooth_length(n0 + C - 1))
        cols = (_residue_offsets(Mc, C) + off - c0) % n
        mirror = -cols % n
        rows = (_residue_offsets(Mr, R) + off - r0) % n
        gx = np.empty((n, Mc))

        def along_x(a: int, b: int) -> None:
            for i in range(a, b, _BAND_LINES):
                end = min(i + _BAND_LINES, b)
                band = s[None, : half + 1] + 1j * s[i:end, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(-2j, band, out=band)
                # the central symbol vanishes on the mean and the three Nyquist corners
                for r, c in ((0, 0),) + _corner_bins(n):
                    if i <= r < end:
                        band[r - i, c] = 0
                line = np.fft.irfft(band, n, axis=1)
                np.take(line, cols, axis=1, out=gx[i:end], mode="wrap")
                # rows n - lo down to n - hi + 1 are the rows lo to hi - 1 reflected
                lo, hi = max(i, 1), min(end, half)
                if lo < hi:
                    np.negative(line[lo - i : hi - i, mirror][::-1], out=gx[n - hi + 1 : n - lo + 1])

        _split_lines(half + 1, (half + 1) * n, along_x)
        g = np.empty((Mr, Mc), dtype=complex)
        low = (rows <= half)[:, None]
        fold = np.where(rows <= half, rows, n - rows)

        def along_y(a: int, b: int) -> None:
            for j in range(a, b, _BAND_LINES):
                part = g[:, j : min(j + _BAND_LINES, b)]
                part[...] = np.fft.rfft(gx[:, j : j + part.shape[1]], axis=0, norm="forward")[fold]
                np.conjugate(part, out=part, where=low)

        _split_lines(Mc, n * Mc, along_y)
        del gx
        self.Lr = min(n, _smooth_length(2 * R - 1))
        self.Lc = min(n, _smooth_length(2 * C - 1))
        kernel = np.zeros((self.Lr, self.Lc), dtype=complex)
        near_r = (np.arange(-R, R + 1) + r0 - off) % Mr
        near_c = (np.arange(-C, C + 1) + c0 - off) % Mc
        at_r, at_c = np.arange(1 - R, R) % self.Lr, np.arange(1 - C, C) % self.Lc
        for i in range(0, 2 * R - 1, _BAND):
            end = min(i + _BAND, 2 * R - 1)
            near = g[np.ix_(near_r[i : end + 2], near_c)]
            kernel[np.ix_(at_r[i:end], at_c)] = _wirtinger_grid(near, dx)[0]
        # fft2 in place, in numpy's axis order
        _lines(np.fft.fft, g, g, 1)
        _lines(np.fft.fft, g, g, 0)
        self.corr_hat = g
        _lines(np.fft.fft, kernel, kernel, 1)
        _lines(np.fft.fft, kernel, kernel, 0)
        self.kernel_hat = kernel
        self.block = block

    @staticmethod
    def _convolve(
        x: np.ndarray, hat: np.ndarray | None, rows: int, cols: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The periodic convolution of x, zero-padded to hat's grid, read on
        its first rows x cols. The forward transform runs along rows on x's
        rows, then along columns in bands of columns split over the CPUs,
        each band zero-padded to hat's rows and its spectrum multiplied by
        hat there into out; the inverse runs along rows on all of out's
        rows, then along columns on the first cols columns only. That is
        numpy's own axis order for fft2 and ifft2, and the spectrum is the
        first factor of each product, as in spec * hat (numpy's complex
        product is not bitwise commutative), so the bits are those of
        ifft2(fft2(x, s=hat.shape) * hat)[:rows, :cols]. out is an array of
        hat's shape, made here unless the caller names one (hat itself,
        when the caller gives hat up), and the result is a view of it."""
        if hat is None:
            return np.zeros((rows, cols), dtype=complex)
        if out is None:
            out = np.empty(hat.shape, dtype=complex)
        Lr, Lc = hat.shape
        m = x.shape[0]
        spare = out is hat
        # the pass along rows goes into out's first rows, or beside them when out is hat
        head = np.empty((m, Lc), dtype=complex) if spare else out[:m]
        _lines(np.fft.fft, x, head, 1, Lc)

        def along_y(a: int, b: int) -> None:
            # each CPU's columns at once in place, or, while hat is still
            # read, in bands of _BAND_LINES columns with a spectrum of their own
            width = _BAND_LINES if spare else b - a
            for j in range(a, b, width):
                k = min(j + width, b)
                if spare:
                    spec = np.empty((Lr, k - j), dtype=complex)
                    spec[:m] = head[:, j:k]
                else:
                    spec = out[:, j:k]
                spec[m:] = 0
                np.fft.fft(spec, None, 0, out=spec)
                np.multiply(spec, hat[:, j:k], out=out[:, j:k])

        _split_lines(Lc, out.size, along_y)
        del head
        _lines(np.fft.ifft, out, out, 1)
        left = out[:, :cols]
        _lines(np.fft.ifft, left, left, 0)
        return left[:rows]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The periodic Beurling transform of x, zero off the block, read on
        the block."""
        return self._convolve(x, self.kernel_hat, *x.shape)

    def correct(self, x: np.ndarray) -> np.ndarray:
        """The periodic inverse of dbar applied to x, zero off the block,
        read on the n0 x n0 window; a single-use kernel writes it over
        corr_hat."""
        out = self.corr_hat if self.single_use else None
        return self._convolve(x, self.corr_hat, self.n0, self.n0, out)


def _add_kernel_terms(dh: np.ndarray, gam: np.ndarray, boards) -> None:
    """dh += sum(gam * _KERNEL_D * boards), the checkerboards' share of d h
    on the block. The sum takes one value per row and column parity, so it
    is made on the block's first 2 x 2 nodes, by the same operations as on
    the whole block, and added to each parity's nodes: the bits of the
    whole-block sum without its block-sized temporaries."""
    terms = sum(g * d * b[:2, :2] for g, d, b in zip(gam, _KERNEL_D, boards))
    for (p, q), v in np.ndenumerate(terms):
        dh[p::2, q::2] += v


def _support_block(mu: np.ndarray, pad: int):
    """mu's support inside the border frame: the block of the padded grid
    that holds it, (r0, r1, c0, c1), a copy of mu on that block, sup|mu|
    there, its nonzero count and the count of nonzero frame nodes."""
    n0 = mu.shape[0]
    frame = max(2, int(BORDER_FRACTION * n0))
    inside = mu[frame:-frame, frame:-frame] != 0
    count = int(np.count_nonzero(inside))
    off = (n0 * pad - n0) // 2
    r0, r1 = _support_span(inside.any(axis=1), off + frame)
    c0, c1 = _support_span(inside.any(axis=0), off + frame)
    work = mu[r0 - off : r1 - off, c0 - off : c1 - off].copy()
    sup = float(np.max(np.abs(work))) if work.size else 0.0
    return (r0, r1, c0, c1), work, sup, count, int(np.count_nonzero(mu)) - count


def _cap_refusal(sup: float) -> DomainError | None:
    """The refusal of a field whose sup|mu| is over MU_SUP_CAP, or None."""
    if sup > MU_SUP_CAP:
        return DomainError("sup|mu| = %g exceeds the solvable cap %g" % (sup, MU_SUP_CAP))
    return None


def _neumann(kernel: BeurlingKernel, u: np.ndarray, scales: Sequence[complex], tol: float):
    """Solve x = m u (1 + S x + the checkerboard terms of x) on kernel's
    block for every scale m at once, by the Neumann series x = sum_j m^(j+1)
    X_j: X_0 = u and X_(j+1) = u (S X_j + the checkerboard terms of X_j) do
    not depend on m, so each term costs one Beurling transform for all the
    scales. At sweep j each scale adds m^j X_(j-1) (the powers built by
    repeated multiplication) to its x, and likewise to x's sums against 1
    and the three checkerboards and to its checkerboard coefficients gamma.
    A term's change figure c is the rms over the padded grid of the term
    less its projection on the mean and the checkerboards, plus its largest
    gamma; a scale's change at sweep j is |m|^j c of the term it added, and
    the scale converges at its first change below tol. No transform runs
    after the last term a scale needs. Returns each scale's (x, sums, gamma,
    history), or None for a scale that has not converged after MAX_SWEEPS,
    and the ConvergenceError that names the first such (None when every
    scale converged)."""
    n = kernel.n0 * kernel.pad
    boards = kernel.boards
    live = list(range(len(scales)))
    results: list[Any] = [None] * len(scales)
    xs = [np.zeros(u.shape, dtype=complex) for _ in live]
    sums = [np.zeros(4, dtype=complex) for _ in live]
    gams = [np.zeros(3, dtype=complex) for _ in live]
    powers = [1.0 + 0j for _ in live]
    histories: list[list[float]] = [[] for _ in live]
    scaled = np.empty(u.shape, dtype=complex)
    term = u
    for _ in range(MAX_SWEEPS):
        term_sums = np.array([term.sum()] + [np.sum(b * term) for b in boards])
        term_gam = term_sums[1:] / (n * n) / _KERNEL_DBAR
        # the mean and the checkerboards are orthogonal with norm n on the
        # padded grid; the squared norm is summed by numpy alone, so its bits
        # do not depend on BLAS
        step = float(np.sum(np.square(term.view(float))))
        step -= float(np.sum(np.abs(term_sums) ** 2)) / (n * n)
        change = math.sqrt(max(step, 0.0)) / n + float(np.max(np.abs(term_gam)))
        for k in live:
            powers[k] *= scales[k]
            xs[k] += np.multiply(term, powers[k], out=scaled)
            sums[k] += powers[k] * term_sums
            gams[k] += powers[k] * term_gam
            histories[k].append(abs(powers[k]) * change)
            if histories[k][-1] < tol:
                results[k] = (xs[k], sums[k], gams[k], histories[k])
        live = [k for k in live if results[k] is None]
        if not live:
            return results, None
        dh = kernel.apply(term)
        _add_kernel_terms(dh, term_gam, boards)
        term = u * dh
        del dh  # the spectrum dh is a view of
    return results, ConvergenceError(
        "solver did not reach tol %g in %d sweeps (last change %g)"
        % (tol, MAX_SWEEPS, histories[live[0]][-1])
    )


def _finish(kernel: BeurlingKernel, x: np.ndarray, sums: np.ndarray, gam: np.ndarray):
    """The normalized map from a converged iterate x on kernel's block, with
    its sums against 1 and the checkerboards and its checkerboard
    coefficients gam: the correction, the assembly of h on the n0 x n0
    window, the normalization that fixes 0 and 1, and the orientation
    check. h is assembled in place on the correction, a view of the larger
    array of its last transform, so that no second window is made: z +
    beta conj(z) and the three checkerboard terms gam[0] x s_x + gam[1] y
    s_y + gam[2] x s_x s_y (s the nodes' signs on the padded grid) are, on
    each of the real and imaginary planes, a vector along y plus, on the
    rows of each sign s_y, a vector along x, added by broadcasting. h(0)
    and h(1) are read by GridMap's interpolation. Returns the normalized h,
    still a view of the transform's array, which the caller wraps in its
    GridMap, and beta, the smallest Jacobian, h(0) and the scale h(1) - h(0)
    of the raw map."""
    box, n0 = kernel.box, kernel.n0
    n = n0 * kernel.pad
    off = (n - n0) // 2
    beta = sums[0] / (n * n)
    h = kernel.correct(x)
    t = box.axis(n0)
    sign = (-1.0) ** (off + np.arange(n0))
    ts = t * sign
    for plane, along_y, along_x, g0, g2 in (
        (h.real, beta.imag * t + gam[1].real * ts, (1.0 + beta.real) * t, gam[0].real, gam[2].real),
        (h.imag, (1.0 - beta.real) * t + gam[1].imag * ts, beta.imag * t, gam[0].imag, gam[2].imag),
    ):
        plane += along_y[:, None]
        for p in (0, 1):
            plane[p::2] += along_x + (g0 + sign[p] * g2) * ts

    # normalize: send 0 to 0 and 1 to 1 exactly
    ends = np.array([0j, 1.0 + 0j])
    box.check_inside(ends)
    h0, h1 = map(complex, _keys(box, h, ends))
    scale = h1 - h0
    if abs(scale) < 1e-12:
        raise ConvergenceError("normalization points collapsed")
    h -= h0
    h /= scale

    # orientation must survive: discrete Jacobian positive at interior nodes
    min_jac = _min_jacobian(h, box.spacing(n0))
    if min_jac <= 0:
        raise ConvergenceError("straightening lost orientation (min Jacobian %g)" % min_jac)
    return h, beta, min_jac, h0, scale


def solve_beltrami(
    mu: np.ndarray,
    box: Box,
    tol: float = SOLVER_TOL,
    pad: int = DEFAULT_PAD,
) -> GridMap:
    """Normalized solution of dbar h = mu * d h on the box.

    mu is sampled on box.nodes(n). A border frame is ignored (the field is
    expected to be compactly supported well inside the box; frame_clipped
    counts its nonzero nodes, and sup|mu| is read inside the frame) and mu
    is never written; the problem is embedded in a pad-times larger
    periodic grid to push wraparound images away, and the fixed point of x
    = mu * dh is found on mu's support block, rows r0:r1 and columns c0:c1
    (R x C) of the padded grid, with mean and Nyquist-corner channels
    matched explicitly.

    The Beurling multiplier s_mult vanishes on those four channels, so on
    the block dh = 1 + S(x) + the kernel terms, where S(x) is the periodic
    convolution of x with k = ifft2(s_mult) at offsets in (-R, R) x (-C, C).
    Those offsets, placed at their residues on an Lr x Lc grid (Lr the
    smallest 5-smooth length >= 2R - 1, or n when that is shorter, and
    likewise Lc), do not overlap, so S is applied by one zero-padded Lr x Lc
    transform pair. The fixed point is summed as its Neumann series (_neumann
    with the one scale 1): sweep j adds the term X_(j-1) = (mu L)^(j-1) mu,
    where L is S plus the kernel terms, and each term after the first costs
    one application of S. A sweep's change is the rms over the padded grid
    of its term less the term's mean and checkerboard components, plus the
    term's largest checkerboard coefficient; the sweeps stop at the first
    change below tol. The correction is the periodic inverse of dbar
    applied to rho (x less those components), read on the n0 window: a
    convolution of x with g = ifft2(c_mult), applied by one Mr x Mc
    transform pair (Mr >= n0 + R - 1). k is d of g, so one inverse
    transform of c_mult gives both kernels (BeurlingKernel, which every
    solve fits to its own block, on the Hermitian half of c_mult's
    symbol, and uses once). The kernel fit, the assembly of h and its
    orientation check run in bands; the sweep's arrays are freed before
    the correction, and the sweep kernel's spectrum after the sweeps; the
    correction is written over the kernel's own spectrum, which is freed
    once the window is copied out of it; the one GridMap returned is built
    on that copy. So no stage holds a padded-grid array, and the solve's
    peak is about four n0 x n0 arrays, at the fit.
    Each large line transform is split over the CPUs the process may run on
    (os.sched_getaffinity, or os.cpu_count() where that is missing), with
    bits that do not depend on their count, and the change per sweep is
    summed by numpy alone, so neither the samples nor the diagnostics
    depend on the CPU or BLAS thread count.
    """
    # contiguous, for the view(float) below; a strided input is copied
    mu = np.ascontiguousarray(mu, dtype=complex)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise DomainError("mu grid must be square")
    n0 = mu.shape[0]
    check_solver_settings(n0, tol, pad)
    if not np.isfinite(mu.view(float)).all():
        raise DomainError("mu grid must be finite")
    # the sweeps read mu on its block alone, which lies inside the frame
    block, work, sup, count, clipped = _support_block(mu, pad)
    del mu  # frees the copy made of a strided or non-complex mu
    refusal = _cap_refusal(sup)
    if refusal:
        raise refusal
    kernel = BeurlingKernel(box, n0, pad, single_use=True)
    kernel.fit(block)

    solved, error = _neumann(kernel, work, [1.0], tol)
    if error:
        raise error
    del work
    kernel.kernel_hat = None  # the sweeps are done
    x, sums, gam, history = solved.pop()
    h, beta, min_jac, h0, scale = _finish(kernel, x, sums, gam)
    del kernel, x
    # a window of its own, so that the map does not keep the transform's array
    return GridMap(box, h.copy(), {
        "sweeps": len(history),
        "final_change": history[-1],
        "history": history,
        "beta": [beta.real, beta.imag],
        "gammas": [[g.real, g.imag] for g in gam],
        "mu_sup": sup,
        "support_fraction": count / (n0 * n0),
        "frame_clipped": clipped,
        "pad": pad,
        "tol": tol,
        "min_jacobian": min_jac,
        "normalization": [[h0.real, h0.imag], [scale.real, scale.imag]],
    })


@dataclass(frozen=True)
class Deformation:
    """One multiplier retarget: which repelling cycle (by order, and index
    among that order's repelling cycles in canonical sort) and the new
    multiplier. A bool or non-integral order or cycle_index, and a target
    that is not a finite number, are refused here, before any census."""

    order: int
    target: complex
    cycle_index: int = 0

    def __post_init__(self):
        check_integer("order", self.order)
        check_integer("cycle_index", self.cycle_index)
        target = self.target
        if isinstance(target, bool) or not (
            isinstance(target, numbers.Number) and cmath.isfinite(target)
        ):
            raise DomainError("target must be a finite number (got %r)" % (target,))


def build_field(germ: Germ, deformations: Sequence[Deformation]) -> BeltramiField:
    """Invariant field realizing all requested retargets at once. Two
    deformations of one (order, cycle_index) are refused before the census."""
    if not deformations:
        raise DomainError("need at least one deformation")
    if len({(d.order, d.cycle_index) for d in deformations}) < len(deformations):
        raise DomainError("field entries must sit on distinct cycles")
    entries = []
    for d in deformations:
        cycle = repelling_cycle(germ, d.order, d.cycle_index)
        shear = shear_coefficient(cycle.multiplier, d.target)
        entries.append(FieldEntry(chart=build_chart(germ, cycle, 0), shear=shear))
    return BeltramiField(germ=germ, entries=tuple(entries))


def _move_ratio(gap: float, entries: Sequence[FieldEntry], budget: float, reading: str) -> float | None:
    """gap over the entries' smallest nonzero move |target - multiplier|, or
    None when every move is zero (no gate); over budget it raises, naming the reading."""
    move = min((m for m in (abs(e.shear.lam_prime - e.shear.lam) for e in entries) if m), default=0.0)
    if move and gap / move > budget:
        raise UnreliableEstimateError(
            "%s %.3g of the move %.3g, over the budget %g" % (reading, gap / move, move, budget)
        )
    return gap / move if move else None


class DeformedGerm:
    """The germ conjugated by the straightening of its invariant field.

    g = h o f o h^{-1} is holomorphic; its cycles sit at the h-images of the
    original ones and carry the target multipliers. It is never evaluated:
    each measurement is one cauchy_cycle_derivative reading with h the grid
    map, and returns its value beside its gate, so a reading keeps no
    state. mu is the sampled field the grid map was solved from.
    """

    def __init__(self, field: BeltramiField, grid_map: GridMap, mu: np.ndarray):
        self.field = field
        self.grid_map = grid_map
        self.mu = mu

    def _entry(self, entry_index: int) -> FieldEntry:
        """The field's entry_index-th entry; a bool, non-integral or
        out-of-range entry_index is a DomainError."""
        check_integer("entry_index", entry_index)
        count = len(self.field.entries)
        if not 0 <= entry_index < count:
            raise DomainError("entry_index %d out of range: the field has %d entries" % (entry_index, count))
        return self.field.entries[entry_index]

    def measure_radius(self, entry_index: int = 0) -> float:
        """GLOBAL_MEASURE_FACTOR r_c for the chart radius r_c of a checked entry."""
        return GLOBAL_MEASURE_FACTOR * self._entry(entry_index).chart.radius

    def measure_multiplier(self, entry_index: int = 0) -> tuple[complex, float | None]:
        """Multiplier of the deformed cycle at a = h(c), by one Cauchy reading
        on the h-images of the circles of measure_radius and half of it
        around the chart center c, gated on two-radius agreement and on the
        move: the spread |m1 - m2| of the two estimates over |target -
        multiplier| must not exceed MOVE_SPREAD, since a spread as large as
        the move cannot tell the moved multiplier from the old one (a zero
        move skips this gate). The larger-radius estimate wins: the integral
        damps interpolation noise linearly in the radius. Returns that
        estimate and its move-relative spread (None for a zero move). A bool,
        non-integral or out-of-range entry_index is a DomainError."""
        radius = self.measure_radius(entry_index)
        entry = self.field.entries[entry_index]
        # discretization error in h scales with grid spacing, so coarse
        # grids get a proportionally looser gate
        spacing = self.grid_map.box.spacing(self.grid_map.n)
        agreement = max(GLOBAL_AGREEMENT, 2.0 * spacing / radius)

        def return_map(z: np.ndarray) -> np.ndarray:
            for _ in range(entry.chart.cycle.order):
                z = self.field.germ.eval_raw(z)
            return z

        m1, m2 = cauchy_cycle_derivative(return_map, entry.chart.center, (radius, radius / 2), self.grid_map)
        if abs(m1 - m2) > agreement * max(abs(m1), 1e-300):
            raise UnreliableEstimateError(
                "global multiplier estimates disagree: %r vs %r" % (m1, m2)
            )
        return m1, _move_ratio(
            abs(m1 - m2), [entry], MOVE_SPREAD, "global multiplier estimates %r and %r spread" % (m1, m2)
        )

    def measure_fixed_point(self) -> tuple[complex, float | None] | None:
        """Multiplier of g at h(0), when the germ's fixed point 0 is
        indifferent (and so no deformed cycle, as those are repelling), by
        the Cauchy integral over the h-image of |z| = FIXED_POINT_RADIUS;
        None when 0 is not indifferent. A topological conjugacy keeps the
        multiplier of an indifferent fixed point (Naishul 1983), so the
        drift |measured - f'(0)| over the smallest nonzero move |target -
        multiplier| of the field's entries must not exceed
        FIXED_POINT_DRIFT. Returns the measured multiplier and that drift
        (None when every move is zero, which skips the gate)."""
        lam0 = self.field.germ.coeffs[0]
        if classify(lam0) != "indifferent":
            return None
        measured = cauchy_cycle_derivative(self.field.germ.eval_raw, 0j, FIXED_POINT_RADIUS, self.grid_map)
        return measured, _move_ratio(
            abs(measured - lam0), self.field.entries, FIXED_POINT_DRIFT,
            "indifferent fixed point's multiplier reads %r against %r, a drift of" % (measured, lam0),
        )


def global_deform(
    germ: Germ,
    deformations: Sequence[Deformation],
    n: int = DEFAULT_GRID,
    tol: float = SOLVER_TOL,
    pad: int = DEFAULT_PAD,
) -> DeformedGerm:
    """Full pipeline: census, charts, shears, field sampling, straightening,
    on the box box_for(germ). The solver settings are checked first."""
    check_solver_settings(n, tol, pad)
    box = box_for(germ)
    field = build_field(germ, deformations)
    diag: dict[str, Any] = {}
    mu = field.sample_grid(box.nodes(n), diagnostics=diag)
    gm = solve_beltrami(mu, box, tol=tol, pad=pad)
    gm.diagnostics["field"] = diag
    return DeformedGerm(field, gm, mu)


def _take_in_order(indices: Sequence[int], work, outcomes: list) -> None:
    """work(i) for each index in order, split over the CPUs by _split: the
    caller and the pool's threads each take the next index as they finish
    their last. When work(i) raises, its error is written to outcomes[i],
    and the indices after it are still taken."""
    pending = iter(indices)
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                work(i)
            except BaseException as exc:
                outcomes[i] = exc

    _split([take] * max(1, min(_CPUS, len(indices))))


def motion_sample(
    germ: Germ,
    t_values: Sequence[complex],
    points: Sequence[complex],
    orders: Sequence[int] = (1,),
    n: int = MOTION_GRID,
    tol: float = MOTION_TOL,
    pad: int = DEFAULT_PAD,
) -> list[list[complex]]:
    """h_t at the given points on the standard parameter slice, where every
    repelling cycle of the listed orders is sent to multiplier 1/t: one row
    of images per t. The solver settings, the orders (integers, no repeats),
    t_values (nonempty) and points (a sequence) are checked before the
    census, every t, point and shear before the first walk; the census, the
    charts and the backward walk to them (walk_charts) do not depend on t,
    so they are made once.

    The field is linear in the shear coefficients, so mu_t = s_t U_t: s_t is
    t's coefficient of largest modulus (the first on ties) and U_t the field
    of its coefficients over s_t, 1 at that chart and no larger elsewhere
    (all 1 when s_t = 0), so the series' terms stay bounded. With one chart
    U_t is the field U of coefficient 1 for every t. The t values with one
    U_t are summed from one Neumann series of it (_neumann), so each term
    costs one Beurling transform for all of them; a t with s_t = 0 gives
    the identity, and the sums of at most about four windows' worth of t
    values are held at once (in groups past that, each from its own
    series). The series are taken in order of their first t
    (_take_in_order): the first on the caller, which fits the kernel on its
    block, and the rest by the caller and the pool's threads at once, a
    series on that block reading the kernel and one on another block
    fitting its own. Once a series or group ends, its converged t values are
    finished by the same rule, the lowest first: by the caller and the
    pool's threads, or in turn by the thread that summed them when it runs
    a call of a split.

    Each t has one slot, which holds its row or the error that ended it. A
    t whose sup|s_t U_t| is over the cap holds its refusal and is left out
    of its series; a series that fails is the failure of the lowest t it
    had not converged; every other t is summed and finished. Once every t
    is done, the call raises the error of the lowest t that holds one, as a
    loop over the t values would. Each row is bitwise the row of a call
    with that t alone."""
    check_solver_settings(n, tol, pad)
    for k, q in enumerate(orders):
        check_integer("orders[%d]" % k, q)
    if not len(orders):
        raise DomainError("orders must be nonempty")
    if len(set(orders)) < len(orders):
        raise DomainError("orders must be distinct (got %s)" % list(orders))
    ts = [complex(t) for t in t_values]
    if not ts:
        raise DomainError("t_values must be nonempty")
    # a NaN t fails every comparison, so it is refused with the rest
    if any(not 0 < abs(t) < 1.0 for t in ts):
        raise DomainError("motion parameter must satisfy 0 < |t| < 1")
    box = box_for(germ)
    zs = np.asarray(points, dtype=complex)
    if zs.ndim == 0:
        raise DomainError("points must be a sequence of points (got the one number %r)" % (points,))
    box.check_inside(zs)
    charts = [build_chart(germ, c, 0) for q in orders for c in repelling_cycles(germ, q)]
    if not charts:
        raise InsufficientDataError("no repelling cycles found for the requested orders")
    shears = [[shear_coefficient(c.cycle.multiplier, 1.0 / t) for c in charts] for t in ts]
    walk = walk_charts(germ, charts, box.nodes(n))
    scales: list[complex] = []
    series: dict[tuple, list[int]] = {}
    for i, row in enumerate(shears):
        ms = [s.mu for s in row]
        k0 = max(range(len(ms)), key=lambda k: abs(ms[k]))
        s = ms[k0]
        scales.append(s)
        unit = tuple(1.0 if k == k0 or not s else m / s for k, m in enumerate(ms))
        series.setdefault(unit, []).append(i)
    by_first = {indices[0]: (unit, indices) for unit, indices in series.items()}
    kernel = BeurlingKernel(box, n, pad)
    # each t's row, or the error that ended it
    outcomes: list[Any] = [None] * len(ts)

    def run(first: int) -> None:
        unit, indices = by_first[first]
        block, u, sup, _, _ = _support_block(_assemble(walk, unit), pad)
        # the first series runs alone on the caller and fits the shared kernel
        own = kernel if kernel.block in (None, block) else BeurlingKernel(box, n, pad)
        if own.block is None:
            own.fit(block)
        for i in indices:
            outcomes[i] = _cap_refusal(abs(scales[i]) * sup)
        todo = [i for i in indices if outcomes[i] is None]
        group = max(1, 4 * n * n // max(u.size, 1))
        for start in range(0, len(todo), group):
            part = todo[start : start + group]
            results, error = _neumann(own, u, [scales[i] for i in part], tol)
            if error:
                outcomes[part[results.index(None)]] = error
            summed = {i: result[:3] for i, result in zip(part, results) if result}
            del results  # each sum is freed once its t is finished

            def finish(i: int) -> None:
                outcomes[i] = GridMap(box, _finish(own, *summed.pop(i))[0])(zs).tolist()

            _take_in_order(list(summed), finish, outcomes)

    firsts = list(by_first)
    run(firsts[0])
    _take_in_order(firsts[1:], run, outcomes)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes
