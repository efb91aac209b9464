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
by one zero-padded FFT pair of about twice the block's size per sweep.
Conjugating the germ by h realizes the requested multipliers globally, and a
Cauchy integral over the h-image of a chart circle measures them from
forward values of h alone; sampling h along a parameter path gives the
motion probe.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .beltrami import BeltramiField, FieldEntry, shear_coefficient
from .cycles import repelling_cycle, repelling_cycles
from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    SingularDerivativeError,
    UnreliableEstimateError,
)
from .germ import Germ
from .koenigs import build_chart
from .local_deform import MEASURE_POINTS, contour_multiplier

SOLVER_TOL = 1e-8
MAX_SWEEPS = 200
DEFAULT_GRID = 1024
DEFAULT_PAD = 2
MU_SUP_CAP = 1.0 - 1e-3
BORDER_FRACTION = 0.05
GLOBAL_MEASURE_FACTOR = 0.85
GLOBAL_AGREEMENT = 1e-3
MOTION_GRID = 256
MOTION_TOL = 1e-10

_BOX_MIN_HALF_WIDTH = 1.25


@dataclass(frozen=True)
class Box:
    """Square window [-W, W) x [-W, W) centered at 0, sampled on an N x N
    lattice with the right endpoint excluded (FFT convention)."""

    half_width: float = _BOX_MIN_HALF_WIDTH

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise DomainError("box half width must be positive and finite")

    def spacing(self, n: int) -> float:
        return 2.0 * self.half_width / n

    def nodes(self, n: int) -> np.ndarray:
        """The n x n lattice (row i at y, column j at x)."""
        t = -self.half_width + self.spacing(n) * np.arange(n)
        return t[None, :] + 1j * t[:, None]

    def extents(self) -> tuple[float, float, float, float]:
        w = self.half_width
        return (-w, w, -w, w)

    def check_inside(self, z) -> None:
        """Raise DomainError unless every point lies in the closed box."""
        z = np.asarray(z, dtype=complex)
        x0, x1, y0, y1 = self.extents()
        if (
            np.any(z.real < x0) or np.any(z.real > x1)
            or np.any(z.imag < y0) or np.any(z.imag > y1)
        ):
            raise DomainError("evaluation point outside grid box")


def box_for(germ: Germ) -> Box:
    # keep the normalization point z = 1 strictly inside
    return Box(max(2.0 * germ.radius_U, _BOX_MIN_HALF_WIDTH))


def _central_symbols(n: int, dx: float):
    j = np.fft.fftfreq(n, d=1.0 / n)  # integer mode indices
    s = np.sin(2.0 * np.pi * j / n) / dx
    s[np.abs(j.astype(int)) == n // 2] = 0.0  # exact zero at Nyquist
    sx = s[None, :]
    sy = s[:, None]
    return sx + 1j * sy  # s_c; dbar symbol is (i/2) s_c, d symbol (i/2) conj(s_c)


def _corner_bins(n: int):
    half = n // 2
    return ((0, half), (half, 0), (half, half))


def _checkerboards(n: int, rows: slice = slice(None), cols: slice = slice(None)):
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
    """(d, dbar) of grid samples by central differences. The stencil wraps
    around, so the outermost rows and columns are not true differences."""
    fx = (np.roll(s, -1, axis=1) - np.roll(s, 1, axis=1)) / (2 * dx)
    fy = (np.roll(s, -1, axis=0) - np.roll(s, 1, axis=0)) / (2 * dx)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


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
        x0, _, y0, _ = self.box.extents()
        dx = self.box.spacing(self.n)
        wx, cols, short_x = _keys_stencil((z.real - x0) / dx, self.n)
        wy, rows, short_y = _keys_stencil((z.imag - y0) / dx, self.n)
        h = np.zeros(z.shape, dtype=complex)
        for w_row, i in zip(wy, rows):
            row = np.zeros(z.shape, dtype=complex)
            for w_col, j in zip(wx, cols):
                row += w_col * self.samples[i, j]
            h += w_row * row
        # the kernel reproduces z, so holding h - z at the clamped nodes adds
        # back the distance they were moved
        h += dx * (short_x + 1j * short_y)
        return complex(h) if z.ndim == 0 else h

    def beltrami_at(self, z: complex) -> complex:
        """mu = dbar h / d h from raw central differences at the nearest
        interior node. No interpolation, so it is an honest readback."""
        z = complex(z)
        x0, _, y0, _ = self.box.extents()
        dx = self.box.spacing(self.n)
        j = int(round((z.real - x0) / dx))
        i = int(round((z.imag - y0) / dx))
        if not (2 <= i < self.n - 2 and 2 <= j < self.n - 2):
            raise DomainError("point too close to the grid border for a derivative readback")
        d, db = _wirtinger_grid(self.samples[i - 1 : i + 2, j - 1 : j + 2], dx)
        d, db = d[1, 1], db[1, 1]
        if abs(d) < 1e-10:
            raise SingularDerivativeError("holomorphic derivative vanished at readback node")
        return complex(db / d)

    # ---- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        head = struct.pack("<I", self.n) + struct.pack("<4d", *self.box.extents())
        body = np.empty((self.n, self.n, 2), dtype="<f8")
        body[:, :, 0] = self.samples.real
        body[:, :, 1] = self.samples.imag
        return head + body.tobytes(order="C")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GridMap":
        if len(raw) < 4 + 32:
            raise DomainError("grid map blob too short")
        (n,) = struct.unpack_from("<I", raw, 0)
        x0, x1, y0, y1 = struct.unpack_from("<4d", raw, 4)
        expected = 4 + 32 + n * n * 16
        if len(raw) != expected:
            raise DomainError("grid map blob has wrong length for n = %d" % n)
        body = np.frombuffer(raw, dtype="<f8", offset=36).reshape(n, n, 2)
        samples = body[:, :, 0] + 1j * body[:, :, 1]
        if (x0, y0, y1) != (-x1, -x1, x1):
            raise DomainError("grid map blob box is not a square centered at 0")
        return cls(Box(x1), samples)

    def sidecar(self) -> dict[str, Any]:
        x0, x1, y0, y1 = self.box.extents()
        out = {"n": self.n, "box": [x0, x1, y0, y1]}
        out.update(self.diagnostics)
        return out


class BeurlingKernel:
    """The sweep operator of one padded grid, on mu's support block.

    Made for a box, grid size n0 and pad factor; fit(block, s_mult) builds
    the block's zero-padded Lr x Lc kernel spectrum and checkerboards from
    the padded grid's Beurling multiplier. solve_beltrami makes s_mult only
    when the block differs from the one the kernel holds. Nothing it keeps
    is of the padded grid's size unless the block spans more than half of
    it, so one kernel can serve every solve on the same grid.
    """

    def __init__(self, box: Box, n0: int, pad: int):
        self.box = box
        self.n0 = n0
        self.pad = pad
        self.block: tuple[int, int, int, int] | None = None

    def fit(self, block: tuple[int, int, int, int], s_mult: list[np.ndarray]) -> None:
        """Rows r0:r1 and columns c0:c1 of the padded grid, as (r0, r1, c0,
        c1). s_mult is a one-element list, emptied here so that the n x n
        multiplier is freed as soon as the kernel's rows are taken from it.

        k = ifft2(s_mult) at offsets (dr, dc): all n columns along y, then
        only the 2R - 1 needed rows along x. When 2R - 1 > n, Lr = n and
        offsets that share a residue carry the same value of the n-periodic
        k."""
        r0, r1, c0, c1 = block
        n = self.n0 * self.pad
        R, C = r1 - r0, c1 - c0
        self.Lr = min(n, _smooth_length(2 * R - 1))
        self.Lc = min(n, _smooth_length(2 * C - 1))
        dr = np.arange(1 - R, R)
        dc = np.arange(1 - C, C)
        mult = s_mult.pop()
        k = np.fft.ifftn(mult, axes=(0,))[dr % n]
        del mult
        kernel = np.zeros((self.Lr, self.Lc), dtype=complex)
        kernel[np.ix_(dr % self.Lr, dc % self.Lc)] = np.fft.ifftn(k, axes=(1,))[:, dc % n]
        self.kernel_hat = np.fft.fft2(kernel)
        del k, kernel
        self.boards = _checkerboards(n, np.s_[r0:r1], np.s_[c0:c1])
        self.block = block

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The periodic Beurling transform of x, zero off the block, read on
        the block: one forward transform of x zero-padded to Lr x Lc, and an
        inverse that runs along rows on all Lr rows, then along columns on
        the first C columns only (numpy's own axis order for ifft2, so the
        bits are those of ifft2(...)[:R, :C])."""
        R, C = x.shape
        spec = np.fft.fft2(x, s=(self.Lr, self.Lc)) * self.kernel_hat
        return np.fft.ifftn(np.fft.ifftn(spec, axes=(1,))[:, :C], axes=(0,))[:R]


def solve_beltrami(
    mu: np.ndarray,
    box: Box,
    tol: float = SOLVER_TOL,
    pad: int = DEFAULT_PAD,
    kernel: BeurlingKernel | None = None,
) -> GridMap:
    """Normalized solution of dbar h = mu * d h on the box.

    mu is sampled on box.nodes(n). A border frame is zeroed (the field is
    expected to be compactly supported well inside the box), the problem is
    embedded in a pad-times larger periodic grid to push wraparound images
    away, and the fixed point iterates x = mu * dh on mu's support block,
    rows r0:r1 and columns c0:c1 (R x C) of the padded grid, with mean and
    Nyquist-corner channels matched explicitly each sweep.

    The Beurling multiplier s_mult vanishes on those four channels, so on
    the block dh = 1 + S(x) + the kernel terms, where S(x) is the periodic
    convolution of x with k = ifft2(s_mult) at offsets in (-R, R) x (-C, C).
    Those offsets, placed at their residues on an Lr x Lc grid (Lr the
    smallest 5-smooth length >= 2R - 1, or n when that is shorter, and
    likewise Lc), do not overlap, so each sweep applies S by one zero-padded
    Lr x Lc transform pair (BeurlingKernel; pass one to reuse it across
    solves on the same box, grid and pad). The change per sweep is the rms
    over the padded grid of the change in rho, x with its mean and
    checkerboard components removed, plus the largest change in a
    checkerboard coefficient. The correction is the periodic inverse of dbar
    applied to rho: the forward transform runs along rows on the R support
    rows, then along columns; c_mult vanishes on the four channels; the
    inverse runs along rows on all n rows, then along columns on the n0
    window only.
    """
    mu = np.array(mu, dtype=complex)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise DomainError("mu grid must be square")
    n0 = mu.shape[0]
    if n0 < 16 or n0 % 2:
        raise DomainError("mu grid size must be even and at least 16")
    if not np.isfinite(mu.view(float)).all():
        raise DomainError("mu grid must be finite")
    sup = float(np.max(np.abs(mu)))
    if sup > MU_SUP_CAP:
        raise DomainError("sup|mu| = %g exceeds the solvable cap %g" % (sup, MU_SUP_CAP))
    if pad < 1:
        raise DomainError("pad factor must be >= 1")
    if kernel is None:
        kernel = BeurlingKernel(box, n0, pad)
    elif (kernel.box, kernel.n0, kernel.pad) != (box, n0, pad):
        raise DomainError("Beurling kernel was made for another box, grid or pad")

    frame = max(2, int(BORDER_FRACTION * n0))
    interior = np.zeros_like(mu, dtype=bool)
    interior[frame:-frame, frame:-frame] = True
    clipped = int(np.count_nonzero(np.abs(mu[~interior]) > 0))
    mu[~interior] = 0

    n = n0 * pad
    off = (n - n0) // 2
    r0, r1 = _support_span(mu.any(axis=1), off)
    c0, c1 = _support_span(mu.any(axis=0), off)
    work = mu[r0 - off : r1 - off, c0 - off : c1 - off]
    block = (r0, r1, c0, c1)
    dx = box.spacing(n0)
    sc = _central_symbols(n, dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_mult = [np.conj(sc) / sc] if block != kernel.block else []
        c_mult = -2j / sc
    del sc
    # the central symbol vanishes on the mean and the three Nyquist corners
    for b in ((0, 0),) + _corner_bins(n):
        c_mult[b] = 0
        if s_mult:
            s_mult[0][b] = 0
    if s_mult:
        kernel.fit(block, s_mult)
    boards = kernel.boards

    x = np.zeros(work.shape, dtype=complex)
    sums = np.zeros(4, dtype=complex)  # x against 1 and the three checkerboards
    gam = np.zeros(3, dtype=complex)
    history = []
    for sweeps in range(1, MAX_SWEEPS + 1):
        dh = kernel.apply(x)
        dh += 1.0 + sum(g * d * b for g, d, b in zip(gam, _KERNEL_D, boards))
        new_x = work * dh
        new_sums = np.array([new_x.sum()] + [np.sum(b * new_x) for b in boards])
        new_gam = new_sums[1:] / (n * n) / _KERNEL_DBAR
        # rho is x less its projection on the mean and the checkerboards,
        # which are orthogonal with norm n on the padded grid
        step = float(np.linalg.norm(new_x - x)) ** 2
        step -= float(np.sum(np.abs(new_sums - sums) ** 2)) / (n * n)
        change = math.sqrt(max(step, 0.0)) / n + float(np.max(np.abs(new_gam - gam)))
        history.append(change)
        x, sums, gam = new_x, new_sums, new_gam
        if change < tol:
            break
    else:
        raise ConvergenceError(
            "solver did not reach tol %g in %d sweeps (last change %g)" % (tol, MAX_SWEEPS, change)
        )
    beta = sums[0] / (n * n)

    # assemble h on the n0 x n0 window of the padded grid only
    spec = np.zeros((n, n), dtype=complex)
    spec[r0:r1, c0:c1] = x
    spec[r0:r1] = np.fft.fftn(spec[r0:r1], axes=(1,))
    spec = np.fft.fftn(spec, axes=(0,))
    spec *= c_mult
    del c_mult
    window = np.s_[off : off + n0]
    corr = np.fft.ifftn(spec, axes=(1,))[:, window]
    del spec
    z = box.nodes(n0)
    h = z + beta * np.conj(z) + np.fft.ifftn(corr, axes=(0,))[window]
    boards = _checkerboards(n, window, window)
    h = h + gam[0] * z.real * boards[0] + gam[1] * z.imag * boards[1] + gam[2] * z.real * boards[2]

    gm = GridMap(box, h)
    # normalize: send 0 to 0 and 1 to 1 exactly
    h0 = gm(0j)
    h1 = gm(1.0 + 0j)
    scale = h1 - h0
    if abs(scale) < 1e-12:
        raise ConvergenceError("normalization points collapsed")
    normalized = (h - h0) / scale

    # orientation must survive: discrete Jacobian positive at interior nodes
    d, db = _wirtinger_grid(normalized, dx)
    jac = (np.abs(d) ** 2 - np.abs(db) ** 2)[2:-2, 2:-2]
    min_jac = float(np.min(jac))
    if min_jac <= 0:
        raise ConvergenceError("straightening lost orientation (min Jacobian %g)" % min_jac)

    diag = {
        "sweeps": sweeps,
        "final_change": change,
        "history": history,
        "beta": [beta.real, beta.imag],
        "gammas": [[g.real, g.imag] for g in gam],
        "mu_sup": sup,
        "support_fraction": float(np.mean(np.abs(mu) > 0)),
        "frame_clipped": clipped,
        "pad": pad,
        "tol": tol,
        "min_jacobian": min_jac,
        "normalization": [[h0.real, h0.imag], [scale.real, scale.imag]],
    }
    return GridMap(box, normalized, diag)


@dataclass(frozen=True)
class Deformation:
    """One multiplier retarget: which repelling cycle (by order, and index
    among that order's repelling cycles in canonical sort) and the new
    multiplier."""

    order: int
    target: complex
    cycle_index: int = 0


def build_field(germ: Germ, deformations: Sequence[Deformation]) -> BeltramiField:
    """Invariant field realizing all requested retargets at once."""
    if not deformations:
        raise DomainError("need at least one deformation")
    entries = []
    for d in deformations:
        cycle = repelling_cycle(germ, d.order, d.cycle_index)
        shear = shear_coefficient(cycle.multiplier, d.target)
        entries.append(FieldEntry(chart=build_chart(germ, cycle, 0), shear=shear))
    return BeltramiField(germ=germ, entries=tuple(entries))


class DeformedGerm:
    """The germ conjugated by the straightening of its invariant field.

    g = h o f o h^{-1} is holomorphic; its cycles sit at the h-images of the
    original ones and carry the target multipliers. It is measured from
    forward values of h only and never evaluated. mu is the sampled field
    the grid map was solved from.
    """

    def __init__(self, germ: Germ, field: BeltramiField, grid_map: GridMap, mu: np.ndarray):
        self.germ = germ
        self.field = field
        self.grid_map = grid_map
        self.mu = mu

    def _contour_multiplier(self, entry_index: int, radius: float) -> complex:
        """g'(a) by the contour integral over w = h(z), z = c + r e^{it}:
        there g(w) = h(f^q(z)) and a = h(c)."""
        chart = self.field.entries[entry_index].chart
        a = complex(self.grid_map(chart.center))
        t = 2.0 * math.pi * np.arange(MEASURE_POINTS) / MEASURE_POINTS
        z = chart.center + radius * np.exp(1j * t)
        fz = z
        for _ in range(chart.cycle.order):
            fz = self.germ.eval_raw(fz)
        return contour_multiplier(self.grid_map(z), self.grid_map(fz), a)

    def measure_multiplier(self, entry_index: int = 0) -> complex:
        """Multiplier of the deformed cycle at a = h(c), by a Cauchy integral
        over the h-image of a circle around the chart center c, gated on
        two-radius agreement. The larger-radius estimate wins: the integral
        damps interpolation noise linearly in the radius."""
        radius = GLOBAL_MEASURE_FACTOR * self.field.entries[entry_index].chart.radius
        # discretization error in h scales with grid spacing, so coarse
        # grids get a proportionally looser gate
        spacing = self.grid_map.box.spacing(self.grid_map.n)
        agreement = max(GLOBAL_AGREEMENT, 2.0 * spacing / radius)
        m1 = self._contour_multiplier(entry_index, radius)
        m2 = self._contour_multiplier(entry_index, radius / 2.0)
        if abs(m1 - m2) > agreement * max(abs(m1), 1e-300):
            raise UnreliableEstimateError(
                "global multiplier estimates disagree: %r vs %r" % (m1, m2)
            )
        return m1


def global_deform(
    germ: Germ,
    deformations: Sequence[Deformation],
    n: int = DEFAULT_GRID,
    tol: float = SOLVER_TOL,
    pad: int = DEFAULT_PAD,
) -> DeformedGerm:
    """Full pipeline: census, charts, shears, field sampling, straightening,
    on the box box_for(germ)."""
    box = box_for(germ)
    field = build_field(germ, deformations)
    diag: dict[str, Any] = {}
    mu = field.sample_grid(box.nodes(n), diagnostics=diag)
    gm = solve_beltrami(mu, box, tol=tol, pad=pad)
    gm.diagnostics["field"] = diag
    return DeformedGerm(germ, field, gm, mu)


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
    of images and one straightening per t. Every t, point and shear is
    checked before the first walk; the census, the charts, the field's
    backward walk and the Beurling kernel do not depend on t, so they are
    made once and each t only swaps the shears. Each row is bitwise the row
    of a call with that t alone."""
    ts = [complex(t) for t in t_values]
    if any(t == 0 or abs(t) >= 1.0 for t in ts):
        raise DomainError("motion parameter must satisfy 0 < |t| < 1")
    box = box_for(germ)
    zs = np.asarray(points, dtype=complex)
    box.check_inside(zs)
    charts = [build_chart(germ, c, 0) for q in orders for c in repelling_cycles(germ, q)]
    if not charts:
        raise InsufficientDataError("no repelling cycles found for the requested orders")
    fields = []
    for t in ts:
        entries = [FieldEntry(c, shear_coefficient(c.cycle.multiplier, 1.0 / t)) for c in charts]
        fields.append(BeltramiField(germ, tuple(entries)))
    walk = fields[0].walk(box.nodes(n))
    kernel = BeurlingKernel(box, n, pad)
    rows = []
    for field in fields:
        gm = solve_beltrami(field.assemble(walk), box, tol=tol, pad=pad, kernel=kernel)
        rows.append(gm(zs).tolist())
        del gm  # free this grid map before the next solve allocates its own
    return rows
