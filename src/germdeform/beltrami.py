"""Torus shears and the invariant Beltrami field they induce.

The multiplier of a repelling cycle lives naturally on a torus: the quotient
of the punctured chart coordinate by multiplication with lambda. Changing
lambda to a new repelling target is an affine shear of that torus, whose
Beltrami coefficient is constant there. Pulling the constant back through
the chart and transporting it along backward orbits of the germ produces a
field invariant under the dynamics; straightening that field realizes the
new multiplier. This module computes the shear and samples the field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, BinaryIO, Sequence

import numpy as np

from .cycles import classify
from .errors import DomainError, ShearError
from .germ import DERIVATIVE_FLOOR, Germ
from .koenigs import KoenigsChart

if TYPE_CHECKING:
    from .straighten import Box

TWO_PI = 2.0 * math.pi
NEAR_DEGENERATE = 1.0 - 1e-9
PUNCTURE_RADIUS = 1e-8
TRANSPORT_DEPTH = 200


def tau_of(lam: complex) -> complex:
    """Torus modulus of a multiplier: (arg - i*log||)/(2*pi), in the upper
    half plane exactly when |lam| > 1."""
    lam = complex(lam)
    if lam == 0:
        raise DomainError("multiplier must be nonzero")
    return complex(cmath.phase(lam) - 1j * math.log(abs(lam))) / TWO_PI


@dataclass(frozen=True)
class TorusShear:
    """Affine torus map xi -> a*xi + b*conj(xi) sending modulus tau to
    tau_prime, fixing the lattice direction 1 (a + b = 1)."""

    lam: complex
    lam_prime: complex
    tau: complex
    tau_prime: complex
    mu: complex
    a: complex
    b: complex

    def apply(self, xi: complex) -> complex:
        return self.a * xi + self.b * xi.conjugate()

    def apply_inverse(self, eta: complex) -> complex:
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if abs(det) < 1e-300:
            raise ShearError("shear is numerically non-invertible")
        return (self.a.conjugate() * eta - self.b * eta.conjugate()) / det


def shear_coefficient(lam: complex, lam_prime: complex) -> TorusShear:
    """The shear carrying multiplier lam to lam_prime, both repelling.

    The Beltrami coefficient comes out two ways, the log-ratio form
    -L/(2 log|lam| + L) with L = Log(lam'/lam), and the modulus form
    (tau - tau')/(tau' - conj tau); the branch below makes them identical.
    """
    lam = complex(lam)
    lam_prime = complex(lam_prime)
    for name, val in (("lam", lam), ("lam_prime", lam_prime)):
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise DomainError("%s must be finite" % name)
        if classify(val) != "repelling":
            raise ShearError("%s must be repelling, |%s| = %g" % (name, name, abs(val)))
    ell = cmath.log(lam_prime / lam)
    denom = 2.0 * math.log(abs(lam)) + ell
    if abs(denom) < 1e-300:
        raise ShearError("degenerate shear denominator")
    mu = -ell / denom
    if abs(mu) >= NEAR_DEGENERATE:
        raise ShearError("shear coefficient too close to the unit circle")
    tau = tau_of(lam)
    # branch chosen so the shift tau -> tau' equals Log(ratio)/(2*pi*i);
    # keeps the two mu formulas equal even when arg(lam') wraps
    tau_prime = tau + ell / (2j * math.pi)
    d = tau - tau.conjugate()
    a = (tau_prime - tau.conjugate()) / d
    b = (tau - tau_prime) / d
    return TorusShear(
        lam=lam, lam_prime=lam_prime, tau=tau, tau_prime=tau_prime,
        mu=complex(mu), a=complex(a), b=complex(b),
    )


def pullback_by_holomorphic(mu_val: complex, gprime_over_g_factor: complex) -> complex:
    """Beltrami pullback under a holomorphic map with derivative factor g':
    mu -> mu * conj(g')/g'. Elementwise on arrays, and each point's bits do
    not depend on how many points come with it: numpy computes a scalar
    times a large temporary array in place, with other rounding, so the
    product is taken by np.multiply."""
    if np.any(gprime_over_g_factor == 0):
        raise DomainError("pullback derivative factor must be nonzero")
    return np.multiply(mu_val, gprime_over_g_factor.conjugate()) / gprime_over_g_factor


def transport_forward(mu_val: complex, derivative_product: complex) -> complex:
    """Push a coefficient forward along an orbit with chain-rule product P:
    mu -> mu * P/conj(P) (unimodular factor, |mu| is preserved). Elementwise
    on arrays."""
    if np.any(derivative_product == 0):
        raise DomainError("transport needs a nonvanishing derivative product")
    return mu_val * derivative_product / derivative_product.conjugate()


@dataclass(frozen=True)
class FieldEntry:
    chart: KoenigsChart
    shear: TorusShear


@dataclass(frozen=True)
class FieldWalk:
    """The shear-free part of sampling a field: each point's backward walk (walk_charts).

    landings[k] holds, for the k-th chart walked to, one (indices, g, prod)
    chunk per walk step that landed points in its disk: their flat indices,
    the chart factor g = phi'/(2*pi*i*phi) at the landing point and the
    walk's derivative product. The counts classify the points that landed
    nowhere.
    """

    shape: tuple[int, ...]
    landings: tuple[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...], ...]
    escaped: int
    stalled: int
    unresolved: int


def walk_charts(germ: Germ, charts: Sequence[KoenigsChart], z_grid: np.ndarray) -> FieldWalk:
    """Batched backward walk of the points in U to the charts' disks.

    A finite point outside U escapes at step 0 and is not gathered; a
    point that is not finite is neither walked nor counted. Points that
    escape, stall in the inverse step (or land on a critical point, where
    the derivative product vanishes), or run out of depth (unresolved) land
    nowhere. Each point is classified from its own walk. No shear plays a
    part, so one walk serves every field on the same charts (_assemble).
    """
    z = np.asarray(z_grid, dtype=complex)
    landed = [[] for _ in charts]
    # the live points: flat index, current position, derivative product;
    # only the nodes in U start (a node that is not finite fails the
    # comparison), and the finite nodes outside U escape at step 0
    zf = z.ravel()
    idx = np.flatnonzero(np.abs(zf) <= germ.radius_U)
    w = zf[idx]
    prod = np.ones_like(w)
    escaped_total = int(np.count_nonzero(np.isfinite(zf))) - idx.size
    stalled_total = 0
    for _ in range(TRANSPORT_DEPTH + 1):
        keep = np.abs(w) <= germ.radius_U
        escaped_total += keep.size - int(np.count_nonzero(keep))
        idx, w, prod = idx[keep], w[keep], prod[keep]
        for chart, chunks in zip(charts, landed):
            hit = np.abs(w - chart.center) <= chart.radius
            if hit.any():
                wh = w[hit]
                d = wh - chart.center
                tiny = np.abs(d) < PUNCTURE_RADIUS
                if tiny.any():
                    dt = d[tiny]
                    adt = np.abs(dt)
                    unit = np.where(adt == 0, 1.0 + 0j, dt / np.where(adt == 0, 1.0, adt))
                    wh[tiny] = chart.center + PUNCTURE_RADIUS * unit
                # derivative factor of xi = Log(phi)/(2*pi*i), through
                # which the constant torus value is pulled back
                ph = chart.phi_raw(wh)
                dph = chart.dphi_raw(wh)
                chunks.append((idx[hit], dph / (2j * math.pi * ph), prod[hit]))
                keep = ~hit
                idx, w, prod = idx[keep], w[keep], prod[keep]
        if not idx.size:
            break
        # one batched Newton inverse step from the current position; a
        # point that ran out of iterations still counts when its residual
        # is within 1e-10 and it has not stopped on a flat derivative
        zn, ok = germ.preimages(w, w)
        dz = germ.derivative_raw(zn)
        close = np.abs(germ.eval_raw(zn) - w) <= 1e-10 * np.maximum(1.0, np.abs(w))
        ok |= close & np.isfinite(zn) & (np.abs(dz) >= DERIVATIVE_FLOOR)
        # a preimage on a critical point cannot carry the field forward
        prod = prod * dz
        ok &= prod != 0
        stalled_total += ok.size - int(np.count_nonzero(ok))
        idx, w, prod = idx[ok], zn[ok], prod[ok]
    return FieldWalk(
        shape=z.shape,
        landings=tuple(tuple(chunks) for chunks in landed),
        escaped=escaped_total,
        stalled=stalled_total,
        unresolved=int(idx.size),
    )


@dataclass(frozen=True)
class BeltramiField:
    """Invariant field built from shears at one or more repelling cycles.

    Entries must sit on distinct cycles; each contributes the pullback of
    its constant torus coefficient on the chart disk, spread to the rest of
    the plane by backward iteration. Points whose backward orbit never hits
    a chart disk (or escapes the working disk) carry coefficient 0.
    """

    germ: Germ
    entries: tuple[FieldEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise DomainError("field needs at least one chart entry")
        centers = []
        for e in self.entries:
            for p in e.chart.cycle.points:
                for c in centers:
                    if abs(p - c) < 1e-9:
                        raise DomainError("field entries must sit on distinct cycles")
            centers.extend(e.chart.cycle.points)

    def sample_grid(self, z_grid: np.ndarray, diagnostics: dict[str, Any] | None = None) -> np.ndarray:
        """Field over an array of points: walk_charts to the entries' charts,
        then _assemble of their shears. Besides the points and the returned
        field, it holds one real array of the points' size at a time (|z|
        for the walk, |mu| for the diagnostics) and the walk's arrays, which
        span only the points in U."""
        z = np.asarray(z_grid, dtype=complex)
        # allocated before the walk's temporaries: after them, a large field
        # array reuses heap memory they freed, which must be zeroed (so all
        # of it becomes resident) and is kept after the array is freed; at
        # N=1024 that raised peak RSS by about 4 MB
        mu = np.zeros(z.size, dtype=complex)
        walk = walk_charts(self.germ, [e.chart for e in self.entries], z)
        mu = _assemble(walk, [e.shear.mu for e in self.entries], mu)
        if diagnostics is not None:
            diagnostics["escaped"] = walk.escaped
            diagnostics["stalled"] = walk.stalled
            diagnostics["unresolved"] = walk.unresolved
            diagnostics["max_abs"] = float(np.max(np.abs(mu))) if mu.size else 0.0
            diagnostics["support_fraction"] = float(np.mean(np.abs(mu) > 0))
        # freed before the points: a large points array freed first raises
        # malloc's trim threshold, and the heap the walk frees stays resident
        del walk
        return mu


def _assemble(walk: FieldWalk, coefficients, out: np.ndarray | None = None) -> np.ndarray:
    """The field on a walk with one constant torus coefficient per chart:
    pulled back by g and carried forward by the derivative product at each
    landed point, 0 elsewhere. out, when given, is a flat zero array of the
    walk's size to write into."""
    mu = np.zeros(math.prod(walk.shape), dtype=complex) if out is None else out
    for c, chunks in zip(coefficients, walk.landings):
        for idx, g, prod in chunks:
            mu[idx] = transport_forward(pullback_by_holomorphic(c, g), prod)
    return mu.reshape(walk.shape)


def field_to_csv(box: Box, mu_grid: np.ndarray, out: BinaryIO) -> None:
    """Write the flat table of a field sampled on the n x n nodes of
    box.nodes(n), n being mu's grid, to the binary file `out`: one `%.17g`
    row `re,im,mu_re,mu_im` per node, in row-major order. Each axis value
    is formatted once. A node whose mu bits are all zero is written `0,0`,
    so a grid row of them is one join of the `re,` texts around its
    `im,0,0` tail; only the other nodes' mu is formatted, by one `%` per
    grid row (so -0.0 keeps its sign). Grid rows are joined and written
    about 256 KiB at a time, so no string or array spans the table. mu
    must be a square 2-d grid."""
    mu = np.asarray(mu_grid, dtype=complex, order="C")
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise DomainError("mu must be a square 2-d grid (got shape %s)" % (mu.shape,))
    n = mu.shape[0]
    axis = [b"%.17g" % v for v in box.axis(n).tolist()]
    heads = [x + b"," for x in axis]
    cells = np.empty(2 * n, dtype=object)
    cells[0::2] = heads
    out.write(b"re,im,mu_re,mu_im\n")
    chunk, size = [], 0
    for y, row in zip(axis, mu):
        tail = y + b",0,0\n"
        bits = row.view(np.int64)
        nonzero = np.flatnonzero(bits[0::2] | bits[1::2])
        if nonzero.size:
            # the row with a `%.17g,%.17g` slot at each nonzero node (the
            # axis texts hold no `%`), filled from mu's interleaved parts
            cells[1::2] = tail
            cells[2 * nonzero + 1] = y + b",%.17g,%.17g\n"
            text = b"".join(cells.tolist()) % tuple(row[nonzero].view(np.float64).tolist())
        else:
            text = tail.join(heads) + tail
        chunk.append(text)
        size += len(text)
        if size >= 1 << 18:
            out.write(b"".join(chunk))
            chunk, size = [], 0
    out.write(b"".join(chunk))
