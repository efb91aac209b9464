"""Periodic orbit census inside the working disk.

Cycles of a given order are located by Newton iteration on f^q(z) - z from
a deterministic seed cloud, filtered down to primitive cycles, deduplicated,
and put into a canonical orientation so repeated runs emit identical tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateCycleError, DomainError
from .germ import Germ

CYCLE_CLOSE_TOL = 1e-9
DEDUP_EPS = 1e-9
MULTIPLE_ROOT_EPS = 1e-6
INDIFFERENT_BAND = 1e-9
CRITICAL_FLOOR = 1e-14

SEED_GRID = 24
SEED_RING_COUNT = 8
SEED_RING_POINTS = 32

_NEWTON_ITERS = 64
_NEWTON_TOL = 1e-13


@dataclass(frozen=True)
class Cycle:
    """One periodic orbit: its points in forward order, starting at the
    canonical point (lexicographic minimum by (re, im))."""

    points: tuple[complex, ...]
    order: int
    multiplier: complex
    kind: str
    critical: bool = False

    @property
    def base(self) -> complex:
        return self.points[0]


def classify(multiplier: complex) -> str:
    m = abs(multiplier)
    if m < 1.0 - INDIFFERENT_BAND:
        return "attracting"
    if m > 1.0 + INDIFFERENT_BAND:
        return "repelling"
    return "indifferent"


def multiplier_of(germ: Germ, points: tuple[complex, ...]) -> complex:
    """Chain rule product around the orbit; degenerate if it hits a
    critical point."""
    prod = 1.0 + 0j
    for z in points:
        d = germ.derivative_raw(z)
        if abs(d) < CRITICAL_FLOOR:
            raise DegenerateCycleError(
                "cycle passes through a critical point at %r" % (z,)
            )
        prod *= d
    return complex(prod)


def _composition_and_derivative(germ: Germ, z: complex, q: int):
    w = z
    prod = 1.0 + 0j
    for _ in range(q):
        prod *= germ.derivative_raw(w)
        w = germ.eval_raw(w)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            return None, None
        if abs(w) > 4.0 * germ.radius_U:
            # hopeless seed, let Newton give up early
            return None, None
    return w, prod


def _newton_periodic(germ: Germ, seed: complex, q: int) -> complex | None:
    z = seed
    for _ in range(_NEWTON_ITERS):
        fq, dprod = _composition_and_derivative(germ, z, q)
        if fq is None:
            return None
        res = fq - z
        if abs(res) <= _NEWTON_TOL * max(1.0, abs(z)):
            return z
        denom = dprod - 1.0
        if abs(denom) < 1e-16:
            return None
        z = z - res / denom
        if abs(z) > 8.0 * germ.radius_U:
            return None
    return None


def _seeds(germ: Germ):
    r = germ.radius_U
    xs = np.linspace(-r, r, SEED_GRID)
    gx, gy = np.meshgrid(xs, xs)
    pts = (gx + 1j * gy).ravel()
    pts = pts[np.abs(pts) <= r]
    rings = []
    for i in range(1, SEED_RING_COUNT + 1):
        rho = r * i / (SEED_RING_COUNT + 1)
        th = np.linspace(0.0, 2 * np.pi, SEED_RING_POINTS, endpoint=False)
        rings.append(rho * np.exp(1j * th))
    return np.concatenate([pts] + rings)


def _is_primitive(germ: Germ, z: complex, q: int) -> bool:
    for qq in range(1, q):
        if q % qq:
            continue
        w = z
        for _ in range(qq):
            w = germ.eval_raw(w)
        if abs(w - z) < CYCLE_CLOSE_TOL:
            return False
    return True


def _orbit_points(germ: Germ, z: complex, q: int) -> tuple[complex, ...]:
    pts = [z]
    w = z
    for _ in range(q - 1):
        w = complex(germ.eval_raw(w))
        pts.append(w)
    return tuple(pts)


def _canonical_rotation(points: tuple[complex, ...]) -> tuple[complex, ...]:
    i0 = min(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    return points[i0:] + points[:i0]


def find_cycles(
    germ: Germ,
    order: int,
    *,
    diagnostics: dict[str, Any] | None = None,
) -> list[Cycle]:
    """All primitive cycles of the given order inside the working disk.

    Newton on f^q(z) - z from a grid plus concentric rings of seeds. The
    output order is (|base|, arg base), stable across runs. A cycle through
    a critical point is kept, flagged, and given multiplier 0. A root that
    lands near a found cycle point (MULTIPLE_ROOT_EPS) without matching it
    (DEDUP_EPS) marks a multiple root, and the census raises DomainError.
    """
    if order < 1:
        raise DomainError("cycle order must be >= 1")
    found: list[tuple[complex, ...]] = []
    attempted = converged = 0
    for seed in _seeds(germ):
        attempted += 1
        z = _newton_periodic(germ, complex(seed), order)
        if z is None:
            continue
        converged += 1
        if abs(z) > germ.radius_U:
            continue
        if not _is_primitive(germ, z, order):
            continue
        pts = _orbit_points(germ, z, order)
        if any(abs(p) > germ.radius_U for p in pts):
            continue
        pts = _canonical_rotation(pts)
        gap = min((abs(pts[0] - p) for other in found for p in other), default=math.inf)
        if gap < DEDUP_EPS:
            continue
        if gap < MULTIPLE_ROOT_EPS:
            # Newton converges only linearly to a multiple root, so its
            # stopping points scatter around it instead of repeating
            raise DomainError(
                "Newton stalls on a multiple root of f^%d(z) - z near %r; "
                "the census cannot separate its cycles" % (order, pts[0])
            )
        found.append(pts)
    cycles = []
    for pts in found:
        critical = any(abs(germ.derivative_raw(p)) < CRITICAL_FLOOR for p in pts)
        if critical:
            mult = 0j
        else:
            mult = multiplier_of(germ, pts)
        cycles.append(
            Cycle(
                points=pts,
                order=order,
                multiplier=mult,
                kind=classify(mult),
                critical=critical,
            )
        )
    cycles.sort(key=lambda c: (abs(c.base), cmath.phase(c.base)))
    if diagnostics is not None:
        diagnostics["seeds_attempted"] = attempted
        diagnostics["seeds_converged"] = converged
        diagnostics["cycles_found"] = len(cycles)
    return cycles


def repelling_cycles(germ: Germ, order: int) -> list[Cycle]:
    """Repelling cycles of one order in canonical order; cycle_index counts here."""
    return [c for c in find_cycles(germ, order) if c.kind == "repelling"]


def repelling_cycle(germ: Germ, order: int, index: int) -> Cycle:
    """Repelling cycle number index of the given order. The valid range comes
    from the census, so an index past it is a DomainError, not a config error."""
    reps = repelling_cycles(germ, order)
    if not 0 <= index < len(reps):
        raise DomainError(
            "cycle_index %d out of range: %d repelling cycle(s) of order %d found"
            % (index, len(reps), order)
        )
    return reps[index]


def cycles_to_csv(cycles: list[Cycle]) -> str:
    """Deterministic CSV table, one row per cycle point."""
    lines = ["order,point_index,re,im,mult_re,mult_im,kind"]
    for c in cycles:
        for i, p in enumerate(c.points):
            lines.append(
                "%d,%d,%.17g,%.17g,%.17g,%.17g,%s"
                % (c.order, i, p.real, p.imag, c.multiplier.real, c.multiplier.imag, c.kind)
            )
    return "\n".join(lines) + "\n"
