"""Periodic orbit census inside the working disk.

Cycles of a given order are located by one batched Newton iteration on
f^q(z) - z over a deterministic seed cloud. The roots' orbits form one
(roots x q) array, on which the "inside U" and primitive tests run as
masks; the survivors are deduplicated greedily in seed order, one array
pass per kept cycle, so the first seed to reach a cycle supplies its
points.

The canonical orientation and order compare re and |base| on a DEDUP_EPS
grid, so values that are equal up to rounding tie and im (or arg) decides:
a self-conjugate cycle starts at its im < 0 point, and a conjugate pair
lists its im < 0 base first. Repeated runs emit identical tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateCycleError, DomainError
from .germ import Germ, check_integer, circle, csv_table

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
    canonical point (minimum by re on the DEDUP_EPS grid, then im)."""

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
    z = np.asarray(points, dtype=complex)
    d = germ.derivative_raw(z)
    flat = np.abs(d) < CRITICAL_FLOOR
    if flat.any():
        raise DegenerateCycleError(
            "cycle passes through a critical point at %r" % (complex(z[flat][0]),)
        )
    return complex(np.prod(d))


def _newton_periodic(germ: Germ, seeds: np.ndarray, q: int) -> np.ndarray:
    """Batched Newton on f^q(z) - z from every seed; the roots of the
    seeds that converged, in seed order.

    A seed leaves the live set once it converges, once its orbit leaves
    4 * radius_U or is not finite, once (f^q)' - 1 is flat, or once its
    step lands beyond 8 * radius_U; after _NEWTON_ITERS steps it fails.
    """
    z = seeds.copy()
    root = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    # escaping orbits overflow before the 4 * radius_U test drops them
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_ITERS):
            zl = z[live]
            w = zl
            prod = np.ones_like(zl)
            ok = np.ones(zl.shape, dtype=bool)
            for _ in range(q):
                prod = prod * germ.derivative_raw(w)
                w = germ.eval_raw(w)
                ok &= np.abs(w) <= 4.0 * germ.radius_U
            res = w - zl
            done = ok & (np.abs(res) <= _NEWTON_TOL * np.maximum(1.0, np.abs(zl)))
            root[live[done]] = True
            denom = prod - 1.0
            step = ok & ~done & (np.abs(denom) >= 1e-16)
            live = live[step]
            z[live] = zl[step] - res[step] / denom[step]
            live = live[np.abs(z[live]) <= 8.0 * germ.radius_U]
            if not live.size:
                break
    return z[root]


def _seeds(germ: Germ):
    r = germ.radius_U
    xs = np.linspace(-r, r, SEED_GRID)
    gx, gy = np.meshgrid(xs, xs)
    pts = (gx + 1j * gy).ravel()
    pts = pts[np.abs(pts) <= r]
    rings = []
    for i in range(1, SEED_RING_COUNT + 1):
        rings.append(circle(0.0, r * i / (SEED_RING_COUNT + 1), SEED_RING_POINTS))
    return np.concatenate([pts] + rings)


def _on_grid(x):
    # values that agree up to rounding land on one DEDUP_EPS grid step (short
    # of a step boundary within a few ulps), so the next key breaks the tie
    return np.round(x / DEDUP_EPS)


def _order_key(base: complex):
    return (_on_grid(abs(base)), cmath.phase(base))


def _canonical_rotation(orbits: np.ndarray) -> np.ndarray:
    """Rotate each row to start at its minimum by (re on the grid, im)."""
    q = orbits.shape[1]
    first = np.lexsort((orbits.imag, _on_grid(orbits.real)), axis=1)[:, :1]
    return np.take_along_axis(orbits, (first + np.arange(q)) % q, axis=1)


def find_cycles(
    germ: Germ,
    order: int,
    *,
    diagnostics: dict[str, Any] | None = None,
) -> list[Cycle]:
    """All primitive cycles of the given order inside the working disk.

    Newton on f^q(z) - z from a grid plus concentric rings of seeds, run on
    the whole seed cloud at once. The output order is (|base|, arg base)
    with |base| compared on the DEDUP_EPS grid, so a conjugate pair lists
    its im < 0 base first whatever the rounding. A cycle through a
    critical point is kept, flagged, and given multiplier 0. The first root
    in seed order is kept and every later root within DEDUP_EPS of a point
    of its orbit is dropped, and so on with the first root left. A kept root
    within MULTIPLE_ROOT_EPS of an earlier kept orbit marks a multiple root,
    and the census raises DomainError.
    """
    check_integer("order", order)
    if order < 1:
        raise DomainError("cycle order must be >= 1")
    seeds = _seeds(germ)
    roots = _newton_periodic(germ, seeds, order)
    # one forward orbit per root, as a row
    orbits = np.empty((roots.size, order), dtype=complex)
    orbits[:, 0] = roots
    for k in range(1, order):
        orbits[:, k] = germ.eval_raw(orbits[:, k - 1])
    keep = np.all(np.abs(orbits) <= germ.radius_U, axis=1)
    for qq in range(1, order):
        if order % qq == 0:
            keep &= np.abs(orbits[:, qq] - orbits[:, 0]) >= CYCLE_CLOSE_TOL
    orbits = _canonical_rotation(orbits[keep])
    # greedy in seed order, one array pass per kept cycle: rest holds the
    # roots not yet within DEDUP_EPS of a kept orbit, gap their distance to
    # the nearest kept orbit point
    rest = np.arange(len(orbits))
    gap = np.full(rest.size, math.inf)
    found: list[int] = []
    while rest.size:
        k, rest = rest[0], rest[1:]
        if gap[0] < MULTIPLE_ROOT_EPS:
            # Newton converges only linearly to a multiple root, so its
            # stopping points scatter around it instead of repeating
            raise DomainError(
                "Newton stalls on a multiple root of f^%d(z) - z near %r; "
                "the census cannot separate its cycles" % (order, complex(orbits[k, 0]))
            )
        found.append(k)
        gap = np.minimum(gap[1:], np.min(np.abs(orbits[rest, :1] - orbits[k]), axis=1))
        apart = gap >= DEDUP_EPS
        rest, gap = rest[apart], gap[apart]
    cycles = []
    for row in orbits[found]:
        pts = tuple(row.tolist())
        try:
            mult, critical = multiplier_of(germ, pts), False
        except DegenerateCycleError:
            mult, critical = 0j, True
        cycles.append(Cycle(pts, order, mult, classify(mult), critical))
    cycles.sort(key=lambda c: _order_key(c.base))
    if diagnostics is not None:
        diagnostics["seeds_attempted"] = seeds.size
        diagnostics["seeds_converged"] = roots.size
        diagnostics["cycles_found"] = len(cycles)
    return cycles


def repelling_cycles(germ: Germ, order: int) -> list[Cycle]:
    """Repelling cycles of one order in canonical order; cycle_index counts here."""
    return [c for c in find_cycles(germ, order) if c.kind == "repelling"]


def repelling_cycle(germ: Germ, order: int, index: int) -> Cycle:
    """Repelling cycle number index of the given order. The valid range comes
    from the census, so an index past it is a DomainError, not a config error."""
    check_integer("cycle_index", index)
    reps = repelling_cycles(germ, order)
    if not 0 <= index < len(reps):
        raise DomainError(
            "cycle_index %d out of range: %d repelling cycle(s) of order %d found"
            % (index, len(reps), order)
        )
    return reps[index]


def cycles_to_csv(cycles: list[Cycle]) -> str:
    """Deterministic CSV table, one row per cycle point."""
    rows = (
        (c.order, i, p.real, p.imag, c.multiplier.real, c.multiplier.imag, c.kind)
        for c in cycles
        for i, p in enumerate(c.points)
    )
    header = "order,point_index,re,im,mult_re,mult_im,kind"
    return csv_table(header, "%d,%d,%.17g,%.17g,%.17g,%.17g,%s", rows)
