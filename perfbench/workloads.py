"""Seeded job lists for the four benchmark workloads.

Every workload drives the germ f(z) = 2z + z^2 through the command line
front end. The generator sees only the seed, the run length and an optional
grid override; the program sees only the JSON configs written from the
jobs built here. Job counts scale with the run length so that a run takes
about that long on a 2-CPU machine in a quiet minute (local-census about
1.5 times; the per-job costs below were measured there); the same seed
and length always give the same jobs.

f = (z + 1)^2 - 1 is conjugate to w -> w^2 by w = z + 1, so its periodic
points, multipliers and cycle counts are known exactly; see exact_cycles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

GERM_COEFFS = [[2.0, 0.0], [1.0, 0.0]]
CENSUS_RADIUS = 3.0
CENSUS_ORDERS = list(range(1, 9))
LOCAL_ORDERS = (1, 2, 3, 4)
STRAIGHTEN_GRID = 1024
RENDER_GRID = 512
MOTION_GRID = 256
PAD = 2
STRAIGHTEN_TOL = 1e-8
MOTION_TOL = 1e-10
STENCIL_STEP = 1e-4
MOTION_POINTS = 8
MOTION_SEGMENTS = 4

# Measured seconds per job at the default grids; they only size the lists.
_MOTION_S_PER_T = 0.5
_RENDER_S_PER_JOB = 3.0
_DEFORM_LOCAL_PER_S = 10
_KOENIGS_PER_S = 3


@dataclass
class Job:
    """One CLI invocation: the subcommand, its config, and what the checks
    need to know that the program is not told."""

    id: str
    command: str
    config: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    jobs: list
    fft_grids: tuple = ()
    passes: int = 1
    at_reference_speed: bool = False


WHY = {
    "straighten-default": (
        "headline straighten at grid 1024: large FFT solve plus scalar "
        "GridMap.inverse in the measurement; local route alongside for the gap"
    ),
    "motion-sweep": (
        "many small cache-resident solves with census and charts redone per t "
        "and no inverse calls: shows warm starts and reuse, bypasses inverse"
    ),
    "local-census": (
        "scalar-Python census, charts and local route with no FFT or grid: "
        "predicted unchanged by every straighten optimisation"
    ),
    "render-field": (
        "only run of render and the row-by-row field CSV writer at scale, with "
        "the mid-size solve near the L3 size"
    ),
}

NAMES = tuple(WHY)

# Workloads of sub-second jobs run their list this many times over and take
# each job's median latency, so that a slow spell on a shared machine (about
# a second long) cannot decide which jobs form the tail. Jobs of several
# seconds average such spells out and run once.
PASSES = {"local-census": 3}

# Workloads whose timings are reported at the reference speed (speed.py).
# The reference is sampled before every job, which tracks the machine's
# speed only when jobs last well under its slow spells: on local-census it
# cut the spread of ten runs' wall_s from 0.16-0.30 to 0.06-0.07 of the
# median. Around the multi-second FFT jobs of the other workloads the
# samples miss the job's own conditions (straighten-default spread 0.42
# scaled, 0.1-0.2 measured), so those report measured seconds.
AT_REFERENCE_SPEED = {"local-census"}


def _germ(radius=None) -> dict:
    g = {"coeffs": [list(c) for c in GERM_COEFFS]}
    if radius is not None:
        g["radius_U"] = radius
    return g


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _in_disk(rng, center: complex, radius: float, u: float | None = None) -> complex:
    """Uniform point of the disk; u in [0, 1) fixes the share of the area
    inside its distance from the center."""
    r = radius * math.sqrt(rng.uniform() if u is None else u)
    return center + r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _mild_target(rng, u: float | None = None) -> complex:
    # |target - 3| <= 0.3: mild shears of the fixed point 0 (multiplier 2)
    return _in_disk(rng, 3.0, 0.3, u)


def exact_cycles(order: int) -> list[tuple[complex, ...]]:
    """All primitive cycles of f of the given order, from w -> w^2.

    Period-q points of w^2 are 0 (q = 1 only) and the (2^q - 1)-th roots of
    unity; z = w - 1. Orbits of k -> 2k mod 2^q - 1 give the cycles.
    """
    m = 2 ** order - 1
    cycles = [(-1.0 + 0j,)] if order == 1 else []
    seen = set()
    for k in range(m):
        if k in seen:
            continue
        orbit = [k]
        j = (2 * k) % m
        while j != k:
            orbit.append(j)
            j = (2 * j) % m
        seen.update(orbit)
        if len(orbit) == order:
            cycles.append(tuple(cmath.exp(2j * math.pi * i / m) - 1.0 for i in orbit))
    return cycles


def exact_cycle_count(orders, radius: float) -> int:
    return sum(
        1
        for q in orders
        for c in exact_cycles(q)
        if all(abs(p) <= radius for p in c)
    )


def repelling_count(order: int, radius: float) -> int:
    """Repelling primitive cycles of the order inside the disk; every cycle
    but the critical fixed point -1 has multiplier of modulus 2^q."""
    return sum(
        1
        for c in exact_cycles(order)
        if all(abs(p) <= radius for p in c) and c != (-1.0 + 0j,)
    )


def _straighten_default(rng, seconds, grid):
    target = _mild_target(rng)
    n = grid or STRAIGHTEN_GRID
    return [
        Job(
            "straighten",
            "straighten",
            {
                "germ": _germ(),
                "deformations": [{"order": 1, "target": _pair(target)}],
                "grid": n,
                "pad": PAD,
                "solver_tol": STRAIGHTEN_TOL,
            },
            {"targets": [target], "local_job": "local"},
        ),
        Job(
            "local",
            "deform-local",
            {"germ": _germ(), "order": 1, "target": _pair(target)},
            {"target": target},
        ),
    ], (n,)


def _inside_motion_region(t: complex) -> bool:
    return 0.3 <= abs(t) <= 0.45 and abs(cmath.phase(t)) <= 0.6


def _motion_path(rng, count: int) -> list[complex]:
    """MOTION_SEGMENTS walks of short steps inside 0.3 <= |t| <= 0.45,
    |arg t| <= 0.6. The walks start in a Latin square over |t| and arg t:
    the solver's sweep count grows with |mu|, which these set, and one walk
    from one random start moved the whole job's cost by about 20% from seed
    to seed."""
    k = MOTION_SEGMENTS
    radii, args = rng.permutation(k), rng.permutation(k)
    path = []
    for i in range(k):
        r = 0.3 + 0.15 * (radii[i] + rng.uniform()) / k
        t = cmath.rect(r, -0.6 + 1.2 * (args[i] + rng.uniform()) / k)
        heading = rng.uniform(-math.pi, math.pi)
        segment = [t]
        while len(segment) < count // k + (i < count % k):
            heading += rng.normal(0.0, 0.5)
            step = t + 0.015 * cmath.exp(1j * heading)
            if not _inside_motion_region(step):
                heading += math.pi
                continue
            t = step
            segment.append(t)
        path.extend(segment)
    return path


def _motion_sweep(rng, seconds, grid):
    n = grid or MOTION_GRID
    total = max(4 + MOTION_SEGMENTS, int(round(seconds / _MOTION_S_PER_T)))
    path = _motion_path(rng, total - 4)
    points = [_in_disk(rng, 0j, 0.3) for _ in range(MOTION_POINTS)]
    t0 = path[int(rng.integers(len(path)))]
    h = STENCIL_STEP
    stencil = [t0 + h, t0 - h, t0 + 1j * h, t0 - 1j * h]
    cfg = {
        "germ": _germ(),
        "t_values": [_pair(t) for t in path + stencil],
        "points": [_pair(p) for p in points],
        "orders": [1],
        "grid": n,
        "pad": PAD,
        "solver_tol": MOTION_TOL,
    }
    expect = {"t_values": path + stencil, "points": points, "stencil_step": h}
    return [Job("motion", "motion", cfg, expect)], (n,)


def _local_census(rng, seconds, grid):
    census = Job(
        "census",
        "cycles",
        {"germ": _germ(CENSUS_RADIUS), "orders": CENSUS_ORDERS},
        {"exact": exact_cycle_count(CENSUS_ORDERS, CENSUS_RADIUS)},
    )
    # The list is sized for half the run length, so its passes take about
    # 1.5 times --seconds: a list of a third would leave too few jobs beyond
    # the tail percentile and make pass_frac step coarsely.
    n_koenigs = max(2, int(round(_KOENIGS_PER_S * seconds / 2)))
    n_local = max(4, int(round(_DEFORM_LOCAL_PER_S * seconds / 2)))
    draws = [("koenigs", LOCAL_ORDERS[i % len(LOCAL_ORDERS)], None) for i in range(n_koenigs)]
    # Orders take turns and, within each order, the target's log-modulus is
    # stratified: one uniform draw per equal slice of [log 1.2, log 4|lambda|].
    # The law of each draw stays log-uniform, but the share of small
    # |target|/|lambda| draws (where the local route fails) no longer swings
    # from seed to seed.
    for k, q in enumerate(LOCAL_ORDERS):
        count = len(range(k, n_local, len(LOCAL_ORDERS)))
        lo, hi = math.log(1.2), math.log(4.0 * 2.0 ** q)
        for stratum in rng.permutation(count):
            u = (stratum + rng.uniform()) / count
            target = cmath.rect(math.exp(lo + u * (hi - lo)), rng.uniform(-math.pi, math.pi))
            draws.append(("deform-local", q, target))
    rng.shuffle(draws)
    jobs = [census]
    for i, (command, q, target) in enumerate(draws):
        cfg = {
            "germ": _germ(CENSUS_RADIUS),
            "order": q,
            "cycle_index": int(rng.integers(repelling_count(q, CENSUS_RADIUS))),
        }
        if command == "koenigs":
            cfg["base_index"] = int(rng.integers(q))
            jobs.append(Job("koenigs-%d" % i, command, cfg, {"order": q}))
        else:
            cfg["target"] = _pair(target)
            jobs.append(Job("local-%d" % i, command, cfg, {"target": target}))
    jobs.append(
        Job(
            "cremer-golden",
            "cremer",
            {"preset": "golden", "degree": 2, "count": 40},
            {"satisfied": False},
        )
    )
    jobs.append(
        Job(
            "cremer-tower",
            "cremer",
            {"preset": "tower", "degree": 2, "count": 8, "seed": 2},
            {"satisfied": True},
        )
    )
    return jobs, ()


def _render_field(rng, seconds, grid):
    n = grid or RENDER_GRID
    count = max(1, int(round(seconds / _RENDER_S_PER_JOB)))
    jobs = []
    # distance from 3 stratified over the disk's area, as for the motion path
    for i, stratum in enumerate(rng.permutation(count)):
        target = _mild_target(rng, (stratum + rng.uniform()) / count)
        cfg = {
            "germ": _germ(),
            "deformations": [{"order": 1, "target": _pair(target)}],
            "grid": n,
            "pad": PAD,
            "solver_tol": STRAIGHTEN_TOL,
            "field_csv": True,
        }
        jobs.append(Job("render-%d" % i, "render", cfg, {"grid": n}))
    return jobs, (n,)


_BUILDERS = {
    "straighten-default": _straighten_default,
    "motion-sweep": _motion_sweep,
    "local-census": _local_census,
    "render-field": _render_field,
}


def build(name: str, seed: int, seconds: float, grid: int | None = None) -> Workload:
    """The workload's job list for this seed and run length. grid, when
    given, replaces every grid size (used by the self-test)."""
    if name not in _BUILDERS:
        raise KeyError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))
    rng = np.random.default_rng([seed, NAMES.index(name)])
    jobs, grids = _BUILDERS[name](rng, seconds, grid)
    return Workload(
        name, WHY[name], jobs, grids, PASSES.get(name, 1), name in AT_REFERENCE_SPEED
    )


def fft_array_bytes(grid: int, pad: int = PAD) -> int:
    """Computed size of one complex128 array of the padded solve."""
    return (pad * grid) ** 2 * 16
