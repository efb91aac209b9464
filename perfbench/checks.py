"""Per-job output checks.

Budgets are the acceptance suite's (tests/test_acceptance.py), fixed here
and never loosened:

- straighten: relative multiplier error <= 1e-3 and |global - local| <= 1e-3
  (criterion 7), a fixed budget rather than the sidecar's grid-scaled gate;
- deform-local: relative error <= 1e-5 (criterion 3) and deformed-map
  holomorphy residual <= 1e-5 (criterion 4);
- motion: |dbar_t h_t(p)| <= 1e-4 from the four-point stencil (criterion 8);
- cremer: margin sign, and every tower margin positive (criterion 9);
- every artifact re-parses by criterion 10's rules.

A check reads the job's artifacts and compares them with what the job
generator knows independently (the target it drew, the exact cycles of
2z + z^2); the program's own error fields are not trusted.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

STRAIGHTEN_REL_ERR = 1e-3
LOCAL_GLOBAL_GAP = 1e-3
LOCAL_REL_ERR = 1e-5
LOCAL_RESIDUAL = 1e-5
MOTION_DBAR = 1e-4
CYCLE_CLOSE = 1e-9

ARTIFACTS = {
    "cycles": ("cycles.csv", "cycles.json"),
    "koenigs": ("chart.json",),
    "deform-local": ("deform_local.json",),
    "straighten": ("gridmap.bin", "gridmap.json"),
    "motion": ("motion.csv",),
    "cremer": ("cremer.csv", "cremer.json"),
    "render": ("field.ppm", "mesh.ppm", "field.csv"),
}


class CheckFailed(Exception):
    """A job's output missed a budget or an exact reference."""


class BadArtifact(CheckFailed):
    """An artifact is missing or does not re-parse."""


def reparse(path: Path):
    """Criterion 10's rules; returns the parsed content."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise BadArtifact("missing artifact %s" % path.name) from exc
    try:
        if path.suffix == ".json":
            return json.loads(raw.decode("utf-8"))
        if path.suffix == ".csv":
            rows = list(csv.reader(raw.decode("utf-8").splitlines()))
            if len(rows) < 2:
                raise BadArtifact("%s has no data rows" % path.name)
            for row in rows[1:]:
                for v in row:
                    try:
                        float(v)
                    except ValueError:
                        if not v.isalpha():
                            raise BadArtifact("%s holds %r" % (path.name, v)) from None
            return rows
        if path.suffix == ".ppm":
            head = raw.split(b"\n", 3)
            w, h = map(int, head[1].split())
            if head[0] != b"P6" or int(head[2]) != 255 or len(head[3]) != 3 * w * h:
                raise BadArtifact("%s has a bad PPM layout" % path.name)
            return (w, h)
        if path.suffix == ".bin":
            # GridMap.to_bytes: uint32 n, four float64 extents, n*n complex
            (n,) = struct.unpack_from("<I", raw, 0)
            if len(raw) != 4 + 32 + 16 * n * n:
                raise BadArtifact("%s has wrong length for n = %d" % (path.name, n))
            return n
    except (ValueError, IndexError, UnicodeDecodeError, struct.error) as exc:
        raise BadArtifact("%s does not re-parse: %s" % (path.name, exc)) from exc
    raise BadArtifact("unexpected artifact %s" % path.name)


def _pair(v) -> complex:
    return complex(float(v[0]), float(v[1]))


def _poly(coeffs, z: complex) -> complex:
    # germ f(z) = sum c_k z^(k+1)
    acc = 0j
    for c in reversed(coeffs):
        acc = (acc + c) * z
    return acc


def _closes(coeffs, z: complex, order: int) -> bool:
    w = z
    for _ in range(order):
        w = _poly(coeffs, w)
    return abs(w - z) <= CYCLE_CLOSE * max(1.0, abs(z))


def _germ_coeffs(cfg: dict) -> list[complex]:
    return [_pair(c) for c in cfg["germ"]["coeffs"]]


def _rel(measured: complex, target: complex) -> float:
    return abs(measured - target) / abs(target)


def _check_cycles(job, art, facts):
    coeffs = _germ_coeffs(job.config)
    rows = art["cycles.csv"][1:]
    bases = set()
    for order, idx, re_, im_ in ((int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows):
        if not _closes(coeffs, complex(re_, im_), order):
            raise CheckFailed("cycle point %r of order %d does not close" % ((re_, im_), order))
        if idx == 0:
            bases.add((order, re_, im_))
    if art["cycles.json"]["count"] != len(bases):
        raise CheckFailed("cycles.json count disagrees with cycles.csv")
    facts["census_found"] = len(bases)
    facts["census_exact"] = job.expect["exact"]


def _check_koenigs(job, art, facts):
    chart = art["chart.json"]
    q = job.expect["order"]
    center = _pair(chart["center"])
    if not _closes(_germ_coeffs(job.config), center, q):
        raise CheckFailed("chart center is not a point of an order-%d cycle" % q)
    lam = abs(_pair(chart["multiplier"]))
    if abs(lam - 2.0 ** q) > CYCLE_CLOSE * 2.0 ** q:
        raise CheckFailed("chart multiplier modulus %.17g, exact %g" % (lam, 2.0 ** q))


def _check_local(job, art, facts):
    rep = art["deform_local.json"]
    measured = _pair(rep["measured"])
    rel = _rel(measured, job.expect["target"])
    facts["measured"] = measured
    if not rel <= LOCAL_REL_ERR:
        raise CheckFailed("relative error %.3g > %g" % (rel, LOCAL_REL_ERR))
    res = float(rep["deformed_map_residual"])
    if not res <= LOCAL_RESIDUAL:
        raise CheckFailed("deformed-map residual %.3g > %g" % (res, LOCAL_RESIDUAL))
    facts["mult_rel_err"] = rel


def _check_straighten(job, art, facts, results):
    side = art["gridmap.json"]
    if art["gridmap.bin"] != side["n"]:
        raise CheckFailed("gridmap.bin size disagrees with the sidecar")
    worst = 0.0
    measured = []
    for entry, target in zip(side["deformations"], job.expect["targets"]):
        m = _pair(entry["measured"])
        measured.append(m)
        worst = max(worst, _rel(m, target))
    if len(measured) != len(job.expect["targets"]):
        raise CheckFailed("sidecar lists %d deformations" % len(measured))
    facts["measured"] = measured[0]
    if not worst <= STRAIGHTEN_REL_ERR:
        raise CheckFailed("relative error %.3g > %g" % (worst, STRAIGHTEN_REL_ERR))
    local = results.get(job.expect["local_job"], {}).get("measured")
    if local is None:
        raise CheckFailed("no local multiplier to compare with")
    gap = abs(measured[0] - local)
    facts["local_global_gap"] = gap
    if not gap <= LOCAL_GLOBAL_GAP:
        raise CheckFailed("local/global gap %.3g > %g" % (gap, LOCAL_GLOBAL_GAP))
    facts["mult_rel_err"] = worst


def _check_motion(job, art, facts):
    rows = art["motion.csv"][1:]
    ts, points = job.expect["t_values"], job.expect["points"]
    if len(rows) != len(ts) * len(points):
        raise CheckFailed("motion.csv has %d rows, expected %d" % (len(rows), len(ts) * len(points)))
    images = []
    for k, row in enumerate(rows):
        t, p = ts[k // len(points)], points[k % len(points)]
        vals = [float(v) for v in row]
        if complex(vals[0], vals[1]) != t or complex(vals[2], vals[3]) != p:
            raise CheckFailed("motion.csv row %d does not echo its t and point" % k)
        im = complex(vals[4], vals[5])
        if not (math.isfinite(im.real) and math.isfinite(im.imag)):
            raise CheckFailed("non-finite motion sample")
        images.append(im)
    # the last four t values are the stencil t0 + h, t0 - h, t0 + ih, t0 - ih
    h = job.expect["stencil_step"]
    n = len(points)
    stencil = images[-4 * n :]
    east, west, north, south = (stencil[i * n : (i + 1) * n] for i in range(4))
    dbar = max(
        abs(0.5 * ((e - w) / (2 * h) + 1j * (nn - s) / (2 * h)))
        for e, w, nn, s in zip(east, west, north, south)
    )
    facts["motion_dbar"] = dbar
    if not dbar <= MOTION_DBAR:
        raise CheckFailed("|dbar_t h_t| %.3g > %g" % (dbar, MOTION_DBAR))


def _check_cremer(job, art, facts):
    rep = art["cremer.json"]
    want = job.expect["satisfied"]
    margin = float(rep["margin"])
    if (margin > 0) != want or bool(rep["satisfied"]) != want:
        raise CheckFailed("cremer margin %.6g has the wrong sign" % margin)
    if want and not all(float(r[3]) > 0 for r in art["cremer.csv"][1:]):
        raise CheckFailed("a tower margin is not positive")


def _check_render(job, art, facts):
    n = job.expect["grid"]
    for name in ("field.ppm", "mesh.ppm"):
        if art[name] != (n, n):
            raise CheckFailed("%s is %r, expected %d x %d" % (name, art[name], n, n))
    rows = art["field.csv"]
    if len(rows) != n * n + 1:
        raise CheckFailed("field.csv has %d rows, expected %d" % (len(rows), n * n + 1))
    for r in rows[1:]:
        if not abs(complex(float(r[2]), float(r[3]))) < 1.0:
            raise CheckFailed("field.csv holds |mu| >= 1")


_CHECKS = {
    "cycles": _check_cycles,
    "koenigs": _check_koenigs,
    "deform-local": _check_local,
    "motion": _check_motion,
    "cremer": _check_cremer,
    "render": _check_render,
}


def check_job(job, out_dir: Path, facts: dict, results: dict) -> None:
    """Check one finished job's artifacts, recording what it measures in
    facts (also when a budget is missed). Raises BadArtifact or CheckFailed
    on the first miss. Straighten jobs read their local job's facts from
    results, so they are checked after it."""
    art = {name: reparse(out_dir / name) for name in ARTIFACTS[job.command]}
    if job.command == "straighten":
        _check_straighten(job, art, facts, results)
    else:
        _CHECKS[job.command](job, art, facts)
