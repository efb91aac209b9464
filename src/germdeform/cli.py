"""Command line front end.

Every subcommand reads a strict JSON config through germ.Fields (numbers
only where numbers go, never true/false or numeric strings; unknown keys
are rejected so typos fail loudly), writes deterministic artifacts into
--out, and prints a one-line summary. Exit codes: 0 success, 2 bad
configuration or an --out that cannot be written, 3 numerical or domain
failure. A grid, solver_tol or pad the solve cannot use exits 2 before any
work, by the check the library makes first (a DomainError there).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from typing import BinaryIO, Iterator


from . import cremer as cremer_mod
from .beltrami import field_to_csv
from .cycles import cycles_to_csv, find_cycles, repelling_cycle
from .errors import ConfigError, DomainError, ToolkitError
from .germ import BOOLEAN, INTEGER, INTEGERS, NUMBER, OBJECT, OBJECTS, ORDERS, PAIR, PAIRS, STRING
from .germ import Fields, Germ, csv_table
from .koenigs import build_chart
from .local_deform import LocalConjugacy, holomorphy_residual, measure_multiplier
from .render import field_magnitude_raster, mesh_raster, to_ppm, MESH_LINES
from .straighten import FIXED_POINT_DRIFT, Deformation, check_solver_settings, global_deform, motion_sample
from .straighten import DEFAULT_GRID, DEFAULT_PAD, MOTION_GRID, MOTION_TOL, MOVE_SPREAD, SOLVER_TOL


def _load_config(path: str) -> Fields:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Fields(json.load(fh))
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc


def _germ_from(cfg: Fields) -> Germ:
    data = cfg.take("germ", OBJECT)
    try:
        return Germ.from_json(data)
    except ToolkitError as exc:
        raise ConfigError("bad germ: %s" % exc) from exc


def _deformations_from(cfg: Fields) -> list[Deformation]:
    out = []
    for raw in cfg.take("deformations", OBJECTS):
        item = Fields(raw, "deformation")
        order = item.take("order", INTEGER)
        target = item.take("target", PAIR)
        idx = item.take("cycle_index", INTEGER, 0)
        item.finish()
        out.append(Deformation(order=order, target=target, cycle_index=idx))
    return out


def _solver_settings(cfg: Fields, grid: int, tol: float) -> tuple[int, float, int]:
    """grid, solver_tol and pad from the config. The solve's own check
    (check_solver_settings) refuses them before any work."""
    n = cfg.take("grid", INTEGER, grid)
    tol = float(cfg.take("solver_tol", NUMBER, tol))
    pad = cfg.take("pad", INTEGER, DEFAULT_PAD)
    try:
        check_solver_settings(n, tol, pad)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return n, tol, pad


@contextlib.contextmanager
def _artifact(out_dir: Path, name: str) -> Iterator[BinaryIO]:
    """Binary handle on out_dir/name, making out_dir first. Any OSError
    while it is made, opened or written is a bad --out (exit 2), not a
    traceback."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc


def _write(out_dir: Path, name: str, payload) -> None:
    with _artifact(out_dir, name) as fh:
        fh.write(payload if isinstance(payload, bytes) else payload.encode("utf-8"))


def _check_out(out_dir: Path) -> None:
    """Refuse an --out that no artifact could be written into, before any
    work: its nearest existing ancestor (itself, if it exists) must be a
    writable directory. The directory is made at the first write, so a run
    refused for its config leaves none behind."""
    probe = out_dir
    while not os.path.exists(probe):
        probe = probe.parent
    if not probe.is_dir():
        raise ConfigError("cannot write into --out %s: %s is not a directory" % (out_dir, probe))
    if not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError("cannot write into --out %s: %s is not writable" % (out_dir, probe))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---- subcommands ---------------------------------------------------------


def _cmd_cycles(cfg: Fields, out: Path) -> None:
    germ = _germ_from(cfg)
    orders = cfg.take("orders", ORDERS)
    cfg.finish()
    all_cycles = []
    for q in orders:
        all_cycles.extend(find_cycles(germ, q))
    _write(out, "cycles.csv", cycles_to_csv(all_cycles))
    summary = {
        "germ": germ.to_json(),
        "orders": orders,
        "count": len(all_cycles),
        "kinds": {
            kind: sum(1 for c in all_cycles if c.kind == kind)
            for kind in ("attracting", "indifferent", "repelling")
        },
        "critical": sum(1 for c in all_cycles if c.critical),
    }
    _write(out, "cycles.json", _dump_json(summary))
    print("cycles: %d found, wrote cycles.csv" % len(all_cycles))


def _cmd_koenigs(cfg: Fields, out: Path) -> None:
    germ = _germ_from(cfg)
    order = cfg.take("order", INTEGER)
    cycle_index = cfg.take("cycle_index", INTEGER, 0)
    base_index = cfg.take("base_index", INTEGER, 0)
    cfg.finish()
    chart = build_chart(germ, repelling_cycle(germ, order, cycle_index), base_index)
    _write(out, "chart.json", _dump_json(chart.to_json()))
    print(
        "koenigs: chart at %.6g%+.6gi, radius %.6g"
        % (chart.center.real, chart.center.imag, chart.radius)
    )


def _cmd_deform_local(cfg: Fields, out: Path) -> None:
    germ = _germ_from(cfg)
    order = cfg.take("order", INTEGER)
    cycle_index = cfg.take("cycle_index", INTEGER, 0)
    target = cfg.take("target", PAIR)
    cfg.finish()
    lc = LocalConjugacy.build(germ, repelling_cycle(germ, order, cycle_index), target)
    measured = measure_multiplier(lc)
    rel = abs(measured - target) / abs(target)
    r = lc.working_radius()
    res_deformed = holomorphy_residual(lc.deformed_return_map, lc.cycle.base, r)
    report = {
        "germ": germ.to_json(),
        "order": order,
        "cycle_index": cycle_index,
        "source_multiplier": [lc.cycle.multiplier.real, lc.cycle.multiplier.imag],
        "target": [target.real, target.imag],
        "measured": [measured.real, measured.imag],
        "relative_error": rel,
        "shear_mu": [lc.shear.mu.real, lc.shear.mu.imag],
        "working_radius": r,
        "deformed_map_residual": res_deformed,
    }
    _write(out, "deform_local.json", _dump_json(report))
    print(
        "deform-local: measured %.12g%+.12gi, relative error %.3g"
        % (measured.real, measured.imag, rel)
    )


def _cmd_straighten(cfg: Fields, out: Path) -> None:
    germ = _germ_from(cfg)
    deformations = _deformations_from(cfg)
    n, tol, pad = _solver_settings(cfg, DEFAULT_GRID, SOLVER_TOL)
    cfg.finish()
    dg = global_deform(germ, deformations, n=n, tol=tol, pad=pad)
    measured = []
    for i, d in enumerate(deformations):
        m = dg.measure_multiplier(i)
        measured.append(
            {
                "order": d.order,
                "target": [d.target.real, d.target.imag],
                "measured": [m.real, m.imag],
                "relative_error": abs(m - d.target) / abs(d.target),
                "move_spread": dg.move_spreads[i],
                "move_spread_budget": MOVE_SPREAD,
                "measure_radius": dg.measure_radius(i),
            }
        )
    dg.measure_fixed_point()
    with _artifact(out, "gridmap.bin") as fh:
        dg.grid_map.write(fh)
    side = dg.grid_map.sidecar()
    side["deformations"] = measured
    side["fixed_point_drift"] = dg.fixed_point_drift
    side["fixed_point_drift_budget"] = FIXED_POINT_DRIFT
    _write(out, "gridmap.json", _dump_json(side))
    worst = max(m["relative_error"] for m in measured)
    print("straighten: grid %d, worst multiplier error %.3g" % (n, worst))


def _cmd_motion(cfg: Fields, out: Path) -> None:
    germ = _germ_from(cfg)
    t_values = cfg.take("t_values", PAIRS)
    points = cfg.take("points", PAIRS)
    orders = cfg.take("orders", ORDERS, [1])
    n, tol, pad = _solver_settings(cfg, MOTION_GRID, MOTION_TOL)
    cfg.finish()
    rows = motion_sample(germ, t_values, points, orders=orders, n=n, tol=tol, pad=pad)
    table = csv_table(
        "t_re,t_im,point_re,point_im,image_re,image_im",
        "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
        (
            (t.real, t.imag, p.real, p.imag, im.real, im.imag)
            for t, images in zip(t_values, rows)
            for p, im in zip(points, images)
        ),
    )
    _write(out, "motion.csv", table)
    print("motion: %d parameter values, %d points" % (len(t_values), len(points)))


def _cmd_cremer(cfg: Fields, out: Path) -> None:
    preset = cfg.take("preset", STRING, None)
    quots = cfg.take("quotients", INTEGERS, None)
    degree = cfg.take("degree", INTEGER)
    window = cfg.take("window", INTEGER, None)
    count = cfg.take("count", INTEGER, 40)
    seed = cfg.take("seed", INTEGER, 2)
    cfg.finish()
    if (preset is None) == (quots is None):
        raise ConfigError("give exactly one of preset or quotients")
    if preset is not None:
        if preset not in ("golden", "pell", "tower"):
            raise ConfigError("unknown preset %r" % preset)
        min_count = 2 if preset == "tower" else 1
        if count < min_count:
            raise ConfigError("count must be >= %d for preset %r" % (min_count, preset))
        if preset == "golden":
            quots = cremer_mod.golden_quotients(count)
        elif preset == "pell":
            quots = cremer_mod.pell_quotients(count)
        else:
            quots = cremer_mod.tower_quotients(seed=seed, count=count)
    ratios = cremer_mod.growth_ratios(cremer_mod.ContinuedFraction(quots))
    margin = cremer_mod.cremer_margin(ratios, degree, window)
    _write(out, "cremer.csv", cremer_mod.margin_rows_csv(ratios, degree))
    _write(
        out,
        "cremer.json",
        _dump_json(
            {
                "degree": degree,
                "window": window,
                "quotient_count": len(quots),
                "margin": margin,
                "satisfied": margin > 0,
            }
        ),
    )
    print("cremer: margin %.6g (%s)" % (margin, "satisfied" if margin > 0 else "not satisfied"))


def _cmd_render(cfg: Fields, out: Path) -> None:
    germ = _germ_from(cfg)
    deformations = _deformations_from(cfg)
    n, tol, pad = _solver_settings(cfg, 512, SOLVER_TOL)
    lines = cfg.take("lines", INTEGER, MESH_LINES)
    with_csv = cfg.take("field_csv", BOOLEAN, False)
    cfg.finish()
    if lines < 1:
        raise ConfigError("lines must be >= 1 (got %d)" % lines)
    if lines > n:
        raise ConfigError("lines must be at most grid (got lines %d, grid %d)" % (lines, n))
    dg = global_deform(germ, deformations, n=n, tol=tol, pad=pad)
    _write(out, "field.ppm", to_ppm(field_magnitude_raster(dg.mu)))
    _write(out, "mesh.ppm", to_ppm(mesh_raster(dg.grid_map, lines=lines)))
    if with_csv:
        with _artifact(out, "field.csv") as fh:
            field_to_csv(dg.grid_map.box, dg.mu, fh)
    print("render: wrote field.ppm and mesh.ppm at grid %d" % n)


_COMMANDS = {
    "cycles": _cmd_cycles,
    "koenigs": _cmd_koenigs,
    "deform-local": _cmd_deform_local,
    "straighten": _cmd_straighten,
    "motion": _cmd_motion,
    "cremer": _cmd_cremer,
    "render": _cmd_render,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first main() call; parsing leaves
    it as it is, so every later call reuses it."""
    parser = argparse.ArgumentParser(
        prog="germdeform",
        description="deform repelling cycle multipliers of polynomial germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        _check_out(out)
        cfg = _load_config(args.config)
        _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
