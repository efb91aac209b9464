"""germdeform benchmark: one seeded workload through the real CLI.

Run from the root of a source checkout (the program is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload straighten-default --seed 1 --seconds 10 --trace 0

One process runs the workload's job list (three passes on local-census),
closed loop with one client: each job is a call of germdeform.cli.main on
a generated JSON config, and the next starts when it returns. Every job's
artifacts are checked afterwards (checks.py). With --trace 0 the last
stdout line holds the end-to-end metrics (on local-census with timings at
the reference speed, see speed.py); with --trace 1 the same jobs run once more with every layer
wrapped (spans.py) and the last line holds the per-layer metrics. The line
before it is a report with the environment, computed array sizes, measured
seconds, failures and accuracy figures. Exit code 2 means the benchmark
could not run at all (for instance no ./src/germdeform); failed jobs do
not change the exit code, they are counted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from speed import Speedometer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10
REFERENCE_BATCH = 10
WORK_DIR = ".bench_work"


class NoProgram(Exception):
    """The checkout holds no importable germdeform source tree."""


def import_cli(root: Path):
    """germdeform.cli from root/src, refusing any other copy."""
    pkg = root / "src" / "germdeform"
    if not (pkg / "cli.py").is_file():
        raise NoProgram("no germdeform sources under %s" % pkg.parent)
    sys.path.insert(0, str(pkg.parent))
    import germdeform.cli as cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise NoProgram("germdeform imported from %s, not from the checkout" % cli.__file__)
    return cli


def write_configs(wl, where: Path) -> dict[str, Path]:
    where.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in wl.jobs:
        path = where / ("%s.json" % job.id)
        path.write_text(json.dumps(job.config), encoding="utf-8")
        paths[job.id] = path
    return paths


# ---- set-up time ----------------------------------------------------------


def setup_probe(args, root: Path) -> None:
    """Child side: imports plus input generation, timed from the parent's
    clock reading just before it started this process."""
    import_cli(root)
    wl = workloads.build(args.workload, args.seed, args.seconds)
    where = root / WORK_DIR / ("probe-%d" % os.getpid())
    write_configs(wl, where)
    elapsed = time.monotonic() - args.setup_probe
    shutil.rmtree(where, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(args) -> list[float]:
    """Start SETUP_PROBES fresh interpreters one after another; each does
    the set-up a CLI user pays on every invocation."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe", repr(t0),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % done.stderr.strip()[-400:])
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ---- running jobs ---------------------------------------------------------


def run_round(cli, wl, cfg_paths, out_root: Path, passes: int = 1, tracer=None, speedo=None) -> dict:
    """The job list `passes` times over (closed loop, one client). A job's
    latency is the median over the passes: on a shared machine a slow spell
    lasts about a second and slows the jobs run during it, and passes
    several seconds apart keep one spell from deciding the tail. speedo,
    when given, takes one reference sample before each job, outside its
    latency. Returns per-job records; the artifacts checked are those of
    the last pass."""
    times = {job.id: [] for job in wl.jobs}
    records = {}
    for _ in range(passes):
        for job in wl.jobs:
            out = out_root / job.id
            argv = [job.command, "--config", str(cfg_paths[job.id]), "--out", str(out)]
            if tracer is not None:
                tracer.job = job.id
            if speedo is not None:
                speedo.sample()
            sink_out, sink_err = io.StringIO(), io.StringIO()
            crash = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback breaks the CLI's 0/2/3 contract
                rc = 1
                crash = traceback.format_exc(limit=-3)
            times[job.id].append(time.perf_counter() - t0)
            records[job.id] = {
                "rc": rc,
                "s": statistics.median(times[job.id]),
                "stderr": sink_err.getvalue().strip().splitlines()[-1:],
                "crash": crash,
                "out": out,
            }
    return records


def check_round(wl, records) -> dict:
    """Outcome of every job: passed, or failed with a reason. Straighten
    jobs compare with their local job, so they are checked last."""
    order = sorted(wl.jobs, key=lambda j: j.command == "straighten")
    facts, failures = {}, {}
    broken = []
    for job in order:
        rec = records[job.id]
        if rec["crash"] is not None:
            failures[job.id] = "uncaught exception: " + rec["crash"].strip().splitlines()[-1]
            broken.append(job.id)
            continue
        if rec["rc"] != 0:
            failures[job.id] = "exit %s: %s" % (rec["rc"], " ".join(rec["stderr"]))
            continue
        facts[job.id] = {}
        try:
            checks.check_job(job, rec["out"], facts[job.id], facts)
        except checks.BadArtifact as exc:
            failures[job.id] = "bad artifact: %s" % exc
            broken.append(job.id)
        except checks.CheckFailed as exc:
            failures[job.id] = "check: %s" % exc
    return {"facts": facts, "failures": failures, "broken": broken}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_MIN_BEYOND jobs beyond it, or the maximum (100) when there are too
    few jobs for one."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_MIN_BEYOND
    if k < 1:
        return 100.0, xs[-1]
    return 100.0 * k / len(xs), xs[k - 1]


def quality(wl, outcome) -> dict:
    """Accuracy figures as measured; 0 where the workload has no such job."""
    facts, failures = outcome["facts"], outcome["failures"]
    passing = [f for jid, f in facts.items() if jid not in failures]
    found = [f for f in facts.values() if "census_exact" in f]
    return {
        "census_found_frac": (
            found[0]["census_found"] / found[0]["census_exact"] if found else 0.0
        ),
        "census_found": "%d/%d" % (found[0]["census_found"], found[0]["census_exact"]) if found else None,
        "mult_rel_err_max": max((f["mult_rel_err"] for f in passing if "mult_rel_err" in f), default=0.0),
        "local_global_gap": max((f["local_global_gap"] for f in facts.values() if "local_global_gap" in f), default=0.0),
        "motion_dbar": max((f["motion_dbar"] for f in facts.values() if "motion_dbar" in f), default=0.0),
    }


def artifact_bytes(records) -> int:
    return sum(
        p.stat().st_size
        for rec in records.values()
        if rec["out"].is_dir()
        for p in rec["out"].iterdir()
    )


def environment() -> dict:
    import numpy
    import scipy

    try:
        l3 = os.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE on glibc
    except (ValueError, OSError):
        l3 = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3,
        "machine": platform.machine(),
    }


def layer_metrics(tracer, records, traced_wall, plain_wall, cpu_s, cpu_util) -> dict:
    """Per-layer metrics of the traced pass. plain_wall, cpu_s and cpu_util
    describe one untraced pass of the same jobs."""
    tot = tracer.totals()

    def t(name, key="s"):
        return tot[name][key] if name in tot else 0.0

    counts = tracer.counts
    solve_calls = t("straighten.solve_beltrami", "calls")
    sweeps = counts.get("straighten.solve_beltrami.sweeps", 0)
    attempted = counts.get("cycles.seeds_attempted", 0)
    grid_calls = t("beltrami.sample_grid", "calls")
    span_time = sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    return {
        "cli.self_s": (t("cli.main", "self_s"), "s"),
        "cli.artifact_bytes": (artifact_bytes(records), "bytes"),
        "cycles.find_cycles.calls": (t("cycles.find_cycles", "calls"), "count"),
        "cycles.find_cycles.s": (t("cycles.find_cycles"), "s"),
        "cycles.seeds_attempted": (attempted, "count"),
        "cycles.seed_yield": (
            counts.get("cycles.seeds_converged", 0) / attempted if attempted else 0.0, "ratio"
        ),
        "koenigs.build_chart.calls": (t("koenigs.build_chart", "calls"), "count"),
        "koenigs.build_chart.s": (t("koenigs.build_chart"), "s"),
        "local_deform.LocalConjugacy.build.s": (t("local_deform.LocalConjugacy.build"), "s"),
        "local_deform.measure_multiplier.calls": (t("local_deform.measure_multiplier", "calls"), "count"),
        "local_deform.measure_multiplier.s": (t("local_deform.measure_multiplier"), "s"),
        "local_deform.holomorphy_residual.s": (t("local_deform.holomorphy_residual"), "s"),
        "beltrami.sample_grid.calls": (grid_calls, "count"),
        "beltrami.sample_grid.points": (counts.get("beltrami.sample_grid.points", 0), "count"),
        "beltrami.sample_grid.s": (t("beltrami.sample_grid"), "s"),
        "beltrami.support_fraction": (
            counts.get("beltrami.support_sum", 0.0) / grid_calls if grid_calls else 0.0, "ratio"
        ),
        "beltrami.field_to_csv.s": (t("beltrami.field_to_csv"), "s"),
        "straighten.build_field.s": (t("straighten.build_field"), "s"),
        "straighten.solve_beltrami.calls": (solve_calls, "count"),
        "straighten.solve_beltrami.s": (t("straighten.solve_beltrami"), "s"),
        "straighten.solve_beltrami.sweeps": (sweeps, "count"),
        "straighten.solve_beltrami.s_per_sweep": (
            t("straighten.solve_beltrami") / sweeps if sweeps else 0.0, "s"
        ),
        # solve time outside its FFT and interpolation child spans
        "straighten.solve_beltrami.pointwise_s": (t("straighten.solve_beltrami", "self_s"), "s"),
        "straighten.fft.calls": (t("straighten.fft", "calls"), "count"),
        "straighten.fft.s": (t("straighten.fft"), "s"),
        "straighten.fft.points": (counts.get("straighten.fft.points", 0), "count"),
        "straighten.GridMap.inverse.calls": (t("straighten.GridMap.inverse", "calls"), "count"),
        "straighten.GridMap.inverse.points": (counts.get("straighten.GridMap.inverse.points", 0), "count"),
        "straighten.GridMap.inverse.s": (t("straighten.GridMap.inverse"), "s"),
        "straighten.GridMap.eval.calls": (t("straighten.GridMap.eval", "calls"), "count"),
        "straighten.GridMap.eval.s": (t("straighten.GridMap.eval"), "s"),
        "straighten.DeformedGerm.measure_multiplier.s": (
            t("straighten.DeformedGerm.measure_multiplier"), "s"
        ),
        "render.mesh_raster.s": (t("render.mesh_raster"), "s"),
        "render.to_ppm.s": (t("render.to_ppm"), "s"),
        "cremer.cremer_margin.s": (t("cremer.cremer_margin"), "s"),
        "proc.cpu_s": (cpu_s, "s"),
        "proc.cpu_util": (cpu_util, "ratio"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.coverage": (span_time / traced_wall if traced_wall else 0.0, "ratio"),
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(args, root: Path, grid: int | None = None, extra_jobs=()) -> dict:
    """One run of a workload. grid and extra_jobs exist for the self-test:
    they shrink every grid and append jobs to the generated list."""
    cli = import_cli(root)
    wl = workloads.build(args.workload, args.seed, args.seconds, grid=grid)
    wl.jobs.extend(extra_jobs)
    work = root / WORK_DIR / ("%s-%d-%d" % (wl.name, args.seed, os.getpid()))
    try:
        cfg_paths = write_configs(wl, work / "configs")
        speedo = Speedometer()
        speedo.sample(REFERENCE_BATCH)
        setup = [] if args.trace else measure_setup(args)
        speedo.sample(REFERENCE_BATCH)

        cpu0, t0 = cpu_seconds(), time.perf_counter()
        records = run_round(cli, wl, cfg_paths, work / "out", wl.passes, speedo=speedo)
        elapsed = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        speedo.sample(REFERENCE_BATCH)
        speed = speedo.factor()
        scale = speed if wl.at_reference_speed else 1.0
        outcome = check_round(wl, records)
        attempted = len(wl.jobs)
        failed = len(outcome["failures"])
        lat = [r["s"] for r in records.values()]
        wall = sum(lat)  # one pass of the job list, from per-job medians
        pct, tail_s = tail(lat)
        acc = quality(wl, outcome)
        report = {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "load": "closed loop, one client, one process",
            "env": environment(),
            "computed": {
                "fft_array_bytes": {
                    str(n): workloads.fft_array_bytes(n) for n in wl.fft_grids
                },
                "note": "(pad*N)^2*16 B per complex array of the padded solve; computed, not measured traffic",
            },
            "jobs": attempted,
            "fail_frac": failed / attempted,
            "failures": outcome["failures"],
            "job_tail": {"percentile": pct, "jobs": attempted},
            "passes": wl.passes,
            "setup_samples_s": setup,
            "speed_factor": speed,
            "timings_at_reference_speed": wl.at_reference_speed,
            "reference_samples": len(speedo.scalar),
            "measured_s": {
                "wall_s": wall,
                "setup_s": statistics.median(setup) if setup else None,
                "job_p50_s": statistics.median(lat),
                "job_tail_s": tail_s,
            },
            "quality": acc,
        }
        if not args.trace:
            metrics = {
                "wall_s": (wall / scale, "s"),
                "setup_s": (statistics.median(setup) / scale, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "pass_frac": ((attempted - failed) / attempted, "ratio"),
                "job_p50_s": (statistics.median(lat) / scale, "s"),
                "job_tail_s": (tail_s / scale, "s"),
            }
        else:
            from spans import Tracer

            shutil.rmtree(work / "out", ignore_errors=True)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(cli, wl, cfg_paths, work / "out", 1, tracer)
            finally:
                tracer.uninstall()
            traced_wall = sum(r["s"] for r in traced.values())
            report["traced_wall_s"] = traced_wall
            report["missing_spans"] = tracer.missing
            report["traced_exit_codes_match"] = all(
                traced[j]["rc"] == records[j]["rc"] for j in records
            )
            metrics = layer_metrics(tracer, traced, traced_wall, wall, cpu_s / wl.passes, cpu_s / elapsed)
            metrics.update(
                {
                    "proc.speed_factor": (speed, "ratio"),
                    "census_found_frac": (acc["census_found_frac"], "ratio"),
                    "mult_rel_err_max": (acc["mult_rel_err_max"], "ratio"),
                    "local_global_gap": (acc["local_global_gap"], "abs"),
                    "motion_dbar": (acc["motion_dbar"], "abs"),
                }
            )
            span_file = root / WORK_DIR / ("spans-%s-seed%d.json" % (wl.name, args.seed))
            span_file.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
            report["span_file"] = str(span_file.relative_to(root))
        result = {
            "correct": not outcome["broken"],
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return {"report": report, "result": result}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe child, given the parent's clock reading
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        if args.setup_probe is not None:
            setup_probe(args, root)
            return 0
        out = run(args, root)
    except NoProgram as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(out["report"], default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
