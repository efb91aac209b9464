"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured quantity, its budget,
and the wall time, so a plain pytest -s run doubles as a report. Budgets are
pinned here and nowhere else.
"""

import cmath
import csv
import json
import math
import struct
import time

import numpy as np
import pytest

import germdeform as gd
from germdeform.cli import main
from germdeform.numdiff import wirtinger_dbar
from germdeform.straighten import Box


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, detail


def test_criterion_01_linearizer_functional_equation(capsys):
    t0 = time.perf_counter()
    germ = gd.Germ.create([2, 1])
    rep = [c for c in gd.find_cycles(germ, 1) if c.kind == "repelling"][0]
    chart = gd.build_chart(germ, rep)

    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    ring = chart.center + chart.radius * np.exp(1j * theta)
    phi_ring = np.array([chart.phi_raw(complex(z)) for z in ring])
    phi_image = np.array([chart.phi_raw(germ.eval(complex(z))) for z in ring])
    residual = np.abs(phi_image - 2.0 * phi_ring).max() / np.abs(phi_ring).max()

    agree = 0.0
    for z in chart.center + 0.5 * chart.radius * np.exp(1j * theta[::4]):
        a = chart.phi(complex(z))
        b = gd.phi_iterative(chart, complex(z))
        agree = max(agree, abs(a - b) / abs(a))
    dt = time.perf_counter() - t0

    ok = residual < 1e-9 and agree < 1e-7 and dt < 1.0
    _report(
        capsys, 1, ok,
        "functional-equation residual %.3g (budget 1e-9), "
        "series vs iterative %.3g (budget 1e-7), %.2f s (budget 1 s)"
        % (residual, agree, dt),
    )


def test_criterion_02_shear_coefficient(capsys):
    t0 = time.perf_counter()
    sh = gd.shear_coefficient(2.0 + 0j, 4.0 + 0j)
    exact_err = abs(sh.mu - (-1.0 / 3.0))

    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 100:
        lam = complex(*rng.uniform(-4, 4, 2))
        lam2 = complex(*rng.uniform(-4, 4, 2))
        if abs(lam) < 1.05 or abs(lam2) < 1.05:
            continue
        s = gd.shear_coefficient(lam, lam2)
        other = (s.tau - s.tau_prime) / (s.tau_prime - s.tau.conjugate())
        worst = max(worst, abs(s.mu - other))
        count += 1
    dt = time.perf_counter() - t0

    ok = exact_err < 1e-12 and worst < 1e-12 and dt < 0.1
    _report(
        capsys, 2, ok,
        "mu(2,4) off -1/3 by %.3g (budget 1e-12), dual-route worst %.3g "
        "over 100 pairs (budget 1e-12), %.3f s (budget 0.1 s)"
        % (exact_err, worst, dt),
    )


def test_criterion_03_multiplier_deformation(capsys):
    t0 = time.perf_counter()
    germ = gd.Germ.create([2, 1])
    rep = [c for c in gd.find_cycles(germ, 1) if c.kind == "repelling"][0]
    targets = [3.0 + 0j, 2.0 * cmath.exp(1j * math.pi / 4), 1.2 + 0j, 4.0j]
    worst = 0.0
    for target in targets:
        conj = gd.LocalConjugacy.build(germ, rep, target)
        measured = gd.measure_multiplier(conj)
        worst = max(worst, abs(measured - target) / abs(target))
    dt = time.perf_counter() - t0

    ok = worst < 1e-5 and dt < 5.0
    _report(
        capsys, 3, ok,
        "worst relative multiplier error %.3g over 4 targets (budget 1e-5), "
        "%.2f s (budget 5 s)" % (worst, dt),
    )


def test_criterion_04_holomorphy_controls(capsys):
    t0 = time.perf_counter()
    germ = gd.Germ.create([2, 1])
    rep = [c for c in gd.find_cycles(germ, 1) if c.kind == "repelling"][0]
    conj = gd.LocalConjugacy.build(germ, rep, 3.0 + 0j)
    r = conj.working_radius()
    res_deformed = gd.holomorphy_residual(
        conj.deformed_return_map, conj.chart(0).center, r
    )
    res_k = gd.holomorphy_residual(
        conj.k_eval, conj.chart(0).center, r
    )
    floor = abs(conj.shear.mu) / 2
    dt = time.perf_counter() - t0

    ok = res_deformed < 1e-5 and res_k > floor and dt < 2.0
    _report(
        capsys, 4, ok,
        "deformed-map residual %.3g (budget 1e-5), conjugating-map residual "
        "%.3g (floor %.3g), %.2f s (budget 2 s)" % (res_deformed, res_k, floor, dt),
    )


def test_criterion_05_field_invariance(capsys):
    t0 = time.perf_counter()
    germ = gd.Germ.create([2, 1])
    rep = [c for c in gd.find_cycles(germ, 1) if c.kind == "repelling"][0]
    conj = gd.LocalConjugacy.build(germ, rep, 3.0 + 0j)
    field = gd.BeltramiField(germ, (gd.FieldEntry(conj.chart(0), conj.shear),))

    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 500:
        z = complex(*rng.uniform(-0.2, 0.2, 2))
        if not (1e-3 <= abs(z) <= 0.2):
            continue
        w = germ.eval(z)
        d = germ.derivative(z)
        diff = abs(field.sample_grid(np.array([w]))[0] - field.sample_grid(np.array([z]))[0] * d / d.conjugate())
        worst = max(worst, diff)
        count += 1
    dt = time.perf_counter() - t0

    ok = worst < 1e-8 and dt < 5.0
    _report(
        capsys, 5, ok,
        "worst invariance defect %.3g over 500 basin points (budget 1e-8), "
        "%.2f s (budget 5 s)" % (worst, dt),
    )


def test_criterion_06_solver_oracle(capsys):
    t0 = time.perf_counter()
    box = Box(3.0)
    n = 1024
    m = -1.0 / 3.0
    disk_r = 1.5
    z = box.nodes(n)
    mu = np.where(np.abs(z) <= disk_r, m + 0j, 0j)
    gm = gd.solve_beltrami(mu, box)

    inside = np.abs(z) <= disk_r
    oracle = np.where(
        inside,
        (z + m * np.conj(z)) / (1 + m),
        (z + m * disk_r**2 / np.where(z == 0, 1, z)) / (1 + m),
    )
    half = (np.abs(z.real) <= box.half_width / 2) & (np.abs(z.imag) <= box.half_width / 2)
    sup_err = np.abs(gm(z[half]) - oracle[half]).max()
    sup_budget = 10.0 * (2.0 * box.half_width / n)

    # coefficient readback away from the jump circle and the border
    spacing = box.spacing(n)
    sample = z[half][:: 97]
    keep = (np.abs(np.abs(sample) - disk_r) > 4 * spacing) & (np.abs(sample) > 4 * spacing)
    sample = sample[keep]
    errs = []
    for p in sample:
        want = m if abs(p) <= disk_r else 0.0
        errs.append(abs(gm.beltrami_at(complex(p)) - want))
    median_err = float(np.median(errs))
    read_budget = 5e-8 / spacing
    dt = time.perf_counter() - t0

    ok = sup_err < sup_budget and median_err < read_budget and dt < 60.0
    _report(
        capsys, 6, ok,
        "oracle sup error %.3g (budget %.3g), readback median %.3g over %d "
        "points (budget %.3g), %.1f s (budget 60 s)"
        % (sup_err, sup_budget, median_err, len(sample), read_budget, dt),
    )


def test_criterion_07_local_global_consistency(capsys):
    t0 = time.perf_counter()
    germ = gd.Germ.create([2, 1])
    rep = [c for c in gd.find_cycles(germ, 1) if c.kind == "repelling"][0]
    local = gd.measure_multiplier(gd.LocalConjugacy.build(germ, rep, 3.0 + 0j))
    dg = gd.global_deform(germ, [gd.Deformation(1, 3.0 + 0j)], n=1024)
    global_m = dg.measure_multiplier()
    diff = abs(global_m - local)
    dt = time.perf_counter() - t0

    ok = diff < 1e-3 and dt < 120.0
    _report(
        capsys, 7, ok,
        "global %.8g%+.3gi vs local %.8g%+.3gi, |diff| %.3g (budget 1e-3), "
        "%.1f s (budget 120 s)"
        % (global_m.real, global_m.imag, local.real, local.imag, diff, dt),
    )


def test_criterion_08_holomorphic_parameter_dependence(capsys):
    t0 = time.perf_counter()
    germ = gd.Germ.create([2, 1])
    rep = [c for c in gd.find_cycles(germ, 1) if c.kind == "repelling"][0]
    chart = gd.build_chart(germ, rep)
    base_target = 3.0 + 0j
    step = 1e-4

    dbar_mu = abs(
        wirtinger_dbar(
            lambda lp: gd.shear_coefficient(2.0 + 0j, lp).mu, base_target, step
        )
    )

    probe = 0.1 + 0.05j

    def field_value(lp: complex) -> complex:
        sh = gd.shear_coefficient(2.0 + 0j, lp)
        return gd.BeltramiField(germ, (gd.FieldEntry(chart, sh),)).sample_grid(np.array([probe]))[0]

    dbar_field = abs(wirtinger_dbar(field_value, base_target, step))

    points = [0.1 + 0j, 0.1j]

    def motion(t: complex) -> np.ndarray:
        return np.asarray(gd.motion_sample(germ, [t], points, n=256, tol=1e-10)[0])

    base_t = 0.4 + 0j
    east = motion(base_t + step)
    west = motion(base_t - step)
    north = motion(base_t + 1j * step)
    south = motion(base_t - 1j * step)
    dbar_motion = float(
        np.abs(0.5 * ((east - west) / (2 * step) + 1j * (north - south) / (2 * step))).max()
    )
    dt = time.perf_counter() - t0

    ok = dbar_mu < 1e-6 and dbar_field < 1e-6 and dbar_motion < 1e-4 and dt < 10.0
    _report(
        capsys, 8, ok,
        "|dbar| of shear %.3g, of field value %.3g (budgets 1e-6), of motion "
        "samples %.3g (budget 1e-4), %.2f s (budget 10 s)"
        % (dbar_mu, dbar_field, dbar_motion, dt),
    )


def test_criterion_09_cremer_checker(capsys):
    t0 = time.perf_counter()
    golden = gd.ContinuedFraction(gd.golden_quotients(40))
    golden_margin = gd.cremer_margin(golden, 2)

    tower = gd.ContinuedFraction(gd.tower_quotients(seed=2, count=8))
    ratios = gd.growth_ratios(tower)
    tower_ok = len(ratios) >= 1 and all(r - math.log(2) > 0 for _, _, r in ratios)

    conv = gd.ContinuedFraction(gd.golden_quotients(80)).convergents()
    a, b = 0, 1
    fib_ok = True
    for p, q in conv:
        a, b = b, a + b
        fib_ok = fib_ok and p == a and q == b
    dt = time.perf_counter() - t0

    ok = golden_margin < 0 and tower_ok and fib_ok and dt < 1.0
    _report(
        capsys, 9, ok,
        "golden margin %.6g (< 0), tower margins positive at all %d indices: "
        "%s, Fibonacci match to index 80: %s, %.3f s (budget 1 s)"
        % (golden_margin, len(ratios), tower_ok, fib_ok, dt),
    )


def _reparse(path):
    name = path.name
    raw = path.read_bytes()
    if name.endswith(".json"):
        json.loads(raw.decode("utf-8"))
    elif name.endswith(".csv"):
        rows = list(csv.reader(raw.decode("utf-8").splitlines()))
        assert len(rows) >= 2
        for row in rows[1:]:
            for v in row:
                try:
                    float(v)
                except ValueError:
                    assert v.isalpha()
    elif name.endswith(".ppm"):
        head = raw.split(b"\n", 3)
        assert head[0] == b"P6"
        w, h = map(int, head[1].split())
        assert int(head[2]) == 255
        assert len(head[3]) == 3 * w * h
    elif name.endswith(".bin"):
        n = struct.unpack("<I", raw[:4])[0]
        gm = gd.GridMap.from_bytes(raw)
        assert gm.samples.shape == (n, n)
    else:
        raise AssertionError("unexpected artifact %s" % name)


def test_criterion_10_determinism_and_round_trip(capsys, tmp_path):
    germ_cfg = {"coeffs": [[2, 0], [1, 0]]}
    jobs = {
        "cycles": {"germ": {"coeffs": [[2, 0], [1, 0]], "radius_U": 3.0}, "orders": [1, 2]},
        "koenigs": {"germ": germ_cfg, "order": 1},
        "deform-local": {"germ": germ_cfg, "order": 1, "target": [3.0, 0.0]},
        "straighten": {
            "germ": germ_cfg,
            "deformations": [{"order": 1, "target": [3.0, 0.0]}],
            "grid": 64,
        },
        "motion": {
            "germ": germ_cfg,
            "t_values": [[0.4, 0.0]],
            "points": [[0.1, 0.0]],
            "grid": 64,
        },
        "cremer": {"preset": "golden", "degree": 2, "count": 40},
        "render": {
            "germ": germ_cfg,
            "deformations": [{"order": 1, "target": [3.0, 0.0]}],
            "grid": 64,
            "field_csv": True,
        },
    }
    checked = 0
    identical = True
    for cmd, cfg in jobs.items():
        cfg_path = tmp_path / ("%s.json" % cmd)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for run in (1, 2):
            out_dir = tmp_path / ("%s_run%d" % (cmd, run))
            rc = main([cmd, "--config", str(cfg_path), "--out", str(out_dir)])
            assert rc == 0, cmd
            outs.append(out_dir)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2 and files1, cmd
        for name in files1:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            identical = identical and a == b
            _reparse(outs[0] / name)
            checked += 1

    ok = identical and checked >= 12
    _report(
        capsys, 10, ok,
        "%d artifacts from 7 commands byte-identical across reruns and "
        "re-parsed: %s" % (checked, identical),
    )
