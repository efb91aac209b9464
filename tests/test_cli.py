import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import germdeform as gd
from germdeform import cli, cremer as cremer_mod
from germdeform.cli import main

QUAD = {"coeffs": [[2, 0], [1, 0]], "radius_U": 3.0}
QUAD_TIGHT = {"coeffs": [[2, 0], [1, 0]]}


def write_cfg(tmp_path: Path, name: str, obj) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def run(tmp_path, command, cfg_name, cfg, out="out", extra=()):
    cfg_path = write_cfg(tmp_path, cfg_name, cfg)
    out_dir = tmp_path / out
    rc = main([command, "--config", cfg_path, "--out", str(out_dir), *extra])
    return rc, out_dir


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cycles_command(tmp_path):
    rc, out = run(tmp_path, "cycles", "c.json", {"germ": QUAD, "orders": [1, 2]})
    assert rc == 0
    rows = read_csv(out / "cycles.csv")
    assert rows[0] == ["order", "point_index", "re", "im", "mult_re", "mult_im", "kind"]
    assert len(rows) == 1 + 2 + 2
    for row in rows[1:]:
        float(row[2]), float(row[3])
    summary = json.loads((out / "cycles.json").read_text())
    assert summary["count"] == 3
    assert summary["kinds"]["repelling"] == 2
    assert summary["critical"] == 1


def test_koenigs_command(tmp_path):
    rc, out = run(tmp_path, "koenigs", "k.json", {"germ": QUAD_TIGHT, "order": 1})
    assert rc == 0
    data = json.loads((out / "chart.json").read_text())
    assert data["radius"] == pytest.approx(0.2025)
    assert data["coeffs"][0] == [1.0, 0.0]


def test_deform_local_command(tmp_path):
    rc, out = run(
        tmp_path,
        "deform-local",
        "d.json",
        {"germ": QUAD_TIGHT, "order": 1, "target": [3.0, 0.0]},
    )
    assert rc == 0
    rep = json.loads((out / "deform_local.json").read_text())
    assert rep["relative_error"] < 1e-5
    assert rep["deformed_map_residual"] < 1e-5
    assert rep["measured"][0] == pytest.approx(3.0, rel=1e-5)


def test_straighten_command_and_reload(tmp_path):
    rc, out = run(
        tmp_path,
        "straighten",
        "s.json",
        {
            "germ": QUAD_TIGHT,
            "deformations": [{"order": 1, "target": [3.0, 0.0]}],
            "grid": 128,
        },
    )
    assert rc == 0
    raw = (out / "gridmap.bin").read_bytes()
    n = struct.unpack("<I", raw[:4])[0]
    assert n == 128
    gm = gd.GridMap.from_bytes(raw)
    assert gm.samples.shape == (128, 128)
    side = json.loads((out / "gridmap.json").read_text())
    assert side["n"] == 128
    assert side["deformations"][0]["order"] == 1


def test_motion_command(tmp_path):
    rc, out = run(
        tmp_path,
        "motion",
        "m.json",
        {
            "germ": QUAD_TIGHT,
            "t_values": [[0.4, 0.0]],
            "points": [[0.1, 0.0], [0.0, 0.1]],
            "grid": 64,
        },
    )
    assert rc == 0
    rows = read_csv(out / "motion.csv")
    assert rows[0][0] == "t_re"
    assert len(rows) == 1 + 2
    for row in rows[1:]:
        assert all(abs(float(v)) < 10 for v in row)


def test_motion_refuses_a_nan_point(tmp_path, capsys):
    cfg = {"germ": QUAD_TIGHT, "t_values": [[0.4, 0.0]], "points": [[float("nan"), 0.0]], "grid": 32}
    rc, out = run(tmp_path, "motion", "m.json", cfg)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: evaluation point not finite: (nan+0j)")
    assert "Traceback" not in err
    assert not (out / "motion.csv").exists()


def test_motion_refuses_a_nan_t(tmp_path, capsys):
    cfg = {"germ": QUAD_TIGHT, "t_values": [[float("nan"), 0.0]], "points": [[0.1, 0.0]], "grid": 32}
    rc, out = run(tmp_path, "motion", "m.json", cfg)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: motion parameter must satisfy 0 < |t| < 1")
    assert "Traceback" not in err
    assert not (out / "motion.csv").exists()


def test_cremer_command(tmp_path):
    rc, out = run(
        tmp_path,
        "cremer",
        "cr.json",
        {"preset": "golden", "degree": 2, "count": 40},
    )
    assert rc == 0
    rep = json.loads((out / "cremer.json").read_text())
    assert rep["margin"] < 0
    assert rep["satisfied"] is False
    rows = read_csv(out / "cremer.csv")
    assert rows[0] == ["n", "q_n", "ratio", "margin"]


def test_cremer_tower_satisfied(tmp_path):
    rc, out = run(
        tmp_path,
        "cremer",
        "tw.json",
        {"preset": "tower", "degree": 2, "count": 8},
    )
    assert rc == 0
    rep = json.loads((out / "cremer.json").read_text())
    assert rep["satisfied"] is True


def test_cremer_computes_growth_ratios_once(tmp_path, monkeypatch):
    calls = []
    ratios = cremer_mod.growth_ratios
    monkeypatch.setattr(cremer_mod, "growth_ratios", lambda cf: calls.append(cf) or ratios(cf))
    rc, out = run(tmp_path, "cremer", "cr.json", {"preset": "golden", "degree": 2, "count": 40})
    assert rc == 0
    assert len(calls) == 1
    cf = gd.ContinuedFraction(gd.golden_quotients(40))
    assert (out / "cremer.csv").read_text(encoding="utf-8") == gd.margin_rows_csv(cf, 2)
    assert json.loads((out / "cremer.json").read_text())["margin"] == gd.cremer_margin(cf, 2)


@pytest.mark.parametrize(
    "preset,count", [("golden", -3), ("golden", 0), ("pell", 0), ("tower", 1)]
)
def test_cremer_count_too_small_exits_2(tmp_path, capsys, preset, count):
    rc, _ = run(
        tmp_path, "cremer", "cc.json", {"preset": preset, "degree": 2, "count": count}
    )
    assert rc == 2
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1500, 21000])
def test_cremer_long_golden_exits_cleanly(tmp_path, capsys, count):
    # q_n leaves the float range near count 1477 and passes Python's
    # 4300-digit limit for int-to-str conversion near count 20576
    rc, out = run(
        tmp_path, "cremer", "long.json", {"preset": "golden", "degree": 2, "count": count}
    )
    assert rc in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if count == 1500:
        assert rc == 0
        assert read_csv(out / "cremer.csv")[-1][0] == "1499"


def test_render_command(tmp_path):
    rc, out = run(
        tmp_path,
        "render",
        "r.json",
        {
            "germ": QUAD_TIGHT,
            "deformations": [{"order": 1, "target": [3.0, 0.0]}],
            "grid": 64,
            "field_csv": True,
        },
    )
    assert rc == 0
    for name in ("field.ppm", "mesh.ppm"):
        head = (out / name).read_bytes()[:20].split()
        assert head[0] == b"P6"
        assert int(head[1]) == 64 and int(head[2]) == 64
    rows = read_csv(out / "field.csv")
    assert rows[0] == ["re", "im", "mu_re", "mu_im"]
    assert len(rows) == 1 + 64 * 64


def test_unknown_config_key_exits_2(tmp_path):
    rc, _ = run(tmp_path, "cycles", "bad.json", {"germ": QUAD, "orders": [1], "oops": 1})
    assert rc == 2


def test_missing_key_exits_2(tmp_path):
    rc, _ = run(tmp_path, "cycles", "bad2.json", {"germ": QUAD})
    assert rc == 2


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["cycles", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["cycles", "--config", missing, "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exits_3(tmp_path):
    # target inside the unit circle cannot be reached by the shear
    rc, _ = run(
        tmp_path,
        "deform-local",
        "bad3.json",
        {"germ": QUAD_TIGHT, "order": 1, "target": [0.5, 0.0]},
    )
    assert rc == 3


def test_multiple_fixed_point_exits_3(tmp_path, capsys):
    rc, out = run(tmp_path, "cycles", "mult.json", {"germ": {"coeffs": [[1, 0], [1, 0]]}, "orders": [1]})
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Newton stalls on a multiple root of f^1(z) - z near ")
    assert "Traceback" not in err
    assert not (out / "cycles.csv").exists()


@pytest.mark.parametrize(
    "germ",
    [
        {"coeffs": [["a", 0], [1, 0]]},
        {"coeffs": [[2, 0], [1, 0]], "radius_U": "x"},
        {"coeffs": [[2, 0], [1, 0]], "alpha": "x"},
    ],
)
def test_non_numeric_germ_exits_2(tmp_path, capsys, germ):
    rc, _ = run(tmp_path, "cycles", "g.json", {"germ": germ, "orders": [1]})
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: bad germ: ")


@pytest.mark.parametrize(
    "germ, field",
    [
        ({"coeffs": [[True, 0], [1, False]]}, "coeffs"),
        ({"coeffs": [[2, 0], [1, 0]], "radius_U": True}, "radius_U"),
        ({"coeffs": [[1, 0], [1, 0]], "alpha": False}, "alpha"),
    ],
)
def test_boolean_germ_field_exits_2(tmp_path, capsys, germ, field):
    rc, out = run(tmp_path, "cycles", "g.json", {"germ": germ, "orders": [1]})
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: bad germ: germ %s must" % field)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("cycles", {"germ": QUAD, "orders": [True]}),
        ("motion", {"germ": QUAD_TIGHT, "t_values": [[0.4, 0]], "points": [[0.1, 0]], "orders": [True]}),
        ("cremer", {"preset": "golden", "degree": True}),
        ("koenigs", {"germ": QUAD_TIGHT, "order": True}),
        ("straighten", {"germ": QUAD_TIGHT, "deformations": [{"order": 1, "target": [3, 0]}], "grid": True}),
        # nor is it a number, and neither is a numeric string or an int past the float range
        ("deform-local", {"germ": QUAD_TIGHT, "order": 1, "target": [3, False]}),
        ("straighten", {"germ": QUAD_TIGHT, "deformations": [{"order": 1, "target": [True, 0]}], "grid": 32}),
        ("motion", {"germ": QUAD_TIGHT, "t_values": [[0.4, True]], "points": [[0.1, 0]], "grid": 32}),
        ("motion", {"germ": QUAD_TIGHT, "t_values": [[0.4, 0]], "points": [[True, False]], "grid": 32}),
        ("cremer", {"quotients": [True, 2, 3], "degree": 2}),
        ("cycles", {"germ": {"coeffs": [["2", "0"], [1, 0]]}, "orders": [1]}),
        ("cycles", {"germ": {"coeffs": [[2, 0], [1, 0]], "radius_U": "3"}, "orders": [1]}),
        ("motion", {"germ": QUAD_TIGHT, "t_values": [["0.4", "0"]], "points": [[0.1, 0]], "grid": 32}),
        ("motion", {"germ": QUAD_TIGHT, "t_values": [[0.4, 0]], "points": [["0.1", 0]], "grid": 32}),
        ("deform-local", {"germ": QUAD_TIGHT, "order": 1, "target": [10**400, 0]}),
        (
            "straighten",
            {"germ": QUAD_TIGHT, "deformations": [{"order": 1, "target": [3, 0]}], "solver_tol": 10**400},
        ),
    ],
)
def test_json_true_is_not_an_integer(tmp_path, command, cfg):
    rc, out = run(tmp_path, command, "b.json", cfg)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("koenigs", {"germ": QUAD_TIGHT, "order": 1, "cycle_index": 7}),
        ("deform-local", {"germ": QUAD_TIGHT, "order": 1, "cycle_index": 7, "target": [3.0, 0.0]}),
        (
            "straighten",
            {"germ": QUAD_TIGHT, "deformations": [{"order": 1, "target": [3.0, 0.0], "cycle_index": 7}]},
        ),
    ],
)
def test_cycle_index_out_of_range_exits_3(tmp_path, capsys, command, cfg):
    # the valid range comes from the computed census, so every command
    # reports it as a domain failure with the same message
    rc, _ = run(tmp_path, command, "ci.json", cfg)
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: cycle_index 7 out of range: 1 repelling cycle(s) of order 1 found\n"
    )



@pytest.mark.parametrize("base_index", [5, -1])
def test_base_index_out_of_range_exits_3(tmp_path, capsys, base_index):
    # the radius-3 disk holds one repelling 2-cycle, so only 0 and 1 are points of it
    rc, out = run(tmp_path, "koenigs", "bi.json", {"germ": QUAD, "order": 2, "base_index": base_index})
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: base_index %d out of range for a cycle of order 2\n" % base_index
    )
    assert not (out / "chart.json").exists()


@pytest.mark.parametrize("orders", [[], [0], [1, "2"], [1, 1]])
@pytest.mark.parametrize(
    "command, cfg",
    [
        ("cycles", {"germ": QUAD}),
        ("motion", {"germ": QUAD_TIGHT, "t_values": [[0.4, 0]], "points": [[0.1, 0]]}),
    ],
)
def test_bad_orders_exit_2_with_one_message(tmp_path, capsys, command, cfg, orders):
    rc, _ = run(tmp_path, command, "o.json", dict(cfg, orders=orders))
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: orders must be a nonempty list of distinct positive integers\n"
    )


STRAIGHTEN_64 = {
    "germ": QUAD_TIGHT,
    "deformations": [{"order": 1, "target": [3.0, 0.0]}],
    "grid": 64,
}


@pytest.mark.parametrize(
    "cfg",
    [
        dict(STRAIGHTEN_64, solver_tol=0),
        dict(STRAIGHTEN_64, solver_tol=-1),
        dict(STRAIGHTEN_64, solver_tol=float("nan")),
    ],
    ids=["zero", "negative", "nan"],
)
def test_unreachable_solver_tol_exits_2_before_the_census(tmp_path, capsys, monkeypatch, cfg):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the tolerance was checked")

    monkeypatch.setattr("germdeform.straighten.repelling_cycle", no_census)
    rc, out = run(tmp_path, "straighten", "tol.json", cfg)
    assert rc == 2
    assert "solver_tol" in capsys.readouterr().err
    assert not out.exists()


MOTION_64 = {"germ": QUAD_TIGHT, "t_values": [[0.4, 0]], "points": [[0.1, 0]], "grid": 64}


@pytest.mark.parametrize(
    "command, cfg",
    [("straighten", STRAIGHTEN_64), ("motion", MOTION_64), ("render", STRAIGHTEN_64)],
)
@pytest.mark.parametrize(
    "settings, key",
    [({"grid": 17}, "grid"), ({"grid": 10}, "grid"), ({"pad": 0}, "pad")],
    ids=["odd", "small", "pad-zero"],
)
def test_unsolvable_grid_or_pad_exits_2_before_the_census(
    tmp_path, capsys, monkeypatch, command, cfg, settings, key
):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the grid and pad were checked")

    monkeypatch.setattr("germdeform.straighten.repelling_cycle", no_census)
    monkeypatch.setattr("germdeform.straighten.repelling_cycles", no_census)
    rc, out = run(tmp_path, command, "gp.json", dict(cfg, **settings))
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: %s must be" % key)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg",
    [("straighten", STRAIGHTEN_64), ("motion", MOTION_64), ("render", STRAIGHTEN_64)],
)
@pytest.mark.parametrize(
    "settings",
    [{"grid": 1048576}, {"grid": 4096, "pad": 2}, {"pad": 1000}],
    ids=["huge-grid", "default-pad", "huge-pad"],
)
def test_unallocatable_grid_exits_2_before_the_census(
    tmp_path, capsys, monkeypatch, command, cfg, settings
):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before the grid size was checked")

    monkeypatch.setattr("germdeform.straighten.repelling_cycle", no_census)
    monkeypatch.setattr("germdeform.straighten.repelling_cycles", no_census)
    rc, out = run(tmp_path, command, "big.json", dict(cfg, **settings))
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: grid * pad must be at most 4096")
    assert not out.exists()


@pytest.mark.parametrize("lines", [65, 10**12])
def test_render_lines_above_grid_exits_2_before_the_census(tmp_path, capsys, monkeypatch, lines):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran before lines was checked")

    monkeypatch.setattr("germdeform.straighten.repelling_cycle", no_census)
    rc, out = run(tmp_path, "render", "rl.json", dict(STRAIGHTEN_64, lines=lines))
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: lines must be at most grid (got lines %d, grid 64)\n" % lines
    )
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    code = "import sys, germdeform.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert done.stdout == "[]\n"


def test_box_is_not_a_config_key(tmp_path, capsys):
    # every solve runs on the germ's own box, which holds z = 1
    rc, out = run(tmp_path, "straighten", "box.json", dict(STRAIGHTEN_64, box={"half_width": 0.5}))
    assert rc == 2
    assert capsys.readouterr().err == "config error: unknown config keys: ['box']\n"
    assert not out.exists()


@pytest.mark.parametrize("lines", [-1, 0])
def test_render_lines_below_one_exits_2(tmp_path, capsys, lines):
    rc, out = run(tmp_path, "render", "rl.json", dict(STRAIGHTEN_64, lines=lines))
    assert rc == 2
    assert capsys.readouterr().err == "config error: lines must be >= 1 (got %d)\n" % lines
    assert not out.exists()


SOLVER_FLAG_RUNS = [
    ("cycles", {"germ": QUAD, "orders": [1]}, ("--grid", "64")),
    ("cremer", {"preset": "golden", "degree": 2}, ("--tol", "1e-3")),
    ("cycles", {"germ": QUAD, "orders": [1]}, ("--tol", "1e-3")),
    ("cremer", {"preset": "golden", "degree": 2}, ("--grid", "64")),
    ("koenigs", {"germ": QUAD_TIGHT, "order": 1}, ("--grid", "64")),
    ("koenigs", {"germ": QUAD_TIGHT, "order": 1}, ("--tol", "1e-3")),
    ("deform-local", {"germ": QUAD_TIGHT, "order": 1, "target": [3.0, 0.0]}, ("--grid", "64")),
    ("deform-local", {"germ": QUAD_TIGHT, "order": 1, "target": [3.0, 0.0]}, ("--tol", "1e-3")),
] + [
    (command, cfg, extra)
    for command, cfg in (("straighten", STRAIGHTEN_64), ("motion", MOTION_64), ("render", STRAIGHTEN_64))
    for extra in (("--grid", "64"), ("--tol", "1e-3"))
]


# grid and solver_tol are config keys only: no subcommand takes --grid or --tol
@pytest.mark.parametrize("command, cfg, extra", SOLVER_FLAG_RUNS)
def test_solver_flags_only_on_solver_commands(tmp_path, command, cfg, extra):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "f.json", cfg, extra=extra)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()

def test_determinism_byte_identical(tmp_path):
    cfg = {"germ": QUAD, "orders": [1, 2]}
    _, out1 = run(tmp_path, "cycles", "da.json", cfg, out="run1")
    _, out2 = run(tmp_path, "cycles", "db.json", cfg, out="run2")
    for name in ("cycles.csv", "cycles.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    scfg = {
        "germ": QUAD_TIGHT,
        "deformations": [{"order": 1, "target": [3.0, 0.0]}],
        "grid": 64,
    }
    _, s1 = run(tmp_path, "straighten", "sa.json", scfg, out="srun1")
    _, s2 = run(tmp_path, "straighten", "sb.json", scfg, out="srun2")
    for name in ("gridmap.bin", "gridmap.json"):
        assert (s1 / name).read_bytes() == (s2 / name).read_bytes()


def test_straighten_bytes_do_not_depend_on_blas_threads(tmp_path):
    # criterion 10 across processes: one BLAS thread against the default count
    cfg = write_cfg(tmp_path, "s.json", dict(STRAIGHTEN_64, grid=512))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", None):
        env = dict(os.environ, PYTHONPATH=src)
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        outs.append(tmp_path / ("blas-%s" % (threads or "default")))
        subprocess.run(
            [sys.executable, "-m", "germdeform.cli", "straighten", "--config", cfg, "--out", str(outs[-1])],
            capture_output=True,
            check=True,
            env=env,
            timeout=300,
        )
    for name in ("gridmap.bin", "gridmap.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# every command with a config it runs to exit 0, and the last artifact it writes
COMMAND_RUNS = [
    ("cycles", {"germ": QUAD, "orders": [1]}, "cycles.json"),
    ("koenigs", {"germ": QUAD_TIGHT, "order": 1}, "chart.json"),
    ("deform-local", {"germ": QUAD_TIGHT, "order": 1, "target": [3.0, 0.0]}, "deform_local.json"),
    ("straighten", STRAIGHTEN_64, "gridmap.json"),
    ("motion", MOTION_64, "motion.csv"),
    ("cremer", {"preset": "golden", "degree": 2}, "cremer.json"),
    ("render", dict(STRAIGHTEN_64, field_csv=True), "field.csv"),
]


@pytest.mark.parametrize("command, cfg", [r[:2] for r in COMMAND_RUNS], ids=[r[0] for r in COMMAND_RUNS])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_exits_2_before_dispatch(tmp_path, capsys, monkeypatch, command, cfg, under):
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran with an unusable --out")

    monkeypatch.setitem(cli._COMMANDS, command, no_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub" if under else blocker
    rc = main([command, "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "config error: cannot write into --out %s: %s is not a directory\n" % (out, blocker)


@pytest.mark.parametrize("command, cfg, last", COMMAND_RUNS, ids=[r[0] for r in COMMAND_RUNS])
def test_unwritable_artifact_exits_2(tmp_path, capsys, command, cfg, last):
    (tmp_path / "out" / last).mkdir(parents=True)
    rc, out = run(tmp_path, command, "c.json", cfg)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: cannot write %s: " % (out / last))
    assert "Traceback" not in err


def test_render_field_csv_matches_per_row_formatting(tmp_path):
    # the CLI's field.csv against the table formatted row by row from the
    # same solve, not against another run of the CLI
    cfg = dict(STRAIGHTEN_64, field_csv=True)
    rc, out = run(tmp_path, "render", "r.json", cfg)
    assert rc == 0
    germ = gd.Germ.from_json(QUAD_TIGHT)
    dg = gd.global_deform(germ, [gd.Deformation(order=1, target=3.0 + 0j)], n=64)
    rows = ["re,im,mu_re,mu_im"]
    for a, m in zip(dg.grid_map.box.nodes(64).ravel(), dg.mu.ravel()):
        rows.append("%.17g,%.17g,%.17g,%.17g" % (a.real, a.imag, m.real, m.imag))
    assert (out / "field.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


def readme_cli_examples():
    """(command, config, artifacts) of each example in README's jsonc block.
    An example is a run of lines up to a blank one: a `// <command>: ...`
    comment, the JSON config, and a `// -> a, b, optionally c` line; an
    optional artifact is expected when the config sets field_csv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    examples = []
    for stanza in block.strip().split("\n\n"):
        lines = stanza.splitlines()
        command = lines[0].removeprefix("// ").split(":")[0]
        cfg = json.loads("".join(line for line in lines if not line.startswith("//")))
        (arrow,) = [line.removeprefix("// -> ") for line in lines if line.startswith("// -> ")]
        artifacts = [
            name.removeprefix("optionally ")
            for name in arrow.split(", ")
            if not name.startswith("optionally ") or cfg.get("field_csv")
        ]
        examples.append((command, cfg, artifacts))
    return examples


README_EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize("command, cfg, artifacts", README_EXAMPLES, ids=[e[0] for e in README_EXAMPLES])
def test_readme_cli_examples_run(tmp_path, command, cfg, artifacts):
    rc, out = run(tmp_path, command, "readme.json", cfg)
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(artifacts)
