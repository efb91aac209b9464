"""Self-test of the benchmark harness at tiny sizes (grid 64, a handful of
jobs per workload). Run from the checkout root, either way:

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

For every workload, untraced and traced, it checks that every metric
BENCHMARK.json names is emitted once with its unit and a finite value, and
that a deliberately invalid job (a target inside the unit circle) is
counted as failed instead of crashing the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
INVALID = workloads.Job(
    "invalid-target",
    "deform-local",
    {"germ": {"coeffs": workloads.GERM_COEFFS}, "order": 1, "target": [0.5, 0.0]},
    {"target": 0.5 + 0j},
)


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def _run(name: str, trace: int) -> dict:
    args = run.parse_args(
        ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    )
    return run.run(args, ROOT, grid=64, extra_jobs=[INVALID])


def _check(name: str, trace: int):
    out = _run(name, trace)
    result = out["result"]
    want = _declared("per_layer" if trace else "end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(want), set(result["metrics"]) ^ set(want)
    for metric, unit in want.items():
        got = result["metrics"][metric]
        assert got["unit"] == unit, (metric, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (metric, got)
    assert "invalid-target" in out["report"]["failures"], out["report"]["failures"]
    assert result["failed"] >= 1 and result["attempted"] >= 2
    assert out["report"]["fail_frac"] == result["failed"] / result["attempted"]
    if not trace:
        pass_frac = result["metrics"]["pass_frac"]["value"]
        assert math.isclose(pass_frac, 1 - out["report"]["fail_frac"])
    json.dumps(result)
    return out


def test_every_workload_emits_every_metric():
    for name in workloads.NAMES:
        for trace in (0, 1):
            _check(name, trace)


def test_layer_counts_follow_the_workload():
    straighten = _check("straighten-default", 1)["result"]["metrics"]
    census = _check("local-census", 1)["result"]["metrics"]
    assert straighten["straighten.fft.calls"]["value"] > 0
    assert straighten["straighten.GridMap.inverse.calls"]["value"] > 0
    assert census["straighten.fft.calls"]["value"] == 0
    assert census["census_found_frac"]["value"] > 0


if __name__ == "__main__":
    test_every_workload_emits_every_metric()
    test_layer_counts_follow_the_workload()
    print("selftest: ok")
