"""The program names and records that the benchmark's tracer
(perfbench/spans.py) wraps and reads: a rename or a dropped record shows
here, in the tier-1 suite, instead of as a zero in a benchmark report."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import germdeform as gd

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DEAD_SPANS = {
    "straighten.GridMap.inverse": "ROADMAP item 6: GridMap.inverse is gone, the tracer still wraps it",
}
LAYERS = [
    pytest.param(*layer, id=layer[0], marks=pytest.mark.xfail(strict=True, reason=DEAD_SPANS[layer[0]]))
    if layer[0] in DEAD_SPANS
    else pytest.param(*layer, id=layer[0])
    for layer in load_spans().LAYER_FUNCTIONS
]


@pytest.mark.parametrize("span, module, path", LAYERS)
def test_every_wrapped_layer_exists(span, module, path):
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert attr in vars(owner), "%s: %s.%s is gone" % (span, module, path)


def test_find_cycles_fills_the_seed_counts(quad_germ):
    diag = {}
    gd.find_cycles(quad_germ, 1, diagnostics=diag)
    assert diag["seeds_attempted"] >= diag["seeds_converged"] > 0


def test_solve_reports_its_sweeps():
    box = gd.Box(3.0)
    z = box.nodes(32)
    mu = np.where(np.abs(z) <= 1.5, -1.0 / 3.0 + 0j, 0j)
    assert gd.solve_beltrami(mu, box).diagnostics["sweeps"] > 0


def test_sample_grid_keeps_the_size(quad_germ):
    field = gd.build_field(quad_germ, [gd.Deformation(order=1, target=3.0 + 0j)])
    z = gd.Box(1.25).nodes(16)[:5, :7]
    assert np.size(field.sample_grid(z)) == z.size


def test_global_deform_samples_its_field_by_one_sample_grid_call(monkeypatch, quad_germ):
    # the span beltrami.sample_grid and its hook read the points, the
    # positional argument after the field, and the returned field
    calls = []
    sample_grid = gd.BeltramiField.sample_grid

    def recorded(*args, **kwargs):
        out = sample_grid(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(gd.BeltramiField, "sample_grid", recorded)
    deformed = gd.global_deform(quad_germ, [gd.Deformation(order=1, target=3.0 + 0j)], n=64)
    assert len(calls) == 1
    (args, out), = calls
    assert np.size(args[1]) == 64 * 64
    assert out is deformed.mu
