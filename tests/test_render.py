import re

import numpy as np
import pytest

import germdeform as gd


@pytest.fixture(scope="module")
def identity_map():
    box = gd.Box(1.25)
    return gd.GridMap(box, box.nodes(16))


@pytest.mark.parametrize("lines", [2.5, True, np.float64(3.0)])
def test_mesh_raster_refuses_a_lines_that_is_not_an_integer(identity_map, lines):
    cause = r"^lines must be an integer \(got %s\)$" % re.escape(repr(lines))
    with pytest.raises(gd.DomainError, match=cause):
        gd.mesh_raster(identity_map, lines=lines)


@pytest.mark.parametrize("lines", [-3, 0, 17])
def test_mesh_raster_refuses_a_lines_outside_the_grid(identity_map, lines):
    cause = r"^lines must be from 1 to the grid size 16 \(got %d\)$" % lines
    with pytest.raises(gd.DomainError, match=cause):
        gd.mesh_raster(identity_map, lines=lines)


@pytest.mark.parametrize("lines", [1, np.int64(16)])
def test_mesh_raster_draws_from_one_line_to_the_grid_size(identity_map, lines):
    canvas = gd.mesh_raster(identity_map, lines=lines)
    assert canvas.shape == (16, 16) and canvas.max() == 1.0


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4,)])
def test_field_raster_refuses_an_empty_or_flat_grid_by_shape(shape):
    cause = r"^field raster needs a nonempty 2-d grid \(got shape %s\)$" % re.escape(str(shape))
    with pytest.raises(gd.DomainError, match=cause):
        gd.field_magnitude_raster(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 0.0)])
def test_field_raster_refuses_a_non_finite_field(bad):
    mu = np.full((4, 4), 0.25 + 0j)
    mu[1, 2] = bad
    with pytest.raises(gd.DomainError, match=r"^field raster needs a finite field$"):
        gd.field_magnitude_raster(mu)


def test_field_raster_scales_by_the_sup_and_flips_the_rows():
    mu = np.zeros((3, 3), dtype=complex)
    mu[0, 1] = 0.5j
    mu[2, 0] = -0.25
    assert np.array_equal(gd.field_magnitude_raster(mu), [[0.5, 0, 0], [0, 0, 0], [0, 1.0, 0]])
    assert not gd.field_magnitude_raster(np.zeros((2, 2))).any()


def test_mesh_raster_reads_every_line_in_one_call(monkeypatch):
    # against the lines read one call each; the samples bend the mesh and
    # push part of it off the canvas
    box = gd.Box(1.25)
    z = box.nodes(32)
    gm = gd.GridMap(box, z + 0.4 * np.sin(3 * z) + 0.3j * z.real ** 2)
    n, lines = gm.n, 7
    x0, x1, y0, y1 = box.extents()
    span = np.linspace(0.0, 1.0, gd.render.MESH_SAMPLES)
    expected = np.zeros((n, n))
    dropped = 0
    for lv in np.linspace(0.05, 0.95, lines):
        for seg in (
            x0 + (x1 - x0) * lv + 1j * (y0 + (y1 - y0) * span),
            (x0 + (x1 - x0) * span) + 1j * (y0 + (y1 - y0) * lv),
        ):
            w = gm(seg)
            cols = np.rint((w.real - x0) / (x1 - x0) * (n - 1)).astype(int)
            rows = np.rint((w.imag - y0) / (y1 - y0) * (n - 1)).astype(int)
            keep = (cols >= 0) & (cols < n) & (rows >= 0) & (rows < n)
            dropped += np.count_nonzero(~keep)
            expected[rows[keep], cols[keep]] = 1.0
    assert dropped
    calls = []
    evaluate = gd.GridMap.__call__

    def counted(self, z):
        calls.append(np.shape(z))
        return evaluate(self, z)

    monkeypatch.setattr(gd.GridMap, "__call__", counted)
    canvas = gd.mesh_raster(gm, lines=lines)
    assert calls == [(2 * lines * gd.render.MESH_SAMPLES,)]
    assert np.array_equal(canvas, expected[::-1, :])
