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
