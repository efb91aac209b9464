"""Raster output: binary PPM images of fields and deformed meshes."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .germ import check_integer
from .straighten import GridMap

MESH_LINES = 17
MESH_SAMPLES = 2048


def to_ppm(gray: np.ndarray) -> bytes:
    """P6 image from a [0, 1] grayscale array (row 0 at the top)."""
    gray = np.asarray(gray, dtype=float)
    if gray.ndim != 2:
        raise DomainError("raster must be 2-d")
    if not np.isfinite(gray).all():
        raise DomainError("raster must be finite")
    h, w = gray.shape
    u8 = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    rgb = np.repeat(u8[:, :, None], 3, axis=2)
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes(order="C")


def field_magnitude_raster(mu_grid: np.ndarray) -> np.ndarray:
    """|mu| with the grid's own sup as white; flat zero field stays black.
    Row order flipped so increasing imaginary part points up. mu must be
    a nonempty finite 2-d grid."""
    mu = np.asarray(mu_grid, dtype=complex)
    if mu.ndim != 2 or not mu.size:
        raise DomainError("field raster needs a nonempty 2-d grid (got shape %s)" % (mu.shape,))
    if not np.isfinite(mu).all():
        raise DomainError("field raster needs a finite field")
    mag = np.abs(mu)
    top = float(mag.max())
    if top > 0:
        mag = mag / top
    return mag[::-1, :]


def mesh_raster(gm: GridMap, lines: int = MESH_LINES) -> np.ndarray:
    """Image of a Cartesian mesh under the grid map, all read in one call,
    white on black; lines is an integer from 1 to the map's grid size."""
    n = gm.n
    check_integer("lines", lines)
    if not 1 <= lines <= n:
        raise DomainError("lines must be from 1 to the grid size %d (got %d)" % (n, lines))
    canvas = np.zeros((n, n), dtype=float)
    x0, x1, y0, y1 = gm.box.extents()
    span = np.linspace(0.0, 1.0, MESH_SAMPLES)
    levels = np.linspace(0.05, 0.95, lines)[:, None]
    vertical = (x0 + (x1 - x0) * levels) + 1j * (y0 + (y1 - y0) * span)
    horizontal = (x0 + (x1 - x0) * span) + 1j * (y0 + (y1 - y0) * levels)
    w = gm(np.concatenate((vertical, horizontal)).ravel())
    cols = np.rint((w.real - x0) / (x1 - x0) * (n - 1)).astype(int)
    rows = np.rint((w.imag - y0) / (y1 - y0) * (n - 1)).astype(int)
    keep = (cols >= 0) & (cols < n) & (rows >= 0) & (rows < n)
    canvas[rows[keep], cols[keep]] = 1.0
    return canvas[::-1, :]
