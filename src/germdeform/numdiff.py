"""Finite-difference Wirtinger derivatives of black-box complex maps."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .germ import check_positive


def wirtinger_pair(
    fn: Callable[[complex], complex], at: complex, step: float
) -> tuple[complex, complex]:
    """(d/dz, d/dzbar) of fn at a point, by 4-point central differences.

    With a scalar at and step, fn is called on the four offsets one at a
    time, so it may be a scalar-only function. at and step may also be
    arrays of one shape, for an fn that maps 1-d arrays elementwise: one
    stencil per element, and one call of fn on all four offsets stacked.
    A step not positive and finite throughout is refused before fn runs."""
    check_positive("step", step)
    offsets = (at + step, at - step, at + 1j * step, at - 1j * step)
    if np.ndim(offsets[0]) == 0:
        fe, fw, fn_, fs = map(fn, offsets)
    else:
        stacked = np.stack(offsets)
        fe, fw, fn_, fs = np.asarray(fn(stacked.ravel())).reshape(stacked.shape)
    fx = (fe - fw) / (2.0 * step)
    fy = (fn_ - fs) / (2.0 * step)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def wirtinger_dbar(fn: Callable[[complex], complex], at: complex, step: float) -> complex:
    return wirtinger_pair(fn, at, step)[1]
