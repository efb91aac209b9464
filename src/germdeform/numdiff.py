"""Finite-difference Wirtinger derivatives of black-box complex maps."""

from __future__ import annotations

from typing import Callable


def wirtinger_pair(
    fn: Callable[[complex], complex], at: complex, step: float
) -> tuple[complex, complex]:
    """(d/dz, d/dzbar) of fn at a point, by 4-point central differences.

    at and step may be arrays of one shape, for an fn that maps arrays
    elementwise: one stencil per element, four calls of fn in all."""
    fe = fn(at + step)
    fw = fn(at - step)
    fn_ = fn(at + 1j * step)
    fs = fn(at - 1j * step)
    fx = (fe - fw) / (2.0 * step)
    fy = (fn_ - fs) / (2.0 * step)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def wirtinger_dbar(fn: Callable[[complex], complex], at: complex, step: float) -> complex:
    return wirtinger_pair(fn, at, step)[1]
