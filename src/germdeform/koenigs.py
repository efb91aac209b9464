"""Linearizing charts at repelling periodic points.

Around a repelling point of order q the q-fold composition is conjugate to
w -> lambda*w; the chart phi doing that (Koenigs coordinate, normalized to
phi' = 1 at the point) is computed as a truncated power series from the
functional equation, inverted by series reversion, and trusted only on a
disk whose radius is found by shrinking until the functional residual on a
validation ring passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ChartError, ConvergenceError, DomainError
from .germ import Germ, check_integer, circle, horner, horner_derivative, pointwise
from .cycles import Cycle

SERIES_ORDER = 24
RESONANCE_TOL = 1e-10
CHART_RESIDUAL_TOL = 1e-9
RING_SAMPLES = 64
MAX_HALVINGS = 20
PSI_DOMAIN_FACTOR = 0.9
ITERATIVE_DEPTH = 40
ITERATIVE_STOP = 1e-12


def critical_points(germ: Germ) -> tuple[complex, ...]:
    """Roots of f' (all of them, inside U or not)."""
    d = germ.degree
    # highest power first for the companion-matrix root finder
    dcoeffs = [k * germ.coeffs[k - 1] for k in range(d, 0, -1)]
    roots = np.roots(np.array(dcoeffs, dtype=complex))
    return tuple(complex(r) for r in roots)


# Series are complex arrays indexed by degree, constant term at index 0.


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series, truncated to the length of a."""
    return np.convolve(a, b)[: len(a)]


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer(inner(u)) by Horner's rule, truncated to the length of inner."""
    acc = np.zeros(len(inner), dtype=complex)
    for c in outer[::-1]:
        acc = _mul(acc, inner)
        acc[0] += c
    return acc


def _return_map_series(germ: Germ, points: tuple[complex, ...], base_index: int, order: int) -> np.ndarray:
    """Series of f^q(center + u) - center in u, degrees 0..order."""
    q = len(points)
    f = np.array((0j,) + germ.coeffs)
    cur = np.zeros(order + 1, dtype=complex)
    cur[1] = 1.0
    for step in range(q):
        shift = np.zeros(order + 1, dtype=complex)
        shift[:2] = points[(base_index + step) % q], 1.0
        # f(p + u) - f(p), with the constant term cancelled exactly
        shifted = _compose(f, shift)
        shifted[0] = 0
        cur = _compose(shifted, cur)
    return cur


def _reversion(a: np.ndarray) -> np.ndarray:
    """Series B with A(B(w)) = w for A(u) = u + a2 u^2 + ...; a[1] must be 1."""
    b = np.zeros_like(a)
    b[1] = 1.0
    for k in range(2, len(a)):
        b[k] = -_compose(a[: k + 1], b[: k + 1])[k]
    return b


@dataclass(frozen=True)
class KoenigsChart:
    germ: Germ
    cycle: Cycle
    base_index: int
    center: complex
    multiplier: complex
    radius: float
    coeffs: tuple[complex, ...]      # phi(center + u) = u + coeffs[1]*u^2 + ...
    inverse_coeffs: tuple[complex, ...]

    def _disk_offsets(self, z: np.ndarray) -> np.ndarray:
        u = z - self.center
        # a NaN point fails the comparison and is refused with the rest
        if not np.all(np.abs(u) <= self.radius):
            raise DomainError("point outside chart disk")
        return u

    @pointwise
    def phi(self, z: np.ndarray) -> np.ndarray:
        return horner(self.coeffs, self._disk_offsets(z))

    @pointwise
    def dphi(self, z: np.ndarray) -> np.ndarray:
        return horner_derivative(self.coeffs, self._disk_offsets(z))

    # vectorized, unchecked; grid samplers mask their own domains
    def phi_raw(self, z):
        return horner(self.coeffs, z - self.center)

    def dphi_raw(self, z):
        return horner_derivative(self.coeffs, z - self.center)

    @pointwise
    def psi(self, w: np.ndarray) -> np.ndarray:
        """Inverse chart: series reversion estimate plus one Newton polish."""
        if not np.all(np.abs(w) <= PSI_DOMAIN_FACTOR * self.radius):
            raise DomainError("coordinate outside inverse chart domain")
        u = horner(self.inverse_coeffs, w)
        # one Newton step on phi(center+u) = w sharpens the truncation error
        d = horner_derivative(self.coeffs, u)
        ok = d != 0
        u[ok] -= (horner(self.coeffs, u[ok]) - w[ok]) / d[ok]
        return self.center + u

    def to_json(self) -> dict[str, Any]:
        return {
            "center": [self.center.real, self.center.imag],
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "order": self.cycle.order,
            "base_index": self.base_index,
            "radius": self.radius,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "inverse_coeffs": [[c.real, c.imag] for c in self.inverse_coeffs],
        }


def _functional_residual(germ: Germ, chart_coeffs, center, lam, radius, q) -> float:
    # the ring lies in U (radius <= 0.9 * (radius_U - |center|)); its images
    # must stay there too, and a point that is not finite fails that test
    z = circle(center, radius, RING_SAMPLES)
    fz = z
    for _ in range(q):
        fz = germ.eval_raw(fz)
        if not np.all(np.abs(fz) <= germ.radius_U):
            return math.inf
    if np.any(np.abs(fz - center) > 4.0 * radius * max(1.0, abs(lam))):
        return math.inf
    lhs = horner(chart_coeffs, fz - center)
    rhs = lam * horner(chart_coeffs, z - center)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))


def _roundtrip_residual(chart: KoenigsChart) -> float:
    z = circle(chart.center, 0.5 * chart.radius, RING_SAMPLES)
    back = chart.psi(chart.phi(z))
    return float(np.max(np.abs(back - z) / np.maximum(np.abs(z - chart.center), 1e-300)))


def build_chart(germ: Germ, cycle: Cycle, base_index: int = 0) -> KoenigsChart:
    """Koenigs chart at one point of a repelling cycle.

    Raises DomainError when base_index is not in [0, order), and ChartError
    on resonance (|lambda^k - lambda| below the guard for some series
    degree) or when no radius passes validation.
    """
    check_integer("base_index", base_index)
    if cycle.kind != "repelling":
        raise ChartError("chart requires a repelling cycle (got %s)" % cycle.kind)
    q = cycle.order
    if not 0 <= base_index < q:
        raise DomainError(
            "base_index %d out of range for a cycle of order %d" % (base_index, q)
        )
    center = cycle.points[base_index]

    fser = _return_map_series(germ, cycle.points, base_index, SERIES_ORDER)
    lam = complex(fser[1])
    if abs(lam - cycle.multiplier) > 1e-6 * max(1.0, abs(lam)):
        raise ChartError("series linear term disagrees with cycle multiplier")

    # phi coefficients from phi(F(u)) = lambda * phi(u), a1 = 1
    a = np.zeros(SERIES_ORDER + 1, dtype=complex)
    a[1] = 1.0
    powers = [None, fser]  # powers[j] = series of F^j, truncated
    for j in range(2, SERIES_ORDER + 1):
        powers.append(_mul(powers[j - 1], fser))
    for k in range(2, SERIES_ORDER + 1):
        denom = lam ** k - lam
        if abs(denom) < RESONANCE_TOL:
            raise ChartError("resonance at series degree %d" % k)
        s = 0j
        for j in range(1, k):
            s += a[j] * powers[j][k]
        a[k] = -s / denom
    coeffs = tuple(a[1:].tolist())
    inverse_coeffs = tuple(_reversion(a)[1:].tolist())

    other = [cycle.points[i] for i in range(q) if i != base_index]
    crit = [c for c in critical_points(germ)]
    dists = [abs(center - p) for p in other + crit if abs(center - p) > 0]
    r0 = 0.9 * (germ.radius_U - abs(center))
    if dists:
        r0 = min(r0, 0.5 * min(dists))
    if r0 <= 0:
        raise ChartError("cycle point leaves no room for a chart disk")

    radius = r0
    for _ in range(MAX_HALVINGS + 1):
        if _functional_residual(germ, coeffs, center, lam, radius, q) < CHART_RESIDUAL_TOL:
            chart = KoenigsChart(
                germ=germ,
                cycle=cycle,
                base_index=base_index,
                center=center,
                multiplier=lam,
                radius=radius,
                coeffs=coeffs,
                inverse_coeffs=inverse_coeffs,
            )
            if _roundtrip_residual(chart) < CHART_RESIDUAL_TOL:
                return chart
        radius *= 0.5
    raise ChartError("no chart radius passed validation after %d halvings" % MAX_HALVINGS)


def phi_iterative(chart: KoenigsChart, z: complex) -> complex:
    """Koenigs coordinate by its defining limit, independent of the series.

    Walks the inverse branch of the return map toward the cycle point and
    rescales: phi(z) = lim lambda^n * (F^{-n}(z) - center). Used to
    cross-check the series route; raises ConvergenceError when an inverse
    step does not converge.
    """
    germ = chart.germ
    pts = np.asarray(chart.cycle.points)
    q = chart.cycle.order
    cur_idx = chart.base_index
    w = np.array([complex(z)])
    est_prev = complex(z) - chart.center
    change_prev = math.inf
    for n in range(1, ITERATIVE_DEPTH + 1):
        # one inverse step of f^q along the cycle, linearized guesses
        for s in range(q):
            src_idx = (cur_idx - 1) % q
            target = pts[src_idx : src_idx + 1]
            guess = target + (w - pts[cur_idx]) / germ.derivative_raw(target)
            # tight tolerance: the rescaling amplifies step errors by lambda^n
            w, ok = germ.preimages(w, guess, tol=1e-15)
            if not ok[0]:
                raise ConvergenceError("inverse step %d did not converge" % n)
            cur_idx = src_idx
        est = (chart.multiplier ** n) * (complex(w[0]) - chart.center)
        change = abs(est - est_prev)
        if change < ITERATIVE_STOP * max(1.0, abs(est)):
            return complex(est)
        if n > 4 and change > change_prev:
            # amplified rounding noise has taken over; the previous
            # estimate sits at the accuracy floor
            return complex(est_prev)
        est_prev = est
        change_prev = change
    return complex(est_prev)
