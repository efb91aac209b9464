"""Linearizing charts at repelling periodic points.

Around a repelling point of order q the q-fold composition is conjugate to
w -> lambda*w; the chart phi doing that (Koenigs coordinate, normalized to
phi' = 1 at the point) is computed as a truncated power series from the
functional equation, inverted by series reversion, and trusted only on a
disk whose radius is the first of the ladder r0, r0/2, r0/4, ... at which
the functional residual on a validation ring passes, and then the round
trip psi(phi(z)) = z. Each chart is built alone, and its ladder is walked
a block of rungs at a time, the block's rings through f^q in one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
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
# Rungs of the radius ladder whose rings go through f^q in one stack. The
# charts of 2z + z^2 on the radius-3 disk pass at rungs 2-5 for orders 1-4
# and 3-8 for orders 5-8; at q = 61 (alpha = [0; 3, 20, 50, 1]) at 1-2.
# Building the base chart of each cycle of orders 1-4, of orders 5-8 and of
# the q = 61 one took, in process, median of 21 on 2 CPUs (range of 3
# rounds), with blocks of
#   4: 5.7-11.5, 18.0-25.1, 3.0-6.1 ms    8: 5.5-6.1, 15.3-17.5, 3.1-3.4 ms
#   21 (the whole ladder in one pass): 6.2-6.8, 16.2-19.2, 3.5-3.7 ms
LADDER_BLOCK = 8
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
    """outer(inner(u)) by Horner's rule, truncated to the length of inner.

    Horner starts at the last nonzero coefficient of outer, so a shifted
    series of degree d costs d + 1 products, not len(outer). Same bits as
    the steps over the zero tail: for a finite inner those only multiply
    zeros, which np.convolve sums to +0.0 whatever their signs."""
    nonzero = np.flatnonzero(outer)
    acc = np.zeros(len(inner), dtype=complex)
    for c in outer[: nonzero[-1] + 1 if nonzero.size else 0][::-1]:
        acc = _mul(acc, inner)
        acc[0] += c
    return acc


def _return_map_series(germ: Germ, cycle: Cycle, base_index: int) -> np.ndarray:
    """Series of f^q(center + u) - center in u, degrees 0..SERIES_ORDER: the
    series f(p + u) - f(p) of each cycle point p, from the center on, each
    made as it is composed, since the chart reads it once."""
    q = cycle.order
    f = np.array((0j,) + germ.coeffs)
    cur = np.zeros(SERIES_ORDER + 1, dtype=complex)
    cur[1] = 1.0
    for step in range(q):
        shift = np.zeros(SERIES_ORDER + 1, dtype=complex)
        shift[:2] = cycle.points[(base_index + step) % q], 1.0
        shifted = _compose(f, shift)
        # the constant term cancelled exactly
        shifted[0] = 0
        cur = _compose(shifted, cur)
    return cur


def _reversion(a: np.ndarray) -> np.ndarray:
    """Series B with A(B(w)) = w for A(u) = u + a2 u^2 + ...; a[1] must be 1.

    Lagrange inversion: b_k = [u^(k-1)] P^k / k with P = u / A(u), so one
    series reciprocal and one product per degree (Brent & Kung, J. ACM 25,
    1978)."""
    c = a[1:]  # A(u) / u
    p = np.zeros_like(c)
    p[0] = 1.0
    for n in range(1, len(c)):
        p[n] = -np.sum(c[1 : n + 1] * p[n - 1 :: -1])
    b = np.zeros_like(a)
    b[1] = 1.0
    pk = p
    for k in range(2, len(a)):
        pk = _mul(pk, p)
        b[k] = pk[k - 1] / k
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


def _roundtrip_residual(chart: KoenigsChart) -> float:
    z = circle(chart.center, 0.5 * chart.radius, RING_SAMPLES)
    back = chart.psi(chart.phi(z))
    return float(np.max(np.abs(back - z) / np.maximum(np.abs(z - chart.center), 1e-300)))


def build_chart(germ: Germ, cycle: Cycle, base_index: int = 0) -> KoenigsChart:
    """Koenigs chart at one point of a repelling cycle, at the first radius
    of its ladder that passes validation (_validate).

    Raises DomainError when base_index is not an integer in [0, order), and
    ChartError when the cycle is not repelling, when the series' linear term
    disagrees with the cycle multiplier, on resonance (|lambda^k - lambda|
    below the guard for some series degree), when the cycle point leaves no
    room for a chart disk, or when no radius passes validation.
    """
    check_integer("base_index", base_index)
    if cycle.kind != "repelling":
        raise ChartError("chart requires a repelling cycle (got %s)" % cycle.kind)
    if not 0 <= base_index < cycle.order:
        raise DomainError(
            "base_index %d out of range for a cycle of order %d" % (base_index, cycle.order)
        )
    return _validate(germ, _series_chart(germ, cycle, base_index))


def _series_chart(germ: Germ, cycle: Cycle, base_index: int) -> KoenigsChart:
    """The chart's series, at the top radius of its ladder, not validated."""
    q = cycle.order
    center = cycle.points[base_index]

    fser = _return_map_series(germ, cycle, base_index)
    lam = complex(fser[1])
    if abs(lam - cycle.multiplier) > 1e-6 * max(1.0, abs(lam)):
        raise ChartError("series linear term disagrees with cycle multiplier")

    # phi coefficients from phi(F(u)) = lambda * phi(u), a1 = 1
    a = np.zeros(SERIES_ORDER + 1, dtype=complex)
    a[1] = 1.0
    powers = [None, fser]  # powers[j] = series of F^j, truncated, j < SERIES_ORDER
    for j in range(2, SERIES_ORDER):
        powers.append(_mul(powers[j - 1], fser))
    for k in range(2, SERIES_ORDER + 1):
        denom = lam ** k - lam
        if abs(denom) < RESONANCE_TOL:
            raise ChartError("resonance at series degree %d" % k)
        a[k] = -sum(a[j] * powers[j][k] for j in range(1, k)) / denom

    other = [cycle.points[i] for i in range(q) if i != base_index]
    dists = [abs(center - p) for p in other + list(critical_points(germ)) if abs(center - p) > 0]
    r0 = 0.9 * (germ.radius_U - abs(center))
    if dists:
        r0 = min(r0, 0.5 * min(dists))
    if r0 <= 0:
        raise ChartError("cycle point leaves no room for a chart disk")
    return KoenigsChart(
        germ=germ,
        cycle=cycle,
        base_index=base_index,
        center=center,
        multiplier=lam,
        radius=r0,
        coeffs=tuple(a[1:].tolist()),
        inverse_coeffs=tuple(_reversion(a)[1:].tolist()),
    )


def _validate(germ: Germ, top: KoenigsChart) -> KoenigsChart:
    """The chart at the first radius of its ladder r0, r0/2, ... (r0 its top
    radius, MAX_HALVINGS halvings) that passes the functional check and then
    the round-trip check; ChartError when none does. The ladder is walked
    LADDER_BLOCK rungs at a time, each block's rings through f^q in one
    _functional_checks call."""
    ladder = range(MAX_HALVINGS + 1)
    for start in ladder[::LADDER_BLOCK]:
        radii = [top.radius * 0.5 ** k for k in ladder[start : start + LADDER_BLOCK]]
        for radius in compress(radii, _functional_checks(germ, top, radii)):
            chart = replace(top, radius=radius)
            if _roundtrip_residual(chart) < CHART_RESIDUAL_TOL:
                return chart
    raise ChartError("no chart radius passed validation after %d halvings" % MAX_HALVINGS)


def _functional_checks(germ: Germ, chart: KoenigsChart, radii) -> np.ndarray:
    """Whether phi(f^q(z)) = lambda * phi(z) holds to CHART_RESIDUAL_TOL on
    the ring circle(center, r, RING_SAMPLES) of each radius r: one bool per
    ring, all rings stacked through f^q at once. A ring fails when an image
    leaves U (a point that is not finite fails that test too) or strays past
    4 r max(1, |lambda|) from the center. The rings lie in U
    (r <= 0.9 * (radius_U - |center|))."""
    r = np.array(radii)
    center, lam = chart.center, chart.multiplier
    bound = 4.0 * r * max(1.0, abs(lam))
    z = circle(center, r[:, None], RING_SAMPLES)
    ok = np.ones(r.shape, dtype=bool)
    # a failed ring runs on to the end with the rest, overflow and all
    with np.errstate(all="ignore"):
        fz = z
        for _ in range(chart.cycle.order):
            fz = germ.eval_raw(fz)
            ok &= np.all(np.abs(fz) <= germ.radius_U, axis=-1)
        ok &= ~np.any(np.abs(fz - center) > bound[:, None], axis=-1)
        lhs = horner(chart.coeffs, fz - center)
        rhs = lam * horner(chart.coeffs, z - center)
        residual = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), axis=-1)
        return ok & (residual < CHART_RESIDUAL_TOL)


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
