"""Local model of the deformed germ near one repelling cycle.

Conjugating the torus shear back through the linearizing chart gives an
explicit (non-holomorphic) local conjugacy k with k(f(z)) = f1(k(z)) near
the cycle, where f1 has the target multiplier. The deformed return map is
evaluated piecewise, one chart per cycle point, and its multiplier is
measured by a Cauchy derivative on a small circle, with a two-radius
agreement gate before the number is trusted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .beltrami import TorusShear, shear_coefficient
from .cycles import Cycle
from .errors import DomainError, UnreliableEstimateError
from .germ import Germ
from .koenigs import KoenigsChart, build_chart
from .numdiff import wirtinger_pair

TWO_PI_I = 2j * math.pi
WORKING_FACTOR = 0.25
MEASURE_POINTS = 256
MEASURE_AGREEMENT = 1e-5
RESIDUAL_RADII = 8
RESIDUAL_ANGLES = 8
RESIDUAL_STEP_REL = 1e-5
COLLAPSE_ULPS = 4


@dataclass(frozen=True)
class LocalConjugacy:
    """Charts at every point of one repelling cycle plus the shear that
    retargets its multiplier."""

    germ: Germ
    cycle: Cycle
    shear: TorusShear
    charts: tuple[KoenigsChart, ...]

    @classmethod
    def build(cls, germ: Germ, cycle: Cycle, target: complex) -> "LocalConjugacy":
        shear = shear_coefficient(cycle.multiplier, target)
        charts = tuple(build_chart(germ, cycle, i) for i in range(cycle.order))
        return cls(germ=germ, cycle=cycle, shear=shear, charts=charts)

    @property
    def target(self) -> complex:
        return self.shear.lam_prime

    def working_radius(self) -> float:
        return WORKING_FACTOR * self.charts[0].radius

    def _nearest_index(self, z: complex) -> int:
        pts = self.cycle.points
        return min(range(len(pts)), key=lambda i: abs(z - pts[i]))

    def _shear_in_chart(self, z: complex, index: int, inverse: bool) -> complex:
        chart = self.charts[index]
        z = complex(z)
        if z == chart.center:
            return chart.center
        ph = chart.phi(z)
        if ph == 0:
            return chart.center
        xi = cmath.log(ph) / TWO_PI_I
        eta = self.shear.apply_inverse(xi) if inverse else self.shear.apply(xi)
        w = cmath.exp(TWO_PI_I * eta)
        return chart.psi(w)

    def k_eval(self, z: complex) -> complex:
        """The straightening near its cycle point: maps the germ's local
        dynamics to the deformed model's."""
        i = self._nearest_index(z)
        return self._shear_in_chart(z, i, inverse=False)

    def k_inverse(self, z: complex) -> complex:
        i = self._nearest_index(z)
        return self._shear_in_chart(z, i, inverse=True)

    def deformed_eval(self, z: complex) -> complex:
        """One step of the deformed map f1 = k o f o k^{-1}, using the chart
        at the nearest cycle point on the way in and the next chart on the
        way out."""
        i = self._nearest_index(z)
        q = self.cycle.order
        u = self._shear_in_chart(z, i, inverse=True)
        v = self.germ.eval(u)
        return self._shear_in_chart(v, (i + 1) % q, inverse=False)

    def deformed_return_map(self, z: complex) -> complex:
        w = complex(z)
        for _ in range(self.cycle.order):
            w = self.deformed_eval(w)
        return w


def contour_multiplier(w: np.ndarray, gw: np.ndarray, a: complex) -> complex:
    """g'(a) as the contour integral of (g(w) - a) / (w - a)^2 dw / (2 pi i)
    over a closed curve around the fixed point a, sampled at equally spaced
    parameters: dw/dt is the FFT derivative of the samples (Nyquist bin
    zeroed), and the trapezoid rule sums the integrand."""
    n = w.size
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0
    dw = np.fft.ifft(1j * k * np.fft.fft(w))
    return complex(np.sum((gw - a) / (w - a) ** 2 * dw) / (1j * n))


def cauchy_cycle_derivative(
    step_fn: Callable[[np.ndarray], np.ndarray],
    center: complex,
    radius: float,
) -> complex:
    """Derivative of step_fn at its fixed point center, by the Cauchy
    integral on a circle. step_fn maps an array of points elementwise and
    is called once."""
    theta = np.linspace(0.0, 2.0 * math.pi, MEASURE_POINTS, endpoint=False)
    w = center + radius * np.exp(1j * theta)
    return contour_multiplier(w, step_fn(w), center)


def measure_multiplier(lc: LocalConjugacy) -> complex:
    """Measured multiplier of the deformed cycle.

    The circle radius starts at an eighth of the chart radius and shrinks
    until the pulled-back circle sits well inside the chart (the inverse
    conjugacy expands when the target multiplier is larger). A pulled-back
    circle within COLLAPSE_ULPS ulps of the center c is refused: there the
    return map is constant in floating point (the inverse conjugacy
    contracts like |z - c|^(log|lam|/log|target|), so this happens when
    |target/lam| is small). Estimates at the chosen radius and half of it must agree to 1e-5
    relative; the half-radius estimate is returned.
    """
    chart = lc.charts[0]
    center = chart.center
    rho = chart.radius / 8.0
    for _ in range(24):
        ok = True
        spread = 0.0
        for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            z = center + rho * cmath.exp(1j * t)
            try:
                u = lc.k_inverse(z)
            except DomainError:
                ok = False
                break
            spread = max(spread, abs(u - center))
            if spread > chart.radius / 3.0:
                ok = False
                break
        if ok:
            break
        rho *= 0.5
    else:
        raise UnreliableEstimateError("no usable measuring radius found")
    if spread <= COLLAPSE_ULPS * np.spacing(abs(center)):
        raise UnreliableEstimateError(
            "measuring circle collapses onto the chart center: the inverse conjugacy "
            "sends radius %g to within %g of it (|target/multiplier| = %.3g)"
            % (rho, spread, abs(lc.target / lc.cycle.multiplier))
        )

    # each point runs the whole return map before the next starts, so a
    # circle that leaves a chart fails at its first bad point
    return_map = np.vectorize(lc.deformed_return_map, otypes=[complex])

    def attempt(r: float) -> complex:
        return cauchy_cycle_derivative(return_map, center, r)

    for _ in range(8):
        try:
            m1 = attempt(rho)
            m2 = attempt(rho / 2.0)
        except DomainError:
            rho *= 0.5
            continue
        if abs(m1 - m2) > MEASURE_AGREEMENT * max(abs(m2), 1e-300):
            raise UnreliableEstimateError(
                "two-radius multiplier estimates disagree: %r vs %r" % (m1, m2)
            )
        return m2
    raise UnreliableEstimateError("measuring circle could not be placed inside the chart")


def holomorphy_residual(
    fn: Callable[[complex], complex], center: complex, radius: float
) -> float:
    """max |dbar fn| / |d fn| over a polar grid in the disk.

    Near zero for holomorphic maps (finite-difference noise only); of order
    |mu| for a map with Beltrami coefficient mu. The disk is halved until
    every probe point is inside fn's domain; the ratio itself does not
    depend on the disk size for the maps probed here.
    """
    if radius <= 0:
        raise DomainError("residual probe needs a positive radius")
    for _ in range(20):
        h = RESIDUAL_STEP_REL * radius
        worst = 0.0
        seen = False
        try:
            for i in range(RESIDUAL_RADII):
                r = radius * (0.1 + 0.7 * i / (RESIDUAL_RADII - 1))
                for j in range(RESIDUAL_ANGLES):
                    z = center + r * cmath.exp(2j * math.pi * j / RESIDUAL_ANGLES)
                    d, dbar = wirtinger_pair(fn, z, h)
                    if abs(d) < 1e-30:
                        continue
                    seen = True
                    worst = max(worst, abs(dbar) / abs(d))
        except DomainError:
            radius *= 0.5
            continue
        if not seen:
            raise DomainError("derivative vanished at every probe point")
        return worst
    raise DomainError("no probe radius fit inside the map's domain")
