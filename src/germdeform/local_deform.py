"""Local model of the deformed germ near one repelling cycle.

Conjugating the torus shear back through the linearizing chart gives an
explicit (non-holomorphic) local conjugacy k with k(f(z)) = f1(k(z)) near
the cycle, where f1 has the target multiplier. k takes one chart per cycle
point, made when a call first reads it through LocalConjugacy.chart, the
one read of a chart. A chart disk is at most half the distance to the
other cycle points, so f1^q = k o f^q o k^{-1} needs one chart per call,
and a measurement, around the base point, makes one chart.
Its multiplier is measured by a Cauchy derivative on a small circle, with a
two-radius agreement gate before the number is trusted. The maps run on
numpy arrays (both measuring circles, or a whole residual stencil, per
call) and take a scalar too; a call with any point outside its domain
raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .beltrami import TorusShear, shear_coefficient
from .cycles import Cycle
from .errors import DomainError, UnreliableEstimateError
from .germ import Germ, check_integer, check_positive, circle, pointwise
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
    """Charts at the points of one repelling cycle plus the shear that
    retargets its multiplier. chart(i) is the one read of the chart at cycle
    point i. build makes the base chart; the chart at another cycle point is
    made by the first call that reads it, and its ChartError, if it has
    none, is raised there."""

    germ: Germ
    cycle: Cycle
    shear: TorusShear
    _built: dict[int, KoenigsChart] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def build(cls, germ: Germ, cycle: Cycle, target: complex) -> "LocalConjugacy":
        lc = cls(germ=germ, cycle=cycle, shear=shear_coefficient(cycle.multiplier, target))
        lc.chart(0)
        return lc

    def chart(self, index: int) -> KoenigsChart:
        """The chart at cycle point index, made on its first read; an index
        that is not an integer in [0, order) raises DomainError."""
        check_integer("index", index)
        if index not in self._built:
            self._built[index] = build_chart(self.germ, self.cycle, index)
        return self._built[index]

    @property
    def target(self) -> complex:
        return self.shear.lam_prime

    def working_radius(self) -> float:
        return WORKING_FACTOR * self.chart(0).radius

    def _nearest_index(self, z: np.ndarray) -> np.ndarray:
        pts = np.asarray(self.cycle.points)
        return np.argmin(np.abs(z[:, None] - pts[None, :]), axis=1)

    def _shear_in_chart(self, z: np.ndarray, index: np.ndarray, inverse: bool) -> np.ndarray:
        """psi(S(phi(z))) for the torus shear S (or its inverse), each point
        in the chart of its index; a point at the center (phi = 0) stays there
        exactly."""
        out = np.empty_like(z)
        for i in np.unique(index).tolist():
            chart = self.chart(i)
            sel = index == i
            ph = chart.phi(z[sel])
            moved = ph != 0
            xi = np.log(ph[moved]) / TWO_PI_I
            eta = self.shear.apply_inverse(xi) if inverse else self.shear.apply(xi)
            w = np.full(ph.shape, chart.center)
            w[moved] = chart.psi(np.exp(TWO_PI_I * eta))
            out[sel] = w
        return out

    @pointwise
    def k_eval(self, z: np.ndarray) -> np.ndarray:
        """The straightening near its cycle point: maps the germ's local
        dynamics to the deformed model's."""
        return self._shear_in_chart(z, self._nearest_index(z), inverse=False)

    @pointwise
    def k_inverse(self, z: np.ndarray) -> np.ndarray:
        return self._shear_in_chart(z, self._nearest_index(z), inverse=True)

    @pointwise
    def deformed_eval(self, z: np.ndarray) -> np.ndarray:
        """One step of the deformed map f1 = k o f o k^{-1}, using the chart
        at the nearest cycle point on the way in and the next chart on the
        way out. f refuses a point that is not finite or leaves U."""
        i = self._nearest_index(z)
        v = self.germ.eval(self._shear_in_chart(z, i, inverse=True))
        return self._shear_in_chart(v, (i + 1) % self.cycle.order, inverse=False)

    @pointwise
    def deformed_return_map(self, z: np.ndarray) -> np.ndarray:
        """k_i o f^q o k_i^{-1}, i the nearest cycle point, which is q steps of
        deformed_eval: a step's way out is undone by the next step's way in."""
        i = self._nearest_index(z)
        u = self._shear_in_chart(z, i, inverse=True)
        for _ in range(self.cycle.order):
            u = self.germ.eval(u)
        return self._shear_in_chart(u, i, inverse=False)


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
    radius: float | Sequence[float],
    h: Callable[[np.ndarray], np.ndarray] | None = None,
) -> complex | list[complex]:
    """Derivative of step_fn at its fixed point center, by the Cauchy
    integral on a circle. step_fn maps an array of points elementwise and
    is called once. Given a sequence of radii, it is called once on all
    the circles stacked, and the estimates come back in a list, one per
    radius. Each radius must be positive and finite, and a sequence not
    empty. Given a map h, elementwise too, it returns g'(h(center)) for g =
    h o step_fn o h^{-1} from the h-images of the circles and of their
    step_fn images, h called once on these and the center."""
    radii = np.atleast_1d(radius)
    if not radii.size:
        raise DomainError("need at least one radius (got %r)" % (radius,))
    check_positive("radius", radius)
    w = np.concatenate([circle(center, r, MEASURE_POINTS) for r in radii])
    gw = step_fn(w)
    if h is not None:
        (center,), w, gw = np.split(h(np.concatenate(([center], w, gw))), [1, w.size + 1])
    est = [
        contour_multiplier(w[i : i + MEASURE_POINTS], gw[i : i + MEASURE_POINTS], center)
        for i in range(0, w.size, MEASURE_POINTS)
    ]
    return est if np.ndim(radius) else est[0]


def measure_multiplier(lc: LocalConjugacy) -> complex:
    """Measured multiplier of the deformed cycle.

    The circle radius starts at an eighth of the chart radius and shrinks
    until the pulled-back circle sits well inside the chart (the inverse
    conjugacy expands when the target multiplier is larger). A pulled-back
    circle within COLLAPSE_ULPS ulps of the center c is refused: there the
    return map is constant in floating point (the inverse conjugacy
    contracts like |z - c|^(log|lam|/log|target|), so this happens when
    |target/lam| is small). Estimates at the chosen radius and half of it,
    read from one return map call on both circles, must agree to 1e-5
    relative; the half-radius estimate is returned.
    """
    chart = lc.chart(0)
    center = chart.center
    rho = chart.radius / 8.0
    for _ in range(24):
        try:
            spread = float(np.max(np.abs(lc.k_inverse(circle(center, rho, 16)) - center)))
        except DomainError:
            spread = math.inf
        if spread <= chart.radius / 3.0:
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

    # one return map call on both circles: a point of either outside a
    # chart raises DomainError
    for _ in range(8):
        try:
            m1, m2 = cauchy_cycle_derivative(lc.deformed_return_map, center, (rho, rho / 2.0))
        except DomainError:
            rho *= 0.5
            continue
        if abs(m1 - m2) > MEASURE_AGREEMENT * max(abs(m2), 1e-300):
            raise UnreliableEstimateError(
                "two-radius multiplier estimates disagree: %r vs %r" % (m1, m2)
            )
        return m2
    raise UnreliableEstimateError("measuring circle could not be placed inside the chart")


def residual_readings(
    fn: Callable[[np.ndarray], np.ndarray], center: complex, radius: float
) -> tuple[float, float]:
    """max |dbar fn| / |d fn| over a polar grid in the disk, read by the
    4-point stencil at step RESIDUAL_STEP_REL * radius and at 100 times that
    step, in one call of fn on an array.

    The disk is halved until every probe point is inside fn's domain (fn
    raises DomainError on an array with any point outside it); the ratio
    itself does not depend on the disk size for the maps probed here.
    radius must be positive and finite.
    """
    check_positive("radius", radius)
    r = 0.1 + 0.7 * np.arange(RESIDUAL_RADII) / (RESIDUAL_RADII - 1)
    grid = np.outer(r, circle(0.0, 1.0, RESIDUAL_ANGLES)).ravel()
    for _ in range(20):
        h = RESIDUAL_STEP_REL * radius * np.array([1.0, 100.0])
        at = center + radius * grid
        try:
            d, dbar = wirtinger_pair(fn, np.tile(at, 2), np.repeat(h, at.size))
        except DomainError:
            radius *= 0.5
            continue
        d, dbar = np.abs(d).reshape(2, -1), np.abs(dbar).reshape(2, -1)
        seen = d >= 1e-30
        if not np.all(np.any(seen, axis=1)):
            raise DomainError("derivative vanished at every probe point")
        ratio = np.divide(dbar, d, out=np.zeros_like(d), where=seen)
        small, large = ratio.max(axis=1)
        return float(small), float(large)
    raise DomainError("no probe radius fit inside the map's domain")


def holomorphy_residual(
    fn: Callable[[np.ndarray], np.ndarray], center: complex, radius: float
) -> float:
    """The smaller of the two residual_readings.

    Near zero for holomorphic maps (finite-difference noise only, which
    grows like 1/step, so the wider step reads it lower); of order |mu| at
    both steps for a map with Beltrami coefficient mu.
    """
    return min(residual_readings(fn, center, radius))
