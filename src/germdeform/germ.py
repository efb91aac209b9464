"""Polynomial germs fixing the origin, and their working disk.

A germ is f(z) = c1*z + c2*z**2 + ... + cd*z**d with c1 != 0 and d >= 2,
studied on a disk U = {|z| <= radius_U} on which it behaves injectively.
Injectivity is not certified: the disk is accepted when |f'| stays above a
floor on 64 boundary samples, which is cheap and good enough for the maps
this toolkit targets. Callers who pass an explicit radius get the same
boundary check and nothing more.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EscapeError,
    SingularDerivativeError,
)

BOUNDARY_SAMPLES = 64
BOUNDARY_DERIV_FLOOR = 1e-3
RADIUS_SHRINK = 0.9
RADIUS_MIN = 1e-6

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 40
DERIVATIVE_FLOOR = 1e-14

ALPHA_MATCH_TOL = 1e-12


def horner(coeffs: Sequence[complex], z):
    """c1*z + ... + cd*z^d for coeffs (c1, ..., cd), scalar or array z."""
    acc = np.zeros_like(np.asarray(z)) if isinstance(z, np.ndarray) else 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc * z


def horner_derivative(coeffs: Sequence[complex], z):
    """Derivative in z of horner(coeffs, z)."""
    acc = np.zeros_like(np.asarray(z)) if isinstance(z, np.ndarray) else 0j
    for k in range(len(coeffs), 0, -1):
        acc = acc * z + k * coeffs[k - 1]
    return acc


def pointwise(method):
    """Let a method written for a 1-d complex array take a scalar or an
    array of any shape; a scalar gets a Python complex back."""

    @functools.wraps(method)
    def wrapper(self, z):
        a = np.asarray(z, dtype=complex)
        out = method(self, a.reshape(-1))
        return complex(out[0]) if a.ndim == 0 else out.reshape(a.shape)

    return wrapper


def _min_boundary_derivative(coeffs: Sequence[complex], radius: float) -> float:
    theta = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_SAMPLES, endpoint=False)
    ring = radius * np.exp(1j * theta)
    return float(np.min(np.abs(horner_derivative(coeffs, ring))))


def auto_radius(coeffs: Sequence[complex]) -> float:
    """Pick a working radius by scanning down from 1.

    The first radius whose boundary ring keeps |f'| above the floor is
    halved and returned; the halving buys interior margin.
    """
    r = 1.0
    while r > RADIUS_MIN:
        if _min_boundary_derivative(coeffs, r) > BOUNDARY_DERIV_FLOOR:
            return r / 2.0
        r *= RADIUS_SHRINK
    raise DomainError("no working radius found above %g" % RADIUS_MIN)


@dataclass(frozen=True)
class Orbit:
    """A finite forward orbit and the chain-rule derivative along it.

    points has n+1 entries (the start included); derivative_product is
    f'(z_0) * ... * f'(z_{n-1}), the derivative of the n-fold composition.
    """

    points: tuple[complex, ...]
    derivative_product: complex


@dataclass(frozen=True)
class Germ:
    coeffs: tuple[complex, ...]
    radius_U: float
    alpha: float | None = None

    @classmethod
    def create(
        cls,
        coeffs: Iterable[complex],
        radius_U: float | None = None,
        alpha: float | None = None,
    ) -> "Germ":
        try:
            cs = tuple(complex(c) for c in coeffs)
        except (TypeError, ValueError) as exc:
            raise DomainError("germ coefficients must be numbers") from exc
        if len(cs) < 2:
            raise DomainError("germ needs degree >= 2 (got %d coefficients)" % len(cs))
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in cs):
            raise DomainError("germ coefficients must be finite")
        if cs[0] == 0:
            raise DomainError("linear coefficient must be nonzero")
        if cs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")
        if alpha is not None:
            if not (isinstance(alpha, numbers.Real) and math.isfinite(alpha)):
                raise DomainError("rotation number must be a finite real number")
            if abs(cs[0] - cmath.exp(2j * cmath.pi * alpha)) > ALPHA_MATCH_TOL:
                raise DomainError(
                    "linear coefficient does not match exp(2*pi*i*alpha)"
                )
        if radius_U is None:
            radius_U = auto_radius(cs)
        else:
            try:
                radius_U = float(radius_U)
            except (TypeError, ValueError) as exc:
                raise DomainError("radius_U must be a number") from exc
            if not (math.isfinite(radius_U) and radius_U > 0):
                raise DomainError("radius_U must be positive and finite")
            if _min_boundary_derivative(cs, radius_U) <= BOUNDARY_DERIV_FLOOR:
                raise DomainError(
                    "derivative dips below %g on the boundary ring of radius %g"
                    % (BOUNDARY_DERIV_FLOOR, radius_U)
                )
        return cls(coeffs=cs, radius_U=radius_U, alpha=alpha)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def contains(self, z: complex) -> bool:
        return abs(z) <= self.radius_U

    def _checked(self, z):
        z = z if isinstance(z, np.ndarray) else complex(z)
        if not np.all(np.isfinite(z)):
            raise DomainError("point must be finite")
        outside = np.asarray(z)[np.abs(z) > self.radius_U]
        if outside.size:
            raise DomainError(
                "point %r outside working disk (radius %g)" % (complex(outside[0]), self.radius_U)
            )
        return z

    # checked evaluation: a scalar gives a Python complex, an array an array
    def eval(self, z):
        return horner(self.coeffs, self._checked(z))

    def derivative(self, z):
        return horner_derivative(self.coeffs, self._checked(z))

    # unchecked vectorized evaluation, for grid internals only
    def eval_raw(self, z):
        return horner(self.coeffs, z)

    def derivative_raw(self, z):
        return horner_derivative(self.coeffs, z)

    def iterate(self, z: complex, n: int) -> Orbit:
        """Run n forward steps, recording points and the chain rule product.

        Raises EscapeError (with the offending step) as soon as an iterate
        leaves the working disk.
        """
        if n < 0:
            raise DomainError("iteration count must be >= 0")
        w = complex(z)
        if not self.contains(w):
            raise EscapeError("start point outside working disk", step=0)
        points = [w]
        prod = 1.0 + 0j
        for k in range(n):
            prod *= complex(horner_derivative(self.coeffs, w))
            w = complex(horner(self.coeffs, w))
            if not (math.isfinite(w.real) and math.isfinite(w.imag)) or not self.contains(w):
                raise EscapeError("orbit left working disk at step %d" % (k + 1), step=k + 1)
            points.append(w)
        return Orbit(points=tuple(points), derivative_product=prod)

    def preimages(
        self, w: np.ndarray, guess: np.ndarray, tol: float = NEWTON_TOL
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Newton solve of f(z) = w from the guesses, on 1-d arrays.

        Returns (z, converged). A point leaves the batch once its residual
        is within tol * max(1, |w|) (converged) or its derivative drops
        below the floor (or is NaN); a point still moving after
        NEWTON_MAX_ITERS steps keeps its last iterate.
        """
        w = np.asarray(w, dtype=complex)
        z = np.array(guess, dtype=complex)
        scale = np.maximum(1.0, np.abs(w))
        converged = np.zeros(w.shape, dtype=bool)
        live = np.arange(w.size)
        for _ in range(NEWTON_MAX_ITERS):
            zl = z[live]
            r = horner(self.coeffs, zl) - w[live]
            done = np.abs(r) <= tol * scale[live]
            converged[live[done]] = True
            d = horner_derivative(self.coeffs, zl)
            step = ~done & (np.abs(d) >= DERIVATIVE_FLOOR)
            live = live[step]
            if not live.size:
                break
            z[live] = zl[step] - r[step] / d[step]
        return z, converged

    def inverse_step(self, w: complex, guess: complex, tol: float = NEWTON_TOL) -> complex:
        """Newton solve of f(z) = w from the given guess (preimages on one
        point).

        Which preimage you get depends on the guess; near a repelling cycle
        the cycle point itself is a safe guess for the branch staying in U.
        """
        z, ok = self.preimages(np.array([complex(w)]), np.array([complex(guess)]), tol)
        z = complex(z[0])
        if ok[0]:
            return z
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConvergenceError("inverse step diverged")
        if abs(complex(horner_derivative(self.coeffs, z))) < DERIVATIVE_FLOOR:
            raise SingularDerivativeError("derivative vanished during inverse step")
        raise ConvergenceError("inverse step did not converge in %d iterations" % NEWTON_MAX_ITERS)

    def to_json(self) -> dict[str, Any]:
        return {
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "radius_U": self.radius_U,
            "alpha": self.alpha,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Germ":
        if not isinstance(data, dict):
            raise DomainError("germ data must be an object")
        unknown = set(data) - {"coeffs", "radius_U", "alpha"}
        if unknown:
            raise DomainError("unknown germ fields: %s" % sorted(unknown))
        raw = data.get("coeffs")
        if not isinstance(raw, list) or not raw:
            raise DomainError("germ coeffs must be a nonempty list")
        coeffs = []
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2):
                raise DomainError("each coefficient must be a [re, im] pair")
            # JSON true/false are numbers to float(), so they are refused by name
            if any(isinstance(x, bool) for x in item):
                raise DomainError("germ coeffs must hold numbers, not booleans")
            try:
                coeffs.append(complex(float(item[0]), float(item[1])))
            except (TypeError, ValueError) as exc:
                raise DomainError("each coefficient must be a pair of numbers") from exc
        for key in ("radius_U", "alpha"):
            if isinstance(data.get(key), bool):
                raise DomainError("germ %s must be a number, not a boolean" % key)
        return cls.create(coeffs, radius_U=data.get("radius_U"), alpha=data.get("alpha"))
