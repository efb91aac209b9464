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
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError

BOUNDARY_SAMPLES = 64
BOUNDARY_DERIV_FLOOR = 1e-3
RADIUS_SHRINK = 0.9
RADIUS_MIN = 1e-6

NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 40
DERIVATIVE_FLOOR = 1e-14

ALPHA_MATCH_TOL = 1e-12


def horner(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    """c1*z + ... + cd*z^d for coeffs (c1, ..., cd), on an array z. Each
    step adds in place to its product, so it makes one temporary, not two;
    the product itself is not taken in place, since numpy rounds a product
    written over its own one-element operand otherwise than the same
    product on more elements, and a point's value must not depend on its
    batch."""
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z
        acc += c
    return acc * z


def horner_derivative(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    """Derivative in z of horner(coeffs, z), stepped as horner is."""
    acc = np.zeros_like(z)
    for k in range(len(coeffs), 0, -1):
        acc = acc * z
        acc += k * coeffs[k - 1]
    return acc


def circle(center: complex, radius: float, n: int) -> np.ndarray:
    """n points evenly spaced on the circle, starting at angle 0."""
    return center + radius * np.exp(2j * math.pi * np.arange(n) / n)


def is_finite(x) -> bool:
    """math.isfinite(x), but False where that raises: on a non-number, and
    on an int past the float range (OverflowError)."""
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def check_integer(name: str, value) -> None:
    """Refuse a bool or a non-integral value of the integer argument name,
    with a DomainError that names it; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError("%s must be an integer (got %r)" % (name, value))


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
    ring = circle(0.0, radius, BOUNDARY_SAMPLES)
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


# ---- the JSON input rule, shared by Germ.from_json and the CLI ----------

_REQUIRED = object()
FLOAT_INT_LIMIT = 2**1024 - 2**970  # the least int on which float() overflows


class Kind(NamedTuple):
    what: str  # completes "<key> must be ..."
    test: Callable[[Any], bool]
    read: Callable[[Any], Any] = lambda value: value


def _list_of(test: Callable[[Any], bool], min_len: int = 1) -> Callable[[Any], bool]:
    return lambda x: isinstance(x, list) and len(x) >= min_len and all(map(test, x))


INTEGER = Kind("an integer", lambda x: isinstance(x, int) and not isinstance(x, bool))
NUMBER = Kind(
    "a number", lambda x: isinstance(x, float) or (INTEGER.test(x) and abs(x) < FLOAT_INT_LIMIT)
)
NUMBER_OR_NULL = Kind("a number or null", lambda x: x is None or NUMBER.test(x))
PAIR = Kind(
    "a [re, im] pair of numbers",
    lambda x: isinstance(x, list) and len(x) == 2 and all(map(NUMBER.test, x)),
    lambda pair: complex(float(pair[0]), float(pair[1])),
)
STRING = Kind("a string", lambda x: isinstance(x, str))
BOOLEAN = Kind("a boolean", lambda x: isinstance(x, bool))
OBJECT = Kind("an object", lambda x: isinstance(x, dict))
INTEGERS = Kind("a list of integers", _list_of(INTEGER.test, 0), tuple)
ORDERS = Kind(
    "a nonempty list of distinct positive integers",
    lambda x: _list_of(lambda q: INTEGER.test(q) and q > 0)(x) and len(set(x)) == len(x),
)
PAIRS = Kind(
    "a nonempty list of [re, im] pairs", _list_of(PAIR.test), lambda v: list(map(PAIR.read, v))
)
OBJECTS = Kind("a nonempty list of objects", _list_of(OBJECT.test))


def csv_table(header: str, row_format: str, rows: Iterable[tuple]) -> str:
    """The header line, then row_format % row for each row, as CSV text."""
    return "".join([header + "\n"] + [row_format % row + "\n" for row in rows])


class Fields:
    """One JSON object, read key by key under the input rule: a number is an
    int or float that float() takes, an integer is an int, neither is a bool
    or a string, a pair is a list of exactly two numbers, and a key left
    unread is refused. A refusal is a ConfigError naming the key, after the
    object's name in a nested object ("germ coeffs must be ...")."""

    def __init__(self, data: Any, name: str = "config"):
        if not isinstance(data, dict):
            raise ConfigError("%s must be an object" % name)
        self._left, self._name = dict(data), name

    def take(self, key: str, kind: Kind, default: Any = _REQUIRED) -> Any:
        """The value at key read as kind, or default when key is absent."""
        if key not in self._left:
            if default is _REQUIRED:
                raise ConfigError("missing %s key %r" % (self._name, key))
            return default
        value = self._left.pop(key)
        if not kind.test(value):
            label = key if self._name == "config" else "%s %s" % (self._name, key)
            raise ConfigError("%s must be %s" % (label, kind.what))
        return kind.read(value)

    def finish(self) -> None:
        """Refuse every key no take has read."""
        if self._left:
            raise ConfigError("unknown %s keys: %s" % (self._name, sorted(self._left)))


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
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError("germ coefficients must be finite numbers") from exc
        if len(cs) < 2:
            raise DomainError("germ needs degree >= 2 (got %d coefficients)" % len(cs))
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in cs):
            raise DomainError("germ coefficients must be finite")
        if cs[0] == 0:
            raise DomainError("linear coefficient must be nonzero")
        if cs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")
        if alpha is not None:
            if not (isinstance(alpha, numbers.Real) and is_finite(alpha)):
                raise DomainError("alpha must be a finite real number")
            if abs(cs[0] - cmath.exp(2j * cmath.pi * alpha)) > ALPHA_MATCH_TOL:
                raise DomainError(
                    "linear coefficient does not match exp(2*pi*i*alpha)"
                )
        if radius_U is None:
            radius_U = auto_radius(cs)
        else:
            try:
                radius_U = float(radius_U)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError("radius_U must be a finite number") from exc
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

    def _checked(self, z: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(z)):
            raise DomainError("point must be finite")
        outside = z[np.abs(z) > self.radius_U]
        if outside.size:
            raise DomainError(
                "point %r outside working disk (radius %g)" % (complex(outside[0]), self.radius_U)
            )
        return z

    # checked evaluation: refuses the whole call if a point is outside U
    @pointwise
    def eval(self, z: np.ndarray) -> np.ndarray:
        return horner(self.coeffs, self._checked(z))

    @pointwise
    def derivative(self, z: np.ndarray) -> np.ndarray:
        return horner_derivative(self.coeffs, self._checked(z))

    # unchecked vectorized evaluation, for grid internals only
    def eval_raw(self, z):
        return horner(self.coeffs, z)

    def derivative_raw(self, z):
        return horner_derivative(self.coeffs, z)

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

    def to_json(self) -> dict[str, Any]:
        return {
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "radius_U": self.radius_U,
            "alpha": self.alpha,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Germ":
        """The germ of to_json's object; bad JSON raises ConfigError."""
        fields = Fields(data, "germ")
        coeffs = fields.take("coeffs", PAIRS)
        radius_U = fields.take("radius_U", NUMBER_OR_NULL, None)
        alpha = fields.take("alpha", NUMBER_OR_NULL, None)
        fields.finish()
        return cls.create(coeffs, radius_U=radius_U, alpha=alpha)
