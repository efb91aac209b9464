"""Arithmetic side: continued fractions and the small-divisor margin.

For an irrationally indifferent fixed point of a degree-d polynomial, the
relevant dichotomy reads off the continued fraction denominators q_n of the
rotation number: when limsup log log q_{n+1} / q_n exceeds log d, small
divisors win. This module computes convergents in exact integer arithmetic,
evaluates the margin over a window, and can build a synthetic quotient
tower that certifies a positive margin by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InsufficientDataError
from .germ import check_integer, csv_table

LOGLOG_MIN_Q = 3  # log log q needs q > e; first safe integer is 3
TOWER_MAX_BITS = 10**7


@dataclass(frozen=True)
class ContinuedFraction:
    """Quotients [0; a1, a2, ...] of a number in (0, 1), kept as Python ints."""

    quotients: tuple[int, ...]

    def __post_init__(self):
        try:
            quotients = tuple(self.quotients)
        except TypeError:
            raise DomainError("partial quotients must be an iterable (got %r)" % (self.quotients,)) from None
        if not quotients:
            raise DomainError("need at least one partial quotient")
        for k, a in enumerate(quotients):
            check_integer("partial quotients[%d]" % k, a)
            if a < 1:
                raise DomainError("partial quotients must be positive integers")
        object.__setattr__(self, "quotients", tuple(map(int, quotients)))

    def convergents(self) -> list[tuple[int, int]]:
        """(p_n, q_n) for n = 1..len, exact integers."""
        p_prev, p = 1, 0
        q_prev, q = 0, 1
        out = []
        for a in self.quotients:
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            out.append((p, q))
        return out

    def value(self) -> float:
        p, q = self.convergents()[-1]
        return p / q


def golden_quotients(count: int) -> tuple[int, ...]:
    check_integer("count", count)
    return (1,) * count


def pell_quotients(count: int) -> tuple[int, ...]:
    check_integer("count", count)
    return (2,) * count


def log_log(q: int) -> float:
    # math.log takes arbitrary-size ints directly, no float conversion
    if q < LOGLOG_MIN_Q:
        raise DomainError("log log needs q >= %d" % LOGLOG_MIN_Q)
    return math.log(math.log(q))


GrowthRatios = Sequence[tuple[int, int, float]]


def growth_ratios(cf: ContinuedFraction) -> list[tuple[int, int, float]]:
    """(index n, q_n, log log q_{n+1} / q_n) for every evaluable n."""
    convs = cf.convergents()
    out = []
    for i in range(len(convs) - 1):
        q_n = convs[i][1]
        q_next = convs[i + 1][1]
        if q_next < LOGLOG_MIN_Q:
            continue
        out.append((i + 1, q_n, _ratio(log_log(q_next), q_n)))
    return out


def _ratios_of(cf: ContinuedFraction | GrowthRatios) -> GrowthRatios:
    return growth_ratios(cf) if isinstance(cf, ContinuedFraction) else cf


def _ratio(x: float, q: int) -> float:
    """x / q, also for q beyond the float range, where the exact integer
    ratio of x is divided by q (int / int division is correctly rounded)."""
    try:
        return x / q
    except OverflowError:
        num, den = x.as_integer_ratio()
        return num / (den * q)


def _check_degree(degree: int) -> None:
    check_integer("degree", degree)
    if degree < 2:
        raise DomainError("degree must be >= 2")


def cremer_margin(
    cf: ContinuedFraction | GrowthRatios, degree: int, window: int | None = None
) -> float:
    """max over the window of log log q_{n+1}/q_n minus log(degree).

    Positive margin certifies the small-divisor condition for that degree.
    The window is the trailing count of evaluable indices; None means all.
    cf may also be given as its growth_ratios, computed once by a caller
    that needs them again.
    """
    _check_degree(degree)
    ratios = _ratios_of(cf)
    if window is not None:
        check_integer("window", window)
        if window < 1:
            raise DomainError("window must be >= 1")
        ratios = ratios[-window:]
    if not ratios:
        raise InsufficientDataError("no evaluable growth ratios in the window")
    return max(r for _, _, r in ratios) - math.log(degree)


def _ceil_exp_div(x: float, divisor: int) -> int:
    """ceil(e**x / divisor) for x possibly far beyond float range."""
    if x < 700:
        return math.ceil(math.exp(x) / divisor)
    # e**x = 2**(x/ln 2); split into integer exponent and mantissa
    bits = x / math.log(2.0)
    if bits > TOWER_MAX_BITS:
        raise InsufficientDataError(
            "tower quotient needs ~%d bits, beyond the build cap" % int(bits)
        )
    whole = int(bits)
    mant = 2.0 ** (bits - whole)
    # 53-bit fixed point for the mantissa keeps the result deterministic
    scaled = int(mant * (1 << 53))
    num = scaled << max(0, whole - 53)
    if whole < 53:
        num >>= 53 - whole
    return num // divisor + 1


def tower_quotients(seed: int = 2, count: int = 8) -> tuple[int, ...]:
    """Quotients forced to satisfy a_{n+1} >= e^{e^{2 q_n}} / q_n.

    Growth is doubly exponential, so only the first constructed step (or
    two, for tiny seeds) is physically buildable; construction stops at the
    bit cap and returns what exists. The margin test then runs on the
    buildable prefix, which is exactly the point: one huge quotient already
    makes the window's ratio land above any fixed log(degree).
    """
    check_integer("seed quotient", seed)
    if seed < 1:
        raise DomainError("seed quotient must be a positive integer")
    check_integer("count", count)
    if count < 2:
        raise DomainError("tower needs at least two quotients")
    quots = [seed]
    q_prev, q = 1, int(seed)  # q_0 and q_1 of [0; seed], exact past 64 bits
    while len(quots) < count:
        try:
            x = math.exp(2.0 * float(q))  # OverflowError once q is large
            a_next = _ceil_exp_div(x, q)
        except (OverflowError, InsufficientDataError):
            break
        quots.append(a_next)
        q_prev, q = q, a_next * q + q_prev
    if len(quots) < 2:
        raise InsufficientDataError("tower construction produced no usable step")
    return tuple(quots)


def margin_rows_csv(cf: ContinuedFraction | GrowthRatios, degree: int) -> str:
    """Deterministic per-index table: n, q_n, ratio, margin. cf may also be
    given as its growth_ratios. degree is checked as by cremer_margin."""
    _check_degree(degree)
    rows = _ratios_of(cf)
    logd = math.log(degree)
    if rows:
        n, q_max, _ = rows[-1]  # q_n grows with n
        try:
            str(q_max)
        except ValueError as exc:  # past Python's int-to-str digit limit
            raise DomainError("q_%d is too long to write in decimal: %s" % (n, exc)) from exc
    return csv_table(
        "n,q_n,ratio,margin", "%d,%d,%.17g,%.17g", ((n, q, r, r - logd) for n, q, r in rows)
    )
