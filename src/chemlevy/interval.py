"""Closed-interval numbers and the geometric crispification map.

An interval [lower, upper] stands for an imprecisely known real quantity.
Arithmetic follows plain endpoint rules (subtraction and division in their
endpoint-literal forms, normalized so every result satisfies lower <= upper).
This is deliberately not a validated-numerics library: comparisons use exact
floating-point semantics and no outward rounding is performed.
"""

import math
from dataclasses import dataclass


def number(value) -> float:
    """A JSON number (an int or a float, never a bool or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class IntervalNumber:
    """Closed real interval; the degenerate [a, a] behaves as the real a."""

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval: lower={self.lower!r}, upper={self.upper!r}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_value(cls, value) -> "IntervalNumber":
        """Coerce a bare number (shorthand for [n, n]) or a 2-sequence."""
        if isinstance(value, IntervalNumber):
            return value
        pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value] * 2
        try:
            return cls(*map(number, pair))
        except (TypeError, OverflowError):
            raise ValueError(f"cannot interpret {value!r} as an interval") from None

    def __add__(self, other: "IntervalNumber") -> "IntervalNumber":
        return add(self, other)

    def __sub__(self, other: "IntervalNumber") -> "IntervalNumber":
        return subtract(self, other)

    def __mul__(self, other):
        if isinstance(other, IntervalNumber):
            return multiply(self, other)
        return scalar_mul(float(other), self)

    def __rmul__(self, other):
        return scalar_mul(float(other), self)

    def __truediv__(self, other: "IntervalNumber") -> "IntervalNumber":
        return divide(self, other)

    def __repr__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


def add(a: IntervalNumber, b: IntervalNumber) -> IntervalNumber:
    """Endpointwise sum."""
    return IntervalNumber(a.lower + b.lower, a.upper + b.upper)


def subtract(a: IntervalNumber, b: IntervalNumber) -> IntervalNumber:
    """Endpointwise difference, sorted so the result is a valid interval.

    The raw rule [a.lower - b.lower, a.upper - b.upper] can invert endpoint
    order (e.g. [1,2] - [0,5]); the candidate endpoints are swapped when that
    happens.
    """
    lo = a.lower - b.lower
    hi = a.upper - b.upper
    if lo > hi:
        lo, hi = hi, lo
    return IntervalNumber(lo, hi)


def scalar_mul(alpha: float, a: IntervalNumber) -> IntervalNumber:
    """Scale both endpoints by a positive real."""
    if not alpha > 0.0:
        raise ValueError(f"scalar multiplier must be positive, got {alpha!r}")
    return IntervalNumber(alpha * a.lower, alpha * a.upper)


def multiply(a: IntervalNumber, b: IntervalNumber) -> IntervalNumber:
    """Min/max over the four endpoint products."""
    products = (
        a.lower * b.lower,
        a.upper * b.lower,
        a.lower * b.upper,
        a.upper * b.upper,
    )
    return IntervalNumber(min(products), max(products))


def divide(a: IntervalNumber, b: IntervalNumber) -> IntervalNumber:
    """Multiply a by the reciprocal endpoints of b.

    The reciprocal pair (1/b.lower, 1/b.upper) arrives in reversed order for
    positive b; taking min/max over the four products absorbs that, exactly as
    in multiply.
    """
    if b.lower <= 0.0 <= b.upper:
        raise ValueError(f"division by interval containing zero: {b!r}")
    rl = 1.0 / b.lower
    ru = 1.0 / b.upper
    products = (a.lower * rl, a.upper * rl, a.lower * ru, a.upper * ru)
    return IntervalNumber(min(products), max(products))


def interval_value(a: IntervalNumber, p: float) -> float:
    """Geometric interpolation lower**(1-p) * upper**p for p in [0, 1].

    Continuous and nondecreasing in p; p=0 gives the lower endpoint, p=1 the
    upper.  Requires strictly positive endpoints.
    """
    if a.lower <= 0.0 or a.upper <= 0.0:
        raise ValueError(f"interval_value requires positive endpoints, got {a!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"imprecision level must lie in [0, 1], got {p!r}")
    if a.lower == a.upper:
        # a^(1-p) * a^p == a; short-circuit keeps degenerate intervals exact
        return a.lower
    return a.lower ** (1.0 - p) * a.upper ** p
