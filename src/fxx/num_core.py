"""Scalar special functions used by every pricer.

All functions operate on Python floats in double precision. The CDF is
evaluated through ``erfc`` so both tails keep full relative accuracy,
which the closed-form Greek expressions rely on.
"""

import math

from .errors import DomainError, NumericalError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _require_finite(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def std_normal_pdf(x: float) -> float:
    """Density of the standard normal distribution at ``x``."""
    x = _require_finite(x)
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(z: float) -> float:
    """P(Z <= z) for a standard normal Z, accurate in both tails."""
    z = float(z)
    if not math.isfinite(z):  # _require_finite, inlined: every price calls this
        raise DomainError(f"z must be finite, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def log_ratio(num: float, den: float) -> float:
    """log(num / den) of two positive levels or products of levels that a
    kernel computed. A quotient that leaves the double range (overflow,
    inf/inf or underflow to zero) raises NumericalError: the inputs were
    valid, the arithmetic was not."""
    try:
        x = math.log(num / den)
    except (ZeroDivisionError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise NumericalError(f"log({num!r} / {den!r}) leaves the double range; "
                             "the inputs are outside the closed form's numerical range")
    return x


def erf(x: float) -> float:
    """Error function."""
    return math.erf(_require_finite(x))


def erfc(x: float) -> float:
    """Complementary error function, 1 - erf(x) without tail cancellation."""
    return math.erfc(_require_finite(x))

