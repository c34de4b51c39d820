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
    z = _require_finite(z, "z")
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


# Rational approximation coefficients (central region and tails).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def inv_std_normal_cdf(p: float) -> float:
    """Quantile of the standard normal distribution.

    A rational approximation seeds one Newton step on ``std_normal_cdf``,
    which brings the round-trip error down to machine precision.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # One Newton step; the density never underflows where the seed is used.
    x -= (std_normal_cdf(x) - p) / std_normal_pdf(x)
    return x
