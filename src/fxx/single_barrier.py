"""Closed-form single-barrier prices and their analytic Greeks.

Every barrier variant is a signed combination of four decomposition
parameters. Two kernels cover them:

* the *direct* kernel (parameters A and B, in ``fxx.vanilla``) is the
  two-rate vanilla formula with the log argument taken against the
  strike (A) or the barrier (B);
* the *reflected* kernel (parameters C and D) carries the barrier
  reflection power ``(B/S)^(2 alpha)`` and the mirrored log argument.

The Greeks are the exact chain-rule derivatives of those kernels, so
delta/vega/vanna/volga stay consistent with the prices to machine
precision; a finite-difference engine cross-checks them in the tests.
"""

import math
from dataclasses import dataclass

from .contracts import (BarrierSide, GreekSet, MarketEnvironment, OptionDirection,
                        SingleBarrierSpec, classify_single_barrier)
from .errors import DomainError, NumericalError, PreconditionError
from .num_core import log_ratio
from .num_core import std_normal_cdf as _N
from .num_core import std_normal_pdf as _n
from .vanilla import _check_env, _kernel_direct

_NEGATIVE_CLAMP = 1e-10


@dataclass(frozen=True)
class AbcdValues:
    """Values of the four decomposition parameters plus the reflection exponent."""

    a: float
    b: float
    c: float
    d: float
    alpha: float


def _kernel_reflected(env: MarketEnvironment, phi: int, eta: int, strike: float,
                      barrier: float, mirror_strike: bool) -> GreekSet:
    """Value and Greeks of the barrier-reflection kernel.

    ``mirror_strike`` selects the log argument: B^2/(S K) for parameter C,
    B/S for parameter D.
    """
    S, T, sig = env.spot, env.T, env.sigma
    s = _check_env(env)
    F = math.exp(-env.r_f * T)
    D = math.exp(-env.r_d * T)
    g = 2.0 * env.drift / (sig * sig)
    lam = log_ratio(barrier, S)
    pow_hi = (g + 1.0) * lam
    pow_lo = (g - 1.0) * lam
    # 690 leaves room for the spot/strike factors before the double range ends
    if abs(pow_hi) > 690.0 or abs(pow_lo) > 690.0:
        raise NumericalError(
            f"barrier reflection power exp({max(abs(pow_hi), abs(pow_lo)):.1f}) "
            f"overflows for barrier/spot={barrier / S!r}, sigma={sig!r}")
    Lf = S * F * math.exp(pow_hi)
    Ld = strike * D * math.exp(pow_lo)
    lnZ = log_ratio(barrier * barrier, S * strike) if mirror_strike else lam
    y = (lnZ + (env.drift + 0.5 * sig * sig) * T) / s
    e = y - s
    Ny, Ne = _N(eta * y), _N(eta * e)
    ny, ne = _n(y), _n(e)

    M = Lf * Ny - Ld * Ne
    dM_dS = (-(g / S) * Lf * Ny + ((g - 1.0) / S) * Ld * Ne
             - (eta / (S * s)) * (Lf * ny - Ld * ne))
    G = y * Ld * ne - e * Lf * ny
    dG_dS = ((Ld * ne / S) * (-1.0 / s - (g - 1.0) * y + y * e / s)
             - (Lf * ny / S) * (-1.0 / s - g * e + y * e / s))
    dG_dsig = ((Ld * ne / sig) * (-e - 2.0 * g * lam * y + e * y * y)
               + (Lf * ny / sig) * (y + 2.0 * g * lam * e - y * e * e))

    value = phi * M
    delta = phi * dM_dS
    vega_raw = -(2.0 * g * lam / sig) * M + (eta / sig) * G
    vanna = phi * ((2.0 * g / (sig * S)) * M - (2.0 * g * lam / sig) * dM_dS
                   + (eta / sig) * dG_dS)
    volga = phi * ((6.0 * g * lam / (sig * sig)) * M
                   - (2.0 * g * lam / sig) * vega_raw
                   - (eta / (sig * sig)) * G
                   + (eta / sig) * dG_dsig)
    return GreekSet(value, delta, phi * vega_raw, vanna, volga)


def _alpha(env: MarketEnvironment) -> float:
    return (env.r_d - env.r_f - 0.5 * env.sigma * env.sigma) / (env.sigma * env.sigma)


def _kernels(env: MarketEnvironment, phi: OptionDirection, eta: BarrierSide,
             strike: float, barrier: float) -> tuple:
    p, e = int(phi), int(eta)
    return (_kernel_direct(env, p, strike, strike),
            _kernel_direct(env, p, strike, barrier),
            _kernel_reflected(env, p, e, strike, barrier, mirror_strike=True),
            _kernel_reflected(env, p, e, strike, barrier, mirror_strike=False))


def abcd(env: MarketEnvironment, phi: OptionDirection, eta: BarrierSide,
         strike: float, barrier: float) -> AbcdValues:
    """Raw decomposition parameters for one (direction, side, K, B) tuple.

    This is the bare kernel: the barrier may sit anywhere relative to
    spot, breach checks belong to the spec types.
    """
    if strike <= 0.0 or barrier <= 0.0:
        raise DomainError("strike and barrier must be positive")
    ka, kb, kc, kd = _kernels(env, phi, eta, strike, barrier)
    return AbcdValues(ka.value, kb.value, kc.value, kd.value, _alpha(env))


def greeks_abcd(env: MarketEnvironment, phi: OptionDirection, eta: BarrierSide,
                strike: float, barrier: float) -> tuple:
    """GreekSets of the four decomposition parameters, in (A, B, C, D) order."""
    if strike <= 0.0 or barrier <= 0.0:
        raise DomainError("strike and barrier must be positive")
    return _kernels(env, phi, eta, strike, barrier)


def _clamped_combine(row, a: float, b: float, c: float, d: float) -> float:
    price = row.combine(a, b, c, d)
    if price < 0.0:
        if price < -_NEGATIVE_CLAMP:
            raise NumericalError(
                f"barrier price {price!r} below the negative tolerance; "
                f"inputs are outside the reliable range of the closed form")
        price = 0.0
    return price


def price_single_barrier(env: MarketEnvironment, spec: SingleBarrierSpec) -> float:
    """Price one single-barrier option from its table-row recipe."""
    spec.validate_against(env)
    row = classify_single_barrier(spec)
    vals = abcd(env, spec.direction, spec.side, spec.strike, spec.barrier)
    return _clamped_combine(row, vals.a, vals.b, vals.c, vals.d)


def greeks_single_barrier(env: MarketEnvironment, spec: SingleBarrierSpec) -> GreekSet:
    """Analytic GreekSet of a single-barrier option.

    The recipe coefficients carry over from the price because the row
    classification is locally constant in spot and volatility; exactly on
    the strike/barrier boundary the combination is ambiguous and rejected.
    """
    spec.validate_against(env)
    if spec.strike == spec.barrier:
        raise PreconditionError(
            "strike equals barrier: on the classification boundary the Greek "
            "recipe is ambiguous; price only, or move off the boundary")
    row = classify_single_barrier(spec)
    ka, kb, kc, kd = _kernels(env, spec.direction, spec.side, spec.strike, spec.barrier)
    ca, cb, cc, cd = row.coefficients
    combined = ca * ka + cb * kb + cc * kc + cd * kd
    value = _clamped_combine(row, ka.value, kb.value, kc.value, kd.value)
    return GreekSet(value, combined.delta, combined.vega, combined.vanna, combined.volga)
