"""Closed-form single-barrier prices and their analytic Greeks.

Every barrier variant is a signed combination of four decomposition
parameters (Reiner & Rubinstein, 1991), and so are its Greeks. ``_setup``
computes what the four share once per call: the discount factors, the
reflection exponent, the two reflection legs S F (B/S)^(g+1) and
K D (B/S)^(g-1), and the d1-terms of S/K (A), S/B (B), B^2/(S K) (C) and
B/S (D). Each value is ``vanilla._value``: A and B are the direct kernel,
C and D the reflected kernel on the legs with the barrier side as the CDF
sign. The Greeks are the kernels' exact chain-rule derivatives, plain
tuples combined with the row coefficients the prices use; prices never
compute them. A finite-difference engine cross-checks them in the tests.
"""

import math
from dataclasses import dataclass

from .contracts import (BarrierSide, GreekSet, MarketEnvironment, OptionDirection,
                        SingleBarrierSpec, classify_single_barrier)
from .errors import DomainError, NumericalError
from .num_core import log_ratio
from .num_core import std_normal_cdf as _N
from .num_core import std_normal_pdf as _n
from .vanilla import _check_scale, _direct_greeks, _discounts, _greek_set, _value

_NEGATIVE_CLAMP = 1e-10
# largest exponent of a barrier power: leaves room for the spot/strike
# factors before the double range ends
_LOG_OVERFLOW = 690.0


@dataclass(frozen=True)
class AbcdValues:
    """Values of the four decomposition parameters plus the reflection exponent."""

    a: float
    b: float
    c: float
    d: float
    alpha: float


def _setup(env: MarketEnvironment, strike: float, barrier: float) -> tuple:
    """(s, F, D, g, lam = ln(B/S), Lf, Ld, d1-terms of A, B, C, D)."""
    S, sig = env.spot, env.sigma
    s = _check_scale(sig, env.T)
    F, D = _discounts(env)
    g = 2.0 * env.drift / (sig * sig)
    lam = log_ratio(barrier, S)
    pow_hi = (g + 1.0) * lam
    pow_lo = (g - 1.0) * lam
    if abs(pow_hi) > _LOG_OVERFLOW or abs(pow_lo) > _LOG_OVERFLOW:
        raise NumericalError(
            f"barrier reflection power exp({max(abs(pow_hi), abs(pow_lo)):.1f}) "
            f"overflows for barrier/spot={barrier / S!r}, sigma={sig!r}")
    Lf, Ld = S * F * math.exp(pow_hi), strike * D * math.exp(pow_lo)
    nu_T = (env.drift + 0.5 * sig * sig) * env.T
    return (s, F, D, g, lam, Lf, Ld,
            (log_ratio(S, strike) + nu_T) / s, (log_ratio(S, barrier) + nu_T) / s,
            (log_ratio(barrier * barrier, S * strike) + nu_T) / s, (lam + nu_T) / s)


def _reflected_greeks(env: MarketEnvironment, phi: int, eta: int, s: float, g: float,
                      lam: float, Lf: float, Ld: float, y: float) -> tuple:
    """(value, delta, vega, vanna, volga) of the reflected kernel
    phi*M, M = Lf N(eta y) - Ld N(eta (y - s)), with d1-term ``y``."""
    S, sig = env.spot, env.sigma
    value = _value(phi, Lf, Ld, eta, y, s)
    M = phi * value  # exact: phi is +-1
    e = y - s
    Ny, Ne = _N(eta * y), _N(eta * e)
    ny, ne = _n(y), _n(e)
    dM_dS = (-(g / S) * Lf * Ny + ((g - 1.0) / S) * Ld * Ne
             - (eta / (S * s)) * (Lf * ny - Ld * ne))
    G = y * Ld * ne - e * Lf * ny
    dG_dS = ((Ld * ne / S) * (-1.0 / s - (g - 1.0) * y + y * e / s)
             - (Lf * ny / S) * (-1.0 / s - g * e + y * e / s))
    dG_dsig = ((Ld * ne / sig) * (-e - 2.0 * g * lam * y + e * y * y)
               + (Lf * ny / sig) * (y + 2.0 * g * lam * e - y * e * e))

    vega_raw = -(2.0 * g * lam / sig) * M + (eta / sig) * G
    vanna = phi * ((2.0 * g / (sig * S)) * M - (2.0 * g * lam / sig) * dM_dS
                   + (eta / sig) * dG_dS)
    volga = phi * ((6.0 * g * lam / (sig * sig)) * M
                   - (2.0 * g * lam / sig) * vega_raw
                   - (eta / (sig * sig)) * G
                   + (eta / sig) * dG_dsig)
    return value, phi * dM_dS, phi * vega_raw, vanna, volga


def _values(env: MarketEnvironment, phi: int, eta: int, strike: float,
            barrier: float) -> tuple:
    """Values of (A, B, C, D)."""
    s, F, D, _g, _lam, Lf, Ld, xa, xb, xc, xd = _setup(env, strike, barrier)
    P, Q = env.spot * F, strike * D
    return (_value(phi, P, Q, phi, xa, s), _value(phi, P, Q, phi, xb, s),
            _value(phi, Lf, Ld, eta, xc, s), _value(phi, Lf, Ld, eta, xd, s))


def _greeks(env: MarketEnvironment, phi: int, eta: int, strike: float,
            barrier: float) -> tuple:
    """(value, delta, vega, vanna, volga) tuples of (A, B, C, D)."""
    s, F, D, g, lam, Lf, Ld, xa, xb, xc, xd = _setup(env, strike, barrier)
    return (_direct_greeks(env.spot, env.sigma, phi, strike, s, F, D, xa),
            _direct_greeks(env.spot, env.sigma, phi, strike, s, F, D, xb),
            _reflected_greeks(env, phi, eta, s, g, lam, Lf, Ld, xc),
            _reflected_greeks(env, phi, eta, s, g, lam, Lf, Ld, xd))


def abcd(env: MarketEnvironment, phi: OptionDirection, eta: BarrierSide,
         strike: float, barrier: float) -> AbcdValues:
    """Raw decomposition parameters for one (direction, side, K, B) tuple.

    This is the bare kernel: the barrier may sit anywhere relative to
    spot, breach checks belong to the spec types.
    """
    if strike <= 0.0 or barrier <= 0.0:
        raise DomainError("strike and barrier must be positive")
    alpha = (env.r_d - env.r_f - 0.5 * env.sigma * env.sigma) / (env.sigma * env.sigma)
    return AbcdValues(*_values(env, int(phi), int(eta), strike, barrier), alpha)


def greeks_abcd(env: MarketEnvironment, phi: OptionDirection, eta: BarrierSide,
                strike: float, barrier: float) -> tuple:
    """GreekSets of the four decomposition parameters, in (A, B, C, D) order."""
    if strike <= 0.0 or barrier <= 0.0:
        raise DomainError("strike and barrier must be positive")
    return tuple(map(_greek_set, _greeks(env, int(phi), int(eta), strike, barrier)))


def _clamp(price: float) -> float:
    if price < -_NEGATIVE_CLAMP:
        raise NumericalError(
            f"barrier price {price!r} below the negative tolerance; "
            f"inputs are outside the reliable range of the closed form")
    return max(price, 0.0)  # round-off below zero is zero


def price_single_barrier(env: MarketEnvironment, spec: SingleBarrierSpec) -> float:
    """Price one single-barrier option from its table-row recipe."""
    spec.validate_against(env)
    row = classify_single_barrier(spec)
    return _clamp(row.combine(*_values(env, row.phi, row.eta, spec.strike, spec.barrier)))


def greeks_single_barrier(env: MarketEnvironment, spec: SingleBarrierSpec) -> GreekSet:
    """Analytic GreekSet of a single-barrier option.

    The recipe coefficients carry over from the price because the row
    classification depends on the strike and barrier alone, not on spot
    or volatility.
    """
    spec.validate_against(env)
    row = classify_single_barrier(spec)
    sets = _greeks(env, row.phi, row.eta, spec.strike, spec.barrier)
    value, *rest = (row.combine(*parts) for parts in zip(*sets))
    return _greek_set((_clamp(value), *rest))
