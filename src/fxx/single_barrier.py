"""Closed-form single-barrier prices and their analytic Greeks.

Every barrier variant is a signed combination of four decomposition
parameters (Reiner & Rubinstein, 1991), and so are its Greeks. ``_setup``
computes what the four share once per call: the discount factors, the
reflection exponent g, the mirrored spot S' = B^2/S, the reflection power
P = (B/S)^(g-1), and the d1-terms of S/K (A), S/B (B), S'/K (C) and
S'/B (D). A and B are the direct kernel of ``vanilla``; by the reflection
principle C and D are phi eta P times the direct kernel of direction eta
(the barrier side) at the mirrored spot. At K = B the d1-terms of C and D
are the same bits, so C = D exactly. Each value is ``vanilla._value``; the
Greeks are ``vanilla._direct_greeks``, the one closed-form Greek kernel,
with the product rule on ln P for C and D. They are plain tuples combined
with the row coefficients the prices use; prices never compute them. A
40-digit oracle and a finite-difference engine check them in the tests.
"""

import math

from .contracts import (BarrierSide, GreekSet, MarketEnvironment, OptionDirection,
                        SingleBarrierSpec, TableRow, classify_single_barrier)
from .errors import DomainError, NumericalError
from .num_core import log_ratio
from .vanilla import (_check_scale, _direct_greeks, _discounts, _greek_set, _out_of_range,
                      _value)

_NEGATIVE_CLAMP = 1e-10
# largest exponent of a barrier power: leaves room for the spot/strike
# factors before the double range ends
_LOG_OVERFLOW = 690.0


def _setup(env: MarketEnvironment, strike: float, barrier: float) -> tuple:
    """(s, F, D, g, lam = ln(B/S), S' = B^2/S, P = (B/S)^(g-1), d1-terms of
    A, B, C, D)."""
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
    mirror = barrier * barrier / S
    if not 0.0 < mirror < math.inf:
        raise _out_of_range(f"mirrored spot {barrier!r}^2/{S!r}")
    nu_T = (env.drift + 0.5 * sig * sig) * env.T
    return (s, F, D, g, lam, mirror, math.exp(pow_lo),
            (log_ratio(S, strike) + nu_T) / s, (log_ratio(S, barrier) + nu_T) / s,
            (lam + log_ratio(barrier, strike) + nu_T) / s, (lam + nu_T) / s)


def _values(env: MarketEnvironment, phi: int, eta: int, strike: float,
            barrier: float) -> tuple:
    """Values of (A, B, C, D); C and D may leave the double range."""
    s, F, D, _g, _lam, mirror, P, xa, xb, xc, xd = _setup(env, strike, barrier)
    w, SF, MF, Q = phi * eta * P, env.spot * F, mirror * F, strike * D
    return (_value(phi, SF, Q, phi, xa, s), _value(phi, SF, Q, phi, xb, s),
            w * _value(eta, MF, Q, eta, xc, s), w * _value(eta, MF, Q, eta, xd, s))


def _greeks(env: MarketEnvironment, phi: int, eta: int, strike: float,
            barrier: float) -> tuple:
    """(value, delta, vega, vanna, volga) tuples of (A, B, C, D). C and D
    are phi eta P V(S', sigma), V the direct kernel of direction eta at the
    mirrored spot: their Greeks are the product rule on
    ln P = (g - 1) ln(B/S), with dS'/dS = -S'/S."""
    s, F, D, g, lam, mirror, P, xa, xb, xc, xd = _setup(env, strike, barrier)
    S, sig = env.spot, env.sigma
    w, dmirror = phi * eta * P, -mirror / S
    # d ln P by S, by sigma, by S and sigma, and by sigma twice
    p_S, p_sig = -(g - 1.0) / S, -2.0 * g * lam / sig
    p_Ssig, p_sigsig = 2.0 * g / (sig * S), 6.0 * g * lam / (sig * sig)

    def reflected(y):
        v, dv, vega, vanna, volga = _direct_greeks(mirror, sig, eta, strike, s, F, D, y)
        dv, vanna = dmirror * dv, dmirror * vanna
        vega_P = p_sig * v + vega  # d(P V)/dsigma over P
        return (w * v, w * (p_S * v + dv), w * vega_P,
                w * (p_S * vega_P + p_Ssig * v + p_sig * dv + vanna),
                w * (p_sig * vega_P + p_sigsig * v + p_sig * vega + volga))

    return (_direct_greeks(S, sig, phi, strike, s, F, D, xa),
            _direct_greeks(S, sig, phi, strike, s, F, D, xb), reflected(xc), reflected(xd))


def greeks_abcd(env: MarketEnvironment, phi: OptionDirection, eta: BarrierSide,
                strike: float, barrier: float) -> tuple:
    """GreekSets of the four decomposition parameters, in (A, B, C, D) order.

    This is the bare kernel: the barrier may sit anywhere relative to
    spot, breach checks belong to the spec types.
    """
    if strike <= 0.0 or barrier <= 0.0:
        raise DomainError("strike and barrier must be positive")
    return tuple(map(_greek_set, _greeks(env, int(phi), int(eta), strike, barrier)))


def _clamp(price: float) -> float:
    if not math.isfinite(price):  # a C or D term left the double range
        raise _out_of_range(f"barrier price {price!r}")
    if price < -_NEGATIVE_CLAMP:
        raise NumericalError(
            f"barrier price {price!r} below the negative tolerance; "
            f"inputs are outside the reliable range of the closed form")
    return max(price, 0.0)  # round-off below zero is zero


def _row_price(env: MarketEnvironment, row: TableRow, strike: float, barrier: float) -> float:
    """Clamped price of a table row's recipe at an unbreached barrier."""
    return _clamp(row.combine(*_values(env, row.phi, row.eta, strike, barrier)))


def price_single_barrier(env: MarketEnvironment, spec: SingleBarrierSpec) -> float:
    """Price one single-barrier option from its table-row recipe."""
    spec.validate_against(env)
    return _row_price(env, classify_single_barrier(spec), spec.strike, spec.barrier)


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
