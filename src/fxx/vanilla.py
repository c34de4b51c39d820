"""Two-rate vanilla FX pricing and the direct kernel.

Every kernel value, vanilla or barrier, is ``_value``:
phi*(P N(w x) - Q N(w (x - s))). The direct kernel is the vanilla formula,
P = S F, Q = K D, w = phi, with x the d1-term of S against the strike (a
vanilla, barrier parameter A) or the barrier (parameter B);
``_direct_greeks`` adds its closed-form Greeks as a plain tuple. It is the
only closed-form Greek kernel: barrier parameters C and D are the direct
kernel at the mirrored spot B^2/S, and ``single_barrier`` takes their
Greeks from it by the product rule. The
vanilla kernel, ``_gk`` for the price and ``_gk_greeks`` for the Greek
tuple, takes the volatility and the discount factors (F, D) explicitly:
``gk_price`` and ``gk_greeks`` pass the environment's, and the Vanna-Volga
pivot system prices its pivots at their own volatilities with one
discount pair. A result that leaves the double range raises
NumericalError: the inputs were valid, the arithmetic was not.
"""

import math

from .contracts import GreekSet, MarketEnvironment, OptionDirection
from .errors import DomainError, NumericalError
from .num_core import log_ratio
from .num_core import std_normal_cdf as _N
from .num_core import std_normal_pdf as _n

# Below this diffusion scale d1/d2 degenerate; price the forward limit.
_DETERMINISTIC_LIMIT = 1e-12
_MIN_SIG_SQRT_T = 1e-10


def _check_scale(sigma: float, T: float) -> float:
    """The diffusion scale sigma sqrt(T) the Greek kernels divide by."""
    s = sigma * math.sqrt(T)
    if s < _MIN_SIG_SQRT_T:
        raise DomainError(
            f"sigma*sqrt(T)={s!r} below {_MIN_SIG_SQRT_T}; barrier kernels need "
            "a non-degenerate diffusion scale")
    return s


def _out_of_range(what: str) -> NumericalError:
    return NumericalError(f"{what} leaves the double range; the inputs are "
                          "outside the closed form's numerical range")


def _discounts(env: MarketEnvironment) -> tuple:
    """Foreign and domestic discount factors exp(-r_f T), exp(-r_d T)."""
    try:
        return math.exp(-env.r_f * env.T), math.exp(-env.r_d * env.T)
    except OverflowError:
        worst = max(-env.r_f * env.T, -env.r_d * env.T)
        raise _out_of_range(f"discount factor exp({worst!r})") from None


def _finite(greeks: tuple) -> tuple:
    """``greeks`` itself; a non-finite kernel result is an arithmetic failure."""
    if not all(map(math.isfinite, greeks)):
        raise _out_of_range(f"kernel result {greeks!r}")
    return greeks


def _greek_set(greeks: tuple) -> GreekSet:
    """GreekSet of kernel results; a non-finite one is an arithmetic failure."""
    return GreekSet(*_finite(greeks))


def _d1(env: MarketEnvironment, strike: float, sigma: float, s: float) -> float:
    """d1 of spot against ``strike`` at volatility ``sigma``, s = sigma sqrt(T)."""
    return (log_ratio(env.spot, strike) + (env.drift + 0.5 * sigma * sigma) * env.T) / s


def d1_d2(env: MarketEnvironment, strike: float) -> tuple:
    """(d1, d2) of a vanilla; (None, None) in the forward limit, sigma
    sqrt(T) below 1e-12, where ``gk_price`` returns the forward value."""
    s = env.sigma * math.sqrt(env.T)
    if s < _DETERMINISTIC_LIMIT:
        return None, None
    d1 = _d1(env, strike, env.sigma, s)
    return d1, d1 - s


def _check_strike(strike: float) -> None:
    if strike <= 0.0 or not math.isfinite(strike):
        raise DomainError(f"strike must be positive and finite, got {strike!r}")


def _value(phi: int, P: float, Q: float, w: int, x: float, s: float) -> float:
    """phi*(P N(w x) - Q N(w (x - s))), the value of every kernel."""
    value = phi * (P * _N(w * x) - Q * _N(w * (x - s)))
    if not math.isfinite(value):
        raise _out_of_range(f"kernel value {value!r}")
    return value


def _direct_greeks(S: float, sig: float, phi: int, strike: float, s: float,
                   F: float, D: float, u: float) -> tuple:
    """(value, delta, vega, vanna, volga) of the direct kernel at spot ``S``
    and volatility ``sig`` with d1-term ``u``; the cash leg always uses the
    strike."""
    value = _value(phi, S * F, strike * D, phi, u, s)
    e = u - s
    nu, ne = _n(u), _n(e)
    delta = phi * F * _N(phi * u) + (S * F * nu - strike * D * ne) / (S * s)
    vega = (u * strike * D * ne - e * S * F * nu) / sig
    vanna = ((strike * D * ne / (S * s)) * (1.0 - u * e)
             - (F * nu / s) * (1.0 + e * s - u * e)) / sig
    volga = (-vega / sig
             + (e * (u * u - 1.0) * strike * D * ne
                + u * (1.0 - e * e) * S * F * nu) / (sig * sig))
    return value, delta, vega, vanna, volga


def _gk(env: MarketEnvironment, phi: int, strike: float, sigma: float,
        F: float, D: float) -> float:
    """Vanilla price at volatility ``sigma`` and discount factors (F, D) of
    a checked strike; below the deterministic limit, the forward value."""
    s = sigma * math.sqrt(env.T)
    if s < _DETERMINISTIC_LIMIT:
        price = max(phi * (env.spot * F - strike * D), 0.0)
        if not math.isfinite(price):
            raise _out_of_range(f"forward value {price!r}")
        return price
    return _value(phi, env.spot * F, strike * D, phi, _d1(env, strike, sigma, s), s)


def _gk_greeks(env: MarketEnvironment, phi: int, strike: float, sigma: float, s: float,
               F: float, D: float) -> tuple:
    """Finite (value, delta, vega, vanna, volga) of ``_gk`` in closed form, at
    a checked strike and diffusion scale s = sigma sqrt(T)."""
    return _finite(_direct_greeks(env.spot, sigma, phi, strike, s, F, D,
                                  _d1(env, strike, sigma, s)))


def gk_price(env: MarketEnvironment, direction: OptionDirection, strike: float) -> float:
    """Vanilla FX option price under flat rates and volatility."""
    _check_strike(strike)
    return _gk(env, int(direction), strike, env.sigma, *_discounts(env))


def gk_greeks(env: MarketEnvironment, direction: OptionDirection, strike: float) -> GreekSet:
    """Vanilla value plus delta/vega/vanna/volga in closed form: the direct
    kernel with the strike as log reference, so ``.value`` is ``gk_price``."""
    _check_strike(strike)
    s = _check_scale(env.sigma, env.T)
    F, D = _discounts(env)
    return GreekSet(*_gk_greeks(env, int(direction), strike, env.sigma, s, F, D))
