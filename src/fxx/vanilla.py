"""Two-rate vanilla FX pricing and the direct kernel behind its Greeks.

The direct kernel is the vanilla formula with the log argument taken
against a reference level: the strike for a vanilla (and for the barrier
decomposition parameter A), the barrier for parameter B. Vanilla and
barrier sensitivities therefore share a single closed-form implementation.
"""

import math

from .contracts import GreekSet, MarketEnvironment, OptionDirection
from .errors import DomainError
from .num_core import log_ratio
from .num_core import std_normal_cdf as _N
from .num_core import std_normal_pdf as _n

# Below this diffusion scale d1/d2 degenerate; price the forward limit.
_DETERMINISTIC_LIMIT = 1e-12
_MIN_SIG_SQRT_T = 1e-10


def _check_env(env: MarketEnvironment) -> float:
    s = env.sigma * math.sqrt(env.T)
    if s < _MIN_SIG_SQRT_T:
        raise DomainError(
            f"sigma*sqrt(T)={s!r} below {_MIN_SIG_SQRT_T}; barrier kernels need "
            "a non-degenerate diffusion scale")
    return s


def d1_d2(env: MarketEnvironment, strike: float) -> tuple:
    s = env.sigma * math.sqrt(env.T)
    d1 = (log_ratio(env.spot, strike) + (env.drift + 0.5 * env.sigma * env.sigma) * env.T) / s
    return d1, d1 - s


def _check_strike(strike: float) -> None:
    if strike <= 0.0 or not math.isfinite(strike):
        raise DomainError(f"strike must be positive and finite, got {strike!r}")


def gk_price(env: MarketEnvironment, direction: OptionDirection, strike: float) -> float:
    """Vanilla FX option price under flat rates and volatility."""
    _check_strike(strike)
    phi = int(direction)
    df_f = math.exp(-env.r_f * env.T)
    df_d = math.exp(-env.r_d * env.T)
    if env.sigma * math.sqrt(env.T) < _DETERMINISTIC_LIMIT:
        return max(phi * (env.spot * df_f - strike * df_d), 0.0)
    d1, d2 = d1_d2(env, strike)
    return phi * (env.spot * df_f * _N(phi * d1) - strike * df_d * _N(phi * d2))


def _kernel_direct(env: MarketEnvironment, phi: int, strike: float,
                   log_ref: float) -> GreekSet:
    """Value and Greeks of phi*(S F N(phi u) - K D N(phi(u - s))).

    ``log_ref`` is the level inside the log (strike for parameter A,
    barrier for parameter B); the cash leg always uses the strike.
    """
    S, T, sig = env.spot, env.T, env.sigma
    s = _check_env(env)
    F = math.exp(-env.r_f * T)
    D = math.exp(-env.r_d * T)
    u, e = d1_d2(env, log_ref)
    nu, ne = _n(u), _n(e)
    value = phi * (S * F * _N(phi * u) - strike * D * _N(phi * e))
    delta = phi * F * _N(phi * u) + (S * F * nu - strike * D * ne) / (S * s)
    vega = (u * strike * D * ne - e * S * F * nu) / sig
    vanna = ((strike * D * ne / (S * s)) * (1.0 - u * e)
             - (F * nu / s) * (1.0 + e * s - u * e)) / sig
    volga = (-vega / sig
             + (e * (u * u - 1.0) * strike * D * ne
                + u * (1.0 - e * e) * S * F * nu) / (sig * sig))
    return GreekSet(value, delta, vega, vanna, volga)


def gk_greeks(env: MarketEnvironment, direction: OptionDirection, strike: float) -> GreekSet:
    """Vanilla value plus delta/vega/vanna/volga in closed form: the direct
    kernel with the strike as log reference, so ``.value`` is ``gk_price``."""
    _check_strike(strike)
    return _kernel_direct(env, int(direction), strike, strike)
