"""Dispatch of price and Greek requests over every supported contract type.

Each contract type is described once, in ``_CONTRACTS``: its JSON schema,
its price route and rule id, its Greek routes and the barrier groups the
Monte Carlo payoff thins against.
"""

from typing import Callable, NamedTuple, Optional

from .contracts import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,
                        MarketEnvironment, SingleBarrierSpec, VanillaSpec,
                        classify_single_barrier)
from .double_barrier import (SeriesConfig, classify_kiko, kiki_greeks,
                             kiki_price, kiko_greeks, kiko_price, koko_greeks,
                             koko_price)
from .errors import DomainError
from .greeks_fd import FdBumps, fd_greeks
from .single_barrier import greeks_single_barrier, price_single_barrier
from .vanilla import gk_greeks, gk_price


class _Contract(NamedTuple):
    schema: str              # "type" of the JSON contract object
    fields: dict             # JSON field -> spec field
    price: Callable          # (env, spec, cfg) -> price
    rule: Callable           # spec -> rule id
    analytic: Optional[Callable]   # (env, spec) -> GreekSet; None: no closed form
    fd: Callable             # (env, spec, cfg, bumps) -> GreekSet
    noun: str                # plural name used in notices
    barriers: Callable       # spec -> (knock-out group, knock-in group) of (level, side)


def _plain_fd(price: Callable) -> Callable:
    return lambda env, spec, cfg, bumps: fd_greeks(lambda e: price(e, spec, cfg), env, bumps)


def _by_knock(knock: KnockType, group: tuple) -> tuple:
    return (group, ()) if knock == KnockType.OUT else ((), group)


def _corridor_rule(spec: DoubleBarrierSpec) -> str:
    knock = "KOKO" if spec.knock == KnockType.OUT else "KIKI"
    return f"{knock}-{'call' if int(spec.direction) > 0 else 'put'}"


def _vanilla_price(env, spec, cfg):
    return gk_price(env, spec.direction, spec.strike)


def _single_price(env, spec, cfg):
    return price_single_barrier(env, spec)


def _corridor_price(env, spec, cfg):
    return (koko_price if spec.knock == KnockType.OUT else kiki_price)(env, spec, cfg)


_CONTRACTS = {
    VanillaSpec: _Contract(
        "vanilla", {"direction": "direction", "strike": "strike"},
        _vanilla_price, lambda spec: "vanilla",
        lambda env, spec: gk_greeks(env, spec.direction, spec.strike),
        _plain_fd(_vanilla_price), "vanillas",
        lambda spec: ((), ())),
    SingleBarrierSpec: _Contract(
        "single_barrier", {"direction": "direction", "strike": "strike",
                           "barrier": "barrier", "side": "side", "knock": "knock"},
        _single_price, lambda spec: classify_single_barrier(spec).rule_id,
        greeks_single_barrier, _plain_fd(_single_price), "single barriers",
        lambda spec: _by_knock(spec.knock, ((spec.barrier, spec.side),))),
    DoubleBarrierSpec: _Contract(
        "double_barrier", {"direction": "direction", "strike": "strike",
                           "lower_barrier": "lower", "upper_barrier": "upper",
                           "knock": "knock"},
        _corridor_price, _corridor_rule, None,
        lambda env, spec, cfg, bumps: (
            koko_greeks if spec.knock == KnockType.OUT else kiki_greeks)(env, spec, cfg, bumps),
        "double barriers",
        lambda spec: _by_knock(spec.knock, ((spec.lower, BarrierSide.LOWER),
                                            (spec.upper, BarrierSide.UPPER)))),
    KikoSpec: _Contract(
        "kiko", {"direction": "direction", "strike": "strike",
                 "in_barrier": "barrier_in", "in_side": "side_in",
                 "out_barrier": "barrier_out", "out_side": "side_out"},
        kiko_price, classify_kiko, None,
        kiko_greeks, "in/out barrier pairs",
        lambda spec: (((spec.barrier_out, spec.side_out),),
                      ((spec.barrier_in, spec.side_in),))),
}


def _lookup(spec) -> _Contract:
    try:
        return _CONTRACTS[type(spec)]
    except KeyError:
        raise DomainError(f"unsupported contract type {type(spec).__name__}") from None


def price_contract(env: MarketEnvironment, spec,
                   series_cfg: Optional[SeriesConfig] = None) -> tuple:
    """Price any supported contract; returns (price, rule identifier)."""
    entry = _lookup(spec)
    spec.validate_against(env)
    return entry.price(env, spec, series_cfg or SeriesConfig()), entry.rule(spec)


def greeks_contract(env: MarketEnvironment, spec, method: str = "analytic",
                    series_cfg: Optional[SeriesConfig] = None,
                    bumps: Optional[FdBumps] = None) -> tuple:
    """GreekSet of any supported contract; returns (greeks, method used, notices).

    ``method`` is "analytic" or "fd"; contracts without closed forms fall
    back to finite differences with a notice.
    """
    if method not in ("analytic", "fd"):
        raise DomainError(f"method must be 'analytic' or 'fd', got {method!r}")
    entry = _lookup(spec)
    spec.validate_against(env)
    if method == "analytic" and entry.analytic is not None:
        return entry.analytic(env, spec), "analytic", []
    notices = []
    if method == "analytic":
        notices.append(f"no closed-form Greeks for {entry.noun}; finite differences used")
    greeks = entry.fd(env, spec, series_cfg or SeriesConfig(), bumps or FdBumps())
    return greeks, "fd", notices
