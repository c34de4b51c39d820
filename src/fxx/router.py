"""Dispatch of price and Greek requests over every supported contract type.

Each contract type is described once, in ``_CONTRACTS``: its JSON schema,
its price route and rule id, its closed-form Greeks and the barrier groups
the Monte Carlo payoff thins against. Finite-difference Greeks take one
route for every contract: central differences of its price, with the spot
stencil kept strictly on spot's side of those barriers.
"""

from dataclasses import replace
from typing import Callable, NamedTuple, Optional

from .contracts import (BarrierSide, DoubleBarrierSpec, GreekSet, KikoSpec, KnockType,
                        MarketEnvironment, SingleBarrierSpec, VanillaSpec,
                        classify_single_barrier)
from .double_barrier import SeriesConfig, classify_kiko, kiki_price, kiko_price, koko_price
from .errors import DomainError, PreconditionError
from .greeks_fd import FdBumps, fd_greeks
from .single_barrier import greeks_single_barrier, price_single_barrier
from .vanilla import gk_greeks, gk_price


class _Contract(NamedTuple):
    schema: str              # "type" of the JSON contract object
    fields: dict             # JSON field -> spec field
    price: Callable          # (env, spec, cfg) -> price
    rule: Callable           # spec -> rule id
    analytic: Optional[Callable]   # (env, spec) -> GreekSet; None: no closed form
    noun: str                # plural name used in notices
    barriers: Callable       # spec -> (knock-out group, knock-in group) of (level, side)


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
        lambda env, spec: gk_greeks(env, spec.direction, spec.strike), "vanillas",
        lambda spec: ((), ())),
    SingleBarrierSpec: _Contract(
        "single_barrier", {"direction": "direction", "strike": "strike",
                           "barrier": "barrier", "side": "side", "knock": "knock"},
        _single_price, lambda spec: classify_single_barrier(spec).rule_id,
        greeks_single_barrier, "single barriers",
        lambda spec: _by_knock(spec.knock, ((spec.barrier, spec.side),))),
    DoubleBarrierSpec: _Contract(
        "double_barrier", {"direction": "direction", "strike": "strike",
                           "lower_barrier": "lower", "upper_barrier": "upper",
                           "knock": "knock"},
        _corridor_price, _corridor_rule, None, "double barriers",
        lambda spec: _by_knock(spec.knock, ((spec.lower, BarrierSide.LOWER),
                                            (spec.upper, BarrierSide.UPPER)))),
    KikoSpec: _Contract(
        "kiko", {"direction": "direction", "strike": "strike",
                 "in_barrier": "barrier_in", "in_side": "side_in",
                 "out_barrier": "barrier_out", "out_side": "side_out"},
        kiko_price, classify_kiko, None, "in/out barrier pairs",
        lambda spec: (((spec.barrier_out, spec.side_out),),
                      ((spec.barrier_in, spec.side_in),))),
}


def _lookup(spec) -> _Contract:
    try:
        return _CONTRACTS[type(spec)]
    except KeyError:
        raise DomainError(f"unsupported contract type {type(spec).__name__}") from None


def price_contract(env: MarketEnvironment, spec,
                   series_cfg: SeriesConfig = SeriesConfig()) -> tuple:
    """Price any supported contract; returns (price, rule identifier)."""
    entry = _lookup(spec)
    spec.validate_against(env)
    return entry.price(env, spec, series_cfg), entry.rule(spec)


def greeks_contract(env: MarketEnvironment, spec, method: str = "analytic") -> tuple:
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
    bumps = _stencil_bumps(env, sum(entry.barriers(spec), ()))
    if isinstance(spec, DoubleBarrierSpec) and spec.knock == KnockType.IN:
        # the vanilla leg in closed form keeps KIKI + KOKO = vanilla to round-off
        out = replace(spec, knock=KnockType.OUT)
        knock_out = fd_greeks(lambda e: koko_price(e, out), env, bumps)
        return gk_greeks(env, spec.direction, spec.strike) - knock_out, "fd", notices
    cfg = SeriesConfig()  # Greeks difference prices at the library's default cap
    return fd_greeks(lambda e: entry.price(e, spec, cfg), env, bumps), "fd", notices


_MIN_REL_BUMP = 1e-12


def _stencil_bumps(env: MarketEnvironment, barriers: tuple) -> FdBumps:
    """Default bumps, the volatility bump below sigma / 2. When the spot
    stencil point S - side * h would reach one of the (level, side)
    ``barriers`` (side is +1 below spot), h is half the room to the nearest."""
    S, dS_rel = env.spot, FdBumps.dS_rel
    h = dS_rel * S  # h as fd_greeks computes it
    if any((S - side * h - level) * side <= 0.0 for level, side in barriers):
        room = min(abs(S - level) for level, _side in barriers)
        if 0.5 * room <= _MIN_REL_BUMP * S:
            raise PreconditionError(f"spot {S} is too close to a barrier to difference "
                                    f"across (room {room!r}); Greeks unavailable here")
        dS_rel = 0.5 * room / S
    return FdBumps(dS_rel, min(FdBumps.dSigma_abs, 0.5 * env.sigma))


def koko_greeks(env: MarketEnvironment, spec: DoubleBarrierSpec) -> GreekSet:
    """Finite-difference Greeks of the double knock-out."""
    if spec.knock != KnockType.OUT:
        raise PreconditionError("koko_greeks expects a knock-out corridor spec")
    return greeks_contract(env, spec, "fd")[0]


def kiki_greeks(env: MarketEnvironment, spec: DoubleBarrierSpec) -> GreekSet:
    """Double knock-in Greeks from parity with the vanilla closed form."""
    if spec.knock != KnockType.IN:
        raise PreconditionError("kiki_greeks expects a knock-in corridor spec")
    return greeks_contract(env, spec, "fd")[0]


def kiko_greeks(env: MarketEnvironment, spec: KikoSpec) -> GreekSet:
    """Finite-difference Greeks of the replicated in/out pair."""
    return greeks_contract(env, spec, "fd")[0]
