"""Properties of the barrier closed forms over random layouts: the closed
forms accept exactly the contracts the Monte Carlo engine accepts, in/out
parity holds for single barriers and corridors at any strike, barrier
prices lie between 0 and the vanilla (a strike at the barrier included),
a corridor knock-out is worth no more than either single knock-out, a
KIKO rule id depends on the barriers alone, the value-only prices equal
the Greek path's values bit for bit,
and far outside desk ranges a price, Greek set (on either route),
Vanna-Volga price or one-path Monte Carlo estimate of any contract is
finite or a typed PricingError."""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fxx import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,
                 MarketEnvironment, McConfig, OptionDirection, PivotQuotes, PricingError,
                 SingleBarrierSpec, TruncationWarning, VanillaSpec, abcd, gk_greeks,
                 gk_price, greeks_abcd, greeks_contract, greeks_single_barrier,
                 kiki_price, koko_price, mc_price, price_contract, price_single_barrier,
                 vv_price)
from fxx.double_barrier import classify_kiko

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# the ranges of bench/book.py KIKO_MARKET; barriers 3-30% from spot
markets = st.builds(MarketEnvironment, spot=st.floats(50.0, 200.0),
                    r_d=st.floats(-0.01, 0.05), r_f=st.floats(-0.01, 0.05),
                    sigma=st.floats(0.1, 0.4), T=st.floats(0.1, 2.0))
distances = st.floats(1.03, 1.3)
moneyness = st.floats(0.5, 1.5)
directions = st.sampled_from((OptionDirection.CALL, OptionDirection.PUT))


def _place(draw, spot: float) -> tuple:
    """(level, side) of a barrier on a random side of spot."""
    factor = draw(distances)
    if draw(st.booleans()):
        return spot * factor, BarrierSide.UPPER
    return spot / factor, BarrierSide.LOWER


@st.composite
def singles(draw, knock=KnockType.OUT, at_barrier=False):
    """(env, SingleBarrierSpec) with the barrier on a random side of spot;
    any strike, or the strike at the barrier."""
    env = draw(markets)
    barrier, side = _place(draw, env.spot)
    strike = barrier if at_barrier else env.spot * draw(moneyness)
    return env, SingleBarrierSpec(draw(directions), strike, barrier, side, knock)


@st.composite
def kikos(draw):
    """(env, KikoSpec) with each barrier on a random side of spot and its
    side flag consistent with that placement; any strike."""
    env = draw(markets)
    (b_in, side_in), (b_out, side_out) = (_place(draw, env.spot) for _ in range(2))
    assume(b_in != b_out)
    return env, KikoSpec(draw(directions), env.spot * draw(moneyness),
                         b_in, side_in, b_out, side_out)


@st.composite
def corridors(draw, knock=KnockType.OUT):
    """(env, DoubleBarrierSpec) around spot; any strike, inside the
    corridor or not."""
    env = draw(markets)
    return env, DoubleBarrierSpec(draw(directions), env.spot * draw(moneyness),
                                  env.spot / draw(distances), env.spot * draw(distances),
                                  knock)


def _raises(fn) -> bool:
    try:
        fn()
    except PricingError:
        return True
    return False


@PROPERTY
@given(st.one_of(kikos(), corridors(KnockType.OUT), corridors(KnockType.IN)))
@pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
def test_closed_form_and_mc_accept_the_same_specs(case):
    env, spec = case
    closed = _raises(lambda: price_contract(env, spec))
    mc = _raises(lambda: mc_price(env, spec, McConfig(n_paths=1, n_steps=1)))
    assert closed == mc


@PROPERTY
@given(corridors())
@pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
def test_corridor_parity_for_any_strike(case):
    env, spec = case
    total = koko_price(env, spec) + kiki_price(env, replace(spec, knock=KnockType.IN))
    assert total == pytest.approx(gk_price(env, spec.direction, spec.strike),
                                  rel=1e-12, abs=1e-12)


@PROPERTY
@given(kikos(), moneyness)
def test_kiko_rule_ignores_strike(case, other):
    env, spec = case
    assert classify_kiko(replace(spec, strike=env.spot * other)) == classify_kiko(spec)


def _vanilla(env, spec) -> float:
    return gk_price(env, spec.direction, spec.strike)


@PROPERTY
@given(singles())
def test_single_barrier_in_plus_out_is_vanilla(case):
    env, out_spec = case
    in_spec = replace(out_spec, knock=KnockType.IN)
    vanilla = _vanilla(env, out_spec)
    total = price_single_barrier(env, in_spec) + price_single_barrier(env, out_spec)
    assert abs(total - vanilla) <= 1e-10 * max(1.0, vanilla)


@PROPERTY
@given(st.one_of(singles(KnockType.OUT), singles(KnockType.IN),
                 singles(KnockType.OUT, at_barrier=True),
                 singles(KnockType.IN, at_barrier=True),
                 corridors(KnockType.OUT), corridors(KnockType.IN)))
@pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
def test_barrier_price_between_zero_and_vanilla(case):
    env, spec = case
    price, _rule = price_contract(env, spec)
    assert 0.0 <= price <= _vanilla(env, spec)


@PROPERTY
@given(corridors())
def test_corridor_knock_out_below_both_single_knock_outs(case):
    env, spec = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        koko = koko_price(env, spec)
    assume(not any(issubclass(w.category, TruncationWarning) for w in caught))
    singles_out = [price_single_barrier(env, SingleBarrierSpec(
        spec.direction, spec.strike, level, side, KnockType.OUT))
        for level, side in ((spec.lower, BarrierSide.LOWER), (spec.upper, BarrierSide.UPPER))]
    assert koko <= min(singles_out) + 1e-10 * max(1.0, _vanilla(env, spec))


@PROPERTY
@given(st.one_of(singles(KnockType.OUT), singles(KnockType.IN)), st.booleans())
def test_value_path_equals_greek_path(case, at_barrier):
    env, spec = case
    if at_barrier:  # singles never draws K = B exactly
        spec = replace(spec, strike=spec.barrier)
    assert price_single_barrier(env, spec) == greeks_single_barrier(env, spec).value
    vals = abcd(env, spec.direction, spec.side, spec.strike, spec.barrier)
    sets = greeks_abcd(env, spec.direction, spec.side, spec.strike, spec.barrier)
    assert (vals.a, vals.b, vals.c, vals.d) == tuple(g.value for g in sets)
    assert gk_price(env, spec.direction, spec.strike) == \
        gk_greeks(env, spec.direction, spec.strike).value


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# far outside desk ranges: the arithmetic, not the inputs, leaves the double range
extreme_markets = st.builds(MarketEnvironment, spot=_log_uniform(1e-300, 1e300),
                            r_d=st.floats(-3.0, 3.0), r_f=st.floats(-3.0, 3.0),
                            sigma=_log_uniform(1e-6, 10.0), T=_log_uniform(1e-6, 1000.0))
extreme_ratios = _log_uniform(1e-3, 1e3)


def _extreme_barrier(draw, spot: float, side: BarrierSide) -> float:
    distance = draw(_log_uniform(1.0, 1e3))
    return spot * distance if side == BarrierSide.UPPER else spot / distance


@st.composite
def extreme_contracts(draw):
    """(env, spec) over the extreme markets: a vanilla, a single barrier, a
    corridor or a KIKO pair, strike and barriers within a factor 1e3 of
    spot on their sides."""
    env = draw(extreme_markets)
    direction = draw(directions)
    strike = env.spot * draw(extreme_ratios)
    kind = draw(st.sampled_from(("vanilla", "single", "corridor", "kiko")))
    if kind == "vanilla":
        return env, VanillaSpec(direction, strike)
    sides = st.sampled_from((BarrierSide.LOWER, BarrierSide.UPPER))
    if kind == "single":
        side = draw(sides)
        return env, SingleBarrierSpec(direction, strike, _extreme_barrier(draw, env.spot, side),
                                      side, draw(st.sampled_from((KnockType.IN, KnockType.OUT))))
    if kind == "corridor":
        lower = _extreme_barrier(draw, env.spot, BarrierSide.LOWER)
        upper = _extreme_barrier(draw, env.spot, BarrierSide.UPPER)
        assume(lower < upper)
        return env, DoubleBarrierSpec(direction, strike, lower, upper,
                                      draw(st.sampled_from((KnockType.IN, KnockType.OUT))))
    side_in, side_out = draw(sides), draw(sides)
    b_in = _extreme_barrier(draw, env.spot, side_in)
    b_out = _extreme_barrier(draw, env.spot, side_out)
    assume(b_in != b_out)
    return env, KikoSpec(direction, strike, b_in, side_in, b_out, side_out)


@settings(PROPERTY, max_examples=1000)
@given(extreme_contracts())
@pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
def test_every_failure_is_a_typed_pricing_error(case):
    env, spec = case
    try:
        price, _rule = price_contract(env, spec)
        assert math.isfinite(price)
    except PricingError:
        pass
    # corridors and KIKO pairs take the fd route under "analytic" already
    closed_form = isinstance(spec, (VanillaSpec, SingleBarrierSpec))
    for method in ("analytic", "fd") if closed_form else ("analytic",):
        try:
            greeks, _method, _notices = greeks_contract(env, spec, method=method)
            assert all(map(math.isfinite, greeks.as_tuple()))
        except PricingError:
            pass
    try:
        result = vv_price(env, spec, PivotQuotes(sigma_atm=env.sigma))
        assert math.isfinite(result.vv_price)
    except PricingError:
        pass
    try:
        estimate = mc_price(env, spec, McConfig(n_paths=1, n_steps=1))
        assert math.isfinite(estimate.price)
    except PricingError:
        pass
