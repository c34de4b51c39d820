"""Properties of the double-barrier domain over random layouts: the closed
forms accept exactly the contracts the Monte Carlo engine accepts, corridor
parity holds for any strike, and a KIKO rule id depends on the barriers
alone."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fxx import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,
                 MarketEnvironment, McConfig, OptionDirection, PricingError,
                 gk_price, kiki_price, koko_price, mc_price, price_contract)
from fxx.double_barrier import classify_kiko

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# the ranges of bench/book.py KIKO_MARKET; barriers 3-30% from spot
markets = st.builds(MarketEnvironment, spot=st.floats(50.0, 200.0),
                    r_d=st.floats(-0.01, 0.05), r_f=st.floats(-0.01, 0.05),
                    sigma=st.floats(0.1, 0.4), T=st.floats(0.1, 2.0))
distances = st.floats(1.03, 1.3)
moneyness = st.floats(0.5, 1.5)
directions = st.sampled_from((OptionDirection.CALL, OptionDirection.PUT))


@st.composite
def kikos(draw):
    """(env, KikoSpec) with each barrier on a random side of spot and its
    side flag consistent with that placement; any strike."""
    env = draw(markets)
    levels = []
    for _ in range(2):
        factor = draw(distances)
        if draw(st.booleans()):
            levels.append((env.spot * factor, BarrierSide.UPPER))
        else:
            levels.append((env.spot / factor, BarrierSide.LOWER))
    (b_in, side_in), (b_out, side_out) = levels
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
