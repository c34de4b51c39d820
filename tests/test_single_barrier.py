import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import abcd_oracle, barrier_grid, compare_parameter_greeks, greek_sum, in_out_pair
from test_domain_properties import directions, distances, markets, moneyness

from fxx import (BarrierSide, DomainError, KnockType, MarketEnvironment,
                 McConfig, NumericalError, OptionDirection, PreconditionError,
                 SingleBarrierSpec, gk_greeks, gk_price,
                 greeks_single_barrier, mc_price, price_single_barrier)
from fxx.num_core import std_normal_cdf
from fxx.single_barrier import greeks_abcd

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT

ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)


class TestAbcd:
    def test_first_parameter_is_vanilla(self):
        vals = greeks_abcd(ENV, CALL, LOW, 100.0, 95.0)
        assert abs(vals[0].value - gk_price(ENV, CALL, 100.0)) <= 1e-12

    def test_barrier_at_spot_raw_kernel(self):
        # bare kernel accepts barrier == spot; its log argument collapses
        vals = greeks_abcd(ENV, CALL, LOW, 100.0, 100.0)
        s = ENV.sigma * math.sqrt(ENV.T)
        alpha = (ENV.r_d - ENV.r_f - 0.5 * ENV.sigma**2) / ENV.sigma**2
        x2 = (1.0 + alpha) * s
        expected = (100.0 * math.exp(-0.01) * std_normal_cdf(x2)
                    - 100.0 * math.exp(-0.03) * std_normal_cdf(x2 - s))
        assert vals[1].value == pytest.approx(expected, abs=1e-14)

    def test_fourth_parameter_reference_value(self):
        # frozen from an independent 50-digit evaluation of the reflected kernel
        vals = greeks_abcd(ENV, CALL, LOW, 100.0, 95.0)
        assert vals[3].value == pytest.approx(3.9633326676406884, abs=1e-12)

    def test_overflow_diagnostic(self):
        env = MarketEnvironment(spot=100.0, r_d=0.08, r_f=-0.02, sigma=0.01, T=1.0)
        with pytest.raises(NumericalError, match="overflow"):
            greeks_abcd(env, CALL, LOW, 100.0, 20.0)

    def test_reflected_term_beyond_double_range(self):
        # P = (B/S)^(g-1) = 10^290 passes the power guard, but times the
        # put kernel at the mirrored spot (~1e20) it overflows
        env = MarketEnvironment(spot=1.0, r_d=1.455, r_f=0.0, sigma=0.1, T=1.0)
        for knock in (IN, OUT):
            spec = SingleBarrierSpec(PUT, 1e20, 10.0, UP, knock)
            for pricer in (price_single_barrier, greeks_single_barrier):
                with pytest.raises(NumericalError, match="double range"):
                    pricer(env, spec)
        with pytest.raises(NumericalError, match="double range"):
            greeks_abcd(env, PUT, UP, 1e20, 10.0)

    def test_degenerate_diffusion_rejected(self):
        env = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=1e-9, T=1e-4)
        with pytest.raises(DomainError):
            greeks_abcd(env, CALL, LOW, 100.0, 95.0)


class TestPrice:
    def test_up_and_out_call_worthless(self):
        spec = SingleBarrierSpec(CALL, 120.0, 110.0, UP, OUT)
        assert price_single_barrier(ENV, spec) == 0.0

    def test_down_and_out_put_worthless(self):
        spec = SingleBarrierSpec(PUT, 90.0, 95.0, LOW, OUT)
        assert price_single_barrier(ENV, spec) == 0.0

    def test_down_and_out_call_against_mc(self):
        env = MarketEnvironment(spot=100.0, r_d=0.02, r_f=0.0, sigma=0.25, T=0.5)
        spec = SingleBarrierSpec(CALL, 100.0, 80.0, LOW, OUT)
        closed = price_single_barrier(env, spec)
        est = mc_price(env, spec, McConfig(n_paths=150_000, n_steps=400, seed=3))
        assert abs(closed - est.price) < 3.0 * est.std_error

    def test_breached_barrier_rejected(self):
        with pytest.raises(PreconditionError):
            price_single_barrier(ENV, SingleBarrierSpec(CALL, 100.0, 90.0, UP, OUT))

    def test_in_out_parity_on_grid(self):
        for env, strike, barrier, direction, side in barrier_grid(1001, 250):
            spec_in, spec_out = in_out_pair(strike, barrier, direction, side)
            total = (price_single_barrier(env, spec_in)
                     + price_single_barrier(env, spec_out))
            vanilla = gk_price(env, direction, strike)
            assert abs(total - vanilla) <= 1e-10 * max(1.0, vanilla)

    def test_prices_nonnegative_on_grid(self):
        for env, strike, barrier, direction, side in barrier_grid(77, 120):
            for knock in (IN, OUT):
                spec = SingleBarrierSpec(direction, strike, barrier, side, knock)
                assert price_single_barrier(env, spec) >= 0.0

    def test_knock_out_below_vanilla(self):
        for env, strike, barrier, direction, side in barrier_grid(31, 120):
            spec = SingleBarrierSpec(direction, strike, barrier, side, OUT)
            assert (price_single_barrier(env, spec)
                    <= gk_price(env, direction, strike) + 1e-10)

    def test_reverse_up_in_call_keeps_its_vanilla(self):
        # C = D = -1.2087e152 swamp B = 1.7358e130 unless C and D cancel
        # first; the formulas at 500 digits give 1.7358142966366424e130,
        # the vanilla
        env = MarketEnvironment(1.3111151839552634e144, -1.8732608408003593,
                                2.4927748369589846, 7.935625251806344, 12.819285661156893)
        spec = SingleBarrierSpec(CALL, 4.8495993068729814e141, 1.4001065565732784e144, UP, IN)
        assert price_single_barrier(env, spec) == pytest.approx(1.7358142966366424e130,
                                                                rel=1e-12)

    def test_barrier_vanishing_limits(self):
        doc = SingleBarrierSpec(CALL, 100.0, 100.0 * 1e-6, LOW, OUT)
        assert price_single_barrier(ENV, doc) == pytest.approx(
            gk_price(ENV, CALL, 100.0), rel=1e-6)
        uop = SingleBarrierSpec(PUT, 100.0, 100.0 * 1e6, UP, OUT)
        assert price_single_barrier(ENV, uop) == pytest.approx(
            gk_price(ENV, PUT, 100.0), rel=1e-6)


class TestParameterGreeks:
    def test_all_sixteen_formulas_at_reference_point(self):
        worst = compare_parameter_greeks(ENV, CALL, LOW, 105.0, 90.0)
        assert worst <= 1.0

    def test_vanna_prefactor_zero(self):
        # the first parameter's vanna vanishes where 2 ln(S/K) matches
        # T (sigma^2 - 2 r_d + 2 r_f), the zero of its own prefactor
        env = MarketEnvironment(100.0, 0.01, 0.03, 0.2, 1.0)
        strike = 100.0 / math.exp(0.5 * (0.04 - 2 * 0.01 + 2 * 0.03))
        sets = greeks_abcd(env, CALL, LOW, strike, 90.0)
        assert abs(sets[0].vanna) <= 1e-12 * max(1.0, abs(sets[0].vega))

    def test_deep_itm_delta_saturates(self):
        sets = greeks_abcd(MarketEnvironment(1000.0, 0.03, 0.01, 0.2, 1.0),
                           CALL, LOW, 10.0, 5.0)
        assert sets[0].delta == pytest.approx(math.exp(-0.01), abs=1e-12)


@st.composite
def abcd_layouts(draw):
    """(env, direction, side, strike, barrier) on the desk ranges, every
    (direction, side) pair, the barrier 3-30% from spot on its side and the
    strike at the barrier or anywhere from 0.5 to 1.5 spot."""
    env = draw(markets)
    side = draw(st.sampled_from((UP, LOW)))
    factor = draw(distances)
    barrier = env.spot * factor if side == UP else env.spot / factor
    strike = barrier if draw(st.booleans()) else env.spot * draw(moneyness)
    return env, draw(directions), side, strike, barrier


# Worst errors over 4,000 draws of abcd_layouts' ranges, the larger of
# the reflected chain rule and the direct kernel at the mirrored spot:
# value 6.4e-14 x max(1, vanilla); delta 2.2e-15, vega 1e-13, vanna
# 7.2e-14 and volga 4.9e-12 (1.4e-12 with the chain rule), each
# x max(1, |Greek|). The volga of C and D is a small difference of terms
# in (d ln P/d sigma)^2, which scale up the round-off of their values.
ORACLE_BOUNDS = (2e-13, 1e-14, 5e-13, 5e-13, 2e-11)


class TestAbcdOracle:
    """greeks_abcd equals A, B, C and D written from their formulas at 40
    digits, values and Greeks."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(abcd_layouts())
    def test_values_and_greeks_match_the_oracle(self, layout):
        env, direction, side, strike, barrier = layout
        scale = max(1.0, gk_price(env, direction, strike))
        for got, want in zip(greeks_abcd(env, direction, side, strike, barrier),
                             abcd_oracle(env, direction, side, strike, barrier)):
            got = got.as_tuple()
            assert abs(got[0] - want[0]) <= ORACLE_BOUNDS[0] * scale
            for g, w, bound in zip(got[1:], want[1:], ORACLE_BOUNDS[1:]):
                assert abs(g - w) <= bound * max(1.0, abs(w))


class TestOptionGreeks:
    def test_worthless_row_gives_zero_greeks(self):
        spec = SingleBarrierSpec(CALL, 120.0, 110.0, UP, OUT)
        greeks = greeks_single_barrier(ENV, spec)
        assert greeks.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_in_plus_out_equals_vanilla_greeks(self):
        for env, strike, barrier, direction, side in barrier_grid(2002, 150):
            spec_in, spec_out = in_out_pair(strike, barrier, direction, side)
            total = greek_sum(greeks_single_barrier(env, spec_in),
                              greeks_single_barrier(env, spec_out))
            vanilla = gk_greeks(env, direction, strike)
            for comp in ("delta", "vega", "vanna", "volga"):
                assert abs(getattr(total, comp) - getattr(vanilla, comp)) <= 1e-10

    def test_reverse_up_out_call_vega_vs_fd(self):
        from support import greek_oracle_bumps, richardson_fd

        spec = SingleBarrierSpec(CALL, 95.0, 110.0, UP, OUT)
        greeks = greeks_single_barrier(ENV, spec)
        assert greeks.value == price_single_barrier(ENV, spec)
        _, fd = richardson_fd(lambda e: price_single_barrier(e, spec), ENV,
                              greek_oracle_bumps(ENV))
        assert greeks.vega == pytest.approx(fd["vega"], rel=1e-5)

    def test_boundary_strike_equals_barrier_matches_fd(self):
        # the table row depends on K against B alone, so at K = B its Greeks
        # are those of the price: every (direction, side, knock) at B 90 or
        # 120, and the up-and-out call at K = B = 110
        from support import fd_noise_floors, greek_oracle_bumps, greek_tolerance, richardson_fd

        specs = [SingleBarrierSpec(direction, barrier, barrier, side, knock)
                 for direction in (CALL, PUT) for knock in (IN, OUT)
                 for barrier, side in ((90.0, LOW), (120.0, UP))]
        specs.append(SingleBarrierSpec(CALL, 110.0, 110.0, UP, OUT))
        bumps = greek_oracle_bumps(ENV)
        for spec in specs:
            greeks = greeks_single_barrier(ENV, spec)
            assert greeks.value == price_single_barrier(ENV, spec)
            p00, fd = richardson_fd(lambda e, spec=spec: price_single_barrier(e, spec),
                                    ENV, bumps)
            floors = fd_noise_floors(p00, ENV, bumps)
            for comp in ("delta", "vega", "vanna", "volga"):
                a, f = getattr(greeks, comp), fd[comp]
                assert abs(a - f) <= greek_tolerance(a, f, floors[comp]), (spec, comp)


class TestFormulaSuiteOnGrid:
    def test_analytic_vs_fd_sample(self):
        rng = random.Random(404)
        grid = barrier_grid(404, 60)
        for env, strike, barrier, direction, _side in grid:
            eta = rng.choice((UP, LOW))
            assert compare_parameter_greeks(env, direction, eta, strike, barrier) <= 1.0
