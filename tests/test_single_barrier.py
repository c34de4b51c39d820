import math
import random

import pytest
from support import barrier_grid, compare_parameter_greeks, in_out_pair

from fxx import (BarrierSide, DomainError, KnockType, MarketEnvironment,
                 McConfig, NumericalError, OptionDirection, PreconditionError,
                 SingleBarrierSpec, gk_greeks, gk_price, greeks_abcd,
                 greeks_single_barrier, mc_price, price_single_barrier)
from fxx.num_core import std_normal_cdf
from fxx.single_barrier import abcd

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT

ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)


class TestAbcd:
    def test_first_parameter_is_vanilla(self):
        vals = abcd(ENV, CALL, LOW, 100.0, 95.0)
        assert abs(vals.a - gk_price(ENV, CALL, 100.0)) <= 1e-12

    def test_alpha_exact(self):
        vals = abcd(ENV, CALL, LOW, 100.0, 95.0)
        assert vals.alpha == (ENV.r_d - ENV.r_f - 0.5 * ENV.sigma**2) / ENV.sigma**2

    def test_barrier_at_spot_raw_kernel(self):
        # bare kernel accepts barrier == spot; its log argument collapses
        vals = abcd(ENV, CALL, LOW, 100.0, 100.0)
        s = ENV.sigma * math.sqrt(ENV.T)
        x2 = (1.0 + vals.alpha) * s
        expected = (100.0 * math.exp(-0.01) * std_normal_cdf(x2)
                    - 100.0 * math.exp(-0.03) * std_normal_cdf(x2 - s))
        assert vals.b == pytest.approx(expected, abs=1e-14)

    def test_fourth_parameter_reference_value(self):
        # frozen from an independent 50-digit evaluation of the reflected kernel
        vals = abcd(ENV, CALL, LOW, 100.0, 95.0)
        assert vals.d == pytest.approx(3.9633326676406884, abs=1e-12)

    def test_overflow_diagnostic(self):
        env = MarketEnvironment(spot=100.0, r_d=0.08, r_f=-0.02, sigma=0.01, T=1.0)
        with pytest.raises(NumericalError, match="overflow"):
            abcd(env, CALL, LOW, 100.0, 20.0)

    def test_degenerate_diffusion_rejected(self):
        env = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=1e-9, T=1e-4)
        with pytest.raises(DomainError):
            abcd(env, CALL, LOW, 100.0, 95.0)


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


class TestOptionGreeks:
    def test_worthless_row_gives_zero_greeks(self):
        spec = SingleBarrierSpec(CALL, 120.0, 110.0, UP, OUT)
        greeks = greeks_single_barrier(ENV, spec)
        assert greeks.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_in_plus_out_equals_vanilla_greeks(self):
        for env, strike, barrier, direction, side in barrier_grid(2002, 150):
            spec_in, spec_out = in_out_pair(strike, barrier, direction, side)
            total = (greeks_single_barrier(env, spec_in)
                     + greeks_single_barrier(env, spec_out))
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
