import math
import random
from dataclasses import replace

import pytest

from fxx import (DomainError, FdBumps, MarketEnvironment, McConfig,
                 OptionDirection, VanillaSpec, fd_greeks, gk_greeks, gk_price,
                 mc_price)

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)


class TestPrice:
    def test_tiny_strike_call_is_discounted_spot(self):
        price = gk_price(ENV, CALL, 1e-10)
        assert price == pytest.approx(100.0 * math.exp(-0.01), rel=1e-10)

    def test_tiny_strike_put_worthless(self):
        assert gk_price(ENV, PUT, 1e-10) == pytest.approx(0.0, abs=1e-12)

    def test_call_bounds(self):
        for strike in (60.0, 100.0, 150.0):
            price = gk_price(ENV, CALL, strike)
            lower = max(0.0, 100.0 * math.exp(-0.01) - strike * math.exp(-0.03))
            assert lower - 1e-12 <= price <= 100.0 * math.exp(-0.01)

    def test_against_mc(self):
        est = mc_price(ENV, VanillaSpec(CALL, 100.0),
                       McConfig(n_paths=200_000, n_steps=8, seed=11))
        closed = gk_price(ENV, CALL, 100.0)
        assert abs(closed - est.price) < 3.0 * est.std_error

    def test_put_call_parity_grid(self):
        rng = random.Random(5)
        for _ in range(200):
            env = MarketEnvironment(spot=rng.uniform(50, 200),
                                    r_d=rng.uniform(-0.02, 0.08),
                                    r_f=rng.uniform(-0.02, 0.08),
                                    sigma=rng.uniform(0.05, 0.6),
                                    T=rng.uniform(0.05, 2.0))
            strike = env.spot * rng.uniform(0.5, 1.5)
            lhs = gk_price(env, CALL, strike) - gk_price(env, PUT, strike)
            rhs = (env.spot * math.exp(-env.r_f * env.T)
                   - strike * math.exp(-env.r_d * env.T))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_monotone_in_strike(self):
        strikes = [60.0 + 5.0 * i for i in range(25)]
        prices = [gk_price(ENV, CALL, k) for k in strikes]
        assert all(b <= a + 1e-14 for a, b in zip(prices, prices[1:]))

    def test_deterministic_forward_limit(self):
        env = replace(ENV, sigma=1e-14)
        fwd_intrinsic = max(100.0 * math.exp(-0.01) - 90.0 * math.exp(-0.03), 0.0)
        assert gk_price(env, CALL, 90.0) == pytest.approx(fwd_intrinsic, rel=1e-12)
        assert gk_price(env, PUT, 90.0) == 0.0

    def test_rejects_bad_strike(self):
        with pytest.raises(DomainError):
            gk_price(ENV, CALL, -5.0)
        for strike in (-5.0, 0.0, math.inf):
            with pytest.raises(DomainError):
                gk_greeks(ENV, CALL, strike)


class TestGreeks:
    def test_vega_positive(self):
        for strike in (70.0, 100.0, 140.0):
            assert gk_greeks(ENV, CALL, strike).vega > 0.0
            assert gk_greeks(ENV, PUT, strike).vega > 0.0

    def test_delta_bounds(self):
        df_f = math.exp(-ENV.r_f * ENV.T)
        for strike in (70.0, 100.0, 140.0):
            assert 0.0 < gk_greeks(ENV, CALL, strike).delta < df_f
            assert -df_f < gk_greeks(ENV, PUT, strike).delta < 0.0

    def test_value_field_matches_price(self):
        for direction in (CALL, PUT):
            greeks = gk_greeks(ENV, direction, 110.0)
            assert greeks.value == gk_price(ENV, direction, 110.0)

    def test_matches_finite_differences(self):
        env = ENV
        greeks = gk_greeks(env, CALL, 110.0)
        fd = fd_greeks(lambda e: gk_price(e, CALL, 110.0), env, FdBumps())
        for comp in ("delta", "vega", "vanna", "volga"):
            a, f = getattr(greeks, comp), getattr(fd, comp)
            assert a == pytest.approx(f, rel=1e-6, abs=1e-6)

    def test_fd_agreement_on_grid(self):
        from support import fd_noise_floors, greek_oracle_bumps, greek_tolerance, richardson_fd

        rng = random.Random(17)
        for _ in range(50):
            env = MarketEnvironment(spot=rng.uniform(50, 200),
                                    r_d=rng.uniform(-0.02, 0.08),
                                    r_f=rng.uniform(-0.02, 0.08),
                                    sigma=rng.uniform(0.05, 0.6),
                                    T=rng.uniform(0.05, 2.0))
            strike = env.spot * rng.uniform(0.7, 1.3)
            direction = rng.choice((CALL, PUT))
            greeks = gk_greeks(env, direction, strike)
            assert greeks.value == gk_price(env, direction, strike)
            bumps = greek_oracle_bumps(env)
            p00, fd = richardson_fd(lambda e: gk_price(e, direction, strike), env, bumps)
            floors = fd_noise_floors(p00, env, bumps)
            for comp in ("delta", "vega", "vanna", "volga"):
                a, f = getattr(greeks, comp), fd[comp]
                assert abs(a - f) <= greek_tolerance(a, f, floors[comp])
