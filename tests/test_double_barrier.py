import math
import random
import warnings
from dataclasses import replace

import pytest

from fxx import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,
                 ClassificationError, MarketEnvironment, McConfig, OptionDirection,
                 PreconditionError, SeriesConfig, TruncationWarning, gk_greeks,
                 gk_price, kiki_greeks, kiki_price, kiko_greeks, kiko_price,
                 koko_greeks, koko_price, mc_price, mc_price_batch,
                 price_single_barrier, SingleBarrierSpec)
from fxx.double_barrier import classify_kiko

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT

ENV = MarketEnvironment(spot=100.0, r_d=0.02, r_f=0.01, sigma=0.2, T=0.5)


def corridor_density_price(env, strike, lower, upper, phi, n_eigen=600, n_quad=6000):
    """Independent oracle: integrate the payoff against the corridor-killed
    log-price density via its sine eigenfunction expansion."""
    b = env.drift
    m = b - 0.5 * env.sigma**2
    x0 = math.log(env.spot / strike)
    x_lo = math.log(lower / strike)
    x_hi = math.log(upper / strike)
    width = x_hi - x_lo
    prefactor = math.exp(-env.r_d * env.T - m * m * env.T / (2 * env.sigma**2))
    total = 0.0
    for j in range(n_quad):
        x = x_lo + (j + 0.5) * width / n_quad
        payoff = max(phi * (strike * math.exp(x) - strike), 0.0)
        if payoff == 0.0:
            continue
        density = 0.0
        for k in range(1, n_eigen + 1):
            decay = 0.5 * env.sigma**2 * (k * math.pi / width) ** 2
            term = (math.exp(-decay * env.T)
                    * math.sin(k * math.pi * (x0 - x_lo) / width)
                    * math.sin(k * math.pi * (x - x_lo) / width))
            density += term
            if k > 20 and abs(term) < 1e-20 * max(abs(density), 1e-30):
                break
        total += (payoff * math.exp(m * (x - x0) / env.sigma**2)
                  * (2.0 / width) * density * (width / n_quad))
    return prefactor * total


class TestSeriesConfig:
    def test_defaults(self):
        cfg = SeriesConfig()
        assert cfg.n_max == 5
        assert cfg.tail_tol == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesConfig(n_max=0)
        with pytest.raises(ValueError):
            SeriesConfig(tail_tol=0.0)


class TestKnockOutCorridor:
    def test_unreachable_barriers_recover_vanilla(self):
        spec = DoubleBarrierSpec(CALL, 100.0, 100.0 * 1e-6, 100.0 * 1e6, OUT)
        assert koko_price(ENV, spec) == pytest.approx(
            gk_price(ENV, CALL, 100.0), rel=1e-8)

    @pytest.mark.parametrize("phi,direction", [(1, CALL), (-1, PUT)])
    def test_against_corridor_density(self, phi, direction):
        # strikes outside the corridor on the payoff side clip to the barrier
        clipped = (70.0, 85.0) if phi > 0 else (115.0, 130.0)
        for strike, lower, upper in ((100.0, 85.0, 115.0), (100.0, 90.0, 112.0),
                                     (95.0, 80.0, 120.0),
                                     *((k, 85.0, 115.0) for k in clipped)):
            spec = DoubleBarrierSpec(direction, strike, lower, upper, OUT)
            series = koko_price(ENV, spec)
            oracle = corridor_density_price(ENV, strike, lower, upper, phi)
            assert series == pytest.approx(oracle, abs=5e-7, rel=1e-6)

    def test_against_mc(self):
        # the strike inside the corridor, then clipped to the lower (call)
        # or upper (put) barrier
        specs = [DoubleBarrierSpec(direction, strike, 85.0, 115.0, OUT)
                 for direction, strike in ((CALL, 100.0), (CALL, 70.0), (CALL, 85.0),
                                           (PUT, 115.0), (PUT, 130.0))]
        estimates = mc_price_batch(ENV, specs, McConfig(n_paths=150_000, n_steps=400, seed=9))
        for spec, est in zip(specs, estimates):
            closed = koko_price(ENV, spec)
            assert abs(closed - est.price) < 3.0 * est.std_error, spec

    def test_truncation_stability(self):
        rng = random.Random(12)
        for _ in range(40):
            width = rng.uniform(1.1, 3.0)
            lower = 100.0 / math.sqrt(width)
            upper = 100.0 * math.sqrt(width)
            strike = rng.uniform(lower * 1.02, upper * 0.98)
            env = MarketEnvironment(100.0, rng.uniform(-0.02, 0.08),
                                    rng.uniform(-0.02, 0.08), 0.15, 0.5)
            spec = DoubleBarrierSpec(rng.choice((CALL, PUT)), strike, lower, upper, OUT)
            p5 = koko_price(env, spec, SeriesConfig(n_max=5))
            p20 = koko_price(env, spec, SeriesConfig(n_max=20))
            assert abs(p5 - p20) <= 1e-10 * max(1.0, p20)

    def test_tail_warning_in_pathological_regime(self):
        env = replace(ENV, sigma=0.5, T=1.0)
        spec = DoubleBarrierSpec(CALL, 100.0, 95.0, 105.0, OUT)
        with pytest.warns(TruncationWarning):
            koko_price(env, spec, SeriesConfig(n_max=2, tail_tol=1e-12))

    def test_no_warning_at_desk_scale(self):
        spec = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            koko_price(ENV, spec)

    def test_payoff_outside_corridor_worthless(self):
        # a call struck at or above U, a put at or below L: no payoff
        # inside the corridor, so the knock-in is the whole vanilla
        for direction, strike in ((CALL, 115.0), (CALL, 130.0), (PUT, 85.0), (PUT, 70.0)):
            spec = DoubleBarrierSpec(direction, strike, 85.0, 115.0, OUT)
            assert koko_price(ENV, spec) == 0.0
            assert kiki_price(ENV, replace(spec, knock=IN)) == gk_price(ENV, direction, strike)

    def test_wrong_knock_rejected(self):
        with pytest.raises(PreconditionError):
            koko_price(ENV, DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, IN))

    @pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
    def test_monotone_in_corridor_width(self):
        prev = 0.0
        for lower, upper in ((95.0, 106.0), (92.0, 109.0), (88.0, 113.0), (82.0, 120.0)):
            spec = DoubleBarrierSpec(CALL, 100.0, lower, upper, OUT)
            price = koko_price(ENV, spec)
            assert price >= prev - 1e-12
            prev = price

    def test_bounded_by_single_barriers_and_vanilla(self):
        spec = DoubleBarrierSpec(CALL, 100.0, 88.0, 114.0, OUT)
        koko = koko_price(ENV, spec)
        up_out = price_single_barrier(
            ENV, SingleBarrierSpec(CALL, 100.0, 114.0, UP, OUT))
        down_out = price_single_barrier(
            ENV, SingleBarrierSpec(CALL, 100.0, 88.0, LOW, OUT))
        vanilla = gk_price(ENV, CALL, 100.0)
        assert -1e-10 <= koko <= min(up_out, down_out) + 1e-10
        assert min(up_out, down_out) <= vanilla + 1e-10


class TestKnockInCorridor:
    def test_parity_with_knock_out(self):
        for direction in (CALL, PUT):
            spec_in = DoubleBarrierSpec(direction, 100.0, 90.0, 112.0, IN)
            spec_out = DoubleBarrierSpec(direction, 100.0, 90.0, 112.0, OUT)
            total = kiki_price(ENV, spec_in) + koko_price(ENV, spec_out)
            assert abs(total - gk_price(ENV, direction, 100.0)) <= 1e-12

    def test_unreachable_barriers_worthless(self):
        spec = DoubleBarrierSpec(CALL, 100.0, 100.0 * 1e-6, 100.0 * 1e6, IN)
        assert kiki_price(ENV, spec) == pytest.approx(0.0, abs=1e-8)

    def test_against_mc(self):
        spec = DoubleBarrierSpec(PUT, 100.0, 90.0, 112.0, IN)
        closed = kiki_price(ENV, spec)
        est = mc_price(ENV, spec, McConfig(n_paths=150_000, n_steps=400, seed=21))
        assert abs(closed - est.price) < 3.0 * est.std_error


class TestInOutPair:
    def test_worthless_rows(self):
        # knock-in barrier lies beyond the knock-out barrier
        assert kiko_price(ENV, KikoSpec(CALL, 95.0, 120.0, UP, 110.0, UP)) == 0.0
        assert kiko_price(ENV, KikoSpec(PUT, 110.0, 80.0, LOW, 90.0, LOW)) == 0.0

    @pytest.mark.parametrize("spec", [
        KikoSpec(CALL, 100.0, 90.0, LOW, 115.0, UP),
        KikoSpec(CALL, 100.0, 115.0, UP, 90.0, LOW),
        KikoSpec(PUT, 100.0, 90.0, LOW, 115.0, UP),
        KikoSpec(PUT, 100.0, 115.0, UP, 90.0, LOW),
    ], ids=["call-in-low-out-high", "call-in-high-out-low",
            "put-in-low-out-high", "put-in-high-out-low"])
    def test_corridor_row_replication(self, spec):
        # barriers straddle spot, strike in between: knock-out at the out
        # barrier minus the corridor knock-out between both barriers
        knock_out = price_single_barrier(ENV, SingleBarrierSpec(
            spec.direction, spec.strike, spec.barrier_out, spec.side_out, OUT))
        lower, upper = sorted((spec.barrier_in, spec.barrier_out))
        corridor = koko_price(ENV, DoubleBarrierSpec(
            spec.direction, spec.strike, lower, upper, OUT))
        assert kiko_price(ENV, spec) == pytest.approx(knock_out - corridor, abs=1e-12)

    def test_same_side_put_row(self):
        env = MarketEnvironment(100.0, 0.03, 0.01, 0.2, 1.0)
        spec = KikoSpec(PUT, 105.0, 92.0, LOW, 85.0, LOW)
        price = kiko_price(env, spec)
        vanilla = gk_price(env, PUT, 105.0)
        assert 0.0 <= price <= vanilla
        rdop_out = price_single_barrier(
            env, SingleBarrierSpec(PUT, 105.0, 85.0, LOW, OUT))
        rdop_in = price_single_barrier(
            env, SingleBarrierSpec(PUT, 105.0, 92.0, LOW, OUT))
        assert price == pytest.approx(rdop_out - rdop_in, abs=1e-12)

    def test_same_side_put_row_against_mc(self):
        spec = KikoSpec(PUT, 105.0, 92.0, LOW, 85.0, LOW)
        closed = kiko_price(ENV, spec)
        est = mc_price(ENV, spec, McConfig(n_paths=150_000, n_steps=400, seed=33))
        assert abs(closed - est.price) < 3.0 * est.std_error

    @pytest.mark.parametrize("spec", [
        KikoSpec(CALL, 102.0, 110.0, UP, 125.0, UP),   # nested upper barriers
        KikoSpec(CALL, 104.0, 92.0, LOW, 84.0, LOW),   # nested lower barriers
        KikoSpec(PUT, 96.0, 108.0, UP, 120.0, UP),
        KikoSpec(CALL, 100.0, 90.0, LOW, 115.0, UP),   # straddling corridor
        KikoSpec(CALL, 100.0, 115.0, UP, 90.0, LOW),   # straddling, in-barrier above
        KikoSpec(PUT, 104.0, 92.0, LOW, 112.0, UP),
        KikoSpec(PUT, 105.0, 110.0, UP, 88.0, LOW),
        KikoSpec(CALL, 115.0, 110.0, UP, 125.0, UP),   # strike between same-side barriers
        KikoSpec(CALL, 85.0, 90.0, LOW, 115.0, UP),    # straddling, strike below the in barrier
        KikoSpec(PUT, 88.0, 92.0, LOW, 84.0, LOW),     # strike between same-side barriers
    ])
    def test_replication_rows_against_mc(self, spec):
        closed = kiko_price(ENV, spec)
        est = mc_price(ENV, spec, McConfig(n_paths=120_000, n_steps=300, seed=5))
        assert abs(closed - est.price) < 3.0 * est.std_error

    def test_inconsistent_sides_rejected(self):
        # the lower in barrier sits above the upper out barrier
        with pytest.raises(ClassificationError):
            classify_kiko(KikoSpec(CALL, 100.0, 110.0, LOW, 90.0, UP))
        # a straddling call struck above both barriers is worth zero, not rejected
        env = MarketEnvironment(100.0, 0.02, 0.01, 0.2, 0.5)
        assert kiko_price(env, KikoSpec(CALL, 150.0, 90.0, LOW, 110.0, UP)) == 0.0


class TestCorridorGreeks:
    def test_unreachable_barriers_match_vanilla_greeks(self):
        spec = DoubleBarrierSpec(CALL, 100.0, 100.0 * 1e-6, 100.0 * 1e6, OUT)
        greeks = koko_greeks(ENV, spec)
        vanilla = gk_greeks(ENV, CALL, 100.0)
        for comp in ("delta", "vega", "vanna", "volga"):
            got, want = getattr(greeks, comp), getattr(vanilla, comp)
            assert abs(got - want) <= max(1e-6 * max(1.0, abs(want)), 1e-4)

    def test_parity_with_vanilla_greeks(self):
        spec_in = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, IN)
        spec_out = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)
        total = kiki_greeks(ENV, spec_in) + koko_greeks(ENV, spec_out)
        vanilla = gk_greeks(ENV, CALL, 100.0)
        for comp in ("delta", "vega", "vanna", "volga"):
            assert abs(getattr(total, comp) - getattr(vanilla, comp)) <= 1e-7

    def test_corridor_vega_below_vanilla_vega(self):
        spec = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)
        assert koko_greeks(ENV, spec).vega < gk_greeks(ENV, CALL, 100.0).vega

    def test_bump_shrinks_near_barrier(self):
        env = replace(ENV, spot=85.2)  # 0.24% above the lower barrier
        spec = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)
        greeks = koko_greeks(env, spec)
        assert math.isfinite(greeks.delta)

    def test_spot_on_top_of_barrier_rejected(self):
        env = replace(ENV, spot=85.0 * (1.0 + 1e-14))
        spec = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)
        with pytest.raises(PreconditionError):
            koko_greeks(env, spec)

    def test_kiko_greeks_finite(self):
        spec = KikoSpec(PUT, 105.0, 92.0, LOW, 85.0, LOW)
        greeks = kiko_greeks(ENV, spec)
        assert all(math.isfinite(v) for v in greeks.as_tuple())
