import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxx import (BarrierSide, DomainError, DoubleBarrierSpec, KnockType,
                 MarketEnvironment, McConfig, NumericalError, OptionDirection,
                 PreconditionError, SingleBarrierSpec, VanillaSpec, gk_price, mc_price,
                 mc_price_batch, price_single_barrier)
from fxx.mc_oracle import _BarrierPlan, _SimulatedChunk

from support import dense_bridge_survival

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT

ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0, n_steps=10)
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=0)
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=10, seed=-1)
        with pytest.raises(DomainError):
            mc_price(ENV, VanillaSpec(CALL, 100.0), McConfig(n_paths=10, n_steps=10),
                     threads=0)


class TestNumericalFailures:
    """A market whose arithmetic leaves the double range raises
    NumericalError, as the closed form does, with no stray warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r_d, r_f, n_paths", [
        (-1000.0, 0.01, 1),  # exp(-r_d T) overflows
        (0.03, -1000.0, 1),  # exp(-r_f T) overflows
        (0.03, -708.0, 1),   # the discounts are finite, the terminal spot is not
        (0.03, -700.0, 2),   # a finite price, but the squared payoffs overflow
    ])
    def test_raises_numerical_error(self, r_d, r_f, n_paths):
        env = MarketEnvironment(spot=100.0, r_d=r_d, r_f=r_f, sigma=0.2, T=1.0)
        with pytest.raises(NumericalError):
            mc_price(env, VanillaSpec(CALL, 100.0), McConfig(n_paths=n_paths, n_steps=1))


class TestVanilla:
    def test_matches_closed_form(self):
        est = mc_price(ENV, VanillaSpec(CALL, 100.0),
                       McConfig(n_paths=1_000_000, n_steps=4, seed=101))
        closed = gk_price(ENV, CALL, 100.0)
        assert abs(closed - est.price) < 3.0 * est.std_error
        assert est.std_error > 0.0

    def test_martingale(self):
        # a nearly-zero strike call pays the full terminal spot
        tiny = 1e-9
        est = mc_price(ENV, VanillaSpec(CALL, tiny),
                       McConfig(n_paths=1_000_000, n_steps=1, seed=7))
        mean_terminal = est.price * math.exp(ENV.r_d * ENV.T) + tiny
        target = mean_terminal * math.exp(-ENV.drift * ENV.T) / ENV.spot
        se = est.std_error * math.exp(ENV.r_d * ENV.T) * math.exp(-ENV.drift * ENV.T) / ENV.spot
        assert abs(target - 1.0) < 3.0 * se


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        cfg = McConfig(n_paths=30_000, n_steps=60, seed=42)
        spec = SingleBarrierSpec(CALL, 100.0, 85.0, LOW, OUT)
        first = mc_price(ENV, spec, cfg)
        second = mc_price(ENV, spec, cfg)
        assert first.price == second.price
        assert first.std_error == second.std_error

    def test_bit_identical_across_thread_counts(self):
        spec = DoubleBarrierSpec(PUT, 100.0, 88.0, 115.0, OUT)
        for n_paths in (30_000, 300):  # many chunks; one partial chunk
            cfg = McConfig(n_paths=n_paths, n_steps=60, seed=42)
            results = [mc_price(ENV, spec, cfg, threads=t) for t in (1, 4, 8)]
            assert len({(r.price, r.std_error) for r in results}) == 1

    def test_batching_does_not_change_estimates(self):
        cfg = McConfig(n_paths=20_000, n_steps=60, seed=5)
        koko = DoubleBarrierSpec(CALL, 100.0, 88.0, 115.0, OUT)
        vanilla = VanillaSpec(CALL, 100.0)
        alone = mc_price(ENV, koko, cfg)
        batched = mc_price_batch(ENV, [vanilla, koko], cfg)[1]
        assert alone == batched


class TestBarrierPayoffs:
    def test_unreachable_barrier_matches_vanilla_path_for_path(self):
        cfg = McConfig(n_paths=40_000, n_steps=50, seed=13)
        ko = SingleBarrierSpec(CALL, 100.0, 100.0 * 1e9, UP, OUT)
        vanilla = VanillaSpec(CALL, 100.0)
        est_ko, est_van = mc_price_batch(ENV, [ko, vanilla], cfg)
        assert est_ko == est_van

    def test_in_out_complementarity(self):
        cfg = McConfig(n_paths=60_000, n_steps=120, seed=77)
        kiki = DoubleBarrierSpec(CALL, 100.0, 88.0, 115.0, IN)
        koko = DoubleBarrierSpec(CALL, 100.0, 88.0, 115.0, OUT)
        vanilla = VanillaSpec(CALL, 100.0)
        e_in, e_out, e_van = mc_price_batch(ENV, [kiki, koko, vanilla], cfg)
        # payoffs complement path-wise; sums differ only by fp association
        assert e_in.price + e_out.price == pytest.approx(e_van.price, abs=1e-10)

    def test_single_barrier_against_closed_form(self):
        env = MarketEnvironment(100.0, 0.02, 0.0, 0.25, 0.5)
        spec = SingleBarrierSpec(CALL, 100.0, 80.0, LOW, OUT)
        est = mc_price(env, spec, McConfig(n_paths=120_000, n_steps=500, seed=3))
        closed = price_single_barrier(env, spec)
        assert abs(closed - est.price) < 3.0 * est.std_error

    def test_bridge_correction_reduces_bias(self):
        env = MarketEnvironment(100.0, 0.02, 0.0, 0.25, 0.5)
        spec = SingleBarrierSpec(CALL, 100.0, 85.0, LOW, OUT)
        closed = price_single_barrier(env, spec)
        bias_bridge = 0.0
        bias_plain = 0.0
        for seed in range(10):
            with_bridge = mc_price(env, spec, McConfig(
                n_paths=40_000, n_steps=50, seed=seed, bridge_correction=True))
            without = mc_price(env, spec, McConfig(
                n_paths=40_000, n_steps=50, seed=seed, bridge_correction=False))
            bias_bridge += with_bridge.price - closed
            bias_plain += without.price - closed
        assert abs(bias_bridge / 10.0) < abs(bias_plain / 10.0)

    def test_breached_spec_rejected(self):
        spec = SingleBarrierSpec(CALL, 100.0, 105.0, LOW, OUT)
        with pytest.raises(PreconditionError):
            mc_price(ENV, spec, McConfig(n_paths=100, n_steps=10, seed=0))


class TestSparseBridge:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(side=st.sampled_from((UP, LOW)), sds=st.floats(0.05, 12.0),
           sigma=st.floats(0.05, 0.6), T=st.floats(0.05, 2.0),
           n_steps=st.integers(1, 400), seed=st.integers(0, 2**64 - 1))
    def test_survival_equals_dense_product_bit_for_bit(self, side, sds, sigma, T,
                                                       n_steps, seed):
        # the barrier sits `sds` bridge SDs from spot, on both sides of the
        # five-SD margin, so near and far rows and steps all occur
        env = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=sigma, T=T)
        cfg = McConfig(n_paths=64, n_steps=n_steps, seed=seed)
        gap = sds * sigma * math.sqrt(T / n_steps)
        barrier = env.spot * math.exp(gap if side == UP else -gap)
        chunk = _SimulatedChunk(env, cfg, 0, cfg.n_paths)
        got = _BarrierPlan(env, cfg, barrier, side).survival(
            chunk.log_path, chunk.path_min, chunk.path_max, True)
        want = dense_bridge_survival(env, n_steps, barrier, side, chunk.log_path)
        assert got.tobytes() == want.tobytes()
