import math
import random
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, logsumexp

import fxx.double_barrier as double_barrier
from fxx import (BarrierSide, DoubleBarrierSpec, FdBumps, KikoSpec, KnockType,
                 ClassificationError, DomainError, MarketEnvironment, McConfig, NumericalError,
                 OptionDirection,
                 PreconditionError, SeriesConfig, TruncationWarning, gk_greeks,
                 gk_price, greeks_contract, greeks_single_barrier, kiki_greeks,
                 kiki_price, kiko_greeks, kiko_price, koko_greeks, koko_price,
                 mc_price, mc_price_batch, price_single_barrier, SingleBarrierSpec)
from fxx.double_barrier import classify_kiko
from support import corridor_series_oracle
from test_domain_properties import _log_uniform

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
        assert SeriesConfig().n_max == 50
        assert double_barrier._TAIL_TOL == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesConfig(n_max=0)
        with pytest.raises(TypeError):  # the tolerance is fixed
            SeriesConfig(tail_tol=1e-12)


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
            koko_price(env, spec, SeriesConfig(n_max=2))

    def test_no_warning_at_desk_scale(self):
        cases = [(ENV, DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)),
                 # the |n| = 5 terms add 3.3e-12, yet n_max 5..50 agree to
                 # the last bit: the first omitted pair is below 1e-12
                 (MarketEnvironment(112.55018254620006, 0.05591025754787249,
                                    0.020507443773827527, 0.14831049447506595,
                                    0.491856983289345),
                  DoubleBarrierSpec(CALL, 109.92648593981208, 104.76917844069284,
                                    115.29635400313947, OUT))]
        for env, spec in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                koko_price(env, spec)

    def test_low_tau_converges_at_the_default_cap(self):
        # tau = ln(105/95)^2 / (0.5^2 * 2) = 0.02: five image terms left
        # 3.42e-3 with a warning, twenty 2.1e-9
        env = MarketEnvironment(100.0, 0.03, 0.01, 0.5, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            price = koko_price(env, DoubleBarrierSpec(CALL, 100.0, 95.0, 105.0, OUT))
        assert 0.0 <= price < 1e-12

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

    @pytest.mark.parametrize("sigma,T", [(1e-200, 1.0), (1e-6, 1e-9)])
    def test_degenerate_diffusion_scale_is_domain_error(self, sigma, T):
        # sigma sqrt(T) below 1e-10, as single barriers reject it
        env = replace(ENV, sigma=sigma, T=T)
        for price, spec in ((koko_price, DoubleBarrierSpec(CALL, 100.0, 90.0, 110.0, OUT)),
                            (kiki_price, DoubleBarrierSpec(CALL, 100.0, 90.0, 110.0, IN)),
                            (kiko_price, KikoSpec(CALL, 100.0, 90.0, LOW, 110.0, UP))):
            with pytest.raises(DomainError, match="diffusion scale"):
                price(env, spec)

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


def _log_ncdf_diff(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """log(N(hi) - N(lo)) for hi >= lo, from the tail each pair lies in."""
    out = np.empty_like(hi)
    pos, neg = lo > 0.0, hi < 0.0
    mid = ~(pos | neg)
    near, far = log_ndtr(-lo[pos]), log_ndtr(-hi[pos])
    out[pos] = near + np.log1p(-np.exp(far - near))
    near, far = log_ndtr(hi[neg]), log_ndtr(lo[neg])
    out[neg] = near + np.log1p(-np.exp(far - near))
    out[mid] = np.log(np.exp(log_ndtr(hi[mid])) - np.exp(log_ndtr(lo[mid])))
    return out


def _log_term_parts(env, spec, n: np.ndarray) -> np.ndarray:
    """log, in price units, of the four nonnegative parts of each image
    series term n (Ikeda & Kunitomo, 1992), summed: S times the image and
    the reflected asset parts plus K times the two cash parts. Each part
    is a power times N(d) - N(d') over the payoff's range [a, b] inside
    the corridor, evaluated in log space so that no term overflows."""
    S, K, L, U = env.spot, spec.strike, spec.lower, spec.upper
    Kc = min(max(K, L), U)
    a, b = (Kc, U) if spec.direction == CALL else (L, Kc)
    s = env.sigma * math.sqrt(env.T)
    mu = 2.0 * env.drift / env.sigma ** 2 + 1.0
    nu_T = (env.drift + 0.5 * env.sigma ** 2) * env.T
    width = math.log(U / L)
    img_hi = (math.log(S / a) + 2.0 * n * width + nu_T) / s
    img_lo = (math.log(S / b) + 2.0 * n * width + nu_T) / s
    ref_hi = (math.log(L * L / (a * S)) - 2.0 * n * width + nu_T) / s
    ref_lo = (math.log(L * L / (b * S)) - 2.0 * n * width + nu_T) / s
    log_img = n * width                                              # ln (U/L)^n
    log_ref = (n + 1.0) * math.log(L) - n * math.log(U) - math.log(S)  # ln L^{n+1}/(U^n S)
    parts = (math.log(S) + mu * log_img + _log_ncdf_diff(img_hi, img_lo),
             math.log(S) + mu * log_ref + _log_ncdf_diff(ref_hi, ref_lo),
             math.log(K) + (mu - 2.0) * log_img + _log_ncdf_diff(img_hi - s, img_lo - s),
             math.log(K) + (mu - 2.0) * log_ref + _log_ncdf_diff(ref_hi - s, ref_lo - s))
    return np.logaddexp.reduce(np.array(parts), axis=0)


# the desk, and long maturities at low volatility with a drift of either
# sign, where the terms' peak in n moves away from n = 0
_series_markets = st.one_of(
    st.builds(MarketEnvironment, spot=st.floats(50.0, 200.0), r_d=st.floats(-0.02, 0.08),
              r_f=st.floats(-0.02, 0.08), sigma=st.floats(0.05, 0.4), T=st.floats(0.1, 2.0)),
    st.builds(MarketEnvironment, spot=st.floats(50.0, 200.0), r_d=st.floats(-0.05, 0.15),
              r_f=st.floats(-0.05, 0.15), sigma=st.floats(0.02, 0.15), T=st.floats(2.0, 30.0)))


@st.composite
def image_corridors(draw):
    """(env, knock-out corridor) at tau = ln(U/L)^2 / (sigma^2 T) from
    pi/2 to 1e3, spot anywhere inside, any strike."""
    env = draw(_series_markets)
    tau = draw(_log_uniform(math.pi / 2.0, 1e3))
    width = math.sqrt(tau) * env.sigma * math.sqrt(env.T)
    lower = env.spot * math.exp(-width * draw(st.floats(0.02, 0.98)))
    direction = draw(st.sampled_from((CALL, PUT)))
    return env, DoubleBarrierSpec(direction, env.spot * draw(st.floats(0.5, 1.5)),
                                  lower, lower * math.exp(width), OUT)


def _series_inputs(env, spec) -> tuple:
    """(koko_price, pieces, n_max): the price and what it passed to
    ``_series_cut``; pieces is None when the payoff lies outside the
    corridor and no series ran."""
    with mock.patch.object(double_barrier, "_series_cut",
                           wraps=double_barrier._series_cut) as cut:
        price = koko_price(env, spec)
    if not cut.called:
        return price, None, None
    (pieces, n_max), _ = cut.call_args
    return price, pieces, n_max


class TestTermCount:
    """koko_price sums n = -m..m for the smallest m in 1..n_max whose
    closed-form bound on the omitted terms lies below _TAIL_TOL."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(image_corridors())
    def test_bound_covers_the_omitted_terms(self, case):
        env, spec = case
        price, pieces, n_max = _series_inputs(env, spec)
        assume(pieces is not None)
        m = double_barrier._series_cut(pieces, n_max)
        assert m is not None and 1 <= m <= n_max
        n = np.arange(-60.0, 61.0)
        parts = _log_term_parts(env, spec, n)
        tol = double_barrier._TAIL_TOL
        log_tol = math.log(tol)
        omitted = logsumexp(parts[np.abs(n) > m])
        bound = double_barrier._tail_bound(pieces, m + 1, math.inf)
        assert omitted < log_tol
        # a bound below 1e-300 is subnormal near its end and keeps few digits
        assert omitted <= math.log(max(bound, 1e-300)) + 1e-9
        if m > 1:  # m - 1 was rejected: its omitted terms come near the tolerance
            assert logsumexp(parts[np.abs(n) > m - 1]) > log_tol - 2.0
        assert abs(price - koko_price(env, spec, SeriesConfig(n_max=50))) < tol


# |koko_price - oracle| / max(1, |oracle|) reached 4.9e-13 over 6,933
# draws of image_corridors' ranges (round-off, amplified where the terms
# cancel)
ORACLE_TOL = 2e-12


class TestImageSeriesOracle:
    """koko_price equals the image series written from its formulas and
    summed at 60 digits over the same n = -m..m, then clamped to
    [0, vanilla] as koko_price clamps."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(image_corridors())
    def test_matches_the_oracle_at_its_term_count(self, case):
        env, spec = case
        price, pieces, n_max = _series_inputs(env, spec)
        assume(pieces is not None)
        m = double_barrier._series_cut(pieces, n_max) or n_max
        oracle = min(max(corridor_series_oracle(env, spec, m), 0.0),
                     gk_price(env, spec.direction, spec.strike))
        assert abs(price - oracle) <= ORACLE_TOL * max(1.0, abs(oracle))

    def test_term_with_underflowing_normal_difference(self):
        # long-dated with alpha = 2b/sigma^2 + 1 = 276: the reflected n = -1
        # term is e^1040 (N(-45.7) - N(-72.8)) = 0.0087, its difference far
        # below the double range. Monte Carlo (40,000 bridge-corrected
        # paths, 500 steps) gives 29.54 +- 0.13.
        env = MarketEnvironment(86.39453633419285, 0.14286060852964838,
                                0.012594567710750515, 0.03080209255053129,
                                28.997343106153416)
        spec = DoubleBarrierSpec(CALL, 43.36175496967161, 42.22716237086548,
                                 3839.900414180896, OUT)
        price, pieces, n_max = _series_inputs(env, spec)
        oracle = corridor_series_oracle(env, spec, double_barrier._series_cut(pieces, n_max))
        assert abs(price - oracle) <= ORACLE_TOL * max(1.0, abs(oracle))


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

    # straddling draws whose KO(out) - KOKO is below zero by round-off only
    # (draws 101 of row 0 and 26, 43, 100 of row 11 of bench/book.kiko_draw,
    # rng seed 7, 200 per row)
    @pytest.mark.parametrize("env,spec", [
        (MarketEnvironment(79.59676875734932, 0.03517314023968759, 0.004838450733314497,
                           0.11941990774023384, 0.1643410668910355),
         KikoSpec(CALL, 86.87767164735553, 67.500620234652, LOW, 88.98558616264826, UP)),
        (MarketEnvironment(67.1725364945586, -0.0068162177177771305, 0.01099011422136431,
                           0.13575700516538258, 0.16415390544059594),
         KikoSpec(PUT, 55.76325775149558, 84.3424200923971, UP, 54.51656717236485, LOW)),
        (MarketEnvironment(153.6557468263776, 0.03681281524553619, 0.021767776206607824,
                           0.12103185613305942, 0.17166270860255306),
         KikoSpec(PUT, 149.50712344403297, 189.82524221496308, UP, 127.56928531563437, LOW)),
        (MarketEnvironment(129.87309855882785, -0.009834101728409662, 0.049383528755744276,
                           0.22208371665573048, 0.11783065488936485),
         KikoSpec(PUT, 110.38813825417536, 168.05749159506078, UP, 106.94960925034304, LOW)),
    ], ids=["row0-101", "row11-26", "row11-43", "row11-100"])
    def test_round_off_below_zero_is_zero(self, env, spec):
        knock_out = price_single_barrier(env, SingleBarrierSpec(
            spec.direction, spec.strike, spec.barrier_out, spec.side_out, OUT))
        lower, upper = sorted((spec.barrier_in, spec.barrier_out))
        corridor = koko_price(env, DoubleBarrierSpec(
            spec.direction, spec.strike, lower, upper, OUT))
        assert -1e-10 <= knock_out - corridor < 0.0
        assert kiko_price(env, spec) == 0.0

    def test_low_tau_straddle_positive_or_loud(self):
        env = MarketEnvironment(100.0, 0.03, 0.01, 0.5, 2.0)
        spec = KikoSpec(CALL, 80.0, 90.0, LOW, 101.0, UP)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            assert kiko_price(env, spec) == pytest.approx(0.0037293379, abs=1e-10)
            # five image terms leave the corridor leg short by 0.055: the
            # difference is -0.0509, which is no round-off
            warnings.simplefilter("ignore", TruncationWarning)
            with pytest.raises(NumericalError, match="below the negative tolerance"):
                kiko_price(env, spec, SeriesConfig(n_max=5))

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
        from support import fd_noise_floors, greek_tolerance

        # at spot 100 a full bump, 0.01, puts a stencil point on 99.99
        # after rounding; from 99.995 it puts one past the barrier
        cases = [
            (85.2, DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)),
            (100.0, DoubleBarrierSpec(CALL, 100.0, 99.99, 115.0, OUT)),
            (100.0, KikoSpec(CALL, 100.0, 140.0, UP, 99.99, LOW)),
            (100.0, SingleBarrierSpec(CALL, 100.0, 99.99, LOW, OUT)),
            (100.0, SingleBarrierSpec(CALL, 100.0, 99.995, LOW, OUT)),
        ]
        for spot, spec in cases:
            env = replace(ENV, spot=spot)
            greeks, method, _notices = greeks_contract(env, spec, method="fd")
            assert method == "fd" and all(map(math.isfinite, greeks.as_tuple())), spec
            if isinstance(spec, SingleBarrierSpec):
                analytic = greeks_single_barrier(env, spec)
                bumps = FdBumps(dS_rel=0.5 * (spot - spec.barrier) / spot)
                floors = fd_noise_floors(greeks.value, env, bumps)
                for comp in ("delta", "vega", "vanna", "volga"):
                    a, f = getattr(analytic, comp), getattr(greeks, comp)
                    assert abs(a - f) <= greek_tolerance(a, f, floors[comp]), (spec, comp)

    def test_spot_on_top_of_barrier_rejected(self):
        env = replace(ENV, spot=85.0 * (1.0 + 1e-14))
        spec = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT)
        with pytest.raises(PreconditionError):
            koko_greeks(env, spec)

    def test_kiko_greeks_finite(self):
        spec = KikoSpec(PUT, 105.0, 92.0, LOW, 85.0, LOW)
        greeks = kiko_greeks(ENV, spec)
        assert all(math.isfinite(v) for v in greeks.as_tuple())
