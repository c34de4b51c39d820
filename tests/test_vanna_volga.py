import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fxx import (DomainError, DoubleBarrierSpec, GreekSet, IllConditionedError, KikoSpec,
                 MarketEnvironment, OptionDirection, Pivot, PivotQuotes, PivotSet,
                 SingleBarrierSpec, BarrierSide, KnockType, VanillaSpec,
                 atm_strike, build_pivot_system, build_pivots,
                 gk_greeks, gk_price, price_contract, solve_delta_strike, vv_price,
                 vv_weights)
from fxx.vanna_volga import _inverse, vv_adjustment
from test_domain_properties import (_log_uniform, corridors, directions, distances,
                                    extreme_markets, extreme_ratios, markets, moneyness,
                                    singles)

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)


class TestQuotes:
    def test_smile_reconstruction(self):
        quotes = PivotQuotes(sigma_atm=0.10, sigma_rr25=-0.015, sigma_bf25=0.002)
        assert quotes.call_vol == pytest.approx(0.10 + 0.002 - 0.0075)
        assert quotes.put_vol == pytest.approx(0.10 + 0.002 + 0.0075)

    def test_rejects_negative_reconstructed_vol(self):
        with pytest.raises(DomainError):
            PivotQuotes(sigma_atm=0.02, sigma_rr25=0.10, sigma_bf25=0.0)


class TestStrikeSolving:
    @pytest.mark.parametrize("target", [0.10, 0.25, 0.40])
    @pytest.mark.parametrize("direction", [CALL, PUT])
    def test_round_trip(self, target, direction):
        signed = target if direction == CALL else -target
        strike = solve_delta_strike(ENV, signed, direction)
        assert gk_greeks(ENV, direction, strike).delta == pytest.approx(signed, abs=1e-10)

    def test_fixed_point_at_spot(self):
        d1 = (math.log(1.0) + (ENV.drift + 0.5 * ENV.sigma**2) * ENV.T) / (ENV.sigma * math.sqrt(ENV.T))
        target = math.exp(-ENV.r_f * ENV.T) * 0.5 * math.erfc(-d1 / math.sqrt(2.0))
        assert solve_delta_strike(ENV, target, CALL) == pytest.approx(100.0, abs=1e-9)

    def test_sign_mismatch_rejected(self):
        with pytest.raises(DomainError):
            solve_delta_strike(ENV, -0.25, CALL)

    def test_unreachable_delta_rejected(self):
        with pytest.raises(DomainError):
            solve_delta_strike(ENV, 1.10, CALL)

    def test_pivot_ordering(self):
        for sigma in (0.08, 0.2, 0.45):
            for maturity in (0.1, 0.5, 2.0):
                env = MarketEnvironment(100.0, 0.03, 0.01, sigma, maturity)
                k_call = solve_delta_strike(env, 0.25, CALL)
                k_put = solve_delta_strike(env, -0.25, PUT)
                assert k_put < atm_strike(env) < k_call


class TestAtmStrike:
    def test_zero_drift_small_vol_limit(self):
        env = MarketEnvironment(100.0, 0.02, 0.02, 1e-4, 1.0)
        assert atm_strike(env) == pytest.approx(100.0, rel=1e-8)

    def test_straddle_delta_neutral(self):
        k_atm = atm_strike(ENV)
        total = gk_greeks(ENV, CALL, k_atm).delta + gk_greeks(ENV, PUT, k_atm).delta
        assert abs(total) <= 1e-12

    def test_reference_value(self):
        assert atm_strike(ENV) == pytest.approx(104.08107741923882, abs=1e-10)


class TestPivotSystem:
    def test_near_duplicate_strikes_ill_conditioned(self):
        k_atm = atm_strike(ENV)
        pivots = PivotSet(
            put_25=Pivot(k_atm * (1.0 - 1e-12), 0.2, 0.2, PUT),
            atm=Pivot(k_atm, 0.2, 0.2, CALL),
            call_25=Pivot(k_atm * (1.0 + 1e-12), 0.2, 0.2, CALL))
        with pytest.raises(IllConditionedError):
            build_pivot_system(ENV, pivots)

    def test_atm_pivot_volga_entry_vanishes(self):
        # at the delta-neutral straddle strike the call's d1 is zero, so the
        # volga entry of the ATM pivot collapses (for any drift)
        env = MarketEnvironment(100.0, 0.02, 0.02, 0.2, 1.0)
        quotes = PivotQuotes(sigma_atm=0.2)
        system = build_pivot_system(env, build_pivots(env, quotes))
        vega_scale = abs(system.matrix[0][1])
        assert abs(system.matrix[2][1]) < 1e-10 * vega_scale

    def test_vanna_zero_sits_at_median_forward_strike(self):
        # under zero drift the vanna zero is the median-forward strike
        # S exp(-sigma^2 T / 2), not the straddle strike
        env = MarketEnvironment(100.0, 0.02, 0.02, 0.2, 1.0)
        k_median = 100.0 * math.exp(-0.5 * 0.2**2)
        greeks = gk_greeks(env, CALL, k_median)
        assert abs(greeks.vanna) < 1e-10 * max(1.0, abs(greeks.vega))

    def test_matrix_matches_fd_of_pivot_prices(self):
        from support import fd_noise_floors, greek_oracle_bumps, richardson_fd

        quotes = PivotQuotes(sigma_atm=0.2, sigma_rr25=-0.01, sigma_bf25=0.003)
        pivots = build_pivots(ENV, quotes)
        system = build_pivot_system(ENV, pivots)
        bumps = greek_oracle_bumps(ENV)
        for j, pivot in enumerate(pivots):
            p00, fd = richardson_fd(
                lambda e, p=pivot: gk_price(e, CALL, p.strike), ENV, bumps)
            floors = fd_noise_floors(p00, ENV, bumps)
            for i, comp in enumerate(("vega", "vanna", "volga")):
                a, f = system.matrix[i][j], fd[comp]
                assert abs(a - f) <= max(1e-6 * max(abs(a), abs(f)), floors[comp])

    def test_gap_vector(self):
        quotes = PivotQuotes(sigma_atm=0.2, sigma_rr25=-0.01, sigma_bf25=0.003)
        pivots = build_pivots(ENV, quotes)
        system = build_pivot_system(ENV, pivots)
        assert system.gaps[1] == 0.0
        expected_call_gap = (gk_price(replace(ENV, sigma=quotes.call_vol), CALL, pivots.call_25.strike)
                             - gk_price(ENV, CALL, pivots.call_25.strike))
        assert system.gaps[2] == pytest.approx(expected_call_gap, abs=1e-14)


class TestWeights:
    def _system(self):
        quotes = PivotQuotes(sigma_atm=0.2, sigma_rr25=-0.01, sigma_bf25=0.003)
        pivots = build_pivots(ENV, quotes)
        return pivots, build_pivot_system(ENV, pivots)

    def test_basis_vector(self):
        pivots, system = self._system()
        target = gk_greeks(ENV, CALL, pivots.put_25.strike)
        x = vv_weights(target, system)
        assert x[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(x[1]) <= 1e-10
        assert abs(x[2]) <= 1e-10

    def test_zero_target(self):
        _, system = self._system()
        x = vv_weights(GreekSet(0.0, 0.0, 0.0, 0.0, 0.0), system)
        assert x == (0.0, 0.0, 0.0)

    def test_portfolio_linearity(self):
        pivots, system = self._system()
        g1 = gk_greeks(ENV, CALL, pivots.put_25.strike)
        g3 = gk_greeks(ENV, CALL, pivots.call_25.strike)
        x = vv_weights(2.0 * g1 + 3.0 * g3, system)
        assert x[0] == pytest.approx(2.0, abs=1e-9)
        assert abs(x[1]) <= 1e-9
        assert x[2] == pytest.approx(3.0, abs=1e-9)


class TestVvPrice:
    QUOTES = PivotQuotes(sigma_atm=0.10, sigma_rr25=-0.015, sigma_bf25=0.002)

    @pytest.mark.parametrize("spec", [
        VanillaSpec(CALL, 105.0),
        SingleBarrierSpec(PUT, 95.0, 88.0, BarrierSide.LOWER, KnockType.OUT),
        DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, KnockType.OUT),
        DoubleBarrierSpec(PUT, 100.0, 85.0, 115.0, KnockType.IN),
        KikoSpec(CALL, 100.0, 90.0, BarrierSide.LOWER, 115.0, BarrierSide.UPPER),
    ], ids=["vanilla", "single", "koko", "kiki", "kiko"])
    def test_flat_price_is_price_contract(self, spec):
        # the flat price is the Greek set's value, never a second pricing
        result = vv_price(ENV, spec, self.QUOTES)
        env_atm = replace(ENV, sigma=self.QUOTES.sigma_atm)
        assert result.bs_price == price_contract(env_atm, spec)[0]

    def test_flat_smile_no_adjustment(self):
        quotes = PivotQuotes(sigma_atm=0.2)
        result = vv_price(ENV, VanillaSpec(CALL, 110.0), quotes)
        assert result.adjustment == pytest.approx(0.0, abs=1e-12)
        assert result.vv_price == pytest.approx(result.bs_price, abs=1e-12)

    def test_atm_straddle_carries_no_smile_cost(self):
        quotes = self.QUOTES
        env_atm = replace(ENV, sigma=quotes.sigma_atm)
        pivots = build_pivots(ENV, quotes)
        system = build_pivot_system(env_atm, pivots)
        straddle = (gk_greeks(env_atm, CALL, pivots.atm.strike)
                    + gk_greeks(env_atm, PUT, pivots.atm.strike))
        weights = vv_weights(straddle, system)
        _x_atm, x_rr, x_bf, adjustment = vv_adjustment(weights, system)
        scale = max(abs(w) for w in weights)
        assert abs(x_rr) <= 1e-10 * max(1.0, scale)
        assert abs(x_bf) <= 1e-10 * max(1.0, scale)
        assert abs(adjustment) <= 1e-10

    def test_pivot_replication_fixed_point(self):
        quotes = self.QUOTES
        pivots = build_pivots(ENV, quotes)
        # call pivot priced at its market vol
        market_env = replace(ENV, sigma=quotes.call_vol)
        market_price = gk_price(market_env, CALL, pivots.call_25.strike)
        result = vv_price(ENV, VanillaSpec(CALL, pivots.call_25.strike), quotes)
        assert result.vv_price == pytest.approx(market_price, abs=1e-8)
        # put pivot priced at its market vol
        market_env = replace(ENV, sigma=quotes.put_vol)
        market_price = gk_price(market_env, PUT, pivots.put_25.strike)
        result = vv_price(ENV, VanillaSpec(PUT, pivots.put_25.strike), quotes)
        assert result.vv_price == pytest.approx(market_price, abs=1e-8)

    def test_two_term_equals_three_term(self):
        quotes = self.QUOTES
        env_atm = replace(ENV, sigma=quotes.sigma_atm)
        pivots = build_pivots(ENV, quotes)
        system = build_pivot_system(env_atm, pivots)
        spec = SingleBarrierSpec(CALL, 95.0, 112.0, BarrierSide.UPPER, KnockType.OUT)
        result = vv_price(ENV, spec, quotes)
        from fxx import greeks_single_barrier
        weights = vv_weights(greeks_single_barrier(env_atm, spec), system)
        three_term = float(np.dot(weights, system.gaps))
        assert result.adjustment == pytest.approx(three_term, abs=1e-10)

    def test_reverse_up_out_call_recomposition(self):
        quotes = self.QUOTES
        env = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.10, T=0.5)
        spec = SingleBarrierSpec(CALL, 95.0, 112.0, BarrierSide.UPPER, KnockType.OUT)
        result = vv_price(env, spec, quotes)
        # recompose the adjustment from the four pivot option prices by hand
        env_atm = replace(env, sigma=quotes.sigma_atm)
        pivots = build_pivots(env, quotes)
        call_gap = (gk_price(replace(env, sigma=quotes.call_vol), CALL, pivots.call_25.strike)
                    - gk_price(env_atm, CALL, pivots.call_25.strike))
        put_gap = (gk_price(replace(env, sigma=quotes.put_vol), PUT, pivots.put_25.strike)
                   - gk_price(env_atm, PUT, pivots.put_25.strike))
        rr_gap = call_gap - put_gap
        bf_gap = 0.5 * (call_gap + put_gap)
        assert result.adjustment == pytest.approx(
            result.x2 * rr_gap + result.x3 * bf_gap, abs=1e-12)
        assert result.vv_price == result.bs_price + result.adjustment

    def test_adjustment_additive_over_portfolio(self):
        quotes = self.QUOTES
        env_atm = replace(ENV, sigma=quotes.sigma_atm)
        pivots = build_pivots(ENV, quotes)
        system = build_pivot_system(env_atm, pivots)
        g1 = gk_greeks(env_atm, CALL, 105.0)
        g2 = gk_greeks(env_atm, PUT, 95.0)
        adj = lambda g: vv_adjustment(vv_weights(g, system), system)[3]
        assert adj(g1 + g2) == pytest.approx(adj(g1) + adj(g2), abs=1e-10)

    def test_adjustment_shrinks_linearly_with_quotes(self):
        spec = VanillaSpec(CALL, 110.0)
        base_rr, base_bf = -0.015, 0.002
        scales = (1.0, 0.5, 0.1, 0.01)
        adjustments = []
        for s in scales:
            quotes = PivotQuotes(sigma_atm=0.10, sigma_rr25=base_rr * s,
                                 sigma_bf25=base_bf * s)
            adjustments.append(abs(vv_price(ENV, spec, quotes).adjustment))
        c = adjustments[0] / (abs(base_rr) + abs(base_bf))
        for s, adj in zip(scales, adjustments):
            assert adj <= 2.0 * c * s * (abs(base_rr) + abs(base_bf))

    def test_weights_reported(self):
        result = vv_price(ENV, VanillaSpec(CALL, 110.0), self.QUOTES)
        assert all(map(math.isfinite, (result.x1, result.x2, result.x3)))
        assert result.condition > 0.0

    def test_barrier_contracts_priced(self):
        from fxx import DoubleBarrierSpec, KikoSpec, KnockType

        quotes = self.QUOTES
        corridor = DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, KnockType.OUT)
        result = vv_price(ENV, corridor, quotes)
        assert result.vv_price == result.bs_price + result.adjustment
        pair = KikoSpec(PUT, 105.0, 92.0, BarrierSide.LOWER, 85.0, BarrierSide.LOWER)
        result = vv_price(ENV, pair, quotes)
        assert math.isfinite(result.adjustment)


PROPERTY = settings(derandomize=True, database=None, deadline=None)
smiles = st.builds(PivotQuotes, sigma_atm=st.floats(0.05, 0.4),
                   sigma_rr25=st.floats(-0.03, 0.03), sigma_bf25=st.floats(0.0, 0.01))
knocks = st.sampled_from((KnockType.IN, KnockType.OUT))


class TestProperties:
    @settings(PROPERTY, max_examples=100)
    @given(markets, directions, moneyness, distances, st.booleans(), knocks)
    @pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
    def test_flat_smile_adjustment_is_exactly_zero(self, env, direction, m, d, upper, knock):
        from fxx import DoubleBarrierSpec

        strike = env.spot * m
        single = (SingleBarrierSpec(direction, strike, env.spot * d, BarrierSide.UPPER, knock)
                  if upper else
                  SingleBarrierSpec(direction, strike, env.spot / d, BarrierSide.LOWER, knock))
        corridor = DoubleBarrierSpec(direction, strike, env.spot / d, env.spot * d, knock)
        flat = PivotQuotes(sigma_atm=env.sigma)
        for spec in (VanillaSpec(direction, strike), single, corridor):
            result = vv_price(env, spec, flat)
            assert result.adjustment == 0.0
            assert result.vv_price == result.bs_price

    @settings(PROPERTY, max_examples=100)
    @given(markets, smiles)
    def test_pivot_vanillas_reprice_at_market_vol(self, env, quotes):
        for pivot in build_pivots(env, quotes):
            market = gk_price(replace(env, sigma=pivot.market_vol), pivot.direction,
                              pivot.strike)
            result = vv_price(env, VanillaSpec(pivot.direction, pivot.strike), quotes)
            assert abs(result.vv_price - market) <= 1e-8 * max(1.0, market)

    @settings(PROPERTY, max_examples=150)
    @given(markets, smiles, directions, moneyness, st.floats(1e-3, 1e-2), st.booleans())
    def test_weights_match_high_precision_solve(self, env, quotes, direction, m, near, above):
        # The reference solves the same float matrix and right-hand sides in
        # 40 digits. Next to the ATM pivot strike the target's volga nearly
        # vanishes; there the componentwise (Oettli-Prager) backward error
        # shows whether the refinement step made the solve backward stable.
        import mpmath
        from support import EPS

        env_atm = replace(env, sigma=quotes.sigma_atm)
        pivots = build_pivots(env, quotes)
        system = build_pivot_system(env_atm, pivots)
        step = near * quotes.sigma_atm * math.sqrt(env.T)
        near_atm = pivots.atm.strike * math.exp(step if above else -step)
        with mpmath.workdps(40):
            matrix = mpmath.matrix([list(row) for row in system.matrix])
            condition = mpmath.mnorm(matrix, 1) * mpmath.mnorm(mpmath.inverse(matrix), 1)
            assert abs(system.condition - condition) <= 1e-13 * condition
            for strike in (env.spot * m, near_atm):
                target = gk_greeks(env_atm, direction, strike)
                rhs = (target.vega, target.vanna, target.volga)
                x = vv_weights(target, system)
                exact = mpmath.lu_solve(matrix, mpmath.matrix(list(rhs)))
                scale = max(abs(v) for v in exact)
                assert max(abs(exact[i] - x[i]) for i in range(3)) <= 1e-13 * scale
                for row, b in zip(system.matrix, rhs):
                    residual = b - mpmath.fsum(mpmath.mpf(a) * v for a, v in zip(row, x))
                    size = mpmath.fsum(abs(mpmath.mpf(a) * v) for a, v in zip(row, x)) + abs(b)
                    assert abs(residual) <= 2.0 * EPS * size

    @settings(PROPERTY, max_examples=200)
    @given(st.one_of(singles(), corridors()), smiles)
    @pytest.mark.filterwarnings("ignore::fxx.errors.TruncationWarning")
    def test_knock_in_plus_knock_out_is_vanilla(self, case, quotes):
        # vv_price is linear in the target Greeks, so in/out parity carries
        # over to the adjustment and the market-adjusted price
        env, out_spec = case
        knock_out = vv_price(env, out_spec, quotes)
        knock_in = vv_price(env, replace(out_spec, knock=KnockType.IN), quotes)
        vanilla = vv_price(env, VanillaSpec(out_spec.direction, out_spec.strike), quotes)
        bound = 1e-13 * max(1.0, abs(vanilla.bs_price))
        assert abs(knock_out.vv_price + knock_in.vv_price - vanilla.vv_price) <= bound
        assert abs(knock_out.adjustment + knock_in.adjustment - vanilla.adjustment) <= bound


def _outcome(fn):
    """repr of the result, or the type and message of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:
        return type(exc).__name__, str(exc)


extreme_vols = _log_uniform(1e-6, 10.0)


@st.composite
def pivot_cases(draw):
    """(env, PivotSet): the pivots ``build_pivots`` solves on desk markets,
    or pivots at strikes within a factor 1e3 of spot on the extreme markets
    of ``test_every_failure_is_a_typed_pricing_error``. Flat vols differ
    from the environment's or not; with zero risk reversal and butterfly
    every market vol is the flat vol and every gap is 0.0."""
    flat = draw(st.booleans())
    if draw(st.booleans()):
        env = draw(markets)
        sigma_atm = draw(st.one_of(st.just(env.sigma), st.floats(0.05, 0.4)))
        quotes = (PivotQuotes(sigma_atm) if flat else
                  draw(st.builds(PivotQuotes, sigma_atm=st.just(sigma_atm),
                                 sigma_rr25=st.floats(-0.03, 0.03),
                                 sigma_bf25=st.floats(0.0, 0.01))))
        return env, build_pivots(env, quotes)
    env = draw(extreme_markets)
    strikes = sorted(env.spot * draw(extreme_ratios) for _ in range(3))
    assume(strikes[0] < strikes[1] < strikes[2])
    bs_vol = draw(st.one_of(st.just(env.sigma), extreme_vols))
    legs = [Pivot(strike, bs_vol, bs_vol if flat else draw(extreme_vols), direction)
            for strike, direction in zip(strikes, (PUT, CALL, CALL))]
    return env, PivotSet(*legs)


@settings(PROPERTY, max_examples=1000)
@given(pivot_cases())
def test_pivot_system_is_the_public_vanilla_construction(case):
    from support import reference_pivot_system

    env, pivots = case

    def built():
        system = build_pivot_system(env, pivots)
        assert system.inverse == _inverse(system.matrix)
        return system.matrix, system.gaps, system.condition

    assert _outcome(built) == _outcome(lambda: reference_pivot_system(env, pivots))
