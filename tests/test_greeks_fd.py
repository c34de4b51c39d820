import math
import warnings

import pytest

from fxx import (DomainError, FdBumps, MarketEnvironment, NumericalError, OptionDirection,
                 TruncationWarning, fd_greeks, gk_greeks, gk_price, greeks_contract, price_contract)
from fxx.greeks_fd import StencilEvaluationError
from golden import regen
from support import greek_sum, richardson_fd

ENV = MarketEnvironment(spot=100.0, r_d=0.03, r_f=0.01, sigma=0.2, T=1.0)
CALL = OptionDirection.CALL

# dyadic bumps keep the toy-pricer stencils exact in floating point
DYADIC = FdBumps(dS_rel=2.0**-10, dSigma_abs=2.0**-10)


class TestToyPricers:
    def test_constant_pricer(self):
        greeks = fd_greeks(lambda e: 2.5, ENV, DYADIC)
        assert greeks.as_tuple() == (2.5, 0.0, 0.0, 0.0, 0.0)

    def test_linear_in_spot(self):
        greeks = fd_greeks(lambda e: 0.5 * e.spot, ENV, DYADIC)
        assert greeks.delta == pytest.approx(0.5, rel=1e-12)
        assert greeks.vega == 0.0
        assert greeks.vanna == 0.0
        assert greeks.volga == 0.0

    def test_linear_in_vol(self):
        greeks = fd_greeks(lambda e: 4.0 * e.sigma, ENV, DYADIC)
        assert greeks.vega == pytest.approx(4.0, rel=1e-12)
        assert greeks.delta == 0.0
        assert greeks.volga == pytest.approx(0.0, abs=1e-9)

    def test_cross_term(self):
        greeks = fd_greeks(lambda e: e.spot * e.sigma, ENV, DYADIC)
        assert greeks.vanna == pytest.approx(1.0, rel=1e-9)

    def test_delta_bias_from_vol_bumped_corners(self):
        # delta averages the spot differences at sigma +- k, so for S sigma^2
        # it reads ((sigma + k)^2 + (sigma - k)^2) / 2 = sigma^2 + k^2
        k = DYADIC.dSigma_abs
        greeks = fd_greeks(lambda e: e.spot * e.sigma**2, ENV, DYADIC)
        assert greeks.delta == pytest.approx(ENV.sigma**2 + k * k, rel=1e-10)

    def test_linearity_exact(self):
        p1 = lambda e: 2.0
        p2 = lambda e: 0.5 * e.spot
        combined = fd_greeks(lambda e: 2.0 * p1(e) + 3.0 * p2(e), ENV, DYADIC)
        expected = greek_sum(fd_greeks(p1, ENV, DYADIC), fd_greeks(p2, ENV, DYADIC),
                             weights=(2.0, 3.0))
        for comp in ("value", "delta", "vega", "vanna", "volga"):
            assert abs(getattr(combined, comp) - getattr(expected, comp)) <= 1e-12


class TestStencil:
    def test_prices_seven_points_in_order(self):
        seen = []

        def pricer(e):
            seen.append((e.spot, e.sigma))
            return 1.0

        fd_greeks(pricer, ENV, DYADIC)
        S, sig = ENV.spot, ENV.sigma
        h, k = DYADIC.dS_rel * S, DYADIC.dSigma_abs
        assert seen == [(S, sig), (S, sig + k), (S, sig - k),
                        (S + h, sig + k), (S + h, sig - k),
                        (S - h, sig + k), (S - h, sig - k)]
        assert (S + h, sig) not in seen and (S - h, sig) not in seen


# Over the fingerprint draws the route's worst delta error is 9.3e-6 x
# max(1, |delta|), at a low-volatility, long-dated corridor knock-in
# (sigma 0.035, T 5.6), where the volatility bump's (k^2 / 2) d3V/dS dsigma^2
# term dominates; the bound keeps a margin of about 1.6 over it.
ROUTE_DELTA_BOUND = 1.5e-5


def test_fd_route_delta_against_richardson():
    # Every fingerprint draw lies further than the default spot bump from
    # its barriers, so the route's bumps are FdBumps() and the reference
    # extrapolates the stencil at a quarter and an eighth of them.
    reference_bumps = FdBumps(FdBumps.dS_rel / 4.0, FdBumps.dSigma_abs / 4.0)
    kinds, low_vol_long_corridors = set(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for cid, env, spec in regen.draws():
            kind = cid.split("-")[0]
            if kind == "vanilla":
                continue
            route, method, _notices = greeks_contract(env, spec, method="fd")
            assert method == "fd"
            _value, reference = richardson_fd(lambda e: price_contract(e, spec)[0], env,
                                              reference_bumps)
            err = abs(route.delta - reference["delta"]) / max(1.0, abs(reference["delta"]))
            assert err <= ROUTE_DELTA_BOUND, (cid, err)
            kinds.add(kind)
            low_vol_long_corridors += kind == "corridor" and env.sigma < 0.05 and env.T > 5.0
    assert kinds == {"single", "corridor", "kiko"}
    assert low_vol_long_corridors > 0


class TestAgainstClosedForm:
    def test_matches_analytic_greeks(self):
        fd = fd_greeks(lambda e: gk_price(e, CALL, 100.0), ENV, FdBumps(1e-4, 1e-4))
        analytic = gk_greeks(ENV, CALL, 100.0)
        for comp in ("delta", "vega", "vanna", "volga"):
            a, f = getattr(analytic, comp), getattr(fd, comp)
            assert abs(a - f) <= max(1e-6 * max(abs(a), abs(f)), 1e-6)

    def test_second_order_convergence(self):
        # halving both bumps shrinks the truncation error about fourfold
        analytic = gk_greeks(ENV, CALL, 120.0)
        big = fd_greeks(lambda e: gk_price(e, CALL, 120.0), ENV, FdBumps(2e-2, 2e-2))
        small = fd_greeks(lambda e: gk_price(e, CALL, 120.0), ENV, FdBumps(1e-2, 1e-2))
        checked = 0
        for comp in ("delta", "vega", "vanna", "volga"):
            err_big = abs(getattr(big, comp) - getattr(analytic, comp))
            err_small = abs(getattr(small, comp) - getattr(analytic, comp))
            if err_small < 1e-10:
                continue  # at the roundoff floor, the ratio is meaningless
            ratio = err_big / err_small
            assert 3.0 <= ratio <= 5.0, (comp, ratio)
            checked += 1
        assert checked >= 3


class TestErrors:
    @pytest.mark.parametrize("field", ["dS_rel", "dSigma_abs"])
    @pytest.mark.parametrize("bad", [0.0, -1e-4, math.nan, math.inf])
    def test_bad_bump_is_domain_error(self, field, bad):
        with pytest.raises(DomainError, match=field):
            FdBumps(**{field: bad})

    def test_stencil_failure_carries_diagnostic(self):
        def pricer(env):
            if env.spot > 100.0:
                raise ValueError("boom")
            return 1.0

        with pytest.raises(StencilEvaluationError, match=r"spot=100\.01"):
            fd_greeks(pricer, ENV, FdBumps(1e-4, 1e-4))

    def test_underflowing_bump_product_is_numerical_error(self):
        # k * k is 1e-400, zero in doubles
        with pytest.raises(NumericalError, match="underflows"):
            fd_greeks(lambda e: 1.0, ENV, FdBumps(1e-4, 1e-200))
