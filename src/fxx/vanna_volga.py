"""Vanna-Volga market adjustment on top of the flat-volatility price.

The smile enters through three pivot strikes: the delta-neutral straddle
strike and the two strikes where the call/put delta equals +/-0.25 at
the pivot volatility. A 3x3 system matches the contract's vega, vanna
and volga with a portfolio of the pivot options, and the adjustment is
the portfolio-weighted market-versus-flat cost, which collapses to the
risk-reversal and butterfly legs because the straddle leg carries no
market-versus-flat gap. The 3x3 algebra is plain Python: one adjugate
inverse, kept on the ``PivotSystem``, gives the condition estimate, the
solve and its refinement step. The delta-strike solve takes its normal
quantile from the standard library's ``statistics.NormalDist``.

All pivot quantities (strikes, Greeks, flat prices) are evaluated at the
pivot at-the-money volatility, which overrides the volatility carried by
the market environment. The pivot system prices its vanillas through the
vanilla kernel at each pivot's volatility and one discount pair, without
copying the environment; a pivot quoted at its flat volatility has a gap
of exactly 0.0 and is not priced twice.
"""

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

from .contracts import GreekSet, MarketEnvironment, OptionDirection
from .double_barrier import SeriesConfig
from .errors import DomainError, IllConditionedError
from .router import greeks_contract
from .vanilla import _check_scale, _discounts, _gk, _gk_greeks, _out_of_range

_MAX_CONDITION = 1e12
_PIVOT_DELTA = 0.25
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class PivotQuotes:
    """Market smile quotes: at-the-money volatility, 25-delta risk
    reversal (call vol minus put vol) and 25-delta butterfly offset."""

    sigma_atm: float
    sigma_rr25: float = 0.0
    sigma_bf25: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_atm) and self.sigma_atm > 0.0):
            raise DomainError(f"sigma_atm must be positive, got {self.sigma_atm!r}")
        for name in ("sigma_rr25", "sigma_bf25"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.call_vol <= 0.0 or self.put_vol <= 0.0:
            raise DomainError(
                f"reconstructed smile vols must stay positive, got call "
                f"{self.call_vol!r} / put {self.put_vol!r}")

    @property
    def call_vol(self) -> float:
        return self.sigma_atm + self.sigma_bf25 + 0.5 * self.sigma_rr25

    @property
    def put_vol(self) -> float:
        return self.sigma_atm + self.sigma_bf25 - 0.5 * self.sigma_rr25


@dataclass(frozen=True)
class Pivot:
    """One pivot instrument leg: its strike, the flat (pivot ATM) vol and
    the smile vol quoted for that strike."""

    strike: float
    bs_vol: float
    market_vol: float
    direction: OptionDirection

    def __post_init__(self):
        for name in ("strike", "bs_vol", "market_vol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"pivot {name} must be positive, got {value!r}")


@dataclass(frozen=True)
class PivotSet:
    put_25: Pivot
    atm: Pivot
    call_25: Pivot

    def __post_init__(self):
        if not (self.put_25.strike < self.atm.strike < self.call_25.strike):
            raise DomainError(
                f"pivot strikes must increase strictly, got "
                f"{self.put_25.strike}, {self.atm.strike}, {self.call_25.strike}")

    def __iter__(self):
        return iter((self.put_25, self.atm, self.call_25))


@dataclass(frozen=True)
class PivotSystem:
    """Pivot Greek matrix as a tuple of rows (vega, vanna, volga) whose
    columns are the put-strike, atm and call-strike pivots, the tuple of
    market-minus-flat pivot price gaps, the 1-norm condition estimate of
    the matrix and the matrix's adjugate inverse, as rows."""

    matrix: tuple
    gaps: tuple
    condition: float
    inverse: tuple


@dataclass(frozen=True)
class VVResult:
    bs_price: float
    x1: float
    x2: float
    x3: float
    adjustment: float
    vv_price: float
    condition: float


def _pivot_strike(spot: float, log_moneyness: float) -> float:
    """spot * exp(log_moneyness), an arithmetic failure outside (0, inf)."""
    try:
        strike = spot * math.exp(log_moneyness)
    except OverflowError:
        strike = math.inf
    if not 0.0 < strike < math.inf:
        raise _out_of_range(f"pivot strike {spot!r} * exp({log_moneyness!r})")
    return strike


def atm_strike(env: MarketEnvironment) -> float:
    """Delta-neutral straddle strike: call and put deltas cancel there."""
    return _pivot_strike(env.spot, (env.drift + 0.5 * env.sigma * env.sigma) * env.T)


def inv_std_normal_cdf(p: float) -> float:
    """Quantile of the standard normal distribution (Wichura's AS 241)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


def solve_delta_strike(env: MarketEnvironment, target_delta: float,
                       direction: OptionDirection) -> float:
    """Strike whose spot delta equals ``target_delta`` at env volatility."""
    phi = int(direction)
    if target_delta * phi <= 0.0:
        raise DomainError(
            f"target delta {target_delta!r} has the wrong sign for {direction.name}")
    try:
        scaled = phi * target_delta * math.exp(env.r_f * env.T)
    except OverflowError:   # exp(r_f T) past the double range: no strike either
        scaled = math.inf
    if scaled >= 1.0:
        raise DomainError(
            f"|delta * exp(r_f T)| = {scaled!r} >= 1 has no strike solution")
    d1 = inv_std_normal_cdf(scaled) * phi
    s = env.sigma * math.sqrt(env.T)
    return _pivot_strike(env.spot, (env.drift + 0.5 * env.sigma * env.sigma) * env.T - d1 * s)


def build_pivots(env: MarketEnvironment, quotes: PivotQuotes) -> PivotSet:
    """Solve the three pivot strikes at the pivot ATM volatility."""
    env_atm = env if env.sigma == quotes.sigma_atm else replace(env, sigma=quotes.sigma_atm)
    k_atm = atm_strike(env_atm)
    k_call = solve_delta_strike(env_atm, _PIVOT_DELTA, OptionDirection.CALL)
    k_put = solve_delta_strike(env_atm, -_PIVOT_DELTA, OptionDirection.PUT)
    return PivotSet(
        put_25=Pivot(k_put, quotes.sigma_atm, quotes.put_vol, OptionDirection.PUT),
        atm=Pivot(k_atm, quotes.sigma_atm, quotes.sigma_atm, OptionDirection.CALL),
        call_25=Pivot(k_call, quotes.sigma_atm, quotes.call_vol, OptionDirection.CALL),
    )


def _inverse(m: tuple) -> tuple:
    """Inverse of a 3x3 matrix from its adjugate (transposed cofactors)
    over the determinant."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if det == 0.0 or not math.isfinite(det):
        raise IllConditionedError(f"pivot system is singular: determinant {det!r}")
    return tuple(tuple(v / det for v in row) for row in adj)


def _apply(m: tuple, v: tuple) -> tuple:
    return tuple(row[0] * v[0] + row[1] * v[1] + row[2] * v[2] for row in m)


def _norm1(m: tuple) -> float:
    """Largest absolute column sum."""
    return max(abs(a) + abs(b) + abs(c) for a, b, c in zip(*m))


def build_pivot_system(env: MarketEnvironment, pivots: PivotSet) -> PivotSystem:
    """Pivot call Greeks at the flat vol plus market-minus-flat price gaps.

    The matrix columns use call Greeks at every pivot strike; replacing a
    pivot put with the call at the same strike changes none of the three
    Greeks. The gap entries price each pivot with its own quoted
    direction, at its market vol minus at the flat vol. Every value is
    ``gk_greeks`` or ``gk_price`` at the pivot's volatility, bit for bit.
    """
    columns = []
    gaps = []
    discounts = None
    for pivot in pivots:
        s = _check_scale(pivot.bs_vol, env.T)
        if discounts is None:  # after the first scale check, as gk_greeks orders them
            discounts = _discounts(env)
        columns.append(_gk_greeks(env, 1, pivot.strike, pivot.bs_vol, s, *discounts)[2:])
        gap = 0.0  # a price minus itself
        if pivot.market_vol != pivot.bs_vol:
            phi = int(pivot.direction)
            gap = (_gk(env, phi, pivot.strike, pivot.market_vol, *discounts)
                   - _gk(env, phi, pivot.strike, pivot.bs_vol, *discounts))
        gaps.append(gap)
    matrix = tuple(zip(*columns))
    inverse = _inverse(matrix)
    condition = _norm1(matrix) * _norm1(inverse)
    if not math.isfinite(condition) or condition > _MAX_CONDITION:
        raise IllConditionedError(
            f"pivot system condition estimate {condition:.3e} exceeds "
            f"{_MAX_CONDITION:.0e}; pivots are too close to distinguish")
    return PivotSystem(matrix=matrix, gaps=tuple(gaps), condition=condition, inverse=inverse)


def vv_weights(target: GreekSet, system: PivotSystem) -> tuple:
    """Hedge weights on the pivot columns matching the target's vega,
    vanna and volga: the system's adjugate inverse applied to the target,
    plus one step of iterative refinement with the same inverse."""
    rhs = (target.vega, target.vanna, target.volga)
    inv = system.inverse

    def residual(x):
        return tuple(t - v for t, v in zip(rhs, _apply(system.matrix, x)))

    x = _apply(inv, rhs)
    x = tuple(u + v for u, v in zip(x, _apply(inv, residual(x))))
    error, scale = math.hypot(*residual(x)), math.hypot(*rhs)
    if scale > 0.0 and error > 1e-10 * scale:
        raise IllConditionedError(
            f"pivot solve residual {error:.3e} too large versus rhs norm {scale:.3e}")
    return x


def vv_adjustment(weights: tuple, system: PivotSystem) -> tuple:
    """Map strike-basis weights to instrument-basis weights and the
    market-cost adjustment.

    Returns (x_atm, x_rr, x_bf, adjustment) where the adjustment is
    ``x_rr * RR gap + x_bf * BF gap``; the ATM leg carries a zero gap by
    construction and only its weight is reported.
    """
    w_put, w_atm, w_call = weights
    gap_put, _, gap_call = system.gaps
    x_rr = 0.5 * (w_call - w_put)
    x_bf = w_call + w_put
    x_atm = w_atm + x_bf
    rr_gap = gap_call - gap_put
    bf_gap = 0.5 * (gap_call + gap_put)
    adjustment = x_rr * rr_gap + x_bf * bf_gap
    return x_atm, x_rr, x_bf, adjustment


def vv_price(env: MarketEnvironment, spec, quotes: PivotQuotes,
             series_cfg: SeriesConfig = SeriesConfig()) -> VVResult:
    """Market-adjusted price of any contract this library prices.

    The flat price and its Greeks are evaluated at ``quotes.sigma_atm``
    (the env volatility is overridden); barrier contracts without closed
    Greeks use the finite-difference engine. The flat price is the Greek
    set's value, which every route computes bit for bit as
    ``price_contract`` does, so the contract is priced once.
    """
    env_atm = replace(env, sigma=quotes.sigma_atm)
    target, _method, _notes = greeks_contract(env_atm, spec, method="analytic",
                                              series_cfg=series_cfg)
    bs_price = target.value
    pivots = build_pivots(env_atm, quotes)
    system = build_pivot_system(env_atm, pivots)
    weights = vv_weights(target, system)
    x_atm, x_rr, x_bf, adjustment = vv_adjustment(weights, system)
    return VVResult(bs_price=bs_price, x1=x_atm, x2=x_rr, x3=x_bf,
                    adjustment=adjustment, vv_price=bs_price + adjustment,
                    condition=system.condition)
