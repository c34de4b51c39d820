"""Double-barrier pricing: corridor knock-outs via a truncated image
series, double knock-ins via parity, mixed in/out pairs via replication.

The knock-out call/put series sums reflected-image terms indexed by
``n``; five terms either side suffice at desk scales and a tail check
warns when they do not. Greeks are produced by central finite
differences on the truncated series (double knock-in Greeks follow from
parity against the vanilla closed form).
"""

import math
import warnings
from dataclasses import dataclass, replace

from .contracts import (BarrierSide, DoubleBarrierSpec, GreekSet, KikoSpec,
                        KnockType, MarketEnvironment, OptionDirection,
                        SingleBarrierSpec)
from .errors import (ClassificationError, NumericalError, PreconditionError,
                     TruncationWarning)
from .greeks_fd import FdBumps, fd_greeks
from .num_core import std_normal_cdf as _N
from .single_barrier import price_single_barrier
from .vanilla import gk_greeks, gk_price

# leaves room for the spot/strike prefactors before the double range ends
_LOG_OVERFLOW = 690.0


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control: the series runs n = -n_max..n_max and the
    |n| = n_max term magnitudes must stay below ``tail_tol``."""

    n_max: int = 5
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.tail_tol <= 0.0:
            raise ValueError(f"tail_tol must be positive, got {self.tail_tol}")


def _ncdf_diff(hi: float, lo: float) -> float:
    """N(hi) - N(lo) >= 0 evaluated from the more accurate tail."""
    if hi + lo > 0.0:
        return _N(-lo) - _N(-hi)
    return _N(hi) - _N(lo)


def _pow_times(log_power: float, diff: float) -> float:
    """exp(log_power) * diff for diff >= 0, overflow-checked."""
    if diff <= 0.0:
        return 0.0
    x = log_power + math.log(diff)
    if x > _LOG_OVERFLOW:
        raise NumericalError(
            f"corridor image power exp({x:.1f}) overflows; the series is outside "
            "its numerical range for these barriers/rates")
    return math.exp(x)


def koko_price(env: MarketEnvironment, spec: DoubleBarrierSpec,
               cfg: SeriesConfig = SeriesConfig()) -> float:
    """Double knock-out price from the truncated image series.

    Requires L < K < U. The result is clamped to [0, vanilla]; if the
    outermost terms exceed ``cfg.tail_tol`` a TruncationWarning is issued.
    """
    if spec.knock != KnockType.OUT:
        raise PreconditionError("koko_price prices knock-out corridors only")
    spec.validate_against(env)
    K, L, U = spec.strike, spec.lower, spec.upper
    if not (L < K < U):
        raise PreconditionError(
            f"corridor series needs lower < strike < upper, got {L}, {K}, {U}")

    S, T, sig = env.spot, env.T, env.sigma
    phi = int(spec.direction)
    b = env.drift
    s = sig * math.sqrt(T)
    alpha = 2.0 * b / (sig * sig) + 1.0
    nu_T = (b + 0.5 * sig * sig) * T
    ln_UL = math.log(U / L)
    ln_L, ln_U, ln_S = math.log(L), math.log(U), math.log(S)

    sum_asset = 0.0
    sum_cash = 0.0
    tail = 0.0
    for n in range(-cfg.n_max, cfg.n_max + 1):
        shift = 2.0 * n * ln_UL
        lp_img = alpha * n * ln_UL                       # (U^n/L^n)^alpha
        lp_ref = alpha * ((n + 1) * ln_L - n * ln_U - ln_S)   # (L^{n+1}/(U^n S))^alpha
        lp_img_c = (alpha - 2.0) * n * ln_UL
        lp_ref_c = (alpha - 2.0) * ((n + 1) * ln_L - n * ln_U - ln_S)
        if phi > 0:
            d1 = (math.log(S / K) + shift + nu_T) / s
            d2 = (math.log(S / U) + shift + nu_T) / s
            d3 = (math.log(L * L / (K * S)) - shift + nu_T) / s
            d4 = (math.log(L * L / (S * U)) - shift + nu_T) / s
        else:
            d1 = (math.log(S / L) + shift + nu_T) / s
            d2 = (math.log(S / K) + shift + nu_T) / s
            d3 = (math.log(L / S) - shift + nu_T) / s
            d4 = (math.log(L * L / (K * S)) - shift + nu_T) / s
        term_asset = (_pow_times(lp_img, _ncdf_diff(d1, d2))
                      - _pow_times(lp_ref, _ncdf_diff(d3, d4)))
        term_cash = (_pow_times(lp_img_c, _ncdf_diff(d1 - s, d2 - s))
                     - _pow_times(lp_ref_c, _ncdf_diff(d3 - s, d4 - s)))
        sum_asset += term_asset
        sum_cash += term_cash
        if abs(n) == cfg.n_max:
            tail += abs(term_asset) * S + abs(term_cash) * K

    asset_leg = math.exp(-env.r_f * T) * S * sum_asset
    cash_leg = math.exp(-env.r_d * T) * K * sum_cash
    price = phi * (asset_leg - cash_leg)
    if tail >= cfg.tail_tol:
        warnings.warn(
            f"outermost series terms contribute {tail:.3e} >= tail_tol="
            f"{cfg.tail_tol:.1e}; increase n_max for this regime",
            TruncationWarning, stacklevel=2)
    vanilla = gk_price(env, spec.direction, K)
    return min(max(price, 0.0), vanilla)


def kiki_price(env: MarketEnvironment, spec: DoubleBarrierSpec,
               cfg: SeriesConfig = SeriesConfig()) -> float:
    """Double knock-in price by parity: vanilla minus double knock-out."""
    if spec.knock != KnockType.IN:
        raise PreconditionError("kiki_price prices knock-in corridors only")
    out_spec = replace(spec, knock=KnockType.OUT)
    return gk_price(env, spec.direction, spec.strike) - koko_price(env, out_spec, cfg)


def _single_ko(env: MarketEnvironment, direction: OptionDirection, strike: float,
               barrier: float, side: BarrierSide) -> float:
    return price_single_barrier(env, SingleBarrierSpec(
        direction=direction, strike=strike, barrier=barrier,
        side=side, knock=KnockType.OUT))


def _ko_either(env: MarketEnvironment, direction: OptionDirection, strike: float,
               x: float, y: float, cfg: SeriesConfig) -> float:
    """Price of an option knocked out by touching either of two levels.

    With the levels straddling spot this is the corridor knock-out; with
    both on one side only the inner level can be reached first, so it
    degenerates to a single-barrier knock-out there.
    """
    lo, hi = min(x, y), max(x, y)
    S = env.spot
    if lo < S < hi:
        phi = int(direction)
        if (phi > 0 and strike >= hi) or (phi < 0 and strike <= lo):
            return 0.0  # payoff region lies outside the corridor
        return koko_price(env, DoubleBarrierSpec(
            direction=direction, strike=strike, lower=lo, upper=hi,
            knock=KnockType.OUT), cfg)
    if S > hi:
        return _single_ko(env, direction, strike, hi, BarrierSide.LOWER)
    return _single_ko(env, direction, strike, lo, BarrierSide.UPPER)


_C, _P = OptionDirection.CALL, OptionDirection.PUT
_UP, _LOW = BarrierSide.UPPER, BarrierSide.LOWER

# Classification rows for in/out barrier pairs: direction, the printed
# strike/barrier inequality, the barrier sides it presumes and the rule tag.
# Every row is priced by the same identity in ``kiko_price``.
_KIKO_ROWS = (
    (_C, lambda K, bi, bo: bi < K <= bo, _LOW, _UP, "in-low-out-high"),
    (_C, lambda K, bi, bo: K <= bi < bo, _UP, _UP, "both-high-in-near"),
    (_C, lambda K, bi, bo: K <= bo < bi, _UP, _UP, "both-high-in-far"),
    (_C, lambda K, bi, bo: bi < bo < K, _LOW, _LOW, "both-low-in-far"),
    (_C, lambda K, bi, bo: bo < bi < K, _LOW, _LOW, "both-low-in-near"),
    (_C, lambda K, bi, bo: bo < K <= bi, _UP, _LOW, "in-high-out-low"),
    (_P, lambda K, bi, bo: bi <= K < bo, _LOW, _UP, "in-low-out-high"),
    (_P, lambda K, bi, bo: K < bi < bo, _UP, _UP, "both-high-in-near"),
    (_P, lambda K, bi, bo: K <= bo < bi, _UP, _UP, "both-high-in-far"),
    (_P, lambda K, bi, bo: bi < bo <= K, _LOW, _LOW, "both-low-in-far"),
    (_P, lambda K, bi, bo: bo < bi <= K, _LOW, _LOW, "both-low-in-near"),
    (_P, lambda K, bi, bo: bo <= K < bi, _UP, _LOW, "in-high-out-low"),
)


def classify_kiko(spec: KikoSpec) -> str:
    """Rule identifier of the replication row matching a KIKO spec."""
    for direction, matcher, side_in, side_out, rule in _KIKO_ROWS:
        if (spec.direction == direction
                and matcher(spec.strike, spec.barrier_in, spec.barrier_out)
                and spec.side_in == side_in and spec.side_out == side_out):
            kind = "call" if direction == _C else "put"
            return f"KIKO-{kind}-{rule}"
    raise ClassificationError(
        f"no replication row matches direction={spec.direction.name}, "
        f"K={spec.strike}, in={spec.barrier_in}({spec.side_in.name}), "
        f"out={spec.barrier_out}({spec.side_out.name}); barrier sides are "
        "inconsistent with the strike/barrier inequalities")


def kiko_price(env: MarketEnvironment, spec: KikoSpec,
               cfg: SeriesConfig = SeriesConfig()) -> float:
    """Knock-in/knock-out pair: pays when the in barrier is touched and the
    out barrier is not, which is the knock-out at the out barrier minus the
    option knocked out by touching either barrier."""
    spec.validate_against(env)
    classify_kiko(spec)  # rejects layouts no row covers
    K, bi, bo = spec.strike, spec.barrier_in, spec.barrier_out
    if spec.side_in == spec.side_out and abs(bi - env.spot) > abs(bo - env.spot):
        return 0.0  # every path reaching the in barrier crosses the out barrier first
    return (_single_ko(env, spec.direction, K, bo, spec.side_out)
            - _ko_either(env, spec.direction, K, bi, bo, cfg))


_MIN_REL_BUMP = 1e-12


def _shrink_spot_bump(env: MarketEnvironment, bumps: FdBumps, *walls: float) -> FdBumps:
    """Keep the spot stencil strictly on spot's side of every barrier."""
    h = bumps.dS_rel * env.spot
    room = min(abs(env.spot - w) for w in walls)
    if h >= room:
        h = 0.5 * room
    if h <= _MIN_REL_BUMP * env.spot:
        raise PreconditionError(
            f"spot {env.spot} is too close to a barrier to difference across "
            f"(room {room!r}); Greeks unavailable here")
    return FdBumps(dS_rel=h / env.spot, dSigma_abs=min(bumps.dSigma_abs, 0.5 * env.sigma))


def koko_greeks(env: MarketEnvironment, spec: DoubleBarrierSpec,
                cfg: SeriesConfig = SeriesConfig(),
                bumps: FdBumps = FdBumps()) -> GreekSet:
    """Finite-difference Greeks of the double knock-out."""
    spec.validate_against(env)
    safe = _shrink_spot_bump(env, bumps, spec.lower, spec.upper)
    return fd_greeks(lambda e: koko_price(e, spec, cfg), env, safe)


def kiki_greeks(env: MarketEnvironment, spec: DoubleBarrierSpec,
                cfg: SeriesConfig = SeriesConfig(),
                bumps: FdBumps = FdBumps()) -> GreekSet:
    """Double knock-in Greeks from parity with the vanilla closed form."""
    if spec.knock != KnockType.IN:
        raise PreconditionError("kiki_greeks expects a knock-in corridor spec")
    out_spec = replace(spec, knock=KnockType.OUT)
    return gk_greeks(env, spec.direction, spec.strike) - koko_greeks(env, out_spec, cfg, bumps)


def kiko_greeks(env: MarketEnvironment, spec: KikoSpec,
                cfg: SeriesConfig = SeriesConfig(),
                bumps: FdBumps = FdBumps()) -> GreekSet:
    """Finite-difference Greeks of the replicated in/out pair."""
    spec.validate_against(env)
    safe = _shrink_spot_bump(env, bumps, spec.barrier_in, spec.barrier_out)
    return fd_greeks(lambda e: kiko_price(e, spec, cfg), env, safe)
