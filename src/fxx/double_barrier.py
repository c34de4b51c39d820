"""Double-barrier pricing: corridor knock-outs via a truncated image
series, double knock-ins via parity, mixed in/out pairs via replication.

The knock-out call/put series (Ikeda & Kunitomo, 1992) sums
reflected-image terms indexed by ``n``; five terms either side suffice at
desk scales and a tail check warns when they do not. Greeks are produced
by central finite differences on the truncated series (double knock-in
Greeks follow from parity against the vanilla closed form).
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
from .num_core import log_ratio
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

    Any strike is accepted. The strike enters the d-terms only as the
    limit of the payoff's range inside the corridor, so it is clipped to
    [L, U] there while the cash leg keeps K; a call with K >= U or a put
    with K <= L is worth exactly 0.0. The result is clamped to
    [0, vanilla]; if the outermost terms exceed ``cfg.tail_tol`` a
    TruncationWarning is issued.
    """
    if spec.knock != KnockType.OUT:
        raise PreconditionError("koko_price prices knock-out corridors only")
    spec.validate_against(env)
    K, L, U = spec.strike, spec.lower, spec.upper
    Kc = min(max(K, L), U)
    phi = int(spec.direction)
    if Kc == (U if phi > 0 else L):
        return 0.0  # the payoff is zero everywhere inside the corridor

    S, T, sig = env.spot, env.T, env.sigma
    b = env.drift
    s = sig * math.sqrt(T)
    alpha = 2.0 * b / (sig * sig) + 1.0
    nu_T = (b + 0.5 * sig * sig) * T
    ln_UL = log_ratio(U, L)
    ln_L, ln_U, ln_S = math.log(L), math.log(U), math.log(S)
    # log arguments of d1..d4 at n = 0; the image shift adds to them
    if phi > 0:
        x1, x2 = log_ratio(S, Kc), log_ratio(S, U)
        x3, x4 = log_ratio(L * L, Kc * S), log_ratio(L * L, S * U)
    else:
        x1, x2 = log_ratio(S, L), log_ratio(S, Kc)
        x3, x4 = log_ratio(L, S), log_ratio(L * L, Kc * S)

    sum_asset = 0.0
    sum_cash = 0.0
    tail = 0.0
    for n in range(-cfg.n_max, cfg.n_max + 1):
        shift = 2.0 * n * ln_UL
        lp_img = alpha * n * ln_UL                       # (U^n/L^n)^alpha
        lp_ref = alpha * ((n + 1) * ln_L - n * ln_U - ln_S)   # (L^{n+1}/(U^n S))^alpha
        lp_img_c = (alpha - 2.0) * n * ln_UL
        lp_ref_c = (alpha - 2.0) * ((n + 1) * ln_L - n * ln_U - ln_S)
        d1 = (x1 + shift + nu_T) / s
        d2 = (x2 + shift + nu_T) / s
        d3 = (x3 - shift + nu_T) / s
        d4 = (x4 - shift + nu_T) / s
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


def classify_kiko(spec: KikoSpec) -> str:
    """Rule identifier of a KIKO spec, read from its barrier sides and order.

    Opposite sides give ``in-low-out-high`` or ``in-high-out-low`` (the
    barriers straddle spot). Equal sides give ``both-{high,low}-in-near``
    when the in barrier lies between spot and the out barrier and
    ``both-{high,low}-in-far`` otherwise. The strike plays no part. Sides
    that contradict the barrier order (a lower barrier above an upper one)
    raise ClassificationError.
    """
    kind = "call" if spec.direction == OptionDirection.CALL else "put"
    in_low = spec.side_in == BarrierSide.LOWER
    in_below = spec.barrier_in < spec.barrier_out
    side_in = "low" if in_low else "high"
    if spec.side_in == spec.side_out:
        # below spot the nearer barrier is the higher one, above spot the lower
        return f"KIKO-{kind}-both-{side_in}-in-{'far' if in_below == in_low else 'near'}"
    if in_below != in_low:
        raise ClassificationError(
            f"in barrier {spec.barrier_in} ({spec.side_in.name}) and out barrier "
            f"{spec.barrier_out} ({spec.side_out.name}): a lower barrier must lie "
            "below an upper one")
    return f"KIKO-{kind}-in-{side_in}-out-{'high' if in_low else 'low'}"


def kiko_price(env: MarketEnvironment, spec: KikoSpec,
               cfg: SeriesConfig = SeriesConfig()) -> float:
    """Knock-in/knock-out pair: pays when the in barrier is touched and the
    out barrier is not, which is the knock-out at the out barrier minus the
    option knocked out by touching either barrier. That second leg is the
    knock-out at the in barrier when it is the nearer of two same-side
    barriers, and the corridor knock-out when the barriers straddle spot."""
    spec.validate_against(env)
    rule = classify_kiko(spec)
    if rule.endswith("-far"):
        return 0.0  # every path reaching the in barrier crosses the out barrier first
    K = spec.strike
    knock_out = _single_ko(env, spec.direction, K, spec.barrier_out, spec.side_out)
    if rule.endswith("-near"):
        return knock_out - _single_ko(env, spec.direction, K, spec.barrier_in, spec.side_in)
    lower, upper = sorted((spec.barrier_in, spec.barrier_out))
    return knock_out - koko_price(env, DoubleBarrierSpec(
        direction=spec.direction, strike=K, lower=lower, upper=upper,
        knock=KnockType.OUT), cfg)


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
