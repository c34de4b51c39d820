"""Double-barrier pricing: corridor knock-outs via a truncated image
series, double knock-ins via parity, mixed in/out pairs via replication
from table-row single knock-outs and the corridor knock-out.

Every corridor leg is one core, ``_knock_out``, priced from its levels;
it ends in the single-barrier clamp, capped at the vanilla. The
knock-out call/put series (Ikeda & Kunitomo, 1992) sums
reflected-image terms indexed by ``n``. Each call sums n = -m..m for the
smallest m whose closed-form bound on the omitted terms lies below the
tail tolerance, capped at ``SeriesConfig.n_max``; at the cap a tail check
warns when the first omitted terms are not negligible. The terms, the
bound and the check all read one set of parameters affine in n. A term's
N(hi) - N(lo) is taken on the tail nearer its ends, in log space when it
underflows, since its power can be large enough to make it count. Greeks
of these contracts come from the finite-difference route in
``fxx.router``.
"""

import math
import sys
import warnings
from dataclasses import dataclass

from .contracts import (_TABLE, BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,
                        MarketEnvironment, OptionDirection)
from .errors import (ClassificationError, DomainError, NumericalError, PreconditionError,
                     TruncationWarning)
from .num_core import log_ratio
from .num_core import std_normal_cdf as _N
from .single_barrier import _LOG_OVERFLOW, _clamp, _row_price
from .vanilla import _check_scale, _discounts, gk_price

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# at or below this z, log N(z) comes from the asymptotic series of Mills' ratio
_TAIL_Z = -30.0
_MIN_NORMAL = sys.float_info.min
# bound, in price units, on what the omitted series terms may add
_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation cap. A price sums n = -m..m, m being the smallest count
    up to ``n_max`` whose bound on every omitted term lies below 1e-12 in
    price units. When no count up to ``n_max`` passes, the series runs to
    ``n_max`` and warns when the first omitted terms, |n| = n_max + 1,
    reach that tolerance; at the default cap, 50, only below
    tau = ln(U/L)^2 / (sigma^2 T) of about 0.005."""

    n_max: int = 50

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


def _log_tail_diff(near: float, far: float) -> float:
    """log(N(near) - N(far)) for far < near <= _TAIL_Z, from the asymptotic
    series of Mills' ratio, N(z) = pdf(z)/|z| (1 - 1/z^2 + 3/z^4 - ...),
    whose seventh term is below 3e-16 there."""
    def series(z):
        q = 1.0 / (z * z)
        return 1.0 + q * (-1.0 + q * (3.0 + q * (-15.0 + q * (105.0 + q * (-945.0 + q * 10395.0)))))

    log_near = -0.5 * near * near - _LOG_SQRT_2PI - math.log(-near) + math.log(series(near))
    # log N(far) - log N(near), from the difference of the ends
    gap = (-0.5 * (far - near) * (far + near) + math.log1p((near - far) / far)
           + math.log(series(far) / series(near)))
    return log_near + math.log(-math.expm1(gap))


def _pow_times(log_power: float, hi: float, lo: float) -> float:
    """exp(log_power) (N(hi) - N(lo)) for hi >= lo, overflow-checked. The
    difference is N(near) - N(far) on the tail nearer the ends, the
    accurate one; below the normal double range it is taken in log space
    from that tail, where the power may still make the term count."""
    near, far = (-lo, -hi) if hi + lo > 0.0 else (hi, lo)
    diff = _N(near) - _N(far)
    if diff >= _MIN_NORMAL:
        x = log_power + math.log(diff)
    else:
        # above the tail only (nearly) equal ends get here; in it
        # N(near) < e^(-near^2/2), and a term below e^-745 is 0 in doubles
        if not far < near <= _TAIL_Z or log_power - 0.5 * near * near < -745.0:
            return 0.0
        x = log_power + _log_tail_diff(near, far)
    if x > _LOG_OVERFLOW:
        raise NumericalError(
            f"corridor image power exp({x:.1f}) overflows; the series is outside "
            "its numerical range for these barriers/rates")
    return math.exp(x)


def _tail_bound(pieces: tuple, k: int, limit: float) -> float:
    """Bound, in price units, on what the image series terms with |n| >= k
    add. Once the running sum reaches ``limit`` it stops there.

    ``pieces`` holds the eight nonnegative parts the terms are made of
    (image and reflected, asset and cash, for n > 0 and for n < 0), each
    as a function of k = |n|: e^(log_scale + slope k) (N(hi) - N(lo)), with
    hi = hi0 + step k and lo = lo0 + step k. ``log_scale`` includes the
    log of the part's unit, S or K, less log sqrt(2 pi).

    With dist the distance from 0 to [lo, hi] and w = hi - lo,
    N(hi) - N(lo) <= phi(dist) min(1/dist, w): by Mills' ratio,
    N(-x) <= phi(x)/x, when the interval lies on one side of 0, and
    because phi is at most phi(dist) on the interval. dist is convex in
    k, so log(e^power phi(dist)) is concave in k. Once one step shrinks it
    by a ratio r < 1, every later step shrinks it at least as much, and
    the sum from k on is at most its value at k over 1 - r. A part whose
    ratio at k is not below 1 has not passed its peak, which drift and
    maturity can put at any k; the bound is then infinite.
    """
    total = 0.0
    for log_scale, slope, hi0, lo0, step in pieces:
        hi, lo = hi0 + step * k, lo0 + step * k
        dist = lo if lo > 0.0 else (-hi if hi < 0.0 else 0.0)
        hi, lo = hi + step, lo + step
        dist_next = lo if lo > 0.0 else (-hi if hi < 0.0 else 0.0)
        log_r = slope - 0.5 * (dist_next * dist_next - dist * dist)
        log_first = log_scale + slope * k - 0.5 * dist * dist
        if not (log_r < 0.0 and log_first < _LOG_OVERFLOW):
            return math.inf
        width = hi0 - lo0
        # min(1/dist, w) also bounds every later k: once dist grows, it
        # keeps growing
        h = 1.0 / dist if dist_next >= dist and dist * width > 1.0 else width
        total += math.exp(log_first) * h / -math.expm1(log_r)
        if total >= limit:
            break
    return total


def _series_cut(pieces: tuple, n_max: int):
    """Smallest m in 1..n_max whose bound on the terms |n| > m lies below
    ``_TAIL_TOL``; None when there is none."""
    for m in range(1, n_max + 1):
        if _tail_bound(pieces, m + 1, _TAIL_TOL) < _TAIL_TOL:
            return m
    return None


def _knock_out(env: MarketEnvironment, direction: OptionDirection, K: float, L: float,
               U: float, cfg: SeriesConfig) -> float:
    """Corridor knock-out price at levels L < spot < U from the truncated
    image series: the price of every corridor leg.

    Any strike is accepted. The strike enters the d-terms only as the
    limit of the payoff's range inside the corridor, so it is clipped to
    [L, U] there while the cash leg keeps K; a call with K >= U or a put
    with K <= L is worth exactly 0.0. The series sums n = -m..m in
    ascending order, m being the smallest count up to ``cfg.n_max`` whose
    closed-form bound on all omitted terms (``_tail_bound``) lies below
    ``_TAIL_TOL``. When none does, it sums to ``cfg.n_max`` and warns
    (TruncationWarning, naming the public entry point's caller) if the
    first omitted terms reach ``_TAIL_TOL``. The sum ends in ``_clamp``,
    capped at the vanilla. A diffusion scale sigma sqrt(T) below 1e-10
    raises DomainError, as for single barriers.
    """
    Kc = min(max(K, L), U)
    phi = int(direction)
    if Kc == (U if phi > 0 else L):
        return 0.0  # the payoff is zero everywhere inside the corridor

    S, T, sig = env.spot, env.T, env.sigma
    b = env.drift
    s = _check_scale(sig, T)
    alpha = 2.0 * b / (sig * sig) + 1.0
    nu_T = (b + 0.5 * sig * sig) * T
    ln_UL = log_ratio(U, L)
    ln_L, ln_S = math.log(L), math.log(S)
    # log arguments of d1..d4 at n = 0
    if phi > 0:
        x1, x2 = log_ratio(S, Kc), log_ratio(S, U)
        x3, x4 = log_ratio(L * L, Kc * S), log_ratio(L * L, S * U)
    else:
        x1, x2 = log_ratio(S, L), log_ratio(S, Kc)
        x3, x4 = log_ratio(L, S), log_ratio(L * L, Kc * S)
    # Term n is affine in n: the image d-terms are a1 + c n and a2 + c n,
    # the reflected ones a3 - c n and a4 - c n, the cash legs' the same
    # less s; the asset legs' log powers are lp_a n (image, (U/L)^(alpha n))
    # and ref_a - lp_a n (reflected, (L^(n+1) / (U^n S))^alpha), the cash
    # legs' the same with alpha - 2.
    c = 2.0 * ln_UL / s
    a1, a2 = (x1 + nu_T) / s, (x2 + nu_T) / s
    a3, a4 = (x3 + nu_T) / s, (x4 + nu_T) / s
    b1, b2, b3, b4 = a1 - s, a2 - s, a3 - s, a4 - s
    lp_a, lp_c = alpha * ln_UL, (alpha - 2.0) * ln_UL
    ref_a, ref_c = alpha * (ln_L - ln_S), (alpha - 2.0) * (ln_L - ln_S)

    def term(n: int) -> tuple:
        """The asset and cash parts of term n."""
        cn = c * n
        return (_pow_times(lp_a * n, a1 + cn, a2 + cn)
                - _pow_times(ref_a - lp_a * n, a3 - cn, a4 - cn),
                _pow_times(lp_c * n, b1 + cn, b2 + cn)
                - _pow_times(ref_c - lp_c * n, b3 - cn, b4 - cn))

    # the eight parts of the terms as functions of k = |n| (see
    # _tail_bound): image and reflected, asset and cash, for n > 0 then n < 0
    img_S, img_K = ln_S - _LOG_SQRT_2PI, math.log(K) - _LOG_SQRT_2PI
    ref_S, ref_K = img_S + ref_a, img_K + ref_c
    pieces = ((img_S, lp_a, a1, a2, c), (img_K, lp_c, b1, b2, c),
              (ref_S, -lp_a, a3, a4, -c), (ref_K, -lp_c, b3, b4, -c),
              (img_S, -lp_a, a1, a2, -c), (img_K, -lp_c, b1, b2, -c),
              (ref_S, lp_a, a3, a4, c), (ref_K, lp_c, b3, b4, c))
    m = _series_cut(pieces, cfg.n_max)
    top = cfg.n_max if m is None else m
    sum_asset = sum_cash = 0.0
    for n in range(-top, top + 1):
        asset, cash = term(n)
        sum_asset += asset
        sum_cash += cash
    F, D = _discounts(env)
    price = phi * (F * S * sum_asset - D * K * sum_cash)
    if m is None:
        # no bound passed: the truncation error is what the first omitted
        # pair, +-(n_max + 1), would add
        edge = cfg.n_max + 1
        try:
            omitted = sum(abs(asset) * S + abs(cash) * K
                          for asset, cash in map(term, (-edge, edge)))
        except NumericalError:  # its image power overflows: far from converged
            omitted = math.inf
        if omitted >= _TAIL_TOL:
            warnings.warn(
                f"first omitted series terms (|n| = {edge}) contribute "
                f"{omitted:.3e} >= tail_tol={_TAIL_TOL:.1e}; increase n_max "
                "for this regime", TruncationWarning, stacklevel=3)
    vanilla = gk_price(env, direction, K)
    return min(_clamp(price), vanilla)


def koko_price(env: MarketEnvironment, spec: DoubleBarrierSpec,
               cfg: SeriesConfig = SeriesConfig()) -> float:
    """Double knock-out price from the truncated image series (``_knock_out``)."""
    if spec.knock != KnockType.OUT:
        raise PreconditionError("koko_price prices knock-out corridors only")
    spec.validate_against(env)
    return _knock_out(env, spec.direction, spec.strike, spec.lower, spec.upper, cfg)


def kiki_price(env: MarketEnvironment, spec: DoubleBarrierSpec,
               cfg: SeriesConfig = SeriesConfig()) -> float:
    """Double knock-in price by parity: vanilla minus double knock-out."""
    if spec.knock != KnockType.IN:
        raise PreconditionError("kiki_price prices knock-in corridors only")
    vanilla = gk_price(env, spec.direction, spec.strike)  # its errors come first
    spec.validate_against(env)
    return vanilla - _knock_out(env, spec.direction, spec.strike, spec.lower, spec.upper, cfg)


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
    barriers, and the corridor knock-out when the barriers straddle spot.
    The difference ends in the single-barrier clamp: round-off in
    [-1e-10, 0) returns 0.0, and a value below -1e-10 or not finite raises
    NumericalError. Each single-barrier leg is priced from its table row and
    clamped, as by ``price_single_barrier``, and a corridor leg by
    ``_knock_out``; the spec's own checks keep both levels positive and
    unbreached, so no leg spec is built."""
    spec.validate_against(env)
    rule = classify_kiko(spec)
    if rule.endswith("-far"):
        return 0.0  # every path reaching the in barrier crosses the out barrier first
    K = spec.strike
    row = _TABLE[spec.direction, spec.side_out, KnockType.OUT, K > spec.barrier_out]
    knock_out = _row_price(env, row, K, spec.barrier_out)
    if rule.endswith("-near"):
        row = _TABLE[spec.direction, spec.side_in, KnockType.OUT, K > spec.barrier_in]
        price = knock_out - _row_price(env, row, K, spec.barrier_in)
    else:
        lower, upper = sorted((spec.barrier_in, spec.barrier_out))
        price = knock_out - _knock_out(env, spec.direction, K, lower, upper, cfg)
    return _clamp(price)

