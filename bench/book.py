"""Seeded inputs for every workload: the mixed contract book, the Monte
Carlo validation set and the CLI request sequence.

The library only ever sees what these generators return; the workload
seed never reaches it. A book has a fixed composition (counts per contract
type, single-barrier table row and KIKO replication row) so that runs with
different seeds do the same mix of work; the seed moves markets, strikes,
barriers and corridor widths.
"""

import math
import random
from dataclasses import dataclass, replace

from fxx import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,
                 MarketEnvironment, OptionDirection, PivotQuotes,
                 SingleBarrierSpec, VanillaSpec, classify_single_barrier,
                 gk_price)
from fxx.double_barrier import classify_kiko

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT

# The smile every book_risk op is adjusted against (acceptance criterion 6).
SMILE = PivotQuotes(sigma_atm=0.10, sigma_rr25=-0.015, sigma_bf25=0.002)

# Book composition per pass: a coverage mix, not measured traffic. No
# traffic mix is recorded in this repository, so every pricing rule the
# router dispatches to (the rule id price_contract returns) gets the same
# N_PER_RULE contracts: 1 vanilla rule, the 16 single-barrier table rows,
# KOKO and KIKI for calls and puts, and the 9 KIKO rows of KIKO_ROWS.
# Singles come in in/out pairs and corridors in KOKO/KIKI pairs, so that
# parity can be checked on every pass.
N_PER_RULE = 8
N_VANILLA = N_PER_RULE
N_SINGLE_PAIRS_PER_COMBO = N_PER_RULE   # x 8 (direction, side, strike vs barrier) combos
N_CORRIDOR_PAIRS = 2 * N_PER_RULE       # half calls, half puts
N_KIKO_PER_ROW = N_PER_RULE
# KIKO replication rows 0..11 (calls 0..5, puts 6..11, in the order of
# fxx.double_barrier._kiko_rows). The three rows whose barriers straddle
# spot on opposite sides, other than the call in-low-out-high row, price
# away from the KO - KOKO replication at this library version (one of them
# returns negative prices); they are left out of the timed book and
# measured every run by facts.known_defects() instead.
DEFECT_ROWS = (5, 6, 11)
KIKO_ROWS = tuple(r for r in range(12) if r not in DEFECT_ROWS)
# The corridor leg of the call in-low-out-high row (row 0) uses the image
# series. Below ln(U/L)^2 / (sigma^2 T) = 1 the default five terms are
# truncated and the price can fall below zero; the book draws row 0 at or
# above that ratio, and facts.truncation_probe() prices the draws below it
# every run ("series_truncation" in known_defects).
KIKO_SERIES_RATIO = 1.0


@dataclass(frozen=True)
class Ranges:
    """Uniform ranges of one market draw."""

    spot: tuple
    rate: tuple        # r_d and r_f, drawn independently
    sigma: tuple
    T: tuple

    def draw(self, rng: random.Random) -> MarketEnvironment:
        return MarketEnvironment(spot=rng.uniform(*self.spot), r_d=rng.uniform(*self.rate),
                                 r_f=rng.uniform(*self.rate), sigma=rng.uniform(*self.sigma),
                                 T=rng.uniform(*self.T))


# Vanillas and singles: the grid of acceptance criteria 1 and 2
# (tests/support.py sample_barrier_point), inside which in + out parity
# holds to 1e-10.
SINGLE_GRID = Ranges(spot=(50.0, 200.0), rate=(-0.02, 0.08), sigma=(0.05, 0.6), T=(0.05, 2.0))
VANILLA_MONEYNESS = (0.5, 1.5)          # strike / spot, as in that grid
# Corridors: the grid of acceptance criterion 3 (corridor series
# truncation), inside which five series terms agree with twenty to 1e-10.
CORRIDOR_GRID = Ranges(spot=(60.0, 180.0), rate=(-0.02, 0.08), sigma=(0.08, 0.15), T=(0.25, 0.5))
CORRIDOR_WIDTHS = (1.1, 3.0)            # U/L, criterion 3's range, stratified over the pairs
# KIKO: no acceptance criterion samples KIKO pairs, so these ranges are
# chosen here: volatilities and maturities inside the criterion-1 grid,
# barriers 3-30% from spot and from each other and strikes at least 2% from
# a barrier, so that each single-barrier leg keeps that grid's 1.1% margins.
KIKO_MARKET = Ranges(spot=(50.0, 200.0), rate=(-0.01, 0.05), sigma=(0.1, 0.4), T=(0.1, 2.0))

# Keeps single-barrier draws inside the range where in+out parity holds to
# 1e-10 (same margins as the acceptance grid): spot and strike at least
# 1.1% from the barrier, |reflection power| <= 3.
_BARRIER_MARGIN = 0.011
_REFLECTION_POWER_CAP = 3.0


@dataclass(frozen=True)
class Item:
    """One contract of the book with its market and reference vanilla."""

    kind: str            # vanilla | single | koko | kiki | kiko
    env: MarketEnvironment
    spec: object
    vanilla: float       # gk_price of the same direction and strike
    group: int           # items sharing a group are parity partners
    tag: str             # table row or replication rule, for composition


def _single_pair(rng, direction, side, strike_above):
    while True:
        env = SINGLE_GRID.draw(rng)
        lam_cap = min(math.log(1.5), _REFLECTION_POWER_CAP * env.sigma ** 2
                      / (2.0 * max(abs(env.drift), 1e-9)))
        if lam_cap < 2.0 * _BARRIER_MARGIN:
            continue
        lam = rng.uniform(_BARRIER_MARGIN, lam_cap)
        barrier = env.spot * math.exp(-lam if side == LOW else lam)
        ratio = rng.uniform(1.0 + _BARRIER_MARGIN, 1.4)
        strike = barrier * ratio if strike_above else barrier / ratio
        if not 0.5 * env.spot <= strike <= 1.5 * env.spot:
            continue
        return env, [SingleBarrierSpec(direction, strike, barrier, side, knock)
                     for knock in (IN, OUT)]


def series_ratio(env, lower: float, upper: float) -> float:
    """ln(U/L)^2 / (sigma^2 T): how fast the corridor image series converges."""
    return math.log(upper / lower) ** 2 / (env.sigma ** 2 * env.T)


def kiko_spec(rng, row):
    """(env, KikoSpec) for replication row ``row`` (0..11, calls first);
    row 0 only at a series ratio of KIKO_SERIES_RATIO or more."""
    while True:
        env, spec = kiko_draw(rng, row)
        if row != 0 or series_ratio(env, spec.barrier_in, spec.barrier_out) >= KIKO_SERIES_RATIO:
            return env, spec


def kiko_draw(rng, row):
    """(env, KikoSpec) for replication row ``row``, without the row-0 filter."""
    env = KIKO_MARKET.draw(rng)
    S = env.spot

    def f():
        return rng.uniform(1.03, 1.3)

    def inside(lo, hi):
        return rng.uniform(lo * 1.02, hi / 1.02)

    direction = CALL if row < 6 else PUT
    r = row % 6
    if direction == CALL:
        if r == 0:    # in-low-out-high: bi < K <= bo
            bi, bo = S / f(), S * f()
            return env, KikoSpec(CALL, inside(bi, bo), bi, LOW, bo, UP)
        if r == 1:    # both-high-in-near: K <= bi < bo
            bi = S * f()
            return env, KikoSpec(CALL, bi / f(), bi, UP, bi * f(), UP)
        if r == 2:    # both-high-in-far: K <= bo < bi
            bo = S * f()
            return env, KikoSpec(CALL, bo / f(), bo * f(), UP, bo, UP)
        if r == 3:    # both-low-in-far: bi < bo < K
            bo = S / f()
            return env, KikoSpec(CALL, bo * f(), bo / f(), LOW, bo, LOW)
        if r == 4:    # both-low-in-near: bo < bi < K
            bi = S / f()
            return env, KikoSpec(CALL, bi * f(), bi, LOW, bi / f(), LOW)
        bo, bi = S / f(), S * f()   # in-high-out-low: bo < K <= bi
        return env, KikoSpec(CALL, inside(bo, bi), bi, UP, bo, LOW)
    if r == 0:        # in-low-out-high: bi <= K < bo
        bi, bo = S / f(), S * f()
        return env, KikoSpec(PUT, inside(bi, bo), bi, LOW, bo, UP)
    if r == 1:        # both-high-in-near: K < bi < bo
        bi = S * f()
        return env, KikoSpec(PUT, bi / f(), bi, UP, bi * f(), UP)
    if r == 2:        # both-high-in-far: K <= bo < bi
        bo = S * f()
        return env, KikoSpec(PUT, bo / f(), bo * f(), UP, bo, UP)
    if r == 3:        # both-low-in-far: bi < bo <= K
        bo = S / f()
        return env, KikoSpec(PUT, bo * f(), bo / f(), LOW, bo, LOW)
    if r == 4:        # both-low-in-near: bo < bi <= K
        bi = S / f()
        return env, KikoSpec(PUT, bi * f(), bi, LOW, bi / f(), LOW)
    bo, bi = S / f(), S * f()       # in-high-out-low: bo <= K < bi
    return env, KikoSpec(PUT, inside(bo, bi), bi, UP, bo, LOW)


def corridor(rng, ranges: Ranges, u: float, direction) -> tuple:
    """(env, knock-out DoubleBarrierSpec) at width quantile ``u`` of
    CORRIDOR_WIDTHS; spot sits anywhere in the middle half of the corridor
    (in log terms) and the strike at least 2% inside it."""
    lo, hi = CORRIDOR_WIDTHS
    width = lo + (hi - lo) * u
    env = ranges.draw(rng)
    lower = env.spot / width ** rng.uniform(0.25, 0.75)
    upper = lower * width
    strike = rng.uniform(lower * 1.02, upper / 1.02)
    return env, DoubleBarrierSpec(direction, strike, lower, upper, OUT)


def make_book(seed: int, index: int) -> list:
    """Book number ``index`` of the run with workload seed ``seed``.

    Every pass of a book workload prices a fresh book, so no input repeats
    within a run and a result cache in the library would find no hits.
    """
    rng = random.Random(f"fxx-book:{seed}:{index}")
    items = []
    group = 0

    def add(kind, env, spec, tag):
        items.append(Item(kind, env, spec, gk_price(env, spec.direction, spec.strike),
                          group, tag))

    for i in range(N_VANILLA):
        env = SINGLE_GRID.draw(rng)
        spec = VanillaSpec(CALL if i % 2 == 0 else PUT,
                           env.spot * rng.uniform(*VANILLA_MONEYNESS))
        add("vanilla", env, spec, "vanilla")
        group += 1
    for direction in (CALL, PUT):
        for side in (LOW, UP):
            for strike_above in (True, False):
                for _ in range(N_SINGLE_PAIRS_PER_COMBO):
                    env, pair = _single_pair(rng, direction, side, strike_above)
                    for spec in pair:
                        add("single", env, spec, classify_single_barrier(spec).rule_id)
                    group += 1
    for i in range(N_CORRIDOR_PAIRS):
        env, spec = corridor(rng, CORRIDOR_GRID, (i + rng.random()) / N_CORRIDOR_PAIRS,
                             CALL if i % 2 == 0 else PUT)
        width = spec.upper / spec.lower
        for knock in (OUT, IN):
            add("koko" if knock == OUT else "kiki", env, replace(spec, knock=knock),
                f"width={width:.4f}")
        group += 1
    for row in KIKO_ROWS:
        for _ in range(N_KIKO_PER_ROW):
            env, spec = kiko_spec(rng, row)
            add("kiko", env, spec, classify_kiko(spec))
            group += 1
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------- Monte Carlo
# The ten contracts of acceptance criterion 4 (tests/test_acceptance.py).
MC_ENV = MarketEnvironment(spot=100.0, r_d=0.02, r_f=0.01, sigma=0.2, T=0.5)
MC_CONTRACTS = [
    VanillaSpec(CALL, 100.0),
    VanillaSpec(PUT, 100.0),
    SingleBarrierSpec(CALL, 100.0, 80.0, LOW, OUT),
    SingleBarrierSpec(CALL, 110.0, 105.0, UP, IN),
    SingleBarrierSpec(PUT, 95.0, 115.0, UP, OUT),
    SingleBarrierSpec(CALL, 95.0, 110.0, UP, OUT),
    DoubleBarrierSpec(CALL, 100.0, 85.0, 115.0, OUT),
    DoubleBarrierSpec(PUT, 100.0, 85.0, 115.0, OUT),
    DoubleBarrierSpec(CALL, 100.0, 90.0, 112.0, IN),
    KikoSpec(PUT, 105.0, 92.0, LOW, 85.0, LOW),
]
MC_STEPS = 2000
MC_PATHS = 2048          # 4 chunks of 512; criterion 4 uses 10^6


def mc_seed(seed: int, op: int) -> int:
    """Monte Carlo seed of op ``op``."""
    return random.Random(f"fxx-mc:{seed}:{op}").getrandbits(63)


def contract_barriers(spec) -> list:
    if isinstance(spec, SingleBarrierSpec):
        return [spec.barrier]
    if isinstance(spec, DoubleBarrierSpec):
        return [spec.lower, spec.upper]
    if isinstance(spec, KikoSpec):
        return [spec.barrier_in, spec.barrier_out]
    return []


# ---------------------------------------------------------------------- CLI
def request_doc(item: Item) -> dict:
    """The CLI request file of a book item."""
    env = item.env
    return {"market": {"spot": env.spot, "domestic_rate": env.r_d,
                       "foreign_rate": env.r_f, "volatility": env.sigma,
                       "maturity": env.T},
            "contract": _contract_doc(item.spec)}


def _contract_doc(spec) -> dict:
    side = {UP: "upper", LOW: "lower"}
    direction = "call" if spec.direction == CALL else "put"
    if isinstance(spec, VanillaSpec):
        return {"type": "vanilla", "direction": direction, "strike": spec.strike}
    if isinstance(spec, SingleBarrierSpec):
        return {"type": "single_barrier", "direction": direction,
                "strike": spec.strike, "barrier": spec.barrier,
                "side": side[spec.side], "knock": spec.knock.value}
    if isinstance(spec, DoubleBarrierSpec):
        return {"type": "double_barrier", "direction": direction,
                "strike": spec.strike, "lower_barrier": spec.lower,
                "upper_barrier": spec.upper, "knock": spec.knock.value}
    return {"type": "kiko", "direction": direction, "strike": spec.strike,
            "in_barrier": spec.barrier_in, "in_side": side[spec.side_in],
            "out_barrier": spec.barrier_out, "out_side": side[spec.side_out]}


CLI_MC_PATHS, CLI_MC_STEPS, CLI_MC_SEED = 2048, 50, 7
CLI_MC_ARGS = ("--paths", str(CLI_MC_PATHS), "--steps", str(CLI_MC_STEPS),
               "--seed", str(CLI_MC_SEED), "--bridge")


def cli_requests(seed: int) -> list:
    """The fixed CLI sequence: (command, item, argv tail) per step.

    One contract of each type from book 0 of the seed (the single barrier
    a down-and-out call, which is never worth zero), then the command mix
    price x4, greeks x2, vv-price, mc-check.
    """
    first = {}
    for item in make_book(seed, 0):
        if item.kind != "single" or item.tag == "DO-call-standard":
            first.setdefault(item.kind, item)
    return [("price", first["vanilla"], ()),
            ("price", first["single"], ()),
            ("price", first["koko"], ()),
            ("price", first["kiko"], ()),
            ("greeks", first["single"], ("--method", "analytic")),
            ("greeks", first["kiki"], ("--method", "analytic")),
            ("vv-price", first["single"], ()),
            ("mc-check", first["single"], CLI_MC_ARGS)]



SMILE_DOC = {"atm_vol": SMILE.sigma_atm, "rr_25": SMILE.sigma_rr25,
             "bf_25": SMILE.sigma_bf25}
