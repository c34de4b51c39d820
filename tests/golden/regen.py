"""Library fingerprints: the outputs of the public pricing entry points on
a fixed set of seeded draws, kept in ``library.json`` next to this file.

For every draw the file holds ``price_contract``, ``greeks_contract``
(analytic and fd) and ``vv_price`` at two smiles, each as its numbers and
strings, or as the type and message of the ``PricingError`` it raised,
plus the messages of any ``TruncationWarning``. The draws cover vanilla
calls and puts, the 16 single-barrier table rows, corridor knock-outs and
knock-ins over tau = ln(U/L)^2 / (sigma^2 T) from pi/2 to 1e3, and the 12
KIKO layouts.

A change that moves a number regenerates the file in the same commit, so
the diff declares the move:

    python tests/golden/regen.py

Each rewrite prints what moved against the file it replaces: the moved
records per contract kind and per output, the largest price move
relative to max(1, |price|), and the outputs whose outcome switched
between a number and an error.
"""

import hashlib
import json
import math
import platform
import random
import sys
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy  # noqa: E402  (recorded with the platform, not used here)

from fxx import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,  # noqa: E402
                 MarketEnvironment, OptionDirection, PivotQuotes, PricingError,
                 SingleBarrierSpec, TruncationWarning, VanillaSpec, greeks_contract,
                 price_contract, vv_price)

GOLDEN = HERE / "library.json"
SEED = 16
CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
IN, OUT = KnockType.IN, KnockType.OUT


def platform_facts() -> dict:
    return {"python": platform.python_version(),
            "libc": "-".join(platform.libc_ver()),
            "numpy": numpy.__version__}


def _desk(rng: random.Random) -> MarketEnvironment:
    """The market ranges of tests/test_domain_properties.py."""
    return MarketEnvironment(spot=rng.uniform(50.0, 200.0), r_d=rng.uniform(-0.01, 0.05),
                             r_f=rng.uniform(-0.01, 0.05), sigma=rng.uniform(0.1, 0.4),
                             T=rng.uniform(0.1, 2.0))


def _long_dated(rng: random.Random) -> MarketEnvironment:
    """Long maturities, low volatility and a drift of either sign: the
    corridor series' terms peak away from n = 0 here."""
    return MarketEnvironment(spot=rng.uniform(50.0, 200.0), r_d=rng.uniform(-0.02, 0.1),
                             r_f=rng.uniform(-0.02, 0.1), sigma=rng.uniform(0.03, 0.15),
                             T=rng.uniform(2.0, 10.0))


def _vanilla(rng):
    env = _desk(rng)
    return env, VanillaSpec(rng.choice((CALL, PUT)), env.spot * rng.uniform(0.5, 1.5))


def _single(rng, direction, side, knock, strike_above):
    env = _desk(rng)
    barrier = env.spot * rng.uniform(1.03, 1.3) ** (1 if side == UP else -1)
    strike = barrier * rng.uniform(1.01, 1.4) ** (1 if strike_above else -1)
    return env, SingleBarrierSpec(direction, strike, barrier, side, knock)


def _corridor(rng, direction, knock):
    env = (_desk if rng.random() < 0.5 else _long_dated)(rng)
    tau = math.exp(rng.uniform(math.log(math.pi / 2.0), math.log(1e3)))
    width = math.sqrt(tau) * env.sigma * math.sqrt(env.T)   # ln(U/L)
    lower = env.spot * math.exp(-width * rng.uniform(0.05, 0.95))
    upper = lower * math.exp(width)
    strike = env.spot * rng.uniform(0.7, 1.3)
    return env, DoubleBarrierSpec(direction, strike, lower, upper, knock)


def _kiko(rng, direction, layout):
    """``layout``: "straddle-in-low", "straddle-in-high", or
    "{low,high}-{near,far}" for two barriers on one side of spot."""
    env = _desk(rng)
    near, far = sorted((rng.uniform(1.03, 1.2), rng.uniform(1.2, 1.4)))
    strike = env.spot * rng.uniform(0.7, 1.3)
    if layout.startswith("straddle"):
        low, high = env.spot / near, env.spot * far
        if layout.endswith("low"):
            return env, KikoSpec(direction, strike, low, LOW, high, UP)
        return env, KikoSpec(direction, strike, high, UP, low, LOW)
    side_name, order = layout.split("-")
    side = UP if side_name == "high" else LOW
    levels = [env.spot * f ** (1 if side == UP else -1) for f in (near, far)]
    b_in, b_out = levels if order == "near" else levels[::-1]
    return env, KikoSpec(direction, strike, b_in, side, b_out, side)


def draws() -> list:
    """(id, env, spec) for every fingerprinted case, in file order."""
    rng = random.Random(SEED)
    cases = [(f"vanilla-{i}", *_vanilla(rng)) for i in range(40)]
    for direction in (CALL, PUT):
        for side in (UP, LOW):
            for knock in (IN, OUT):
                for above in (True, False):
                    row = f"single-{direction.name}-{side.name}-{knock.name}-{'above' if above else 'below'}"
                    cases += [(f"{row}-{i}", *_single(rng, direction, side, knock, above))
                              for i in range(10)]
    for knock in (OUT, IN):
        for direction in (CALL, PUT):
            cases += [(f"corridor-{knock.name}-{direction.name}-{i}",
                       *_corridor(rng, direction, knock)) for i in range(50)]
    for direction in (CALL, PUT):
        for layout in ("straddle-in-low", "straddle-in-high", "high-near", "high-far",
                       "low-near", "low-far"):
            cases += [(f"kiko-{direction.name}-{layout}-{i}", *_kiko(rng, direction, layout))
                      for i in range(16)]
    return cases


def _outcome(fn):
    """[result or {"error": ...}, truncation warning messages]."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        try:
            result = fn()
        except PricingError as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
    return [result, [str(w.message) for w in caught
                     if issubclass(w.category, TruncationWarning)]]


# The benchmark book's smile: its ATM vol overrides the draw's volatility.
BOOK_SMILE = PivotQuotes(sigma_atm=0.10, sigma_rr25=-0.015, sigma_bf25=0.002)


def record(env, spec) -> dict:
    """The outcomes of one draw; ``vv`` quotes a smile at the draw's own
    volatility, ``vv_book`` the book's smile at another one."""
    quotes = PivotQuotes(sigma_atm=env.sigma, sigma_rr25=-0.1 * env.sigma,
                         sigma_bf25=0.02 * env.sigma)

    def greeks(method):
        greek_set, used, notices = greeks_contract(env, spec, method=method)
        return [*greek_set.as_tuple(), used, notices]

    def vv(quotes):
        r = vv_price(env, spec, quotes)
        return [r.bs_price, r.x1, r.x2, r.x3, r.adjustment, r.vv_price, r.condition]

    return {"price": _outcome(lambda: list(price_contract(env, spec))),
            "analytic": _outcome(lambda: greeks("analytic")),
            "fd": _outcome(lambda: greeks("fd")),
            "vv": _outcome(lambda: vv(quotes)),
            "vv_book": _outcome(lambda: vv(BOOK_SMILE))}


def cases_digest(cases) -> str:
    """SHA-256 of the drawn inputs, so a changed draw is told apart from
    a changed output."""
    text = "\n".join(f"{cid} {env!r} {spec!r}" for cid, env, spec in cases)
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict:
    cases = draws()
    return {"platform": platform_facts(), "cases_sha256": cases_digest(cases),
            "records": {cid: record(env, spec) for cid, env, spec in cases}}


def write(data: dict, path: Path = GOLDEN) -> None:
    """One record per line, so a moved output shows as a one-line diff."""
    lines = [f"  {json.dumps(cid)}: {json.dumps(rec)}"
             for cid, rec in data["records"].items()]
    path.write_text("{\n"
                    f'"platform": {json.dumps(data["platform"])},\n'
                    f'"cases_sha256": {json.dumps(data["cases_sha256"])},\n'
                    '"records": {\n' + ",\n".join(lines) + "\n}\n}\n")


def moves(old: dict, new: dict) -> list:
    """Lines saying which records of ``new`` differ from ``old``: counts per
    contract kind (the id's first word) and per output, the largest move
    of a price present on both sides, relative to max(1, |price|), and the
    outputs whose outcome switched between a number and an error, counted
    per kind and per output for each way."""
    if old.get("cases_sha256") != new["cases_sha256"]:
        return ["the draws changed: every record is new"]
    by_kind, by_output = Counter(), Counter()
    switches = {"number -> error": (Counter(), Counter()),
                "error -> number": (Counter(), Counter())}
    worst, worst_id = 0.0, None
    for cid, rec in new["records"].items():
        was = old["records"][cid]
        moved = [out for out in rec if rec[out] != was[out]]
        kind = cid.split("-")[0]
        if moved:
            by_kind[kind] += 1
        for out in moved:
            by_output[out] += 1
            failed = isinstance(rec[out][0], dict)  # {"error": ...}
            if failed != isinstance(was[out][0], dict):
                kinds, outputs = switches["number -> error" if failed else "error -> number"]
                kinds[kind] += 1
                outputs[out] += 1
        price, old_price = rec["price"][0], was["price"][0]
        if isinstance(price, list) and isinstance(old_price, list):  # [price, rule]
            move = abs(price[0] - old_price[0]) / max(1.0, abs(old_price[0]))
            if move > worst:
                worst, worst_id = move, cid
    total = sum(by_kind.values())
    lines = [f"{total} of {len(new['records'])} records moved",
             f"  by contract kind: {dict(by_kind)}", f"  by output: {dict(by_output)}",
             f"  largest price move: {worst:.3g} x max(1, |price|)"
             + (f" ({worst_id})" if worst_id else "")]
    for way, (kinds, outputs) in switches.items():
        lines.append(f"  outcomes switched {way}: {sum(outputs.values())}"
                     + (f", by contract kind {dict(kinds)}, by output {dict(outputs)}"
                        if outputs else ""))
    return lines


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data = compute()
    write(data)
    print(f"wrote {GOLDEN}")
    print("\n".join(moves(old, json.loads(json.dumps(data)))))
