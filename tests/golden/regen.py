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
records per contract kind and per output, the positions that moved in
each output (``delta``, ``vega``, ...; ``error`` for a changed error),
the outputs whose only change is their warning messages, the largest
move of each output's numbers relative to max(1, |number|), and the
outputs whose outcome switched between a number and an error.

The same run rewrites ``mc.json``: ``mc_price_batch`` on the ten contracts
of acceptance criterion 4 at 2048 paths x 50 steps, with and without the
bridge correction, as (price, standard error) pairs, together with the
numpy version that drew them. NEP 19 lets numpy change a Generator's
streams between releases, so the file says which release it holds. Its
rewrite reports how many records moved and the largest move in units of
the two standard errors combined.
"""

import hashlib
import json
import math
import platform
import random
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

import numpy  # noqa: E402  (recorded with the platform, not used here)

from fxx import (BarrierSide, DoubleBarrierSpec, KikoSpec, KnockType,  # noqa: E402
                 MarketEnvironment, McConfig, OptionDirection, PivotQuotes,
                 PricingError, SingleBarrierSpec, TruncationWarning, VanillaSpec,
                 greeks_contract, mc_price_batch, price_contract, vv_price)
from support import MC_CONTRACTS, MC_ENV  # noqa: E402

GOLDEN = HERE / "library.json"
MC_GOLDEN = HERE / "mc.json"
MC_CONFIG = McConfig(n_paths=2048, n_steps=50, seed=20240811)
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


# The positions of each output's result list, as ``record`` writes them.
_GREEK_FIELDS = ("value", "delta", "vega", "vanna", "volga", "method", "notices")
_VV_FIELDS = ("bs_price", "x1", "x2", "x3", "adjustment", "vv_price", "condition")
FIELDS = {"price": ("price", "rule"), "analytic": _GREEK_FIELDS, "fd": _GREEK_FIELDS,
          "vv": _VV_FIELDS, "vv_book": _VV_FIELDS}


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


def write(data: dict, path: Path) -> None:
    """One record per line, so a moved output shows as a one-line diff."""
    head = [f"{json.dumps(key)}: {json.dumps(value)},\n"
            for key, value in data.items() if key != "records"]
    lines = [f"  {json.dumps(cid)}: {json.dumps(rec)}"
             for cid, rec in data["records"].items()]
    path.write_text("{\n" + "".join(head) + '"records": {\n' + ",\n".join(lines) + "\n}\n}\n")


def _largest_move(got, was) -> float:
    """Largest |got - was| / max(1, |was|) over the numbers two results
    share at the same positions; 0.0 when either is an error."""
    if not (isinstance(got, list) and isinstance(was, list)):
        return 0.0
    return max((abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, was)
                if isinstance(g, float) and isinstance(w, float)), default=0.0)


def _moved_fields(out: str, got, was) -> list:
    """Names of the positions of ``out`` whose results differ; ["error"]
    when either result is an error."""
    if not (isinstance(got, list) and isinstance(was, list)):
        return ["error"]
    return [name for name, g, w in zip(FIELDS[out], got, was) if g != w]


def moves(old: dict, new: dict) -> list:
    """Lines saying which records of ``new`` differ from ``old``: counts per
    contract kind (the id's first word) and per output, the moved
    positions of each output, the outputs whose only change is their
    warning messages, the largest move of each output's numbers present
    on both sides, relative to max(1, |number|), and the outputs whose
    outcome switched between a number and an error, counted per kind and
    per output for each way."""
    if old.get("cases_sha256") != new["cases_sha256"]:
        return ["the draws changed: every record is new"]
    by_kind, by_output, warning_only = Counter(), Counter(), Counter()
    fields = {out: Counter() for out in FIELDS}
    switches = {"number -> error": (Counter(), Counter()),
                "error -> number": (Counter(), Counter())}
    worst = {}  # output -> (move, case id)
    for cid, rec in new["records"].items():
        was = old["records"][cid]
        moved = [out for out in rec if rec[out] != was[out]]
        kind = cid.split("-")[0]
        if moved:
            by_kind[kind] += 1
        for out in moved:
            if rec[out][0] == was[out][0]:
                warning_only[out] += 1
                continue
            by_output[out] += 1
            fields[out].update(_moved_fields(out, rec[out][0], was[out][0]))
            failed = isinstance(rec[out][0], dict)  # {"error": ...}
            if failed != isinstance(was[out][0], dict):
                kinds, outputs = switches["number -> error" if failed else "error -> number"]
                kinds[kind] += 1
                outputs[out] += 1
            move = _largest_move(rec[out][0], was[out][0])
            if move > worst.get(out, (0.0,))[0]:
                worst[out] = (move, cid)
    total = sum(by_kind.values())
    lines = [f"{total} of {len(new['records'])} records moved",
             f"  by contract kind: {dict(by_kind)}", f"  by output: {dict(by_output)}"]
    for out in FIELDS:
        lines.append(f"  {out} positions moved: {dict(fields[out]) or 'none'}")
    lines.append(f"  warning messages only, by output: {dict(warning_only)}")
    for out in FIELDS:
        move, cid = worst.get(out, (0.0, None))
        lines.append(f"  largest {out} move: {move:.3g} x max(1, |number|)"
                     + (f" ({cid})" if cid else ""))
    for way, (kinds, outputs) in switches.items():
        lines.append(f"  outcomes switched {way}: {sum(outputs.values())}"
                     + (f", by contract kind {dict(kinds)}, by output {dict(outputs)}"
                        if outputs else ""))
    return lines


def mc_digest() -> str:
    """SHA-256 of the Monte Carlo inputs: market, contracts and config."""
    text = "\n".join(map(repr, [MC_ENV, *MC_CONTRACTS, MC_CONFIG]))
    return hashlib.sha256(text.encode()).hexdigest()


def mc_compute() -> dict:
    """[price, std_error] per criterion-4 contract, keyed "bridge-<i>" and
    "plain-<i>" by bridge correction and position in the list."""
    records = {}
    for bridge, name in ((True, "bridge"), (False, "plain")):
        estimates = mc_price_batch(MC_ENV, MC_CONTRACTS,
                                   replace(MC_CONFIG, bridge_correction=bridge))
        records.update({f"{name}-{i}": [est.price, est.std_error]
                        for i, est in enumerate(estimates)})
    return {"numpy": numpy.__version__, "cases_sha256": mc_digest(), "records": records}


def mc_z(got: list, want: list) -> float:
    """|price difference| over the two standard errors combined (every
    fingerprinted estimate has a positive standard error)."""
    return abs(got[0] - want[0]) / math.hypot(got[1], want[1])


def mc_moves(old: dict, new: dict) -> list:
    """Lines saying how many Monte Carlo records moved and the largest
    move in combined standard errors."""
    if old.get("cases_sha256") != new["cases_sha256"]:
        return ["the Monte Carlo inputs changed: every record is new"]
    moved = [cid for cid, rec in new["records"].items() if rec != old["records"][cid]]
    worst = max(((mc_z(new["records"][cid], old["records"][cid]), cid) for cid in moved),
                default=(0.0, None))
    return [f"{len(moved)} of {len(new['records'])} Monte Carlo records moved "
            f"(numpy {old['numpy']} -> {new['numpy']})",
            f"  largest price move: {worst[0]:.3g} combined standard errors"
            + (f" ({worst[1]})" if worst[1] else "")]


if __name__ == "__main__":
    for path, compute_file, report in ((GOLDEN, compute, moves),
                                       (MC_GOLDEN, mc_compute, mc_moves)):
        old = json.loads(path.read_text()) if path.exists() else {}
        data = compute_file()
        write(data, path)
        print(f"wrote {path}")
        print("\n".join(report(old, json.loads(json.dumps(data)))))
