"""Command-line front end over file-based pricing requests.

Requests and quotes are strict JSON documents (unknown fields rejected);
results are emitted as line-delimited JSON with every numeric printed at
17 significant digits so runs can be compared byte for byte.

Exit codes: 0 ok, 2 parse error, 3 pricing precondition violated,
4 numerical failure.
"""

import argparse
import dataclasses
import enum
import json
import sys

from .contracts import DoubleBarrierSpec, KnockType, MarketEnvironment, VanillaSpec
from .errors import NumericalError, PricingError
from .router import _CONTRACTS, greeks_contract, price_contract
from .vanilla import d1_d2

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class RequestError(Exception):
    """The request/quotes file does not match the documented schema."""


# ------------------------------------------------------------------ output
def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_format_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_format_value(v)}"
                              for k, v in value.items()) + "}"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(record: dict, stream=None) -> None:
    print(_format_value(record), file=stream or sys.stdout)


# ------------------------------------------------------------------ parsing
def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise RequestError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RequestError(f"{path}: invalid JSON at line {exc.lineno} "
                           f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise RequestError(f"{path}: top-level value must be an object")
    return doc


def _take(obj: dict, where: str, required: dict, optional: dict = ()):
    unknown = set(obj) - set(required) - set(optional or {})
    if unknown:
        raise RequestError(f"{where}: unknown field(s) {sorted(unknown)}")
    out = {}
    for name, kind in required.items():
        if name not in obj:
            raise RequestError(f"{where}: missing required field '{name}'")
        out[name] = _coerce(obj[name], kind, f"{where}.{name}")
    for name, kind in (optional or {}).items():
        if name in obj:
            out[name] = _coerce(obj[name], kind, f"{where}.{name}")
    return out


def _coerce(value, kind, where: str):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise RequestError(f"{where}: expected a string, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise RequestError(f"{where}: expected an object, got {value!r}")
        return value
    if issubclass(kind, enum.Enum):
        choices = {member.name.lower(): member for member in kind}
        if not isinstance(value, str) or value not in choices:
            raise RequestError(f"{where}: expected one of {sorted(choices)}, got {value!r}")
        return choices[value]
    raise TypeError(kind)


def parse_request(path: str) -> tuple:
    """Read a request file into (MarketEnvironment, contract spec)."""
    doc = _load_json(path)
    _take(doc, path, {"market": dict, "contract": dict})
    market = _take(doc["market"], f"{path}:market", {
        "spot": float, "domestic_rate": float, "foreign_rate": float,
        "volatility": float, "maturity": float})
    env = MarketEnvironment(spot=market["spot"], r_d=market["domestic_rate"],
                            r_f=market["foreign_rate"], sigma=market["volatility"],
                            T=market["maturity"])
    contract = doc["contract"]
    where = f"{path}:contract"
    if "type" not in contract:
        raise RequestError(f"{where}: must be an object with a 'type' field")
    for cls, entry in _CONTRACTS.items():
        if entry.schema == contract["type"]:
            break
    else:
        raise RequestError(
            f"{where}.type: expected one of {[e.schema for e in _CONTRACTS.values()]}, "
            f"got {contract['type']!r}")
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    fields = _take(contract, where, {"type": str, **{
        name: kinds[attr] for name, attr in entry.fields.items()}})
    return env, cls(**{attr: fields[name] for name, attr in entry.fields.items()})


def parse_quotes(path: str):
    """Read a smile quotes file into a PivotQuotes."""
    from .vanna_volga import PivotQuotes  # only vv-price loads the module

    doc = _load_json(path)
    fields = _take(doc, path, {"atm_vol": float},
                   {"rr_25": float, "bf_25": float})
    return PivotQuotes(sigma_atm=fields["atm_vol"],
                       sigma_rr25=fields.get("rr_25", 0.0),
                       sigma_bf25=fields.get("bf_25", 0.0))


# ------------------------------------------------------------------ commands
def _cmd_price(args) -> int:
    env, spec = parse_request(args.request)
    price, rule = price_contract(env, spec)
    record = {"command": "price", "contract": type(spec).__name__,
              "rule": rule, "price": price}
    if isinstance(spec, VanillaSpec):
        record["d1"], record["d2"] = d1_d2(env, spec.strike)
        if record["d1"] is None:
            record["warnings"] = [
                "volatility*sqrt(maturity) is below 1e-12: the price is the forward "
                "value, and d1 and d2 are undefined"]
    _emit(record)
    return EXIT_OK


def _cmd_greeks(args) -> int:
    env, spec = parse_request(args.request)
    greeks, method, notices = greeks_contract(env, spec, method=args.method)
    record = {"command": "greeks", "contract": type(spec).__name__,
              "method": method, "value": greeks.value, "delta": greeks.delta,
              "vega": greeks.vega, "vanna": greeks.vanna, "volga": greeks.volga}
    if notices:
        record["warnings"] = notices
    _emit(record)
    return EXIT_OK


def _cmd_vv_price(args) -> int:
    from .vanna_volga import vv_price  # deferred: price and greeks never use it

    env, spec = parse_request(args.request)
    quotes = parse_quotes(args.quotes)
    result = vv_price(env, spec, quotes)
    record = {"command": "vv-price", "contract": type(spec).__name__,
              "bs_price": result.bs_price, "x1": result.x1, "x2": result.x2,
              "x3": result.x3, "adjustment": result.adjustment,
              "vv_price": result.vv_price, "condition": result.condition}
    if quotes.sigma_atm != env.sigma:
        record["warnings"] = [
            f"quoted atm_vol {quotes.sigma_atm!r} overrides the request "
            f"volatility {env.sigma!r} for the flat price and all pivot Greeks"]
    _emit(record)
    return EXIT_OK


def _cmd_mc_check(args) -> int:
    from .mc_oracle import McConfig, mc_price_batch  # numpy

    env, spec = parse_request(args.request)
    cfg = McConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed,
                   bridge_correction=args.bridge)
    closed, rule = price_contract(env, spec)
    specs = [spec]
    if isinstance(spec, DoubleBarrierSpec) and spec.knock == KnockType.IN:
        specs += [DoubleBarrierSpec(spec.direction, spec.strike, spec.lower,
                                    spec.upper, KnockType.OUT),
                  VanillaSpec(spec.direction, spec.strike)]
    estimates = mc_price_batch(env, specs, cfg, threads=args.threads)
    est = estimates[0]
    if est.std_error > 0.0:
        z = (closed - est.price) / est.std_error
    else:  # a zero-variance estimate has no scale to measure a gap with
        z = 0.0 if closed == est.price else None
    record = {"command": "mc-check", "contract": type(spec).__name__, "rule": rule,
              "closed_form": closed, "mc_price": est.price,
              "std_error": est.std_error, "z_score": z, "paths": args.paths,
              "steps": args.steps, "seed": args.seed, "bridge": args.bridge}
    if len(estimates) == 3:
        record["parity_mc_price"] = estimates[2].price - estimates[1].price
    if z is None:
        record["warnings"] = [
            f"the Monte Carlo estimate has zero variance over {args.paths} paths, "
            "so no z-score measures its distance from the closed form"]
    _emit(record)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxx",
        description="Price FX vanilla and barrier options, compute Greeks, "
                    "apply the Vanna-Volga market adjustment and run Monte "
                    "Carlo cross-checks from JSON request files.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("price", help="price a contract request file")
    p.add_argument("request")
    p.set_defaults(fn=_cmd_price)

    p = sub.add_parser("greeks", help="Greeks of a contract request file")
    p.add_argument("request")
    p.add_argument("--method", choices=("analytic", "fd"), default="analytic")
    p.set_defaults(fn=_cmd_greeks)

    p = sub.add_parser("vv-price", help="Vanna-Volga adjusted price")
    p.add_argument("request")
    p.add_argument("quotes")
    p.set_defaults(fn=_cmd_vv_price)

    p = sub.add_parser("mc-check", help="Monte Carlo versus closed form")
    p.add_argument("request")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bridge", action="store_true")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: the CPUs this process may run on)")
    p.set_defaults(fn=_cmd_mc_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RequestError as exc:
        _emit({"error": "parse", "message": str(exc)}, stream=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        _emit({"error": "numerical", "message": str(exc)}, stream=sys.stderr)
        return EXIT_NUMERICAL
    except PricingError as exc:
        _emit({"error": "precondition", "message": str(exc)}, stream=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
