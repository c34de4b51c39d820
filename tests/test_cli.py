import json

import pytest

from fxx.cli import main

MARKET = {"spot": 100.0, "domestic_rate": 0.03, "foreign_rate": 0.01,
          "volatility": 0.2, "maturity": 1.0}


def write_request(tmp_path, contract, market=None, name="req.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"market": market or MARKET, "contract": contract}))
    return str(path)


def write_quotes(tmp_path, atm=0.2, rr=0.0, bf=0.0, name="quotes.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"atm_vol": atm, "rr_25": rr, "bf_25": bf}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out):
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 1
    return json.loads(lines[0])


VANILLA = {"type": "vanilla", "direction": "call", "strike": 100.0}
UP_OUT = {"type": "single_barrier", "direction": "call", "strike": 120.0,
          "barrier": 110.0, "side": "upper", "knock": "out"}


# Requests whose arithmetic leaves the double range: market overrides and
# the contract, by test id.
OUT_OF_RANGE = {
    "single_barrier_1e300": (
        {"spot": 1e300}, {"type": "single_barrier", "direction": "call", "strike": 1e300,
                          "barrier": 5e299, "side": "lower", "knock": "out"}),
    "double_barrier_1e300": (
        {"spot": 1e300}, {"type": "double_barrier", "direction": "call", "strike": 1e300,
                          "lower_barrier": 8e299, "upper_barrier": 1.2e300, "knock": "out"}),
    "single_barrier_1e-200": (
        {"spot": 1e-200}, {"type": "single_barrier", "direction": "put", "strike": 1e-200,
                           "barrier": 1.5e-200, "side": "upper", "knock": "in"}),
    "vanilla_1e-200": (
        {"spot": 1e-200}, {"type": "vanilla", "direction": "call", "strike": 1e200}),
    # both legs overflow to inf and their difference is nan
    "vanilla_infinite_legs": (
        {"spot": 4.799209137275222e190, "domestic_rate": -1.5030086014245023,
         "foreign_rate": -1.8611960042204396, "volatility": 0.1499583760719223,
         "maturity": 290.83325561321584},
        {"type": "vanilla", "direction": "call", "strike": 2.0062034110668564e191}),
    # exp(-r_f T) overflows
    "vanilla_discount_overflow": ({"foreign_rate": -1000.0}, VANILLA),
    "double_barrier_discount_overflow": (
        {"foreign_rate": -1000.0}, {"type": "double_barrier", "direction": "call",
                                    "strike": 100.0, "lower_barrier": 85.0,
                                    "upper_barrier": 115.0, "knock": "out"}),
    "single_barrier_2.7e296": (
        {"spot": 2.703050656611035e296, "domestic_rate": 1.23464351525893,
         "foreign_rate": -0.37217759416714324, "volatility": 1.9124977781843914e-05,
         "maturity": 4.6513023128769746e-05},
        {"type": "single_barrier", "direction": "call", "strike": 5.136733205363547e294,
         "barrier": 4.3006885045465285e296, "side": "upper", "knock": "out"}),
}


SCHEMAS = [
    (VANILLA, "VanillaSpec", "vanilla"),
    (UP_OUT, "SingleBarrierSpec", "UO-call-standard"),
    ({"type": "double_barrier", "direction": "put", "strike": 100.0,
      "lower_barrier": 85.0, "upper_barrier": 115.0, "knock": "in"},
     "DoubleBarrierSpec", "KIKI-put"),
    ({"type": "kiko", "direction": "put", "strike": 105.0, "in_barrier": 92.0,
      "in_side": "lower", "out_barrier": 85.0, "out_side": "lower"},
     "KikoSpec", "KIKO-put-both-low-in-near"),
]


class TestSchemas:
    @pytest.mark.parametrize("contract,cls,rule", SCHEMAS,
                             ids=[contract["type"] for contract, _, _ in SCHEMAS])
    def test_schema(self, tmp_path, capsys, contract, cls, rule):
        code, out, _ = run(capsys, "price", write_request(tmp_path, contract))
        assert code == 0
        record = record_of(out)
        assert (record["contract"], record["rule"]) == (cls, rule)
        for name in contract:
            partial = {k: v for k, v in contract.items() if k != name}
            code, _, err = run(capsys, "price", write_request(tmp_path, partial))
            assert code == 2
            assert f"'{name}'" in err
        for name, value in contract.items():
            if name == "type" or not isinstance(value, str):
                continue
            code, _, err = run(capsys, "price",
                               write_request(tmp_path, dict(contract, **{name: "sideways"})))
            assert code == 2
            assert f"contract.{name}:" in err


class TestPrice:
    def test_vanilla_record_fields(self, tmp_path, capsys):
        code, out, _ = run(capsys, "price", write_request(tmp_path, VANILLA))
        assert code == 0
        record = record_of(out)
        assert set(record) >= {"price", "d1", "d2"}
        assert record["price"] == pytest.approx(8.827321225352122, rel=1e-12)

    def test_worthless_barrier_row(self, tmp_path, capsys):
        code, out, _ = run(capsys, "price", write_request(tmp_path, UP_OUT))
        assert code == 0
        record = record_of(out)
        assert record["price"] == 0.0
        assert record["rule"] == "UO-call-standard"

    def test_bad_volatility_exits_3(self, tmp_path, capsys):
        market = dict(MARKET, volatility=-0.2)
        code, _, err = run(capsys, "price", write_request(tmp_path, VANILLA, market))
        assert code == 3
        assert "sigma" in err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        contract = dict(VANILLA, notional=1e6)
        code, _, err = run(capsys, "price", write_request(tmp_path, contract))
        assert code == 2
        assert "notional" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"market": {')
        code, _, err = run(capsys, "price", str(path))
        assert code == 2
        assert "line" in err

    def test_breached_barrier_exits_3(self, tmp_path, capsys):
        contract = dict(UP_OUT, barrier=90.0)
        code, _, err = run(capsys, "price", write_request(tmp_path, contract))
        assert code == 3
        assert "breach" in err

    def test_numerical_overflow_exits_4(self, tmp_path, capsys):
        contract = {"type": "single_barrier", "direction": "call", "strike": 100.0,
                    "barrier": 20.0, "side": "lower", "knock": "out"}
        market = dict(MARKET, volatility=0.01, domestic_rate=0.08,
                      foreign_rate=-0.02)
        code, _, err = run(capsys, "price", write_request(tmp_path, contract, market))
        assert code == 4
        assert "overflow" in err

    @pytest.mark.parametrize("overrides,contract", OUT_OF_RANGE.values(),
                             ids=OUT_OF_RANGE.keys())
    def test_out_of_range_intermediate_exits_4(self, tmp_path, capsys, overrides, contract):
        market = dict(MARKET, **overrides)
        code, out, err = run(capsys, "price", write_request(tmp_path, contract, market))
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "numerical"

    def test_seventeen_digit_output(self, tmp_path, capsys):
        _, out, _ = run(capsys, "price", write_request(tmp_path, VANILLA))
        assert "8.8273212253521223" in out

    # volatility*sqrt(maturity) underflows to 0, or is subnormal, and d1
    # divides by it
    @pytest.mark.parametrize("volatility,maturity", [(1e-300, 1e-300), (1e-160, 1e-300)],
                             ids=["scale_underflows", "scale_subnormal"])
    def test_forward_limit_vanilla(self, tmp_path, capsys, volatility, maturity):
        market = dict(MARKET, volatility=volatility, maturity=maturity)
        code, out, _ = run(capsys, "price", write_request(tmp_path, VANILLA, market))
        assert code == 0
        record = record_of(out)
        assert record["price"] == 0.0  # spot at the strike, no time to drift
        assert (record["d1"], record["d2"]) == (None, None)
        assert any("forward value" in w for w in record["warnings"])

    def test_low_tau_kiko_prices_positive(self, tmp_path, capsys):
        # the corridor leg needs more than five image terms; with five the
        # difference was -0.0509
        contract = {"type": "kiko", "direction": "call", "strike": 80.0,
                    "in_barrier": 90.0, "in_side": "lower",
                    "out_barrier": 101.0, "out_side": "upper"}
        market = dict(MARKET, volatility=0.5, maturity=2.0)
        code, out, _ = run(capsys, "price", write_request(tmp_path, contract, market))
        assert code == 0
        assert record_of(out)["price"] == pytest.approx(0.0037293379, abs=1e-10)


class TestGreeks:
    def test_methods_agree(self, tmp_path, capsys):
        request = write_request(tmp_path, VANILLA)
        _, out_analytic, _ = run(capsys, "greeks", request, "--method", "analytic")
        _, out_fd, _ = run(capsys, "greeks", request, "--method", "fd")
        analytic = record_of(out_analytic)
        fd = record_of(out_fd)
        assert analytic["method"] == "analytic"
        assert fd["method"] == "fd"
        for comp in ("delta", "vega", "vanna", "volga"):
            assert analytic[comp] == pytest.approx(fd[comp], rel=1e-5, abs=1e-5)

    def test_boundary_strike_equals_barrier_exits_0(self, tmp_path, capsys):
        # at K = B the table row is still unique: its Greeks match the
        # extrapolated stencil of the price
        from support import fd_noise_floors, greek_oracle_bumps, greek_tolerance, richardson_fd

        from fxx import price_single_barrier
        from fxx.cli import parse_request

        request = write_request(tmp_path, dict(UP_OUT, strike=110.0))
        code, out, _ = run(capsys, "greeks", request)
        assert code == 0
        record = record_of(out)
        env, spec = parse_request(request)
        assert record["value"] == price_single_barrier(env, spec)
        bumps = greek_oracle_bumps(env)
        p00, fd = richardson_fd(lambda e: price_single_barrier(e, spec), env, bumps)
        floors = fd_noise_floors(p00, env, bumps)
        for comp in ("delta", "vega", "vanna", "volga"):
            assert abs(record[comp] - fd[comp]) <= greek_tolerance(record[comp], fd[comp],
                                                                   floors[comp])

    def test_fd_overflow_exits_4(self, tmp_path, capsys):
        # the price is finite, but a stencil difference overflows: an
        # arithmetic failure, as on the analytic route
        market = dict(MARKET, spot=1.7e308, domestic_rate=0.0, foreign_rate=0.0)
        request = write_request(tmp_path, dict(VANILLA, strike=1.0), market)
        code, out, err = run(capsys, "greeks", request, "--method", "fd")
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "numerical"

    def test_fd_bump_underflow_exits_4(self, tmp_path, capsys):
        # the volatility bump is half the volatility, and its square is 0.0
        market = dict(MARKET, volatility=1e-300, maturity=1e-300)
        code, out, err = run(capsys, "greeks", write_request(tmp_path, VANILLA, market),
                             "--method", "fd")
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "numerical"

    def test_numerical_failure_inside_stencil_exits_4(self, tmp_path, capsys):
        # the corridor pricer overflows at a stencil point: a numerical
        # failure, as `price` reports it, not a precondition
        contract = {"type": "double_barrier", "direction": "call", "strike": 1e300,
                    "lower_barrier": 8e299, "upper_barrier": 1.2e300, "knock": "out"}
        request = write_request(tmp_path, contract, dict(MARKET, spot=1e300))
        code, out, err = run(capsys, "greeks", request)
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "numerical"

    @pytest.mark.parametrize("overrides,contract", OUT_OF_RANGE.values(),
                             ids=OUT_OF_RANGE.keys())
    def test_out_of_range_intermediate_exits_4(self, tmp_path, capsys, overrides, contract):
        market = dict(MARKET, **overrides)
        code, out, err = run(capsys, "greeks", write_request(tmp_path, contract, market))
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "numerical"

    def test_knock_out_analytic_routing(self, tmp_path, capsys):
        contract = {"type": "single_barrier", "direction": "call", "strike": 100.0,
                    "barrier": 80.0, "side": "lower", "knock": "out"}
        code, out, _ = run(capsys, "greeks", write_request(tmp_path, contract),
                           "--method", "analytic")
        assert code == 0
        assert record_of(out)["method"] == "analytic"

    def test_double_barrier_analytic_falls_back_to_fd(self, tmp_path, capsys):
        contract = {"type": "double_barrier", "direction": "call", "strike": 100.0,
                    "lower_barrier": 85.0, "upper_barrier": 115.0, "knock": "out"}
        code, out, _ = run(capsys, "greeks", write_request(tmp_path, contract),
                           "--method", "analytic")
        assert code == 0
        record = record_of(out)
        assert record["method"] == "fd"
        assert any("finite differences" in w for w in record["warnings"])

    @pytest.mark.parametrize("command", ["price", "greeks"])
    def test_degenerate_corridor_scale_exits_3(self, tmp_path, capsys, command):
        contract = {"type": "double_barrier", "direction": "call", "strike": 100.0,
                    "lower_barrier": 90.0, "upper_barrier": 110.0, "knock": "out"}
        market = dict(MARKET, volatility=1e-200)
        code, out, err = run(capsys, command, write_request(tmp_path, contract, market))
        assert (code, out) == (3, "")
        assert "diffusion scale" in err

    @pytest.mark.parametrize("command,scale", [("greeks", 1e-300), ("vv-price", 3e-151)])
    def test_degenerate_vanilla_scale_exits_3(self, tmp_path, capsys, command, scale):
        market = dict(MARKET, volatility=scale, maturity=scale)
        argv = [command, write_request(tmp_path, VANILLA, market)]
        if command == "vv-price":
            argv.append(write_quotes(tmp_path, atm=scale))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "diffusion scale" in err
        assert "barrier" not in err


class TestTruncationWarnings:
    # barriers 1% either side of spot: tau below 0.005, so the 50-term
    # series warns at every stencil point
    REQUEST = {"type": "double_barrier", "direction": "call", "strike": 100.0,
               "lower_barrier": 99.0, "upper_barrier": 101.0, "knock": "out"}
    LOW_TAU = dict(MARKET, volatility=0.3)

    @pytest.mark.parametrize("command", ["price", "greeks", "vv-price"])
    def test_recorded_once_each(self, tmp_path, capsys, command):
        argv = [command, write_request(tmp_path, self.REQUEST, self.LOW_TAU)]
        if command == "vv-price":
            argv.append(write_quotes(tmp_path, atm=0.3))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        notes = record_of(out)["warnings"]
        truncations = [w for w in notes if "first omitted series terms" in w]
        assert truncations and len(set(truncations)) == len(truncations)
        # after the record's own entries
        assert notes[len(notes) - len(truncations):] == truncations
        if command == "greeks":
            assert "finite differences used" in notes[0]

    def test_other_requests_record_none(self, tmp_path, capsys):
        contract = dict(self.REQUEST, lower_barrier=85.0, upper_barrier=115.0)
        code, out, err = run(capsys, "price", write_request(tmp_path, contract))
        assert (code, err) == (0, "")
        assert "warnings" not in record_of(out)


class TestVvPrice:
    def test_flat_smile(self, tmp_path, capsys):
        code, out, _ = run(capsys, "vv-price", write_request(tmp_path, VANILLA),
                           write_quotes(tmp_path))
        assert code == 0
        record = record_of(out)
        assert record["vv_price"] == pytest.approx(record["bs_price"], abs=1e-12)
        assert "warnings" not in record

    def test_atm_override_warning(self, tmp_path, capsys):
        code, out, _ = run(capsys, "vv-price", write_request(tmp_path, VANILLA),
                           write_quotes(tmp_path, atm=0.25))
        assert code == 0
        record = record_of(out)
        assert record["adjustment"] == pytest.approx(0.0, abs=1e-12)
        assert any("overrides" in w for w in record["warnings"])

    def test_adjustment_recomposition(self, tmp_path, capsys):
        code, out, _ = run(capsys, "vv-price", write_request(tmp_path, VANILLA),
                           write_quotes(tmp_path, atm=0.2, rr=-0.01, bf=0.003))
        assert code == 0
        record = record_of(out)
        assert record["vv_price"] == pytest.approx(
            record["bs_price"] + record["adjustment"], abs=1e-14)
        assert record["condition"] > 0.0

    SMILE = {"atm": 0.10, "rr": -0.015, "bf": 0.002}

    def test_negative_price_is_flagged(self, tmp_path, capsys):
        # the smile adjustment of this up-and-out call exceeds its flat price
        # of 0.359; the record keeps the library's numbers and says so
        market = {"spot": 80.94, "domestic_rate": 0.0301, "foreign_rate": 0.0336,
                  "volatility": 0.333, "maturity": 1.64}
        contract = dict(UP_OUT, strike=66.33, barrier=81.93)
        code, out, err = run(capsys, "vv-price", write_request(tmp_path, contract, market),
                             write_quotes(tmp_path, **self.SMILE))
        assert (code, err) == (0, "")
        record = record_of(out)
        assert record["vv_price"] == pytest.approx(-0.634, abs=1e-3)
        assert record["vv_price"] == record["bs_price"] + record["adjustment"]
        assert "overrides the request volatility" in record["warnings"][0]
        assert record["warnings"][1:] == [
            f"the adjustment {record['adjustment']!r} exceeds the flat price "
            f"{record['bs_price']!r}: the Vanna-Volga price is negative"]

    def test_positive_price_record_unchanged(self, tmp_path, capsys):
        contract = dict(UP_OUT, strike=95.0, barrier=112.0)
        code, out, err = run(capsys, "vv-price", write_request(tmp_path, contract),
                             write_quotes(tmp_path, **self.SMILE))
        assert (code, err) == (0, "")
        assert out == (
            '{"command":"vv-price","contract":"SingleBarrierSpec",'
            '"bs_price":2.8579502619859278,"x1":-0.020632143221551047,'
            '"x2":-0.46196493076646417,"x3":6.0521132460768765,'
            '"adjustment":0.62591326557676674,"vv_price":3.4838635275626944,'
            '"condition":103.9610257536057,"warnings":["quoted atm_vol 0.1 overrides '
            'the request volatility 0.2 for the flat price and all pivot Greeks"]}\n')

    @pytest.mark.parametrize("market,contract,atm,code,error", [
        # (drift + atm_vol^2 / 2) T: the straddle strike overflows
        ({"spot": 3.9645892117932727e43, "domestic_rate": 2.338582397986274,
          "foreign_rate": -0.7040744490773414, "volatility": 0.611868091539701,
          "maturity": 270.7274424721753},
         {"type": "single_barrier", "direction": "put", "strike": 1.083885511850942e44,
          "barrier": 7.08284624847779e40, "side": "lower", "knock": "in"}, 1.2237,
         4, "numerical"),
        # exp(r_f T) overflows: |delta| exp(r_f T) >= 1, so no 25-delta strike exists
        (dict(MARKET, domestic_rate=3.0, foreign_rate=3.0, maturity=300.0), VANILLA, 0.2,
         3, "precondition"),
    ], ids=["atm_strike", "delta_strike"])
    def test_pivot_strike_overflow_is_typed(self, tmp_path, capsys, market, contract, atm,
                                           code, error):
        got, out, err = run(capsys, "vv-price", write_request(tmp_path, contract, market),
                            write_quotes(tmp_path, atm=atm))
        assert (got, out) == (code, "")
        assert json.loads(err)["error"] == error


class TestMcCheck:
    def test_z_score_sane(self, tmp_path, capsys):
        code, out, _ = run(capsys, "mc-check", write_request(tmp_path, VANILLA),
                           "--paths", "20000", "--steps", "8", "--seed", "5", "--bridge")
        assert code == 0
        record = record_of(out)
        assert abs(record["z_score"]) < 4.0
        assert record["std_error"] > 0.0

    def test_zero_threads_exits_3(self, tmp_path, capsys):
        code, out, err = run(capsys, "mc-check", write_request(tmp_path, VANILLA),
                             "--paths", "100", "--steps", "8", "--threads", "0")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "precondition"

    def test_repeat_run_bit_identical(self, tmp_path, capsys):
        args = ("mc-check", write_request(tmp_path, VANILLA),
                "--paths", "10000", "--steps", "8", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("in_barrier,z_score", [(110.0, None), (130.0, 0.0)],
                             ids=["in-near", "in-far"])
    def test_zero_variance_z_score(self, tmp_path, capsys, in_barrier, z_score):
        # five paths, none of which touches the in barrier: the estimate is
        # exactly 0 with zero variance; in-near is worth 0.2, in-far exactly 0
        contract = {"type": "kiko", "direction": "call", "strike": 115.0,
                    "in_barrier": in_barrier, "in_side": "upper",
                    "out_barrier": 125.0, "out_side": "upper"}
        code, out, _ = run(capsys, "mc-check",
                           write_request(tmp_path, contract, dict(MARKET, maturity=0.5)),
                           "--paths", "5", "--steps", "20", "--seed", "4")
        assert code == 0
        record = record_of(out)
        assert (record["mc_price"], record["std_error"]) == (0.0, 0.0)
        assert record["z_score"] == z_score
        if z_score is None:
            assert record["closed_form"] > 0.1
            assert any("zero variance" in w for w in record["warnings"])
        else:
            assert record["closed_form"] == 0.0
            assert "warnings" not in record

    def test_kiki_parity_report(self, tmp_path, capsys):
        contract = {"type": "double_barrier", "direction": "call", "strike": 100.0,
                    "lower_barrier": 88.0, "upper_barrier": 115.0, "knock": "in"}
        code, out, _ = run(capsys, "mc-check", write_request(tmp_path, contract),
                           "--paths", "20000", "--steps", "50", "--seed", "4", "--bridge")
        assert code == 0
        record = record_of(out)
        assert record["parity_mc_price"] == pytest.approx(record["mc_price"], abs=1e-10)


class TestSeriesEnvironment:
    def test_series_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        # a low-tau corridor, whose price a one-term series would move
        contract = {"type": "double_barrier", "direction": "call", "strike": 100.0,
                    "lower_barrier": 95.0, "upper_barrier": 105.0, "knock": "out"}
        request = write_request(tmp_path, contract, dict(MARKET, volatility=0.5))
        code, default, _ = run(capsys, "price", request)
        assert code == 0
        for value in ("1", "not-a-number"):
            monkeypatch.setenv("FXX_SERIES_NMAX", value)
            assert run(capsys, "price", request) == (0, default, "")
