"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured margin so a `pytest -s` run reads as a checklist."""

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from support import MC_CONTRACTS, MC_ENV, barrier_grid, compare_parameter_greeks, in_out_pair

import fxx
from fxx import (BarrierSide, DoubleBarrierSpec, KnockType,
                 MarketEnvironment, McConfig, OptionDirection, PivotQuotes,
                 SeriesConfig, SingleBarrierSpec, VanillaSpec, build_pivots,
                 build_pivot_system, gk_greeks, gk_price, greeks_single_barrier,
                 koko_price, mc_price_batch, price_contract, price_single_barrier,
                 vv_price, vv_weights)
from fxx.vanna_volga import atm_strike, solve_delta_strike

CALL, PUT = OptionDirection.CALL, OptionDirection.PUT
UP, LOW = BarrierSide.UPPER, BarrierSide.LOWER
OUT = KnockType.OUT


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_in_out_parity_suite():
    started = time.perf_counter()
    grid = barrier_grid(20240811, 1000)
    worst_price = 0.0
    worst_greek = 0.0
    for env, strike, barrier, direction, side in grid:
        spec_in, spec_out = in_out_pair(strike, barrier, direction, side)
        price_total = (price_single_barrier(env, spec_in)
                       + price_single_barrier(env, spec_out))
        vanilla = gk_price(env, direction, strike)
        err = abs(price_total - vanilla) / max(1.0, vanilla)
        worst_price = max(worst_price, err)
        assert err <= 1e-10

        greek_total = (greeks_single_barrier(env, spec_in)
                       + greeks_single_barrier(env, spec_out))
        vanilla_greeks = gk_greeks(env, direction, strike)
        for comp in ("delta", "vega", "vanna", "volga"):
            gap = abs(getattr(greek_total, comp) - getattr(vanilla_greeks, comp))
            worst_greek = max(worst_greek, gap)
            assert gap <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("criterion 1 (in-out parity, 1000 sets)",
           f"worst price err {worst_price:.2e}, worst Greek err {worst_greek:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_2_analytic_vs_fd_greeks():
    started = time.perf_counter()
    rng = random.Random(20240812)
    grid = barrier_grid(20240811, 1000)
    worst_ratio = 0.0
    for env, strike, barrier, direction, _side in grid:
        eta = rng.choice((UP, LOW))
        ratio = compare_parameter_greeks(env, direction, eta, strike, barrier)
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("criterion 2 (16 Greek closed forms vs FD, 1000 points)",
           f"worst error/tolerance ratio {worst_ratio:.3f}, runtime {elapsed:.2f}s")


def test_criterion_3_series_truncation_stability():
    started = time.perf_counter()
    rng = random.Random(3)
    worst = 0.0
    for i in range(200):
        width = 1.1 + (3.0 - 1.1) * i / 199.0
        spot = rng.uniform(60.0, 180.0)
        lower = spot / math.sqrt(width)
        upper = spot * math.sqrt(width)
        strike = rng.uniform(lower * 1.02, upper * 0.98)
        env = MarketEnvironment(spot, rng.uniform(-0.02, 0.08),
                                rng.uniform(-0.02, 0.08),
                                rng.uniform(0.08, 0.15), rng.uniform(0.25, 0.5))
        spec = DoubleBarrierSpec(rng.choice((CALL, PUT)), strike, lower, upper, OUT)
        p5 = koko_price(env, spec, SeriesConfig(n_max=5))
        p20 = koko_price(env, spec, SeriesConfig(n_max=20))
        err = abs(p5 - p20) / max(1.0, p20)
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    report("criterion 3 (corridor series truncation, 200 points)",
           f"worst |n5 - n20| {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_4_monte_carlo_agreement():
    started = time.perf_counter()
    seeds = (20240811, 20240812)
    cfg = McConfig(n_paths=1_000_000, n_steps=2000, seed=seeds[0],
                   bridge_correction=True)
    estimates = mc_price_batch(MC_ENV, MC_CONTRACTS, cfg)
    z_scores = []
    retried = []
    for spec, est in zip(MC_CONTRACTS, estimates):
        closed, rule = price_contract(MC_ENV, spec)
        z = (closed - est.price) / est.std_error
        if abs(z) >= 3.0:
            retry = mc_price_batch(MC_ENV, [spec],
                                   replace(cfg, seed=seeds[1]))[0]
            z = (closed - retry.price) / retry.std_error
            retried.append(rule)
        z_scores.append((rule, z))
        assert abs(z) < 3.0, (rule, z)
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    worst_rule, worst_z = max(z_scores, key=lambda rz: abs(rz[1]))
    report("criterion 4 (Monte Carlo agreement, 10 contracts @1e6x2000)",
           f"worst |z| {abs(worst_z):.2f} ({worst_rule}), retried {retried or 'none'}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_5_barrier_vanishing_limits():
    env = MarketEnvironment(100.0, 0.03, 0.01, 0.2, 1.0)
    doc = SingleBarrierSpec(CALL, 100.0, 100.0 * 1e-6, LOW, OUT)
    err_doc = abs(price_single_barrier(env, doc) / gk_price(env, CALL, 100.0) - 1.0)
    assert err_doc <= 1e-6
    uop = SingleBarrierSpec(PUT, 100.0, 100.0 * 1e6, UP, OUT)
    err_uop = abs(price_single_barrier(env, uop) / gk_price(env, PUT, 100.0) - 1.0)
    assert err_uop <= 1e-6
    wide = DoubleBarrierSpec(CALL, 100.0, 100.0 * 1e-6, 100.0 * 1e6, OUT)
    err_koko = abs(koko_price(env, wide) / gk_price(env, CALL, 100.0) - 1.0)
    assert err_koko <= 1e-8
    report("criterion 5 (barrier-vanishing limits)",
           f"down-out {err_doc:.2e}, up-out {err_uop:.2e}, corridor {err_koko:.2e}")


def test_criterion_6_vanna_volga_fixed_point():
    env = MarketEnvironment(100.0, 0.03, 0.01, 0.2, 1.0)
    quotes = PivotQuotes(sigma_atm=0.10, sigma_rr25=-0.015, sigma_bf25=0.002)
    pivots = build_pivots(env, quotes)

    # pivot reproduction: the adjusted price recovers each market quote
    worst_pivot = 0.0
    for pivot in pivots:
        market = gk_price(replace(env, sigma=pivot.market_vol),
                          pivot.direction, pivot.strike)
        result = vv_price(env, VanillaSpec(pivot.direction, pivot.strike), quotes)
        worst_pivot = max(worst_pivot, abs(result.vv_price - market))
        assert abs(result.vv_price - market) <= 1e-8

    # flat smile adds nothing
    flat = vv_price(env, VanillaSpec(CALL, 110.0), PivotQuotes(sigma_atm=0.2))
    assert abs(flat.adjustment) <= 1e-12

    # two-term adjustment equals the three-term pivot-cost sum
    import numpy as np
    env_atm = replace(env, sigma=quotes.sigma_atm)
    system = build_pivot_system(env_atm, pivots)
    spec = SingleBarrierSpec(CALL, 95.0, 112.0, UP, OUT)
    result = vv_price(env, spec, quotes)
    weights = vv_weights(greeks_single_barrier(env_atm, spec), system)
    three_term = float(np.dot(weights, system.gaps))
    gap = abs(result.adjustment - three_term)
    assert gap <= 1e-10
    report("criterion 6 (Vanna-Volga fixed point)",
           f"worst pivot reproduction {worst_pivot:.2e}, flat-smile adjustment "
           f"{abs(flat.adjustment):.1e}, two/three-term gap {gap:.1e}")


def test_criterion_7_strike_solving():
    worst = 0.0
    for sigma_atm in (0.08, 0.10, 0.2, 0.4):
        for maturity in (0.1, 0.5, 1.0, 2.0):
            env = MarketEnvironment(100.0, 0.03, 0.01, sigma_atm, maturity)
            for target in (0.10, 0.25, 0.40):
                for direction, signed in ((CALL, target), (PUT, -target)):
                    strike = solve_delta_strike(env, signed, direction)
                    delta = gk_greeks(env, direction, strike).delta
                    worst = max(worst, abs(delta - signed))
                    assert abs(delta - signed) <= 1e-10
            k_call = solve_delta_strike(env, 0.25, CALL)
            k_put = solve_delta_strike(env, -0.25, PUT)
            assert k_put < atm_strike(env) < k_call
    report("criterion 7 (delta-strike solving)",
           f"worst delta round-trip error {worst:.2e}, pivot ordering held")


def test_criterion_8_mc_check_determinism(tmp_path):
    request = tmp_path / "request.json"
    request.write_text(json.dumps({
        "market": {"spot": 100.0, "domestic_rate": 0.02, "foreign_rate": 0.01,
                   "volatility": 0.2, "maturity": 0.5},
        "contract": {"type": "single_barrier", "direction": "call",
                     "strike": 100.0, "barrier": 85.0, "side": "lower",
                     "knock": "out"}}))
    # the child imports the same fxx as this process, installed or not
    src = str(Path(fxx.__file__).resolve().parent.parent)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = set()
    runs = 0
    for threads in (1, 4, 8):
        for _repeat in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "fxx.cli", "mc-check", str(request),
                 "--paths", "8000", "--steps", "40", "--seed", "9", "--bridge",
                 "--threads", str(threads)],
                capture_output=True, check=True, env=child_env)
            outputs.add(proc.stdout)
            runs += 1
    assert len(outputs) == 1
    report("criterion 8 (mc-check determinism)",
           f"{runs} runs across thread counts 1/4/8 produced identical bytes")
