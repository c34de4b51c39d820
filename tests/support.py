"""Shared grid samplers and comparison helpers for the test suite."""

import math
import random
from dataclasses import replace

import numpy as np

from fxx import (BarrierSide, FdBumps, IllConditionedError, KnockType, MarketEnvironment,
                 OptionDirection, SingleBarrierSpec, fd_greeks, gk_greeks, gk_price)
from fxx.single_barrier import abcd, greeks_abcd
from fxx.vanna_volga import _MAX_CONDITION, _inverse, _norm1

EPS = 2.220446049250313e-16

# Margins keeping sampled points away from classification boundaries
# (0.1% bands per the acceptance rules, widened for FD stencil room) and
# a cap on the barrier reflection power so double-precision cancellation
# stays orders of magnitude below the parity tolerances.
_SPOT_BARRIER_MARGIN = 0.011
_STRIKE_BARRIER_MARGIN = 0.011
_REFLECTION_POWER_CAP = 3.0


def sample_barrier_point(rng: random.Random):
    """One random (env, strike, barrier) tuple from the acceptance grid,
    or None when the draw violates the margins (caller retries)."""
    spot = rng.uniform(50.0, 200.0)
    sigma = rng.uniform(0.05, 0.6)
    maturity = rng.uniform(0.05, 2.0)
    env = MarketEnvironment(spot=spot, r_d=rng.uniform(-0.02, 0.08),
                            r_f=rng.uniform(-0.02, 0.08), sigma=sigma, T=maturity)
    lam_cap = min(math.log(1.5),
                  _REFLECTION_POWER_CAP * sigma * sigma / (2.0 * max(abs(env.drift), 1e-9)))
    if lam_cap < _SPOT_BARRIER_MARGIN + 0.001:
        return None
    lam = rng.uniform(-lam_cap, lam_cap)
    if abs(lam) < _SPOT_BARRIER_MARGIN:
        return None
    barrier = spot * math.exp(lam)
    strike = spot * rng.uniform(0.5, 1.5)
    if abs(strike - barrier) < _STRIKE_BARRIER_MARGIN * max(strike, barrier):
        return None
    return env, strike, barrier


def barrier_grid(seed: int, n_points: int):
    """Deterministic list of (env, K, B, direction, implied side) samples."""
    rng = random.Random(seed)
    out = []
    while len(out) < n_points:
        point = sample_barrier_point(rng)
        if point is None:
            continue
        env, strike, barrier = point
        direction = rng.choice((OptionDirection.CALL, OptionDirection.PUT))
        side = BarrierSide.LOWER if barrier < env.spot else BarrierSide.UPPER
        out.append((env, strike, barrier, direction, side))
    return out


def in_out_pair(strike, barrier, direction, side):
    k_in = SingleBarrierSpec(direction, strike, barrier, side, KnockType.IN)
    k_out = SingleBarrierSpec(direction, strike, barrier, side, KnockType.OUT)
    return k_in, k_out


def greek_oracle_bumps(env: MarketEnvironment) -> FdBumps:
    """Stencil bumps scaled to the kernel's volatility-curvature range."""
    return FdBumps(dS_rel=2e-5, dSigma_abs=1e-4 * max(env.sigma / 0.2, 0.25))


def richardson_fd(pricer, env: MarketEnvironment, bumps: FdBumps):
    """Finite-difference GreekSet pair extrapolated to fourth order."""
    full = fd_greeks(pricer, env, bumps)
    half = fd_greeks(pricer, env, FdBumps(bumps.dS_rel / 2.0, bumps.dSigma_abs / 2.0))
    extrapolated = {}
    for comp in ("delta", "vega", "vanna", "volga"):
        f1, f2 = getattr(full, comp), getattr(half, comp)
        extrapolated[comp] = f2 + (f2 - f1) / 3.0
    return full.value, extrapolated


def fd_noise_floors(p00: float, env: MarketEnvironment, bumps: FdBumps) -> dict:
    """A-priori resolution of the extrapolated stencil per component.

    Rounding of each price evaluation scales with the kernel's internal
    leg magnitudes (spot-sized even when the combined value nearly
    cancels) and is amplified by the difference denominators; the
    half-bump evaluation dominates."""
    h = bumps.dS_rel * env.spot
    k = bumps.dSigma_abs
    scale = abs(p00) + env.spot
    return {
        "delta": 8.0 * EPS * scale / h,
        "vega": 8.0 * EPS * scale / k,
        "vanna": 32.0 * EPS * scale / (h * k),
        "volga": 64.0 * EPS * scale / (k * k),
    }


def greek_tolerance(analytic: float, oracle: float, floor: float = 0.0) -> float:
    return max(1e-5 * max(abs(analytic), abs(oracle)), 1e-9, floor)


def compare_parameter_greeks(env, direction, side, strike, barrier):
    """Check the 16 closed forms against the extrapolated stencil and the
    chain first differences of the closed-form vega. Returns the worst
    error/tolerance ratio over all checks."""
    analytic_sets = greeks_abcd(env, direction, side, strike, barrier)
    bumps = greek_oracle_bumps(env)
    h = bumps.dS_rel * env.spot
    k = bumps.dSigma_abs
    worst = 0.0
    for idx in range(4):
        def leg_price(e, idx=idx):
            vals = abcd(e, direction, side, strike, barrier)
            return (vals.a, vals.b, vals.c, vals.d)[idx]

        p00, fd = richardson_fd(leg_price, env, bumps)
        floors = fd_noise_floors(p00, env, bumps)
        analytic = analytic_sets[idx]
        for comp in ("delta", "vega", "vanna", "volga"):
            a = getattr(analytic, comp)
            f = fd[comp]
            worst = max(worst, abs(a - f) / greek_tolerance(a, f, floors[comp]))

        def leg_vega(spot=None, sigma=None, idx=idx):
            e = replace(env, spot=spot if spot is not None else env.spot,
                        sigma=sigma if sigma is not None else env.sigma)
            return greeks_abcd(e, direction, side, strike, barrier)[idx].vega

        def chain(hh, kk):
            vanna = (leg_vega(spot=env.spot + hh) - leg_vega(spot=env.spot - hh)) / (2 * hh)
            volga = (leg_vega(sigma=env.sigma + kk) - leg_vega(sigma=env.sigma - kk)) / (2 * kk)
            return vanna, volga

        va1, vo1 = chain(h, k)
        va2, vo2 = chain(h / 2, k / 2)
        vanna_chain = va2 + (va2 - va1) / 3.0
        volga_chain = vo2 + (vo2 - vo1) / 3.0
        vega_scale = max(abs(analytic.vega), 1.0)
        worst = max(worst, abs(analytic.vanna - vanna_chain)
                    / greek_tolerance(analytic.vanna, vanna_chain, 8 * EPS * vega_scale / h))
        worst = max(worst, abs(analytic.volga - volga_chain)
                    / greek_tolerance(analytic.volga, volga_chain, 8 * EPS * vega_scale / k))
    return worst


def reference_pivot_system(env: MarketEnvironment, pivots) -> tuple:
    """(matrix, gaps, condition) of ``build_pivot_system`` built from the
    public vanilla functions: one environment copy per pivot volatility,
    ``gk_greeks`` for each column and ``gk_price`` at the market vol minus
    ``gk_price`` at the flat vol for every gap, the ATM leg's included."""
    columns, gaps = [], []
    for pivot in pivots:
        env_flat = replace(env, sigma=pivot.bs_vol)
        greeks = gk_greeks(env_flat, OptionDirection.CALL, pivot.strike)
        columns.append((greeks.vega, greeks.vanna, greeks.volga))
        env_mkt = replace(env, sigma=pivot.market_vol)
        gaps.append(gk_price(env_mkt, pivot.direction, pivot.strike)
                    - gk_price(env_flat, pivot.direction, pivot.strike))
    matrix = tuple(zip(*columns))
    condition = _norm1(matrix) * _norm1(_inverse(matrix))
    if not math.isfinite(condition) or condition > _MAX_CONDITION:
        raise IllConditionedError(
            f"pivot system condition estimate {condition:.3e} exceeds "
            f"{_MAX_CONDITION:.0e}; pivots are too close to distinguish")
    return matrix, tuple(gaps), condition


def dense_bridge_survival(env: MarketEnvironment, n_steps: int, barrier: float,
                          side: BarrierSide, log_path) -> np.ndarray:
    """Bridge survival of each simulated path, every step evaluated.

    The reference for the Monte Carlo engine's sparse product: the factor
    1 - exp(-2 d_i d_{i+1} / (sigma^2 dt)) at every step, d being the log
    distance to the barrier (spot at d_0), multiplied along the path by
    ``np.prod``; 0 on a path that reaches the barrier."""
    log_level = math.log(barrier / env.spot)
    dt = env.T / n_steps
    coef = -2.0 / (env.sigma * env.sigma * dt)
    if side == BarrierSide.LOWER:
        dist, spot_gap = log_path - log_level, -log_level
    else:
        dist, spot_gap = log_level - log_path, log_level
    first = 1.0 - np.exp(coef * spot_gap * dist[:, 0])
    inner = 1.0 - np.exp(coef * dist[:, :-1] * dist[:, 1:])
    weights = first * np.prod(inner, axis=1)
    weights[(dist <= 0.0).any(axis=1)] = 0.0
    return weights
