"""Shared grid samplers and comparison helpers for the test suite."""

import math
import random
from dataclasses import replace

import mpmath
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


def abcd_oracle(env: MarketEnvironment, direction, side, strike: float, barrier: float,
                dps: int = 40) -> tuple:
    """(value, delta, vega, vanna, volga) of the decomposition parameters
    A, B, C and D (Reiner & Rubinstein, 1991), written from their formulas
    at ``dps`` digits; the Greeks are ``mpmath.diff`` derivatives in
    (spot, sigma).

    With phi the direction, eta the barrier side, s = sigma sqrt(T),
    mu = (r_d - r_f - sigma^2/2) / sigma^2 and
    z(x) = ln(x) / s + (1 + mu) s, each parameter is
        phi (S e^(-r_f T) p_a N(w z) - K e^(-r_d T) p_c N(w (z - s))),
    where A takes x = S/K and B takes x = S/B, both with w = phi and
    p_a = p_c = 1, and C takes x = B^2/(S K) and D takes x = B/S, both with
    w = eta, p_a = (B/S)^(2 mu + 2) and p_c = (B/S)^(2 mu)."""
    mp = mpmath.mp
    phi, eta = int(direction), int(side)
    with mpmath.workdps(dps):
        K, B, T = mp.mpf(strike), mp.mpf(barrier), mp.mpf(env.T)
        r_d, r_f = mp.mpf(env.r_d), mp.mpf(env.r_f)

        def parameter(idx):
            def value(S, sig):
                s = sig * mp.sqrt(T)
                mu = (r_d - r_f - sig ** 2 / 2) / sig ** 2
                x = (S / K, S / B, B ** 2 / (S * K), B / S)[idx]
                z = mp.log(x) / s + (1 + mu) * s
                asset, cash = S * mp.exp(-r_f * T), K * mp.exp(-r_d * T)
                w = phi
                if idx >= 2:
                    w = eta
                    asset *= (B / S) ** (2 * mu + 2)
                    cash *= (B / S) ** (2 * mu)
                return phi * (asset * mp.ncdf(w * z) - cash * mp.ncdf(w * (z - s)))
            return value

        point = (mp.mpf(env.spot), mp.mpf(env.sigma))
        return tuple(tuple(float(mp.diff(parameter(idx), point, order))
                           for order in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)))
                     for idx in range(4))


def corridor_series_oracle(env: MarketEnvironment, spec, m: int, dps: int = 60) -> float:
    """Knock-out corridor price from the image series of Ikeda & Kunitomo
    (1992), flat barriers, summed over n = -m..m at ``dps`` digits.

    With b = r_d - r_f, mu = 2b/sigma^2 + 1, s = sigma sqrt(T) and the
    payoff's range [a, c] inside the corridor ([max(K, L), U] for a call,
    [L, min(K, U)] for a put), the price is
    phi (S e^(-r_f T) sum_n A_n - K e^(-r_d T) sum_n C_n), where
        A_n = (U/L)^(mu n) [N(d(a)) - N(d(c))]
              - (L^(n+1) / (U^n S))^mu [N(r(a)) - N(r(c))],
    C_n is A_n with mu - 2 for mu and every N argument less s, and
        d(x) = (ln(S U^2n / (x L^2n)) + (b + sigma^2/2) T) / s,
        r(x) = (ln(L^(2n+2) / (x S U^2n)) + (b + sigma^2/2) T) / s.
    Each N(hi) - N(lo) is taken from the tail farther from the interval,
    so no digits cancel. The result is not clamped."""
    mp = mpmath.mp
    with mpmath.workdps(dps):
        S, K, L, U = (mp.mpf(x) for x in (env.spot, spec.strike, spec.lower, spec.upper))
        sig, T = mp.mpf(env.sigma), mp.mpf(env.T)
        r_d, r_f = mp.mpf(env.r_d), mp.mpf(env.r_f)
        drift = r_d - r_f
        s = sig * mp.sqrt(T)
        mu = 2 * drift / sig ** 2 + 1
        nu_T = (drift + sig ** 2 / 2) * T
        call = spec.direction == OptionDirection.CALL
        Kc = min(max(K, L), U)
        a, c = (Kc, U) if call else (L, Kc)

        def ncdf_diff(hi, lo):
            if hi + lo > 0:
                return mp.ncdf(-lo) - mp.ncdf(-hi)
            return mp.ncdf(hi) - mp.ncdf(lo)

        asset = cash = mp.mpf(0)
        for n in range(-m, m + 1):
            img, ref = (U / L) ** n, L ** (n + 1) / (U ** n * S)

            def d(x):
                return (mp.log(S * U ** (2 * n) / (x * L ** (2 * n))) + nu_T) / s

            def r(x):
                return (mp.log(L ** (2 * n + 2) / (x * S * U ** (2 * n))) + nu_T) / s

            asset += (img ** mu * ncdf_diff(d(a), d(c))
                      - ref ** mu * ncdf_diff(r(a), r(c)))
            cash += (img ** (mu - 2) * ncdf_diff(d(a) - s, d(c) - s)
                     - ref ** (mu - 2) * ncdf_diff(r(a) - s, r(c) - s))
        price = S * mp.exp(-r_f * T) * asset - K * mp.exp(-r_d * T) * cash
        return float(price if call else -price)


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
