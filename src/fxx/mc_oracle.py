"""Seeded Monte Carlo simulator with continuous-barrier correction.

Paths follow exact log-Euler steps of the two-rate lognormal dynamics.
Barrier survival uses, per step and per barrier, the crossing
probability ``exp(-2 ln(S_i/B) ln(S_{i+1}/B) / (sigma^2 dt))`` of the
bridge between consecutive points; the per-step survival probabilities
multiply along the path (and across barriers) and one uniform draw per
path thins against the product, which has the same joint law as
thinning every step separately. A step whose two endpoints both sit at
least five bridge standard deviations from a barrier has an exponent of
at most -50, so its survival factor rounds to exactly 1.0 in double
precision. Such steps are skipped one by one, and the remaining factors
multiply in step order, so no bit of the result changes.

Each chunk of 512 paths lives in one ``(paths, steps)`` float64 array:
the path uniforms are drawn into it, and the normal transform, scaling,
drift and cumulative sum overwrite it in place. A worker therefore holds
about 512 x steps x 8 bytes of path at a time, and ``mc_price_batch``
runs one worker per CPU this process may use unless told otherwise.

Streams are keyed by (seed, chunk index, stream role) through
``SeedSequence``, which makes every estimate bit-reproducible for any
thread count and independent of which contracts are batched together.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .contracts import BarrierSide, MarketEnvironment
from .errors import DomainError
from .router import _lookup

_CHUNK = 512           # paths per stream chunk; fixed, part of the stream layout
_STREAM_PATH = 0       # per-step path uniforms
_STREAM_SURVIVAL = 1   # thinning draw of the first barrier group
_STREAM_TRIGGER = 2    # knock-in draw behind a knock-out group (in/out pairs)
_NEAR_SDS = 5.0        # bridge std devs beyond which survival rounds to 1.0


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int = 0
    bridge_correction: bool = True

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise DomainError("n_paths and n_steps must both be >= 1")
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class McEstimate:
    price: float
    std_error: float


def _rng(cfg: McConfig, chunk: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence([int(cfg.seed), chunk, stream])
    return np.random.Generator(np.random.SFC64(ss))


class _BarrierPlan:
    """Per-barrier constants reused across chunks."""

    def __init__(self, env: MarketEnvironment, cfg: McConfig,
                 barrier: float, side: BarrierSide):
        self.side = side
        self.log_level = math.log(barrier / env.spot)
        dt = env.T / cfg.n_steps
        self.coef = -2.0 / (env.sigma * env.sigma * dt)
        self.margin = _NEAR_SDS * env.sigma * math.sqrt(dt)
        self.spot_gap = -self.log_level if side == BarrierSide.LOWER else self.log_level

    def survival(self, log_path: np.ndarray, path_min: np.ndarray,
                 path_max: np.ndarray, bridge: bool) -> np.ndarray:
        """P(barrier never touched | path skeleton); {0,1} without bridge."""
        if self.side == BarrierSide.LOWER:
            gap = path_min - self.log_level
        else:
            gap = self.log_level - path_max
        breached = gap <= 0.0
        if not bridge:
            return 1.0 - breached.astype(np.float64)
        weights = np.ones(log_path.shape[0])
        weights[breached] = 0.0
        if self.spot_gap < self.margin:
            near = ~breached
        else:
            near = (gap < self.margin) & ~breached
        rows = np.nonzero(near)[0]
        if rows.size:
            if self.side == BarrierSide.LOWER:
                dist = log_path[rows] - self.log_level
            else:
                dist = self.log_level - log_path[rows]
            first = 1.0 - np.exp(self.coef * self.spot_gap * dist[:, 0])
            # a step with both ends at least `margin` away has factor 1.0
            # exactly; ufunc.at multiplies the rest in step order, which
            # reproduces np.prod over every step bit for bit
            close = dist < self.margin
            row, step = np.nonzero(close[:, :-1] | close[:, 1:])
            inner = np.ones(rows.size)
            np.multiply.at(inner, row, 1.0 - np.exp(
                self.coef * dist[row, step] * dist[row, step + 1]))
            weights[rows] = first * inner
        return weights


class _ContractPlan:
    """Payoff evaluator for one contract on a simulated chunk.

    The payoff is kept on paths that survive every knock-out barrier and
    touch some knock-in barrier. The first group present thins against the
    survival stream, a knock-in group behind a knock-out group against the
    trigger stream.
    """

    def __init__(self, env: MarketEnvironment, cfg: McConfig, spec):
        knock_out, knock_in = _lookup(spec).barriers(spec)
        spec.validate_against(env)
        self.phi = int(spec.direction)
        self.strike = spec.strike
        self.discount = math.exp(-env.r_d * env.T)
        self.knock_out = [_BarrierPlan(env, cfg, level, side) for level, side in knock_out]
        self.knock_in = [_BarrierPlan(env, cfg, level, side) for level, side in knock_in]

    def payoffs(self, chunk: "_SimulatedChunk") -> np.ndarray:
        pay = self.discount * np.maximum(self.phi * (chunk.terminal - self.strike), 0.0)
        roles = iter((_STREAM_SURVIVAL, _STREAM_TRIGGER))
        if self.knock_out:
            pay = pay * (chunk.uniforms(next(roles)) < chunk.survival(self.knock_out))
        if self.knock_in:
            pay = pay * (chunk.uniforms(next(roles)) >= chunk.survival(self.knock_in))
        return pay


class _SimulatedChunk:
    """One chunk of paths plus lazily-drawn thinning uniforms."""

    def __init__(self, env: MarketEnvironment, cfg: McConfig, index: int, n_paths: int):
        self._cfg = cfg
        self._index = index
        self._bridge = cfg.bridge_correction
        dt = env.T / cfg.n_steps
        drift = (env.drift - 0.5 * env.sigma * env.sigma) * dt
        vol = env.sigma * math.sqrt(dt)
        path = _rng(cfg, index, _STREAM_PATH).random((n_paths, cfg.n_steps))
        np.maximum(path, 2.0**-54, out=path)  # the generator can emit exactly 0.0
        ndtri(path, out=path)
        path *= vol
        path += drift
        self.log_path = np.cumsum(path, axis=1, out=path)
        self.path_min = self.log_path.min(axis=1)
        self.path_max = self.log_path.max(axis=1)
        self.terminal = env.spot * np.exp(self.log_path[:, -1])
        self._weights = {}
        self._uniforms = {}

    def weight(self, plan: _BarrierPlan) -> np.ndarray:
        key = (plan.log_level, plan.side)
        if key not in self._weights:
            self._weights[key] = plan.survival(self.log_path, self.path_min,
                                               self.path_max, self._bridge)
        return self._weights[key]

    def survival(self, barriers: list) -> np.ndarray:
        """Probability of touching none of ``barriers``."""
        weights = self.weight(barriers[0])
        for extra in barriers[1:]:
            weights = weights * self.weight(extra)
        return weights

    def uniforms(self, role: int) -> np.ndarray:
        if role not in self._uniforms:
            self._uniforms[role] = _rng(self._cfg, self._index, role).random(
                self.log_path.shape[0])
        return self._uniforms[role]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_price_batch(env: MarketEnvironment, specs, cfg: McConfig,
                   threads: int | None = None) -> list:
    """Estimate several contracts on one shared path stream.

    Every estimate is bit-identical to pricing the contract alone with
    the same config, so batching is purely a performance feature.
    ``threads`` defaults to the CPUs this process may run on; the
    estimates are the same bytes for any count.
    """
    if threads is None:
        threads = _usable_cpus()
    elif threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    plans = [_ContractPlan(env, cfg, spec) for spec in specs]
    n_chunks = (cfg.n_paths + _CHUNK - 1) // _CHUNK
    sums = np.zeros((len(plans), n_chunks))
    sumsqs = np.zeros((len(plans), n_chunks))

    def run_chunk(index: int) -> None:
        n_here = min(_CHUNK, cfg.n_paths - index * _CHUNK)
        chunk = _SimulatedChunk(env, cfg, index, n_here)
        for j, plan in enumerate(plans):
            pay = plan.payoffs(chunk)
            sums[j, index] = pay.sum()
            sumsqs[j, index] = (pay * pay).sum()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_chunk, range(n_chunks)))

    out = []
    n = cfg.n_paths
    for j in range(len(plans)):
        total = float(np.sum(sums[j]))
        total_sq = float(np.sum(sumsqs[j]))
        mean = total / n
        if n > 1:
            variance = max((total_sq - total * total / n) / (n - 1), 0.0)
            std_error = math.sqrt(variance / n)
        else:
            std_error = 0.0
        out.append(McEstimate(price=mean, std_error=std_error))
    return out


def mc_price(env: MarketEnvironment, spec, cfg: McConfig,
             threads: int | None = None) -> McEstimate:
    """Monte Carlo estimate of one contract (vanilla or any barrier type)."""
    return mc_price_batch(env, [spec], cfg, threads=threads)[0]
