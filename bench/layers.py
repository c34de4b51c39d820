"""Per-layer metrics of the traced run, measured from outside the library.

Each probe times calls into one module's public functions on the run's
seeded inputs (book 0 of the seed, the Monte Carlo validation set, the CLI
request sequence) and records one span per timed batch. Where a layer has
no entry point of its own, its metric is the difference between two
outside timings on the same inputs; README.md names each one.
"""

import contextlib
import io
import math
import re
import subprocess
import sys
from dataclasses import replace
from statistics import median
from time import perf_counter_ns

import numpy as np
from fxx import (McConfig, build_pivot_system, build_pivots,
                 classify_single_barrier, fd_greeks, gk_greeks, gk_price,
                 greeks_contract, greeks_single_barrier, kiki_greeks, kiki_price,
                 kiko_greeks, kiko_price, koko_greeks, koko_price, mc_price_batch,
                 price_contract, price_single_barrier, std_normal_cdf, vv_weights)
from fxx import cli as fxx_cli

import book
import calibrate
import facts
from workloads import NPROC, cli_env

REPEATS = 7              # timed batches per scalar probe; the median is reported
MC_PROBE_CHUNKS = 8      # 512-path chunks per Monte Carlo probe batch
MC_REPEATS = 3
MC_CHUNK = 512           # paths per chunk, fixed by the stream layout of fxx.mc_oracle
CLI_REPEATS = 5
CLOCK = calibrate.IN_PROCESS


class Spans:
    """In-memory spans (layer, calls, start_ns, end_ns), one per timed batch."""

    def __init__(self):
        self.rows = []

    def time(self, layer: str, fn, args: list) -> float:
        """Mean µs per call of ``fn(*a) for a in args``, median of REPEATS,
        scaled to the calibration reference speed."""
        samples = []
        for _ in range(REPEATS):
            before = CLOCK.sample()
            t0 = perf_counter_ns()
            for a in args:
                fn(*a)
            t1 = perf_counter_ns()
            scale = CLOCK.factor(before, CLOCK.sample())
            self.rows.append((layer, len(args), t0, t1))
            samples.append(scale * (t1 - t0) / len(args) / 1e3)
        return median(samples)


def _direct_price(item):
    env, spec = item.env, item.spec
    if item.kind == "vanilla":
        return gk_price(env, spec.direction, spec.strike)
    if item.kind == "single":
        return price_single_barrier(env, spec)
    if item.kind == "koko":
        return koko_price(env, spec)
    if item.kind == "kiki":
        return kiki_price(env, spec)
    return kiko_price(env, spec)


def _direct_greeks(item):
    env, spec = item.env, item.spec
    if item.kind == "vanilla":
        return gk_greeks(env, spec.direction, spec.strike)
    if item.kind == "single":
        return greeks_single_barrier(env, spec)
    if item.kind == "koko":
        return koko_greeks(env, spec)
    if item.kind == "kiki":
        return kiki_greeks(env, spec)
    return kiko_greeks(env, spec)


def _self_us(spans: Spans, layer: str, outer, inner, items) -> float:
    """Median over repeats of (outer - inner) per item, timed back to back."""
    args = [(item,) for item in items]
    gaps = [spans.time(layer, outer, args) - spans.time(layer + ".direct", inner, args)
            for _ in range(3)]
    return median(gaps)


def scalar_layers(spans: Spans, items: list, seed: int) -> dict:
    by_kind = {}
    for item in items:
        by_kind.setdefault(item.kind, []).append(item)
    vanillas, singles = by_kind["vanilla"], by_kind["single"]
    kokos, kikos = by_kind["koko"], by_kind["kiko"]
    vanilla_args = [(i.env, i.spec.direction, i.spec.strike) for i in vanillas]
    single_args = [(i.env, i.spec) for i in singles]
    m = {}
    m["vanilla.gk_price_us"] = spans.time("vanilla.gk_price", gk_price, vanilla_args)
    m["vanilla.gk_greeks_us"] = spans.time("vanilla.gk_greeks", gk_greeks, vanilla_args)
    m["num_core.std_normal_cdf_us"] = spans.time(
        "num_core.std_normal_cdf", std_normal_cdf, [(0.01 * k - 4.0,) for k in range(800)])
    m["contracts.classify_us"] = spans.time(
        "contracts.classify_single_barrier", classify_single_barrier, [(i.spec,) for i in singles])
    m["single_barrier.price_us"] = spans.time(
        "single_barrier.price_single_barrier", price_single_barrier, single_args)
    m["single_barrier.greeks_us"] = spans.time(
        "single_barrier.greeks_single_barrier", greeks_single_barrier, single_args)
    m["double_barrier.koko_price_us"] = spans.time(
        "double_barrier.koko_price", koko_price, [(i.env, i.spec) for i in kokos])
    m["double_barrier.kiko_price_us"] = spans.time(
        "double_barrier.kiko_price", kiko_price, [(i.env, i.spec) for i in kikos])
    m["double_barrier.koko_greeks_us"] = spans.time(
        "double_barrier.koko_greeks", koko_greeks, [(i.env, i.spec) for i in kokos])
    m["double_barrier.kiko_greeks_us"] = spans.time(
        "double_barrier.kiko_greeks", kiko_greeks, [(i.env, i.spec) for i in kikos])
    m["double_barrier.truncation_warn_frac"] = truncation_warn_frac(seed)

    # The stencil's own cost: a pricer that does no work leaves only the
    # nine environment rebuilds and the difference arithmetic.
    m["greeks_fd.stencil_overhead_us"] = spans.time(
        "greeks_fd.fd_greeks", fd_greeks, [(lambda e: 1.0, i.env) for i in kokos])
    calls = []

    def counted(e, spec=kokos[0].spec):
        calls.append(1)
        return koko_price(e, spec)

    fd_greeks(counted, kokos[0].env)
    m["greeks_fd.pricer_calls_per_set"] = float(len(calls))

    envs = [replace(i.env, sigma=book.SMILE.sigma_atm) for i in items]
    pivots = [build_pivots(i.env, book.SMILE) for i in items]
    systems = [build_pivot_system(e, p) for e, p in zip(envs, pivots)]
    targets = [greeks_contract(e, i.spec)[0] for e, i in zip(envs, items)]
    m["vanna_volga.build_pivots_us"] = spans.time(
        "vanna_volga.build_pivots", build_pivots, [(i.env, book.SMILE) for i in items])
    m["vanna_volga.pivot_system_us"] = spans.time(
        "vanna_volga.build_pivot_system", build_pivot_system, list(zip(envs, pivots)))
    m["vanna_volga.weights_us"] = spans.time(
        "vanna_volga.vv_weights", vv_weights, list(zip(targets, systems)))
    m["vanna_volga.condition_max"] = max(s.condition for s in systems)

    m["router.price_self_us"] = _self_us(
        spans, "router.price_contract", lambda i: price_contract(i.env, i.spec),
        _direct_price, items)
    m["router.greeks_self_us"] = _self_us(
        spans, "router.greeks_contract", lambda i: greeks_contract(i.env, i.spec),
        _direct_greeks, items)
    m["router.fd_fallback_frac"] = (
        sum(greeks_contract(i.env, i.spec)[1] == "fd" for i in items) / len(items))
    return m


def truncation_warn_frac(seed: int) -> float:
    """Share of the truncation probe's corridors whose default series warns
    (the book itself keeps to the grid where it never does)."""
    probe = facts.truncation_probe(seed)["corridors"]
    return probe["warned"] / probe["draws"]


def mc_layers(spans: Spans) -> dict:
    n_paths = MC_PROBE_CHUNKS * MC_CHUNK
    cfg = McConfig(n_paths=n_paths, n_steps=book.MC_STEPS, seed=11, bridge_correction=True)
    vanilla_only = [book.MC_CONTRACTS[0]]
    runs = {"t1": [], "tn": [], "nobridge": [], "vanilla": []}
    for _ in range(MC_REPEATS):
        for key, specs, c, threads in (
                ("t1", book.MC_CONTRACTS, cfg, 1),
                ("tn", book.MC_CONTRACTS, cfg, NPROC),
                ("nobridge", book.MC_CONTRACTS, replace(cfg, bridge_correction=False), 1),
                ("vanilla", vanilla_only, cfg, 1)):
            before = calibrate.NUMPY.sample()
            t0 = perf_counter_ns()
            mc_price_batch(book.MC_ENV, specs, c, threads=threads)
            t1 = perf_counter_ns()
            scale = calibrate.NUMPY.factor(before, calibrate.NUMPY.sample())
            spans.rows.append((f"mc_oracle.mc_price_batch[{key}]", 1, t0, t1))
            runs[key].append(scale * (t1 - t0) / 1e9)
    t1, tn, nobridge, vanilla = (median(runs[k]) for k in ("t1", "tn", "nobridge", "vanilla"))
    work = n_paths * book.MC_STEPS
    return {
        "mc_oracle.path_steps_per_s_t1": work / t1,
        "mc_oracle.scaling_eff": (work / tn) / (NPROC * work / t1),
        "mc_oracle.chunk_ms": 1e3 * vanilla / MC_PROBE_CHUNKS,
        "mc_oracle.bridge_ms_per_chunk": 1e3 * (t1 - nobridge) / MC_PROBE_CHUNKS,
        "mc_oracle.contract_ms_per_chunk": 1e3 * (t1 - vanilla) / MC_PROBE_CHUNKS
        / (len(book.MC_CONTRACTS) - 1),
        "mc_oracle.bytes_per_chunk_computed": float(chunk_bytes()),
    }


def chunk_bytes() -> int:
    """Computed, not measured: the three chunk x steps float64 arrays one
    chunk allocates (uniforms, normals, cumulative log path)."""
    return 3 * MC_CHUNK * book.MC_STEPS * 8


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def _child(spans: Spans, layer: str, argv: list, env=None) -> tuple:
    """Run a child process: (process-calibration scale, completed process,
    unscaled seconds)."""
    clock = calibrate.PROCESS
    before = clock.sample()
    t0 = perf_counter_ns()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    t1 = perf_counter_ns()
    spans.rows.append((layer, 1, t0, t1))
    return clock.factor(before, clock.sample()), proc, (t1 - t0) / 1e9


def import_times(spans: Spans, root) -> dict:
    """Cumulative µs per module from ``python -X importtime -c 'import fxx'``,
    scaled by the process calibration."""
    scale, proc, _ = _child(spans, "cli.importtime",
                            [sys.executable, "-X", "importtime", "-c", "import fxx"],
                            env=cli_env(root))
    out = {}
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            out[match.group(3)] = scale * int(match.group(2))
    return out


def cli_layers(spans: Spans, root, steps: list) -> dict:
    interp = []
    for _ in range(CLI_REPEATS):
        scale, _proc, seconds = _child(spans, "cli.interpreter", [sys.executable, "-c", "pass"])
        interp.append(scale * seconds)
    imports = [import_times(spans, root) for _ in range(3)]

    def cumulative(name):
        return median(t.get(name, 0) for t in imports)

    in_process = [argv[3:] for command, argv, _ in steps if command != "mc-check"]
    sink = io.StringIO()

    def main(*argv):
        sink.seek(0)
        with contextlib.redirect_stdout(sink):
            fxx_cli.main(list(argv))

    return {
        "cli.interpreter_s": median(interp),
        "cli.import_fxx_s": cumulative("fxx") / 1e6,
        "cli.import_mc_oracle_ms": cumulative("fxx.mc_oracle") / 1e3,
        "cli.import_scipy_special_ms": cumulative("scipy.special") / 1e3,
        "cli.main_inprocess_us": spans.time("cli.main", main, in_process),
    }


def near_barrier_share(seed: int, n_paths: int = 1024) -> dict:
    """Share of simulated paths that come within five bridge standard
    deviations of each barrier of the Monte Carlo set, where the bridge
    weight must be computed. Estimated on an independent simulation of the
    same dynamics (numpy PCG64 from the workload seed), not on the
    library's own streams."""
    env = book.MC_ENV
    dt = env.T / book.MC_STEPS
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((n_paths, book.MC_STEPS))
    z *= env.sigma * math.sqrt(dt)
    z += (env.drift - 0.5 * env.sigma ** 2) * dt
    log_path = np.cumsum(z, axis=1)
    lo, hi = log_path.min(axis=1), log_path.max(axis=1)
    margin = 5.0 * env.sigma * math.sqrt(dt)
    out = {}
    for spec in book.MC_CONTRACTS:
        levels = [math.log(b / env.spot) for b in book.contract_barriers(spec)]
        if not levels:
            continue
        near = np.zeros(n_paths, dtype=bool)
        for level in levels:
            near |= (lo - level < margin) if level < 0 else (level - hi < margin)
        barriers = "/".join(f"{b:g}" for b in book.contract_barriers(spec))
        out[f"{type(spec).__name__} K={spec.strike:g} B={barriers}"] = float(near.mean())
    return out
