"""Benchmark of the fxx library: one workload per run, from a seed.

    python3 bench/run.py --workload book_price --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ./src. The
last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1. The line before it is {"info": ...}:
machine and provenance facts, the book's composition, the tail percentile
and its sample count, failures by check name and the known defects.
See bench/README.md.
"""

import argparse
import json
import math
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import median
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("book_price", "book_risk", "mc_check", "cli_cold")
SETUP_REPEATS = 5           # fresh processes timed per run for setup_s
TAIL_BEYOND = 10            # samples that must lie beyond the tail percentile
TAIL_CAP_PCT = 90.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's setup, print 'ready' and exit "
                             "(how setup_s is timed)")
    return parser.parse_args(argv)


def require_source() -> None:
    """Import the library from this checkout's src/, or stop."""
    if not (ROOT / "src" / "fxx" / "__init__.py").is_file():
        sys.exit(f"bench: no fxx sources at {ROOT / 'src' / 'fxx'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def tail_latency(sorted_ns) -> tuple:
    """(value ns, percentile, samples beyond) of the tail latency.

    The highest percentile with at least TAIL_BEYOND samples beyond it,
    capped at TAIL_CAP_PCT. Above p90 the slowest ops are host
    interruptions as much as slow contracts: over five 12 s seeds the
    scaled p99.9 spread 25% (interquartile range / median) on both book
    workloads and p99 7-9%, against 5-7% at p90, and the bounds allow 25%.
    """
    n = len(sorted_ns)
    beyond = max(TAIL_BEYOND, math.ceil(n * (1.0 - TAIL_CAP_PCT / 100.0)))
    if beyond >= n:     # a run too short to have one: the slowest op
        beyond = 0
    return sorted_ns[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def latency_metrics(sorted_ns) -> tuple:
    """(ops_per_s, latency_p50_ms, latency_tail_ms) and the tail's rank."""
    tail_ns, tail_pct, beyond = tail_latency(sorted_ns)
    return ({"ops_per_s": len(sorted_ns) / (sum(sorted_ns) / 1e9),
             "latency_p50_ms": median(sorted_ns) / 1e6,
             "latency_tail_ms": tail_ns / 1e6},
            {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(sorted_ns)})


def time_setups(args) -> tuple:
    """Seconds from spawning a fresh interpreter to its 'ready' line:
    (scaled by the process calibration, raw)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    clock = calibrate.PROCESS
    before = clock.sample()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup process failed (exit {proc.returncode})")
        after = clock.sample()
        scaled.append(ready * clock.factor(before, after))
        raw.append(ready)
        before = after
    return scaled, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    import facts
    import workloads as w
    from fxx import TruncationWarning

    # Timed loops and probes run as a batch caller that has silenced the
    # warning; its share of the book is measured separately.
    warnings.simplefilter("ignore", TruncationWarning)

    setups = {"book_price": w.book_price_setup, "book_risk": w.book_risk_setup,
              "mc_check": w.mc_check_setup,
              "cli_cold": lambda seed: w.cli_cold_setup(seed, ROOT)}
    runs = {"book_price": w.book_price_run, "book_risk": w.book_risk_run,
            "mc_check": w.mc_check_run, "cli_cold": w.cli_cold_run}

    state = setups[args.workload](args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        clock = {"cli_cold": calibrate.PROCESS,
                 "mc_check": calibrate.NUMPY}.get(args.workload, calibrate.IN_PROCESS)
        loop = w.Loop(trace=bool(args.trace), clock=clock)
        started = perf_counter()
        extra = runs[args.workload](args.seed, args.seconds, state, loop)
        loop.calibrate()
        loop_s = perf_counter() - started
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup_samples, setup_raw = time_setups(args)
        layer_metrics, spans = {}, None
        if args.trace:
            layer_metrics, spans = trace_layers(args, state)
    finally:
        if args.workload == "cli_cold":
            w.cli_cold_teardown(state)

    passing = sorted(loop.passing_ns())
    if not passing:
        raise RuntimeError(f"no op passed its checks: {dict(loop.failures)}")
    end_to_end, tail = latency_metrics(passing)
    end_to_end.update({"setup_s": median(setup_samples), "rss_peak_mb": rss_mb})
    raw, _ = latency_metrics(sorted(loop.passing_ns(scaled=False)))
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop_s": loop_s, "tail": tail,
        "fail_frac": loop.failed / max(loop.attempted, 1),
        "failures": dict(loop.failures), "ops_by_kind": loop.by_name(),
        "setup_samples_s": setup_samples,
        "setup_samples_unscaled_s": setup_raw,
        "workload_facts": extra, "machine": facts.machine(ROOT),
        "end_to_end": end_to_end, "end_to_end_unscaled": raw,
        "calibration": {"ref_ns": clock.ref_ns, "elasticity": clock.elasticity,
                        "samples": len(loop.calibration_ns),
                        "median_ns": median(loop.calibration_ns)},
    }
    info.update(workload_info(args, state, end_to_end))
    if args.trace:
        info["spans"] = spans
        info["op_spans"] = w.span_summary(loop.spans)
    metrics = layer_metrics if args.trace else end_to_end
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": declared(metrics, "per_layer" if args.trace else "end_to_end")}))
    return 0


def declared(values: dict, section: str) -> dict:
    """Values with the units BENCHMARK.json declares; the names must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def workload_info(args, state, end_to_end: dict) -> dict:
    import book
    import facts
    import layers

    if args.workload in ("book_price", "book_risk"):
        return {"book": facts.composition(state["first"]),
                "known_defects": facts.known_defects(args.seed)}
    if args.workload == "mc_check":
        return {"mc_near_barrier_share": layers.near_barrier_share(args.seed),
                "mc_bytes_per_chunk_computed": layers.chunk_bytes(),
                "path_steps_per_s": end_to_end["ops_per_s"] * book.MC_PATHS * book.MC_STEPS}
    return {}


def trace_layers(args, state) -> tuple:
    """Per-layer metric values and the span summary."""
    import book
    import layers
    import workloads as w

    spans = layers.Spans()
    first = state.get("first") or book.make_book(args.seed, 0)
    values = layers.scalar_layers(spans, first, args.seed)
    values.update(layers.mc_layers(spans))
    steps = state.get("steps")
    if steps is None:
        cli_state = w.cli_cold_setup(args.seed, ROOT)
        try:
            values.update(layers.cli_layers(spans, ROOT, cli_state["steps"]))
        finally:
            w.cli_cold_teardown(cli_state)
    else:
        values.update(layers.cli_layers(spans, ROOT, steps))
    return values, w.span_summary(spans.rows)


if __name__ == "__main__":
    sys.exit(main())
