"""Facts recorded with every result: machine and provenance, what the book
is made of, and the known defects the timed book leaves out."""

import hashlib
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from statistics import quantiles

from fxx import (BarrierSide, DoubleBarrierSpec, KnockType, OptionDirection,
                 SingleBarrierSpec, TruncationWarning, gk_price, koko_price,
                 price_contract, price_single_barrier)

import book
from workloads import CONVERGED, NPROC, series_warns

DEFECT_DRAWS = 16        # draws per defective KIKO row per run
TRUNCATION_DRAWS = 128   # corridors per run in the truncation probe


def _lscpu_caches() -> dict:
    if not shutil.which("lscpu"):
        return {}
    proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "LC_ALL": "C"})
    out = {}
    for line in proc.stdout.splitlines():
        match = re.match(r"(L2|L3) cache:\s*(.+)", line)
        if match:
            out[match.group(1)] = match.group(2).strip()
    return out


def _git_commit(root) -> str:
    if not (root / ".git").exists() or not shutil.which("git"):
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fxx").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine(root) -> dict:
    import numpy
    import scipy

    return {"nproc": NPROC, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "cpu": platform.processor() or platform.machine(),
            "caches": _lscpu_caches(), "git_commit": _git_commit(root),
            "src_sha256": _source_digest(root), "executable": sys.executable}


def composition(items: list) -> dict:
    """Shares of contract type, single-barrier row and KIKO rule, and the
    quartiles of corridor width U/L, in one book."""
    n = len(items)
    kinds = Counter(item.kind for item in items)
    singles = [i for i in items if i.kind == "single"]
    rows = Counter(i.tag for i in singles)
    kikos = Counter(i.tag for i in items if i.kind == "kiko")
    widths = sorted(i.spec.upper / i.spec.lower for i in items if i.kind == "koko")
    corridors = [i for i in items if i.kind in ("koko", "kiki")]
    return {
        "contracts": n,
        "type_share": {k: v / n for k, v in sorted(kinds.items())},
        "single_row_share": {k: v / len(singles) for k, v in sorted(rows.items())},
        "kiko_rule_share": {k: v / kinds["kiko"] for k, v in sorted(kikos.items())},
        "corridor_width": {"min": widths[0], "quartiles": quantiles(widths, n=4),
                           "max": widths[-1]},
        "corridor_truncation_warn_share":
            sum(series_warns(i.env, i.spec) for i in corridors) / len(corridors),
    }


def _replication(env, spec) -> float:
    """KO at the out barrier minus the corridor KO between both barriers:
    pays when the in barrier is touched and the out barrier is not."""
    lo, hi = sorted((spec.barrier_in, spec.barrier_out))
    side = BarrierSide.UPPER if spec.barrier_out > env.spot else BarrierSide.LOWER
    ko = price_single_barrier(env, SingleBarrierSpec(
        spec.direction, spec.strike, spec.barrier_out, side, KnockType.OUT))
    return ko - koko_price(env, DoubleBarrierSpec(
        spec.direction, spec.strike, lo, hi, KnockType.OUT))


def _series_counts(draws: list) -> dict:
    """Default-series prices of (env, spec) draws against n_max=20."""
    warned = off = bounds = 0
    worst = 0.0
    for env, spec in draws:
        warned += series_warns(env, spec)
        price = price_contract(env, spec)[0]
        converged = price_contract(env, spec, CONVERGED)[0]
        vanilla = gk_price(env, spec.direction, spec.strike)
        tol = 1e-10 * max(1.0, vanilla)
        bounds += not (-tol <= price <= vanilla + tol)
        gap = abs(price - converged) / max(1.0, abs(converged))
        off += gap > 1e-10
        worst = max(worst, gap)
    return {"draws": len(draws), "warned": warned, "off_converged": off,
            "outside_0_vanilla": bounds, "max_rel_gap": worst}


def truncation_probe(seed: int) -> dict:
    """The series-truncation regime the timed book leaves out.

    ``corridors``: corridor knock-outs over the KIKO market ranges (vol
    10-40%, maturity 0.1-2y), beyond acceptance criterion 3's grid, with
    widths stratified over the book's range. ``KIKO-call-in-low-out-high``:
    draws of that row below book.KIKO_SERIES_RATIO, the ones the book
    skips. Each counts TruncationWarnings, prices off the twenty-term series
    by more than 1e-10 (relative) and prices outside [0, vanilla]. A series
    that converges everywhere shows here as zero counts.
    """
    rng = random.Random(f"fxx-truncation:{seed}")
    call, put = OptionDirection.CALL, OptionDirection.PUT
    corridors = [book.corridor(rng, book.KIKO_MARKET, (i + rng.random()) / TRUNCATION_DRAWS,
                               call if i % 2 == 0 else put)
                 for i in range(TRUNCATION_DRAWS)]
    kikos = []
    while len(kikos) < DEFECT_DRAWS:
        env, spec = book.kiko_draw(rng, 0)
        if book.series_ratio(env, spec.barrier_in, spec.barrier_out) < book.KIKO_SERIES_RATIO:
            kikos.append((env, spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return {"corridors": _series_counts(corridors),
                "KIKO-call-in-low-out-high": _series_counts(kikos)}


def known_defects(seed: int) -> dict:
    """Measure what the timed book leaves out, on fresh draws.

    For each KIKO row of book.DEFECT_ROWS, count prices outside
    [0, vanilla] and prices further than 1e-8 (relative) from the
    KO - KOKO replication, which Monte Carlo confirms. Under
    ``series_truncation``, the truncation probe. A fix shows here as zero
    counts.
    """
    rng = random.Random(f"fxx-defects:{seed}")
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for row in book.DEFECT_ROWS:
            bounds = off = 0
            rule = ""
            worst = 0.0
            for _ in range(DEFECT_DRAWS):
                env, spec = book.kiko_spec(rng, row)
                price, rule = price_contract(env, spec)
                vanilla = gk_price(env, spec.direction, spec.strike)
                tol = 1e-10 * max(1.0, vanilla)
                bounds += not (-tol <= price <= vanilla + tol)
                gap = abs(price - _replication(env, spec)) / max(1.0, abs(price))
                off += gap > 1e-8
                worst = max(worst, gap)
            out[rule] = {"draws": DEFECT_DRAWS, "outside_0_vanilla": bounds,
                         "off_replication": off, "max_rel_gap": worst}
    out["series_truncation"] = truncation_probe(seed)
    return out
