"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved stdout of runs of bench/run.py, one file per
run (any name). Untraced runs of the two sides are paired by (workload,
seed); run each pair back to back, alternating which side goes first.

End-to-end verdicts, with the bound each metric has in BENCHMARK.json:
  gain          the change wins at least 9/10 of the pairs (ties count
                for neither side) and the medians differ, in the better
                direction, by more than the parent's interquartile range
  regression    the change's median is worse than the parent's by more
                than the bound
  unresolved    a side's spread (interquartile range / median) is wider
                than the bound, unless every change run beats every parent
                run
  no regression otherwise
A gain does not count when the change fails more operations than the parent.
Per-layer metrics (traced runs) are listed with their medians and ratio,
without a verdict. The tracing overhead is each side's traced-loop
end-to-end median against its untraced median, per workload.
"""

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(directory: Path) -> list:
    runs = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        try:
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, KeyError):
            continue
        runs.append({"info": info, "result": result, "file": path.name})
    return runs


def spread(values: list) -> tuple:
    """(median, q1, q3); q1 = q3 = median for fewer than two values."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid
    q1, _, q3 = quantiles(values, n=4)
    return mid, q1, q3


def verdict(parent: list, change: list, pairs: list, higher: bool, bound: float) -> tuple:
    sign = 1.0 if higher else -1.0
    p_mid, p1, p3 = spread(parent)
    c_mid, c1, c3 = spread(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    gap = sign * (c_mid - p_mid)
    worse = -gap / abs(p_mid) if p_mid else 0.0
    if pairs and share >= WIN_SHARE and gap > (p3 - p1):
        return "gain", share, worse
    wide = max((p3 - p1) / abs(p_mid) if p_mid else 0.0,
               (c3 - c1) / abs(c_mid) if c_mid else 0.0) > bound
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wide and not all_better:
        return "unresolved", share, worse
    if worse > bound:
        return "regression", share, worse
    return "no regression", share, worse


def by_workload(runs: list, trace: int) -> dict:
    out = {}
    for run in runs:
        if run["info"]["trace"] == trace:
            out.setdefault(run["info"]["workload"], []).append(run)
    return out


def metric_values(runs: list, name: str) -> list:
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load_runs(Path(a)) for a in argv)
    p_plain, c_plain = by_workload(parent, 0), by_workload(change, 0)

    print("end-to-end (untraced runs)")
    print(f"{'workload':<11} {'metric':<16} {'parent median [q1,q3]':<30} "
          f"{'change median [q1,q3]':<30} {'pairs':>5} {'win':>5} {'worse':>7}  verdict")
    for workload in sorted(set(p_plain) & set(c_plain)):
        p_runs, c_runs = p_plain[workload], c_plain[workload]
        p_fail = sum(r["result"]["failed"] for r in p_runs)
        c_fail = sum(r["result"]["failed"] for r in c_runs)
        c_by_seed = {r["info"]["seed"]: r for r in c_runs}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(p["result"]["metrics"][name]["value"],
                      c_by_seed[p["info"]["seed"]]["result"]["metrics"][name]["value"])
                     for p in p_runs if p["info"]["seed"] in c_by_seed]
            pv, cv = metric_values(p_runs, name), metric_values(c_runs, name)
            result, share, worse = verdict(pv, cv, pairs, metric["better"] == "higher",
                                           metric["bound"])
            if result == "gain" and c_fail > p_fail:
                result = "gain void: more failures"
            pm, pq1, pq3 = spread(pv)
            cm, cq1, cq3 = spread(cv)
            print(f"{workload:<11} {name:<16} "
                  f"{fmt(pm) + ' [' + fmt(pq1) + ',' + fmt(pq3) + ']':<30} "
                  f"{fmt(cm) + ' [' + fmt(cq1) + ',' + fmt(cq3) + ']':<30} "
                  f"{len(pairs):>5} {share:>5.2f} {worse:>+7.1%}  {result}")
        print(f"{workload:<11} {'failed/attempted':<16} "
              f"{p_fail}/{sum(r['result']['attempted'] for r in p_runs)}"
              f"{'':<20}{c_fail}/{sum(r['result']['attempted'] for r in c_runs)}")

    p_traced, c_traced = by_workload(parent, 1), by_workload(change, 1)
    print("\nper-layer (traced runs; no bound, no verdict)")
    for workload in sorted(set(p_traced) & set(c_traced)):
        for metric in spec["per_layer"]:
            name = metric["name"]
            pv = metric_values(p_traced[workload], name)
            cv = metric_values(c_traced[workload], name)
            if not pv or not cv:
                continue
            pm, cm = median(pv), median(cv)
            ratio = f"{cm / pm:.3f}" if pm else "-"
            print(f"{workload:<11} {name:<38} {fmt(pm):>12} {fmt(cm):>12}  x{ratio} "
                  f"({metric['better']} is better)")

    print("\ntracing overhead (traced loop vs untraced runs, same side)")
    for label, plain, traced in (("parent", p_plain, p_traced), ("change", c_plain, c_traced)):
        for workload in sorted(set(plain) & set(traced)):
            for name in ("ops_per_s", "latency_p50_ms"):
                base = median(metric_values(plain[workload], name))
                seen = median(r["info"]["end_to_end"][name] for r in traced[workload])
                print(f"{label:<7} {workload:<11} {name:<16} untraced {fmt(base):>10} "
                      f"traced {fmt(seen):>10}  {seen / base - 1.0:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
