"""The four workloads: set-up, timed closed loop and correctness gate.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned. Op latency is the wall time of the library
call(s) alone; input generation and the correctness checks run between
ops, outside the timed region, but inside the run's time budget. An op
whose output fails a check keeps no latency sample and counts as failed,
under the check's name.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from array import array
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

from fxx import (BarrierSide, FdBumps, KnockType, McConfig, PivotQuotes,
                 SeriesConfig, SingleBarrierSpec, TruncationWarning, fd_greeks,
                 greeks_contract, mc_price_batch, price_contract,
                 price_single_barrier, vv_price)
from fxx.vanilla import d1_d2

import book
import calibrate

NPROC = len(os.sched_getaffinity(0))
FD_SAMPLE_EVERY = 8         # book_risk: one op in eight gets the FD / flat-smile / series checks
SERIES_SAMPLE_EVERY = 4     # book_price: one op in four gets the series checks
CONVERGED = SeriesConfig(n_max=20)   # acceptance criterion 3's reference series
RISK_BLOCK = 16             # book_risk: ops per calibration block
MC_INVARIANCE_EVERY = 16    # mc_check: one op in sixteen is re-run with threads=1
MC_Z_LIMIT = 3.0            # acceptance criterion 4: |z| < 3, one retry on a second seed
CLI_TIMEOUT_S = 60.0
CLI_BLOCK = 2               # cli_cold: ops per (process) calibration block
CAL_WINDOW = 6              # calibration samples per block's scale: 3 before, 3 after


class Loop:
    """Latency samples and failures of one workload run.

    Ops are timed in blocks; ``calibrate()`` closes a block with a sample
    of ``clock``. Each block's ops are scaled by the median of the
    CAL_WINDOW samples centred on the block, so that one disturbed
    calibration sample does not move a block. Only ops that passed their
    checks count in the latency statistics.
    """

    def __init__(self, trace: bool, clock: calibrate.Clock):
        self.lat_ns = array("q")
        self.ok = array("b")
        self.names = {}             # op name -> code
        self.name_code = array("h")
        self.failures = Counter()
        # spans kept in memory when tracing: (name, calls, start_ns, end_ns)
        self.spans = [] if trace else None
        self.clock = clock
        self.calibration_ns = array("q", [clock.sample()])
        self.block_ops = array("q")
        self._open = 0

    def record(self, name: str, t0: int, t1: int, ok: bool, check: str = "") -> int:
        """Record one op; returns its index for a later ``fail()``."""
        self.lat_ns.append(t1 - t0)
        self.ok.append(ok)
        self.name_code.append(self.names.setdefault(name, len(self.names)))
        self._open += 1
        if not ok:
            self.failures[check] += 1
        if self.spans is not None:
            self.spans.append((name, 1, t0, t1))
        return len(self.lat_ns) - 1

    def fail(self, ops, check: str) -> None:
        """Fail ops already recorded, for a check made after them."""
        for i in ops:
            if self.ok[i]:
                self.ok[i] = False
                self.failures[check] += 1

    def calibrate(self) -> None:
        self.calibration_ns.append(self.clock.sample())
        self.block_ops.append(self._open)
        self._open = 0

    def _passing(self, scaled: bool):
        """(op index, latency) of the ops that passed, at the clock's
        reference speed unless ``scaled`` is false."""
        half = CAL_WINDOW // 2
        i = 0
        for block, count in enumerate(self.block_ops):
            window = self.calibration_ns[max(0, block + 1 - half):block + 1 + half]
            scale = self.clock.scale(median(window)) if scaled else 1.0
            for j in range(i, i + count):
                if self.ok[j]:
                    yield j, scale * self.lat_ns[j]
            i += count

    def passing_ns(self, scaled: bool = True) -> list:
        """Latencies of the ops that passed (call after the last ``calibrate()``)."""
        return [ns for _j, ns in self._passing(scaled)]

    def by_name(self) -> dict:
        """Passing ops and their scaled median latency, per op name."""
        groups = {}
        for j, ns in self._passing(True):
            groups.setdefault(self.name_code[j], []).append(ns)
        return {name: {"ops": len(groups.get(code, ())),
                       "p50_ms": median(groups[code]) / 1e6 if code in groups else None}
                for name, code in sorted(self.names.items())}

    @property
    def attempted(self) -> int:
        return len(self.lat_ns)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def span_summary(rows) -> dict:
    """Calls, busy time and mean µs per call for each span name."""
    out = {}
    for name, calls, t0, t1 in rows:
        entry = out.setdefault(name, {"calls": 0, "busy_ms": 0.0})
        entry["calls"] += calls
        entry["busy_ms"] += (t1 - t0) / 1e6
    for entry in out.values():
        entry["mean_us"] = 1e3 * entry["busy_ms"] / entry["calls"]
    return out


def _within(value: float, lo: float, hi: float, tol: float) -> bool:
    return lo - tol <= value <= hi + tol


def _parity_tol(vanilla: float) -> float:
    return 1e-10 * max(1.0, vanilla)   # acceptance criterion 1


def series_warns(env, spec) -> bool:
    """Whether pricing ``spec`` at the default n_max raises TruncationWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        price_contract(env, spec)
    return any(issubclass(w.category, TruncationWarning) for w in caught)


def _single_ko(env, spec, barrier, side) -> float:
    return price_single_barrier(env, SingleBarrierSpec(spec.direction, spec.strike, barrier,
                                                       side, KnockType.OUT))


def series_fault(item, price: float) -> str:
    """Checks of a corridor or KIKO price from the default five-term series.

    It must not warn, and must equal the twenty-term series to
    1e-10·max(1, price), as in acceptance criterion 3. The knock-out leg of
    a corridor pair must also lie under both single-barrier knock-outs: a
    path that leaves the corridor has touched one of them. Parity and the
    [0, vanilla] bounds alone cannot catch a wrong series value, because
    koko_price clamps to [0, vanilla] and kiki_price is vanilla - KOKO.
    """
    if item.kind not in ("koko", "kiki", "kiko"):
        return ""
    if series_warns(item.env, item.spec):
        return "series_truncation"
    converged = price_contract(item.env, item.spec, CONVERGED)[0]
    if abs(price - converged) > 1e-10 * max(1.0, abs(converged)):
        return "series_convergence"
    if item.kind == "kiko":
        return ""
    koko = price if item.kind == "koko" else item.vanilla - price
    spec = item.spec
    bound = min(_single_ko(item.env, spec, spec.lower, BarrierSide.LOWER),
                _single_ko(item.env, spec, spec.upper, BarrierSide.UPPER))
    if koko > bound + _parity_tol(item.vanilla):
        return "koko_under_single_ko"
    return ""


# ------------------------------------------------------------------ book_price
def book_price_setup(seed: int) -> dict:
    first = book.make_book(seed, 0)
    for item in first:
        price_contract(item.env, item.spec)
    return {"first": first}


def _vanilla_bounds(item) -> tuple:
    env, spec = item.env, item.spec
    fwd_s = env.spot * math.exp(-env.r_f * env.T)
    fwd_k = spec.strike * math.exp(-env.r_d * env.T)
    if int(spec.direction) > 0:
        return max(fwd_s - fwd_k, 0.0), fwd_s
    return max(fwd_k - fwd_s, 0.0), fwd_k


def check_prices(items, prices) -> list:
    """Name of the failed check per item ('' when it passed).

    0 <= price <= vanilla for every barrier contract; no-arbitrage bounds
    for vanillas; in + out = vanilla for each single pair and KOKO + KIKI
    = vanilla for each corridor pair; the series checks on one corridor or
    KIKO op in SERIES_SAMPLE_EVERY.
    """
    verdict = [""] * len(items)
    partners = {}
    for i, (item, price) in enumerate(zip(items, prices)):
        if price is None:
            continue
        tol = _parity_tol(item.vanilla)
        if item.kind == "vanilla":
            lo, hi = _vanilla_bounds(item)
            if not _within(price, lo, hi, tol):
                verdict[i] = "vanilla_bounds"
        elif not _within(price, 0.0, item.vanilla, tol):
            verdict[i] = f"{item.kind}_bounds"
        if not verdict[i] and i % SERIES_SAMPLE_EVERY == 0:
            verdict[i] = series_fault(item, price)
        if item.kind in ("single", "koko", "kiki"):
            partners.setdefault(item.group, []).append(i)
    for members in partners.values():
        if len(members) != 2:
            continue
        a, b = members
        if abs(prices[a] + prices[b] - items[a].vanilla) > _parity_tol(items[a].vanilla):
            name = "in_out_parity" if items[a].kind == "single" else "kiki_koko_parity"
            for i in members:
                verdict[i] = verdict[i] or name
    return verdict


def book_price_run(seed: int, seconds: float, state: dict, loop: Loop) -> dict:
    deadline = perf_counter() + seconds
    index = 0
    items = state["first"]
    while perf_counter() < deadline:
        if index:
            items = book.make_book(seed, index)
        prices = [None] * len(items)
        times = [None] * len(items)
        errors = [""] * len(items)
        for i, item in enumerate(items):
            t0 = perf_counter_ns()
            try:
                prices[i] = price_contract(item.env, item.spec)[0]
            except Exception as exc:   # a raised error is a failed op, by type
                errors[i] = type(exc).__name__
            times[i] = (t0, perf_counter_ns())
        verdict = check_prices(items, prices)
        for item, (t0, t1), err, bad in zip(items, times, errors, verdict):
            fault = err or bad
            loop.record(f"price_contract[{item.kind}]", t0, t1, not fault, fault)
        loop.calibrate()
        index += 1
    return {"books": index}


# ------------------------------------------------------------------- book_risk
def book_risk_setup(seed: int) -> dict:
    first = book.make_book(seed, 0)
    for item in first:
        greeks_contract(item.env, item.spec, method="analytic")
        vv_price(item.env, item.spec, book.SMILE)
    return {"first": first}


_ANALYTIC = ("vanilla", "single")
_GREEKS = ("delta", "vega", "vanna", "volga")


def _greeks_agree(item, greeks) -> bool:
    """Analytic Greeks against Richardson-extrapolated central differences
    of the price.

    Bumps, extrapolation and noise floors follow the acceptance oracle
    (tests/support.py). Plain central differences are not enough: where a
    Greek crosses zero next to a large higher derivative (vega of a
    reverse knock-out put near its barrier), their O(bump^2) error alone
    exceeds 1e-3 of the value.
    """
    env = item.env
    bumps = FdBumps(dS_rel=2e-5, dSigma_abs=1e-4 * max(env.sigma / 0.2, 0.25))
    half = FdBumps(bumps.dS_rel / 2.0, bumps.dSigma_abs / 2.0)

    def pricer(e):
        return price_contract(e, item.spec)[0]

    coarse, fine = fd_greeks(pricer, env, bumps), fd_greeks(pricer, env, half)
    h, k = bumps.dS_rel * env.spot, bumps.dSigma_abs
    scale = abs(coarse.value) + env.spot
    eps = 2.220446049250313e-16
    floors = {"delta": 8 * eps * scale / h, "vega": 8 * eps * scale / k,
              "vanna": 32 * eps * scale / (h * k), "volga": 64 * eps * scale / (k * k)}
    for name in _GREEKS:
        f2 = getattr(fine, name)
        f = f2 + (f2 - getattr(coarse, name)) / 3.0
        a = getattr(greeks, name)
        if abs(a - f) > max(1e-3 * max(abs(a), abs(f)), 1e-7, floors[name]):
            return False
    return True


def check_risk(item, greeks, method, result, sampled: bool) -> str:
    """Name of the failed check, '' when the op's output passed."""
    expected = "analytic" if item.kind in _ANALYTIC else "fd"
    if method != expected:
        return "greeks_route"
    if not (math.isfinite(result.condition) and result.vv_price == result.bs_price
            + result.adjustment):
        return "vv_consistency"
    if not sampled:
        return ""
    if item.kind in _ANALYTIC:
        if not _greeks_agree(item, greeks):
            return "greeks_vs_fd"
    elif greeks.value != price_contract(item.env, item.spec)[0]:
        return "fd_greeks_value"
    else:
        fault = series_fault(item, greeks.value)
        if fault:
            return fault
    flat = vv_price(item.env, item.spec, PivotQuotes(sigma_atm=item.env.sigma))
    if abs(flat.adjustment) > 1e-12 * max(1.0, abs(flat.bs_price)):
        return "vv_flat_smile"
    return ""


def book_risk_run(seed: int, seconds: float, state: dict, loop: Loop) -> dict:
    deadline = perf_counter() + seconds
    index = 0
    items = state["first"]
    while perf_counter() < deadline:
        if index:
            items = book.make_book(seed, index)
        for i, item in enumerate(items):
            t0 = perf_counter_ns()
            try:
                greeks, method, _notes = greeks_contract(item.env, item.spec,
                                                         method="analytic")
                t_mid = perf_counter_ns()
                result = vv_price(item.env, item.spec, book.SMILE)
                t1 = perf_counter_ns()
            except Exception as exc:   # a raised error is a failed op, by type
                loop.record(f"risk[{item.kind}]", t0, perf_counter_ns(), False,
                            type(exc).__name__)
                continue
            fault = check_risk(item, greeks, method, result, i % FD_SAMPLE_EVERY == 0)
            loop.record(f"risk[{item.kind}]", t0, t1, not fault, fault)
            if loop.spans is not None:
                loop.spans.append((f"greeks_contract[{item.kind}]", 1, t0, t_mid))
                loop.spans.append((f"vv_price[{item.kind}]", 1, t_mid, t1))
            if i % RISK_BLOCK == RISK_BLOCK - 1:
                loop.calibrate()
                if perf_counter() >= deadline:
                    break
        index += 1
    return {"books": index}


# -------------------------------------------------------------------- mc_check
def mc_check_setup(seed: int) -> dict:
    closed = [price_contract(book.MC_ENV, spec)[0] for spec in book.MC_CONTRACTS]
    warm = McConfig(n_paths=512, n_steps=book.MC_STEPS, seed=1)
    mc_price_batch(book.MC_ENV, book.MC_CONTRACTS, warm)
    return {"closed": closed}


def mc_config(seed: int) -> McConfig:
    return McConfig(n_paths=book.MC_PATHS, n_steps=book.MC_STEPS, seed=seed,
                    bridge_correction=True)


def pooled_z_fault(closed, halves) -> str:
    """The criterion-4 rule on the run's pooled estimates.

    Each op is an independent batch, so the ops of a run pool into one
    estimate per contract and half. Ops alternate between the two halves;
    a contract at |z| >= 3 on the first half must pass on the second, as
    criterion 4 retries on a second seed. Testing every op alone instead
    would run the rule 1500-2000 times a run, and its
    false-alarm rate (0.27% per test before the retry) would fail about
    one run in a hundred on a correct engine.
    """
    for j, value in enumerate(closed):
        for half in halves:
            if not half:
                continue
            mean = sum(est[j].price for est in half) / len(half)
            se = math.sqrt(sum(est[j].std_error ** 2 for est in half)) / len(half)
            if se == 0.0 or abs(value - mean) < MC_Z_LIMIT * se:
                break
        else:
            return "mc_z_score"
    return ""


def mc_check_run(seed: int, seconds: float, state: dict, loop: Loop) -> dict:
    """One op: a batch of the ten contracts with threads=nproc.

    Every 16th op is re-run with threads=1, and its output must be
    bit-identical.
    """
    deadline = perf_counter() + seconds
    op = 0
    invariance_checked = 0
    halves = ([], [])
    recorded = []
    while perf_counter() < deadline:
        cfg = mc_config(book.mc_seed(seed, op))
        t0 = perf_counter_ns()
        try:
            estimates = mc_price_batch(book.MC_ENV, book.MC_CONTRACTS, cfg, threads=NPROC)
        except Exception as exc:   # a raised error is a failed op, by type
            loop.record("mc_price_batch", t0, perf_counter_ns(), False, type(exc).__name__)
            loop.calibrate()
            op += 1
            continue
        t1 = perf_counter_ns()
        fault = ""
        if op % MC_INVARIANCE_EVERY == 0:
            single = mc_price_batch(book.MC_ENV, book.MC_CONTRACTS, cfg, threads=1)
            invariance_checked += 1
            if single != estimates:
                fault = "mc_thread_invariance"
        recorded.append(loop.record("mc_price_batch", t0, t1, not fault, fault))
        halves[op % 2].append(estimates)
        loop.calibrate()
        op += 1
    fault = pooled_z_fault(state["closed"], halves)
    if fault:
        loop.fail(recorded, fault)
    return {"threads": NPROC, "paths": book.MC_PATHS, "steps": book.MC_STEPS,
            "invariance_checked": invariance_checked,
            "pooled_paths_per_half": [len(h) * book.MC_PATHS for h in halves]}


# --------------------------------------------------------------------- cli_cold
def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FXX_SERIES_NMAX", None)
    return env


def _expected_record(command: str, item):
    """Numeric fields the CLI must print for this request, from the library."""
    env, spec = item.env, item.spec
    if command == "price":
        price, _rule = price_contract(env, spec)
        out = {"price": price}
        if item.kind == "vanilla":
            out["d1"], out["d2"] = d1_d2(env, spec.strike)
        return out
    if command == "greeks":
        greeks, _method, _notes = greeks_contract(env, spec, method="analytic")
        return dict(zip(("value",) + _GREEKS, greeks.as_tuple()))
    if command == "vv-price":
        r = vv_price(env, spec, book.SMILE)
        return {"bs_price": r.bs_price, "x1": r.x1, "x2": r.x2, "x3": r.x3,
                "adjustment": r.adjustment, "vv_price": r.vv_price,
                "condition": r.condition}
    cfg = McConfig(n_paths=book.CLI_MC_PATHS, n_steps=book.CLI_MC_STEPS,
                   seed=book.CLI_MC_SEED, bridge_correction=True)
    closed, _rule = price_contract(env, spec)
    est = mc_price_batch(env, [spec], cfg)[0]
    z = (closed - est.price) / est.std_error if est.std_error > 0.0 else 0.0
    return {"closed_form": closed, "mc_price": est.price, "std_error": est.std_error,
            "z_score": z}


def cli_cold_setup(seed: int, root: Path) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".bench-cli-", dir=root))
    state = {"workdir": workdir, "steps": [], "env": cli_env(root)}
    try:
        quotes = workdir / "quotes.json"
        quotes.write_text(json.dumps(book.SMILE_DOC))
        for n, (command, item, tail) in enumerate(book.cli_requests(seed)):
            request = workdir / f"request{n}.json"
            request.write_text(json.dumps(book.request_doc(item)))
            argv = [sys.executable, "-m", "fxx.cli", command, str(request)]
            if command == "vv-price":
                argv.append(str(quotes))
            state["steps"].append((command, argv + list(tail),
                                   _expected_record(command, item)))
        subprocess.run(state["steps"][0][1], env=state["env"], capture_output=True,
                       timeout=CLI_TIMEOUT_S, check=True)
    except BaseException:
        cli_cold_teardown(state)
        raise
    return state


def cli_cold_teardown(state: dict) -> None:
    shutil.rmtree(state["workdir"], ignore_errors=True)


def check_cli(proc, expected: dict) -> str:
    if proc.returncode != 0:
        return f"cli_exit_{proc.returncode}"
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return "cli_json"
    for name, value in expected.items():
        # printed at 17 significant digits, a double parses back exactly
        if record.get(name) != value:
            return "cli_value"
    return ""


def cli_cold_run(seed: int, seconds: float, state: dict, loop: Loop) -> dict:
    deadline = perf_counter() + seconds
    op = 0
    steps = state["steps"]
    while perf_counter() < deadline:
        command, argv, expected = steps[op % len(steps)]
        t0 = perf_counter_ns()
        try:
            proc = subprocess.run(argv, env=state["env"], capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            loop.record(f"cli[{command}]", t0, perf_counter_ns(), False, "cli_timeout")
            op += 1
            continue
        t1 = perf_counter_ns()
        fault = check_cli(proc, expected)
        loop.record(f"cli[{command}]", t0, t1, not fault, fault)
        if op % CLI_BLOCK == CLI_BLOCK - 1:
            loop.calibrate()
        op += 1
    return {"sequence": [s[0] for s in steps]}
