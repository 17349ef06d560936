"""Closed-loop runner: one caller, each op starts when the previous one returns.

``timed_run`` measures the end-to-end metrics with tracing off.  ``traced_run``
alternates untraced and traced passes over one fixed list of ops, so the
per-layer counts repeat exactly, the tracing overhead is measured on identical
work, and the outputs of the two kinds of pass can be compared.

Times are reported on a reference time scale.  The benchmark runs on shared
hosts whose speed drifts by tens of percent within minutes, so a fixed
reference kernel, which does not use cpskit, is timed between ops, and every
duration is multiplied by REFERENCE_S over the kernel's mean duration just
before and just after it.  A time therefore reads as it would on a
machine where the kernel takes REFERENCE_S; a change to cpskit moves it, the
host's load does not.  The report lines also give the raw wall-clock figures.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import subprocess
import sys
from array import array
from dataclasses import dataclass
from statistics import mean, median
from time import perf_counter

import numpy as np

import tracing
from cpskit.partition import h_schedule
from workloads import Op, Workload

SETUP_REPEATS = 11
REFERENCE_S = 0.003  # the reference kernel's duration that defines the time scale
NUMPY_IMPORT_S = 0.08  # a fresh `import numpy` on that scale, which scales imports
KERNEL_EVERY_S = 0.1  # op time between two reference-kernel samples


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")
        object.__setattr__(self, "x", float(self.x))


def reference_kernel() -> float:
    """Fixed interpreter and numpy work of the kind cpskit does, about 3 ms."""
    u = np.random.default_rng(12345).random(1500)
    ys = sorted(p.y for p in [_Point(a, 2.0 * a) for a in u.tolist()])
    acc = 0.0
    for i, y in enumerate(ys):
        acc += y * (i + 1)
    return acc + len(json.dumps(ys[:300])) + float(np.sort(u).sum())


class Speed:
    """Timed reference-kernel samples and the time-scale factor they imply."""

    def __init__(self):
        self.at: list[float] = []  # wall-clock midpoint of each sample
        self.samples: list[float] = []  # its duration
        for _ in range(3):  # warm the kernel's own code paths
            reference_kernel()

    def sample(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """Factor from wall-clock to reference time for work done between
        ``start`` and ``end``: REFERENCE_S over the mean of the last kernel
        sample before and the first after (the host's speed changes within a
        second, so only the adjacent samples describe it)."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        return REFERENCE_S / mean(self.samples[lo:hi])


def execute(op: Op) -> tuple[object, str | None, float, float]:
    """Run one op; returns its output, its error (None if it returned), its
    start (perf_counter) and its wall-clock latency in seconds."""
    t0 = perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # a failing op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, t0, perf_counter() - t0


def check(w: Workload, op: Op, out, error: str | None) -> str | None:
    """The op's own check; a check that raises on the output fails the op."""
    if error is not None:
        return error
    try:
        return w.check_op(op, out)
    except Exception as exc:
        return f"output failed its check with {type(exc).__name__}: {exc}"


class Tally:
    """What a run keeps of its ops: start and latency in flat arrays, the
    failures, and for ops of the check sample only the small row their
    statistical check needs.  Outputs are dropped once checked, so the run's
    own memory grows by 16 bytes per op, not by what cpskit returns."""

    def __init__(self, w: Workload):
        self.w = w
        self.n_sample = w.check_cycles * w.cycle_len
        self.starts, self.latencies = array("d"), array("d")
        self.errors: dict[int, str] = {}  # op index -> "kind: reason"
        self.rows: list[tuple] = []  # (op index, group key, value)

    def __len__(self) -> int:
        return len(self.latencies)

    def add(self, op: Op, out, error: str | None, start: float, latency: float) -> None:
        self.starts.append(start)
        self.latencies.append(latency)
        error = check(self.w, op, out, error)
        if error is not None:
            self.errors[op.index] = f"{op.kind}: {error}"
        elif op.index < self.n_sample:
            self.rows.append((op.index, *self.w.sample_row(op, out)))

    def apply_run_checks(self, statistical: bool = True) -> None:
        """Fail the ops that the statistical and once-per-run checks reject."""
        if statistical:
            for idx, reason in self.w.check_sample(self.rows).items():
                self.errors[idx] = reason
        failed = self.w.check_run()
        if failed:
            systems = [self.w.op(k).info["system"] for k in range(self.w.cycle_len)]
            for i in range(len(self)):
                reason = failed.get(systems[i % self.w.cycle_len])
                if reason is not None:
                    self.errors[i] = reason


_FRESH_IMPORT = """
import time
t0 = time.perf_counter()
import {}
print(time.perf_counter() - t0)
"""


def fresh_import(modules: str, env: dict) -> float:
    """Seconds that a fresh interpreter takes to import ``modules``."""
    child = subprocess.run([sys.executable, "-c", _FRESH_IMPORT.format(modules)], env=env,
                           check=True, capture_output=True, text=True)
    return float(child.stdout)


def measure_setup(w: Workload, src: str, speed: Speed) -> tuple[float, float]:
    """Median import of numpy and cpskit in a fresh interpreter plus median
    input generation and warm-up, over SETUP_REPEATS repeats each; returns the
    reference-scale and the wall-clock figure.

    Each import is timed against a fresh interpreter's ``import numpy`` run
    right after it, which is taken to last NUMPY_IMPORT_S, rather than against
    the reference kernel: loading modules is slowed by the host's load
    differently from the kernel's work, and the kernel-scaled import spread
    by about 10% over runs where this ratio spread by 2-3%.  The process is
    pinned to one CPU meanwhile, and its children with it, so that both
    imports of a pair run on the same CPU: the two vCPUs of a shared host
    can differ in speed by almost a factor of two."""
    env = dict(os.environ, PYTHONPATH=src)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        imports, ratios = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(fresh_import("numpy, cpskit", env))
            ratios.append(imports[-1] / fresh_import("numpy", env))
    finally:
        os.sched_setaffinity(0, cpus)
    preps = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        w.prepare()
        w.warm_up()
        preps.append((t0, perf_counter() - t0))
    speed.sample()
    scaled_prep = median(dt * speed.scale(t0, t0 + dt) for t0, dt in preps)
    wall = median(imports) + median(dt for _, dt in preps)
    return NUMPY_IMPORT_S * median(ratios) + scaled_prep, wall


def run_cycles(w: Workload, seconds: float, speed: Speed) -> Tally:
    """Whole cycles of ops until ``seconds`` have passed, with the reference
    kernel timed between ops every KERNEL_EVERY_S of op time.  Each op is
    checked as it finishes, outside its latency."""
    tally = Tally(w)
    speed.sample()
    since = 0.0
    t_end = perf_counter() + seconds
    i = 0
    while True:
        for op in [w.op(i + k) for k in range(w.cycle_len)]:
            if since >= KERNEL_EVERY_S:
                speed.sample()
                since = 0.0
            out, error, start, latency = execute(op)
            since += latency
            tally.add(op, out, error, start, latency)
        i += w.cycle_len
        if perf_counter() >= t_end:
            speed.sample()
            return tally


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_failures(errors: list[str]) -> None:
    for e in errors[:10]:
        print(f"perfbench: failed: {e}", file=sys.stderr)
    if len(errors) > 10:
        print(f"perfbench: ... {len(errors) - 10} more failures", file=sys.stderr)


def per_cycle(times: list[float], cycle_predictions: int, cycle_len: int):
    """Predictions per second of op time, and the median op latency in ms, of
    each whole cycle.  A cycle holds one op of every kind, so its median is the
    mix's median op; taken per cycle it does not hinge on the two slowest and
    fastest samples around a gap between kinds, as a pooled median would."""
    rates, medians = [], []
    for c in range(0, len(times) - cycle_len + 1, cycle_len):
        cycle = times[c : c + cycle_len]
        rates.append(cycle_predictions / sum(cycle))
        medians.append(median(cycle) * 1e3)
    return rates, medians


def timed_run(w: Workload, seconds: float, src: str) -> dict:
    speed = Speed()
    setup_s, setup_wall = measure_setup(w, src, speed)
    tally = run_cycles(w, seconds, speed)
    timed = len(tally)
    # Ops of the check sample that the timed region did not reach run untimed.
    for op in map(w.op, range(timed, tally.n_sample)):
        tally.add(op, *execute(op))
    tally.apply_run_checks()
    # Read before the statistics below, whose arrays grow with the op count.
    rss = peak_rss_mb()
    errors = [tally.errors[i] for i in sorted(tally.errors)]
    report_failures(errors)

    raw = tally.latencies[:timed]
    scaled = [dt * speed.scale(t0, t0 + dt) for t0, dt in zip(tally.starts, raw)]
    cycle_predictions = sum(w.op(k).predictions for k in range(w.cycle_len))
    rates, medians = per_cycle(scaled, cycle_predictions, w.cycle_len)
    metrics = {
        "setup_s": (setup_s, "s"),
        "predictions_per_s": (median(rates), "1/s"),
        "op_ms_p50": (median(medians), "ms"),
        "op_ms_p95": (float(np.percentile(scaled, 95)) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} {value:.6g} {unit}")
    print(f"{w.name} failed_frac {len(errors) / len(tally):.6g} "
          f"({len(errors)} of {len(tally)} ops)")
    raw_rates, raw_medians = per_cycle(raw, cycle_predictions, w.cycle_len)
    print(f"{w.name} wall clock: setup_s {setup_wall:.6g} s, predictions_per_s "
          f"{median(raw_rates):.6g} 1/s, op_ms_p50 {median(raw_medians):.6g} ms, op_ms_p95 "
          f"{np.percentile(raw, 95) * 1e3:.6g} ms; reference kernel "
          f"median {median(speed.samples) * 1e3:.4g} ms over {len(speed.samples)} samples")
    print(f"{w.name} {timed} timed ops in {timed // w.cycle_len} cycles of "
          f"{w.cycle_len}; {len(tally) - timed} untimed check ops")
    return {
        "correct": not errors,
        "attempted": len(tally),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_pass(ops: list[Op], rec: tracing.Recorder | None = None, diags: list | None = None):
    """One pass over ``ops``; returns each op's (output, error) and the pass's wall time."""
    results = []
    t0 = perf_counter()
    for op in ops:
        if rec is None:
            results.append(execute(op)[:2])
            continue
        with rec.op_span(op.index):
            results.append(execute(op)[:2])
        if diags is not None:
            diags.append(diagnostics(op, rec))
    return results, perf_counter() - t0


def diagnostics(op: Op, rec: tracing.Recorder) -> dict:
    """Quantities that drive consistency in the paper, read from one op's results."""
    d = {"op": op.index, "kind": op.kind, "n": op.n, "h": h_schedule(op.n),
         "draws": sum(s.draws for s in rec.op_streams), "jumps": None, "max_slack": None}
    if rec.op_bands:
        band = rec.op_bands[-1]
        d["jumps"] = len(band.jumps)
        if band.jumps:
            d["max_slack"] = max(u - lo for lo, u in zip(band.at_jump_lower, band.at_jump_upper))
    return d


def traced_run(w: Workload, seconds: float) -> dict:
    speed = Speed()
    w.prepare()
    w.warm_up()
    ops = [w.op(i) for i in range(w.pass_cycles * w.cycle_len)]
    predictions = sum(op.predictions for op in ops)
    outputs, _ = run_pass(ops)
    tally = Tally(w)
    for op, (out, error) in zip(ops, outputs):
        tally.add(op, out, error, 0.0, 0.0)
    tally.apply_run_checks(statistical=False)
    bad = set(tally.errors)
    errors = list(tally.errors.values())

    untraced, traced, self_ms, op_ms, self_sum, diags = [], [], [], [], [], []
    counts = None
    t_end = perf_counter() + seconds
    while True:
        # Alternate which kind of pass goes first, so neither gains from order.
        for traced_pass in (False, True) if len(traced) % 2 == 0 else (True, False):
            speed.sample()
            t0 = perf_counter()
            if traced_pass:
                rec = tracing.Recorder()
                with rec.installed():
                    spanned, dt = run_pass(ops, rec, None if traced else diags)
            else:
                plain, dt = run_pass(ops)
            speed.sample()
            if traced_pass:
                scale = speed.scale(t0, t0 + dt)
                traced.append(predictions / (dt * scale))
            else:
                untraced.append(predictions / (dt * speed.scale(t0, t0 + dt)))
        for kind, results in (("untraced", plain), ("traced", spanned)):
            for op, result, expected in zip(ops, results, outputs):
                if result != expected and op.index not in bad:
                    errors.append(f"{op.kind}: {kind} pass output differs")
                    bad.add(op.index)
        selfs = tracing.self_times(rec.spans)
        errors += tracing.nesting_errors(rec.spans, selfs)
        if counts is None:
            counts = dict(rec.counts)
        elif dict(rec.counts) != counts:
            errors.append("per-layer counts differ between traced passes")
        self_ms.append({k: v * scale for k, v in tracing.self_ms_by_name(rec.spans, selfs).items()})
        roots = sum(s[2] - s[1] for s in rec.spans if s[0] == tracing.ROOT_SPAN)
        op_ms.append(roots * 1e3 * scale)
        self_sum.append(sum(selfs) * 1e3 * scale)
        if abs(self_sum[-1] - op_ms[-1]) > 1e-9 * op_ms[-1]:
            errors.append(f"self times sum to {self_sum[-1]} ms, ops took {op_ms[-1]} ms")
        if perf_counter() >= t_end:
            break
    report_failures(errors)

    for d in diags:
        print(json.dumps({"diag": d}, sort_keys=True))
    units = {name: unit for name, unit, _ in tracing.layer_metrics()}
    values = {
        name: median(m.get(name, 0.0) for m in self_ms) if unit == "ms" else counts.get(name, 0)
        for name, unit in units.items()
    }
    values.update({
        "trace.ops": len(ops),
        "trace.op_ms": median(op_ms),
        "trace.self_ms_sum": median(self_sum),
        "trace.untraced_predictions_per_s": median(untraced),
        "trace.traced_predictions_per_s": median(traced),
        "trace.overhead_ratio": median(untraced) / median(traced),
    })
    for name, value in values.items():
        if value:
            print(f"{w.name} {name} {value:.6g} {units[name]}")
    print(f"{w.name} trace.overhead traced minus untraced predictions_per_s "
          f"{median(traced) - median(untraced):.6g} 1/s")
    for name in tracing.failure_counters():
        print(f"{w.name} {name} {counts.get(name, 0)} count")
    passes = len(traced)
    print(f"{w.name}: {passes} traced and {passes} untraced passes over {len(ops)} ops; "
          "values are per pass, times on the reference scale, self times the median over "
          "passes; a layer the workload does not reach reads 0")
    runs = 2 * passes + 1
    return {
        "correct": not errors,
        "attempted": len(ops) * runs,
        "failed": len(bad) * runs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
