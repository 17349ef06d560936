"""In-memory span recorder that wraps cpskit's public functions at their call sites.

Wrappers are installed only for the duration of a traced pass and removed
afterwards, so untraced passes run the unmodified program.  Each wrapped
function records a span (name, start, end, parent span, op id) and a call
count; leaf conformity scores are too hot for spans and get counters only.
Everything runs in one thread, so a layer's time is its self time: the span's
duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import cpskit.cli as cli
import cpskit.core as core
import cpskit.harness as harness
import cpskit.partition as partition

ROOT_SPAN = "bench.op"

_BANDS = ("dh_band", "nn_band", "hmps_band", "hcps_band", "pfs_distribution", "venn_distribution")
_HARNESS = ("consistency_curve", "pit_sample", "online_coverage", "venn_calibration")
_SCORES = ("trivial_score", "nn_score", "histogram_score")


def _band_out(rec, name, out, args):
    rec.counts[name + ".jumps"] += len(out.jumps)
    rec.op_bands.append(out)


def _integrate_jumps(rec, name, out, args):
    rec.counts[name + ".jumps"] += len(args[0].jumps)


def _json_bytes(rec, name, out, args):
    rec.counts[name + ".bytes"] += len(out)


def _draw_obs(rec, name, out, args):
    rec.counts[name + ".obs"] += len(out)


def _keep_stream(rec, name, out, args):
    rec.op_streams.append(out)


def _cli_bytes(rec, name, out, args):
    # The benchmark captures stdout in a StringIO; its JSON output is ASCII.
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        rec.counts[name + ".bytes_out"] += len(getvalue())


# (metric prefix, extra count fields) for every function that records a span.
SPANNED: dict[str, tuple[str, ...]] = {
    "harness.Sampler.draw": ("obs",),
    **{f"transducers.{b}": ("jumps",) for b in _BANDS},
    "core.PredictiveBand.validate": (),
    "core.PredictiveBand.integrate": ("jumps",),
    "core.PredictiveBand.evaluate": (),
    "core.PredictiveBand.to_json": ("bytes",),
    "cli.main": ("bytes_out",),
    "partition.histogram_taxonomy": (),
    "transducers.conformal_pvalue": (),
    "transducers.mondrian_pvalue": (),
    "core.derive_stream": (),
    **{f"harness.{h}": () for h in _HARNESS},
}
COUNTED = tuple(f"conformity.{s}" for s in _SCORES)


def _sites():
    """(owner, attribute, metric prefix, measure) for every wrapped call site."""
    sites = [(harness.Sampler, "draw", "harness.Sampler.draw", _draw_obs)]
    for b in _BANDS:
        for mod in (harness, cli):
            sites.append((mod, b, f"transducers.{b}", _band_out))
    band = core.PredictiveBand
    sites += [
        (band, "validate", "core.PredictiveBand.validate", None),
        (band, "integrate", "core.PredictiveBand.integrate", _integrate_jumps),
        (band, "evaluate", "core.PredictiveBand.evaluate", None),
        (band, "to_json", "core.PredictiveBand.to_json", _json_bytes),
        (cli, "main", "cli.main", _cli_bytes),
        (harness, "conformal_pvalue", "transducers.conformal_pvalue", None),
        (harness, "mondrian_pvalue", "transducers.mondrian_pvalue", None),
    ]
    for mod in (harness, cli, partition):
        sites.append((mod, "histogram_taxonomy", "partition.histogram_taxonomy", None))
    for mod in (harness, cli):
        sites.append((mod, "derive_stream", "core.derive_stream", _keep_stream))
    sites += [(harness, h, f"harness.{h}", None) for h in _HARNESS]
    return sites


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints."""
    out = []
    for prefix, extra in SPANNED.items():
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.self_ms", "ms", "lower"))
        out += [(f"{prefix}.{field}", "count", "lower") for field in extra]
    out += [(f"{prefix}.calls", "count", "lower") for prefix in COUNTED]
    out += [
        ("core.stream.draws", "count", "lower"),
        (f"{ROOT_SPAN}.self_ms", "ms", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.op_ms", "ms", "lower"),
        ("trace.self_ms_sum", "ms", "lower"),
        ("trace.untraced_predictions_per_s", "1/s", "higher"),
        ("trace.traced_predictions_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def failure_counters() -> list[str]:
    """``<name>.failed`` of every wrapped function: calls that raised.  They
    are 0 on a correct program, so they go to the report lines, not the JSON."""
    return [f"{prefix}.failed" for prefix in (*SPANNED, *COUNTED)]


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = None
        self.op_bands: list = []
        self.op_streams: list = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def op_span(self, op_id):
        """Root span of one op; collects the op's bands and streams."""
        self.op = op_id
        self.op_bands, self.op_streams = [], []
        idx = self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end(idx)
            self.counts["core.stream.draws"] += sum(s.draws for s in self.op_streams)
            self.op = None

    def _spanned(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self.end(idx)
            if measure is not None:
                measure(self, name, out, args)
            return out

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, measure in _sites():
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._spanned(name, orig, measure))
            for s in _SCORES:
                orig = vars(harness)[s]
                saved.append((harness, s, orig))
                setattr(harness, s, self._counted(f"conformity.{s}", orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals (seconds)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def nesting_errors(spans, selfs) -> list[str]:
    """Children outside their parent's interval, and negative self times."""
    errors = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({name}) is not closed properly")
            continue
        if parent is not None:
            p = spans[parent]
            if start < p[1] or end > p[2] or op != p[4]:
                errors.append(f"span {i} ({name}) lies outside its parent {p[0]}")
        if selfs[i] < 0.0:
            errors.append(f"span {i} ({name}) has negative self time {selfs[i]}")
    return errors


def self_ms_by_name(spans, selfs) -> Counter:
    out = Counter()
    for span, s in zip(spans, selfs):
        out[span[0] + ".self_ms"] += s * 1e3
    return out
