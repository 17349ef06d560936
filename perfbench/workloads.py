"""The benchmark's workloads: op schedules, generated inputs and correctness checks.

An op is one call into cpskit with inputs generated from the workload seed.
Ops run in a fixed cycle of kinds, so every run has equal counts per kind up
to the last, whole, cycle.  Checks recompute results by paths other than the
one being timed and run after the timed region.

Statistical checks run on the ops of the first ``check_cycles`` cycles, so
their verdict depends only on the seed, not on how fast the run was.  Each
uses a two-sided level of 0.1% split evenly (Bonferroni) over the statistical
tests the workload makes in one run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist, median
from typing import Callable

import numpy as np

import cpskit.cli as cli
import cpskit.harness as harness
import cpskit.partition as partition
from cpskit.core import Observation, PredictiveBand, derive_stream
from cpskit.conformity import histogram_score, nn_score, trivial_score
from cpskit.transducers import (
    conformal_pvalue,
    dh_band,
    hcps_band,
    hmps_band,
    mondrian_pvalue,
    nn_band,
)

FAMILY_LEVEL = 0.001
EXACT = 1e-12
EPSILON = 0.1  # online miscoverage level


@dataclass
class Op:
    index: int
    kind: str
    call: Callable[[], object]
    predictions: int  # Monte-Carlo trials, online steps or CLI calls
    n: int  # training size, for the traced run's diagnostics
    info: dict


def uniforms(seed: int, path: tuple, k: int) -> np.ndarray:
    """The first ``k`` draws of cpskit's stream at ``(seed, path)``, rebuilt from
    its documented construction rather than through ``derive_stream``."""
    ss = np.random.SeedSequence(int(seed) % (1 << 64), spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss)).random(k)


def p1_obs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampler p1 from consecutive uniform pairs: y = 2x + nu, nu = -1 or +1."""
    x = u[0::2]
    return x, 2.0 * x + np.where(u[1::2] < 0.5, -1.0, 1.0)


def cell_width(n: int) -> float:
    """Dyadic cell width for ``n`` training points: 2 ** -floor(log2(n) / 3)."""
    return 2.0 ** -((int(n).bit_length() - 1) // 3)


def z_limit(tests: int) -> float:
    return NormalDist().inv_cdf(1.0 - FAMILY_LEVEL / tests / 2.0)


def ks_limit(tests: int, m: int) -> float:
    """Asymptotic Kolmogorov-Smirnov critical distance at the split level."""
    return math.sqrt(-math.log(FAMILY_LEVEL / tests / 2.0) / 2.0) / math.sqrt(m)


def ks_distance(values) -> float:
    v = np.sort(np.asarray(values, dtype=np.float64))
    m = len(v)
    i = np.arange(m)
    return float(max(np.max(v - i / m), np.max((i + 1) / m - v)))


def band_gap(band: PredictiveBand, points, expected) -> float:
    """Largest |band.evaluate(y, tau) - expected(y, tau)| over ``points``."""
    worst = 0.0
    for y, tau in points:
        worst = max(worst, abs(band.evaluate(y, tau) - expected(y, tau)))
    return worst


class Workload:
    name = ""
    kinds: list = []
    check_cycles = 0  # cycles whose ops form the statistical check sample
    pass_cycles = 1  # cycles per pass of the traced run

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        ss = np.random.SeedSequence(self.seed)
        self._base = int(ss.generate_state(1, np.uint64)[0]) >> 1

    @property
    def cycle_len(self) -> int:
        return len(self.kinds)

    def op_seed(self, i: int) -> int:
        """Distinct master seed of op ``i``; cpskit hashes it into its streams."""
        return (self._base + i) % (1 << 63)

    def prepare(self) -> None:
        """Generate the inputs cpskit will read (files, for the CLI)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check_op(self, op: Op, out) -> str | None:
        """Cheap per-op check; returns a failure reason or None."""
        return None

    def sample_row(self, op: Op, out) -> tuple:
        """(group key, value): what the statistical checks need of an op of
        the check sample, so that its output need not be kept."""
        return op.kind, None

    def check_sample(self, rows: list[tuple]) -> dict[int, str]:
        """Statistical checks on the (op index, key, value) rows of the check
        sample; failed op index -> reason."""
        return {}

    def check_run(self) -> dict[str, str]:
        """Once-per-run checks outside the schedule; failed system -> reason."""
        return {}


# ---------------------------------------------------------------------------


class Consistency(Workload):
    """Single-trial consistency_curve calls: the paper's consistency experiment."""

    name = "consistency"
    SYSTEMS = ("hist-mondrian", "hist-conformal", "dh", "pfs")
    NS = (100, 1000, 10_000)
    kinds = [(s, n) for n in NS for s in ("hist-mondrian", "hist-conformal", "dh", "pfs")]
    check_cycles = 60
    pass_cycles = 1

    def warm_up(self):
        p1, clamp = harness.SAMPLERS["p1"], harness.TEST_FUNCTIONS["clamp"]
        for s in self.SYSTEMS:
            harness.consistency_curve(s, p1, clamp, [10], 1, self.op_seed(0))

    def op(self, i):
        system, n = self.kinds[i % self.cycle_len]
        seed = self.op_seed(i)
        p1, clamp = harness.SAMPLERS["p1"], harness.TEST_FUNCTIONS["clamp"]

        def call():
            return harness.consistency_curve(system, p1, clamp, [n], 1, seed)

        return Op(i, f"{system}/n={n}", call, 1, n, {"system": system, "seed": seed})

    def check_op(self, op, out):
        n = op.n
        if len(out) != 1 or out[0][0] != n or not 0.0 <= out[0][1] < math.inf:
            return f"malformed curve {out!r}"
        if op.info["system"] != "hist-mondrian":
            return None
        # Criterion 5's in-cell integral identity: the band integral of clamp is
        # the in-cell sum over N + 1 for every tau.
        x, y = p1_obs(uniforms(op.info["seed"], (2, 0, 0), 2 * (n + 1)))
        h = cell_width(n)
        mates = np.floor(x[:n] / h) == np.floor(x[n] / h)
        integral = np.clip(y[:n][mates], -1.0, 1.0).sum() / (mates.sum() + 1)
        xt = float(x[n])
        target = (max(-1.0, min(1.0, 2 * xt - 1)) + max(-1.0, min(1.0, 2 * xt + 1))) / 2
        if abs(abs(integral - target) - out[0][1]) > EXACT:
            return f"in-cell integral identity: gap {out[0][1]!r} vs {abs(integral - target)!r}"
        return None

    def sample_row(self, op, out):
        return (op.info["system"], op.n), out[0][1]

    def check_sample(self, rows):
        gaps: dict[tuple, list[tuple[int, float]]] = {}
        for idx, key, gap in rows:
            gaps.setdefault(key, []).append((idx, gap))
        med = {k: median(g for _, g in v) for k, v in gaps.items()}
        med = {k: med.get(k, math.nan) for k in self.kinds}  # nan fails every test
        failed: dict[int, str] = {}

        def fail(keys, reason):
            for k in keys:
                for idx, _ in gaps.get(k, []):
                    failed[idx] = reason

        small, large = self.NS[0], self.NS[-1]
        for s in ("hist-mondrian", "hist-conformal"):
            if not med[(s, large)] <= 0.5 * med[(s, small)]:
                fail([(s, small), (s, large)], f"{s}: median gap did not halve")
        if not med[("dh", large)] > med[("hist-mondrian", large)]:
            fail([("dh", large), ("hist-mondrian", large)], "dh control beat hist-mondrian")
        return failed


# ---------------------------------------------------------------------------


class Validity(Workload):
    """Single-trial pit_sample and venn_calibration calls: criteria 2 and 8."""

    name = "validity"
    N_PIT = 20
    N_VENN = 50
    kinds = [("pit", s, sp) for s in ("dh", "nn", "hist-mondrian", "hist-conformal")
             for sp in ("p1", "p2")] + [("venn", "venn", "p3")]
    check_cycles = 4000
    pass_cycles = 50
    CLOSED_FORM_EVERY = 40  # cycles between closed-form band cross-checks

    def warm_up(self):
        for i in range(self.cycle_len):
            self.op(i).call()

    def op(self, i):
        what, system, sampler_id = self.kinds[i % self.cycle_len]
        seed = self.op_seed(i)
        sampler = harness.SAMPLERS[sampler_id]
        if what == "pit":
            n = self.N_PIT

            def call():
                return harness.pit_sample(system, sampler, n, 1, seed)
        else:
            n = self.N_VENN

            def call():
                return harness.venn_calibration(
                    partition.histogram_taxonomy, sampler, n, 1, [0.0, 1.0], seed
                )

        info = {"system": system, "sampler": sampler_id, "seed": seed,
                "cross_check": (i // self.cycle_len) % self.CLOSED_FORM_EVERY == 0}
        return Op(i, f"{system}/{sampler_id}", call, 1, n, info)

    def check_op(self, op, out):
        if op.info["system"] == "venn":
            return self._check_venn(op, out)
        if len(out) != 1 or not 0.0 <= out[0] <= 1.0:
            return f"malformed transform {out!r}"
        if not op.info["cross_check"]:
            return None
        # The closed-form band at the realized response must give the same
        # value as the generic transducer the op ran.
        n, seed = op.n, op.info["seed"]
        u = uniforms(seed, (0, 0), 3 * (n + 1) + 1)
        pairs = u[: 2 * (n + 1)]
        if op.info["sampler"] == "p1":
            x, y = p1_obs(pairs)
        else:
            x, y = pairs[0::2], pairs[1::2]
        obs = [Observation(float(a), float(b)) for a, b in zip(x, y)]
        training, test = obs[:n], obs[n]
        thetas = u[2 * (n + 1) : 3 * (n + 1)].tolist()
        tau = float(u[3 * (n + 1)])
        system = op.info["system"]
        if system == "dh":
            band = dh_band([o.y for o in training])
        elif system == "nn":
            band = nn_band(training, test.x, derive_stream(seed, [9]))
        elif system == "hist-mondrian":
            band = hmps_band(training, test.x)
        else:
            band = hcps_band(training, test.x, thetas=thetas)
        value = band.evaluate(test.y, tau)
        if abs(value - out[0]) > EXACT:
            return f"closed-form band gives {value!r}, transducer {out[0]!r}"
        return None

    def _check_venn(self, op, out):
        (y0, q0, e0), (y1, q1, e1) = out.marginal
        ((p, count, freq),) = out.conditional
        if (y0, y1, count) != (0.0, 1.0, 1) or q1 != 1.0 or e1 != 1.0:
            return f"malformed calibration result {out!r}"
        if freq not in (0.0, 1.0) or e0 != 1.0 - freq or abs(q0 - (1.0 - p)) > EXACT:
            return f"inconsistent calibration rows {out!r}"
        if not op.info["cross_check"]:
            return None
        n = op.n
        u = uniforms(op.info["seed"], (3, 0), 2 * (n + 1))
        x, ys = u[0::2], np.where(u[1::2] < u[0::2], 1.0, 0.0)
        h = cell_width(n)
        cls = np.floor(x / h) == np.floor(x[n] / h)  # includes the test point
        p_ind = ys[cls].sum() / cls.sum()
        if abs(p - p_ind) > EXACT or freq != ys[n]:
            return f"class frequency {p!r} vs recomputed {p_ind!r}"
        return None

    def sample_row(self, op, out):
        # A transform, or a Venn result's (probability, count, frequency) row.
        return op.kind, out.conditional[0] if op.info["system"] == "venn" else out[0]

    def check_sample(self, rows):
        groups: dict[str, list[tuple[int, object]]] = {}
        for idx, kind, value in rows:
            groups.setdefault(kind, []).append((idx, value))
        tests = len(groups)
        failed = {}
        for kind, group in groups.items():
            if kind.startswith("venn"):
                # Venn predictors are calibrated conditionally on the class:
                # the positive indicator has mean p and variance p(1 - p).
                d = sum(freq - p for _, (p, _, freq) in group)
                var = sum(p * (1 - p) for _, (p, _, _) in group)
                z = d / math.sqrt(var) if var > 0 else math.inf
                bad = abs(z) > z_limit(tests)
                reason = f"{kind}: calibration z = {z:.3f}"
            else:
                ks = ks_distance([value for _, value in group])
                bad = ks > ks_limit(tests, len(group))
                reason = f"{kind}: KS distance {ks:.5f} over {len(group)} transforms"
            if bad:
                failed.update({idx: reason for idx, _ in group})
        return failed


# ---------------------------------------------------------------------------


class Online(Workload):
    """online_coverage on p1: the transducer at growing n in one protocol."""

    name = "online"
    kinds = [("dh", 10_000), ("hist-conformal", 100), ("nn", 100)]
    check_cycles = 12
    pass_cycles = 1

    def warm_up(self):
        for system, _ in self.kinds:
            harness.online_coverage(system, harness.SAMPLERS["p1"], 10, EPSILON, self.op_seed(0))

    def op(self, i):
        system, steps = self.kinds[i % self.cycle_len]
        seed = self.op_seed(i)
        p1 = harness.SAMPLERS["p1"]

        def call():
            return harness.online_coverage(system, p1, steps, EPSILON, seed)

        return Op(i, f"{system}/steps={steps}", call, steps, steps, {"system": system})

    def check_op(self, op, out):
        k = out * op.n
        if not 0.0 <= out <= 1.0 or abs(k - round(k)) > 1e-6:
            return f"coverage {out!r} is not a count over {op.n} steps"
        return None

    def sample_row(self, op, out):
        return op.info["system"], (round(out * op.n), op.n)

    def check_sample(self, rows):
        # Conformal transforms are independent and uniform online, so the
        # covered steps are binomial(steps, 1 - epsilon), pooled per system.
        groups: dict[str, list] = {}
        for idx, system, (covered, steps) in rows:
            groups.setdefault(system, []).append((idx, covered, steps))
        failed = {}
        for system, group in groups.items():
            k = sum(r[1] for r in group)
            m = sum(r[2] for r in group)
            z = (k - (1 - EPSILON) * m) / math.sqrt(EPSILON * (1 - EPSILON) * m)
            if abs(z) > z_limit(len(groups)):
                reason = f"{system}: coverage {k}/{m}, z = {z:.3f}"
                failed.update({r[0]: reason for r in group})
        return failed


# ---------------------------------------------------------------------------


class BandCli(Workload):
    """In-process `cpskit band` calls on generated CSV files."""

    name = "band-cli"
    # file name -> (rows, predictor dimension); the small files feed the oracles
    FILES = {"big": (10_000, 1), "nn1": (300, 1), "nn2": (300, 2),
             "small1": (100, 1), "small_nn1": (60, 1), "small_nn2": (60, 2)}
    kinds = [("dh", "big"), ("hist-mondrian", "big"), ("hist-conformal", "big"),
             ("pfs", "big"), ("venn", "big"), ("nn", "nn1"), ("nn", "nn2")]
    ORACLE = [("dh", "small1"), ("hist-mondrian", "small1"), ("hist-conformal", "small1"),
              ("nn", "small_nn1"), ("nn", "small_nn2")]
    pass_cycles = 1
    CHECK_EVERY = 4  # cycles between output cross-checks

    def prepare(self):
        rng = np.random.default_rng([self.seed, 7])
        self.data = {}
        for name, (n, d) in self.FILES.items():
            xs = rng.random((n, d))
            ys = 2.0 * xs[:, 0] + np.where(rng.random(n) < 0.5, -1.0, 1.0)
            path = os.path.join(self.workdir, f"{name}.csv")
            lines = [",".join([f"x{j + 1}" for j in range(d)] + ["y"])]
            lines += [",".join(map(repr, row)) for row in np.column_stack([xs, ys]).tolist()]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            self.data[name] = (path, xs, ys)

    def _args(self, system, fname, seed):
        rng = np.random.default_rng(seed)
        path, xs, _ = self.data[fname]
        x = rng.random(xs.shape[1])
        args = ["band", "--system", system, "--input", path,
                "--x", ",".join(map(repr, x.tolist())), "--seed", str(seed)]
        u = None
        if system == "venn":
            u = float(2.0 * x[0] + (1.0 if rng.random() < 0.5 else -1.0))
            args += ["--u", repr(u)]
        return args, x, u

    @staticmethod
    def _band_call(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(args)
        if rc != 0:
            raise RuntimeError(f"cpskit band exited with {rc}")
        return buf.getvalue()

    def warm_up(self):
        for system, fname in self.ORACLE + [("pfs", "small1"), ("venn", "small1")]:
            self._band_call(self._args(system, fname, self.op_seed(0))[0])

    def op(self, i):
        system, fname = self.kinds[i % self.cycle_len]
        seed = self.op_seed(i)
        args, x, u = self._args(system, fname, seed)
        n = self.FILES[fname][0]
        info = {"system": system, "file": fname, "x": x, "u": u, "seed": seed,
                "cross_check": (i // self.cycle_len) % self.CHECK_EVERY == 0}
        return Op(i, f"{system}/{fname}", partial(self._band_call, args), 1, n, info)

    def _points(self, band, seed, at_jumps=True):
        """Query (y, tau) pairs: some of the band's jumps and some random reals."""
        rng = np.random.default_rng([seed, 1])
        ys = list(band.jumps) if at_jumps else []
        picks = [ys[k] for k in rng.integers(0, len(ys), 8)] if ys else []
        picks += (rng.random(8) * 6.0 - 2.0).tolist()
        return [(float(y), float(t)) for y, t in zip(picks, rng.random(len(picks)))]

    def check_op(self, op, out):
        if not out.endswith("\n"):
            return "output is not one JSON line"
        if not op.info["cross_check"]:
            return None
        band = PredictiveBand.from_json(out)
        if band.to_json() + "\n" != out:
            return "JSON does not round-trip"
        system = op.info["system"]
        if system in ("hist-conformal", "nn"):
            return None  # checked against the transducer on a small input
        _, xs, ys = self.data[op.info["file"]]
        n = len(ys)
        h = cell_width(n)
        mates = ys[np.floor(xs[:, 0] / h) == np.floor(op.info["x"][0] / h)]
        if system == "venn":
            mates = np.append(mates, op.info["u"])
        if system == "pfs" and len(mates) == 0:
            mates = np.array([0.0])
        pool = ys if system == "dh" else mates

        def expected(y, tau):
            below, upto = int(np.sum(pool < y)), int(np.sum(pool <= y))
            if system in ("pfs", "venn"):
                return upto / len(pool)
            den = len(pool) + 1
            return below / den + tau * ((upto + 1) / den - below / den)

        gap = band_gap(band, self._points(band, op.info["seed"]), expected)
        if gap > EXACT:
            return f"band differs from the recomputed in-cell ECDF by {gap!r}"
        return None

    def check_run(self):
        failed = {}
        for k, (system, fname) in enumerate(self.ORACLE):
            seed = self.op_seed(k)
            args, x, _ = self._args(system, fname, seed)
            band = PredictiveBand.from_json(self._band_call(args))
            _, xs, ys = self.data[fname]
            training = [Observation(tuple(a), float(b)) for a, b in zip(xs.tolist(), ys)]
            n = len(training)
            xq = tuple(x.tolist())
            if system == "dh":
                pvalue = partial(conformal_pvalue, trivial_score, training)
            elif system == "hist-mondrian":
                taxonomy = partition.histogram_taxonomy
                pvalue = partial(mondrian_pvalue, taxonomy, trivial_score, training)
            elif system == "hist-conformal":
                thetas = uniforms(seed, (0,), n + 1).tolist()
                measure = partial(histogram_score, n_for_partition=n)
                pvalue = partial(conformal_pvalue, measure, training, thetas=thetas)
            else:
                pvalue = partial(conformal_pvalue, nn_score, training)
            # An nn jump is a rounded midpoint, where the transducer's score
            # tie is not exact in floating point, so nn is probed off jumps.
            points = self._points(band, seed, at_jumps=system != "nn")
            gap = band_gap(band, points, lambda y, tau: pvalue(Observation(xq, y), tau))
            if gap > EXACT:
                failed[system] = f"{system} on {fname}: band differs from the transducer by {gap!r}"
        return failed


WORKLOADS = {w.name: w for w in (Consistency, Validity, Online, BandCli)}
