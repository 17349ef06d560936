"""Command-line front end: band emission, validation, and experiments.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 statistical validation failure.  All commands are deterministic given
``--seed`` (falling back to the ``CPSKIT_SEED`` environment variable, then 0).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from .core import Columns, derive_stream
from .harness import (
    SAMPLERS,
    SYSTEMS,
    TEST_FUNCTIONS,
    consistency_curve,
    ks_uniform,
    marginal_calibration_exchangeable,
    marginal_calibration_iid,
    online_coverage,
    pit_sample,
    rows_to_csv,
)
from .partition import histogram_taxonomy
from .transducers import (
    dh_band,
    hcps_band,
    hmps_band,
    nn_band,
    pfs_distribution,
    venn_distribution,
)

USAGE_ERROR = 1
DATA_ERROR = 2
VALIDATION_FAILURE = 3

BAND_SYSTEMS = ("dh", "nn", "hist-mondrian", "hist-conformal", "pfs", "venn")
SCALAR_SYSTEMS = {"hist-mondrian", "hist-conformal", "pfs", "venn"}
ONLINE_TOLERANCE = 0.02


class DataError(Exception):
    """Malformed input data (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    band = sub.add_parser("band", parents=[], help="emit a predictive band")
    band.add_argument("--system", required=True, choices=BAND_SYSTEMS)
    band.add_argument("--input", required=True, help="training CSV with header x1,...,xd,y")
    band.add_argument("--x", required=True, help="test predictor, comma-separated reals")
    band.add_argument("--u", type=float, default=None,
                      help="postulated response (venn only)")
    band.add_argument("--seed", type=int, default=None)
    band.add_argument("--format", choices=("json", "csv"), default="json")

    val = sub.add_parser("validate", help="run the uniformity and coverage suites")
    val.add_argument("--system", required=True)
    val.add_argument("--sampler", default="p1", choices=sorted(SAMPLERS))
    val.add_argument("--n", type=int, default=20)
    val.add_argument("--trials", type=int, default=10_000)
    val.add_argument("--online", action="store_true",
                     help="also run the online coverage suite (conformal systems only)")
    val.add_argument("--epsilon", type=float, default=0.1)
    val.add_argument("--tau", default="random", help="'random' or 'fixed:<v>'")
    val.add_argument("--seed", type=int, default=None)

    cons = sub.add_parser("consistency", help="median gap to the conditional mean per n")
    cons.add_argument("--system", required=True)
    cons.add_argument("--sampler", default="p1", choices=sorted(SAMPLERS))
    cons.add_argument("--function", default="clamp")
    cons.add_argument("--ns", required=True, help="comma-separated training sizes")
    cons.add_argument("--trials", type=int, default=100)
    cons.add_argument("--tau", default="random", help="'random' or 'fixed:<v>'")
    cons.add_argument("--seed", type=int, default=None)

    sub.add_parser("calib-demo", help="print the exact calibration counterexamples")
    return parser


def _seed_of(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("CPSKIT_SEED")
    return int(env) if env else 0


def _parse_tau(text: str) -> float | None:
    if text == "random":
        return None
    m = re.fullmatch(r"fixed:(.+)", text)
    if m:
        try:
            v = float(m.group(1))
        except ValueError:
            raise ValueError(f"bad tau value in {text!r}") from None
        if not 0.0 <= v <= 1.0:
            raise ValueError("fixed tau must lie in [0, 1]")
        return v
    raise ValueError(f"tau policy must be 'random' or 'fixed:<v>', got {text!r}")


def _read_training(path: str) -> Columns:
    """Training rows of a CSV file with header ``x1,...,xd,y``.

    Fields are plain ASCII reals with a ``.`` decimal point.  ``float``
    also reads digit-group underscores and non-ASCII digits, so a file
    holding either is rejected before parsing.  A UTF-8 byte-order mark
    is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    expected = [f"x{i}" for i in range(1, len(header))] + ["y"]
    if len(header) < 2 or header != expected:
        raise DataError(f"{path}: header must be x1,...,xd,y (got {','.join(header)})")
    plain = text.isascii() and "_" not in text
    d = len(header) - 1
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise DataError(f"{path}:{lineno}: expected {d + 1} fields")
        if not plain:
            for v in row:
                if not v.isascii() or "_" in v:
                    raise DataError(f"{path}:{lineno}: {v!r} is not a plain decimal real")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"{path}:{lineno}: non-finite value")
        xs.append(vals[:d])
        ys.append(vals[d])
    if not ys:
        raise DataError(f"{path}: no data rows")
    return Columns(xs, ys)


def _cmd_band(args) -> int:
    training = _read_training(args.input)
    d = training.d
    try:
        x = tuple(float(v) for v in args.x.split(","))
    except ValueError:
        raise ValueError(f"--x must be comma-separated reals, got {args.x!r}") from None
    if not all(math.isfinite(v) for v in x):
        raise ValueError(f"--x must be finite, got {args.x!r}")
    if args.u is not None and not math.isfinite(args.u):
        raise ValueError(f"--u must be finite, got {args.u!r}")
    if len(x) != d:
        raise ValueError(f"--x has dimension {len(x)}, training data has {d}")
    if args.system in SCALAR_SYSTEMS and d != 1:
        raise ValueError(f"system {args.system!r} requires scalar predictors")
    if args.system == "venn" and args.u is None:
        raise ValueError("system 'venn' requires --u (postulated response)")
    stream = derive_stream(_seed_of(args), [0])
    n = len(training)
    # The arguments are valid from here on: a failure to build the band
    # comes from the data, such as crossings or cell numbers that overflow.
    try:
        if args.system == "dh":
            band = dh_band(training.ys)
        elif args.system == "nn":
            band = nn_band(training.observations(), x, stream)
        elif args.system == "hist-mondrian":
            band = hmps_band(training, x)
        elif args.system == "hist-conformal":
            band = hcps_band(training, x, thetas=stream.uniforms(n + 1))
        elif args.system == "pfs":
            band = pfs_distribution(training, x)
        else:  # venn
            band = venn_distribution(histogram_taxonomy, training.observations(), x, args.u)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"cannot build the {args.system} band from {args.input}: {exc}") from None
    if args.format == "json":
        print(band.to_json())
    else:
        rows = list(zip(band.jumps, band.at_jump_lower, band.at_jump_upper))
        sys.stdout.write(rows_to_csv(("y", "lower", "upper"), rows))
    return 0


def _cmd_validate(args) -> int:
    if args.trials < 100:
        raise ValueError("validate needs --trials >= 100")
    spec = SYSTEMS.get(args.system)
    if spec is None or spec.pit is None:
        raise ValueError(f"system {args.system!r} cannot be validated")
    if args.online and not spec.conformal:
        raise ValueError(
            f"--online applies to conformal systems only, not {args.system!r}"
        )
    tau = _parse_tau(args.tau)
    sampler = SAMPLERS[args.sampler]
    seed = _seed_of(args)
    pits = pit_sample(args.system, sampler, args.n, args.trials, seed, tau=tau)
    ks = ks_uniform(pits)
    threshold = 1.628 / math.sqrt(args.trials)  # asymptotic 1% point
    suites = {
        "ks_uniform": {"statistic": ks, "threshold": threshold, "pass": ks < threshold}
    }
    if args.online:
        cov = online_coverage(args.system, sampler, args.trials, args.epsilon, seed)
        target = 1.0 - args.epsilon
        suites["online_coverage"] = {
            "statistic": cov,
            "target": target,
            "threshold": ONLINE_TOLERANCE,
            "pass": abs(cov - target) <= ONLINE_TOLERANCE,
        }
    ok = all(s["pass"] for s in suites.values())
    print(json.dumps({"system": args.system, "sampler": args.sampler,
                      "suites": suites, "pass": ok}))
    return 0 if ok else VALIDATION_FAILURE


def _cmd_consistency(args) -> int:
    try:
        ns = [int(v) for v in args.ns.split(",")]
    except ValueError:
        raise ValueError(f"--ns must be comma-separated integers, got {args.ns!r}") from None
    f = TEST_FUNCTIONS.get(args.function)
    if f is None:
        raise ValueError(f"unknown test function {args.function!r}")
    rows = consistency_curve(
        args.system, SAMPLERS[args.sampler], f, ns, args.trials, _seed_of(args),
        tau=_parse_tau(args.tau),
    )
    sys.stdout.write(rows_to_csv(("n", "median_discrepancy"), rows))
    return 0


def _cmd_calib_demo(args) -> int:
    lhs, rhs, jumps = marginal_calibration_exchangeable()
    print(f"exchangeable: {lhs} vs {rhs} (jumps at {jumps[0]} and {jumps[1]})")
    lhs, rhs, per_seq = marginal_calibration_iid()
    means = ", ".join(str(v) for v in per_seq)
    print(f"iid: {lhs} vs {rhs} (sequence means {means})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "band": _cmd_band,
        "validate": _cmd_validate,
        "consistency": _cmd_consistency,
        "calib-demo": _cmd_calib_demo,
    }[args.command]
    try:
        return handler(args)
    except DataError as exc:
        print(f"cpskit: data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"cpskit: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
