"""Command-line front end: band emission, validation, and experiments.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 statistical validation failure.  All commands are deterministic given
``--seed`` (falling back to the ``CPSKIT_SEED`` environment variable, then 0).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

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
# Unused here: bound because perfbench/tracing.py wraps these names in this module.
from .partition import histogram_taxonomy  # noqa: F401
from .transducers import (  # noqa: F401
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

ONLINE_TOLERANCE = 0.02


class DataError(Exception):
    """Malformed input data (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-5e-05", "-5." and "-0.5,0.3" as flags; a token that
        # begins with "-" and a digit, or with "-." and a digit, is a value.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and then reused."""
    parser = _Parser(prog="cpskit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    band = sub.add_parser("band", parents=[], help="emit a predictive band")
    band.add_argument("--system", required=True, choices=tuple(SYSTEMS))
    band.add_argument("--input", required=True, help="training CSV with header x1,...,xd,y")
    band.add_argument("--x", required=True, help="test predictor, comma-separated reals")
    band.add_argument("--u", default=None, help="postulated response (venn only)")
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
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"CPSKIT_SEED must be an integer, got {env!r}") from None


def _parse_tau(text: str) -> float | None:
    if text == "random":
        return None
    m = re.fullmatch(r"fixed:(.+)", text)
    if m:
        try:
            return float(m.group(1))
        except ValueError:
            raise ValueError(f"bad tau value in {text!r}") from None
    raise ValueError(f"tau policy must be 'random' or 'fixed:<v>', got {text!r}")


# The csv module's default field size limit: a longer field is a data error.
_FIELD_LIMIT = 131072


def _read_training(path: str) -> Columns:
    """Training rows of a CSV file with header ``x1,...,xd,y``.

    Fields are plain ASCII reals with a ``.`` decimal point, without
    quoting.  ``float`` also reads digit-group underscores and non-ASCII
    digits, so data rows holding either are rejected.  Lines end in CR LF,
    CR or LF; blank lines and a UTF-8 byte-order mark are skipped.  All
    rows are checked and converted at once; the rows of a rejected file are
    rechecked one by one to name the first bad line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not text:
        raise DataError(f"{path}: empty file")
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    head, _, body = text.partition("\n")
    raw = head.split(",")
    header = [h.strip() for h in raw]
    expected = [f"x{i}" for i in range(1, len(header))] + ["y"]
    if len(header) < 2 or header != expected or max(map(len, raw)) > _FIELD_LIMIT:
        raise DataError(f"{path}: header must be x1,...,xd,y (got {','.join(header)})")
    d = len(header) - 1
    table = _table(body, d)
    if table is None:
        for lineno, line in enumerate(body.split("\n"), start=2):
            if line and _table(line, d) is None:
                raise DataError(f"{path}:{lineno}: need {d + 1} finite plain decimal reals")
        raise DataError(f"{path}: no data rows")
    return Columns(table[:, :d], table[:, d])


def _table(body: str, d: int):
    """The lines of ``body`` as an ``(n, d + 1)`` float64 array, blank ones
    skipped, or None if one is bad or none is left.  ``float`` rejects the
    \\x1c-\\x1f that ``loadtxt`` strips as whitespace; no field outgrows its line."""
    lines = body.split("\n")
    if not any(lines) or not body.isascii() or any(c in body for c in '_"\x1c\x1d\x1e\x1f'):
        return None
    if any(len(f) > _FIELD_LIMIT for r in lines if len(r) > _FIELD_LIMIT for f in r.split(",")):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return table if table.shape[1] == d + 1 and np.isfinite(table).all() else None


def _reals(flag: str, text: str, count: int) -> list[float]:
    """The ``count`` comma-separated reals of a command-line value, read by
    the CSV field rule (``_table`` on one line), else a usage error."""
    table = None if "\n" in text or "\r" in text else _table(text, count - 1)
    if table is None:
        real = "finite plain decimal real"
        what = f"{count} comma-separated {real}s" if count > 1 else f"one {real}"
        raise ValueError(f"{flag} must be {what}, got {text!r}")
    return table[0].tolist()


def _cmd_band(args) -> int:
    training = _read_training(args.input)
    d = training.d
    x = tuple(_reals("--x", args.x, d))
    u = None if args.u is None else _reals("--u", args.u, 1)[0]
    spec = SYSTEMS[args.system]
    if spec.scalar_only and d != 1:
        raise ValueError(f"system {args.system!r} requires scalar predictors")
    if spec.postulated and u is None:
        raise ValueError(f"system {args.system!r} requires --u (postulated response)")
    stream = derive_stream(_seed_of(args), [0])
    thetas = stream.uniforms(len(training) + 1) if spec.tie_breaks else None
    # The arguments are valid from here on: a failure to build the band
    # comes from the data, such as crossings or cell numbers that overflow.
    try:
        band = spec.band(training, x, stream, thetas, u)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"cannot build the {args.system} band from {args.input}: {exc}") from None
    sys.stdout.write(band.to_json() + "\n" if args.format == "json" else band.to_csv())
    return 0


def _cmd_validate(args) -> int:
    if args.trials < 100:
        raise ValueError("validate needs --trials >= 100")
    tau = _parse_tau(args.tau)
    sampler = SAMPLERS[args.sampler]
    seed = _seed_of(args)
    # Online first: it rejects a bad --epsilon or system before any PIT trial.
    online = {}
    if args.online:
        cov = online_coverage(args.system, sampler, args.trials, args.epsilon, seed)
        target = 1.0 - args.epsilon
        online["online_coverage"] = {
            "statistic": cov,
            "target": target,
            "threshold": ONLINE_TOLERANCE,
            "pass": abs(cov - target) <= ONLINE_TOLERANCE,
        }
    pits = pit_sample(args.system, sampler, args.n, args.trials, seed, tau=tau)
    ks = ks_uniform(pits)
    threshold = 1.628 / math.sqrt(args.trials)  # asymptotic 1% point
    suites = {
        "ks_uniform": {"statistic": ks, "threshold": threshold, "pass": ks < threshold},
        **online,
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
