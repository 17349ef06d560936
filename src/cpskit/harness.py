"""Monte-Carlo validity, consistency, and calibration experiments.

Everything here is bit-reproducible: each trial derives its own stream from
the master seed, observations are drawn first (two uniforms each), then the
tie-break numbers in index order (skipped at the same stream position for a
system that reads none), then the single ``tau``.  Stream paths are
namespaced per experiment so different experiments under one seed never share
draws: probability-transform sampling uses ``[0, trial]``, the online
protocol ``[1]``, consistency curves ``[2, n_index, trial]``, and the
class-conditional calibration study ``[3, trial]``.  The online protocol
draws every row, tie-break number and tau first, then reads each step's
transform from the system's ``online`` counts, kept in per-system state
instead of a band per step; ``nn`` ties still draw at every step.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Columns, Observation, PredictiveBand, RandomStream, derive_stream
# Unused here: bound because perfbench/tracing.py wraps these names in this module.
from .conformity import histogram_score, nn_score, trivial_score  # noqa: F401
from .partition import histogram_taxonomy, scalar_predictor
from .transducers import (
    _venn_band,
    conformal_pvalue,  # noqa: F401  unused here, bound for perfbench/tracing.py
    dh_band,
    dh_online,
    hcps_band,
    hcps_online,
    hmps_band,
    mondrian_pvalue,  # noqa: F401  unused here, bound for perfbench/tracing.py
    nn_band,
    nn_online,
    pfs_distribution,
    venn_distribution,
)

__all__ = [
    "TestFunction",
    "TEST_FUNCTIONS",
    "Sampler",
    "SAMPLERS",
    "SYSTEMS",
    "PredictiveSystemSpec",
    "pit_sample",
    "ks_uniform",
    "online_coverage",
    "consistency_curve",
    "marginal_calibration_exchangeable",
    "marginal_calibration_iid",
    "venn_calibration",
    "VennCalibrationResult",
    "rows_to_csv",
]


# ---------------------------------------------------------------------------
# Test functions and synthetic samplers


class TestFunction(NamedTuple):
    """A named bounded continuous function with its bound.

    ``fn`` acts elementwise on float64 arrays as well as on single floats,
    so that ``PredictiveBand.integrate`` can apply it to all jumps at once.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    fn: Callable
    bound: float


def _clamp(y):
    return np.clip(y, -1.0, 1.0)


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "clamp": TestFunction("clamp", _clamp, 1.0),
    "cos": TestFunction("cos", np.cos, 1.0),
}


class Sampler:
    """Seeded IID source of observations with exact conditional expectations.

    ``columns`` and ``draw`` consume exactly two uniforms per observation,
    ``(u1, u2)`` for row ``i`` being draws ``2i`` and ``2i + 1``.  Subclasses
    define their law once, as ``_make_columns(u1, u2)`` over the two uniform
    arrays: ``u1`` is a fresh copy, which the law may keep as its predictor
    column, and ``u2`` a view of the draws, which it must neither write nor
    keep, so ``Columns._own`` takes each column without copying it again.
    Subclasses with a closed-form conditional oracle implement
    ``conditional_mean``.
    """

    name: str = "base"
    binary: bool = False

    def _make_columns(self, u1: np.ndarray, u2: np.ndarray) -> Columns:
        raise NotImplementedError

    def columns(self, stream: RandomStream, k: int) -> Columns:
        """``k`` observations in column form."""
        us = stream.uniforms(2 * k)
        return self._make_columns(us[0::2].copy(), us[1::2])

    def draw(self, stream: RandomStream, k: int) -> list[Observation]:
        """``k`` observations; the rows of ``columns`` on the same stream."""
        return self.columns(stream, k).observations()

    def conditional_mean(self, f: TestFunction, x: float) -> float:
        raise ValueError(f"sampler {self.name!r} has no conditional oracle for {f.name!r}")


class NoisyLineSampler(Sampler):
    """x ~ U[0,1]; y = 2x + nu with nu uniform on {-1, +1}."""

    name = "p1"

    def _make_columns(self, u1, u2):
        # y = 2 x + nu with nu = sign(u2 - 1/2), +1 at 1/2, is computed in
        # place as 2 (x + nu / 2): doubling is exact, so both round alike.
        ys = np.subtract(u2, 0.5)
        np.copysign(0.5, ys, out=ys)
        ys += u1
        ys *= 2.0
        return Columns._own(u1, ys)

    def conditional_mean(self, f, x):
        below, above = f.fn(np.array([2.0 * x - 1.0, 2.0 * x + 1.0]))
        return float((below + above) / 2.0)


class IndependentSampler(Sampler):
    """x ~ U[0,1] and y ~ U[0,1] independently."""

    name = "p2"
    _integrals = {"clamp": 0.5, "cos": math.sin(1.0)}

    def _make_columns(self, u1, u2):
        return Columns._own(u1, u2.copy())

    def conditional_mean(self, f, x):
        try:
            return self._integrals[f.name]
        except KeyError:
            raise ValueError(
                f"sampler 'p2' has no registered integral for {f.name!r}"
            ) from None


class BernoulliSampler(Sampler):
    """x ~ U[0,1]; y ~ Bernoulli(x)."""

    name = "p3"
    binary = True

    def _make_columns(self, u1, u2):
        return Columns._own(u1, np.less(u2, u1).astype(np.float64))

    def conditional_mean(self, f, x):
        at_0, at_1 = f.fn(np.array([0.0, 1.0]))
        return float((1.0 - x) * at_0 + x * at_1)


SAMPLERS: dict[str, Sampler] = {
    s.name: s for s in (NoisyLineSampler(), IndependentSampler(), BernoulliSampler())
}


# ---------------------------------------------------------------------------
# Predictive system registry


class PredictiveSystemSpec(NamedTuple):
    """One named predictive system: its band builder and the facts callers
    gate on.

    ``band(training, x, stream, thetas, u)`` builds the band at predictor
    ``x`` from training ``Columns``.  ``thetas`` holds the ``n + 1``
    tie-break numbers, which the caller draws when ``tie_breaks`` is set;
    ``stream`` breaks nearest-neighbour distance ties; ``u`` is the
    postulated response.  The flags:

    - ``scalar_only``: predictors must be one-dimensional;
    - ``uniform_pit``: under IID data the band's value at the realized
      response, ``band.evaluate(y, tau)``, is exactly uniform (rank bands);
    - ``postulated``: the band reads the postulated response ``u``;
    - ``tie_breaks``: the band and ``online`` read ``thetas`` (None otherwise).

    ``online(columns, thetas, stream)``, set only for the conformal systems,
    whose online transforms are independent, gives the online counts of
    ``band`` over the rows of ``columns``, as ``cpskit.transducers`` defines.
    """

    name: str
    band: Callable[..., PredictiveBand]
    scalar_only: bool = False
    uniform_pit: bool = False
    postulated: bool = False
    tie_breaks: bool = False
    online: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None


# The builders are looked up in this module's namespace when called, so a
# wrapper installed on ``harness.<builder>`` sees every band, CLI ones too.
SYSTEMS: dict[str, PredictiveSystemSpec] = {
    spec.name: spec
    for spec in (
        PredictiveSystemSpec(
            "dh", lambda tr, x, st, th, u: dh_band(tr.ys),
            uniform_pit=True, online=lambda cols, th, st: dh_online(cols.ys),
        ),
        PredictiveSystemSpec(
            "nn", lambda tr, x, st, th, u: nn_band(tr, x, st),
            uniform_pit=True, online=lambda cols, th, st: nn_online(cols, st),
        ),
        PredictiveSystemSpec(
            "hist-mondrian", lambda tr, x, st, th, u: hmps_band(tr, x),
            scalar_only=True, uniform_pit=True,
        ),
        PredictiveSystemSpec(
            "hist-conformal", lambda tr, x, st, th, u: hcps_band(tr, x, th),
            scalar_only=True, uniform_pit=True, tie_breaks=True,
            online=lambda cols, th, st: hcps_online(cols, th),
        ),
        PredictiveSystemSpec(
            "pfs", lambda tr, x, st, th, u: pfs_distribution(tr, x),
            scalar_only=True,
        ),
        PredictiveSystemSpec(
            "venn",
            lambda tr, x, st, th, u: venn_distribution(histogram_taxonomy, tr, x, u),
            scalar_only=True, postulated=True,
        ),
    )
}


def _system(system_id: str) -> PredictiveSystemSpec:
    try:
        return SYSTEMS[system_id]
    except KeyError:
        raise ValueError(
            f"unknown system {system_id!r}; choose from {list(SYSTEMS)}"
        ) from None


def _size(value, name: str) -> int:
    """``value`` as an int, if it is an integer (a numpy one too, not a
    bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be >= 1 and integral, got {value!r}")
    return int(value)


def _trial(spec, sampler, n, stream, tau, oracle=None):
    """``n + 1`` rows, their tie-break numbers, then tau (unless fixed), all
    from ``stream``; returns the band at the last row's predictor ``x``,
    built from the first ``n``, with the last row's response, tau and
    ``oracle(x)``, which is evaluated before the band is built (None without
    an oracle).  Without ``tie_breaks`` the numbers are skipped at the same
    stream position (``skip`` gives None)."""
    cols = sampler.columns(stream, n + 1)
    thetas = stream.uniforms(n + 1) if spec.tie_breaks else stream.skip(n + 1)
    tau = stream.uniform() if tau is None else float(tau)
    x, y = tuple(cols.xs[n].tolist()), float(cols.ys[n])
    target = None if oracle is None else oracle(x)
    return spec.band(cols.head(n), x, stream, thetas, None), y, tau, target


# ---------------------------------------------------------------------------
# Small-sample validity


def pit_sample(
    system: str,
    sampler: Sampler,
    n: int,
    trials: int,
    master_seed: int,
    tau: float | None = None,
) -> list[float]:
    """Probability transforms of the realized response over fresh trials.

    Per trial ``t`` a stream at path ``[0, t]`` draws ``n + 1`` observations,
    the tie-break numbers, and tau (unless fixed); the transform is the
    system's band at the realized test response, ``band.evaluate(y, tau)``.
    Under the sampler's IID law the returned values are exactly uniform on
    [0, 1].
    """
    n, trials = _size(n, "n"), _size(trials, "trials")
    spec = _system(system)
    if not spec.uniform_pit:
        raise ValueError(f"system {system!r} does not define a randomized p-value")
    out = []
    for t in range(trials):
        band, y, tau_t, _ = _trial(spec, sampler, n, derive_stream(master_seed, [0, t]), tau)
        out.append(band.evaluate(y, tau_t))
    return out


def ks_uniform(values: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of ``values``, a one-dimensional
    sequence, from the uniform law on [0, 1]."""
    vs = np.asarray(values, dtype=np.float64)
    if vs.ndim != 1:
        raise ValueError(f"ks_uniform needs a one-dimensional sequence, got shape {vs.shape}")
    if len(vs) == 0:
        raise ValueError("ks_uniform needs at least one value")
    vs = np.sort(vs)
    if not (vs[0] >= 0.0 and vs[-1] <= 1.0):  # the sort puts a NaN last
        raise ValueError("values must lie in [0, 1]")
    i, m = np.arange(len(vs)), len(vs)
    return float(max((vs - i / m).max(), ((i + 1) / m - vs).max()))


def online_coverage(
    system: str,
    sampler: Sampler,
    steps: int,
    epsilon: float,
    seed: int,
) -> float:
    """Fraction of online steps whose transform lands in the central interval.

    Runs the online protocol: at step ``n`` the system predicts observation
    ``n + 1`` from the first ``n``, with a fresh tau per step, and the
    transform is checked against ``[epsilon/2, 1 - epsilon/2]``.  Only
    conformal systems make the step transforms independent, so others are
    rejected.  The system's ``online`` counts give every step's transform
    with the band's own arithmetic, so it equals the registry band's to the
    last bit, and no step builds a band.
    """
    steps = _size(steps, "steps")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    spec = _system(system)
    if spec.online is None:
        raise ValueError(
            f"online validity is only claimed for conformal systems, not {system!r}"
        )
    st = derive_stream(seed, [1])
    cols = sampler.columns(st, steps + 1)
    thetas = st.uniforms(steps + 1) if spec.tie_breaks else st.skip(steps + 1)
    taus = st.uniforms(steps)
    less, upto = spec.online(cols, thetas, st)
    den = np.arange(2, steps + 2)
    lo, hi = less / den, upto / den
    pit = lo + taus * (hi - lo)
    covered = np.count_nonzero((epsilon / 2.0 <= pit) & (pit <= 1.0 - epsilon / 2.0))
    return int(covered) / steps


# ---------------------------------------------------------------------------
# Consistency


def consistency_curve(
    system: str,
    sampler: Sampler,
    f: TestFunction,
    ns: Sequence[int],
    trials: int,
    seed: int,
    tau: float | None = None,
) -> list[tuple[int, float]]:
    """Median absolute gap between the band integral and the true conditional mean.

    For each training size the sampler provides fresh data and the exact
    conditional expectation at the test predictor; the reported statistic is
    the median over trials of ``|integral - oracle|``.  Requires a sampler
    with a conditional oracle for ``f``.
    """
    trials = _size(trials, "trials")
    spec = _system(system)
    if spec.postulated:
        raise ValueError(f"system {system!r} needs a postulated response")
    if type(sampler).conditional_mean is Sampler.conditional_mean:
        sampler.conditional_mean(f, 0.5)  # no oracle at all: raises before any stream
    ns = [_size(n, "training sizes") for n in ns]
    # An oracle without ``f`` raises at the first trial, before its band.
    oracle = lambda x: sampler.conditional_mean(f, scalar_predictor(x))
    rows: list[tuple[int, float]] = []
    for j, n in enumerate(ns):
        gaps = []
        for t in range(trials):
            stream = derive_stream(seed, [2, j, t])
            band, _, tau_t, target = _trial(spec, sampler, n, stream, tau, oracle)
            gaps.append(abs(band.integrate(f.fn, tau_t) - target))
        rows.append((n, _median(gaps)))
    return rows


def _median(values: list[float]) -> float:
    """``statistics.median(values)``: the middle value, or the mean of the two."""
    s, k = sorted(values), len(values) // 2
    return s[k] if len(values) % 2 else (s[k - 1] + s[k]) / 2


# ---------------------------------------------------------------------------
# Exact calibration counterexamples (two-point demos, no sampling)

# Score of an observation (x, y) with x in {+1, -1}: y for x = +1, 3y + 2 for
# x = -1.  Integer coefficients; the demos divide them as exact rationals.
_DEMO_COEFFS = {1: (1, 0), -1: (3, 2)}

_DEMO_POINTS = ((-1, -1), (1, 1))  # (x label, response)


def _demo_jump(train, test_x: int) -> tuple[int, int]:
    """Response where the candidate's score crosses the training score, as
    (numerator, denominator)."""
    (a_tr, b_tr), (a, b) = _DEMO_COEFFS[train[0]], _DEMO_COEFFS[test_x]
    return a_tr * train[1] + b_tr - b, a


def _demo_pvalue_mean(train, test_x: int) -> float:
    """tau-averaged rank p-value at response 0 for one training point: the
    value at tau = 1/2 of the rank band of the crossing, exact as a quarter."""
    num, den = _demo_jump(train, test_x)
    return dh_band([num / den]).evaluate(0.0, 0.5)


def marginal_calibration_exchangeable() -> tuple[Fraction, Fraction, tuple[Fraction, Fraction]]:
    """Exact two-point exchangeable counterexample to marginal calibration.

    The data law puts weight 1/2 on each ordering of the two fixed
    observations; at query response 0 the mean of the predictive distribution
    is 3/4 while the true probability of a response <= 0 is 1/2.  Also
    returns the two jump locations (-1 and -1/3).
    """
    from fractions import Fraction

    a, b = _DEMO_POINTS
    sequences = [(a, b), (b, a)]  # (training point, test point), each weight 1/2
    lhs = sum(Fraction(_demo_pvalue_mean(tr, te[0])) for tr, te in sequences) / len(sequences)
    rhs = Fraction(sum(te[1] <= 0 for _, te in sequences), len(sequences))
    jumps = tuple(Fraction(*_demo_jump(tr, te[0])) for tr, te in sequences)
    return lhs, rhs, jumps


def marginal_calibration_iid() -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """Exact two-point IID counterexample to marginal calibration.

    Both observations are drawn independently with weight 1/2 each; the four
    equiprobable (training, test) sequences average (3/4, 3/4, 3/4, 1/4) at
    query response 0, so the mean predictive value is 5/8 against a true 1/2.
    """
    from fractions import Fraction

    a, b = _DEMO_POINTS
    sequences = [(a, b), (b, a), (a, a), (b, b)]  # each weight 1/4
    per_sequence = tuple(Fraction(_demo_pvalue_mean(tr, te[0])) for tr, te in sequences)
    lhs = sum(per_sequence) / len(sequences)
    rhs = Fraction(sum(te[1] <= 0 for _, te in sequences), len(sequences))
    return lhs, rhs, per_sequence


# ---------------------------------------------------------------------------
# Class-conditional (Venn) calibration


class VennCalibrationResult(NamedTuple):
    """Monte-Carlo calibration summary for the realized-response component.

    ``marginal`` holds one row per query response: (y, mean predictive value,
    empirical probability of a response <= y).  For binary samplers
    ``conditional`` holds one row per attained predicted probability of a
    positive response: (p, trial count, empirical positive frequency).
    """

    marginal: tuple[tuple[float, float, float], ...]
    conditional: tuple[tuple[float, int, float], ...]


def venn_calibration(
    taxonomy,
    sampler: Sampler,
    n: int,
    trials: int,
    y_grid: Sequence[float],
    seed: int,
) -> VennCalibrationResult:
    """Both sides of the marginal-calibration identity for class ECDFs.

    Per trial the distribution function indexed by the realized test response
    is evaluated on ``y_grid`` and compared, in mean, with the empirical law
    of the test response.  For binary samplers the predicted positive
    probability ``p = 1 - Q(0)`` is additionally grouped exactly, recording
    the positive frequency among trials sharing each ``p``.  Each trial draws
    its ``n + 1`` rows as ``Columns`` and builds the band of
    ``venn_distribution`` from them, the last row as the test observation, so
    ``taxonomy`` labels ``Columns``, as ``histogram_taxonomy`` does.
    """
    n, trials = _size(n, "n"), _size(trials, "trials")
    grid = [float(y) for y in y_grid]
    mean_q = [0.0] * len(grid)
    emp = [0] * len(grid)
    by_p: dict[float, list[int]] = {}
    for t in range(trials):
        cols = sampler.columns(derive_stream(seed, [3, t]), n + 1)
        band, y_test = _venn_band(taxonomy, cols), float(cols.ys[n])
        for k, y in enumerate(grid):
            mean_q[k] += band.evaluate(y, 0.0)
            if y_test <= y:
                emp[k] += 1
        if sampler.binary:
            p = 1.0 - band.evaluate(0.0, 0.0)
            bucket = by_p.setdefault(p, [0, 0])
            bucket[0] += 1
            bucket[1] += 1 if y_test == 1.0 else 0
    marginal = tuple(
        (grid[k], mean_q[k] / trials, emp[k] / trials) for k in range(len(grid))
    )
    conditional = tuple(
        (p, cnt, ones / cnt) for p, (cnt, ones) in sorted(by_p.items())
    )
    return VennCalibrationResult(marginal, conditional)


# ---------------------------------------------------------------------------
# Result emission


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Rows as a deterministic comma-separated block with a header line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"
