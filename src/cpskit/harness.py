"""Monte-Carlo validity, consistency, and calibration experiments.

Everything here is bit-reproducible: each trial derives its own stream from
the master seed, observations are drawn first (two uniforms each), then the
tie-break numbers in index order, then the single ``tau``.  Stream paths are
namespaced per experiment so different experiments under one seed never share
draws: probability-transform sampling uses ``[0, trial]``, the online
protocol ``[1]``, consistency curves ``[2, n_index, trial]``, and the
class-conditional calibration study ``[3, trial]``.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import Columns, Observation, PredictiveBand, RandomStream, derive_stream
# Unused here: bound because perfbench/tracing.py wraps these names in this module.
from .conformity import histogram_score, nn_score, trivial_score  # noqa: F401
from .partition import histogram_taxonomy, scalar_predictor
from .transducers import (
    conformal_pvalue,  # noqa: F401  unused here, bound for perfbench/tracing.py
    dh_band,
    hcps_band,
    hmps_band,
    mondrian_pvalue,  # noqa: F401  unused here, bound for perfbench/tracing.py
    nn_band,
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


@dataclass(frozen=True)
class TestFunction:
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
    arrays.  Subclasses with a closed-form conditional oracle implement
    ``conditional_mean``.
    """

    name: str = "base"
    binary: bool = False

    def _make_columns(self, u1: np.ndarray, u2: np.ndarray) -> Columns:
        raise NotImplementedError

    def columns(self, stream: RandomStream, k: int) -> Columns:
        """``k`` observations in column form."""
        us = stream.uniforms(2 * k)
        return self._make_columns(us[0::2], us[1::2])

    def draw(self, stream: RandomStream, k: int) -> list[Observation]:
        """``k`` observations; the rows of ``columns`` on the same stream."""
        return self.columns(stream, k).observations()

    def conditional_mean(self, f: TestFunction, x: float) -> float:
        raise ValueError(f"sampler {self.name!r} has no conditional oracle for {f.name!r}")


class NoisyLineSampler(Sampler):
    """x ~ U[0,1]; y = 2x + nu with nu uniform on {-1, +1}."""

    name = "p1"

    def _make_columns(self, u1, u2):
        return Columns(u1, 2.0 * u1 + np.where(u2 < 0.5, -1.0, 1.0))

    def conditional_mean(self, f, x):
        return float((f.fn(2.0 * x - 1.0) + f.fn(2.0 * x + 1.0)) / 2.0)


class IndependentSampler(Sampler):
    """x ~ U[0,1] and y ~ U[0,1] independently."""

    name = "p2"
    _integrals = {"clamp": 0.5, "cos": math.sin(1.0)}

    def _make_columns(self, u1, u2):
        return Columns(u1, u2)

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
        return Columns(u1, np.where(u2 < u1, 1.0, 0.0))

    def conditional_mean(self, f, x):
        return float((1.0 - x) * f.fn(0.0) + x * f.fn(1.0))


SAMPLERS: dict[str, Sampler] = {
    s.name: s for s in (NoisyLineSampler(), IndependentSampler(), BernoulliSampler())
}


# ---------------------------------------------------------------------------
# Predictive system registry


@dataclass(frozen=True)
class PredictiveSystemSpec:
    """One named predictive system: its band builder and the facts callers
    gate on.

    ``band(training, x, stream, thetas, u)`` builds the band at predictor
    ``x`` from training ``Columns``.  ``thetas`` holds the ``n + 1``
    tie-break numbers, or None to draw them from ``stream`` when needed;
    ``stream`` also breaks nearest-neighbour distance ties; ``u`` is the
    postulated response.  The flags:

    - ``scalar_only``: predictors must be one-dimensional;
    - ``uniform_pit``: under IID data the band's value at the realized
      response, ``band.evaluate(y, tau)``, is exactly uniform (rank bands);
    - ``online_valid``: the transforms of the online protocol are
      independent (conformal systems);
    - ``postulated``: the band reads the postulated response ``u``.
    """

    name: str
    band: Callable[..., PredictiveBand]
    scalar_only: bool = False
    uniform_pit: bool = False
    online_valid: bool = False
    postulated: bool = False


# The builders are looked up in this module's namespace when called, so a
# wrapper installed on ``harness.<builder>`` sees every band, CLI ones too.
SYSTEMS: dict[str, PredictiveSystemSpec] = {
    spec.name: spec
    for spec in (
        PredictiveSystemSpec(
            "dh", lambda tr, x, st, th, u: dh_band(tr.ys),
            uniform_pit=True, online_valid=True,
        ),
        PredictiveSystemSpec(
            "nn", lambda tr, x, st, th, u: nn_band(tr, x, st),
            uniform_pit=True, online_valid=True,
        ),
        PredictiveSystemSpec(
            "hist-mondrian", lambda tr, x, st, th, u: hmps_band(tr, x),
            scalar_only=True, uniform_pit=True,
        ),
        PredictiveSystemSpec(
            "hist-conformal", lambda tr, x, st, th, u: hcps_band(tr, x, th, st),
            scalar_only=True, uniform_pit=True, online_valid=True,
        ),
        PredictiveSystemSpec(
            "pfs", lambda tr, x, st, th, u: pfs_distribution(tr, x),
            scalar_only=True,
        ),
        PredictiveSystemSpec(
            "venn",
            lambda tr, x, st, th, u: venn_distribution(
                histogram_taxonomy, tr.observations(), x, u
            ),
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


def _trial(spec, sampler, n, stream, tau):
    """``n + 1`` rows, their tie-break numbers, then tau (unless fixed), all
    from ``stream``; returns the band at the last row's predictor, built
    from the first ``n``, with the last row and tau."""
    cols = sampler.columns(stream, n + 1)
    thetas = stream.uniforms(n + 1)
    tau = stream.uniform() if tau is None else float(tau)
    test = cols.row(n)
    return spec.band(cols.head(n), test.x, stream, thetas, None), test, tau


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = _system(system)
    if not spec.uniform_pit:
        raise ValueError(f"system {system!r} does not define a randomized p-value")
    out = []
    for t in range(trials):
        band, test, tau_t = _trial(spec, sampler, n, derive_stream(master_seed, [0, t]), tau)
        out.append(band.evaluate(test.y, tau_t))
    return out


def ks_uniform(values: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of ``values`` from the uniform law on [0, 1]."""
    if len(values) == 0:
        raise ValueError("ks_uniform needs at least one value")
    vs = sorted(float(v) for v in values)
    if vs[0] < 0.0 or vs[-1] > 1.0:
        raise ValueError("values must lie in [0, 1]")
    m = len(vs)
    d = 0.0
    for i, v in enumerate(vs):
        d = max(d, v - i / m, (i + 1) / m - v)
    return d


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
    rejected.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    spec = _system(system)
    if not spec.online_valid:
        raise ValueError(
            f"online validity is only claimed for conformal systems, not {system!r}"
        )
    st = derive_stream(seed, [1])
    cols = sampler.columns(st, steps + 1)
    thetas = st.uniforms(steps + 1)
    taus = st.uniforms(steps)
    lo_edge, hi_edge = epsilon / 2.0, 1.0 - epsilon / 2.0
    covered = 0
    if system == "dh":
        # Ranks against a growing sorted list give the dh band's value at
        # the new response in O(log n) a step; a band per step would make
        # 10^4 steps O(n^2 log n).
        ys = cols.ys.tolist()
        sorted_ys: list[float] = []
        for n in range(1, steps + 1):
            bisect.insort(sorted_ys, ys[n - 1])
            less = bisect.bisect_left(sorted_ys, ys[n])
            tied = bisect.bisect_right(sorted_ys, ys[n]) - less + 1
            # The band's own arithmetic (_rank_band, then evaluate), so the
            # transform equals the registry band's to the last bit.
            lo, hi = less / (n + 1), (less + tied) / (n + 1)
            pit = lo + float(taus[n - 1]) * (hi - lo)
            if lo_edge <= pit <= hi_edge:
                covered += 1
    else:
        for n in range(1, steps + 1):
            test = cols.row(n)
            band = spec.band(cols.head(n), test.x, st, thetas[: n + 1], None)
            if lo_edge <= band.evaluate(test.y, float(taus[n - 1])) <= hi_edge:
                covered += 1
    return covered / steps


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = _system(system)
    if spec.postulated:
        raise ValueError(f"system {system!r} needs a postulated response")
    # Fail fast on a missing oracle before burning trials.
    sampler.conditional_mean(f, 0.5)
    rows: list[tuple[int, float]] = []
    for j, n in enumerate(ns):
        if n < 1:
            raise ValueError("all training sizes must be >= 1")
        gaps = []
        for t in range(trials):
            band, test, tau_t = _trial(spec, sampler, n, derive_stream(seed, [2, j, t]), tau)
            value = band.integrate(f.fn, tau_t)
            target = sampler.conditional_mean(f, scalar_predictor(test))
            gaps.append(abs(value - target))
        rows.append((int(n), statistics.median(gaps)))
    return rows


# ---------------------------------------------------------------------------
# Exact calibration counterexamples (two-point demos, no sampling)

# Score of an observation (x, y) with x in {+1, -1}: y for x = +1, 3y + 2 for
# x = -1.  Linear coefficients as exact rationals.
_DEMO_COEFFS = {1: (Fraction(1), Fraction(0)), -1: (Fraction(3), Fraction(2))}

_DEMO_POINTS = ((-1, Fraction(-1)), (1, Fraction(1)))  # (x label, response)


def _demo_score(xlab: int, y: Fraction) -> Fraction:
    a, b = _DEMO_COEFFS[xlab]
    return a * y + b


def _demo_pvalue_mean(train, test_x: int, y: Fraction) -> Fraction:
    """tau-averaged rank p-value for one training point, exact."""
    s_train = _demo_score(train[0], train[1])
    s_cand = _demo_score(test_x, y)
    less = 1 if s_train < s_cand else 0
    tied = (1 if s_train == s_cand else 0) + 1
    return (less + Fraction(1, 2) * tied) / 2


def _demo_jump(train, test_x: int) -> Fraction:
    """Response where the candidate's score crosses the training score."""
    a, b = _DEMO_COEFFS[test_x]
    return (_demo_score(train[0], train[1]) - b) / a


def marginal_calibration_exchangeable() -> tuple[Fraction, Fraction, tuple[Fraction, Fraction]]:
    """Exact two-point exchangeable counterexample to marginal calibration.

    The data law puts weight 1/2 on each ordering of the two fixed
    observations; at query response 0 the mean of the predictive distribution
    is 3/4 while the true probability of a response <= 0 is 1/2.  Also
    returns the two jump locations (-1 and -1/3).
    """
    a, b = _DEMO_POINTS
    sequences = [(a, b), (b, a)]  # (training point, test point), each weight 1/2
    y0 = Fraction(0)
    lhs = sum(_demo_pvalue_mean(tr, te[0], y0) for tr, te in sequences) / len(sequences)
    rhs = sum(Fraction(1 if te[1] <= y0 else 0) for _, te in sequences) / len(sequences)
    jumps = tuple(_demo_jump(tr, te[0]) for tr, te in sequences)
    return lhs, rhs, jumps


def marginal_calibration_iid() -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """Exact two-point IID counterexample to marginal calibration.

    Both observations are drawn independently with weight 1/2 each; the four
    equiprobable (training, test) sequences average (3/4, 3/4, 3/4, 1/4) at
    query response 0, so the mean predictive value is 5/8 against a true 1/2.
    """
    a, b = _DEMO_POINTS
    sequences = [(a, b), (b, a), (a, a), (b, b)]  # each weight 1/4
    y0 = Fraction(0)
    per_sequence = tuple(_demo_pvalue_mean(tr, te[0], y0) for tr, te in sequences)
    lhs = sum(per_sequence) / len(sequences)
    rhs = sum(Fraction(1 if te[1] <= y0 else 0) for _, te in sequences) / len(sequences)
    return lhs, rhs, per_sequence


# ---------------------------------------------------------------------------
# Class-conditional (Venn) calibration


@dataclass(frozen=True)
class VennCalibrationResult:
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
    the positive frequency among trials sharing each ``p``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = [float(y) for y in y_grid]
    mean_q = [0.0] * len(grid)
    emp = [0] * len(grid)
    by_p: dict[float, list[int]] = {}
    for t in range(trials):
        st = derive_stream(seed, [3, t])
        obs = sampler.draw(st, n + 1)
        test = obs[n]
        band = venn_distribution(taxonomy, obs[:n], test.x, test.y)
        for k, y in enumerate(grid):
            mean_q[k] += band.evaluate(y, 0.0)
            if test.y <= y:
                emp[k] += 1
        if sampler.binary:
            p = 1.0 - band.evaluate(0.0, 0.0)
            bucket = by_p.setdefault(p, [0, 0])
            bucket[0] += 1
            bucket[1] += 1 if test.y == 1.0 else 0
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
