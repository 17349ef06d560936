"""Rank transducers and the predictive bands they induce.

The central object is the randomized p-value of a candidate observation
against training data: the fraction of rotated-sequence conformity scores
below the candidate's own score, with ties shared out linearly in ``tau``.
Restricting the comparison to the candidate's taxonomy class gives the
Mondrian variant.  Closed-form band constructors are provided for the
response-rank system, the nearest-neighbour system, the cell-conditional
(histogram) systems, and the empirical probability forecaster, plus the
family of class-conditional distribution functions indexed by a postulated
response.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    Columns,
    ExtendedObservation,
    Observation,
    PredictiveBand,
    RandomStream,
    as_columns,
)
from .conformity import _pick_response
from .partition import cell_indices, h_schedule, scalar_column, scalar_predictor

__all__ = [
    "conformal_pvalue",
    "mondrian_pvalue",
    "band_from_pvalue",
    "dh_band",
    "nn_band",
    "hmps_band",
    "hcps_band",
    "pfs_distribution",
    "venn_distribution",
]


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return tau


def _extend(training, candidate, thetas):
    """Attach tie-break numbers to plain observations when supplied."""
    n = len(training)
    if thetas is None:
        return list(training), candidate
    thetas = [float(t) for t in thetas]
    if len(thetas) != n + 1:
        raise ValueError(f"need {n + 1} tie-break numbers, got {len(thetas)}")
    seq = [ExtendedObservation(o, t) for o, t in zip(training, thetas)]
    return seq, ExtendedObservation(candidate, thetas[n])


def conformal_pvalue(
    measure,
    training: Sequence[Observation],
    candidate: Observation,
    tau: float,
    thetas: Sequence[float] | None = None,
    rng: RandomStream | None = None,
    taxonomy=None,
) -> float:
    """Randomized rank p-value of ``candidate`` against ``training``.

    Each score ``i`` is the measure applied with observation ``i`` deleted and
    the candidate appended to the comparison data; the candidate's own score
    is computed against the full training sequence.  Returns
    ``(#below + tau * #tied) / (n + 1)`` where the tie count always includes
    the candidate itself, so the value is strictly increasing in ``tau``.

    With a ``taxonomy`` (the Mondrian variant), which maps the length
    ``n + 1`` observation sequence to labels, only indices sharing the
    candidate's label enter the counts, and the denominator is the class
    size plus one.  For the result to define a predictive system the
    taxonomy must not read responses.
    """
    n = len(training)
    if n < 1:
        raise ValueError("conformal_pvalue requires at least one training observation")
    tau = _check_tau(tau)
    members = range(n)
    if taxonomy is not None:
        labels = taxonomy(list(training) + [candidate])
        if len(labels) != n + 1:
            raise ValueError("taxonomy must label all n + 1 observations")
        members = [i for i in members if labels[i] == labels[n]]
    seq, cand = _extend(training, candidate, thetas)
    kwargs = {} if rng is None else {"rng": rng}
    cand_score = measure(seq, cand, **kwargs)
    less = 0
    tied = 1
    for i in members:
        score = measure(seq[:i] + seq[i + 1 :] + [cand], seq[i], **kwargs)
        if score < cand_score:
            less += 1
        elif score == cand_score:
            tied += 1
    return (less + tau * tied) / (len(members) + 1)


def mondrian_pvalue(
    taxonomy,
    measure,
    training: Sequence[Observation],
    candidate: Observation,
    tau: float,
    thetas: Sequence[float] | None = None,
    rng: RandomStream | None = None,
) -> float:
    """``conformal_pvalue`` restricted to the candidate's taxonomy class."""
    return conformal_pvalue(measure, training, candidate, tau, thetas, rng, taxonomy)


def _group(values) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in increasing order, and the counts below them.

    Returns ``(jumps, below)`` where ``below[k]`` counts the values less than
    ``jumps[k]`` and the extra last entry ``below[-1]`` counts them all.  The
    sort is stable, so of equal values ``-0.0`` and ``0.0`` the first given
    becomes the jump.
    """
    v = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    first = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return v[starts], np.concatenate((starts, [len(v)]))


def _rank_band(points) -> PredictiveBand:
    """Band of the rank p-value whose score crossings sit at ``points``.

    With ``n`` crossing points (a multiset) the value on an open interval
    containing no point is ``[c, c + 1] / (n + 1)`` where ``c`` counts points
    below, and at a point of multiplicity ``m`` it widens to
    ``[c, c + m + 1] / (n + 1)``.
    """
    jumps, below = _group(points)
    den = int(below[-1]) + 1
    lower, upper = below / den, (below + 1) / den
    return PredictiveBand(jumps, lower, upper, lower[:-1], upper[1:])


def _ecdf_band(values) -> PredictiveBand:
    """Right-continuous empirical distribution function as a degenerate band."""
    if len(values) == 0:
        raise ValueError("empirical distribution needs at least one value")
    jumps, below = _group(values)
    plats = below / int(below[-1])
    return PredictiveBand(jumps, plats, plats, plats[1:], plats[1:])


def _cells(training: Columns, x) -> tuple[np.ndarray, float]:
    """Cell of every training predictor and of ``x``, at width ``h_schedule(n)``."""
    h = h_schedule(len(training))
    cells = cell_indices(scalar_column(training), h)
    return cells, cell_indices([scalar_predictor(x)], h)[0]


def _in_cell_responses(training, x) -> np.ndarray:
    cols = as_columns(training)
    cells, c_test = _cells(cols, x)
    return cols.ys[cells == c_test]


def dh_band(responses) -> PredictiveBand:
    """Predictive band built from response ranks alone, ignoring predictors.

    Distinct responses give plateaus ``[i, i + 1] / (n + 1)`` between sorted
    responses and widened values ``[i - 1, i + 1] / (n + 1)`` at them; tied
    responses merge jumps with their multiplicities.  Agrees with
    ``conformal_pvalue(trivial_score, ...)`` at every ``(y, tau)``.
    """
    if len(responses) < 1:
        raise ValueError("dh_band requires at least one response")
    return _rank_band(responses)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and the rows of ``b``.

    Summed over columns left to right, as ``_sq_dist`` sums them, so that
    distances equal there are equal here.
    """
    out = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        out += diff * diff
    return out


# The distance matrix is built in row blocks of about 2**20 entries (8 MB),
# so that memory does not grow as n**2.
_NN_BLOCK_DISTANCES = 1 << 20


def nn_band(
    training: Sequence[Observation] | Columns, x, stream: RandomStream
) -> PredictiveBand:
    """Predictive band of the nearest-neighbour residual system at ``x``.

    The band's jumps sit at the score crossings: for training points whose
    predictor is strictly closer to ``x`` than to any other training
    predictor the crossing is the midpoint of their response with the
    nearest-neighbour estimate at ``x``; for the rest it is that estimate
    shifted by their own nearest-neighbour residual.  Distance ties are
    broken uniformly via ``stream`` (estimate first, then residuals in index
    order), and ``stream`` is drawn from only at a tie.  Agrees with
    ``conformal_pvalue(nn_score, ...)`` at every ``(y, tau)`` off the jumps.
    """
    if len(training) < 1:
        raise ValueError("nn_band requires at least one training observation")
    cols = as_columns(training)
    xs, ys, n = cols.xs, cols.ys, len(cols)
    xq = np.array(Observation(x, 0.0).x)
    if len(xq) != cols.d:
        raise ValueError(f"x has dimension {len(xq)}, training predictors have {cols.d}")
    to_test = _sq_dists(xs, xq[None, :])[:, 0]
    y_hat = _pick_response(ys[to_test == to_test.min()].tolist(), stream)
    crossings = np.empty(n)
    block = max(1, _NN_BLOCK_DISTANCES // n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dist = _sq_dists(xs[lo:hi], xs)
        rows = np.arange(hi - lo)
        dist[rows, rows + lo] = np.inf  # a point is not its own neighbour
        min_other = dist.min(axis=1)
        y = ys[lo:hi]
        # Halving first keeps the midpoint finite for any two finite
        # responses; halving normal doubles is exact, so elsewhere this
        # equals (y_hat + y) / 2.
        crossings[lo:hi] = y_hat / 2.0 + y / 2.0
        # Rows no nearer to x than to another training point: residual crossings.
        far = np.flatnonzero(to_test[lo:hi] >= min_other)
        nearest = dist[far] == min_other[far, None]
        y_nn = ys[nearest.argmax(axis=1)]
        for k in np.flatnonzero(nearest.sum(axis=1) > 1):
            y_nn[k] = _pick_response(ys[nearest[k]].tolist(), stream)
        with np.errstate(over="ignore"):  # an infinite crossing fails validation
            crossings[lo + far] = y_hat + (y[far] - y_nn)
    return _rank_band(crossings)


def hmps_band(training: Sequence[Observation] | Columns, x) -> PredictiveBand:
    """Cell-conditional response-rank band at scalar predictor ``x``.

    Only training observations falling in the dyadic cell of ``x`` (width
    ``h_schedule(n)``) enter; with ``N`` of them the band is the rank band
    with denominator ``N + 1``.  An empty cell leaves only the candidate in
    its class, giving ``Q_tau identically tau``.
    """
    if len(training) < 1:
        raise ValueError("hmps_band requires at least one training observation")
    return _rank_band(_in_cell_responses(training, x))


def pfs_distribution(training: Sequence[Observation] | Columns, x) -> PredictiveBand:
    """Empirical distribution of in-cell responses; a point mass at 0 if none.

    The result is a genuine right-continuous distribution function (lower and
    upper coincide; no randomization slack).
    """
    if len(training) < 1:
        raise ValueError("pfs_distribution requires at least one training observation")
    in_cell = _in_cell_responses(training, x)
    return _ecdf_band(in_cell if len(in_cell) else [0.0])


def venn_distribution(
    taxonomy, training: Sequence[Observation], x, u: float
) -> PredictiveBand:
    """Distribution function of class responses under postulated response ``u``.

    The test observation ``(x, u)`` is appended, its taxonomy class formed,
    and the empirical distribution of the responses in that class (including
    ``u`` itself) returned.  For response-blind taxonomies the class is the
    same for every ``u``, and distribution functions for different ``u``
    differ by at most ``1 / class size`` pointwise.
    """
    n = len(training)
    if n < 1:
        raise ValueError("venn_distribution requires at least one training observation")
    test = Observation(x, u)
    seq = list(training) + [test]
    labels = taxonomy(seq)
    if len(labels) != n + 1:
        raise ValueError("taxonomy must label all n + 1 observations")
    class_responses = [o.y for o, lab in zip(seq, labels) if lab == labels[n]]
    return _ecdf_band(class_responses)


def band_from_pvalue(
    jump_candidates: Sequence[float],
    pvalue: Callable[[float, float], float],
) -> PredictiveBand:
    """Band extracted from a p-value callable ``pvalue(y, tau)``.

    Exact (not a grid approximation) whenever the p-value is constant between
    the candidate jump locations, which holds for rank transducers probed at
    their score-crossing points.  Plateaus are probed at the next double
    beyond each end and at ``a/2 + b/2`` between neighbours ``a < b``, which
    stays finite near the largest doubles.  Candidates that change nothing
    are dropped.
    """
    def q01(y: float) -> tuple[float, float]:
        return pvalue(y, 0.0), pvalue(y, 1.0)

    jumps = sorted(set(float(j) for j in jump_candidates))
    if not jumps:
        lo, hi = q01(0.0)
        return PredictiveBand((), (lo,), (hi,), (), ())
    probes = [math.nextafter(jumps[0], -math.inf)]
    probes += [a / 2.0 + b / 2.0 for a, b in zip(jumps, jumps[1:])]
    probes.append(math.nextafter(jumps[-1], math.inf))
    plats = [q01(p) for p in probes]
    at = [q01(j) for j in jumps]
    out_jumps: list[float] = []
    out_lower: list[float] = [plats[0][0]]
    out_upper: list[float] = [plats[0][1]]
    out_ajl: list[float] = []
    out_aju: list[float] = []
    for k, j in enumerate(jumps):
        left, right, here = plats[k], plats[k + 1], at[k]
        if left == right == here:
            continue  # nothing changes here; merge the plateaus
        out_jumps.append(j)
        out_lower.append(right[0])
        out_upper.append(right[1])
        out_ajl.append(here[0])
        out_aju.append(here[1])
    return PredictiveBand(
        tuple(out_jumps), tuple(out_lower), tuple(out_upper), tuple(out_ajl), tuple(out_aju)
    )


def hcps_band(
    training: Sequence[Observation] | Columns,
    x,
    thetas: Sequence[float] | None = None,
    stream: RandomStream | None = None,
) -> PredictiveBand:
    """Band of the rank p-value driven by the in-cell rank score at ``x``.

    Tie-break numbers ``thetas`` (length ``n + 1``; drawn from ``stream`` when
    omitted) make scores almost surely distinct.  The band's jumps are a
    subset of the in-cell responses of the cell of ``x`` (plus 0 when the
    cell is empty); between consecutive in-cell responses every score is
    constant, so the construction is exact.  Agrees with
    ``conformal_pvalue(histogram_score, ...)`` at every ``(y, tau)``.

    One sorted sweep builds it.  Let ``m`` training points share the test
    cell.  For a candidate response ``y`` strictly between in-cell
    responses, with ``B`` of them below, the candidate scores ``B/m``, and
    of the in-cell points exactly the ``B`` below score less and none tie.
    At an in-cell response ``v`` held by the group ``G``, with ``B`` below
    ``v``, the candidate scores ``(B + #{theta_i <= theta_cand in G}) / m``;
    the points below ``v`` and those of ``G`` with a smaller ``theta`` score
    less, and those of ``G`` with an equal ``theta`` tie.  Scores outside
    the test cell do not depend on ``y`` and are counted by binary search.

    Score keys are the doubles ``a / N``, compared as floats, and they
    compare exactly as the rationals do.  Integer division is correctly
    rounded, so equal rationals (``1/2`` and ``2/4``) give the same double.
    Distinct ones with denominators at most ``2**26`` differ by at least
    ``2**-52``, more than the spacing of doubles in ``[0, 1]``, so they
    round to distinct doubles in the same order.  ``histogram_score``
    divides the same integers the same way, and ``N <= n``.
    """
    n = len(training)
    if n < 1:
        raise ValueError("hcps_band requires at least one training observation")
    if thetas is None:
        if stream is None:
            raise ValueError("hcps_band needs tie-break numbers or a stream")
        thetas = stream.uniforms(n + 1)
    thetas = np.array(thetas, dtype=np.float64).ravel()
    if len(thetas) != n + 1:
        raise ValueError(f"need {n + 1} tie-break numbers, got {len(thetas)}")
    cols = as_columns(training)
    cells, c_test = _cells(cols, x)
    in_test = cells == c_test
    theta_cand = thetas[n]
    den = n + 1

    # Scores outside the test cell: the in-cell rank a (cell mates whose
    # (y, theta) pair is <= one's own) over N = cell size - 1, or the sign
    # rule when N = 0.  Floats, divided as histogram_score divides them.
    out = ~in_test
    c, y, t = cells[out], cols.ys[out], thetas[:n][out]
    order = np.lexsort((t, y, c))
    c, y, t = c[order], y[order], t[order]
    new_cell = np.ones(len(c), dtype=bool)
    np.not_equal(c[1:], c[:-1], out=new_cell[1:])
    new_pair = new_cell.copy()
    new_pair[1:] |= (y[1:] != y[:-1]) | (t[1:] != t[:-1])
    cell_start = np.flatnonzero(new_cell)
    cell_of = np.cumsum(new_cell) - 1
    pair_end = np.concatenate((np.flatnonzero(new_pair)[1:], [len(c)]))
    rank = pair_end[np.cumsum(new_pair) - 1] - cell_start[cell_of] - 1
    mates = np.diff(np.concatenate((cell_start, [len(c)])))[cell_of] - 1
    keys = np.where(
        mates > 0, rank / np.maximum(mates, 1), np.where(y >= 0, 1.0, 0.0)
    )
    out_keys = np.sort(keys)

    def band_values(less, tied, key):
        lo = np.searchsorted(out_keys, key, side="left")
        hi = np.searchsorted(out_keys, key, side="right")
        less = less + lo
        return less / den, (less + tied + (hi - lo) + 1) / den

    yc, tc = cols.ys[in_test], thetas[:n][in_test]
    m = len(yc)
    if m:
        order = np.argsort(yc, kind="stable")
        yc, tc = yc[order], tc[order]
        jumps, below = _group(yc)
        starts = below[:-1]
        less_g = np.add.reduceat(tc < theta_cand, starts)
        tied_g = np.add.reduceat(tc == theta_cand, starts)
        p0, p1 = band_values(below, 0, below / m)
        a0, a1 = band_values(starts + less_g, tied_g, (starts + less_g + tied_g) / m)
    else:
        # Empty test cell: the candidate scores by the sign rule alone.
        jumps = np.zeros(1)
        p0, p1 = band_values(np.zeros(2, dtype=np.int64), 0, np.array([0.0, 1.0]))
        a0, a1 = band_values(np.zeros(1, dtype=np.int64), 0, np.ones(1))
    # A jump across which nothing changes merges its two plateaus.
    keep = ~(
        (p0[:-1] == p0[1:]) & (p1[:-1] == p1[1:]) & (a0 == p0[1:]) & (a1 == p1[1:])
    )
    return PredictiveBand(
        jumps[keep],
        np.append(p0[0], p0[1:][keep]),
        np.append(p1[0], p1[1:][keep]),
        a0[keep],
        a1[keep],
    )
