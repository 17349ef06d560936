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

The conformal systems also have online forms (``dh_online``, ``nn_online``,
``hcps_online``) over rows ``0..k``: at step ``n = 1..k`` rows ``0..n-1``
train and row ``n`` is the test row.  Each returns two int64 arrays of step
counts, ``less`` (scores below the candidate's) and ``upto`` (scores at or
below it, the candidate's included): the step's band takes the values
``less / (n + 1)`` and ``upto / (n + 1)`` at the test response.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .core import (
    Columns,
    ExtendedObservation,
    Observation,
    PredictiveBand,
    RandomStream,
    as_columns,
)
from .conformity import _pick_response, _pick_sorted
from .partition import cell_indices, h_schedule, scalar_column, scalar_predictor

__all__ = [
    "conformal_pvalue",
    "mondrian_pvalue",
    "dh_band",
    "dh_online",
    "nn_band",
    "nn_online",
    "hmps_band",
    "hcps_band",
    "hcps_online",
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
    ``jumps[k]`` and the extra last entry ``below[-1]`` counts them all.  Of
    equal values ``-0.0`` and ``0.0`` the first given becomes the jump, as
    with a stable sort.
    """
    values = np.asarray(values, dtype=np.float64)
    v = np.sort(values)
    first = np.ones(len(v) + 1, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=first[1:-1])
    below = np.flatnonzero(first)
    jumps = v[below[:-1]]
    # The sort may put -0.0 and 0.0 in either order.
    z = jumps.searchsorted(0.0)
    if z < len(jumps) and jumps[z] == 0.0:
        jumps[z] = values[(values == 0.0).argmax()]
    return jumps, below


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank ``0, 1, ...`` of each value among the distinct values (equal
    values rank together), and the number of distinct values."""
    order = values.argsort()
    v = values[order]
    step = np.empty(len(v), dtype=np.int64)
    step[:1] = 0
    np.not_equal(v[1:], v[:-1], out=step[1:])
    ranks = np.empty_like(step)
    ranks[order] = step.cumsum()
    return ranks, len(v) and int(ranks[order[-1]]) + 1


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
    return PredictiveBand._adopt(jumps, lower, upper, lower[:-1], upper[1:])


def _ecdf_band(values) -> PredictiveBand:
    """Right-continuous empirical distribution function as a degenerate band."""
    if len(values) == 0:
        raise ValueError("empirical distribution needs at least one value")
    jumps, below = _group(values)
    plats = below / int(below[-1])
    return PredictiveBand._adopt(jumps, plats, plats, plats[1:], plats[1:])


def _cells(training: Columns, x) -> tuple[np.ndarray, float]:
    """Cell of every training predictor and of ``x``, at width ``h_schedule(n)``."""
    h = h_schedule(len(training))
    cells = cell_indices(np.append(scalar_column(training), scalar_predictor(x)), h)
    return cells[:-1], cells[-1]


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


def dh_online(responses) -> tuple[np.ndarray, np.ndarray]:
    """Online counts of ``dh_band``: how many of the responses before each
    one lie below it, and at or below it.  They are counted in blocks of
    about ``sqrt(len(responses))``, against the sorted earlier blocks by
    binary search and within the block by comparing every pair."""
    ys = np.asarray(responses, dtype=np.float64)
    k = len(ys)
    b = int(k**0.5) + 1
    earlier = np.tri(b, k=-1, dtype=bool)  # earlier[i, j]: j comes before i
    less, at_or_below = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    seen = ys[:0]
    for s in range(0, k, b):
        block = ys[s : s + b]
        e = earlier[: len(block), : len(block)]
        below = block[None, :] < block[:, None]
        less[s : s + b] = seen.searchsorted(block) + (e & below).sum(axis=1)
        at_or_below[s : s + b] = seen.searchsorted(block, "right") + (e & ~below.T).sum(axis=1)
        seen = np.sort(np.concatenate((seen, block)))
    return less[1:], at_or_below[1:] + 1


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and the rows of ``b``.

    Summed over columns left to right, as ``_sq_dist`` sums them, so that
    distances equal there are equal here.
    """
    out = a[:, 0, None] - b[None, :, 0]
    out *= out
    for k in range(1, a.shape[1]):
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
    # A squared distance may overflow to inf, which still compares exactly;
    # an infinite crossing fails validation.
    with np.errstate(over="ignore"):
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
            crossings[lo + far] = y_hat + (y[far] - y_nn)
    return _rank_band(crossings)


# ``nn_online`` takes its steps in blocks of at most 64 steps and about 2**17
# distances (1 MB), so that memory does not grow as steps**2.  Larger blocks
# were measured no faster.  While the training rows are few, a long block
# changes the nearest rows of most of them, and the running minimum then
# covers most rows.  In a fresh process, blocks of 2**20 distances made
# 10^4 steps take 0.63 s instead of 0.40 s on a 2-vCPU shared host, with
# 7 times the page faults.
_NN_ONLINE_BLOCK_DISTANCES = 1 << 17
_NN_ONLINE_BLOCK_STEPS = 64


def nn_online(training: Columns, stream: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Online counts of ``nn_band``, from per-row nearest-neighbour state,
    a block of steps at a time.

    Row ``i`` keeps ``near[i]``, its squared distance to its nearest other
    rows so far (inf, itself included, while none is nearer, as in
    ``nn_band``'s distance rows), ``first[i]``, the first of them, and in
    ``tied`` all their responses, kept sorted, when there are several.  A
    block takes the distances from all its test rows to all earlier rows at
    once.  A row changes state within the block only at a distance at or
    below its ``near``, and draws only while it has ties; for such rows the
    running minimum over the block's steps gives the state before each step
    (the last strictly nearer test row is the first nearest, and the equally
    near ones since then are its ties).  Every other row keeps its state.
    Ties draw from ``stream`` as ``nn_band`` draws, step by step, the
    estimate first and then the rows in index order; the draws are the only
    events taken one at a time.
    """
    xs, ys, k = training.xs, training.ys, len(training)
    responses = ys.tolist()
    near, first = np.full(k, np.inf), np.arange(k)
    tied: dict[int, list[float]] = {}
    less, upto = np.empty(k - 1, dtype=np.int64), np.empty(k - 1, dtype=np.int64)
    s = 1
    # Distances may overflow to inf as in ``nn_band``; only the crossings in
    # use must be finite.
    with np.errstate(over="ignore"):
        while s < k:
            # Steps s..e-1 against rows 0..m-1, m = e-1: the most steps whose
            # (steps x rows) distances fit the bound.
            size = (math.isqrt((s - 1) ** 2 + 4 * _NN_ONLINE_BLOCK_DISTANCES) - s + 1) // 2
            e = min(k, s + max(1, min(size, _NN_ONLINE_BLOCK_STEPS)))
            steps, m, at = np.arange(s, e), e - 1, np.arange(e - s)
            dist = _sq_dists(xs[s:e], xs[:m])
            # Rows at or after a step do not train it.
            later = ~np.tri(e - s, m - s, -1, dtype=bool)
            np.copyto(dist[:, s:], np.inf, where=later)
            hit = dist.argmin(axis=1)
            nearest = dist[at, hit]
            dist[at, hit] = np.inf
            second = dist.min(axis=1)
            dist[at, hit] = nearest
            overflow = nearest == np.inf
            # Whether the estimate draws, and whether the test row joins the
            # training rows with several nearest rows (itself among them when
            # they are at inf).
            several = np.where(overflow, steps > 1, second == nearest)
            joins_tied = several | overflow
            near[s:e], first[s:e] = nearest, hit

            # ``rows``: those that may change state or draw in the block.
            moves = (dist <= near[:m]).any(axis=0)
            moves[list(tied)] = True
            moves[s:] |= joins_tied[:-1]
            rows = np.flatnonzero(moves)
            sub = dist[:, rows]
            run = np.empty((e - s + 1, len(rows)))
            run[0], run[1:] = near[rows], sub
            np.minimum.accumulate(run, axis=0, out=run)
            trains = rows < steps[:, None]
            closer, even = sub < run[:-1], (sub == run[:-1]) & trains
            # One past the last step whose test row was strictly nearer, or
            # 0, and so the first nearest row, before each step and after the
            # block.
            since = np.zeros((e - s + 1, len(rows)), dtype=np.intp)
            np.multiply(closer, at[:, None] + 1, out=since[1:])
            np.maximum.accumulate(since, axis=0, out=since)
            first_rows = np.where(since > 0, s - 1 + since, first[rows])
            residual = ys[:m] - ys[first[:m]]
            rows_residual = ys[rows] - ys[first_rows[:-1]]
            y_hat = ys[hit]

            def crossings_at(b):
                """Crossings of the steps ``s + b`` (an index array), NaN
                where a row does not train the step."""
                yh = y_hat[b, None]
                out = yh + residual
                out[:, rows] = yh + rows_residual[b]
                cb, cj = np.nonzero(closer[b])
                # Halving first keeps the midpoint finite, as in ``nn_band``.
                out[cb, rows[cj]] = yh[cb, 0] / 2.0 + ys[rows[cj]] / 2.0
                np.copyto(out[:, s:], np.nan, where=later[b])
                return out

            def joined(i):
                """Responses of the nearest rows of row ``i`` as it joins."""
                j = i - s
                itself = [responses[i]] if overflow[j] else []
                return sorted(ys[:i][dist[j, :i] == nearest[j]].tolist() + itself)

            # ``ties``: the rows that may hold several nearest rows, with
            # those they hold as the block starts, and how many they hold
            # before each step and after the block.
            held = {j: tied.pop(i) if i < s else joined(i) for j, i in enumerate(rows.tolist())
                    if i in tied or i >= s and joins_tied[i - s]}
            tying = even.any(axis=0)
            tying[list(held)] = True
            ties = np.flatnonzero(tying)
            since_tied = since[:, ties]
            evens_before = np.zeros((e - s + 1, len(ties)), dtype=np.intp)
            np.cumsum(even[:, ties], axis=0, out=evens_before[1:])
            base = np.array([len(held.get(j, ())) or 1 for j in ties.tolist()], dtype=np.intp)
            count = (np.where(since_tied > 0, 1, base) + evens_before
                     - np.take_along_axis(evens_before, since_tied, axis=0))
            # Their nearest rows, brought up to date as the draws come in
            # step order: since the last reset, the equally near test rows.
            tie_rows = rows[ties].tolist()
            lists = [held.get(j) or [responses[first[i]]] for j, i in zip(ties.tolist(), tie_rows)]
            listed_since, listed = [0] * len(ties), [0] * len(ties)
            even_steps = {}

            def nearest_of(b, t, first_step):
                """Responses of the nearest rows of ``tie_rows[t]`` before step
                ``s + b``, when the test rows that tie with it start at step
                ``s + first_step``."""
                if t not in even_steps:
                    even_steps[t] = np.flatnonzero(even[:, ties[t]]).tolist()
                u = even_steps[t]
                if first_step != listed_since[t]:
                    listed_since[t] = first_step
                    lists[t] = [responses[s + first_step - 1]]
                    listed[t] = bisect.bisect_left(u, first_step)
                while listed[t] < len(u) and u[listed[t]] < b:
                    bisect.insort(lists[t], responses[s + u[listed[t]]])
                    listed[t] += 1
                return lists[t]

            crossings = crossings_at(at)
            bad = np.isinf(crossings).any(axis=1)
            draws = (count[:-1] > 1) & ~closer[:, ties] & trains[:, ties]
            draw_steps, draw_ties = np.nonzero(draws)
            event = several.copy()
            event[draw_steps] = True
            event_steps = np.flatnonzero(event).tolist()
            bounds = np.searchsorted(draw_steps, event_steps + [e - s]).tolist()
            draw_ties = draw_ties.tolist()
            for b, lo, hi in zip(event_steps, bounds, bounds[1:]):
                # A step draws only once the earlier ones passed the check.
                if bad[:b].any():
                    break
                if several[b]:
                    n = s + b
                    y_hat[b] = _pick_response(ys[:n][dist[b, :n] == nearest[b]].tolist(), stream)
                    crossings[b] = crossings_at(np.array([b]))
                yh, first_steps = float(y_hat[b]), since_tied[b].tolist()
                drawn = draw_ties[lo:hi]
                crossings[b, [tie_rows[t] for t in drawn]] = [
                    yh + (responses[tie_rows[t]]
                          - _pick_sorted(nearest_of(b, t, first_steps[t]), stream))
                    for t in drawn
                ]
                bad[b] = np.isinf(crossings[b]).any()
            if bad.any():
                raise ValueError(
                    f"a nearest-neighbour crossing overflows at step {s + int(bad.argmax())}"
                )
            # Bytes summed in uint32 count faster than booleans in int64.
            y_test = ys[s:e, None]
            below = (crossings < y_test).view(np.uint8)
            at_or_below = (crossings <= y_test).view(np.uint8)
            less[s - 1 : e - 1] = np.add.reduce(below, axis=1, dtype=np.uint32)
            upto[s - 1 : e - 1] = np.add.reduce(at_or_below, axis=1, dtype=np.uint32) + 1
            near[rows], first[rows] = run[-1], first_rows[-1]
            first_steps = since_tied[-1].tolist()
            for t in np.flatnonzero(count[-1] > 1).tolist():
                tied[tie_rows[t]] = nearest_of(e - s, t, first_steps[t])
            if joins_tied[-1]:
                tied[e - 1] = joined(e - 1)
            s = e
    return less, upto


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
    taxonomy, training: Sequence[Observation] | Columns, x, u: float
) -> PredictiveBand:
    """Distribution function of class responses under postulated response ``u``.

    The test observation ``(x, u)`` is appended, its taxonomy class formed,
    and the empirical distribution of the responses in that class (including
    ``u`` itself) returned.  For response-blind taxonomies the class is the
    same for every ``u``, and distribution functions for different ``u``
    differ by at most ``1 / class size`` pointwise.  With ``Columns`` the
    taxonomy labels the ``n + 1`` rows as ``Columns``, as
    ``histogram_taxonomy`` does.
    """
    n = len(training)
    if n < 1:
        raise ValueError("venn_distribution requires at least one training observation")
    test = Observation(x, u)
    if isinstance(training, Columns):
        seq = Columns._adopt(np.vstack((training.xs, [test.x])), np.append(training.ys, test.y))
    else:
        seq = list(training) + [test]
    labels = taxonomy(seq)
    if len(labels) != n + 1:
        raise ValueError("taxonomy must label all n + 1 observations")
    if isinstance(seq, Columns):
        return _ecdf_band(seq.ys[np.asarray(labels) == labels[n]])
    return _ecdf_band([o.y for o, lab in zip(seq, labels) if lab == labels[n]])


def _cell_rank_keys(c: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sorted ``histogram_score`` keys of points with cells ``c``, responses
    ``y`` and tie-break numbers ``t``, each scored within its own cell.

    ``hcps_band`` keys only the cells that hold a repeated ``(y, t)`` pair
    this way; it counts every other cell from its size.  A point's key is
    its rank ``a`` (cell mates, itself included, whose ``(y, t)`` pair is <=
    its own, less one) over ``N = cell size - 1``, or the sign rule when
    ``N = 0``, divided as ``histogram_score`` divides.  The points are sorted
    by ``(cell, y)`` through one key of dense ranks, below ``len(c) ** 2``;
    when ``y`` has ties, each run of equal ``(cell, y)`` is then ordered by
    ``t``.
    """
    rc, _ = _dense_ranks(c)
    ry, ky = _dense_ranks(y)
    cy = rc * ky + ry
    order = cy.argsort()
    cy = cy[order]
    if ky < len(y):
        edge = np.zeros(len(cy) + 1, dtype=bool)
        np.equal(cy[1:], cy[:-1], out=edge[1:-1])
        tied = np.flatnonzero(edge[1:] | edge[:-1])
        run, _ = _dense_ranks(cy[tied])
        rt, kt = _dense_ranks(t[order[tied]])
        order[tied] = order[tied[(run * kt + rt).argsort()]]
    rc, y, t = rc[order], y[order], t[order]
    # Starts of cells and of equal (cell, y, t) triples, and an end mark; a
    # running count of starts numbers each point's cell and triple.
    new_cell = np.ones(len(rc) + 1, dtype=bool)
    np.not_equal(rc[1:], rc[:-1], out=new_cell[1:-1])
    new_triple = new_cell.copy()
    new_triple[1:-1] |= (cy[1:] != cy[:-1]) | (t[1:] != t[:-1])
    cell_bounds, cell_of = np.flatnonzero(new_cell), new_cell[:-1].cumsum()
    start = cell_bounds[cell_of - 1]
    rank = np.flatnonzero(new_triple)[new_triple[:-1].cumsum()] - start - 1
    mates = cell_bounds[cell_of] - start - 1
    return np.sort(np.where(mates > 0, rank, y >= 0) / np.maximum(mates, 1))


# The size counts take the (cell sizes x keys) products in blocks of about
# 2**20 entries (8 MB), so that memory does not grow as their product.
_HCPS_BLOCK_COUNTS = 1 << 20


def _out_of_cell_counts(c, y, t, m: int) -> tuple[np.ndarray, np.ndarray]:
    """How many of the keys of the points with cells ``c``, responses ``y``
    and tie-break numbers ``t``, each scored within its own cell, lie below
    ``a / m`` and at or below it, as two int64 arrays indexed by
    ``a = 0..m``.

    A cell of ``N + 1 >= 2`` points without a repeated ``(y, t)`` pair holds
    the keys ``r / N``, ``r = 0..N``: ``ceil(a * N / m)`` of them lie below
    ``a / m`` and ``floor(a * N / m) + 1`` at or below it, so these cells are
    counted once per distinct size.  A singleton's key is 1 when ``y >= 0``
    (``-0.0`` included) and 0 otherwise.  A repeated pair needs a repeated
    ``t``; only the cells holding one are keyed by ``_cell_rank_keys`` and
    counted by binary search.
    """
    a = np.arange(m + 1)
    below, upto = np.zeros(m + 1, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
    ts = np.sort(t)
    repeated = ts[1:][ts[1:] == ts[:-1]]
    if len(repeated):
        # Cells with a repeated (y, t) pair, among the points whose t repeats.
        pick = np.isin(t, repeated)
        pc, py, pt = c[pick], y[pick], t[pick]
        order = np.lexsort((pt, py, pc))
        pc, py, pt = pc[order], py[order], pt[order]
        pair_cells = pc[1:][(pc[1:] == pc[:-1]) & (py[1:] == py[:-1]) & (pt[1:] == pt[:-1])]
        if len(pair_cells):
            ranked = np.isin(c, pair_cells)
            keys = _cell_rank_keys(c[ranked], y[ranked], t[ranked])
            below += keys.searchsorted(a / m)
            upto += keys.searchsorted(a / m, "right")
            c, y = c[~ranked], y[~ranked]
    order = c.argsort()
    cs = c[order]
    bounds = np.ones(len(c) + 1, dtype=bool)
    np.not_equal(cs[1:], cs[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    sizes = np.diff(bounds)
    ones = np.count_nonzero(y[order[bounds[:-1][sizes == 1]]] >= 0)
    cells_of_size = np.bincount(sizes, minlength=2)
    zeros = cells_of_size[1] - ones
    below[1:] += zeros
    upto += zeros
    upto[m] += ones
    s = np.flatnonzero(cells_of_size[2:]) + 2
    w = cells_of_size[s]
    block = max(1, _HCPS_BLOCK_COUNTS // max(len(s), 1))
    for lo in range(0, len(a), block):
        q = (s[:, None] - 1) * a[None, lo : lo + block]  # a * N <= n**2
        below[lo : lo + block] += w @ ((q + (m - 1)) // m)
        upto[lo : lo + block] += w @ (q // m)
    return below, upto + w.sum()


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
    the test cell do not depend on ``y``, and neither do their counts below
    and at or below each candidate key ``a / m``.

    Those counts are exact integer comparisons: a cell of ``N + 1`` points
    without a repeated ``(y, theta)`` pair holds the keys ``r / N``, and
    ``r / N < a / m`` exactly when ``r * m < a * N``.  As ``a * N <= n**2``,
    this holds in int64 for ``n`` below about ``3 * 10**9``.  Only cells with
    a repeated pair, which tied tie-break numbers alone can give, are keyed
    as doubles ``a / N`` and counted by binary search.  These compare exactly
    as the rationals do: integer division is correctly rounded, so equal
    rationals (``1/2`` and ``2/4``) give the same double, and distinct ones
    with denominators at most ``2**26`` differ by at least ``2**-52``, more
    than the spacing of doubles in ``[0, 1]``, so they round to distinct
    doubles in the same order.  ``histogram_score`` divides the same
    integers the same way, and ``N <= n``.
    """
    n = len(training)
    if n < 1:
        raise ValueError("hcps_band requires at least one training observation")
    if thetas is None:
        if stream is None:
            raise ValueError("hcps_band needs tie-break numbers or a stream")
        thetas = stream.uniforms(n + 1)
    thetas = np.asarray(thetas, dtype=np.float64).ravel()
    if len(thetas) != n + 1:
        raise ValueError(f"need {n + 1} tie-break numbers, got {len(thetas)}")
    cols = as_columns(training)
    cells, c_test = _cells(cols, x)
    in_test = cells == c_test
    theta_cand = thetas[n]
    yc, tc = cols.ys[in_test], thetas[:n][in_test]
    m = len(yc)
    # In-cell points below the candidate and tied with it, and the
    # candidate's key a / m: on the plateaus, then at the jumps.
    if m:
        jumps, below = _group(yc)
        tc = tc[yc.argsort()]
        starts = below[:-1]
        less = np.concatenate((below, starts + np.add.reduceat(tc < theta_cand, starts)))
        tied = np.concatenate(
            (np.zeros(len(below), dtype=np.int64), np.add.reduceat(tc == theta_cand, starts))
        )
        a = less + tied
    else:
        # Empty test cell: the candidate scores by the sign rule alone.
        jumps, less, tied, a = np.zeros(1), np.zeros(3, dtype=np.int64), 0, np.array([0, 1, 1])
    out = ~in_test
    out_below, out_upto = _out_of_cell_counts(
        cells[out], cols.ys[out], thetas[:n][out], max(m, 1)
    )
    den = n + 1
    lo, hi = (less + out_below[a]) / den, (less + tied + 1 + out_upto[a]) / den
    p0, a0 = lo[: len(jumps) + 1], lo[len(jumps) + 1 :]
    p1, a1 = hi[: len(jumps) + 1], hi[len(jumps) + 1 :]
    # A jump across which nothing changes merges its two plateaus.
    keep = ~(
        (p0[:-1] == p0[1:]) & (p1[:-1] == p1[1:]) & (a0 == p0[1:]) & (a1 == p1[1:])
    )
    plateaus = np.concatenate(([True], keep))
    return PredictiveBand._adopt(jumps[keep], p0[plateaus], p1[plateaus], a0[keep], a1[keep])


def hcps_online(training: Columns, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Online counts of ``hcps_band``, from per-cell sorted ``(y, theta)`` lists.

    The cells are rebuilt whenever ``h_schedule`` halves (at ``n = 8**k``).
    Of the ``m`` pairs in the test cell, ``lo`` lie below the candidate's
    and ``hi`` at or below it; its key is ``a / m = hi / m``, or ``a / 1`` by
    the sign rule in an empty cell.  The step's counts are ``lo`` and
    ``hi + 1`` plus the keys below, and at or below, ``a / m`` of the other
    cells, as ``hcps_band`` keys them.  A cell of ``N + 1`` points without
    duplicate pairs holds the keys ``r / N``, ``r = 0..N``, so its counts
    (``r * m < a * N``, exactly) depend on its size alone and are taken once
    per distinct size.  Cells with duplicate pairs are counted by rank.
    """
    x_col, ys = scalar_column(training), training.ys.tolist()
    ts = np.asarray(thetas, dtype=np.float64).tolist()
    k = len(ys)
    less, upto = np.empty(k - 1, dtype=np.int64), np.empty(k - 1, dtype=np.int64)
    h = pairs = sizes = singles = dup = None

    def tally(c, lst, sign):
        # Singletons by sign, other cells without duplicates by size.
        if len(lst) == 1:
            singles[lst[0][0] >= 0] += sign
        elif c not in dup:
            s = len(lst)
            sizes[s] = sizes.get(s, 0) + sign
            if not sizes[s]:
                del sizes[s]

    def key_counts(lst, c, a, m):
        # Keys of the points of one cell below a / m, and at or below it.
        if len(lst) == 1:
            key = int(lst[0][0] >= 0)
            return int(key * m < a), int(key * m <= a)
        q = a * (len(lst) - 1)
        if c not in dup:
            return -(-q // m), q // m + 1
        ranks = [bisect.bisect_right(lst, p) - 1 for p in lst]
        return sum(r * m < q for r in ranks), sum(r * m <= q for r in ranks)

    for n in range(1, k):
        if h_schedule(n) != h:
            h = h_schedule(n)
            # Cells of every row that steps n to 8n - 1 read.
            cells = cell_indices(x_col[: 8 * n], h).tolist()
            pairs, sizes, singles, dup = {}, {}, [0, 0], set()
            for i in range(n):
                pairs.setdefault(cells[i], []).append((ys[i], ts[i]))
            for c, lst in pairs.items():
                lst.sort()
                if any(map(tuple.__eq__, lst, lst[1:])):
                    dup.add(c)
                tally(c, lst, 1)
        else:
            lst = pairs.setdefault(cells[n - 1], [])
            if lst:
                tally(cells[n - 1], lst, -1)
            pair = (ys[n - 1], ts[n - 1])
            i = bisect.bisect_right(lst, pair)
            if i and lst[i - 1] == pair:
                dup.add(cells[n - 1])
            lst.insert(i, pair)
            tally(cells[n - 1], lst, 1)
        pair, c = (ys[n], ts[n]), cells[n]
        lst = pairs.get(c, [])
        lo, hi = bisect.bisect_left(lst, pair), bisect.bisect_right(lst, pair)
        a, m = (hi, len(lst)) if lst else (int(ys[n] >= 0), 1)
        below = singles[0] if a else 0
        at_or_below = singles[0] + (singles[1] if a == m else 0)
        for s, cells_of_size in sizes.items():
            below += cells_of_size * -(-a * (s - 1) // m)
            at_or_below += cells_of_size * (a * (s - 1) // m + 1)
        for d in dup:
            b, e = key_counts(pairs[d], d, a, m)
            below, at_or_below = below + b, at_or_below + e
        if lst:
            b, e = key_counts(lst, c, a, m)
            below, at_or_below = below - b, at_or_below - e
        less[n - 1] = lo + below
        upto[n - 1] = hi + 1 + at_or_below
    return less, upto
