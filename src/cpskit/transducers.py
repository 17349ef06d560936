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
from typing import Sequence

import numpy as np

from .core import (
    Columns,
    ExtendedObservation,
    Observation,
    PredictiveBand,
    RandomStream,
    _check_tau,
    _finite,
    as_columns,
)
from .conformity import _pick_at, _pick_response
from .partition import cells, h_schedule, scalar_column, scalar_predictor

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


def _extend(training, candidate, thetas):
    """Attach tie-break numbers to plain observations when supplied."""
    n = len(training)
    if thetas is None:
        return list(training), candidate
    thetas = _tie_breaks(thetas, n + 1).tolist()
    seq = [ExtendedObservation(o, t) for o, t in zip(training, thetas)]
    return seq, ExtendedObservation(candidate, thetas[n])


def conformal_pvalue(
    measure,
    training: Sequence[Observation],
    candidate: Observation,
    tau: float,
    thetas: Sequence[float] | None = None,
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
    cand_score = measure(seq, cand)
    less = 0
    tied = 1
    for i in members:
        score = measure(seq[:i] + seq[i + 1 :] + [cand], seq[i])
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
) -> float:
    """``conformal_pvalue`` restricted to the candidate's taxonomy class."""
    return conformal_pvalue(measure, training, candidate, tau, taxonomy=taxonomy)


def _runs(*columns: np.ndarray) -> np.ndarray:
    """Starts of the runs of equal rows of the sorted ``columns``, then their length."""
    starts = np.ones(len(columns[0]) + 1, dtype=bool)
    np.not_equal(columns[0][1:], columns[0][:-1], out=starts[1:-1])
    for col in columns[1:]:
        starts[1:-1] |= col[1:] != col[:-1]
    return starts.nonzero()[0]


def _group(values, order=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in increasing order, and the counts below them.

    Returns ``(jumps, below)`` where ``below[k]`` counts the values less than
    ``jumps[k]`` and the extra last entry ``below[-1]`` counts them all.  Of
    equal values ``-0.0`` and ``0.0`` the first given becomes the jump, as
    with a stable sort.  ``order``, an argsort of ``values`` that the caller
    needs as well, takes the place of the sort.
    """
    values = np.asarray(values, dtype=np.float64)
    v = np.sort(values) if order is None else values[order]
    below = _runs(v)
    jumps = v[below[:-1]]
    # Neither sort nor argsort is stable: -0.0 and 0.0 come in either order.
    z = jumps.searchsorted(0.0)
    if z < len(jumps) and jumps[z] == 0.0:
        jumps[z] = values[(values == 0.0).argmax()]
    return jumps, below


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
    jumps, below = _group(values)
    plats = below / int(below[-1])
    return PredictiveBand._adopt(jumps, plats, plats, plats[1:], plats[1:])


def _cells(training: Columns, x) -> tuple[np.ndarray, float]:
    """Cell of every training predictor and of ``x``, at width ``h_schedule(n)``."""
    x = _finite(scalar_predictor(x), "predictor component")
    labels = cells(np.concatenate((scalar_column(training), (x,))), len(training))
    return labels[:-1], labels[-1]


def _in_cell_responses(training, x) -> np.ndarray:
    cols = as_columns(training)
    c, c_test = _cells(cols, x)
    return cols.ys[c == c_test]


def _response_column(responses) -> np.ndarray:
    """``responses`` as a float64 array, which must be one-dimensional."""
    ys = np.asarray(responses, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"responses must be one-dimensional, got shape {ys.shape}")
    return ys


def dh_band(responses) -> PredictiveBand:
    """Predictive band built from response ranks alone, ignoring predictors.

    Distinct responses give plateaus ``[i, i + 1] / (n + 1)`` between sorted
    responses and widened values ``[i - 1, i + 1] / (n + 1)`` at them; tied
    responses merge jumps with their multiplicities.  Agrees with
    ``conformal_pvalue(trivial_score, ...)`` at every ``(y, tau)``.
    """
    ys = _response_column(responses)
    if not len(ys):
        raise ValueError("dh_band requires at least one response")
    return _rank_band(ys)


def dh_online(responses) -> tuple[np.ndarray, np.ndarray]:
    """Online counts of ``dh_band``: how many of the responses before each
    one lie below it, and at or below it, in O(k log k) time and O(k) memory
    for ``k < 2**31`` finite responses.  Those at or below it come before it
    in the sort by (value, index), and ``_earlier_smaller`` counts them;
    those below it are fewer by its offset in its run of equal values.  With
    ties, one sort of ``run start * k + index`` puts each run in index order,
    ``-0.0`` and ``0.0`` in one run, as a stable sort would."""
    ys = _response_column(responses)
    if not np.isfinite(ys).all():
        raise ValueError("responses must be finite")
    k = len(ys)
    order = ys.argsort()
    runs = _runs(ys[order])
    tied = len(runs) <= k
    if tied:  # the default sort leaves equal values in any order
        start = np.repeat(runs[:-1], np.diff(runs))
        order += start * k
        order.sort()
        order -= start * k
    at_or_below = _earlier_smaller(order)
    less, upto = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    upto[order] = at_or_below + 1
    if tied:
        at_or_below -= np.arange(k) - start
    less[order] = at_or_below
    return less[1:], upto[1:]


def _earlier_smaller(order: np.ndarray) -> np.ndarray:
    """For each place ``0..k-1`` of the permutation ``order``, how many rows
    before the row ``order[place]`` have a smaller place.

    An MSD radix over the bits of the places ``p`` of the rows, padded to
    whole blocks of 64 by later and larger places.  Before the pass at bit
    ``s`` the rows whose places agree above bit ``s`` sit together in row
    order, from slot ``p >> (s + 1) << (s + 1)`` as ``p`` is a permutation.
    A row with bit ``s`` set gains the rows of its group before it with the
    bit clear, from one cumulative sum, and a scatter moves those first; the
    gains ride in the upper 32 bits of ``p``.

    The passes stop at groups of 4096 = 64 * 64 places, whose slots form
    blocks of 64 rows, 64 blocks to a group and fewer in a last partial one.
    Each block's rows are sorted by place, so a row's rank among its block's
    places is its position.  A cell, one uint64 per block and word of 64
    places, ORs ``1 << (p % 64)`` over the block's rows with places in the
    word; summed over the group's blocks up to its own, it holds those
    places of all the group's rows up to the block's end.  A row gains the
    popcounts of its block's cells up to its word, less the bits at or above
    its own in its cell, less its rank, plus the earlier rows of its block
    with a smaller place: the bits below its slot in the OR of
    ``1 << (slot % 64)`` over its block's rows in place order up to its own.
    """
    k = len(order)
    K = -(-k // 64) * 64
    p, slot = np.arange(K), np.arange(K)
    p[order] = slot[:k]
    nxt, bit, work = np.empty_like(p), np.empty_like(p), np.empty_like(p)
    csum = np.zeros(K + 1, dtype=np.int64)
    gain = csum[:-1]
    for s in range((K - 1).bit_length() - 1, 11, -1):
        g, full = 2 << s, K - K % (2 << s)
        np.bitwise_and(np.right_shift(p, s, out=bit), 1, out=bit)
        np.cumsum(bit, out=csum[1:])
        # ``work``: the set rows before each slot in its group; ``gain``: the
        # clear ones.
        groups = work[:full].reshape(-1, g)
        np.subtract(csum[:full].reshape(-1, g), csum[:full:g, None], out=groups)
        np.subtract(csum[full:K], csum[full], out=work[full:])
        np.subtract(np.bitwise_and(slot, g - 1, out=gain), work, out=gain)
        # ``work``: the new slot, group start + ``gain`` if clear and group
        # start + ``2**s + work`` if set.
        work -= gain
        work += 1 << s
        work *= bit
        work += gain
        groups += slot[:full:g, None]
        work[full:] += full
        gain *= bit
        p += np.left_shift(gain, 32, out=gain)
        nxt[work] = p
        p, nxt = nxt, p
    # ``bit``: each row's place in its group and slot in its block, sorted by
    # place within each block; ``nxt``: the ``p`` of those rows.
    np.left_shift(np.bitwise_and(p, 4095, out=bit), 6, out=bit)
    bit |= np.bitwise_and(slot, 63, out=work)
    bit.reshape(-1, 64).sort(axis=1)
    np.bitwise_or(np.bitwise_and(bit, 63, out=work), np.bitwise_and(slot, -64, out=nxt), out=work)
    np.take(p, work, out=nxt, mode="clip")  # "raise" would copy ``out`` first
    # ``gain``: the earlier rows of the block with a smaller place, less the
    # rank, which is the position in the sorted block.
    mask, seen = work.view(np.uint64), gain.view(np.uint64)
    np.left_shift(1, np.bitwise_and(bit, 63, out=work), out=work)
    np.bitwise_or.accumulate(mask.reshape(-1, 64), axis=1, out=seen.reshape(-1, 64))
    mask -= np.uint64(1)
    seen &= mask
    np.bitwise_count(seen, out=gain)
    gain -= np.bitwise_and(slot, 63, out=work)
    # ``work``: the row's cell; ``bit``: its place's bit in the cell's word.
    np.bitwise_or(np.right_shift(bit, 12, out=work), np.bitwise_and(slot, -64, out=p), out=work)
    np.left_shift(1, np.bitwise_and(np.right_shift(bit, 6, out=bit), 63, out=bit), out=bit)
    table = p.view(np.uint64)
    table.fill(0)
    np.add.at(table, work, bit.view(np.uint64))  # distinct bits: the sum is the OR
    cells, full = table.reshape(-1, 64), K // 4096 * 64
    groups = cells[:full].reshape(-1, 64, 64)
    np.cumsum(groups, axis=1, out=groups)
    np.cumsum(cells[full:], axis=0, out=cells[full:])
    # The places up to the row's word, less those at or above its bit.
    got = slot.view(np.uint64)
    np.take(table, work, out=got, mode="clip")
    got &= np.negative(bit, out=bit).view(np.uint64)
    gain -= np.bitwise_count(got, out=bit)
    counts = np.bitwise_count(table, out=slot).reshape(-1, 64)
    np.cumsum(counts, axis=1, out=counts)
    gain += np.take(slot, work, out=bit, mode="clip")
    gain += np.right_shift(nxt, 32, out=bit)
    p[np.bitwise_and(nxt, 0xFFFFFFFF, out=nxt)] = gain
    return p[:k]


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


# ``nn_band`` builds its distance matrix in row blocks, and ``nn_online``
# takes its steps in blocks, of about 2**17 distances (1 MB), so that memory
# does not grow as n**2; ``nn_online``'s blocks hold at most 64 steps.
# Larger blocks were measured no faster.  While the training rows are few, a
# long online block changes the nearest rows of most of them, and the
# running minimum then covers most rows.  In a fresh process, blocks of
# 2**20 distances made 10^4 online steps take 0.63 s instead of 0.40 s on a
# 2-vCPU shared host, with 7 times the page faults.
_NN_BLOCK_DISTANCES = 1 << 17
_NN_ONLINE_BLOCK_STEPS = 64


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
    order, one ``uniforms`` call per block of rows), and ``stream`` is drawn
    from only at a tie.  Agrees with
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
            tied = np.flatnonzero(nearest.sum(axis=1) > 1)
            if len(tied):
                us = stream.uniforms(len(tied)).tolist()
                y_nn[tied] = [_pick_at(sorted(ys[nearest[k]].tolist()), u)
                              for k, u in zip(tied.tolist(), us)]
            crossings[lo + far] = y_hat + (y[far] - y_nn)
    return _rank_band(crossings)


def nn_online(training: Columns, stream: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Online counts of ``nn_band``, from per-row nearest-neighbour state,
    a block of steps at a time.

    Row ``i`` keeps ``near[i]``, its squared distance to its nearest other
    rows so far (inf, itself included, while none is nearer, as in
    ``nn_band``'s distance rows), and ``first[i]``, the first of them.  While
    it has several, ``tied[i]`` holds all their responses, sorted: before
    each step exactly the list that ``nn_band`` picks from.  A block takes
    the distances from all its test rows to all earlier rows at once.  A row
    changes state within the block only at a distance at or below its
    ``near``; for such rows the running minimum over the block's steps gives
    the state before each step (the last strictly nearer test row is the
    first nearest).  A block with a tie takes its steps one at a time: each
    draws as ``nn_band`` draws, the estimate first and then the rows of
    ``tied`` that the test row is not strictly nearer to, in index order, in
    one ``uniforms`` call; then the test row drops the lists of the rows it
    is strictly nearer to, joins those of the rows it is equally near to,
    and gets its own list if it joins with several nearest rows.
    """
    xs, ys, k = training.xs, training.ys, len(training)
    responses = ys.tolist()
    near, first = np.full(k, np.inf), np.arange(k)
    tied: dict[int, list[float]] = {}
    less, upto = np.empty(max(k - 1, 0), dtype=np.int64), np.empty(max(k - 1, 0), dtype=np.int64)
    s = 1
    # Distances may overflow to inf as in ``nn_band``; only the crossings in
    # use must be finite.
    with np.errstate(over="ignore"):
        while s < k:
            # Steps s..e-1 against rows 0..m-1, m = e-1 <= s + 63: as many
            # steps as the bound allows against s + 63 rows.
            size = _NN_BLOCK_DISTANCES // (s + _NN_ONLINE_BLOCK_STEPS - 1)
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

            # ``rows``: those that may change state in the block.
            rows = np.flatnonzero((dist <= near[:m]).any(axis=0))
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

            crossings = crossings_at(at)
            bad = np.isinf(crossings).any(axis=1)
            # Only a tied row, a row that ties with a test row or a test row
            # that joins with several nearest rows (as at an estimate tie)
            # makes a block draw or change the tie lists.
            evens = even.any(axis=1)
            for b in range(e - s) if tied or joins_tied.any() or evens.any() else ():
                n = s + b
                if several[b]:
                    y_hat[b] = _pick_response(ys[:n][dist[b, :n] == nearest[b]].tolist(), stream)
                    crossings[b] = crossings_at(np.array([b]))
                nearer = rows[closer[b]].tolist()
                drawn = sorted(tied.keys() - nearer)
                if drawn:
                    yh, us = float(y_hat[b]), stream.uniforms(len(drawn)).tolist()
                    crossings[b, drawn] = [
                        yh + (responses[i] - _pick_at(tied[i], u)) for i, u in zip(drawn, us)
                    ]
                # The next step draws only once this one passes the check.
                bad[b] = np.isinf(crossings[b]).any()
                if bad[b]:
                    break
                for i in nearer:
                    tied.pop(i, None)
                if evens[b]:
                    for i, f in zip(rows[even[b]].tolist(), first_rows[b, even[b]].tolist()):
                        bisect.insort(tied.setdefault(i, [responses[f]]), responses[n])
                if joins_tied[b]:
                    tied[n] = joined(n)
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
        if len(test.x) != training.d:
            raise ValueError(
                f"x has dimension {len(test.x)}, training predictors have {training.d}"
            )
        joined = Columns._adopt(np.vstack((training.xs, [test.x])), np.append(training.ys, test.y))
        return _venn_band(taxonomy, joined)
    seq = list(training) + [test]
    labels = _labels(taxonomy, seq)
    return _ecdf_band([o.y for o, lab in zip(seq, labels) if lab == labels[n]])


def _labels(taxonomy, rows):
    """``taxonomy(rows)``, which must label every row."""
    labels = taxonomy(rows)
    if len(labels) != len(rows):
        raise ValueError("taxonomy must label all n + 1 observations")
    return labels


def _venn_band(taxonomy, rows: Columns) -> PredictiveBand:
    """ECDF of the responses in the last (test) row's taxonomy class among ``rows``."""
    labels = _labels(taxonomy, rows)
    return _ecdf_band(rows.ys[np.asarray(labels) == labels[-1]])


def _repeats_a_pair(y: np.ndarray, t: np.ndarray) -> bool:
    """Whether two of the points with responses ``y`` and tie-break numbers
    ``t`` share one ``(y, t)`` pair.  Only points whose ``t`` repeats can,
    and only those are sorted by pair."""
    ts = np.sort(t)
    repeated = ts[1:][ts[1:] == ts[:-1]]
    if not len(repeated):
        return False
    pick = np.isin(t, repeated)
    py, pt = y[pick], t[pick]
    order = np.lexsort((py, pt))
    return len(_runs(pt[order], py[order])) <= len(order)


def _tie_breaks(thetas, count: int) -> np.ndarray:
    """``thetas`` as a 1-D float64 array of exactly ``count`` numbers in [0, 1]."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (count,):
        raise ValueError(f"need {count} tie-break numbers, got an array of shape {thetas.shape}")
    # NaN fails both tests; with no numbers the initial values pass them.
    if not (thetas.min(initial=0.0) >= 0.0 and thetas.max(initial=1.0) <= 1.0):
        raise ValueError("tie-break numbers must lie in [0, 1]")
    return thetas


def _cell_ranks(c: np.ndarray, y: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``histogram_score`` keys ``r / N`` of points with cells ``c``,
    responses ``y`` and tie-break numbers ``t``, each scored within its own
    cell, as two int64 arrays ``r`` and ``N`` in no particular order.

    A point's ``r`` is its rank (cell mates, itself included, whose
    ``(y, t)`` pair is <= its own, less one) and ``N`` the cell size less
    one; a singleton has the sign rule, ``(y >= 0) / 1``.
    """
    order = np.lexsort((t, y, c))
    c, y, t = c[order], y[order], t[order]
    # Each point's cell start and size, and the end of its (cell, y, t) run.
    cell_bounds, triple_bounds = _runs(c), _runs(c, y, t)
    sizes = np.diff(cell_bounds)
    start = np.repeat(cell_bounds[:-1], sizes)
    rank = np.repeat(triple_bounds[1:], np.diff(triple_bounds)) - start - 1
    mates = np.repeat(sizes - 1, sizes)
    return np.where(mates > 0, rank, y >= 0), np.maximum(mates, 1)


def _size_counts(a, m: int, zeros, ones, sizes):
    """The count rule of points each scored within its own cell, no two
    sharing a ``(y, t)`` pair: how many of their keys lie below ``a / m``
    and at or below it, for an int ``a`` or an int64 array of them.

    ``sizes`` holds ``(size, count)`` pairs: ``count`` cells of ``size =
    N + 1 >= 2`` points.  Such a cell holds the keys ``r / N``, ``r =
    0..N``: ``ceil(a * N / m)`` of them lie below ``a / m`` and ``floor(a *
    N / m) + 1`` at or below it, exactly in int64 as ``a * N <= n**2``
    (``n`` below about ``3 * 10**9``).  A singleton is keyed by the sign of
    its response: ``zeros`` of them have the key 0 (``y < 0``) and ``ones``
    the key 1 (``y >= 0``, ``-0.0`` included).  ``hcps_online`` passes
    Python ints, one step at a time; ``_out_of_cell_counts`` passes a row of
    keys and one pair of columns, sizes and counts, and gets a row of counts
    for each size, which it sums.
    """
    below = upto = 0
    if zeros or ones:
        below, upto = zeros * (a > 0), zeros + ones * (a == m)
    up = m - 1
    for size, count in sizes:
        # On arrays every step after the first two works in place.
        q = a * (size - 1)
        f = q // m
        q += up
        q //= m
        f += 1
        q *= count
        f *= count
        q += below
        f += upto
        below = q
        upto = f
    return below, upto


def _out_of_cell_counts(c, c_test, y, t, m: int) -> tuple[np.ndarray, np.ndarray]:
    """How many of the keys of the points with cells ``c`` other than
    ``c_test``, responses ``y`` and tie-break numbers ``t``, each scored
    within its own cell, lie below ``a / m`` and at or below it, as two
    int64 arrays indexed by ``a = 0..m``.

    The route is picked on the whole input, test cell included.  When no two
    points share a ``(y, t)`` pair, the cell sizes are read off one sort of
    ``c`` and ``_size_counts`` counts the other cells of each size for a
    block of sizes at once.  A cell's keys ``r / N`` are symmetric about
    1/2, so its keys below ``(m - a) / m`` are its ``N + 1`` keys less those
    at or below ``a / m``, and the other way round.  So the rule runs on the
    keys ``a <= m / 2`` only and the rest are mirrored, and a block holds no
    more (size, key) pairs than there are points outside the test cell.
    Singletons, when there are any, are found by a binary search of each
    point's cell among theirs.  When a pair repeats, each out-of-cell key
    ``r / N`` from ``_cell_ranks`` lies below ``a / m`` from ``a = r * m //
    N + 1`` on, and at or below it from ``a = ceil(r * m / N)`` on: running
    sums of the counts of those first ``a`` give the counts, exactly in
    int64 as ``r * m <= n**2``.
    """
    if _repeats_a_pair(y, t):
        out = c != c_test
        r, N = _cell_ranks(c[out], y[out], t[out])
        rm = r * m
        below = np.bincount(rm // N + 1, minlength=m + 2)[: m + 1].cumsum()
        return below, np.bincount(-(-rm // N), minlength=m + 1).cumsum()
    cs = np.sort(c)
    bounds = _runs(cs)
    labels, sizes = cs[bounds[:-1]], np.diff(bounds)
    del cs
    sizes[labels == c_test] = 0
    cells_of_size = np.bincount(sizes, minlength=2)
    s = cells_of_size[2:].nonzero()[0] + 2
    counts, half = cells_of_size[s], m // 2 + 1
    rows = max(1, (len(c) - m) // half)
    lo = hi = np.zeros(half, dtype=np.int64)
    for i in range(0, len(s), rows):
        block = s[i : i + rows, None], counts[i : i + rows, None]
        b, u = (k.sum(axis=0) for k in _size_counts(np.arange(half), m, 0, 0, [block]))
        lo, hi = lo + b, hi + u
    keys, mirrored = s @ counts, m + 1 - half
    below = np.concatenate((lo, keys - hi[mirrored - 1 :: -1]))
    upto = np.concatenate((hi, keys - lo[mirrored - 1 :: -1]))
    if cells_of_size[1]:
        # A point is a singleton when the sorted singleton labels hold its cell.
        lone = labels[sizes == 1]
        hit = lone.take(lone.searchsorted(c), mode="clip") == c
        ones = np.count_nonzero(y[hit] >= 0)
        singles = _size_counts(np.arange(m + 1), m, int(cells_of_size[1]) - ones, ones, ())
        below += singles[0]
        upto += singles[1]
    return below, upto


def hcps_band(
    training: Sequence[Observation] | Columns, x, thetas: Sequence[float]
) -> PredictiveBand:
    """Band of the rank p-value driven by the in-cell rank score at ``x``.

    The caller's ``n + 1`` tie-break numbers ``thetas``, the training
    points' and then the candidate's (``stream.uniforms(n + 1)`` in the
    harness and the CLI), make scores almost surely distinct.  The band's
    jumps are the distinct in-cell responses of the cell of ``x`` (0 alone
    when the cell is empty); between consecutive in-cell responses every
    score is constant, so the construction is exact.  Agrees with
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
    and at or below each candidate key ``a / m``, which never fall as ``a``
    grows.  So every jump raises the lower value, as ``B`` rises there, or
    with the test cell empty (``a`` going 0 to 1) the lower or the upper one.

    Those counts are exact, in int64 arithmetic: ``_out_of_cell_counts``
    takes them from the cell sizes when no two training points share a
    ``(y, theta)`` pair, in a few whole-array steps whatever the number of
    sizes, and from every out-of-cell point's rank once two do, in the test
    cell or not, which tied tie-break numbers alone can give.  They are
    taken before the in-cell arrays are made, and the cell column is dropped
    after them.
    """
    n = len(training)
    if n < 1:
        raise ValueError("hcps_band requires at least one training observation")
    thetas = _tie_breaks(thetas, n + 1)
    cols = as_columns(training)
    c, c_test = _cells(cols, x)
    mates = (c == c_test).nonzero()[0]
    m = len(mates)
    out_below, out_upto = _out_of_cell_counts(c, c_test, cols.ys, thetas[:n], max(m, 1))
    del c
    theta_cand = thetas[n]
    yc, tc = cols.ys[mates], thetas[mates]
    # In-cell points below the candidate's pair and at or below it, which
    # with points in the cell is also its key a / m: on the plateaus, then
    # at the jumps.
    if m:
        order = yc.argsort()
        jumps, below = _group(yc, order)
        tc = tc[order]
        starts = below[:-1]
        lt, eq = tc < theta_cand, tc == theta_cand
        if len(starts) < m:  # tied responses: sum over each group
            lt, eq = np.add.reduceat(lt, starts), np.add.reduceat(eq, starts)
        at_jumps = starts + lt
        less = np.concatenate((below, at_jumps))
        a = np.concatenate((below, at_jumps + eq))
        at_or_below = a
    else:
        # Empty test cell: the candidate scores by the sign rule alone.
        jumps, less, a = np.zeros(1), np.zeros(3, dtype=np.int64), np.array([0, 1, 1])
        at_or_below = less
    den = n + 1
    lo, hi = (less + out_below[a]) / den, (at_or_below + 1 + out_upto[a]) / den
    j = len(jumps) + 1
    return PredictiveBand._adopt(jumps, lo[:j], hi[:j], lo[j:], hi[j:])


def hcps_online(training: Columns, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Online counts of ``hcps_band``, from per-cell sorted ``(y, theta)`` lists.

    When ``h_schedule(n)`` changes, ``cells`` labels every row at the new
    width and the lists are rebuilt.  Of the ``m`` pairs in the test cell,
    ``lo`` lie below the candidate's and ``hi`` at or below it; its key is
    ``a / m = hi / m``, or ``a / 1`` by the sign rule in an empty cell.  The
    step's counts are ``lo`` and ``hi + 1`` plus the keys below, and at or
    below, ``a / m`` of the other cells: ``_size_counts`` takes them from
    the cell sizes when no two rows share a pair, and from the other rows'
    ranks by ``_out_of_cell_counts`` otherwise, O(n log n) a step.
    """
    k = len(training)
    thetas = _tie_breaks(thetas, k)
    less, upto = [], []
    repeats = _repeats_a_pair(training.ys, thetas)
    x_col, ys, ts = scalar_column(training), training.ys.tolist(), thetas.tolist()
    h = pairs = sizes = singles = None

    def tally(lst, sign):
        # Singletons by sign, other cells by size, empty ones not at all.
        if len(lst) == 1:
            singles[lst[0][0] >= 0] += sign
        elif lst:
            s = len(lst)
            sizes[s] = sizes.get(s, 0) + sign
            if not sizes[s]:
                del sizes[s]

    for n in range(1, k):
        if h_schedule(n) != h:
            h, col = h_schedule(n), cells(x_col, n)
            labels = col.tolist()
            pairs, sizes, singles = {}, {}, [0, 0]
            for i in range(n):
                pairs.setdefault(labels[i], []).append((ys[i], ts[i]))
            for lst in pairs.values():
                lst.sort()
                tally(lst, 1)
        else:
            lst = pairs.setdefault(labels[n - 1], [])
            bisect.insort(lst, (ys[n - 1], ts[n - 1]))
            tally(lst, 1)
        # The test cell is counted in-cell, so it stays tallied out until row n joins it.
        lst = pairs.get(labels[n], [])
        tally(lst, -1)
        hi = bisect.bisect(lst, (ys[n], ts[n]))
        lo = bisect.bisect_left(lst, (ys[n], ts[n])) if repeats else hi
        a, m = (hi, len(lst)) if lst else (int(ys[n] >= 0), 1)
        if repeats:
            counts = _out_of_cell_counts(col[:n], labels[n], training.ys[:n], thetas[:n], m)
            below, at_or_below = counts[0][a], counts[1][a]
        else:
            below, at_or_below = _size_counts(a, m, singles[0], singles[1], sizes.items())
        less.append(lo + below)
        upto.append(hi + 1 + at_or_below)
    return np.array(less, dtype=np.int64), np.array(upto, dtype=np.int64)
