"""Conformity measures and checkers for their defining invariances.

A conformity measure is a callable ``measure(data, candidate)`` returning a
real score for how large the candidate's response looks against the
comparison data.  Measures must be invariant under permutations of ``data``.
Randomized measures act on :class:`~cpskit.core.ExtendedObservation`
sequences, or take an explicit ``rng`` keyword for tie-breaking.
"""

from __future__ import annotations

import inspect
import math
from typing import Sequence

from .core import RandomStream
from .partition import cell_index, h_schedule, scalar_predictor

__all__ = [
    "trivial_score",
    "nn_score",
    "histogram_score",
    "check_permutation_invariance",
    "check_monotonic",
]

SCORE_TOL = 1e-12


def trivial_score(data: Sequence, candidate, rng: RandomStream | None = None) -> float:
    """The candidate's response itself; ignores predictors and data."""
    return float(candidate.y)


def _sq_dist(a: Sequence[float], b: Sequence[float]) -> float:
    # A product, not ``** 2``: libm's pow need not round a square correctly,
    # and summed left to right, so the vectorized distances of ``nn_band``
    # equal these bit for bit.
    total = 0.0
    for u, v in zip(a, b):
        total += (u - v) * (u - v)
    return total


def _pick_response(candidates: list[float], rng: RandomStream | None) -> float:
    """Uniform choice from a response multiset, canonically ordered.

    Sorting before the draw makes the choice depend only on the multiset, so a
    replayed stream yields the same value for any permutation of the data.
    """
    return _pick_sorted(sorted(candidates), rng)


def _pick_sorted(ys: list[float], rng: RandomStream | None) -> float:
    """``_pick_response`` of a list already sorted; a single value draws nothing."""
    if len(ys) == 1:
        return ys[0]
    if rng is None:
        raise ValueError("nearest-neighbour distance tie requires a random stream")
    return ys[min(int(rng.uniform() * len(ys)), len(ys) - 1)]


def nn_score(data: Sequence, candidate, rng: RandomStream | None = None) -> float:
    """Residual of the candidate against its nearest neighbour's response.

    Returns ``candidate.y - y_j`` where ``x_j`` minimizes the Euclidean
    distance to ``candidate.x`` over ``data``; distance ties are broken
    uniformly using ``rng``.  Distances are compared squared, which keeps
    exact ties exact.
    """
    if not data:
        raise ValueError("nn_score requires nonempty comparison data")
    dists = [_sq_dist(o.x, candidate.x) for o in data]
    dmin = min(dists)
    nearest = [o.y for o, d in zip(data, dists) if d == dmin]
    return float(candidate.y) - _pick_response(nearest, rng)


def histogram_score(
    data: Sequence,
    candidate,
    n_for_partition: int,
    rng: RandomStream | None = None,
) -> float:
    """In-cell rank of the candidate's ``(y, theta)`` pair, in [0, 1].

    ``data`` and ``candidate`` are extended observations with scalar
    predictors.  With ``N`` comparison predictors in the candidate's cell of
    the width-``h_schedule(n_for_partition)`` partition, the score is ``a/N``
    where ``a`` counts in-cell pairs lexicographically <= the candidate's
    pair.  An empty cell scores 1 when ``candidate.y >= 0`` and 0 otherwise.
    """
    if int(n_for_partition) < 1:
        raise ValueError("n_for_partition must be >= 1")
    h = h_schedule(n_for_partition)
    cell = cell_index(scalar_predictor(candidate), h)
    in_cell = [e for e in data if cell_index(scalar_predictor(e), h) == cell]
    if not in_cell:
        return 1.0 if candidate.y >= 0 else 0.0
    key = (candidate.y, candidate.theta)
    a = sum(1 for e in in_cell if (e.y, e.theta) <= key)
    return a / len(in_cell)


def _accepts_rng(measure) -> bool:
    try:
        params = inspect.signature(measure).parameters
    except (TypeError, ValueError):
        return False
    return "rng" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def _replay_score(measure, data, candidate, stream: RandomStream | None):
    if stream is not None and _accepts_rng(measure):
        return measure(list(data), candidate, rng=stream.replica())
    return measure(list(data), candidate)


def check_permutation_invariance(
    measure,
    data: Sequence,
    candidate,
    trials: int,
    stream: RandomStream,
) -> bool:
    """True iff the score is unchanged under random permutations of ``data``.

    Permutations are drawn from ``stream``; for randomized measures the
    tie-break stream is replayed identically for every permutation, so only
    genuine order sensitivity can change the score.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    perm_rng = stream.child(0)
    tie_rng = stream.child(1)
    data = list(data)
    ref = _replay_score(measure, data, candidate, tie_rng)
    for _ in range(trials):
        order = perm_rng.permutation(len(data))
        score = _replay_score(measure, [data[i] for i in order], candidate, tie_rng)
        if not math.isclose(score, ref, rel_tol=0.0, abs_tol=SCORE_TOL):
            return False
    return True


def _with_response(item, y: float):
    from .core import ExtendedObservation, Observation

    if isinstance(item, ExtendedObservation):
        return ExtendedObservation(Observation(item.obs.x, y), item.theta)
    return Observation(item.x, y)


def check_monotonic(
    measure,
    data: Sequence,
    candidate,
    y_grid: Sequence[float],
    stream: RandomStream | None = None,
) -> bool:
    """True iff the score is monotone the way a rank transducer requires.

    Along ``y_grid`` (sorted ascending) the score must be non-decreasing in
    the candidate's response and non-increasing in the first comparison
    observation's response.
    """
    if len(y_grid) == 0:
        raise ValueError("y_grid must be nonempty")
    data = list(data)
    sweep = [
        _replay_score(measure, data, _with_response(candidate, y), stream) for y in y_grid
    ]
    if any(b < a - SCORE_TOL for a, b in zip(sweep, sweep[1:])):
        return False
    if data:
        first = data[0]
        sweep = [
            _replay_score(
                measure, [_with_response(first, y)] + data[1:], candidate, stream
            )
            for y in y_grid
        ]
        if any(b > a + SCORE_TOL for a, b in zip(sweep, sweep[1:])):
            return False
    return True
