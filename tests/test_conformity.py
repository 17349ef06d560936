"""Conformity measures and their invariance checkers."""

from functools import partial

import pytest

from cpskit import (
    ExtendedObservation,
    Observation,
    check_monotonic,
    check_permutation_invariance,
    derive_stream,
    histogram_score,
    nn_score,
    trivial_score,
)


def obs(x, y):
    return Observation(x, y)


def ext(x, y, theta):
    return ExtendedObservation(Observation(x, y), theta)


# --- trivial --------------------------------------------------------------


def test_trivial_score_returns_response():
    data = [obs(0.0, 1.0), obs(5.0, -2.0)]
    assert trivial_score(data, obs(9.0, 7.0)) == 7.0
    assert trivial_score([], obs(0.0, 0.0)) == 0.0
    assert trivial_score(list(reversed(data)), obs(9.0, 7.0)) == 7.0


# --- nearest neighbour ----------------------------------------------------


def test_nn_score_unique_neighbour():
    data = [obs(0.0, 0.0), obs(10.0, 1.0)]
    assert nn_score(data, obs(0.1, 0.4)) == 0.4  # neighbour (0, 0)


def test_nn_score_zero_residual_on_match():
    data = [obs(0.0, 5.0), obs(10.0, 1.0)]
    assert nn_score(data, obs(0.0, 5.0)) == 0.0


def test_nn_score_empty_data_raises():
    with pytest.raises(ValueError):
        nn_score([], obs(0.0, 0.0))


def test_nn_score_tie_requires_stream():
    data = [obs(0.0, 0.0), obs(2.0, 1.0)]
    with pytest.raises(ValueError):
        nn_score(data, obs(1.0, 0.0))


def test_nn_score_tie_break_is_uniform():
    # equidistant neighbours with responses 0 and 1: score is -0 or -1
    data = [obs(0.0, 0.0), obs(2.0, 1.0)]
    cand = obs(1.0, 0.0)
    root = derive_stream(314, [0])
    hits = sum(
        1 for t in range(10_000) if nn_score(data, cand, rng=root.child(t)) == -1.0
    )
    assert abs(hits / 10_000 - 0.5) < 0.02


# --- histogram rank -------------------------------------------------------


def test_histogram_score_rank_in_cell():
    # width h_schedule(8) = 1/2; all predictors share cell [0, 0.5)
    data = [ext(0.1, 2.0, 0.3), ext(0.2, 5.0, 0.8)]
    assert histogram_score(data, ext(0.3, 3.0, 0.5), n_for_partition=8) == 0.5


def test_histogram_score_empty_cell_sign_rule():
    data = [ext(10.0, 2.0, 0.3)]
    assert histogram_score(data, ext(0.1, -1.0, 0.5), n_for_partition=8) == 0.0
    assert histogram_score(data, ext(0.1, 1.0, 0.5), n_for_partition=8) == 1.0


def test_histogram_score_maximal_rank():
    data = [ext(0.1, 2.0, 0.3), ext(0.2, 5.0, 0.8)]
    assert histogram_score(data, ext(0.3, 5.0, 0.8), n_for_partition=8) == 1.0


def test_histogram_score_theta_breaks_response_ties():
    data = [ext(0.1, 2.0, 0.6)]
    low = histogram_score(data, ext(0.2, 2.0, 0.5), n_for_partition=8)
    high = histogram_score(data, ext(0.2, 2.0, 0.7), n_for_partition=8)
    assert (low, high) == (0.0, 1.0)


def test_histogram_score_requires_scalar_predictors():
    data = [ExtendedObservation(Observation((0.0, 1.0), 2.0), 0.3)]
    cand = ExtendedObservation(Observation((0.1, 1.0), 1.0), 0.5)
    with pytest.raises(ValueError):
        histogram_score(data, cand, n_for_partition=8)


def test_trivial_and_nn_scores_unbounded_in_response():
    # ranges span the whole line as the candidate response moves, never
    # attaining an extreme value
    data = [obs(0.0, 0.0), obs(1.0, 1.0)]
    for measure in (trivial_score, nn_score):
        low = measure(data, obs(0.25, -1e9))
        high = measure(data, obs(0.25, 1e9))
        assert low < -1e8 and high > 1e8


def test_histogram_score_range_attained():
    rng = derive_stream(21, [0])
    for _ in range(50):
        n = 2 + int(rng.uniform() * 10)
        data = [ext(rng.uniform(), rng.uniform() * 4 - 2, rng.uniform()) for _ in range(n)]
        score = histogram_score(
            data, ext(rng.uniform(), rng.uniform() * 4 - 2, rng.uniform()), n_for_partition=n
        )
        assert 0.0 <= score <= 1.0


# --- checkers -------------------------------------------------------------


def test_permutation_invariance_of_trivial():
    data = [obs(float(i), float(i % 3)) for i in range(6)]
    st = derive_stream(1, [0])
    assert check_permutation_invariance(trivial_score, data, obs(0.0, 9.0), 20, st)


def test_permutation_invariance_of_nn_with_replayed_ties():
    data = [obs(0.0, 0.0), obs(2.0, 1.0), obs(5.0, 3.0)]
    cand = obs(1.0, 0.5)  # tie between the first two predictors
    st = derive_stream(2, [0])
    assert check_permutation_invariance(nn_score, data, cand, 30, st)


def test_permutation_invariance_of_histogram():
    data = [ext(0.1 * i, float(i), 0.1 + 0.05 * i) for i in range(8)]
    cand = ext(0.25, 3.5, 0.5)
    measure = partial(histogram_score, n_for_partition=8)
    st = derive_stream(3, [0])
    assert check_permutation_invariance(measure, data, cand, 20, st)


def test_permutation_invariance_negative_control():
    order_sensitive = lambda data, candidate: data[0].y + candidate.y
    data = [obs(0.0, 1.0), obs(1.0, 2.0), obs(2.0, 3.0)]
    st = derive_stream(4, [0])
    assert not check_permutation_invariance(order_sensitive, data, obs(0.0, 0.0), 20, st)


def test_monotonicity_of_measures():
    grid = [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]
    data = [obs(0.0, 0.0), obs(0.4, 1.0), obs(3.0, -1.0)]
    cand = obs(0.2, 0.5)
    assert check_monotonic(trivial_score, data, cand, grid)
    assert check_monotonic(nn_score, data, cand, grid, stream=derive_stream(5, [0]))
    edata = [ext(0.0, 0.0, 0.2), ext(0.4, 1.0, 0.7), ext(3.0, -1.0, 0.4)]
    ecand = ext(0.2, 0.5, 0.5)
    measure = partial(histogram_score, n_for_partition=3)
    assert check_monotonic(measure, edata, ecand, grid)


def test_monotonicity_negative_control():
    negated = lambda data, candidate: -candidate.y
    data = [obs(0.0, 0.0)]
    assert not check_monotonic(negated, data, obs(0.0, 0.0), [-1.0, 0.0, 1.0])


def test_checker_preconditions():
    data = [obs(0.0, 0.0)]
    with pytest.raises(ValueError):
        check_permutation_invariance(trivial_score, data, obs(0.0, 1.0), 0, derive_stream(0))
    with pytest.raises(ValueError):
        check_monotonic(trivial_score, data, obs(0.0, 1.0), [])
