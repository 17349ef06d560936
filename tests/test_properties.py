"""Property tests: closed-form bands against the generic transducers.

Hypothesis generates training sets with tied responses, duplicated
predictors, tied or extreme tie-break numbers, empty test cells and
magnitudes up to 1e300.  Every band must equal its oracle exactly at each
training response, at the doubles next to it and between neighbours, keep
its structural invariants, and survive a JSON round trip byte for byte.
The nearest-neighbour band, whose jumps are rounded crossings, is compared
off its jumps; the forecaster and Venn distributions against an ECDF
recount.  Runs are derandomized, so the examples are the same on every run.
"""

import bisect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpskit import (
    SYSTEMS,
    Columns,
    Observation,
    PredictiveBand,
    conformal_pvalue,
    derive_stream,
    dh_band,
    hcps_band,
    histogram_score,
    histogram_taxonomy,
    hmps_band,
    mondrian_pvalue,
    nn_band,
    nn_score,
    pfs_distribution,
    trivial_score,
    venn_distribution,
)
from cpskit.conformity import _sq_dist

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

RESPONSE_POOL = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), -3.5, 2.0**54, -(2.0**54),
                 1e300, -1e300]
PREDICTOR_POOL = [0.0, 0.1, 0.45, 0.5, 0.9, 1.0, 2.75]

responses = st.one_of(
    st.sampled_from(RESPONSE_POOL),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)
predictors = st.one_of(st.sampled_from(PREDICTOR_POOL), st.floats(0.0, 3.0))
thetas = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def problems(draw, max_n=12):
    """(training, test predictor, tie-break numbers)."""
    n = draw(st.integers(1, max_n))
    xs = draw(st.lists(predictors, min_size=n, max_size=n))
    ys = draw(st.lists(responses, min_size=n, max_size=n))
    training = [Observation(x, y) for x, y in zip(xs, ys)]
    xq = draw(st.one_of(st.sampled_from(PREDICTOR_POOL), st.floats(0.0, 4.5)))
    return training, xq, draw(st.lists(thetas, min_size=n + 1, max_size=n + 1))


def queries(training):
    """Each training response, the doubles beside it, and midpoints between."""
    ys = sorted(set(o.y for o in training))
    out = set(ys)
    for y in ys:
        out.update((math.nextafter(y, -math.inf), math.nextafter(y, math.inf)))
    out.update(a / 2.0 + b / 2.0 for a, b in zip(ys, ys[1:]))
    return sorted(out)


def band_pair(band, y):
    """(Q_0(y), Q_1(y)) as stored in the band."""
    i = bisect.bisect_left(band.jumps, y)
    if i < len(band.jumps) and band.jumps[i] == y:
        return band.at_jump_lower[i], band.at_jump_upper[i]
    return band.lower[i], band.upper[i]


def assert_matches(band, pvalue, ys):
    for y in ys:
        assert band_pair(band, y) == (pvalue(y, 0.0), pvalue(y, 1.0)), y


def assert_invariants(band):
    band.validate()
    assert band.lower[0] == 0.0 and band.upper[-1] == 1.0
    text = band.to_json()
    again = PredictiveBand.from_json(text)
    assert again == band and again.to_json() == text


def in_cell(training, xq):
    """Responses in the dyadic cell of xq, by the cell rule written out."""
    width = 2.0 ** -((len(training).bit_length() - 1) // 3)
    return [o.y for o in training if math.floor(o.x[0] / width) == math.floor(xq / width)]


@SETTINGS
@given(problems())
def test_dh_band_matches_transducer(problem):
    training, xq, _ = problem
    band = dh_band([o.y for o in training])
    assert_invariants(band)
    pvalue = lambda y, tau: conformal_pvalue(trivial_score, training, Observation(xq, y), tau)
    assert_matches(band, pvalue, queries(training))


@SETTINGS
@given(problems())
def test_hmps_band_matches_mondrian_transducer(problem):
    training, xq, _ = problem
    band = hmps_band(training, xq)
    assert_invariants(band)
    assert band == hmps_band(Columns.from_observations(training), xq)
    pvalue = lambda y, tau: mondrian_pvalue(
        histogram_taxonomy, trivial_score, training, Observation(xq, y), tau
    )
    assert_matches(band, pvalue, queries(training))


@SETTINGS
@given(problems())
def test_hcps_band_matches_transducer(problem):
    training, xq, theta = problem
    band = hcps_band(training, xq, thetas=theta)
    assert_invariants(band)
    assert band == hcps_band(Columns.from_observations(training), xq, thetas=np.array(theta))
    measure = partial(histogram_score, n_for_partition=len(training))
    pvalue = lambda y, tau: conformal_pvalue(
        measure, training, Observation(xq, y), tau, thetas=theta
    )
    assert_matches(band, pvalue, queries(training))


@SETTINGS
@given(problems())
def test_pfs_distribution_is_the_in_cell_ecdf(problem):
    training, xq, _ = problem
    band = pfs_distribution(training, xq)
    assert_invariants(band)
    assert band.is_distribution_function()
    assert band == pfs_distribution(Columns.from_observations(training), xq)
    pool = in_cell(training, xq) or [0.0]
    recount = lambda y, tau: sum(1 for v in pool if v <= y) / len(pool)
    assert_matches(band, recount, queries(training) + [0.0])


@SETTINGS
@given(problems(), responses)
def test_venn_distribution_is_the_class_ecdf(problem, u):
    training, xq, _ = problem
    band = venn_distribution(histogram_taxonomy, training, xq, u)
    assert_invariants(band)
    assert band.is_distribution_function()
    cols = Columns.from_observations(training)
    assert band == SYSTEMS["venn"].band(cols, xq, derive_stream(0, [0]), None, u)
    pool = in_cell(training, xq) + [u]
    recount = lambda y, tau: sum(1 for v in pool if v <= y) / len(pool)
    assert_matches(band, recount, queries(training + [Observation(xq, u)]))


@st.composite
def nn_problems(draw, max_n=10):
    """(training, test predictor) in dimension 1 to 3, all pairwise distances
    distinct, so that no nearest-neighbour choice needs a tie-break."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    point = st.tuples(*[st.floats(-3.0, 3.0)] * d)
    xs = draw(st.lists(point, min_size=n, max_size=n))
    xq = draw(point)
    pts = xs + [xq]
    dists = [_sq_dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
    assume(len(set(dists)) == len(dists))
    ys = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, -3.5]), st.floats(-4.0, 4.0)),
                       min_size=n, max_size=n))
    return [Observation(x, y) for x, y in zip(xs, ys)], xq


def off_jumps(band):
    """Points beyond the end jumps and midway between jumps far enough apart
    that rounding in the oracle's residuals cannot reach them."""
    js = band.jumps
    out = [js[0] - abs(js[0]) - 1.0, js[-1] + abs(js[-1]) + 1.0]
    out += [a / 2.0 + b / 2.0 for a, b in zip(js, js[1:])
            if b - a > 1e-9 * max(1.0, abs(a), abs(b))]
    return out


@SETTINGS
@given(nn_problems())
def test_nn_band_matches_transducer_off_the_jumps(problem):
    training, xq = problem
    stream = derive_stream(0, [0])
    band = nn_band(training, xq, stream)
    assert stream.draws == 0
    assert_invariants(band)
    assert band == nn_band(Columns.from_observations(training), xq, stream)
    pvalue = lambda y, tau: conformal_pvalue(nn_score, training, Observation(xq, y), tau)
    assert_matches(band, pvalue, off_jumps(band))


# Distance ties draw from the stream, the estimate's first, then each
# residual's in index order: bands and draw counts pinned on tie-heavy input.
_GRID_D2 = [((float(i), float(j)), float((3 * i + j) % 4)) for i in range(3) for j in range(3)]
NN_PINNED = {
    "duplicated_predictors": (
        [(0.5, 1.0), (0.5, 2.0), (0.5, 1.0), (0.25, 0.0), (0.75, 3.0), (0.75, 3.0)], 0.5, 11, 5,
        '{"jumps": [0.0, 1.0, 2.0, 3.0], '
        '"lower": [0.0, 0.14285714285714285, 0.2857142857142857, 0.7142857142857143, '
        '0.8571428571428571], '
        '"upper": [0.14285714285714285, 0.2857142857142857, 0.42857142857142855, '
        '0.8571428571428571, 1.0], '
        '"at_jump_lower": [0.0, 0.14285714285714285, 0.2857142857142857, 0.7142857142857143], '
        '"at_jump_upper": [0.2857142857142857, 0.42857142857142855, 0.8571428571428571, 1.0]}',
    ),
    "equidistant_d1": (
        [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0), (3.0, 9.0), (4.0, 16.0)], 2.5, 12, 2,
        '{"jumps": [6.0, 6.5, 8.0, 9.0, 16.0], '
        '"lower": [0.0, 0.16666666666666666, 0.3333333333333333, 0.5, 0.6666666666666666, '
        '0.8333333333333334], '
        '"upper": [0.16666666666666666, 0.3333333333333333, 0.5, 0.6666666666666666, '
        '0.8333333333333334, 1.0], '
        '"at_jump_lower": [0.0, 0.16666666666666666, 0.3333333333333333, 0.5, '
        '0.6666666666666666], '
        '"at_jump_upper": [0.3333333333333333, 0.5, 0.6666666666666666, 0.8333333333333334, '
        '1.0]}',
    ),
    "equidistant_d2": (
        _GRID_D2, (0.5, 0.0), 13, 8,
        '{"jumps": [0.0, 1.5, 2.0, 3.0, 4.0, 6.0], '
        '"lower": [0.0, 0.1, 0.2, 0.4, 0.5, 0.8, 0.9], '
        '"upper": [0.1, 0.2, 0.3, 0.5, 0.6, 0.9, 1.0], '
        '"at_jump_lower": [0.0, 0.1, 0.2, 0.4, 0.5, 0.8], '
        '"at_jump_upper": [0.2, 0.3, 0.5, 0.6, 0.9, 1.0]}',
    ),
    "tied_responses_d2": (
        [((0.0, 0.0), 1.0), ((0.0, 0.0), 1.0), ((1.0, 1.0), 2.0), ((1.0, 1.0), 2.0),
         ((0.0, 2.0), 1.0), ((2.0, 0.0), 2.0), ((2.0, 2.0), 1.0)], (1.0, 1.0), 14, 4,
        '{"jumps": [1.0, 2.0], "lower": [0.0, 0.25, 0.875], "upper": [0.125, 0.375, 1.0], '
        '"at_jump_lower": [0.0, 0.25], "at_jump_upper": [0.375, 1.0]}',
    ),
}


@pytest.mark.parametrize("case", sorted(NN_PINNED))
def test_nn_band_tie_breaks_are_pinned(case):
    rows, xq, seed, draws, text = NN_PINNED[case]
    training = [Observation(x, y) for x, y in rows]
    for data in (training, Columns.from_observations(training)):
        stream = derive_stream(seed, [0])
        assert nn_band(data, xq, stream).to_json() == text
        assert stream.draws == draws


@SETTINGS
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(st.lists(responses, min_size=d, max_size=d), responses),
            min_size=1,
            max_size=8,
        )
    )
)
def test_columns_round_trip_in_any_dimension(rows):
    training = [Observation(tuple(x), y) for x, y in rows]
    cols = Columns.from_observations(training)
    assert cols.xs.shape == (len(rows), len(rows[0][0]))
    assert cols.observations() == training
    assert Columns(cols.xs, cols.ys).observations() == training
    assert dh_band(cols.ys) == dh_band([o.y for o in training])
    if cols.d > 1:
        hcps = lambda data, x: hcps_band(data, x, thetas=[0.5] * (len(data) + 1))
        for build in (hmps_band, pfs_distribution, hcps):
            with pytest.raises(ValueError, match="scalar predictors required"):
                build(cols, (0.5,) * cols.d)
            with pytest.raises(ValueError, match="scalar predictors required"):
                build(training, (0.5,) * cols.d)
