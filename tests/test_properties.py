"""Property tests: closed-form bands against the generic transducers.

Hypothesis generates training sets with tied responses, duplicated
predictors, tied or extreme tie-break numbers, empty test cells and
magnitudes up to 1e300.  Every band must equal its oracle exactly at each
training response, at the doubles next to it and between neighbours, keep
its structural invariants, and survive a JSON round trip byte for byte.
Runs are derandomized, so the examples are the same on every run.
"""

import bisect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpskit import (
    Columns,
    Observation,
    PredictiveBand,
    conformal_pvalue,
    dh_band,
    hcps_band,
    histogram_score,
    histogram_taxonomy,
    hmps_band,
    mondrian_pvalue,
    pfs_distribution,
    trivial_score,
)

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
