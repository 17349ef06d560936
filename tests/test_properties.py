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
import json
import math
from fractions import Fraction
from functools import partial
from unittest import mock

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
import cpskit.partition as partition
import cpskit.transducers as transducers
from cpskit.conformity import _sq_dist
from cpskit.harness import rows_to_csv

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
    assert text == json.dumps(band.to_dict())
    again = PredictiveBand.from_json(text)
    assert again == band and again.to_json() == text and hash(again) == hash(band)
    rows = zip(band.jumps, band.at_jump_lower, band.at_jump_upper)
    assert band.to_csv() == rows_to_csv(("y", "lower", "upper"), rows)


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
    # Every jump moves the band, so no two plateaus could merge.
    _, lower, upper = band.arrays[:3]
    assert ((lower[1:] > lower[:-1]) | (upper[1:] > upper[:-1])).all()
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
    seq = training + [Observation(xq, u)]
    assert histogram_taxonomy(Columns.from_observations(seq)).tolist() == histogram_taxonomy(seq)
    pool = in_cell(training, xq) + [u]
    recount = lambda y, tau: sum(1 for v in pool if v <= y) / len(pool)
    assert_matches(band, recount, queries(training + [Observation(xq, u)]))


# to_json formats each distinct value once, keyed by its bits: pinned on
# signed zeros, on a band with no jumps, and on a 10^4-jump band.
_SIGNED_ZEROS = ('{"jumps": [-0.0, 1.0], "lower": [-0.0, 0.5, 1.0], "upper": [0.0, 0.5, 1.0], '
                 '"at_jump_lower": [0.0, 0.5], "at_jump_upper": [0.5, 1.0]}')
TO_JSON_PINNED = {
    "signed_zeros": lambda: PredictiveBand.from_json(_SIGNED_ZEROS),
    "no_jumps": lambda: hmps_band([Observation(0.1, 1.0)], 3.0),
    "dh_10k": lambda: dh_band(np.random.default_rng(0).random(10_000)),
}


@pytest.mark.parametrize("case", sorted(TO_JSON_PINNED))
def test_to_json_is_json_dumps_of_to_dict(case):
    band = TO_JSON_PINNED[case]()
    assert_invariants(band)
    text = band.to_json()
    if case == "signed_zeros":
        assert text == _SIGNED_ZEROS
    elif case == "no_jumps":
        assert band.jumps == () and text.startswith('{"jumps": [], "lower": [0.0]')
    else:
        assert len(band.jumps) == 10_000


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


@st.composite
def online_problems(draw, max_k=24, systems=("dh", "nn", "hist-conformal"), unique=False):
    """(system, rows, tie-break numbers, seed) for the online protocol, with
    duplicated predictors, responses and (unless ``unique``) tie-break
    numbers; predictors of dimension 1 to 3 for nn, where +-1e200 makes
    squared distances overflow to inf."""
    system = draw(st.sampled_from(list(systems)))
    d = draw(st.integers(1, 3)) if system == "nn" else 1
    k = draw(st.integers(2, max_k))
    coord = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1e200, -1e200]),
                      st.floats(-3.0, 3.0))
    xs = draw(st.lists(st.tuples(*[coord] * d), min_size=k, max_size=k))
    ys = draw(st.lists(st.one_of(st.sampled_from(RESPONSE_POOL[:5]), responses),
                       min_size=k, max_size=k))
    theta = draw(st.lists(thetas, min_size=k, max_size=k, unique=unique))
    return system, Columns(xs, ys), np.array(theta), draw(st.integers(0, 3))


@SETTINGS
@given(online_problems())
def test_online_counts_are_the_band_at_every_step(problem):
    system, rows, theta, seed = problem
    spec = SYSTEMS[system]
    band_stream, online_stream = derive_stream(seed, [1]), derive_stream(seed, [1])
    less, upto = spec.online(rows, theta, online_stream)
    for n in range(1, len(rows)):
        test = rows.row(n)
        band = spec.band(rows.head(n), test.x, band_stream, theta[: n + 1], None)
        assert band_pair(band, test.y) == (less[n - 1] / (n + 1), upto[n - 1] / (n + 1)), n
    assert band_stream.draws == online_stream.draws


@SETTINGS
@given(online_problems(systems=("hist-conformal",), unique=True))
def test_hcps_online_with_distinct_tie_breaks_builds_no_band(problem):
    # Distinct tie-break numbers repeat no (y, theta) pair, so every step is
    # counted from the cell lists, over the same tied predictors and responses.
    def refuse(*args):
        raise AssertionError("hcps_online built a band")

    with mock.patch.object(transducers, "hcps_band", refuse):
        test_online_counts_are_the_band_at_every_step.hypothesis.inner_test(problem)


@SETTINGS
@given(online_problems(max_k=40, systems=("nn",)), st.sampled_from([1, 2, 7, 300]))
def test_nn_online_counts_in_small_blocks_are_the_band_at_every_step(problem, bound):
    # Blocks of one or a few steps put block edges among the ties and draws.
    with mock.patch.object(transducers, "_NN_BLOCK_DISTANCES", bound):
        test_online_counts_are_the_band_at_every_step.hypothesis.inner_test(problem)


@settings(SETTINGS, max_examples=40)
@given(online_problems(max_k=40, systems=("hist-conformal",)),
       st.sampled_from(["fixed 1/4", "one point a cell"]))
def test_hcps_online_relabels_at_every_width_change(problem, rule):
    # Width rules that change other than at n = 8**k, as a cell-width
    # parameter would allow: each change relabels every row.
    width = {"fixed 1/4": lambda n: 0.25,
             "one point a cell": lambda n: 2.0 ** -(int(n).bit_length() - 1)}[rule]
    with mock.patch.object(partition, "h_schedule", width), \
            mock.patch.object(transducers, "h_schedule", width):
        test_online_counts_are_the_band_at_every_step.hypothesis.inner_test(problem)


# --- validity as an exact identity over every bag -----------------------------
#
# Fix a bag of n + 1 rows (x, y, theta).  Leaving out row i and building the
# band from the other n at x_i, its value at y_i runs over [less_i, upto_i]
# / (n + 1) as tau runs over [0, 1].  The system is valid under every
# exchangeable law exactly when, for every bag, these n + 1 intervals, each
# carrying density 1 / (upto_i - less_i), sum to density 1 on every unit of
# (0, n + 1).  A Mondrian system satisfies the same within each cell, with
# the cell's size in place of n + 1.  No seed and no tolerance.


def leave_one_out(system, xs, ys, thetas):
    """(less_i, upto_i, denominator) of every row of the bag, read from the
    registry band of the other rows at x_i as exact integers; the
    denominator is n + 1, or for hist-mondrian the size of i's cell."""
    spec, k = SYSTEMS[system], len(ys)
    labels = histogram_taxonomy(Columns(xs, ys))
    out = []
    for i in range(k):
        rest = np.arange(k) != i
        stream = derive_stream(0, [i])
        th = np.append(thetas[rest], thetas[i]) if spec.tie_breaks else None
        band = spec.band(Columns(xs[rest], ys[rest]), (xs[i],), stream, th, None)
        assert stream.draws == 0  # no distance tie drew
        den = int((labels == labels[i]).sum()) if system == "hist-mondrian" else k
        counts = []
        for tau in (0.0, 1.0):
            value = band.evaluate(ys[i], tau)
            counts.append(round(value * den))
            assert counts[-1] / den == value
        out.append((*counts, den))
    return out


def is_uniform(rows):
    """Whether the intervals [less, upto] / den of ``rows``, each carrying
    probability 1 / len(rows) spread evenly over it, give density 1 on all
    of (0, 1).  With one ``den = len(rows)`` this is the integer form."""
    intervals = [(Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in rows]
    assert all(0 <= lo < hi <= 1 for lo, hi in intervals)
    cuts = sorted({0, 1, *(e for iv in intervals for e in iv)})
    return all(
        sum(1 / (hi - lo) for lo, hi in intervals if lo <= a and b <= hi) == len(rows)
        for a, b in zip(cuts, cuts[1:])
    )


def per_cell(xs, ys, rows):
    labels = histogram_taxonomy(Columns(xs, ys))
    return [[r for r, lab in zip(rows, labels) if lab == c] for c in set(labels.tolist())]


@st.composite
def bags(draw, max_k=41):
    """(xs, ys, thetas) of 2 to ``max_k`` rows from the tie-heavy pools."""
    k = draw(st.integers(2, max_k))
    xs = draw(st.lists(predictors, min_size=k, max_size=k))
    ys = draw(st.lists(responses, min_size=k, max_size=k))
    return np.array(xs), np.array(ys), np.array(draw(st.lists(thetas, min_size=k, max_size=k)))


@st.composite
def nn_bags(draw, max_k=24):
    """Bags without distance ties: predictors at distinct powers of 2, whose
    differences are all distinct; responses on a grid of halves, so that
    every crossing is exact."""
    k = draw(st.integers(2, max_k))
    xs = [2.0 ** e for e in draw(st.permutations(range(-8, max_k - 8)))[:k]]
    ys = draw(st.lists(st.integers(-8, 8).map(lambda v: v / 2.0), min_size=k, max_size=k))
    return np.array(xs), np.array(ys), np.zeros(k)


@settings(SETTINGS, max_examples=50)
@given(st.data())
@pytest.mark.parametrize("system", ["dh", "hist-mondrian", "hist-conformal", "nn"])
def test_every_bag_is_tiled_exactly(system, data):
    xs, ys, theta = data.draw(nn_bags() if system == "nn" else bags())
    rows = leave_one_out(system, xs, ys, theta)
    assert is_uniform(rows)
    if system == "hist-mondrian":
        assert all(is_uniform(cell) for cell in per_cell(xs, ys, rows))


def test_hist_conformal_is_not_valid_within_a_cell():
    # Three rows, cells of width h_schedule(2) = 1: rows 0 and 1 share a cell.
    # The bag is tiled, by [0, 1], [1, 3] and [1, 3] over 3, but within the
    # cell [0, 1] / 3 and [1, 3] / 3 put density 3/2 on (0, 1/3), where
    # hist-mondrian's values cover the cell evenly.
    xs, ys = np.array([1.6, 1.6, 0.2]), np.array([-1.0, 0.0, 2.0])
    theta = np.array([0.5, 0.75, 0.25])
    rows = leave_one_out("hist-conformal", xs, ys, theta)
    assert [r[:2] for r in rows] == [(0, 1), (1, 3), (1, 3)]
    assert is_uniform(rows)
    assert not all(is_uniform(cell) for cell in per_cell(xs, ys, rows))
    mondrian = leave_one_out("hist-mondrian", xs, ys, theta)
    assert all(is_uniform(cell) for cell in per_cell(xs, ys, mondrian))
