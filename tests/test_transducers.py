"""Transducers, taxonomies, and band constructors."""

import math
import warnings
from functools import partial

import numpy as np
import pytest

from cpskit import (
    Columns,
    Observation,
    cell_index,
    conformal_pvalue,
    derive_stream,
    dh_band,
    h_schedule,
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
from cpskit.transducers import _cell_rank_keys, _group, nn_online

TOL = 1e-12


def obs(x, y):
    return Observation(x, y)


# --- cell width schedule ----------------------------------------------------


def test_h_schedule_values():
    assert h_schedule(1) == 1.0
    assert h_schedule(8) == 0.5
    assert h_schedule(512) == 0.125
    with pytest.raises(ValueError):
        h_schedule(0)


def test_h_schedule_properties():
    prev = h_schedule(1)
    for n in range(2, 5000):
        h = h_schedule(n)
        assert h <= prev
        ratio = prev / h
        assert ratio == int(ratio) and (int(ratio) & (int(ratio) - 1)) == 0  # power of 2
        frac, exp = math.frexp(h)
        assert frac == 0.5  # h itself is a power of 2
        prev = h
    # n * h_n grows without bound along a sample of sizes
    values = [n * h_schedule(n) for n in (1, 10, 100, 1000, 10_000, 100_000, 10**6)]
    assert all(b > a for a, b in zip(values, values[1:]))


# --- histogram taxonomy -----------------------------------------------------


def test_taxonomy_groups_by_cell():
    xs = [0.3, 0.4, 0.6, 1.7, 0.45, 0.2, 0.9, 1.1, 0.35]  # n = 8, h = 1/2
    labels = histogram_taxonomy(xs)
    assert labels[0] == labels[1] == labels[4] == labels[5] == labels[8]
    assert labels[0] != labels[2]


def test_taxonomy_half_open_boundary():
    assert cell_index(0.5, 0.5) == 1
    assert cell_index(0.49999, 0.5) == 0
    assert cell_index(-0.25, 0.5) == -1


def test_taxonomy_equivariance_and_response_blindness():
    rng = derive_stream(8, [0])
    xs = [rng.uniform() * 3 for _ in range(9)]
    labels = histogram_taxonomy(xs)
    order = rng.permutation(9)
    assert histogram_taxonomy([xs[i] for i in order]) == [labels[i] for i in order]
    # labels come from predictors only
    observations = [obs(x, rng.uniform()) for x in xs]
    assert histogram_taxonomy(observations) == labels


def test_taxonomy_requires_two_items():
    with pytest.raises(ValueError):
        histogram_taxonomy([0.5])


# --- conformal p-values -----------------------------------------------------


def test_conformal_pvalue_rank_examples():
    training = [obs(0.0, 1.0), obs(1.0, 3.0)]
    assert abs(conformal_pvalue(trivial_score, training, obs(0.5, 2.0), 0.0) - 1 / 3) < TOL
    assert conformal_pvalue(trivial_score, training, obs(0.5, -9.0), 0.0) == 0.0
    assert abs(conformal_pvalue(trivial_score, training, obs(0.5, 1.0), 1.0) - 2 / 3) < TOL


def test_conformal_pvalue_preconditions():
    with pytest.raises(ValueError):
        conformal_pvalue(trivial_score, [], obs(0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        conformal_pvalue(trivial_score, [obs(0.0, 0.0)], obs(0.0, 0.0), 1.5)


def test_conformal_pvalue_quantization():
    rng = derive_stream(9, [0])
    for _ in range(30):
        n = 1 + int(rng.uniform() * 12)
        training = [obs(rng.uniform(), rng.uniform()) for _ in range(n)]
        cand = obs(rng.uniform(), rng.uniform())
        for tau in (0.0, 1.0):
            p = conformal_pvalue(trivial_score, training, cand, tau)
            assert abs(p * (n + 1) - round(p * (n + 1))) < 1e-9


def test_mondrian_pvalue_cell_restriction():
    training = [obs(0.1, 2.0), obs(0.2, 5.0), obs(30.0, 9.0), obs(40.0, -3.0)]
    cand = obs(0.15, 3.0)
    p0 = mondrian_pvalue(histogram_taxonomy, trivial_score, training, cand, 0.0)
    p1 = mondrian_pvalue(histogram_taxonomy, trivial_score, training, cand, 1.0)
    assert abs(p0 - 1 / 3) < TOL and abs(p1 - 2 / 3) < TOL


def test_mondrian_single_class_equals_conformal():
    one_class = lambda seq: [0] * len(seq)
    rng = derive_stream(10, [0])
    training = [obs(rng.uniform(), rng.uniform()) for _ in range(7)]
    cand = obs(rng.uniform(), rng.uniform())
    for tau in (0.0, 0.25, 1.0):
        assert (
            mondrian_pvalue(one_class, trivial_score, training, cand, tau)
            == conformal_pvalue(trivial_score, training, cand, tau)
        )


def test_mondrian_lonely_candidate_is_pure_self_tie():
    training = [obs(10.0, 1.0), obs(11.0, 2.0)]
    cand = obs(0.1, 5.0)
    assert mondrian_pvalue(histogram_taxonomy, trivial_score, training, cand, 0.0) == 0.0
    assert mondrian_pvalue(histogram_taxonomy, trivial_score, training, cand, 1.0) == 1.0
    quantized = mondrian_pvalue(histogram_taxonomy, trivial_score, training, cand, 0.0)
    assert quantized * 1 == round(quantized * 1)  # multiples of 1/|class|


# --- response-rank band -----------------------------------------------------


def test_dh_band_examples():
    band = dh_band([1.0, 3.0])
    assert (band.evaluate(2.0, 0.0), band.evaluate(2.0, 1.0)) == (1 / 3, 2 / 3)
    assert (band.evaluate(1.0, 0.0), band.evaluate(1.0, 1.0)) == (0.0, 2 / 3)
    assert (band.evaluate(-5.0, 0.0), band.evaluate(-5.0, 1.0)) == (0.0, 1 / 3)
    with pytest.raises(ValueError):
        dh_band([])


def test_dh_band_with_ties_matches_transducer():
    responses = [1.0, 1.0, 3.0, 3.0, 3.0, 7.0]
    band = dh_band(responses)
    training = [obs(0.0, y) for y in responses]
    for y in (-2.0, 1.0, 1.5, 3.0, 5.0, 7.0, 9.0):
        for tau in (0.0, 0.4, 1.0):
            direct = conformal_pvalue(trivial_score, training, obs(0.0, y), tau)
            assert abs(band.evaluate(y, tau) - direct) < TOL


# --- nearest-neighbour band -------------------------------------------------


def test_nn_band_two_point_example():
    training = [obs(0.0, 0.0), obs(10.0, 1.0)]
    band = nn_band(training, 0.1, derive_stream(0, [0]))
    assert list(band.jumps) == [0.0, 0.5]  # midpoints with the estimate 0
    assert (band.evaluate(0.25, 0.0), band.evaluate(0.25, 1.0)) == (1 / 3, 2 / 3)


def test_nn_band_single_point():
    band = nn_band([obs(0.0, 5.0)], 0.0, derive_stream(0, [0]))
    assert list(band.jumps) == [5.0]
    assert (band.evaluate(3.0, 0.0), band.evaluate(3.0, 1.0)) == (0.0, 0.5)


def test_nn_band_identical_predictors_single_point_is_response_rank_band():
    band = nn_band([obs(1.0, 5.0)], 1.0, derive_stream(3, [0]))
    assert band == dh_band([5.0])


def test_nn_band_identical_predictors_keeps_rank_shape():
    # all predictors coincide: jumps move with the tie-broken estimate but the
    # plateau ladder stays the uniform rank ladder
    training = [obs(2.0, 0.0), obs(2.0, 1.0), obs(2.0, 4.0)]
    for k in range(20):
        band = nn_band(training, 2.0, derive_stream(13, [k]))
        assert len(band.jumps) == 3
        assert [round(v * 4) for v in band.lower] == [0, 1, 2, 3]
        assert [round(v * 4) for v in band.upper] == [1, 2, 3, 4]


def test_nn_band_matches_transducer_on_random_data():
    rng = derive_stream(14, [0])
    for ds in range(15):
        st = rng.child(ds)
        n = 1 + int(st.uniform() * 12)
        training = [obs(st.uniform(), st.uniform() * 4 - 2) for _ in range(n)]
        xq = st.uniform()
        band = nn_band(training, xq, st.child(0))
        for _ in range(40):
            y = st.uniform() * 6 - 3
            tau = st.uniform()
            direct = conformal_pvalue(nn_score, training, obs(xq, y), tau)
            assert abs(band.evaluate(y, tau) - direct) < TOL


def test_nn_band_row_blocks_give_the_same_band_and_draws(monkeypatch):
    import cpskit.transducers as transducers

    training = [obs((float(i % 4), float(i // 4 % 3)), float(i % 5)) for i in range(30)]
    whole = derive_stream(15, [0])
    expected = nn_band(training, (1.5, 1.0), whole)
    monkeypatch.setattr(transducers, "_NN_BLOCK_DISTANCES", 70)  # blocks of 2 rows
    blocked = derive_stream(15, [0])
    assert nn_band(training, (1.5, 1.0), blocked) == expected
    assert blocked.draws == whole.draws > 1


def test_nn_band_rejects_a_test_predictor_of_another_dimension():
    with pytest.raises(ValueError, match="dimension"):
        nn_band([obs((0.0, 1.0), 2.0)], 0.5, derive_stream(0, [0]))


# --- cell-conditional rank band ----------------------------------------------


def test_hmps_band_example_and_empty_cell():
    training = [obs(0.1, 2.0), obs(0.2, 5.0), obs(9.0, 0.0)]
    band = hmps_band(training, 0.15)
    assert (band.evaluate(3.0, 0.0), band.evaluate(3.0, 1.0)) == (1 / 3, 2 / 3)
    empty = hmps_band([obs(10.0, 1.0)], 0.0)
    assert empty.jumps == ()
    for tau in (0.0, 0.3, 1.0):
        assert empty.evaluate(123.0, tau) == tau


def test_hmps_band_matches_mondrian_transducer():
    rng = derive_stream(15, [0])
    for ds in range(15):
        st = rng.child(ds)
        n = 1 + int(st.uniform() * 15)
        training = [obs(st.uniform() * 2, st.uniform() * 4 - 2) for _ in range(n)]
        xq = st.uniform() * 2
        band = hmps_band(training, xq)
        for _ in range(25):
            y = st.uniform() * 6 - 3
            tau = st.uniform()
            direct = mondrian_pvalue(
                histogram_taxonomy, trivial_score, training, obs(xq, y), tau
            )
            assert abs(band.evaluate(y, tau) - direct) < TOL


def test_hmps_band_integral_identity():
    rng = derive_stream(16, [0])
    training = [obs(rng.uniform(), rng.uniform() * 10 - 5) for _ in range(40)]
    xq = rng.uniform()
    band = hmps_band(training, xq)
    h = h_schedule(40)
    in_cell = [o.y for o in training if cell_index(o.x[0], h) == cell_index(xq, h)]
    expected = sum(in_cell) / (len(in_cell) + 1)
    for tau in (0.0, 0.37, 1.0):
        assert abs(band.integrate(lambda y: y, tau) - expected) < TOL


# --- histogram-score conformal band ------------------------------------------


def test_hcps_band_two_point_enumeration():
    training = [obs(0.0, 4.0)]
    band = hcps_band(training, 0.5, thetas=[0.3, 0.6])  # h_schedule(1) = 1, shared cell
    assert band.evaluate(10.0, 1.0) == 1.0
    assert band.evaluate(-5.0, 0.0) == 0.0


def test_hcps_band_jumps_are_in_cell_responses():
    rng = derive_stream(17, [0])
    training = [obs(rng.uniform(), rng.uniform() * 4 - 2) for _ in range(30)]
    xq = rng.uniform()
    thetas = rng.uniforms(31).tolist()
    band = hcps_band(training, xq, thetas=thetas)
    h = h_schedule(30)
    in_cell = {o.y for o in training if cell_index(o.x[0], h) == cell_index(xq, h)}
    assert set(band.jumps) <= in_cell | {0.0}


def test_hcps_band_matches_transducer():
    rng = derive_stream(18, [0])
    for ds in range(10):
        st = rng.child(ds)
        n = 1 + int(st.uniform() * 15)
        training = [obs(st.uniform() * 2, st.uniform() * 4 - 2) for _ in range(n)]
        xq = st.uniform() * 2
        thetas = st.uniforms(n + 1).tolist()
        band = hcps_band(training, xq, thetas=thetas)
        measure = partial(histogram_score, n_for_partition=n)
        for _ in range(30):
            y = st.uniform() * 6 - 3
            tau = st.uniform()
            direct = conformal_pvalue(measure, training, obs(xq, y), tau, thetas=thetas)
            assert abs(band.evaluate(y, tau) - direct) < TOL


def test_hcps_band_keys_with_different_denominators_tie():
    # n = 14, cells 1/2 wide: 2 points share the test cell, so a candidate
    # between them scores 1/2; out-of-cell keys 1/2 (a cell of 3) and 2/4
    # (a cell of 5) tie with it, and 1/3 (a cell of 4) does not.
    xs = [0.1, 0.2] + [0.6, 0.7, 0.8] + [1.1, 1.2, 1.3, 1.4, 1.45] + [1.6, 1.7, 1.8, 1.9]
    training = [obs(x, float(k % 5)) for k, x in enumerate(xs)]
    thetas = [(k + 1) / 16 for k in range(15)]
    band = hcps_band(training, 0.25, thetas=thetas)
    measure = partial(histogram_score, n_for_partition=len(training))
    assert (band.evaluate(0.5, 0.0), band.evaluate(0.5, 1.0)) == (6 / 15, 9 / 15)
    for y in (-1.0, 0.0, 0.5, 1.0, 2.0):
        for tau in (0.0, 1.0):
            direct = conformal_pvalue(measure, training, obs(0.25, y), tau, thetas=thetas)
            assert band.evaluate(y, tau) == direct


def test_hcps_band_needs_randomness_source():
    with pytest.raises(ValueError):
        hcps_band([obs(0.0, 1.0)], 0.5)
    band = hcps_band([obs(0.0, 1.0)], 0.5, stream=derive_stream(1, [0]))
    band.validate()


# --- probability forecaster ---------------------------------------------------


def test_pfs_distribution_examples():
    training = [obs(0.1, 2.0), obs(0.2, 5.0), obs(9.0, 1.0)]
    band = pfs_distribution(training, 0.15)
    assert band.evaluate(3.0, 0.0) == 0.5
    empty = pfs_distribution([obs(10.0, 1.0)], 0.0)
    assert empty.evaluate(0.0, 0.0) == 1.0
    assert empty.evaluate(-0.1, 0.0) == 0.0
    multi = pfs_distribution([obs(0.1, 2.0), obs(0.2, 2.0), obs(0.3, 5.0)], 0.15)
    assert abs(multi.evaluate(2.0, 0.0) - 2 / 3) < TOL


def test_pfs_distribution_is_right_continuous_distribution_function():
    band = pfs_distribution([obs(0.1, 2.0), obs(0.2, 5.0)], 0.15)
    assert band.is_distribution_function()
    assert band.evaluate(2.0, 0.0) == band.evaluate(2.0 + 1e-9, 0.0)


# --- postulated-response family ----------------------------------------------


def test_venn_distribution_examples():
    training = [obs(0.1, 0.0), obs(0.2, 1.0), obs(30.0, 5.0)]
    b0 = venn_distribution(histogram_taxonomy, training, 0.15, 0.0)
    b1 = venn_distribution(histogram_taxonomy, training, 0.15, 1.0)
    assert abs(b0.evaluate(0.5, 0.0) - 2 / 3) < TOL
    assert abs(b1.evaluate(0.5, 0.0) - 1 / 3) < TOL
    assert b1.evaluate(5.0, 0.0) == 1.0  # above every class response and u


def test_venn_distribution_monotone_in_postulated_response():
    rng = derive_stream(19, [0])
    training = [obs(rng.uniform(), rng.uniform() * 4 - 2) for _ in range(12)]
    xq = rng.uniform()
    labels = histogram_taxonomy(training + [obs(xq, 0.0)])
    class_size = sum(1 for lab in labels if lab == labels[-1])  # includes the test point
    us = sorted(rng.uniform() * 4 - 2 for _ in range(6))
    bands = [venn_distribution(histogram_taxonomy, training, xq, u) for u in us]
    # raising the postulated response can only lower the curve, by <= 1/class
    for lo_band, hi_band in zip(bands, bands[1:]):
        for y in (-3.0, -1.0, 0.0, 1.0, 3.0):
            gap = lo_band.evaluate(y, 0.0) - hi_band.evaluate(y, 0.0)
            assert -TOL <= gap <= 1.0 / class_size + TOL


def test_venn_distribution_on_columns_labels_the_frozen_rows_and_the_test_row():
    training = Columns([[0.1, 1.0], [0.2, -1.0], [30.0, 0.0]], [0.0, 1.0, 5.0])
    seen = []

    def taxonomy(cols):
        seen.append(cols)
        return [0, 0, 1, 0]

    band = venn_distribution(taxonomy, training, (0.15, 2.0), 0.5)
    (cols,) = seen
    assert not cols.xs.flags.writeable and not cols.ys.flags.writeable
    assert cols.xs.tolist() == training.xs.tolist() + [[0.15, 2.0]]
    assert cols.ys.tolist() == [0.0, 1.0, 5.0, 0.5]
    assert band == venn_distribution(taxonomy, training.observations(), (0.15, 2.0), 0.5)
    with pytest.raises(ValueError):  # a test predictor of another dimension
        venn_distribution(taxonomy, training, 0.15, 0.5)


# --- float edges ----------------------------------------------------------------

HUGE = [2.0**54, 3.0, -(2.0**54)]  # beyond 2^53, y +- 1.0 rounds back to y


def test_hcps_band_with_huge_responses_matches_transducer():
    training = [obs(0.5, y) for y in HUGE]
    measure = partial(histogram_score, n_for_partition=len(training))
    for k in range(5):
        thetas = derive_stream(k, [0]).uniforms(4).tolist()
        band = hcps_band(training, 0.5, thetas=thetas)
        for y in HUGE + [math.nextafter(v, s) for v in HUGE for s in (-math.inf, math.inf)]:
            for tau in (0.0, 1.0):
                direct = conformal_pvalue(measure, training, obs(0.5, y), tau, thetas=thetas)
                assert band.evaluate(y, tau) == direct


def test_nn_band_midpoints_near_largest_double_stay_finite():
    training = [obs(0.0, 1.7e308), obs(1.0, 1.6e308)]
    band = nn_band(training, 0.0, derive_stream(0, [0]))
    assert all(math.isfinite(j) for j in band.jumps)
    assert list(band.jumps) == [1.6e308, 1.7e308]


def test_nn_distances_that_overflow_warn_of_nothing():
    # Squared distances of coordinates +-1e200 overflow to inf, which compares
    # exactly, so numpy's overflow warning would only be noise.
    training = [obs((1e200, 0.0), 1.0), obs((-1e200, 0.0), 2.0), obs((0.0, 1.0), 3.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nn_band(training, (1e200, 1.0), derive_stream(0, [0]))
        nn_online(Columns.from_observations(training + [obs((0.0, -1e200), 4.0)]),
                  derive_stream(0, [0]))


# --- sorting without stable sorts -----------------------------------------------


def _group_stable(values):
    """The grouping step with a stable sort, as it was written before."""
    v = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    first = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return v[starts], np.concatenate((starts, [len(v)]))


def test_group_keeps_the_first_signed_zero_of_the_input():
    # numpy's default sort orders -0.0 and 0.0 either way, differently from
    # one input to the next, so many inputs are checked.
    rng = np.random.default_rng(20240801)
    for lead, first in [(lead, first) for lead in ([], [3.0]) for first in (-0.0, 0.0)] * 10:
        values = rng.choice([-0.0, 0.0, -1.5, 2.0], size=100_000)
        values = np.concatenate((lead, [first], values))
        jumps, below = _group(values)
        want_jumps, want_below = _group_stable(values)
        assert jumps.view(np.int64).tolist() == want_jumps.view(np.int64).tolist()
        assert below.tolist() == want_below.tolist()
        assert math.copysign(1.0, jumps[1]) == math.copysign(1.0, first)


def _cell_rank_keys_lexsort(c, y, t):
    """The out-of-cell keys of hcps_band through a three-key lexsort, as they
    were computed before."""
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
    return np.sort(keys)


@pytest.mark.parametrize("n, rounds", [(20, 400), (5000, 8)])
def test_cell_rank_keys_match_the_lexsort_ranking(n, rounds):
    rng = np.random.default_rng(n)
    for _ in range(rounds):
        size = int(rng.integers(0, n + 1))
        cells = rng.integers(-3, 4, size) * 2.0 ** int(rng.integers(0, 60))
        ys = rng.choice([-0.0, 0.0, 1.0, -2.5, 0.5], size)
        if rng.random() < 0.3:
            ys = rng.normal(size=size)
        ts = rng.choice([0.0, 0.25, 0.5, 1.0], size) if rng.random() < 0.7 else rng.random(size)
        got = _cell_rank_keys(cells, ys, ts)
        assert got.tolist() == _cell_rank_keys_lexsort(cells, ys, ts).tolist()


@pytest.mark.parametrize("n", [20, 5000])
def test_hcps_band_on_tied_inputs_matches_the_lexsort_keys(n, monkeypatch):
    import cpskit.transducers as transducers

    rng = np.random.default_rng(n + 1)
    cases = []
    for _ in range(40 if n < 100 else 4):
        columns = transducers.Columns(
            rng.choice([0.05, 0.3, 0.55, 0.8], n), rng.choice([-0.0, 0.0, 1.0, -1.0, 2.0], n)
        )
        cases.append((columns, rng.choice([0.0, 0.5, 1.0], n + 1)))
    bands = [hcps_band(columns, 0.3, thetas=thetas).to_json() for columns, thetas in cases]
    monkeypatch.setattr(transducers, "_cell_rank_keys", _cell_rank_keys_lexsort)
    assert bands == [hcps_band(columns, 0.3, thetas=thetas).to_json() for columns, thetas in cases]


# --- hist-conformal bands from cell sizes ---------------------------------------


def _hcps_band_sorting_every_key(columns, x, thetas):
    """hcps_band as it was computed before out-of-cell points were counted
    from cell sizes: every out-of-cell key from ``_cell_rank_keys``, as a
    double, counted by binary search."""
    import cpskit.transducers as transducers

    n = len(columns)
    cells, c_test = transducers._cells(columns, x)
    in_test = cells == c_test
    theta_cand, den, out = thetas[n], n + 1, ~in_test
    out_keys = _cell_rank_keys(cells[out], columns.ys[out], thetas[:n][out])

    def band_values(less, tied, key):
        lo = less + out_keys.searchsorted(key)
        return lo / den, (less + tied + 1 + out_keys.searchsorted(key, "right")) / den

    yc, tc = columns.ys[in_test], thetas[:n][in_test]
    m = len(yc)
    if m:
        jumps, below = _group(yc)
        tc = tc[yc.argsort()]
        starts = below[:-1]
        less_g = np.add.reduceat(tc < theta_cand, starts)
        tied_g = np.add.reduceat(tc == theta_cand, starts)
        p0, p1 = band_values(below, 0, below / m)
        a0, a1 = band_values(starts + less_g, tied_g, (starts + less_g + tied_g) / m)
    else:
        jumps = np.zeros(1)
        p0, p1 = band_values(np.zeros(2, dtype=np.int64), 0, np.array([0.0, 1.0]))
        a0, a1 = band_values(np.zeros(1, dtype=np.int64), 0, np.ones(1))
    keep = ~((p0[:-1] == p0[1:]) & (p1[:-1] == p1[1:]) & (a0 == p0[1:]) & (a1 == p1[1:]))
    plateaus = np.concatenate(([True], keep))
    return transducers.PredictiveBand._adopt(
        jumps[keep], p0[plateaus], p1[plateaus], a0[keep], a1[keep]
    )


def _hcps_size_count_cases(n, rng):
    """Training columns, test predictors and tie-break numbers: uniform and
    skewed predictors (``50 * u**4`` leaves many cells of a few points),
    three singleton cells with responses -0.0, 0.0 and -2.0, continuous and
    tied responses, distinct tie-break numbers and ones tied only in the
    cells left of 0.1, and test predictors in a filled and in an empty cell."""
    for skew in (False, True):
        u = rng.random(n)
        xs = 50 * u**4 if skew else u.copy()
        xs[-3:] = [1000.0, 1007.0, 1014.0]
        for tied_ys in (False, True):
            ys = 2 * u + rng.choice([-1.0, 1.0], n)
            if tied_ys:
                ys = np.round(ys, 1)
            ys[-3:] = [-0.0, 0.0, -2.0]
            columns = Columns(xs, ys)
            thetas = rng.random(n + 1)
            for tied_thetas in (False, True):
                if tied_thetas:
                    thetas = thetas.copy()
                    left = np.flatnonzero(xs < 0.1)
                    thetas[left] = rng.choice([0.25, 0.5], len(left))
                for x in (float(xs[0]), 500.5):
                    yield columns, x, thetas


@pytest.mark.parametrize("n, block", [(2000, 64), (20000, None)])
def test_hcps_band_counts_from_cell_sizes_match_sorting_every_key(n, block, monkeypatch):
    import cpskit.transducers as transducers

    if block is not None:  # many blocks of the (cell sizes x keys) products
        monkeypatch.setattr(transducers, "_HCPS_BLOCK_COUNTS", block)
    for columns, x, thetas in _hcps_size_count_cases(n, np.random.default_rng(n)):
        want = _hcps_band_sorting_every_key(columns, x, thetas)
        assert hcps_band(columns, x, thetas=thetas).to_json() == want.to_json()


def test_hcps_band_ranks_only_the_cells_with_a_repeated_pair(monkeypatch):
    import cpskit.transducers as transducers

    n = 2000
    stream = derive_stream(3, [0])
    u = stream.uniforms(n)
    columns = Columns(u, 2 * u + np.where(stream.uniforms(n) < 0.5, -1.0, 1.0))
    thetas = stream.uniforms(n + 1)
    want = _hcps_band_sorting_every_key(columns, 0.9, thetas)

    def refuse(c, y, t):
        raise AssertionError("a cell without a repeated pair was ranked")

    monkeypatch.setattr(transducers, "_cell_rank_keys", refuse)
    assert hcps_band(columns, 0.9, thetas=thetas).to_json() == want.to_json()

    # Two rows of the cell [0, 1/8) now share one (y, theta) pair: that cell
    # alone is ranked, and the test cell holds 0.9.
    i, j = np.flatnonzero(columns.xs[:, 0] < 0.125)[:2]
    ys = columns.ys.copy()
    ys[j], thetas[j] = ys[i], thetas[i]
    columns = Columns(columns.xs, ys)
    want = _hcps_band_sorting_every_key(columns, 0.9, thetas)
    seen = []

    def spy(c, y, t):
        seen.append(c)
        return _cell_rank_keys(c, y, t)

    monkeypatch.setattr(transducers, "_cell_rank_keys", spy)
    assert hcps_band(columns, 0.9, thetas=thetas).to_json() == want.to_json()
    (cells,) = seen
    assert cells.tolist() == [0.0] * np.count_nonzero(columns.xs[:, 0] < 0.125)
