"""Transducers, taxonomies, and band constructors."""

import bisect
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from cpskit import (
    Columns,
    ExtendedObservation,
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
from cpskit.transducers import _cell_ranks, _group, dh_online, hcps_online, nn_online

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


# Nine rows give cells of width 0.5, where 1e308 / 0.5 overflows.
HUGE_FIRST = [obs(1e308, 0.0)] + [obs(0.5, 0.0)] * 8


@pytest.mark.parametrize(
    "call",
    [
        lambda: histogram_taxonomy(HUGE_FIRST),
        lambda: histogram_taxonomy(Columns.from_observations(HUGE_FIRST)),
        lambda: venn_distribution(histogram_taxonomy, HUGE_FIRST[1:], 1e308, 0.0),
        lambda: venn_distribution(
            histogram_taxonomy, Columns.from_observations(HUGE_FIRST[1:]), 1e308, 0.0
        ),
    ],
    ids=["taxonomy", "taxonomy on columns", "venn", "venn on columns"],
)
def test_a_predictor_too_large_for_its_cell_raises_one_error_in_both_forms(call):
    with pytest.raises(ValueError, match=r"predictor too large for cells of width 0\.5"):
        call()


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


def _dh_online_brute(ys):
    """Earlier responses below each one, and at or below it plus one, by
    comparing every pair."""
    ys = np.asarray(ys, dtype=np.float64)
    earlier = np.tri(len(ys), k=-1, dtype=bool)
    less = (earlier & (ys[None, :] < ys[:, None])).sum(axis=1)
    upto = (earlier & (ys[None, :] <= ys[:, None])).sum(axis=1) + 1
    return less[1:], upto[1:]


# Sizes 1 and 2, powers of two and their neighbours, and both sides of the
# 64-place groups that finish the counts.
DH_ONLINE_SIZES = sorted(
    {1, 2, 3, 5, 127, 129, 191, 192, 193, 1000}
    | {2**j + d for j in range(1, 11) for d in (-1, 0, 1)}
)


def _dh_online_responses(k, rng):
    """Continuous, grid-tied, signed-zero and huge, and rounded responses."""
    yield rng.random(k)
    yield rng.integers(-2, 3, k) * 0.5
    yield rng.choice([-0.0, 0.0, 1e300, -1e300, 1.0], k)
    yield np.round(rng.normal(size=k), 1)


@pytest.mark.parametrize("k", DH_ONLINE_SIZES)
def test_dh_online_matches_comparing_every_pair(k):
    rng = np.random.default_rng(k)
    for ys in _dh_online_responses(k, rng):
        less, upto = dh_online(ys)
        want_less, want_upto = _dh_online_brute(ys)
        assert less.dtype == upto.dtype == np.int64
        assert less.tolist() == want_less.tolist()
        assert upto.tolist() == want_upto.tolist()


def _dh_online_sorted_list(ys):
    """``_dh_online_brute``'s counts from a sorted list of the earlier
    responses, in O(k) memory."""
    seen, less, upto = [], [], []
    for y in ys.tolist():
        less.append(bisect.bisect_left(seen, y))
        upto.append(bisect.bisect_right(seen, y) + 1)
        bisect.insort(seen, y)
    return less[1:], upto[1:]


# Both sides of the 4096-place groups: no radix pass, one, two and three, and
# partial last groups.
@pytest.mark.parametrize("k", [4095, 4096, 4097, 8191, 8192, 8193, 12287, 12288, 12289, 20000])
def test_dh_online_matches_a_sorted_list_across_its_4096_place_groups(k):
    rng = np.random.default_rng(k)
    for ys in _dh_online_responses(k, rng):
        less, upto = dh_online(ys)
        want_less, want_upto = _dh_online_sorted_list(ys)
        assert less.tolist() == want_less
        assert upto.tolist() == want_upto


@pytest.mark.slow
@pytest.mark.parametrize("digits", [None, 2])
def test_dh_online_matches_a_fenwick_count_at_a_million_steps(digits):
    # Eight radix passes, then the 4096-place groups.
    ys = np.random.default_rng(6).normal(size=10**6)
    if digits is not None:
        ys = np.round(ys, digits)
    values = ys.tolist()
    rank = {v: r for r, v in enumerate(sorted(set(values)), 1)}
    tree = [0] * (len(rank) + 1)
    less, upto = [], []
    for y in values:
        r, below, at_or_below = rank[y], 0, 0
        i = r - 1
        while i:
            below += tree[i]
            i &= i - 1
        i = r
        while i:
            at_or_below += tree[i]
            i &= i - 1
        less.append(below)
        upto.append(at_or_below + 1)
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    got_less, got_upto = dh_online(ys)
    assert got_less.tolist() == less[1:]
    assert got_upto.tolist() == upto[1:]


@pytest.mark.parametrize("digits", [None, 2])
def test_dh_online_peak_memory_is_linear(digits):
    # Measured at 65.0 bytes per response continuous and 65.1 tied (64.7 and
    # 56.7 with 64-place groups and a stable argsort for ties); a k x 64
    # comparison or O(k log k) temporaries would exceed the bound.
    k = 10**5
    ys = np.random.default_rng(4).random(k)
    if digits is not None:
        ys = np.round(ys, digits)
    dh_online(ys[:100])
    tracemalloc.start()
    try:
        dh_online(ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 80 * k


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dh_online_rejects_non_finite_responses(bad):
    with pytest.raises(ValueError, match="responses must be finite"):
        dh_online([1.0, bad, 0.5])


@pytest.mark.parametrize("build", [dh_band, dh_online])
@pytest.mark.parametrize("bad", [np.ones((2, 2)), np.ones((3, 2)), 1.0])
def test_dh_forms_reject_responses_that_are_not_one_dimensional(build, bad):
    with pytest.raises(ValueError, match="responses must be one-dimensional"):
        build(bad)


@pytest.mark.parametrize("k", [0, 1])
def test_online_forms_have_no_step_without_two_rows(k):
    cols = Columns(np.zeros((k, 1)), np.zeros(k))
    for less, upto in (
        dh_online(cols.ys.tolist()),
        nn_online(cols, derive_stream(1, [0])),
        hcps_online(cols, np.full(k, 0.5)),
    ):
        assert less.dtype == upto.dtype == np.int64
        assert less.shape == upto.shape == (0,)


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


def test_hcps_band_needs_randomness_source(tmp_path, capsys):
    from cpskit.cli import main

    training = [obs(0.0, 1.0), obs(0.25, 3.0), obs(0.75, 2.0)]
    with pytest.raises(TypeError):
        hcps_band(training, 0.5)  # the caller supplies the tie-break numbers
    # The CLI draws the n + 1 numbers first from its band stream, path [0].
    path = tmp_path / "train.csv"
    path.write_text("x1,y\n0.0,1.0\n0.25,3.0\n0.75,2.0\n", encoding="utf-8")
    argv = ["band", "--system", "hist-conformal", "--input", str(path), "--x", "0.5"]
    assert main(argv + ["--seed", "1"]) == 0
    band = hcps_band(training, 0.5, derive_stream(1, [0]).uniforms(4))
    assert capsys.readouterr().out == band.to_json() + "\n"


@pytest.mark.parametrize("theta", [math.nan, math.inf, -0.5, 1.5])
def test_tie_break_numbers_outside_the_unit_interval_raise(theta):
    training = [obs(0.1, 0.0), obs(0.2, 1.0), obs(0.6, -1.0)]
    cols = Columns.from_observations(training + [obs(0.15, 0.5)])
    measure = partial(histogram_score, n_for_partition=len(training))
    for thetas in ([0.25, theta, 0.75, 0.5], [0.25, 0.5, 0.75, theta]):
        with pytest.raises(ValueError):
            hcps_band(training, 0.15, thetas=thetas)
        with pytest.raises(ValueError):
            hcps_online(cols, thetas)
        with pytest.raises(ValueError):
            conformal_pvalue(measure, training, obs(0.15, 0.5), 0.5, thetas=thetas)
    # -0.0 lies in [0, 1].
    thetas = [0.25, -0.0, 0.75, 0.5]
    band = hcps_band(training, 0.15, thetas=thetas)
    less, upto = hcps_online(cols, thetas)
    assert band.evaluate(0.5, 0.5) == conformal_pvalue(
        measure, training, obs(0.15, 0.5), 0.5, thetas=thetas
    ) == (less[-1] + 0.5 * (upto[-1] - less[-1])) / 4


@pytest.mark.parametrize(
    "thetas", [[0.25, 0.5, 0.75], [0.25, 0.5, 0.75, 0.5, 0.1], [[0.25, 0.5], [0.75, 0.5]]],
    ids=["three", "five", "2x2"],
)
def test_a_wrong_count_of_tie_break_numbers_raises(thetas):
    training = [obs(0.1, 0.0), obs(0.2, 1.0), obs(0.6, -1.0)]
    cols = Columns.from_observations(training + [obs(0.15, 0.5)])
    with pytest.raises(ValueError, match="need 4 tie-break numbers"):
        hcps_band(training, 0.15, thetas=thetas)
    with pytest.raises(ValueError, match="need 4 tie-break numbers"):
        hcps_online(cols, thetas)
    measure = partial(histogram_score, n_for_partition=len(training))
    with pytest.raises(ValueError, match="need 4 tie-break numbers"):
        conformal_pvalue(measure, training, obs(0.15, 0.5), 0.5, thetas=thetas)


def test_a_pair_repeats_only_when_both_numbers_do():
    from cpskit.transducers import _repeats_a_pair

    t = np.array([0.5, 0.25, 0.5, 0.5])
    assert not _repeats_a_pair(np.array([1.0, 1.0, 2.0, 3.0]), t)
    assert _repeats_a_pair(np.array([1.0, 1.0, 2.0, 1.0]), t)
    assert _repeats_a_pair(np.array([0.0, 1.0, 2.0, -0.0]), t)  # -0.0 == 0.0
    assert not _repeats_a_pair(np.ones(4), np.array([0.5, 0.25, 0.0, 1.0]))


@pytest.mark.parametrize(
    "j, xj", [(5, 0.2), (5, 1.7), (19, 0.2)], ids=["one cell", "two cells", "test row"]
)
def test_hcps_online_with_a_repeated_pair_matches_the_transducer(j, xj, monkeypatch):
    # Row 2 sits at x = 0.2 and row j repeats its (y, theta) pair, in its
    # cell or in another one at every width; row 19 is only ever tested.
    import cpskit.transducers as transducers

    k, rng = 20, np.random.default_rng(5)
    xs, ys, thetas = 2 * rng.random(k), np.round(rng.normal(size=k), 1), rng.random(k)
    xs[2], xs[j] = 0.2, xj
    ys[j], thetas[j] = ys[2], thetas[2]
    rows = Columns(xs, ys)
    band, built = transducers.hcps_band, []
    monkeypatch.setattr(transducers, "hcps_band", lambda *a: built.append(a) or band(*a))
    less, upto = hcps_online(rows, thetas)
    assert len(built) == 0
    for n in range(1, k):
        measure = partial(histogram_score, n_for_partition=n)
        training, test = rows.observations()[:n], rows.row(n)
        for tau, count in ((0.0, less[n - 1]), (1.0, upto[n - 1])):
            p = conformal_pvalue(measure, training, test, tau, thetas=thetas[: n + 1])
            assert p == count / (n + 1), (n, tau)


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


@pytest.mark.parametrize(
    "builder", [hmps_band, partial(hcps_band, thetas=[0.5] * 9), pfs_distribution],
    ids=["hmps", "hcps", "pfs"],
)
def test_histogram_builders_reject_a_non_finite_test_predictor(builder):
    # Eight rows give cells of width 0.5, where 1e308 / 0.5 overflows.
    training = Columns(np.arange(1, 9) / 10, np.arange(8.0))
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            builder(training, x)
    with pytest.raises(ValueError, match="too large"):
        builder(training, 1e308)


@pytest.mark.parametrize(
    "build",
    [
        dh_band,
        lambda t: nn_band(t, 0.5, derive_stream(0, [0])),
        lambda t: hmps_band(t, 0.5),
        lambda t: hcps_band(t, 0.5, thetas=[0.5]),
        lambda t: pfs_distribution(t, 0.5),
        lambda t: venn_distribution(histogram_taxonomy, t, 0.5, 1.0),
        lambda t: conformal_pvalue(trivial_score, t, obs(0.5, 1.0), 0.5),
    ],
    ids=["dh", "nn", "hmps", "hcps", "pfs", "venn", "oracle"],
)
def test_builders_reject_empty_training(build):
    with pytest.raises(ValueError, match="at least one"):
        build([])


# Eight rows at distinct distances from one another and from 0.25, so that
# nn_band draws nothing; three of them share the cell of 0.25.
CONTRACT_XS = [0.11, 0.23, 0.37, 0.52, 0.61, 0.79, 0.83, 0.97]
CONTRACT_YS = [1.5, -0.5, 2.0, 0.0, 3.0, 1.0, -1.0, 2.5]
CONTRACT_TRAINING = [obs(x, y) for x, y in zip(CONTRACT_XS, CONTRACT_YS)]
FIVE_BUILDERS = {
    "nn_band": partial(nn_band, stream=derive_stream(0, [0])),
    "hmps_band": hmps_band,
    "hcps_band": partial(hcps_band, thetas=np.linspace(0.05, 0.95, 9)),
    "pfs_distribution": pfs_distribution,
    "venn_distribution": partial(venn_distribution, histogram_taxonomy, u=1.0),
}


def _contract_training(form):
    if form == "columns":
        return Columns.from_observations(CONTRACT_TRAINING)
    return CONTRACT_TRAINING


@pytest.mark.parametrize("form", ["observations", "columns"])
@pytest.mark.parametrize("name", list(FIVE_BUILDERS))
def test_a_builder_reads_every_spelling_of_a_predictor_alike(name, form):
    build, training = FIVE_BUILDERS[name], _contract_training(form)
    band = build(training, 0.25)
    for x in ((0.25,), [0.25], np.float64(0.25), np.float32(0.25), np.array([0.25])):
        assert build(training, x) == band, x
    assert FIVE_BUILDERS["nn_band"].keywords["stream"].draws == 0
    with pytest.raises(ValueError, match=f"^{name} requires at least one training observation$"):
        build(training[:0] if form == "observations" else training.head(0), 0.25)


@pytest.mark.parametrize("form", ["observations", "columns"])
@pytest.mark.parametrize(
    "x",
    [math.nan, math.inf, "0.25", "5", b"5", Observation(0.25, 0.0), (0.25, 0.5), (),
     ["12", "0.5"], ["0.25"], [b"5"]],
    ids=["nan", "inf", "str", "digit", "bytes", "observation", "d=2", "d=0",
         "str components", "str component", "bytes component"],
)
def test_the_five_builders_reject_a_predictor_alike(x, form):
    training, failures = _contract_training(form), set()
    for build in FIVE_BUILDERS.values():
        with pytest.raises((ValueError, TypeError)) as info:
            build(training, x)
        failures.add((info.type, str(info.value)))
    assert len(failures) == 1, failures
    if isinstance(x, (str, bytes)):
        assert failures == {(ValueError, f"a predictor is a number or a sequence of numbers, got {x!r}")}
    if isinstance(x, list):
        assert failures == {(ValueError, f"predictor component must be a number, got {x[0]!r}")}


# --- postulated-response family ----------------------------------------------


def test_venn_distribution_examples():
    training = [obs(0.1, 0.0), obs(0.2, 1.0), obs(30.0, 5.0)]
    b0 = venn_distribution(histogram_taxonomy, training, 0.15, 0.0)
    b1 = venn_distribution(histogram_taxonomy, training, 0.15, 1.0)
    assert abs(b0.evaluate(0.5, 0.0) - 2 / 3) < TOL
    assert abs(b1.evaluate(0.5, 0.0) - 1 / 3) < TOL
    assert b1.evaluate(5.0, 0.0) == 1.0  # above every class response and u


def test_venn_distribution_compares_sequence_labels_as_rows():
    # The test row (0.15, 0.0) shares the label (0, 0) with 0.1 and 0.2, not 0.9.
    training = [obs(0.1, 1.0), obs(0.9, 2.0), obs(0.2, 3.0)]
    taxonomy = lambda rows: [(0, int(x[0] > 0.5)) for x in rows.xs.tolist()]
    band = venn_distribution(taxonomy, training, 0.15, 0.0)
    assert band.jumps == (0.0, 1.0, 3.0)
    assert band.upper == (0.0, 1 / 3, 2 / 3, 1.0)


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


@pytest.mark.parametrize(
    "xs, x", [([[0.1], [0.2]], (0.15, 1.0)), ([[0.1, 1.0], [0.2, 2.0]], 0.15)], ids=["d1", "d2"]
)
def test_venn_distribution_rejects_a_test_predictor_of_another_dimension(xs, x):
    training, d = Columns(xs, [1.0, 2.0]), len(xs[0])
    message = f"x has dimension {3 - d}, training predictors have {d}"
    with pytest.raises(ValueError, match=message):
        venn_distribution(lambda rows: [0] * len(rows), training, x, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda tax, t: conformal_pvalue(trivial_score, t, obs(0.15, 1.5), 0.5, taxonomy=tax),
        lambda tax, t: venn_distribution(tax, t, 0.15, 1.5),
        lambda tax, t: venn_distribution(tax, Columns.from_observations(t), 0.15, 1.5),
    ],
    ids=["oracle", "venn on observations", "venn on columns"],
)
def test_a_taxonomy_with_the_wrong_label_count_raises(call):
    short = lambda rows: [0] * (len(rows) - 1)
    with pytest.raises(ValueError, match="label all n"):
        call(short, [obs(0.1, 1.0), obs(0.2, 2.0)])


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
        want_jumps, want_below = _group_stable(values)
        # The sort of _group, and the argsort that hcps_band hands it.
        for jumps, below in (_group(values), _group(values, values.argsort())):
            assert jumps.view(np.int64).tolist() == want_jumps.view(np.int64).tolist()
            assert below.tolist() == want_below.tolist()
            assert math.copysign(1.0, jumps[1]) == math.copysign(1.0, first)


def _cell_rank_keys_lexsort(c, y, t):
    """The out-of-cell keys of hcps_band through a three-key lexsort, sorted
    doubles ``rank / N``, as they were computed before they were counted in
    integers."""
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


def _cell_rank_keys_by_score(c, y, t):
    """Every point's ``histogram_score`` against the other points of its cell,
    sorted: the cells as scalar predictors, at width ``h_schedule(1) = 1``.
    That score counts the other points of the cell whose ``(y, theta)`` pair
    is at or below the point's own, so each cell's pairs are sorted once and
    every count is read off them by bisection.  ``histogram_score`` itself
    scores each cell's lowest, middle and highest point, which must agree,
    and every point of a one-point cell."""
    cells, keys = {}, []
    for ci, yi, ti in zip(c.tolist(), y.tolist(), t.tolist()):
        cells.setdefault(ci, []).append(ExtendedObservation(obs(ci, yi), ti))
    for mates in cells.values():
        mates.sort(key=lambda e: (e.y, e.theta))
        pairs, others = [(e.y, e.theta) for e in mates], len(mates) - 1
        scores = [(bisect.bisect_right(pairs, p) - 1) / max(others, 1) for p in pairs]
        for i in {0, others // 2, others}:
            score = histogram_score(mates[:i] + mates[i + 1 :], mates[i], 1)
            assert others == 0 or score == scores[i]
            scores[i] = score
        keys += scores
    return sorted(keys)


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
        r, N = _cell_ranks(cells, ys, ts)
        assert r.dtype == N.dtype == np.int64
        assert np.sort(r / N).tolist() == _cell_rank_keys_by_score(cells, ys, ts)


@pytest.mark.parametrize("n", [20, 5000])
def test_hcps_band_on_tied_inputs_matches_the_lexsort_keys(n):
    import cpskit.transducers as transducers

    rng = np.random.default_rng(n + 1)
    cases = []
    for _ in range(40 if n < 100 else 4):
        columns = transducers.Columns(
            rng.choice([0.05, 0.3, 0.55, 0.8], n), rng.choice([-0.0, 0.0, 1.0, -1.0, 2.0], n)
        )
        cases.append((columns, rng.choice([0.0, 0.5, 1.0], n + 1)))
    bands = [hcps_band(columns, 0.3, thetas=thetas).to_json() for columns, thetas in cases]
    want = [_hcps_band_sorting_every_key(columns, 0.3, th).to_json() for columns, th in cases]
    assert bands == want


# --- hist-conformal bands from cell sizes ---------------------------------------


def _hcps_band_sorting_every_key(columns, x, thetas):
    """hcps_band as it was computed before out-of-cell points were counted
    from cell sizes or ranks in integers: every out-of-cell key from
    ``_cell_rank_keys_lexsort``, as a double, counted by binary search."""
    import cpskit.transducers as transducers

    n = len(columns)
    cells, c_test = transducers._cells(columns, (x,))
    in_test = cells == c_test
    theta_cand, den, out = thetas[n], n + 1, ~in_test
    out_keys = _cell_rank_keys_lexsort(cells[out], columns.ys[out], thetas[:n][out])

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


@pytest.mark.parametrize("n", [2000, 20000])
def test_hcps_band_counts_from_cell_sizes_match_sorting_every_key(n):
    for columns, x, thetas in _hcps_size_count_cases(n, np.random.default_rng(n)):
        want = _hcps_band_sorting_every_key(columns, x, thetas)
        assert hcps_band(columns, x, thetas=thetas).to_json() == want.to_json()


def test_hcps_band_keys_every_out_of_cell_point_once_a_pair_repeats(monkeypatch):
    import cpskit.transducers as transducers

    n = 2000
    stream = derive_stream(3, [0])
    u = stream.uniforms(n)
    columns = Columns(u, 2 * u + np.where(stream.uniforms(n) < 0.5, -1.0, 1.0))
    thetas = stream.uniforms(n + 1)
    want = _hcps_band_sorting_every_key(columns, 0.9, thetas)

    def refuse(c, y, t):
        raise AssertionError("a cell without a repeated pair was ranked")

    monkeypatch.setattr(transducers, "_cell_ranks", refuse)
    assert hcps_band(columns, 0.9, thetas=thetas).to_json() == want.to_json()

    # Two rows of the cell [0, 1/8) now share one (y, theta) pair: every
    # point outside the test cell, which holds 0.9, is keyed.
    i, j = np.flatnonzero(columns.xs[:, 0] < 0.125)[:2]
    ys = columns.ys.copy()
    ys[j], thetas[j] = ys[i], thetas[i]
    columns = Columns(columns.xs, ys)
    want = _hcps_band_sorting_every_key(columns, 0.9, thetas)
    seen = []

    def spy(c, y, t):
        seen.append(c)
        return _cell_ranks(c, y, t)

    monkeypatch.setattr(transducers, "_cell_ranks", spy)
    assert hcps_band(columns, 0.9, thetas=thetas).to_json() == want.to_json()
    (keyed,) = seen
    cells, c_test = transducers._cells(columns, (0.9,))
    assert keyed.tolist() == cells[cells != c_test].tolist()


def _out_of_cell_counts_by_keys(c, c_test, y, t, m):
    """Every out-of-cell point keyed by ``_cell_rank_keys_lexsort`` and
    counted by binary search, below ``a / m`` and at or below it, ``a = 0..m``."""
    out = c != c_test
    keys = _cell_rank_keys_lexsort(c[out], y[out], t[out])
    a = np.arange(m + 1) / m
    return keys.searchsorted(a), keys.searchsorted(a, "right")


def test_out_of_cell_counts_match_the_keyed_route():
    from cpskit.transducers import _out_of_cell_counts

    rng = np.random.default_rng(16)
    c, y, t = rng.integers(0, 6, 60).astype(float), rng.normal(size=60), rng.random(60)
    lone = np.arange(10.0, 20.0)  # ten singleton cells, responses of both signs
    cases = {
        "empty test cell": (c, 7.0, y, t),
        "singleton test cell": (np.append(c, 9.0), 9.0, np.append(y, 0.5), np.append(t, 0.5)),
        "every other cell a singleton": (
            np.append([3.0] * 5, lone), 3.0, rng.normal(size=15), rng.random(15)
        ),
        "signed-zero responses": (
            np.append(c, lone), 2.0, rng.choice([-0.0, 0.0, -1.0], 70), rng.random(70)
        ),
    }
    # Rows 0 and 1 share the test cell 0 and one (y, t) pair; no other pair repeats.
    yr, tr, cr = y.copy(), t.copy(), c.copy()
    cr[:2], yr[1], tr[1] = 0.0, yr[0], tr[0]
    cases["pair repeated only in the test cell"] = (cr, 0.0, yr, tr)
    # Pairs on a grid repeat in every cell, beside singletons of both signs.
    cases["pairs repeated in other cells"] = (
        np.append(c, lone), 1.0, rng.choice([-0.0, 0.0, 1.0], 70), rng.choice([0.0, 0.5], 70)
    )
    for name, (cells, c_test, ys, ts) in cases.items():
        for m in (1, 2, 5, 13):
            got = _out_of_cell_counts(cells, c_test, ys, ts, m)
            want = _out_of_cell_counts_by_keys(cells, c_test, ys, ts, m)
            assert [g.tolist() for g in got] == [w.tolist() for w in want], (name, m)


def _size_counts_one_key_at_a_time(c, c_test, y, m):
    """The size rule at each ``a = 0..m`` in turn, with Python ints: every
    cell other than ``c_test`` tallied by size, singletons by the sign of
    their response."""
    from cpskit.transducers import _size_counts

    cells = {}
    for ci, yi in zip(c.tolist(), y.tolist()):
        if ci != c_test:
            cells.setdefault(ci, []).append(yi)
    sizes, zeros, ones = {}, 0, 0
    for ys in cells.values():
        if len(ys) == 1:
            ones, zeros = ones + (ys[0] >= 0), zeros + (ys[0] < 0)
        else:
            sizes[len(ys)] = sizes.get(len(ys), 0) + 1
    counts = [_size_counts(a, m, zeros, ones, sizes.items()) for a in range(m + 1)]
    return [b for b, _ in counts], [u for _, u in counts]


def _realistic_route_cases(rng):
    """Cells of 10^2 to 10^4 points; 60 distinct sizes beside a large test
    cell, so that the size route takes many blocks; skewed predictors
    ``400 * u**4`` at the width of 20000 points, whose test cell is the
    largest, beside many tiny cells and singletons of both signs."""
    n = 20_000
    c = np.floor(rng.random(n) * rng.choice([2, 10, 40], n))
    assert np.unique(c, return_counts=True)[1].min() >= 100
    yield "cells of 10^2 to 10^4 points", c, 3.0, rng.normal(size=n), (1, 7, 150, 1000)
    c = np.concatenate((np.repeat(np.arange(60.0), np.arange(2, 62)), np.full(1500, 99.0)))
    y = rng.choice([-1.0, 1.0], len(c)) * rng.random(len(c))
    yield "60 distinct sizes", c, 99.0, y, (1, 61, 400, 1500)
    c = np.floor(400 * rng.random(n) ** 4 / h_schedule(n))
    y = rng.normal(size=n)
    y[c > 1000] = np.where(rng.random(np.count_nonzero(c > 1000)) < 0.5, -0.0, 0.0)
    sizes = np.unique(c, return_counts=True)[1]
    assert sizes[0] == sizes.max() > 2000 and np.count_nonzero(sizes == 1) > 1000
    yield "skewed", c, 0.0, y, (1, 33, 1000)


def test_out_of_cell_counts_at_realistic_sizes():
    from cpskit.transducers import _out_of_cell_counts, _repeats_a_pair

    rng = np.random.default_rng(22)
    for name, c, c_test, y, ms in _realistic_route_cases(rng):
        t = rng.random(len(c))
        assert not _repeats_a_pair(y, t)  # the size route
        for m in ms:
            got = [g.tolist() for g in _out_of_cell_counts(c, c_test, y, t, m)]
            want = [w.tolist() for w in _out_of_cell_counts_by_keys(c, c_test, y, t, m)]
            assert got == want, (name, m)
            assert list(_size_counts_one_key_at_a_time(c, c_test, y, m)) == want, (name, m)


def test_one_size_rule_serves_the_band_and_the_online_steps(monkeypatch):
    import cpskit.transducers as transducers

    rule, keys = transducers._size_counts, []

    def spy(a, *args):
        keys.append(type(a))
        return rule(a, *args)

    monkeypatch.setattr(transducers, "_size_counts", spy)
    stream = derive_stream(22, [0])
    u = stream.uniforms(300)
    rows = Columns(u, 2 * u + np.where(stream.uniforms(300) < 0.5, -1.0, 1.0))
    thetas = stream.uniforms(301)
    want = _hcps_band_sorting_every_key(rows, 0.3, thetas)
    assert hcps_band(rows, 0.3, thetas=thetas).to_json() == want.to_json()
    assert keys and all(k is np.ndarray for k in keys)
    keys.clear()
    hcps_online(rows, thetas[:300])
    assert len(keys) == 299 and all(k is int for k in keys)
