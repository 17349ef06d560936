"""Samplers, validity statistics, consistency curves, and exact demos."""

import hashlib
import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from cpskit import (
    Columns,
    Observation,
    SAMPLERS,
    TEST_FUNCTIONS,
    TestFunction,
    consistency_curve,
    derive_stream,
    dh_band,
    histogram_taxonomy,
    ks_uniform,
    marginal_calibration_exchangeable,
    marginal_calibration_iid,
    online_coverage,
    pit_sample,
    venn_calibration,
    venn_distribution,
)
from cpskit.harness import SYSTEMS, Sampler, rows_to_csv


# --- samplers ----------------------------------------------------------------


def test_sampler_draws_are_reproducible():
    for sampler in SAMPLERS.values():
        a = sampler.draw(derive_stream(31, [0]), 10)
        b = sampler.draw(derive_stream(31, [0]), 10)
        assert a == b


# Each sampler's law written out for one row from its uniform pair (u1, u2).
ROW_LAWS = {
    "p1": lambda u1, u2: Observation(u1, 2.0 * u1 + (-1.0 if u2 < 0.5 else 1.0)),
    "p2": lambda u1, u2: Observation(u1, u2),
    "p3": lambda u1, u2: Observation(u1, 1.0 if u2 < u1 else 0.0),
    "const": lambda u1, u2: Observation(u1, 2.5),
}


def test_sampler_columns_match_the_per_row_maker():
    us = derive_stream(34, [0]).uniforms(2 * 50).tolist()
    for sampler in list(SAMPLERS.values()) + [_ConstantSampler()]:
        law = ROW_LAWS[sampler.name]
        by_row = [law(u1, u2) for u1, u2 in zip(us[0::2], us[1::2])]
        assert sampler.columns(derive_stream(34, [0]), 50).observations() == by_row
        assert sampler.draw(derive_stream(34, [0]), 50) == by_row


def _assert_rows(cols, rows):
    assert cols.xs.shape == (len(rows), 1) and cols.ys.shape == (len(rows),)
    assert cols.xs.tobytes() == np.array([o.x for o in rows]).tobytes()
    assert cols.ys.tobytes() == np.array([o.y for o in rows]).tobytes()
    assert not (cols.xs.flags.writeable or cols.ys.flags.writeable)
    # Two columns of their own, not strided views that keep all the draws alive.
    assert cols.xs.flags.c_contiguous and cols.ys.flags.c_contiguous
    assert not np.shares_memory(cols.xs, cols.ys)


@pytest.mark.parametrize("k", [1, 2, 21, 1000])
def test_sampler_columns_are_the_row_laws_bit_for_bit(k):
    # The whole-array laws against the literal ones, sign bit included, and
    # two draws a row.
    for seed in range(-1, 21):
        us = derive_stream(seed, [5]).uniforms(2 * k).tolist()
        for sampler in list(SAMPLERS.values()) + [_ConstantSampler()]:
            stream = derive_stream(seed, [5])
            cols = sampler.columns(stream, k)
            assert stream.draws == 2 * k
            _assert_rows(cols, [ROW_LAWS[sampler.name](*u) for u in zip(us[0::2], us[1::2])])


def test_sampler_laws_at_the_edges_of_the_uniforms():
    # p1 gives y = +0.0 at u1 = 0.5 with u2 below 0.5, and p3 ties at u1 = u2.
    below = 0.5 - 2.0**-54
    u1 = [0.0, 0.0, 0.5, 0.5, 0.5, below, 1.0 - 2.0**-53, 2.0**-53, 0.25]
    u2 = [0.0, 0.5, 0.5, below, 0.0, 0.5, 1.0 - 2.0**-53, 0.75, 0.25]
    for sampler in SAMPLERS.values():
        cols = sampler._make_columns(np.array(u1), np.array(u2))
        _assert_rows(cols, [ROW_LAWS[sampler.name](*u) for u in zip(u1, u2)])


def test_conditional_means_are_python_floats():
    for name, sampler in SAMPLERS.items():
        for f in TEST_FUNCTIONS.values():
            assert type(sampler.conditional_mean(f, 0.3)) is float, (name, f.name)
    rows = consistency_curve("dh", SAMPLERS["p1"], TEST_FUNCTIONS["cos"], [20], 3, 8)
    assert "np." not in rows_to_csv(("n", "median_discrepancy"), rows)


def test_noisy_line_conditional_oracle_against_monte_carlo():
    sampler = SAMPLERS["p1"]
    clamp = TEST_FUNCTIONS["clamp"]
    draws = sampler.draw(derive_stream(32, [0]), 40_000)
    window = [o for o in draws if 0.45 <= o.x[0] <= 0.55]
    empirical = sum(clamp.fn(o.y) for o in window) / len(window)
    assert abs(empirical - sampler.conditional_mean(clamp, 0.5)) < 0.05


def test_bernoulli_conditional_oracle():
    sampler = SAMPLERS["p3"]
    clamp = TEST_FUNCTIONS["clamp"]
    assert sampler.conditional_mean(clamp, 0.25) == 0.25
    draws = sampler.draw(derive_stream(33, [0]), 20_000)
    assert set(o.y for o in draws) == {0.0, 1.0}


def test_independent_sampler_requires_registered_integral():
    sampler = SAMPLERS["p2"]
    assert sampler.conditional_mean(TEST_FUNCTIONS["cos"], 0.9) == math.sin(1.0)
    with pytest.raises(ValueError):
        sampler.conditional_mean(TestFunction("cube", lambda y: y**3, 1.0), 0.5)


# --- uniformity statistic ------------------------------------------------------


def test_ks_uniform_examples():
    assert ks_uniform([0.5]) == 0.5
    m = 100
    assert abs(ks_uniform([k / m for k in range(1, m + 1)]) - 1 / m) < 1e-12
    with pytest.raises(ValueError):
        ks_uniform([])
    with pytest.raises(ValueError):
        ks_uniform([0.2, 1.4])


@pytest.mark.parametrize("values", [[[0.1, 0.2]], [[0.1], [0.2]], 0.5, [[]]])
def test_ks_uniform_rejects_values_that_are_not_one_dimensional(values):
    # A column of values used to give 0.9, each row sorted on its own.
    shape = np.shape(values)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        ks_uniform(np.array(values))


@pytest.mark.parametrize("values", [[0.5, math.nan], [math.nan], [math.nan, 0.5, 0.25]])
def test_ks_uniform_rejects_nan(values):
    # A NaN anywhere, first, last or alone, fails the range check.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ks_uniform(values)


def _ks_uniform_loop(values):
    """The KS distance one sorted value at a time, in Python floats."""
    vs, d = sorted(float(v) for v in values), 0.0
    for i, v in enumerate(vs):
        d = max(d, v - i / len(vs), (i + 1) / len(vs) - v)
    return d


def test_ks_uniform_matches_the_loop_to_the_bit():
    rng = np.random.default_rng(2)
    for _ in range(300):
        k = int(rng.integers(1, 500))
        values = rng.random(k) if rng.random() < 0.5 else rng.choice([0.0, 0.3, 1.0], k)
        assert ks_uniform(values.tolist()) == _ks_uniform_loop(values)


def test_pit_sample_basics():
    p1 = SAMPLERS["p1"]
    single = pit_sample("dh", p1, 5, 1, 7)
    assert len(single) == 1 and 0.0 <= single[0] <= 1.0
    with pytest.raises(ValueError):
        pit_sample("no-such-system", p1, 5, 1, 7)
    # same seed, same values
    assert pit_sample("nn", p1, 6, 5, 11) == pit_sample("nn", p1, 6, 5, 11)


def test_pit_sample_uniformity_smoke():
    # acceptance runs the full 1e4-trial version; this is the 1% test at M=2000
    p2 = SAMPLERS["p2"]
    for system in ("dh", "hist-mondrian"):
        ks = ks_uniform(pit_sample(system, p2, 20, 2000, 424242))
        assert ks < 1.628 / math.sqrt(2000)


def test_pit_sample_fixed_tau_stays_in_range():
    values = pit_sample("dh", SAMPLERS["p1"], 8, 50, 3, tau=0.25)
    assert all(0.0 <= v <= 1.0 for v in values)


P1, P3, CLAMP = SAMPLERS["p1"], SAMPLERS["p3"], TEST_FUNCTIONS["clamp"]


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(pit_sample, "dh", P1, 0, 10, 1), "n must be >= 1"),
        (partial(pit_sample, "dh", P1, 5, 0, 1), "trials must be >= 1"),
        (partial(pit_sample, "pfs", P1, 5, 10, 1), "does not define a randomized p-value"),
        (partial(online_coverage, "dh", P1, 0, 0.1, 1), "steps must be >= 1"),
        (partial(online_coverage, "dh", P1, 10, -0.1, 1), "epsilon must lie in"),
        (partial(online_coverage, "dh", P1, 10, 1.5, 1), "epsilon must lie in"),
        (partial(online_coverage, "dh", P1, 10, math.nan, 1), "epsilon must lie in"),
        (partial(consistency_curve, "dh", P1, CLAMP, [10], 0, 1), "trials must be >= 1"),
        (partial(consistency_curve, "dh", P1, CLAMP, [0], 1, 1), "sizes must be >= 1"),
        (partial(venn_calibration, histogram_taxonomy, P1, 0, 10, [0.0], 1), "n must be >= 1"),
        (partial(venn_calibration, histogram_taxonomy, P1, 5, 0, [0.0], 1), "trials must be"),
        (partial(pit_sample, "dh", P1, 2.5, 3, 1), "n must be >= 1"),
        (partial(pit_sample, "dh", P1, True, 3, 1), "n must be >= 1"),
        (partial(pit_sample, "dh", P1, 5, 2.5, 1), "trials must be >= 1"),
        (partial(online_coverage, "dh", P1, 5.5, 0.1, 1), "steps must be >= 1"),
        (partial(consistency_curve, "dh", P1, CLAMP, [10, 10.5], 1, 1), "sizes must be >= 1"),
        (partial(consistency_curve, "dh", P1, CLAMP, [10], 2.5, 1), "trials must be >= 1"),
        (partial(venn_calibration, histogram_taxonomy, P3, 5.5, 10, [0.0], 1), "n must be >= 1"),
        (partial(venn_calibration, histogram_taxonomy, P3, 5, 2.5, [0.0], 1), "trials must be"),
    ],
    ids=[
        "pit n", "pit trials", "pit pfs", "online steps", "online epsilon < 0",
        "online epsilon > 1", "online epsilon nan", "consistency trials", "consistency n",
        "venn n", "venn trials", "pit n real", "pit n bool", "pit trials real",
        "online steps real", "consistency n real", "consistency trials real", "venn n real",
        "venn trials real",
    ],
)
def test_harness_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_harness_accepts_numpy_integer_sizes():
    n, trials = np.int64(5), np.uint8(3)
    assert pit_sample("dh", P1, n, trials, 1) == pit_sample("dh", P1, 5, 3, 1)
    assert online_coverage("dh", P1, n, 0.1, 1) == online_coverage("dh", P1, 5, 0.1, 1)
    got = consistency_curve("dh", P1, CLAMP, [n], trials, 1)
    assert got == consistency_curve("dh", P1, CLAMP, [5], 3, 1)
    assert type(got[0][0]) is int


def test_consistency_checks_every_size_before_the_first_trial(monkeypatch):
    import cpskit.harness as harness

    def refuse(*args):
        raise AssertionError("a trial stream was derived")

    monkeypatch.setattr(harness, "derive_stream", refuse)
    with pytest.raises(ValueError, match="sizes must be >= 1"):
        consistency_curve("hist-conformal", P1, CLAMP, [10000, 0], 20, 1)


class _TieBreaksRead(Exception):
    pass


class _Unreadable:
    """Tie-break numbers that raise when read in any way."""

    def _read(self, *args, **kwargs):
        raise _TieBreaksRead

    __array__ = __len__ = __iter__ = __getitem__ = _read


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_only_systems_with_tie_breaks_read_them(system):
    # The harness skips the tie-break numbers of the other systems on the
    # stream; a system that read them would see other draws than before.
    spec, cols = SYSTEMS[system], P1.columns(derive_stream(3, [0]), 30)
    calls = [lambda th: spec.band(cols.head(29), cols.row(29).x, derive_stream(3, [1]), th, 0.5)]
    if spec.online is not None:
        calls.append(lambda th: spec.online(cols, th, derive_stream(3, [1])))
    for call in calls:
        if spec.tie_breaks:
            with pytest.raises(_TieBreaksRead):
                call(_Unreadable())
        else:
            call(_Unreadable())


# --- online protocol -----------------------------------------------------------


def test_online_coverage_degenerate_epsilons():
    p1 = SAMPLERS["p1"]
    assert online_coverage("dh", p1, 400, 0.0, 5) == 1.0
    assert online_coverage("dh", p1, 400, 1.0, 5) <= 0.05


def test_online_coverage_rejects_non_conformal():
    with pytest.raises(ValueError):
        online_coverage("hist-mondrian", SAMPLERS["p1"], 100, 0.1, 5)


class _TieGridSampler(Sampler):
    """Predictors on a grid with negatives, so that nearest-neighbour
    distances tie and draw; responses on a grid with -0.0, 0.0 and negatives,
    for the sign rule of empty and singleton cells."""

    name = "ties"

    def _make_columns(self, u1, u2):
        xs = np.linspace(-1.0, 1.0, 9)[(u1 * 9).astype(int)]
        ys = np.array([-1.0, -0.0, 0.0, 1.0, 2.5])[(u2 * 5).astype(int)]
        return Columns(xs, ys)


class _LastingTieSampler(Sampler):
    """``p1`` rows, but rows 0 to 2 sit at x = 5.0, far from the rest: from
    step 3 on each of them holds the other two as nearest rows and draws at
    every step, through whole blocks of steps."""

    name = "lasting"

    def _make_columns(self, u1, u2):
        p1 = SAMPLERS["p1"]._make_columns(u1, u2)
        return Columns(np.where(np.arange(len(u1)) < 3, 5.0, u1), p1.ys)


ONLINE_SAMPLERS = {
    "p1": SAMPLERS["p1"],
    "p3": SAMPLERS["p3"],
    "ties": _TieGridSampler(),
    "lasting": _LastingTieSampler(),
}


def _online_protocol(sampler, steps, seed):
    """The online protocol's stream, rows, tie-break numbers and taus."""
    st = derive_stream(seed, [1])
    cols = sampler.columns(st, steps + 1)
    return st, cols, st.uniforms(steps + 1), st.uniforms(steps)


@pytest.mark.parametrize("steps", [8, 64, 512])
@pytest.mark.parametrize("sampler_id", sorted(ONLINE_SAMPLERS))
@pytest.mark.parametrize("system", ["dh", "nn", "hist-conformal"])
def test_online_counts_match_the_registry_band(system, sampler_id, steps):
    # The online protocol rebuilt step by step from the registry's band.
    spec, sampler, seed = SYSTEMS[system], ONLINE_SAMPLERS[sampler_id], 12
    st, cols, thetas, taus = _online_protocol(sampler, steps, seed)
    pits = []
    for n in range(1, steps + 1):
        test = cols.row(n)
        band = spec.band(cols.head(n), test.x, st, thetas[: n + 1], None)
        pits.append(band.evaluate(test.y, float(taus[n - 1])))
    online_st, cols, thetas, taus = _online_protocol(sampler, steps, seed)
    less, upto = spec.online(cols, thetas, online_st)
    assert online_st.draws == st.draws
    for n, pit in enumerate(pits, start=1):
        lo, hi = int(less[n - 1]) / (n + 1), int(upto[n - 1]) / (n + 1)
        assert lo + float(taus[n - 1]) * (hi - lo) == pit, n
    # Besides 0.2, epsilons that put an interval edge exactly on a transform
    # (the halving and 1 - p are exact), where a last-bit difference from
    # the band's value changes the coverage.
    edges = pits[:: -(-steps // 4)]
    epsilons = [0.2] + [2 * p if p < 0.5 else 2 * (1 - p) for p in edges]
    for epsilon in epsilons:
        covered = sum(epsilon / 2 <= p <= 1 - epsilon / 2 for p in pits)
        assert online_coverage(system, sampler, steps, epsilon, seed) == covered / steps, epsilon


@pytest.mark.parametrize("bound", [1, 2, 7, 300])
@pytest.mark.parametrize("sampler_id", ["p3", "ties"])
def test_nn_online_in_small_blocks_matches_the_registry_band(sampler_id, bound, monkeypatch):
    # Blocks of one or a few steps put block edges among the ties and draws.
    import cpskit.transducers as transducers

    monkeypatch.setattr(transducers, "_NN_BLOCK_DISTANCES", bound)
    test_online_counts_match_the_registry_band("nn", sampler_id, 64)


def test_nn_online_ties_never_shorten_its_blocks(monkeypatch):
    import cpskit.transducers as transducers

    sq_dists, calls = transducers._sq_dists, []
    monkeypatch.setattr(transducers, "_sq_dists",
                        lambda a, b: calls.append(len(a)) or sq_dists(a, b))
    steps, blocks = 1000, {}
    for sampler_id in ("p1", "lasting"):
        st, cols, _, _ = _online_protocol(ONLINE_SAMPLERS[sampler_id], steps, 12)
        calls.clear()
        before = st.draws
        transducers.nn_online(cols, st)
        blocks[sampler_id], draws = list(calls), st.draws - before
    assert blocks["lasting"] == blocks["p1"]
    # The estimates of steps 2 and 3 tie; rows 0 to 2 draw at every step from 3 on.
    assert draws == 2 + 3 * (steps - 2)


def test_hist_conformal_online_coverage_builds_no_band(monkeypatch):
    # hcps_online counts every step from its cell lists; no step builds a band.
    import cpskit.harness as harness
    import cpskit.transducers as transducers

    def refuse(*args):
        raise AssertionError("a band was built")

    monkeypatch.setattr(transducers, "hcps_band", refuse)
    monkeypatch.setattr(harness, "hcps_band", refuse)
    online_coverage("hist-conformal", ONLINE_SAMPLERS["p1"], 512, 0.1, 12)


class _OnePointSampler(Sampler):
    """One predictor value, so that every row ties with every other and the
    tie lists grow at every step; responses on a grid with -0.0 and 0.0."""

    name = "one point"

    def _make_columns(self, u1, u2):
        return Columns(np.zeros_like(u1), np.array([-1.0, -0.0, 0.0, 2.5])[(u2 * 4).astype(int)])


@pytest.mark.parametrize("bound", [7, 1 << 17])
def test_nn_online_tie_lists_draw_as_the_per_step_bands(bound, monkeypatch):
    import cpskit.transducers as transducers

    monkeypatch.setattr(transducers, "_NN_BLOCK_DISTANCES", bound)
    monkeypatch.setitem(ONLINE_SAMPLERS, "one point", _OnePointSampler())
    test_online_counts_match_the_registry_band("nn", "one point", 100)


def _raises_value_error(call):
    try:
        call()
    except ValueError:
        return True
    return False


# Rows whose nn crossing overflows at step 2 (1.7e308 - -1.7e308), and whose
# cell index overflows once h halves at step 8 (x = 1e308 at width 0.5).
ONLINE_ERRORS = {
    "nn": Columns([0.0, 1.0, 3.0, 0.5, 2.0], [1.7e308, -1.7e308, 0.0, 1.0, 2.0]),
    "hist-conformal": Columns([0.1, 0.2, 0.3, 1e308, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                              [0.0, 1.0, -1.0, 2.0, 3.0, 0.5, -0.0, 1.5, 2.5, 0.25]),
}


@pytest.mark.parametrize("system", sorted(ONLINE_ERRORS))
def test_online_counts_raise_where_the_band_does(system):
    spec, rows = SYSTEMS[system], ONLINE_ERRORS[system]
    raised = []
    for k in range(2, len(rows) + 1):
        cols, thetas, st = rows.head(k), np.linspace(0.0, 1.0, k), derive_stream(0, [1])
        steps = lambda: [spec.band(cols.head(n), cols.row(n).x, st, thetas[: n + 1], None)
                         for n in range(1, k)]
        online = lambda: spec.online(cols, thetas, derive_stream(0, [1]))
        raised.append(_raises_value_error(online))
        assert raised[-1] == _raises_value_error(steps), k
    assert raised[0] is False and raised[-1] is True


def test_nn_online_raises_after_the_draws_of_the_per_step_bands():
    # Step 3 draws its estimate and its crossings overflow; steps 4 to 6
    # would draw too, in the same block, and must not.
    rows = Columns([1.0, 3.0, 0.0, 2.0, 2.0, 3.0, 2.0],
                   [-1.7e308, -1.7e308, 0.0, 0.0, 1.0, 2.0, 1.7e308])
    spec, band_stream, online_stream = SYSTEMS["nn"], derive_stream(0, [1]), derive_stream(0, [1])
    with pytest.raises(ValueError):
        for n in range(1, len(rows)):
            spec.band(rows.head(n), rows.row(n).x, band_stream, None, None)
    with pytest.raises(ValueError, match="at step 3"):
        spec.online(rows, None, online_stream)
    assert online_stream.draws == band_stream.draws == 1


def test_online_coverage_generic_path_matches_fast_path_scale():
    p1 = SAMPLERS["p1"]
    for system in ("nn", "hist-conformal"):
        cov = online_coverage(system, p1, 300, 0.2, 6)
        assert 0.7 <= cov <= 0.9


# --- consistency ----------------------------------------------------------------


def test_consistency_discrepancy_bounded():
    clamp = TEST_FUNCTIONS["clamp"]
    p1 = SAMPLERS["p1"]
    for system in ("dh", "nn", "hist-mondrian", "hist-conformal", "pfs"):
        rows = consistency_curve(system, p1, clamp, [5, 40], 10, 44)
        assert [n for n, _ in rows] == [5, 40]
        assert all(0.0 <= gap <= 2 * clamp.bound for _, gap in rows)


def test_consistency_requires_oracle():
    cube = TestFunction("cube", lambda y: y**3, 8.0)
    with pytest.raises(ValueError):
        consistency_curve("dh", SAMPLERS["p2"], cube, [10], 5, 1)


def test_consistency_without_an_oracle_fails_before_any_stream(monkeypatch):
    import cpskit.harness as harness

    class NoOracle(Sampler):
        name = "no-oracle"

        def _make_columns(self, u1, u2):
            return Columns(u1, u2)

    def refuse(*args):
        raise AssertionError("a trial stream was derived")

    monkeypatch.setattr(harness, "derive_stream", refuse)
    with pytest.raises(ValueError, match="no conditional oracle"):
        consistency_curve("dh", NoOracle(), TEST_FUNCTIONS["clamp"], [10], 5, 1)


def test_consistency_calls_the_oracle_once_per_trial_and_before_its_band(monkeypatch):
    import cpskit.harness as harness

    class NoOracle(Sampler):
        name = "no-oracle"

        def _make_columns(self, u1, u2):
            return Columns(u1, u2)

    class Counted(type(SAMPLERS["p1"])):
        calls = 0

        def conditional_mean(self, f, x):
            Counted.calls += 1
            return super().conditional_mean(f, x)

    built = []

    def spy(training, x, stream, thetas, u):
        built.append(x)
        return dh_band(training.ys)

    monkeypatch.setitem(harness.SYSTEMS, "spy", harness.PredictiveSystemSpec("spy", spy))
    clamp, cube = TEST_FUNCTIONS["clamp"], TestFunction("cube", lambda y: y**3, 8.0)
    for sampler, f, message in ((NoOracle(), clamp, "sampler 'no-oracle' has no conditional "
                                 "oracle for 'clamp'"),
                                (SAMPLERS["p2"], cube, "sampler 'p2' has no registered "
                                 "integral for 'cube'")):
        with pytest.raises(ValueError, match=message):
            consistency_curve("spy", sampler, f, [10], 5, 1)
    assert built == []
    rows = consistency_curve("spy", Counted(), clamp, [10, 20], 3, 1)
    assert rows == consistency_curve("dh", SAMPLERS["p1"], clamp, [10, 20], 3, 1)
    assert len(built) == Counted.calls == 6


def test_consistency_dh_small_when_response_independent_of_predictor():
    clamp = TEST_FUNCTIONS["clamp"]
    rows = consistency_curve("dh", SAMPLERS["p2"], clamp, [10_000], 50, 45)
    assert rows[0][1] <= 0.05


def test_harness_outputs_bit_reproducible():
    clamp = TEST_FUNCTIONS["clamp"]
    p3 = SAMPLERS["p3"]
    assert (
        consistency_curve("hist-mondrian", SAMPLERS["p1"], clamp, [30], 8, 9)
        == consistency_curve("hist-mondrian", SAMPLERS["p1"], clamp, [30], 8, 9)
    )
    first = venn_calibration(histogram_taxonomy, p3, 10, 40, [0.0], 9)
    second = venn_calibration(histogram_taxonomy, p3, 10, 40, [0.0], 9)
    assert first == second
    assert online_coverage("dh", p3, 200, 0.2, 9) == online_coverage("dh", p3, 200, 0.2, 9)


# --- exact calibration demos -----------------------------------------------------


def test_exchangeable_demo_exact_values():
    lhs, rhs, jumps = marginal_calibration_exchangeable()
    assert lhs == Fraction(3, 4)
    assert rhs == Fraction(1, 2)
    assert jumps == (Fraction(-1), Fraction(-1, 3))


def test_iid_demo_exact_values():
    lhs, rhs, per_sequence = marginal_calibration_iid()
    assert lhs == Fraction(5, 8)
    assert rhs == Fraction(1, 2)
    assert per_sequence == (Fraction(3, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4))


# --- class-conditional calibration ------------------------------------------------


class _ConstantSampler(Sampler):
    name = "const"
    binary = False

    def _make_columns(self, u1, u2):
        return Columns(u1, np.full(len(u1), 2.5))

    def conditional_mean(self, f, x):
        return f.fn(2.5)


def test_venn_calibration_point_mass_is_exact():
    res = venn_calibration(histogram_taxonomy, _ConstantSampler(), 10, 50, [0.0, 2.5, 9.0], 46)
    by_y = {y: (mean_q, emp) for y, mean_q, emp in res.marginal}
    assert by_y[0.0] == (0.0, 0.0)
    assert by_y[2.5] == (1.0, 1.0)
    assert by_y[9.0] == (1.0, 1.0)
    assert res.conditional == ()


def test_venn_calibration_binary_rows():
    res = venn_calibration(histogram_taxonomy, SAMPLERS["p3"], 20, 300, [0.0], 47)
    assert res.conditional  # attained predicted probabilities recorded
    total = sum(cnt for _, cnt, _ in res.conditional)
    assert total == 300
    for p, cnt, freq in res.conditional:
        assert 0.0 <= p <= 1.0 and 0.0 <= freq <= 1.0 and cnt >= 1


def _venn_calibration_by_trial(taxonomy, sampler, n, trials, grid, seed):
    """venn_calibration written as a loop over the public venn_distribution."""
    mean_q, emp, by_p = [0.0] * len(grid), [0] * len(grid), {}
    for t in range(trials):
        cols = sampler.columns(derive_stream(seed, [3, t]), n + 1)
        row = cols.row(n)
        band = venn_distribution(taxonomy, cols.head(n), row.x, row.y)
        for k, y in enumerate(grid):
            mean_q[k] += band.evaluate(y, 0.0)
            emp[k] += row.y <= y
        if sampler.binary:
            bucket = by_p.setdefault(1.0 - band.evaluate(0.0, 0.0), [0, 0])
            bucket[0] += 1
            bucket[1] += row.y == 1.0
    marginal = tuple((y, mean_q[k] / trials, emp[k] / trials) for k, y in enumerate(grid))
    conditional = tuple((p, cnt, ones / cnt) for p, (cnt, ones) in sorted(by_p.items()))
    return marginal, conditional


def _cell_of_third(cols):
    return np.floor(cols.xs[:, 0] * 3.0)


@pytest.mark.parametrize("taxonomy", [histogram_taxonomy, _cell_of_third], ids=["hist", "thirds"])
@pytest.mark.parametrize("sampler_id", ["p1", "p3"])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_venn_calibration_is_a_loop_over_venn_distribution(taxonomy, sampler_id, n):
    sampler, grid = SAMPLERS[sampler_id], [-1.0, 0.0, 0.5, 1.0, 2.0]
    for seed in (0, 7, 20240801):
        res = venn_calibration(taxonomy, sampler, n, 12, grid, seed)
        assert tuple(res) == _venn_calibration_by_trial(taxonomy, sampler, n, 12, grid, seed)


def test_venn_calibration_rejects_a_taxonomy_that_labels_only_the_training_rows():
    with pytest.raises(ValueError, match="label all n"):
        venn_calibration(lambda cols: [0] * (len(cols) - 1), SAMPLERS["p3"], 5, 3, [0.0], 1)


# --- emission helpers ---------------------------------------------------------------


def test_rows_to_csv_is_deterministic():
    block = rows_to_csv(("n", "value"), [(10, 0.5), (20, 0.25)])
    assert block == "n,value\n10,0.5\n20,0.25\n"


# --- golden digest: any change to what the experiment loops compute shows here ---


def _plain(value):
    """``value`` with numpy arrays and scalars as Python lists and numbers."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _harness_outputs(seed):
    for system in ("dh", "nn", "hist-mondrian", "hist-conformal"):
        for sampler in ("p1", "p2", "p3"):
            yield pit_sample(system, SAMPLERS[sampler], 20, 50, seed)
            yield pit_sample(system, SAMPLERS[sampler], 20, 50, seed, tau=0.25)
    for system in ("dh", "hist-mondrian", "hist-conformal", "pfs"):
        for sampler in ("p1", "p3"):
            for f in ("clamp", "cos"):
                yield consistency_curve(system, SAMPLERS[sampler], TEST_FUNCTIONS[f],
                                        [10, 100], 5, seed)
    for system, spec in SYSTEMS.items():
        if spec.online is not None:
            # The draws of online_coverage's stream, in its order.
            st = derive_stream(seed, [1])
            cols = SAMPLERS["p1"].columns(st, 301)
            thetas = st.uniforms(301) if spec.tie_breaks else st.skip(301)
            yield spec.online(cols, thetas, st)
            yield online_coverage(system, SAMPLERS["p1"], 300, 0.1, seed)
    yield venn_calibration(histogram_taxonomy, SAMPLERS["p3"], 50, 50, [0, 1], seed)


# sha256 of the reprs above at seed 7.  A change that moves a stream draw on
# purpose updates it and says why.
HARNESS_GOLDEN = "6dc48c5def63e41bfa53d255b84ea3288c33f3d9c6e6d813f9c935e8735b4ade"


def test_harness_outputs_are_pinned():
    digest = hashlib.sha256()
    for out in _harness_outputs(7):
        digest.update(repr(_plain(out)).encode())
    assert digest.hexdigest() == HARNESS_GOLDEN
