"""Samplers, validity statistics, consistency curves, and exact demos."""

import math
from fractions import Fraction

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
    histogram_taxonomy,
    ks_uniform,
    marginal_calibration_exchangeable,
    marginal_calibration_iid,
    online_coverage,
    pit_sample,
    venn_calibration,
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


@pytest.mark.parametrize("values", [[0.5, math.nan], [math.nan], [math.nan, 0.5, 0.25]])
def test_ks_uniform_rejects_nan(values):
    # A NaN anywhere leaves the sorted values unordered, so their ends alone
    # do not show it.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ks_uniform(values)


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


ONLINE_SAMPLERS = {"p1": SAMPLERS["p1"], "p3": SAMPLERS["p3"], "ties": _TieGridSampler()}


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

    monkeypatch.setattr(transducers, "_NN_ONLINE_BLOCK_DISTANCES", bound)
    test_online_counts_match_the_registry_band("nn", sampler_id, 64)


class _OnePointSampler(Sampler):
    """One predictor value, so that every row ties with every other and the
    tie lists grow at every step; responses on a grid with -0.0 and 0.0."""

    name = "one point"

    def _make_columns(self, u1, u2):
        return Columns(np.zeros_like(u1), np.array([-1.0, -0.0, 0.0, 2.5])[(u2 * 4).astype(int)])


@pytest.mark.parametrize("bound", [7, 1 << 17])
def test_nn_online_tie_lists_draw_as_the_per_step_bands(bound, monkeypatch):
    import cpskit.transducers as transducers

    monkeypatch.setattr(transducers, "_NN_ONLINE_BLOCK_DISTANCES", bound)
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


# --- emission helpers ---------------------------------------------------------------


def test_rows_to_csv_is_deterministic():
    block = rows_to_csv(("n", "value"), [(10, 0.5), (20, 0.25)])
    assert block == "n,value\n10,0.5\n20,0.25\n"
