"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; the master seed is fixed so each ~1%-level statistical check is a
deterministic pass rather than a coin flip.
"""

import math
import time
from fractions import Fraction
from functools import partial

import pytest

from cpskit import (
    Observation,
    SAMPLERS,
    TEST_FUNCTIONS,
    check_monotonic,
    check_permutation_invariance,
    conformal_pvalue,
    consistency_curve,
    derive_stream,
    dh_band,
    h_schedule,
    hcps_band,
    histogram_score,
    histogram_taxonomy,
    hmps_band,
    ks_uniform,
    marginal_calibration_exchangeable,
    marginal_calibration_iid,
    nn_band,
    nn_score,
    online_coverage,
    pfs_distribution,
    pit_sample,
    trivial_score,
    venn_calibration,
    venn_distribution,
)
from cpskit.partition import cell_index

SEED = 20240801
EXACT = 1e-12
KS_LIMIT = 0.0163  # 1% critical value 1.628 / sqrt(10_000)


def _report(number: int, name: str) -> None:
    print(f"acceptance {number} ({name}): PASS")


def test_criterion_1_exact_counterexamples():
    start = time.perf_counter()
    lhs, rhs, jumps = marginal_calibration_exchangeable()
    assert lhs == Fraction(3, 4)
    assert rhs == Fraction(1, 2)
    assert jumps == (Fraction(-1), Fraction(-1, 3))
    lhs, rhs, per_sequence = marginal_calibration_iid()
    assert lhs == Fraction(5, 8)
    assert rhs == Fraction(1, 2)
    assert per_sequence == (Fraction(3, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4))
    assert time.perf_counter() - start < 1.0
    _report(1, "exact calibration counterexamples")


def test_criterion_2_small_sample_validity():
    for system in ("dh", "nn", "hist-mondrian", "hist-conformal"):
        start = time.perf_counter()
        for sampler_id in ("p1", "p2"):
            pits = pit_sample(system, SAMPLERS[sampler_id], 20, 10_000, SEED)
            ks = ks_uniform(pits)
            assert ks < KS_LIMIT, f"{system}/{sampler_id}: ks={ks:.5f}"
        assert time.perf_counter() - start < 60.0
    _report(2, "probability transform uniformity")


def test_criterion_3_online_validity():
    start = time.perf_counter()
    coverage = online_coverage("dh", SAMPLERS["p1"], 10_000, 0.1, SEED)
    assert 0.88 <= coverage <= 0.92, f"coverage={coverage}"
    assert time.perf_counter() - start < 60.0
    _report(3, "online coverage")


@pytest.mark.parametrize("system", ["nn", "hist-conformal"])
def test_criterion_3_online_validity_at_10k_steps(system):
    start = time.perf_counter()
    coverage = online_coverage(system, SAMPLERS["p1"], 10_000, 0.1, SEED)
    elapsed = time.perf_counter() - start
    assert 0.88 <= coverage <= 0.92, f"{system}: coverage={coverage}"
    assert elapsed < 10.0, f"{system}: {elapsed:.1f} s"
    _report(3, f"online coverage, {system} (coverage {coverage}, {elapsed:.2f} s)")


def _random_dataset(st, max_n=30):
    n = 1 + int(st.uniform() * max_n)
    training = [Observation(st.uniform(), 4.0 * st.uniform() - 2.0) for _ in range(n)]
    return training, st.uniform()


def test_criterion_4_oracle_equivalence():
    root = derive_stream(SEED, [4])
    worst = 0.0
    for ds in range(100):
        st = root.child(ds)
        training, xq = _random_dataset(st)
        n = len(training)
        thetas = st.uniforms(n + 1).tolist()
        band_dh = dh_band([o.y for o in training])
        band_nn = nn_band(training, xq, st.child(0))
        band_hc = hcps_band(training, xq, thetas=thetas)
        hist = partial(histogram_score, n_for_partition=n)
        queries = [(6.0 * st.uniform() - 3.0, st.uniform()) for _ in range(1000)]
        for y, tau in queries:
            cand = Observation(xq, y)
            worst = max(
                worst,
                abs(band_dh.evaluate(y, tau)
                    - conformal_pvalue(trivial_score, training, cand, tau)),
                abs(band_nn.evaluate(y, tau)
                    - conformal_pvalue(nn_score, training, cand, tau)),
                abs(band_hc.evaluate(y, tau)
                    - conformal_pvalue(hist, training, cand, tau, thetas=thetas)),
            )
        # probe the jump locations themselves where count arithmetic is exact
        for y in set(o.y for o in training):
            for tau in (0.0, 0.5, 1.0):
                cand = Observation(xq, y)
                worst = max(
                    worst,
                    abs(band_dh.evaluate(y, tau)
                        - conformal_pvalue(trivial_score, training, cand, tau)),
                    abs(band_hc.evaluate(y, tau)
                        - conformal_pvalue(hist, training, cand, tau, thetas=thetas)),
                )
        assert worst <= EXACT, f"dataset {ds}: max gap {worst}"
    _report(4, f"closed-form bands match the transducer (max gap {worst:.2e})")


def test_criterion_5_integral_identity():
    root = derive_stream(SEED, [5])
    clamp = TEST_FUNCTIONS["clamp"].fn
    for ds in range(100):
        st = root.child(ds)
        n = 1 + int(st.uniform() * 60)
        training = [Observation(st.uniform(), 10.0 * st.uniform() - 5.0) for _ in range(n)]
        xq = st.uniform()
        band = hmps_band(training, xq)
        # independent cell rule: dyadic width recomputed from scratch
        width = 2.0 ** -((n.bit_length() - 1) // 3)
        in_cell = [
            o.y for o in training
            if math.floor(o.x[0] / width) == math.floor(xq / width)
        ]
        for f in (clamp, math.cos):
            expected = sum(f(y) for y in in_cell) / (len(in_cell) + 1)
            for tau in (0.0, 0.37, 1.0):
                assert abs(band.integrate(f, tau) - expected) <= EXACT
    _report(5, "cell-band integral identity")


def test_criterion_6_slack():
    root = derive_stream(SEED, [6])
    for n in (1, 2, 5, 12, 30):
        st = root.child(n)
        responses = sorted(set(10.0 * st.uniform() - 5.0 for _ in range(n)))
        while len(responses) < n:
            responses.append(responses[-1] + st.uniform())
        band = dh_band(responses)
        width = 1.0 / (n + 1)
        off_jump = (
            [responses[0] - 1.0, responses[-1] + 1.0]
            + [(a + b) / 2.0 for a, b in zip(responses, responses[1:])]
        )
        for y in off_jump:
            assert abs(band.slack(y) - width) <= EXACT
        for y in responses:
            assert abs(band.slack(y) - 2.0 * width) <= EXACT
    _report(6, "randomization slack")


def test_criterion_7_consistency_decay():
    start = time.perf_counter()
    clamp = TEST_FUNCTIONS["clamp"]
    p1 = SAMPLERS["p1"]
    ns = [100, 10_000]
    medians = {
        system: dict(consistency_curve(system, p1, clamp, ns, 200, SEED))
        for system in ("hist-mondrian", "hist-conformal", "dh")
    }
    for system in ("hist-mondrian", "hist-conformal"):
        small, large = medians[system][100], medians[system][10_000]
        assert large <= 0.5 * small, f"{system}: {large} vs {small}"
    assert medians["dh"][10_000] > medians["hist-mondrian"][10_000]
    assert time.perf_counter() - start < 600.0
    _report(7, "consistency decay with size")


def test_criterion_8_venn_calibration():
    result = venn_calibration(histogram_taxonomy, SAMPLERS["p3"], 50, 10_000, [0.0, 1.0], SEED)
    for y, mean_q, empirical in result.marginal:
        assert abs(mean_q - empirical) <= 0.03, f"y={y}: {mean_q} vs {empirical}"
    # conditional calibration, aggregated to 0.01-wide bins of predicted p
    bins: dict[float, list[float]] = {}
    for p, count, freq in result.conditional:
        cell = bins.setdefault(round(p, 2), [0.0, 0.0, 0.0])
        cell[0] += p * count
        cell[1] += count
        cell[2] += freq * count
    checked = 0
    for p_sum, count, ones in bins.values():
        if count < 100:
            continue
        checked += 1
        p_bar = p_sum / count
        freq = ones / count
        limit = 3.0 * math.sqrt(max(p_bar * (1.0 - p_bar), 0.0) / count)
        assert abs(freq - p_bar) <= limit, f"p={p_bar:.3f}: freq={freq:.3f}"
    assert checked >= 20  # the filter must not make the check vacuous
    _report(8, f"class-conditional calibration ({checked} probability levels)")


def test_criterion_9_structural_invariants():
    root = derive_stream(SEED, [9])
    # every constructor yields bands passing the full invariant check
    for ds in range(60):
        st = root.child(0, ds)
        training, xq = _random_dataset(st, max_n=25)
        n = len(training)
        thetas = st.uniforms(n + 1).tolist()
        bands = [
            dh_band([o.y for o in training]),
            nn_band(training, xq, st.child(1)),
            hmps_band(training, xq),
            hcps_band(training, xq, thetas=thetas),
            pfs_distribution(training, xq),
            venn_distribution(histogram_taxonomy, training, xq, 4.0 * st.uniform() - 2.0),
        ]
        for band in bands:
            band.validate()
            assert band.lower[0] == 0.0 and band.upper[-1] == 1.0
    # every measure passes both checkers on 100 random instances
    from cpskit import ExtendedObservation

    grid = [-2.0, -0.5, 0.0, 0.7, 1.5, 3.0]
    for inst in range(100):
        st = root.child(1, inst)
        n = 2 + int(st.uniform() * 10)
        data = [Observation(st.uniform(), 4.0 * st.uniform() - 2.0) for _ in range(n)]
        cand = Observation(st.uniform(), 4.0 * st.uniform() - 2.0)
        edata = [ExtendedObservation(o, t) for o, t in zip(data, st.uniforms(n))]
        ecand = ExtendedObservation(cand, st.uniform())
        hist = partial(histogram_score, n_for_partition=n)
        assert check_permutation_invariance(trivial_score, data, cand, 5, st.child(0))
        assert check_permutation_invariance(nn_score, data, cand, 5, st.child(1))
        assert check_permutation_invariance(hist, edata, ecand, 5, st.child(2))
        assert check_monotonic(trivial_score, data, cand, grid)
        assert check_monotonic(nn_score, data, cand, grid, stream=st.child(3))
        assert check_monotonic(hist, edata, ecand, grid)
    _report(9, "structural invariants and measure checkers")
