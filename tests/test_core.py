"""Band data structure and random stream tests."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from cpskit import (
    SAMPLERS,
    TEST_FUNCTIONS,
    Columns,
    ExtendedObservation,
    Observation,
    PredictiveBand,
    TestFunction,
    VennCalibrationResult,
    derive_stream,
    dh_band,
    hmps_band,
    ks_uniform,
    online_coverage,
    pfs_distribution,
    pit_sample,
)
from cpskit.harness import PredictiveSystemSpec, rows_to_csv
from cpskit.partition import histogram_taxonomy, scalar_predictor

TOL = 1e-12


def test_observation_normalizes_scalar_predictor():
    o = Observation(0.5, 2.0)
    assert o.x == (0.5,)
    assert o.d == 1
    assert Observation((1.0, 2.0), 0.0).d == 2


def test_observation_rejects_non_finite():
    with pytest.raises(ValueError):
        Observation(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Observation(0.0, float("inf"))
    with pytest.raises(ValueError):
        Observation((), 0.0)


@pytest.mark.parametrize("x", ["12", "0.15", "", b"5"])
def test_observation_rejects_a_string_predictor(x):
    # A string is a sequence, but not of numbers: "12" is not (1.0, 2.0).
    with pytest.raises(ValueError, match="a predictor is a number or a sequence of numbers"):
        Observation(x, 0.0)


def test_numpy_scalars_are_numbers_as_predictors():
    scalars = np.int64(0), np.int32(3), np.uint8(7), np.float32(0.25), np.float64(0.5)
    for x in scalars:
        assert Observation(x, 1.0).x == (float(x),)
        assert scalar_predictor(x) == float(x)
    assert histogram_taxonomy(list(scalars)) == histogram_taxonomy([float(x) for x in scalars])
    training = [Observation(v / 8, v) for v in range(8)]
    assert hmps_band(training, np.float32(0.25)) == hmps_band(training, 0.25)
    assert pfs_distribution(training, np.int64(0)) == pfs_distribution(training, 0.0)


def test_extended_observation_theta_range():
    o = Observation(0.0, 1.0)
    e = ExtendedObservation(o, 0.25)
    assert e.x == (0.0,) and e.y == 1.0
    with pytest.raises(ValueError):
        ExtendedObservation(o, 1.5)
    with pytest.raises(ValueError):
        ExtendedObservation(o, -0.1)
    with pytest.raises(TypeError, match="obs must be an Observation"):
        ExtendedObservation((0.0, 1.0), 0.25)


def _value_records():
    """(record, an equal record with -0.0 for 0.0, an unequal record, repr
    text, (field, value) pairs) for every immutable record class."""
    clamp = TEST_FUNCTIONS["clamp"].fn
    o, o_neg = Observation(0.5, 0.0), Observation(0.5, -0.0)
    rows, rows_neg = ((0.0, 0.5, 0.5),), ((-0.0, 0.5, 0.5),)
    return [
        (o, o_neg, Observation(0.5, 1.0), "Observation(x=(0.5,), y=0.0)",
         [("x", (0.5,)), ("y", 0.0)]),
        (ExtendedObservation(o, 0.0), ExtendedObservation(obs=o_neg, theta=-0.0),
         ExtendedObservation(o, 0.25),
         "ExtendedObservation(obs=Observation(x=(0.5,), y=0.0), theta=0.0)",
         [("obs", o), ("theta", 0.0), ("x", (0.5,)), ("y", 0.0)]),
        (TestFunction("clamp", clamp, 0.0), TestFunction(name="clamp", fn=clamp, bound=-0.0),
         TestFunction("clamp", clamp, 1.0), f"TestFunction(name='clamp', fn={clamp!r}, bound=0.0)",
         [("name", "clamp"), ("fn", clamp), ("bound", 0.0)]),
        (PredictiveSystemSpec("spec", dh_band, tie_breaks=True),
         PredictiveSystemSpec(name="spec", band=dh_band, tie_breaks=True),
         PredictiveSystemSpec("spec", dh_band),
         f"PredictiveSystemSpec(name='spec', band={dh_band!r}, scalar_only=False, "
         "uniform_pit=False, postulated=False, tie_breaks=True, online=None)",
         [("name", "spec"), ("band", dh_band), ("scalar_only", False), ("tie_breaks", True),
          ("online", None)]),
        (VennCalibrationResult(rows, ((0.25, 3, 1.0),)),
         VennCalibrationResult(marginal=rows_neg, conditional=((0.25, 3, 1.0),)),
         VennCalibrationResult(rows, ()),
         "VennCalibrationResult(marginal=((0.0, 0.5, 0.5),), conditional=((0.25, 3, 1.0),))",
         [("marginal", rows), ("conditional", ((0.25, 3, 1.0),))]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_records_are_immutable_values(case):
    record, equal, unequal, text, fields = _value_records()[case]
    assert record == equal and hash(record) == hash(equal)
    assert record != unequal
    assert repr(record) == text
    for name, value in fields:
        assert getattr(record, name) == value
    for name in (fields[0][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, fields[0][1])
    with pytest.raises(AttributeError):
        delattr(record, fields[0][0])
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record and repr(again) == text
    assert TestFunction.__test__ is False


def test_band_and_stream_reprs():
    band = dh_band([1.0])
    assert repr(band) == (
        "PredictiveBand(jumps=(1.0,), lower=(0.0, 0.5), upper=(0.5, 1.0), "
        "at_jump_lower=(0.0,), at_jump_upper=(1.0,))"
    )
    st = derive_stream(7, [0, 2])
    st.uniforms(3)
    assert repr(st) == "RandomStream(seed=7, path=(0, 2), draws=3)"


# --- evaluate -------------------------------------------------------------


def test_evaluate_between_jumps():
    band = dh_band([1.0, 3.0])
    assert abs(band.evaluate(2.0, 0.5) - 0.5) < TOL  # (1 + 0.5) / 3


def test_evaluate_below_all_jumps_is_zero():
    band = dh_band([1.0, 3.0])
    assert band.evaluate(-100.0, 0.0) == 0.0


def test_evaluate_at_jump_uses_widened_values():
    band = dh_band([1.0, 3.0])
    assert abs(band.evaluate(1.0, 1.0) - 2.0 / 3.0) < TOL
    assert band.evaluate(1.0, 0.0) == 0.0


def test_evaluate_rejects_bad_tau():
    band = dh_band([1.0, 3.0])
    with pytest.raises(ValueError):
        band.evaluate(0.0, -0.01)
    with pytest.raises(ValueError):
        band.evaluate(0.0, 1.01)


def test_evaluate_linear_and_monotone_in_tau():
    band = dh_band([0.0, 1.0, 5.0])
    for y in (-1.0, 0.0, 0.3, 1.0, 2.0, 7.0):
        q0, qh, q1 = band.evaluate(y, 0.0), band.evaluate(y, 0.5), band.evaluate(y, 1.0)
        assert abs(qh - (q0 + q1) / 2.0) < TOL
        assert q0 <= qh <= q1


# --- slack ----------------------------------------------------------------


def test_slack_distinct_responses():
    band = dh_band([1.0, 3.0])
    assert abs(band.slack(2.0) - 1.0 / 3.0) < TOL
    assert abs(band.slack(1.0) - 2.0 / 3.0) < TOL


def test_slack_zero_for_degenerate_band():
    band = pfs_distribution([Observation(0.1, 2.0), Observation(0.2, 5.0)], 0.15)
    for y in (-1.0, 2.0, 3.0, 5.0, 9.0):
        assert band.slack(y) == 0.0


# --- integrate ------------------------------------------------------------


def test_integrate_cell_band_mean_any_tau():
    training = [Observation(0.1, 2.0), Observation(0.2, 5.0), Observation(9.0, -4.0)]
    band = hmps_band(training, 0.15)
    for tau in (0.0, 0.37, 1.0):
        assert abs(band.integrate(lambda y: y, tau) - 7.0 / 3.0) < TOL


def test_integrate_total_mass_of_distribution_function():
    band = pfs_distribution([Observation(0.1, 2.0), Observation(0.2, 5.0)], 0.15)
    assert abs(band.integrate(lambda y: 1.0) - 1.0) < TOL


def test_integrate_squares_against_mass_enumeration():
    responses = [1.0, 3.0]
    band = dh_band(responses)
    # independent oracle: every response carries mass 1/(n+1)
    expected = sum(y * y for y in responses) / (len(responses) + 1)
    assert abs(band.integrate(lambda y: y * y) - expected) < TOL
    assert abs(expected - 10.0 / 3.0) < TOL


def test_integrate_rejects_non_finite_integrand():
    band = dh_band([1.0, 3.0])
    with pytest.raises(ValueError):
        band.integrate(lambda y: float("nan"))
    with pytest.raises(ValueError, match="at jump 3.0"):
        band.integrate(lambda y: np.where(y > 2.0, np.inf, 0.0))


def _integrate_by_loop(band, f, tau):
    """Reference: the per-jump sum in jump order, from 0.0."""
    total = 0.0
    for k, yk in enumerate(band.jumps):
        left = band.lower[k] + tau * (band.upper[k] - band.lower[k])
        right = band.lower[k + 1] + tau * (band.upper[k + 1] - band.lower[k + 1])
        total += float(f(yk)) * (right - left)
    return total


def test_integrate_equals_the_per_jump_loop_bit_for_bit():
    rng = derive_stream(12, [0])
    clamp = lambda y: np.clip(y, -1.0, 1.0)
    for _ in range(20):
        band = dh_band((rng.uniforms(200) * 6.0 - 3.0).tolist())
        tau = rng.uniform()
        for f in (clamp, np.cos, lambda y: y * y):
            assert band.integrate(f, tau) == _integrate_by_loop(band, f, tau)


def test_integrate_accepts_scalar_only_integrands():
    band = dh_band([0.0, 1.0, 2.0])
    scalar_clamp = lambda y: max(-1.0, min(1.0, y))  # raises on arrays
    assert band.integrate(math.cos, 0.3) == _integrate_by_loop(band, math.cos, 0.3)
    assert band.integrate(scalar_clamp) == _integrate_by_loop(band, scalar_clamp, 0.0)
    assert band.integrate(lambda y: 1.0) == band.integrate(np.ones_like)


def test_integrate_broadcasts_a_scalar_result():
    band = dh_band([0.0, 1.0, 2.0, 2.0])
    for f in (lambda y: 2.5, lambda y: np.float64(2.5), lambda y: np.array(2.5)):
        assert band.integrate(f, 0.3) == _integrate_by_loop(band, lambda y: 2.5, 0.3)


# --- columns --------------------------------------------------------------


def test_columns_round_trip_observations_in_any_dimension():
    rows = [Observation((0.5, -2.0, 3.0), 1.0), Observation((1e300, 0.0, -0.0), -4.5)]
    cols = Columns.from_observations(rows)
    assert cols.xs.shape == (2, 3) and cols.d == 3 and len(cols) == 2
    assert cols.observations() == rows
    assert cols.row(1) == rows[1] and cols.head(1).observations() == rows[:1]
    scalar = Columns([0.25, 0.75], [1.0, 2.0])  # bare predictors mean d = 1
    assert scalar.d == 1 and scalar.observations()[0] == Observation(0.25, 1.0)


def test_columns_are_checked_and_frozen():
    with pytest.raises(ValueError):
        Columns([[0.0], [1.0]], [1.0])  # row counts differ
    with pytest.raises(ValueError):
        Columns([[0.0, math.nan]], [1.0])
    with pytest.raises(ValueError):
        Columns([[0.0]], [math.inf])
    with pytest.raises(ValueError):
        Columns(np.zeros((2, 0)), [1.0, 2.0])
    xs = np.array([[0.0], [1.0]])
    cols = Columns(xs, [1.0, 2.0])
    xs[0, 0] = 9.0  # the caller's array is copied, not shared
    assert cols.xs[0, 0] == 0.0
    with pytest.raises(ValueError):
        cols.ys[0] = 5.0


def test_integrate_checks_tau_and_is_zero_without_jumps():
    band = dh_band([1.0, 3.0])
    for tau in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="tau must lie in"):
            band.integrate(math.cos, tau)
    assert PredictiveBand((), (0.0,), (1.0,), (), ()).integrate(math.cos, 0.5) == 0.0


# --- structural invariants ------------------------------------------------


def test_band_validation_catches_violations():
    ok = dict(
        jumps=(0.0,),
        lower=(0.0, 0.5),
        upper=(0.5, 1.0),
        at_jump_lower=(0.0,),
        at_jump_upper=(1.0,),
    )
    PredictiveBand(**ok)
    bad_cases = [
        dict(ok, lower=(0.6, 0.5)),                      # lower > upper, not monotone
        dict(ok, lower=(0.1, 0.5)),                      # leftmost lower != 0
        dict(ok, upper=(0.5, 0.9)),                      # rightmost upper != 1
        dict(ok, at_jump_lower=(0.6,)),                  # jump value above next plateau
        dict(ok, jumps=(0.0, 0.0), lower=(0.0, 0.5, 0.5), upper=(0.5, 1.0, 1.0),
             at_jump_lower=(0.0, 0.0), at_jump_upper=(1.0, 1.0)),  # non-increasing jumps
        dict(ok, lower=(0.0, 1.5)),                      # value outside [0, 1]
        dict(ok, lower=(0.0,)),                          # length mismatch
    ]
    for case in bad_cases:
        with pytest.raises(ValueError):
            PredictiveBand(**case)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((((0.0,),), (0.0, 0.5), (0.5, 1.0), (0.0,), (1.0,)), "one-dimensional"),
        (((0.0,), (0.0, 0.5), (0.5, 1.0), (), (1.0,)), "at-jump lists"),
        (((0.0,), (0.0, 0.5), (0.5, 1.0), (0.0,), (1.0, 1.0)), "at-jump lists"),
    ],
    ids=["2-D jumps", "short at-jump lower", "long at-jump upper"],
)
def test_band_rejects_malformed_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        PredictiveBand(*fields)


def test_band_validation_names_the_first_violation():
    ok = dict(jumps=(0.0, 1.0), lower=(0.0, 0.25, 0.5), upper=(0.5, 0.75, 1.0),
              at_jump_lower=(0.0, 0.25), at_jump_upper=(0.75, 1.0))
    cases = [
        (dict(ok, jumps=(0.0, math.inf)), "jump locations must be finite"),
        (dict(ok, jumps=(1.0, 0.0)), "jumps must be strictly increasing"),
        (dict(ok, upper=(0.5, math.nan, 1.0), lower=(0.0, 2.0, 0.5)), "band value 2.0 outside"),
        (dict(ok, lower=(0.0, 0.8, 0.5)), "lower plateau exceeds upper plateau"),
        (dict(ok, at_jump_lower=(0.0, 1.0), at_jump_upper=(0.75, 0.9)),
         "lower jump value exceeds upper jump value"),
        (dict(ok, at_jump_lower=(0.0, 0.6)), "lower curve is not monotone at jump 1"),
        (dict(ok, at_jump_upper=(0.4, 1.0)), "upper curve is not monotone at jump 0"),
        (dict(ok, lower=(0.1, 0.25, 0.5), at_jump_lower=(0.1, 0.25)),
         "leftmost lower plateau must be 0"),
        (dict(ok, upper=(0.5, 0.75, 0.9), at_jump_upper=(0.75, 0.9)),
         "rightmost upper plateau must be 1"),
    ]
    for case, message in cases:
        with pytest.raises(ValueError, match=message):
            PredictiveBand(**case)


def test_large_band_validation_names_the_same_violations():
    # array checks accept a valid band; a failing one is then checked
    # invariant by invariant, which names the violation
    good = dh_band([float(k) for k in range(40)]).to_dict()

    def changed(*edits):
        d = {key: list(v) for key, v in good.items()}
        for name, k, value in zip(edits[::3], edits[1::3], edits[2::3]):
            d[name][k] = value
        return d

    cases = [
        (changed("jumps", 39, math.nan), "jump locations must be finite"),
        (changed("jumps", 20, 19.0), "jumps must be strictly increasing"),
        (changed("upper", 7, 1.5), "band value 1.5 outside"),
        (changed("lower", 7, good["upper"][7] + 1e-9), "lower plateau exceeds upper plateau"),
        (changed("at_jump_upper", 30, good["upper"][31] + 1e-9), "upper curve is not monotone at jump 30"),
        (changed("upper", 40, 0.99, "at_jump_upper", 39, 0.99), "rightmost upper plateau must be 1"),
    ]
    PredictiveBand.from_dict(good)
    for case, message in cases:
        with pytest.raises(ValueError, match=message):
            PredictiveBand.from_dict(case)
    # Violations within VALUE_TOL fail the exact comparisons and are then
    # accepted invariant by invariant.
    for case in (
        changed("lower", 0, -1e-13),
        changed("upper", 40, 1.0 + 1e-13),
        changed("at_jump_lower", 7, good["lower"][8] + 1e-13),
        changed("at_jump_upper", 30, good["upper"][31] + 1e-13),
    ):
        PredictiveBand.from_dict(case)


def test_band_json_round_trip():
    band = dh_band([1.0, 2.0, 4.0])
    again = PredictiveBand.from_json(band.to_json())
    assert again == band
    d = band.to_dict()
    assert list(d) == ["jumps", "lower", "upper", "at_jump_lower", "at_jump_upper"]


FIELDS = ("jumps", "lower", "upper", "at_jump_lower", "at_jump_upper")


def _as_tuples(band):
    return tuple(getattr(band, k) for k in FIELDS)


def test_band_equality_and_hash_follow_the_tuple_fields():
    minus = PredictiveBand((-0.0,), (0.0, 0.5), (0.5, 1.0), (-0.0,), (1.0,))
    plus = PredictiveBand((0.0,), (-0.0, 0.5), (0.5, 1.0), (0.0,), (1.0,))
    assert minus == plus and hash(minus) == hash(plus) and len({minus, plus}) == 1
    assert math.copysign(1.0, minus.jumps[0]) == -1.0  # the stored sign is kept
    assert minus.to_json() != plus.to_json()
    others = [
        PredictiveBand((0.0,), (0.0, 0.25), (0.5, 1.0), (0.0,), (1.0,)),
        dh_band([1.0]),
        dh_band([1.0, 1.0]),  # the same jumps, other values
        dh_band([1.0, 2.0]),
        dh_band([2.0, 1.0]),
        PredictiveBand((), (0.0,), (1.0,), (), ()),
    ]
    bands = [minus, plus] + others
    for a in bands:
        for b in bands:
            assert (a == b) == (_as_tuples(a) == _as_tuples(b))
            if a == b:
                assert hash(a) == hash(b)
    assert minus != minus.to_dict()


def test_band_storage_is_read_only():
    fields = [np.array([1.0, 2.0]), [0.0, 0.25, 0.5], (0.5, 0.75, 1.0), [0.0, 0.25], [0.75, 1.0]]
    band = PredictiveBand(*fields)
    fields[0][0] = 1.5  # the caller's array is copied, not shared
    assert band.jumps == (1.0, 2.0)
    for name, a in zip(FIELDS, band.arrays):
        assert a.dtype == np.float64 and not a.flags.writeable
        assert getattr(band, name) == tuple(a.tolist())
        assert all(type(v) is float for v in getattr(band, name))
        with pytest.raises(ValueError):
            a[0] = 0.5
        with pytest.raises(AttributeError):
            setattr(band, name, ())
    for built in (dh_band([2.0, 1.0]), pfs_distribution([Observation(0.5, 1.0)], 0.5)):
        assert not any(a.flags.writeable for a in built.arrays)
    with pytest.raises(AttributeError):
        band.arrays = ()
    with pytest.raises(AttributeError):
        del band.arrays
    assert pickle.loads(pickle.dumps(band)) == band


def test_band_csv_is_the_at_jump_table():
    bands = [
        dh_band([1.0, 2.0, 2.0, 0.1]),
        PredictiveBand((), (0.0,), (1.0,), (), ()),
        PredictiveBand((-0.0,), (0.0, 0.5), (0.5, 1.0), (-0.0,), (1.0,)),
    ]
    for band in bands:
        rows = zip(band.jumps, band.at_jump_lower, band.at_jump_upper)
        assert band.to_csv() == rows_to_csv(("y", "lower", "upper"), rows)
    assert bands[1].to_csv() == "y,lower,upper\n"
    assert bands[2].to_csv() == "y,lower,upper\n-0.0,-0.0,1.0\n"


def test_random_bands_are_monotone_in_y():
    rng = derive_stream(11, [0])
    for _ in range(25):
        n = 1 + int(rng.uniform() * 12)
        band = dh_band([rng.uniform() * 10 for _ in range(n)])
        ys = sorted(rng.uniform() * 12 - 1 for _ in range(40))
        for tau in (0.0, 1.0):
            vals = [band.evaluate(y, tau) for y in ys]
            assert all(b >= a - TOL for a, b in zip(vals, vals[1:]))


# --- random streams -------------------------------------------------------


def test_stream_determinism():
    a = derive_stream(123, [4]).uniforms(50)
    b = derive_stream(123, [4]).uniforms(50)
    assert (a == b).all()


def test_stream_path_separation():
    a = derive_stream(123, [1]).uniforms(50)
    b = derive_stream(123, [2]).uniforms(50)
    assert (a != b).any()


def test_stream_uniformity():
    us = derive_stream(99, [0]).uniforms(10_000)
    assert ks_uniform(us.tolist()) < 0.0163  # 1% critical value 1.628/sqrt(M)


def test_stream_pairwise_independence_smoke():
    a = derive_stream(5, [1]).uniforms(5000)
    b = derive_stream(5, [2]).uniforms(5000)
    corr = float(((a - a.mean()) * (b - b.mean())).mean() / (a.std() * b.std()))
    assert abs(corr) < 0.05


def test_stream_replica_and_children():
    st = derive_stream(7, [3])
    first = st.uniform()
    assert st.replica().uniform() == first
    assert st.child(0).path == (3, 0)
    with pytest.raises(ValueError):
        derive_stream(7, [-1])


def test_stream_counts_only_the_draws_it_makes():
    st = derive_stream(7, [0])
    with pytest.raises(ValueError):
        st.uniforms(-1)
    assert st.draws == 0
    st.uniforms(3)
    assert st.draws == 3


@pytest.mark.parametrize("k", [0, 1, 10_000])
def test_stream_skip_lands_where_uniforms_would(k):
    skipped, drawn = derive_stream(8, [2]), derive_stream(8, [2])
    skipped.skip(k)
    drawn.uniforms(k)
    assert (skipped.uniforms(5) == drawn.uniforms(5)).all()
    assert skipped.draws == drawn.draws == k + 5


def test_stream_rejects_negative_counts():
    st = derive_stream(7, [0])
    with pytest.raises(ValueError):
        st.permutation(-3)
    with pytest.raises(ValueError):
        st.skip(-1)
    assert st.draws == 0
    st.skip(0)
    assert st.draws == 0 and st.uniform() == derive_stream(7, [0]).uniform()


@pytest.mark.parametrize("seed", [2.5, 2.0, np.float64(3.0), True, np.bool_(False), "x", "7", None])
def test_stream_rejects_a_seed_that_is_not_an_integer(seed):
    # int() would truncate 2.5 to seed 2 and read True as seed 1.
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        derive_stream(seed, [0])


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(1.0), True, np.bool_(False), "3", None])
def test_stream_rejects_path_entries_and_counts_that_are_not_integers(bad):
    # int() would read [1.5] as path [1], [True] as [1] and "3" as 3.
    st = derive_stream(7, [0])
    calls = [
        ("derivation path entry", lambda: derive_stream(7, [bad])),
        ("derivation path entry", lambda: derive_stream(7, [0, bad])),
        ("derivation path entry", lambda: st.child(bad)),
        ("derivation path entry", lambda: st.child(1, bad)),
        ("draw count", lambda: st.uniforms(bad)),
        ("draw count", lambda: st.skip(bad)),
        ("permutation size", lambda: st.permutation(bad)),
    ]
    for what, call in calls:
        with pytest.raises(ValueError, match=re.escape(f"{what} must be an integer, got {bad!r}")):
            call()
    assert st.draws == 0 and st.uniform() == derive_stream(7, [0]).uniform()


def test_stream_takes_numpy_integers_as_paths_and_counts():
    st, ref = derive_stream(7, [np.int64(1), np.uint8(2)]), derive_stream(7, [1, 2])
    assert st.path == (1, 2) and type(st.path[0]) is int
    assert st.child(np.int32(3)).path == (1, 2, 3)
    st.skip(np.int64(2))
    ref.skip(2)
    assert (st.uniforms(np.uint16(3)) == ref.uniforms(3)).all()
    assert st.permutation(np.int8(5)) == ref.permutation(5)
    assert st.draws == ref.draws == 6


def test_stream_accepts_python_and_numpy_integers():
    for seed in (np.int64(-5), np.uint8(200), -(1 << 70), 1 << 64):
        draws = derive_stream(seed, [1]).uniforms(3)
        assert (draws == derive_stream(int(seed) % (1 << 64), [1]).uniforms(3)).all()
    assert derive_stream(-1, [0]).seed == (1 << 64) - 1


def test_experiments_reject_a_seed_that_is_not_an_integer():
    p1 = SAMPLERS["p1"]
    for call in (lambda s: pit_sample("dh", p1, 5, 3, s),
                 lambda s: online_coverage("dh", p1, 10, 0.1, s)):
        assert call(2) == call(np.int32(2))
        for seed in (2.5, 2.7, True, "x"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                call(seed)


def test_stream_permutation_is_deterministic():
    st = derive_stream(42, [0])
    p1 = st.permutation(10)
    p2 = derive_stream(42, [0]).permutation(10)
    assert p1 == p2
    assert sorted(p1) == list(range(10))
