"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpskit.cli as cli
from cpskit.cli import DataError, _read_training, main
from cpskit.core import Columns
from cpskit.harness import SAMPLERS, online_coverage


@pytest.fixture
def dh_csv(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x1,y\n0.0,1.0\n1.0,3.0\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def far_cell_csv(tmp_path):
    path = tmp_path / "far.csv"
    path.write_text("x1,y\n10.0,1.0\n11.0,2.0\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_band_dh_json(capsys, dh_csv):
    code, out = run(capsys, ["band", "--system", "dh", "--input", dh_csv, "--x", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["jumps"] == [1.0, 3.0]
    assert doc["lower"] == [0.0, 1 / 3, 2 / 3]
    assert doc["upper"] == [1 / 3, 2 / 3, 1.0]


def test_band_csv_format(capsys, dh_csv):
    code, out = run(
        capsys,
        ["band", "--system", "dh", "--input", dh_csv, "--x", "0.5", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,lower,upper"
    assert len(lines) == 3


def test_band_pfs_empty_cell_point_mass_at_zero(capsys, far_cell_csv):
    code, out = run(capsys, ["band", "--system", "pfs", "--input", far_cell_csv, "--x", "0.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["jumps"] == [0.0]
    assert doc["lower"] == [0.0, 1.0] and doc["upper"] == [0.0, 1.0]


def test_band_is_deterministic_given_seed(capsys, dh_csv):
    argv = ["band", "--system", "hist-conformal", "--input", dh_csv, "--x", "0.5",
            "--seed", "9"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_band_seed_env_fallback(capsys, dh_csv, monkeypatch):
    argv = ["band", "--system", "nn", "--input", dh_csv, "--x", "0.5"]
    monkeypatch.setenv("CPSKIT_SEED", "17")
    _, via_env = run(capsys, argv)
    monkeypatch.delenv("CPSKIT_SEED")
    _, via_flag = run(capsys, argv + ["--seed", "17"])
    assert via_env == via_flag


def test_bad_seed_env_is_a_usage_error_naming_it(capsys, dh_csv, monkeypatch):
    monkeypatch.setenv("CPSKIT_SEED", "abc")
    for argv in (
        ["band", "--system", "nn", "--input", dh_csv, "--x", "0.5"],
        ["consistency", "--system", "dh", "--ns", "10", "--trials", "1"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cpskit: error: CPSKIT_SEED must be an integer, got 'abc'\n"


def test_band_venn_requires_postulated_response(capsys, dh_csv):
    code, _ = run(capsys, ["band", "--system", "venn", "--input", dh_csv, "--x", "0.5"])
    assert code == 1
    code, out = run(
        capsys,
        ["band", "--system", "venn", "--input", dh_csv, "--x", "0.5", "--u", "2.0"],
    )
    assert code == 0 and json.loads(out)["lower"][0] == 0.0


def test_band_dimension_mismatch_is_usage_error(capsys, dh_csv):
    code, _ = run(capsys, ["band", "--system", "dh", "--input", dh_csv, "--x", "0.5,0.5"])
    assert code == 1


def test_band_malformed_data_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    code, _ = run(capsys, ["band", "--system", "dh", "--input", str(bad), "--x", "0.5"])
    assert code == 2
    worse = tmp_path / "worse.csv"
    worse.write_text("x1,y\n1,zap\n", encoding="utf-8")
    code, _ = run(capsys, ["band", "--system", "dh", "--input", str(worse), "--x", "0.5"])
    assert code == 2
    code, _ = run(capsys, ["band", "--system", "dh", "--input", str(tmp_path / "nope.csv"),
                           "--x", "0.5"])
    assert code == 2


def test_validate_small_run_passes(capsys):
    code, out = run(capsys, ["validate", "--system", "dh", "--sampler", "p1",
                             "--n", "10", "--trials", "400", "--seed", "424242"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    suite = doc["suites"]["ks_uniform"]
    assert set(suite) == {"statistic", "threshold", "pass"}


@pytest.mark.parametrize("system", ["dh", "nn", "hist-conformal"])
def test_validate_online_flag(capsys, system):
    code, out = run(capsys, ["validate", "--system", system, "--n", "5", "--trials", "500",
                             "--online", "--epsilon", "0.1", "--seed", "424242"])
    assert code == 0
    doc = json.loads(out)
    expected = online_coverage(system, SAMPLERS["p1"], 500, 0.1, 424242)
    assert doc["suites"]["online_coverage"]["statistic"] == expected


def test_validate_too_few_trials_is_usage_error(capsys):
    code, _ = run(capsys, ["validate", "--system", "dh", "--trials", "10"])
    assert code == 1


def test_validate_online_mondrian_is_configuration_error(capsys):
    code, _ = run(capsys, ["validate", "--system", "hist-mondrian", "--trials", "200",
                           "--online"])
    assert code == 1


def test_validate_unknown_system_is_usage_error(capsys):
    code, _ = run(capsys, ["validate", "--system", "venn", "--trials", "200"])
    assert code == 1


def _refuse_streams(monkeypatch):
    """Make deriving any stream, in the CLI or in the harness, fail the test."""
    import cpskit.harness as harness

    def refuse(*args):
        raise AssertionError("a stream was derived")

    monkeypatch.setattr(harness, "derive_stream", refuse)
    monkeypatch.setattr(cli, "derive_stream", refuse)


@pytest.mark.parametrize("argv", [
    ["consistency", "--system", "venn", "--ns", "10", "--trials", "2"],
    ["validate", "--system", "pfs", "--trials", "200"],
    ["validate", "--system", "nonesuch", "--trials", "200"],
    ["validate", "--system", "venn", "--trials", "200", "--online"],
])
def test_system_without_the_needed_property_is_usage_error(capsys, monkeypatch, argv):
    # The experiment rejects the system before its first stream.
    _refuse_streams(monkeypatch)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("cpskit: error:")


@pytest.mark.parametrize("epsilon", ["-0.1", "1.5", "nan"])
def test_validate_online_checks_epsilon_before_the_pit_suite(capsys, monkeypatch, epsilon):
    def refuse(*args, **kwargs):
        raise AssertionError("the PIT suite ran")

    monkeypatch.setattr(cli, "pit_sample", refuse)
    code = main(["validate", "--system", "dh", "--online", f"--epsilon={epsilon}"])
    assert code == 1
    assert "epsilon must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["band", "--input", "train.csv", "--x", "0.5"],
    ["band", "--system", "nonesuch", "--input", "train.csv", "--x", "0.5"],
    ["validate", "--system", "dh", "--n", "ten"],
    ["consistency", "--system", "dh", "--sampler", "p9"],
], ids=["no command", "unknown command", "no --system", "unknown --system", "--n not an int",
        "unknown --sampler"])
def test_argument_parser_errors_exit_with_usage_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: cpskit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["band", "--system", "dh", "--input", "{d1}", "--x", "0.5", "--u", "nan"],
    ["band", "--system", "hist-conformal", "--input", "{d2}", "--x", "0.5,0.5"],
    ["consistency", "--system", "dh", "--ns", "10,x"],
    ["validate", "--system", "dh", "--trials", "150", "--tau", "fixed:abc"],
    ["validate", "--system", "dh", "--trials", "150", "--tau", "fixed:1.5"],
    ["validate", "--system", "dh", "--trials", "150", "--online", "--epsilon", "2"],
    ["band", "--system", "dh", "--input", "{d1}", "--x", "0.5,0.5"],
], ids=["--u nan", "scalar-only system on d = 2", "--ns not integers", "--tau value",
        "--tau out of range", "--epsilon out of range", "--x of the wrong dimension"])
def test_bad_argument_values_are_usage_errors(capsys, monkeypatch, tmp_path, dh_csv, argv):
    d2 = _csv(tmp_path, "x1,x2,y\n0.0,0.0,1.0\n1.0,1.0,3.0\n", name="d2.csv")
    _refuse_streams(monkeypatch)
    assert main([a.format(d1=dh_csv, d2=d2) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("cpskit: error:")


@pytest.mark.parametrize("system, flag, value", [
    ("venn", "--u", "-5e-05"),
    ("dh", "--x", "-1e-3"),
    ("venn", "--u", "-5."),
    ("nn", "--x", "-0.5,0.3"),
])
def test_negative_values_are_values_not_flags(capsys, tmp_path, system, flag, value):
    # argparse's own negative-number pattern knows no exponent, trailing dot or comma.
    path = _csv(tmp_path, "x1,x2,y\n0.0,0.5,1.0\n1.0,-0.5,3.0\n" if "," in value else
                "x1,y\n0.0,1.0\n1.0,3.0\n")
    other = "--u" if flag == "--x" else "--x"
    argv = ["band", "--system", system, "--input", path, other, "1.0"]
    apart, joined = argv + [flag, value], argv + [f"{flag}={value}"]
    assert run(capsys, apart) == run(capsys, joined)
    assert run(capsys, apart)[0] == 0


@pytest.mark.parametrize("argv", [
    ["consistency", "--system", "dh", "--ns", "-5,10"],
    ["validate", "--system", "dh", "--online", "--epsilon", "-1e-3"],
])
def test_negative_values_reach_cpskit_own_checks(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("cpskit: error:")


# sha256 of `validate --online --trials 500 --seed 3` output, with its exit code.
VALIDATE_ONLINE = {
    "dh": ("bc48bdb10b19706023cc8300752ac8dcaad4dfb5957a4ba983d8f248b4bd52ce", 3),
    "nn": ("eb7d1a6da72243463f04577448c9e78e8e9bf8eb320ec366d69e49bfb2a37308", 0),
    "hist-conformal": ("8846f26535c7174d542e8ef1e0c5c98b0190c6d9ff3029c6bd37c85bdc432934", 3),
}


@pytest.mark.parametrize("system", sorted(VALIDATE_ONLINE))
def test_validate_online_output_is_pinned(capsys, system):
    # The online suite runs before the PIT suite; the JSON keeps ks_uniform first.
    code, out = run(capsys, ["validate", "--system", system, "--online", "--trials", "500",
                             "--seed", "3"])
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == VALIDATE_ONLINE[system]


def test_consistency_single_row(capsys):
    code, out = run(capsys, ["consistency", "--system", "hist-mondrian", "--sampler", "p1",
                             "--function", "clamp", "--ns", "100", "--trials", "10",
                             "--seed", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,median_discrepancy"
    assert len(lines) == 2 and lines[1].startswith("100,")


def test_consistency_unknown_function_is_usage_error(capsys):
    code, _ = run(capsys, ["consistency", "--system", "dh", "--function", "tanh",
                           "--ns", "100"])
    assert code == 1


def test_consistency_checks_every_size_before_the_first_trial(capsys, monkeypatch):
    import cpskit.harness as harness

    def refuse(*args):
        raise AssertionError("a trial stream was derived")

    monkeypatch.setattr(harness, "derive_stream", refuse)
    code, _ = run(capsys, ["consistency", "--system", "hist-conformal", "--ns", "10000,0"])
    assert code == 1


def test_consistency_missing_oracle_is_usage_error(capsys):
    # p2 has registered integrals for clamp and cos only; cube is unknown
    code, _ = run(capsys, ["consistency", "--system", "dh", "--sampler", "p2",
                           "--function", "nope", "--ns", "10"])
    assert code == 1


def test_calib_demo_exact_fractions(capsys):
    code, out = run(capsys, ["calib-demo"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("exchangeable: 3/4 vs 1/2")
    assert "-1 and -1/3" in lines[0]
    assert lines[1].startswith("iid: 5/8 vs 1/2")
    assert "3/4, 3/4, 3/4, 1/4" in lines[1]


def test_fixed_tau_policy_parses(capsys):
    code, _ = run(capsys, ["validate", "--system", "dh", "--trials", "150",
                           "--tau", "fixed:0.5", "--seed", "3"])
    assert code in (0, 3)  # fixed tau is for reproduction; uniformity may fail
    code, _ = run(capsys, ["validate", "--system", "dh", "--trials", "150",
                           "--tau", "fixed:1.5"])
    assert code == 1
    code, _ = run(capsys, ["validate", "--system", "dh", "--trials", "150",
                           "--tau", "sometimes"])
    assert code == 1


def _csv(tmp_path, text, name="rows.csv", encoding="utf-8"):
    path = tmp_path / name
    path.write_text(text, encoding=encoding)
    return str(path)


def test_band_nn_midpoint_near_largest_double(capsys, tmp_path):
    path = _csv(tmp_path, "x1,y\n0.0,1.7e308\n1.0,1.6e308\n")
    code, out = run(capsys, ["band", "--system", "nn", "--input", path, "--x", "0.0"])
    assert code == 0
    assert json.loads(out)["jumps"] == [1.6e308, 1.7e308]


def test_band_build_failure_on_valid_rows_is_data_error(capsys, tmp_path):
    # the residual crossing 1.7e308 + (-1.7e308 - 1.7e308) overflows
    path = _csv(tmp_path, "x1,y\n0.0,1.7e308\n1.0,-1.7e308\n")
    code, _ = run(capsys, ["band", "--system", "nn", "--input", path, "--x", "0.0"])
    assert code == 2
    code, _ = run(capsys, ["band", "--system", "nn", "--input", path, "--x", "inf"])
    assert code == 1  # a bad argument stays a usage error


@pytest.mark.parametrize("system", ["hist-mondrian", "hist-conformal", "pfs", "venn"])
def test_band_predictor_beyond_the_cell_grid_is_data_error(capsys, tmp_path, system):
    # with n = 8 the cells are 0.5 wide, and 1e308 / 0.5 overflows
    rows = "".join(f"0.{k},{k}.0\n" for k in range(1, 8))
    path = _csv(tmp_path, f"x1,y\n{rows}1e308,1.0\n")
    argv = ["band", "--system", system, "--input", path, "--x", "0.5", "--u", "1.0"]
    assert run(capsys, argv)[0] == 2


def test_band_accepts_utf8_byte_order_mark(capsys, dh_csv, tmp_path):
    path = _csv(tmp_path, "\ufeffx1,y\n0.0,1.0\n1.0,3.0\n")
    argv = ["band", "--system", "dh", "--x", "0.5", "--input"]
    _, plain = run(capsys, argv + [dh_csv])
    code, out = run(capsys, argv + [path])
    assert code == 0 and out == plain


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11.5", "1.5\u00a0"])
def test_band_rejects_fields_outside_plain_decimal(capsys, tmp_path, field):
    # float() reads each of these; the CSV contract is ASCII '.'-decimal reals
    path = _csv(tmp_path, f"x1,y\n0.0,1.0\n0.5,{field}\n")
    code, _ = run(capsys, ["band", "--system", "dh", "--input", path, "--x", "0.5"])
    assert code == 2


@pytest.mark.parametrize("row", ['1.0,"2"0', '"1.0",2.0'])
def test_band_rejects_quote_characters(capsys, tmp_path, row):
    # the csv module read '1.0,"2"0' as y = 20.0; the grammar has no quoting
    path = _csv(tmp_path, f"x1,y\n0.0,1.0\n{row}\n")
    code, _ = run(capsys, ["band", "--system", "dh", "--input", path, "--x", "0.5"])
    assert code == 2


def test_band_rejects_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x1,y\n0.0,1.0\n\xe9,2.0\n")
    code, _ = run(capsys, ["band", "--system", "dh", "--input", str(path), "--x", "0.5"])
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--x", "1_0"), ("--x", "\u0660.\u0665"), ("--x", "inf"), ("--x", "0.5\n"),
    ("--u", "1_0"), ("--u", "\u0661"), ("--u", "inf"), ("--u", "1,2"),
])
def test_band_flags_read_reals_by_the_csv_field_rule(capsys, dh_csv, flag, value):
    # float() reads 1_0 as 10.0 and Arabic-Indic digits as ASCII ones; in a
    # data field either is a data error, so in a flag it is a usage error
    argv = ["band", "--system", "venn", "--input", dh_csv, "--x", "0.5", "--u", "2.0"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"cpskit: error: {flag} must be")


def test_band_flags_accept_spaces_around_a_real_as_the_csv_does(capsys, dh_csv, tmp_path):
    argv = ["band", "--system", "venn", "--x", "0.5", "--u", "2.0", "--input"]
    _, plain = run(capsys, argv + [dh_csv])
    code, spaced_field = run(capsys, argv + [_csv(tmp_path, "x1,y\n 0.0,1.0\n1.0, 3.0\n")])
    assert code == 0 and spaced_field == plain
    argv = ["band", "--system", "venn", "--input", dh_csv, "--x", " 0.5", "--u", " 2.0"]
    code, spaced_flags = run(capsys, argv)
    assert code == 0 and spaced_flags == plain


# --- exit-code fuzz: derandomized, so the examples are the same on every run --

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)

# Each puts a file outside the grammar: a header other than x1,...,xd,y, or a
# field that is not a finite plain ASCII '.'-decimal real (quoted fields are
# outside it; the last is longer than the csv module's field limit).
BAD_HEADERS = ["", "y", "x1", "x0,y", "x2,y", "y,x1", "x1,x2", "X1,y", "x1,y,z", "x1;y"]
BAD_FIELDS = ["", "zap", "1.2.3", "0x10", "--1", "1e", "inf", "-inf", "nan", "1e999",
              "1_0", "\u0661", "\uff11.5", "1.5\u00a0", '"2"0', '"1.0"', "1" * 140_000]


@st.composite
def training_files(draw):
    """(file bytes, d, the responses when the file follows the grammar, else None)."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(finite, min_size=d + 1, max_size=d + 1),
                         min_size=1, max_size=5))
    lines = [",".join([f"x{i}" for i in range(1, d + 1)] + ["y"])]
    lines += [",".join(repr(v) for v in row) for row in rows]
    kind = draw(st.sampled_from(
        ["valid", "valid", "header", "field", "short row", "long row", "no rows", "empty",
         "not utf-8"]))
    i = draw(st.integers(1, len(rows)))
    if kind == "header":
        lines[0] = draw(st.sampled_from(BAD_HEADERS))
    elif kind == "field":
        fields = lines[i].split(",")
        fields[draw(st.integers(0, d))] = draw(st.sampled_from(BAD_FIELDS))
        lines[i] = ",".join(fields)
    elif kind == "short row":
        lines[i] = lines[i].rsplit(",", 1)[0]
    elif kind == "long row":
        lines[i] += "," + repr(draw(finite))
    elif kind == "no rows":
        lines = lines[:1]
    elif kind == "empty":
        lines = []
    if lines and draw(st.booleans()):  # blank lines are skipped
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if kind == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, d, [row[-1] for row in rows] if kind == "valid" else None


def bad_xs(d):
    return st.sampled_from([",".join(["0.5"] * (d + 1)), ",".join(["0.5"] * (d - 1)),
                            "zap", "inf", "-inf", "nan", "1e999", "0.5;0.5", "0.5,"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(training_files(), st.data())
def test_band_exit_codes_fuzz(fuzz_dir, case, data):
    body, d, ys = case
    path = fuzz_dir / "train.csv"
    path.write_bytes(body)
    good_x = ",".join(repr(v) for v in data.draw(st.lists(finite, min_size=d, max_size=d)))
    for x, want in ((good_x, 0), (data.draw(bad_xs(d)), 1)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["band", "--system", "dh", "--input", str(path), f"--x={x}"])
        if ys is None:
            assert code == 2, x
        else:
            assert code == want, x
            if want == 0:
                assert json.loads(out.getvalue())["jumps"] == sorted(set(ys))


# --- reader parity: the csv-module reader this one replaced, as the oracle ----


def _csv_rows(path: str, text: str):
    """The CSV rows of ``text``; a malformed row, such as one with a field
    longer than the csv module's limit, is a data error."""
    try:
        yield from csv.reader(io.StringIO(text, newline=""))
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def _oracle_read_training(path: str) -> Columns:
    """Training rows of a CSV file with header ``x1,...,xd,y``.

    Fields are plain ASCII reals with a ``.`` decimal point.  ``float``
    also reads digit-group underscores and non-ASCII digits, so a file
    holding either is rejected before parsing.  A UTF-8 byte-order mark
    is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = _csv_rows(path, text)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    expected = [f"x{i}" for i in range(1, len(header))] + ["y"]
    if len(header) < 2 or header != expected:
        raise DataError(f"{path}: header must be x1,...,xd,y (got {','.join(header)})")
    plain = text.isascii() and "_" not in text
    d = len(header) - 1
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise DataError(f"{path}:{lineno}: expected {d + 1} fields")
        if not plain:
            for v in row:
                if not v.isascii() or "_" in v:
                    raise DataError(f"{path}:{lineno}: {v!r} is not a plain decimal real")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"{path}:{lineno}: non-finite value")
        xs.append(vals[:d])
        ys.append(vals[d])
    if not ys:
        raise DataError(f"{path}: no data rows")
    return Columns(xs, ys)


# Fields float() reads as finite reals (some after stripping whitespace),
# then fields outside the grammar.  The long fields and the last two header
# names straddle the csv module's field limit of 131072 characters.
GOOD_FIELDS = ["+1", ".5", "5.", "1e5", "-0", "-0.0", " 1.5", "2.5 ", "\t3", "\x0c4\x1f",
               "1e-320", "0" * 131071 + "1", " " * 131071 + "1"]
OTHER_FIELDS = ["1e999", "-1e999", "nan", "inf", "", " ", "zap", "0x10", "1_0", "\u0661",
                "1.5\u00a0", "\x00", "0" * 131072 + "1", "1" + " " * 131072]
GOOD_NAMES = ["x1", " x1", "x1 ", "\tx1", "x1\u00a0", " " * 131070 + "x1"]
OTHER_NAMES = ["X1", "x1" + " " * 131071]


@st.composite
def parity_files(draw):
    """File bytes that keep to the grammar through line-level
    irregularities, and half the time break it in one place."""
    d = draw(st.integers(1, 3))
    lines = [[draw(st.sampled_from(GOOD_NAMES))] + [f"x{i}" for i in range(2, d + 1)] + ["y"]]
    for k in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row", "row", "field", "blank"])) if k else "row"
        row = [repr(v) for v in draw(st.lists(finite, min_size=d + 1, max_size=d + 1))]
        if kind == "field":
            row[draw(st.integers(0, d))] = draw(st.sampled_from(GOOD_FIELDS))
        lines.append([] if kind == "blank" else row)
    fault = draw(st.sampled_from(
        [None] * 6 + ["field", "header", "spaces", "short", "long", "no rows"]))
    row = lines[draw(st.sampled_from([i for i, line in enumerate(lines) if i and line]))]
    if fault == "field":
        row[draw(st.integers(0, d))] = draw(st.sampled_from(OTHER_FIELDS))
    elif fault == "header":
        lines[0][0] = draw(st.sampled_from(OTHER_NAMES))
    elif fault == "spaces":
        lines.insert(draw(st.integers(1, len(lines))), ["   "])
    elif fault == "short":
        row.pop()
    elif fault == "long":
        row.append("1.0")
    elif fault == "no rows":
        lines = lines[:1] + [[]] * draw(st.integers(0, 2))
    eols = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(",".join(line) + draw(eols) for line in lines[:-1]) + ",".join(lines[-1])
    text += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")


def _outcome(reader, path):
    try:
        cols = reader(path)
    except DataError:
        return None
    return cols.xs.shape, cols.xs.tobytes(), cols.ys.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parity_files())
def test_reader_matches_the_csv_module_reader(fuzz_dir, body):
    path = str(fuzz_dir / "parity.csv")
    with open(path, "wb") as fh:
        fh.write(body)
    assert _outcome(_read_training, path) == _outcome(_oracle_read_training, path)


def test_reader_reports_the_bad_line(tmp_path):
    path = _csv(tmp_path, "x1,y\r\n0.0,1.0\r\n\r\n0.5,zap\r\n")
    with pytest.raises(DataError, match=r"\.csv:4: need 2 finite"):
        _read_training(path)
    path = _csv(tmp_path, "x1,y\n0.0,1.0\r0.5,\"2\"\n")
    with pytest.raises(DataError, match=r"\.csv:3: need 2 finite"):
        _read_training(path)


# --- golden digests: any change to the bytes `cpskit band` writes shows here ---


def _golden_file(d):
    """200 rows from integer arithmetic alone: repeated predictors, tied responses."""
    lines = [",".join([f"x{i}" for i in range(1, d + 1)] + ["y"])]
    for k in range(200):
        xs = [((37 * k) % 160) / 160, ((53 * k) % 97) / 97][:d]
        y = 2.0 * xs[0] + ((k * k) % 7 - 3) / 2
        lines.append(",".join(repr(v) for v in xs + [y]))
    return "\n".join(lines) + "\n"


# sha256 of the JSON and CSV outputs at seeds 0, 7 and 123, in that order.
GOLDEN = {
    ("dh", 1): "7292bd433938b5f766275ddd462c776f7fe0e1491f72b8ca92fbc39dfa0e658b",
    ("nn", 1): "02d3d0e8cb8022bdd975fc48bb8ba94a5095798439e56581d4f03ff86b79216b",
    ("hist-mondrian", 1): "ba05a7ec23fd3dcab2fbcef8a0a0a7335eb50ce6391864622171cddfffc33a6b",
    ("hist-conformal", 1): "5732dd5926beda76d4a4b7d343c996785c34b5294352b47be1ae825da5f8536f",
    ("pfs", 1): "0c410d598282ea1ecc49724a5f2a7c8474f93f37077e7018bb0f87b796e3ba9b",
    ("venn", 1): "87eefdbc2aee98edf23ba6d5515884ef6f0c0fef8bc118796418250c352a9aef",
    ("dh", 2): "7292bd433938b5f766275ddd462c776f7fe0e1491f72b8ca92fbc39dfa0e658b",
    ("nn", 2): "b5516ab85e731f2606b88808879529528e6cd1f54b4c6bd7050905b246ba795c",
}


@pytest.mark.parametrize("system, d", sorted(GOLDEN))
def test_band_output_bytes_are_pinned(capsys, tmp_path, system, d):
    path = _csv(tmp_path, _golden_file(d))
    digest = hashlib.sha256()
    for seed in (0, 7, 123):
        for fmt in ("json", "csv"):
            code, out = run(capsys, ["band", "--system", system, "--input", path,
                                     "--x", ",".join(["0.3"] * d), "--u", "1.0",
                                     "--seed", str(seed), "--format", fmt])
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN[system, d]


# --- the reader at scale: 10^4 rows through the one-pass path -----------------

SCALE_ROWS = 10_000
SPELLINGS = ["+1", ".5", "5.", "1e5", "-0", "1e-320", "-0.0", "+.25e-3", "7E+2"]
PADS = ["", " ", "\t", "\x0b", "\x0c", " \t\x0b\x0c"]


def _scale_rows(seed):
    """``SCALE_ROWS`` rows of three fields: mixed accepted spellings and
    repr'd doubles, some padded with each whitespace that ``float`` strips."""
    rng = random.Random(seed)
    return [[rng.choice(PADS)
             + (rng.choice(SPELLINGS) if rng.random() < 0.5 else repr(rng.uniform(-1e3, 1e3)))
             + rng.choice(PADS) for _ in range(3)] for _ in range(SCALE_ROWS)]


def _scale_file(tmp_path, rows, seed):
    """The rows as a CSV file with a byte-order mark, mixed line endings and
    blank lines; its path and the line number of each row."""
    rng = random.Random(seed)
    parts, linenos = ["\ufeffx1,x2,y\n"], []
    for row in rows:
        if rng.random() < 0.01:
            parts.append("\r\n")  # a blank line, also after a line ending in CR
        parts.append(",".join(row) + rng.choice(["\n", "\r\n", "\r"]))
        linenos.append(len(parts))
    path = tmp_path / "scale.csv"
    path.write_bytes("".join(parts).encode("utf-8"))
    return str(path), linenos


def _band_error(capsys, path):
    code = main(["band", "--system", "dh", "--input", path, "--x", "0.5,0.5"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("long_line", [False, True])
def test_reader_at_scale_matches_float_per_field(tmp_path, long_line):
    rows = _scale_rows(3)
    if long_line:
        # a field of exactly the limit, on a line beyond it, is accepted
        rows[4321][1] = " " * 131070 + "-0"
    path, _ = _scale_file(tmp_path, rows, 4)
    cols = _read_training(path)
    want = np.array([[float(v) for v in row] for row in rows])
    assert cols.xs.tobytes() == want[:, :2].tobytes()
    assert cols.ys.tobytes() == want[:, 2].tobytes()


@pytest.mark.parametrize("fault", ["last row", "short row", "long field"])
def test_reader_at_scale_names_the_bad_line(capsys, tmp_path, fault):
    rows = _scale_rows(5)
    at = {"last row": SCALE_ROWS - 1, "short row": 6000, "long field": 7000}[fault]
    if fault == "last row":
        rows[at][2] = "1.0x"
    elif fault == "short row":
        rows[at].pop()
    else:
        rows[at][0] = "0" * 131072 + "1"
    path, linenos = _scale_file(tmp_path, rows, 6)
    code, err = _band_error(capsys, path)
    assert code == 2
    assert f".csv:{linenos[at]}: need 3 finite" in err


@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_reader_at_scale_rejects_information_separators(capsys, tmp_path, separator, side):
    # np.loadtxt strips \x1c-\x1f around a field as whitespace; float() does not
    rows = _scale_rows(7)
    field = rows[8000][1]
    rows[8000][1] = separator + field if side == "before" else field + separator
    path, linenos = _scale_file(tmp_path, rows, 8)
    code, err = _band_error(capsys, path)
    assert code == 2
    assert f".csv:{linenos[8000]}: need 3 finite" in err
