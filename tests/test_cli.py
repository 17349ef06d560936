"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpskit.cli import main


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


def test_validate_online_flag(capsys):
    code, out = run(capsys, ["validate", "--system", "dh", "--n", "5", "--trials", "500",
                             "--online", "--epsilon", "0.1", "--seed", "424242"])
    assert code == 0
    doc = json.loads(out)
    assert "online_coverage" in doc["suites"]


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


@pytest.mark.parametrize("argv", [
    ["consistency", "--system", "venn", "--ns", "10", "--trials", "2"],
    ["validate", "--system", "pfs", "--trials", "200"],
    ["validate", "--system", "nonesuch", "--trials", "200"],
])
def test_system_without_the_needed_property_is_usage_error(capsys, argv):
    code, _ = run(capsys, argv)
    assert code == 1


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


def test_band_rejects_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x1,y\n0.0,1.0\n\xe9,2.0\n")
    code, _ = run(capsys, ["band", "--system", "dh", "--input", str(path), "--x", "0.5"])
    assert code == 2


# --- exit-code fuzz: derandomized, so the examples are the same on every run --

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)

# Each puts a file outside the grammar: a header other than x1,...,xd,y, or a
# field that is not a finite plain ASCII '.'-decimal real (the last is longer
# than the csv module's field limit).
BAD_HEADERS = ["", "y", "x1", "x0,y", "x2,y", "y,x1", "x1,x2", "X1,y", "x1,y,z", "x1;y"]
BAD_FIELDS = ["", "zap", "1.2.3", "0x10", "--1", "1e", "inf", "-inf", "nan", "1e999",
              "1_0", "\u0661", "\uff11.5", "1.5\u00a0", "1" * 140_000]


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
