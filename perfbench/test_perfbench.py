"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

import cpskit.harness as harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_program():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == tracing.layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


class _HalfFailing(Workload):
    name = "half-failing"
    kinds = ["ok", "raises"]

    def warm_up(self):
        pass

    def op(self, i):
        def call():
            if i % 2:
                raise RuntimeError("injected")
            return i

        return Op(i, self.kinds[i % 2], call, 1, 1, {"system": self.kinds[i % 2]})


def test_an_op_that_raises_is_counted_as_failed(tmp_path, capsys):
    result = bench.timed_run(_HalfFailing(0, str(tmp_path)), 0.05, str(ROOT / "src"))
    assert result["attempted"] >= 2
    assert result["failed"] * 2 == result["attempted"]
    assert not result["correct"]
    assert "half-failing failed_frac 0.5 " in capsys.readouterr().out


def test_a_run_keeps_no_op_output(tmp_path):
    class Output:
        pass

    refs = []

    class _Sampled(_HalfFailing):
        kinds = ["ok"]
        check_cycles = 2

        def op(self, i):
            def call():
                out = Output()
                refs.append(weakref.ref(out))
                return out

            return Op(i, "ok", call, 1, 1, {"system": "ok"})

    w = _Sampled(0, str(tmp_path))
    tally = bench.Tally(w)
    for op in map(w.op, range(4)):
        tally.add(op, *bench.execute(op))
    assert len(tally) == 4 and not tally.errors
    assert [row[0] for row in tally.rows] == [0, 1]  # only the check sample's rows
    assert all(ref() is None for ref in refs)


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 6.0, 0, 0],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [6.0, 2.0, 1.0, 1.0]
    assert sum(selfs) == 10.0
    assert tracing.nesting_errors(spans, selfs) == []
    spans[3][2] = 11.0  # child ends after its parent
    assert tracing.nesting_errors(spans, tracing.self_times(spans))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_output_and_spans_nest(name, tmp_path):
    w = WORKLOADS[name](3, str(tmp_path))
    w.prepare()
    ops = [w.op(i) for i in range(w.cycle_len)]
    plain, _ = bench.run_pass(ops)
    original = harness.consistency_curve
    rec = tracing.Recorder()
    with rec.installed():
        assert harness.consistency_curve is not original
        spanned, _ = bench.run_pass(ops, rec)
    assert harness.consistency_curve is original
    assert spanned == plain
    assert all(error is None for _, error in plain)
    selfs = tracing.self_times(rec.spans)
    assert tracing.nesting_errors(rec.spans, selfs) == []
    assert all(s >= 0.0 for s in selfs)
    roots = [s for s in rec.spans if s[0] == tracing.ROOT_SPAN]
    assert len(roots) == len(ops)
    assert sum(selfs) == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert len(rec.spans) > len(roots)  # the layers were reached


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
