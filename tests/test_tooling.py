"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps cpskit functions by name in the modules that call them and
raises KeyError on a name that is gone, so a clean-up that drops an import
would break the traced benchmark without failing any other test.
"""

import importlib.util
from pathlib import Path

import cpskit.harness as harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(tracing):
    """(owner, attribute) of every name the recorder wraps."""
    sites = [(owner, attr) for owner, attr, _, _ in tracing._sites()]
    return sites + [(harness, s) for s in tracing._SCORES]


def test_every_traced_name_is_bound():
    missing = [f"{owner.__name__}.{attr}" for owner, attr in _sites(_tracing())
               if attr not in vars(owner)]
    assert missing == []


def test_recorder_wraps_and_restores_every_name():
    tracing = _tracing()
    sites = _sites(tracing)
    before = [vars(owner)[attr] for owner, attr in sites]
    rec = tracing.Recorder()
    with rec.installed():
        during = [vars(owner)[attr] for owner, attr in sites]
        harness.pit_sample("nn", harness.SAMPLERS["p1"], 5, 2, 0)
    assert all(d is not b for d, b in zip(during, before))
    assert all(vars(owner)[attr] is b for (owner, attr), b in zip(sites, before))
    # Registry builders are looked up in harness, where the recorder sees them.
    assert rec.counts["transducers.nn_band.calls"] == 2
