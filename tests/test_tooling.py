"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps cpskit functions by name in the modules that call them and
raises KeyError on a name that is gone, so a clean-up that drops an import
would break the traced benchmark without failing any other test.  The
converse holds too: a name that a cpskit module imports and never reads
(or exports in ``__all__``) is there only for the tracer, and only
``cpskit/harness.py`` and ``cpskit/cli.py`` hold such names.  Apart from the
tracer, the package must import nothing but numpy and the standard library,
every function it defines must be named somewhere outside its own
definition, so that a helper nothing calls any more fails here, and every
parameter with a default must be passed by some call.
"""

import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import cpskit.cli as cli
import cpskit.harness as harness
from cpskit import PredictiveBand, dh_band

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


def _unread_imports(path):
    """Names that the module at ``path`` imports and never reads; a name
    listed in a literal ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return imported - read - exported


def test_every_unread_import_is_a_traced_name():
    # Only the tracer's sites in harness.py and cli.py may be imported unread.
    sites = {(owner.__name__.rpartition(".")[2], attr) for owner, attr in _sites(_tracing())}
    stale = [f"{path.name}: {name}" for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for name in sorted(_unread_imports(path)) if (path.stem, name) not in sites]
    assert stale == []


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


def test_bands_support_what_the_traced_diagnostics_read():
    # perfbench/bench.py `diagnostics` takes len(band.jumps), tests the truth
    # of band.jumps and zips the at-jump values; a bare ndarray would raise on
    # the truth test and break every `--trace 1` run.
    bands = [PredictiveBand((), (0.0,), (1.0,), (), ()), dh_band([1.0]), dh_band([3.0, 1.0, 2.0])]
    for band, m in zip(bands, (0, 1, 3)):
        assert len(band.jumps) == m
        assert bool(band.jumps) is (m > 0)
        assert len(list(zip(band.at_jump_lower, band.at_jump_upper))) == m
    sys.path.insert(0, str(TRACING.parent))
    try:
        import bench
        import tracing
        import workloads
    finally:
        sys.path.remove(str(TRACING.parent))
    for band, m, slack in zip(bands, (0, 1, 3), (None, 1.0, 0.5)):
        rec = tracing.Recorder()
        rec.op_bands = [band]
        d = bench.diagnostics(workloads.Op(0, "dh", None, 1, max(m, 1), {}), rec)
        assert (d["jumps"], d["max_slack"]) == (m, slack)


def test_the_package_imports_only_numpy_and_the_standard_library():
    # ROADMAP item 2: numpy is the one declared dependency; scipy may be
    # installed but must not be imported.
    src = Path(cli.__file__).parent
    outside = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert outside == set()


def _named_outside_definitions(root):
    """Functions and methods defined in ``src/cpskit`` (dunders exempt) that
    no name, attribute or tracer site string outside their own definition
    names, anywhere in ``src/``, ``tests/`` or ``perfbench/``."""
    defs, uses, tracing = [], [], root / "perfbench" / "tracing.py"
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path == tracing):
                uses.append((node.value, path, node.lineno))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and path.parent.name == "cpskit" and not node.name.startswith("__")):
                defs.append((node.name, path, node.lineno, node.end_lineno))
    used = {}
    for name, path, line in uses:
        used.setdefault(name, []).append((path, line))
    return [f"{path.name}:{start} {name}" for name, path, start, end in defs
            if all(p == path and start <= line <= end for p, line in used.get(name, []))]


def test_every_function_is_named_outside_its_own_definition():
    # A helper that nothing names any more is dead code; keep the tree free of it.
    assert _named_outside_definitions(TRACING.parents[1]) == []


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _uncalled_defaults(root):
    """Parameters with a default, of functions and methods defined in
    ``src/cpskit``, that no call in ``src/``, ``tests/`` or ``perfbench/``
    passes by position or keyword.  Calls are matched by name: a call of a
    class calls its ``__init__``, and ``partial(f, ...)`` calls ``f``."""
    passed, defs, owner = {}, [], {}
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                passed.setdefault(name, set()).update([len(args)] + [k.arg for k in node.keywords])
            elif path.parent.name != "cpskit":
                continue
            elif isinstance(node, ast.ClassDef):
                owner.update((fn, node.name) for fn in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node, path))
    found = []
    for fn, path in defs:
        cls = owner.get(fn)
        seen = passed.get(cls if fn.name == "__init__" else fn.name, set())
        positional = fn.args.posonlyargs + fn.args.args
        bound = cls is not None and "staticmethod" not in map(_callee, fn.decorator_list)
        defaulted = positional[len(positional) - len(fn.args.defaults):]
        defaulted += [p for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        for p in defaulted:
            # Positional calls reach a parameter when they pass this many arguments.
            reach = positional.index(p) + 1 - bound if p in positional else math.inf
            if p.arg not in seen and not any(isinstance(k, int) and k >= reach for k in seen):
                found.append(f"{path.name}:{fn.lineno} {fn.name}({p.arg})")
    return found


def test_an_uncalled_default_is_caught(tmp_path):
    (tmp_path / "src" / "cpskit").mkdir(parents=True)
    (tmp_path / "src" / "cpskit" / "m.py").write_text(
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, a=0):\n        pass\n"
        "    def g(self, z=1):\n        pass\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("f(0, c=3)\nK(1)\nK().g()\n")
    assert _uncalled_defaults(tmp_path) == ["m.py:1 f(b)", "m.py:6 g(z)"]


def test_every_defaulted_parameter_is_passed_somewhere():
    # A parameter whose default every call takes only ever holds that one
    # value, so the code that reads any other value of it is dead.
    assert _uncalled_defaults(TRACING.parents[1]) == []


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _scalar_branch_wheres(source):
    """Line numbers of ``np.where(cond, a, b)`` calls whose ``a`` and ``b``
    are both number literals (signed or not) in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "where" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and len(node.args) == 3 and all(map(_is_number, node.args[1:]))]


def test_the_scalar_branch_where_is_caught():
    assert _scalar_branch_wheres("np.where(u < 0.5, -1.0, 1.0)\nnumpy.where(c, 1, +0)") == [1, 2]
    assert _scalar_branch_wheres("np.where(c, x, 1.0)\nnp.where(c)\nnp.where(c, -x, 0)") == []


def test_no_where_picks_between_two_numbers():
    # np.where(cond, 1.0, 0.0) broadcasts two scalars through numpy's generic
    # loop; at 10^4 rows it cost p1's sampler more than its arithmetic did.
    # A comparison cast to float, or copysign, computes the same values.
    found = [f"{path.name}:{line}" for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for line in _scalar_branch_wheres(path.read_text())]
    assert found == []


_DIET = """
import sys
import numpy
before = set(sys.modules)
import cpskit
print(" ".join(sorted(set(sys.modules) - before)))
import cpskit.cli
"""


def test_importing_the_package_loads_neither_json_nor_statistics_nor_dataclasses():
    # Every fresh interpreter pays for each module `import cpskit` loads on
    # top of numpy: json is for the CLI and from_json, fractions for the
    # exact demos, each imported where it runs; statistics (with fractions
    # and decimal) and dataclasses are not used at all.
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _DIET], env=env, check=True,
                           capture_output=True, text=True)
    added = set(child.stdout.split())
    assert "cpskit.harness" in added
    assert added & {"json", "statistics", "fractions", "decimal", "dataclasses"} == set()


def test_every_name_in_an_all_is_bound():
    # A stale ``__all__`` entry breaks ``from module import *`` with
    # AttributeError, and no other test imports with ``*``.
    src = Path(cli.__file__).parent
    modules = ["cpskit"] + [f"cpskit.{p.stem}" for p in sorted(src.glob("*.py"))
                            if not p.stem.startswith("__")]
    unbound = []
    for name in modules:
        module = importlib.import_module(name)
        unbound += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                    if not hasattr(module, entry)]
    assert unbound == []
