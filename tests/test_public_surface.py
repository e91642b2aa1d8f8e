"""The package's public surface: what ``dtcsim`` exports, the README
quickstart, and module boundaries inside ``src/dtcsim``."""

import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import dtcsim
from dtcsim.cli import _READS, RunConfig
from dtcsim.spectra import spectral_distance
from dtcsim.twosite import coupling_gamma_crossings

PACKAGE = Path(dtcsim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Importable from their modules, not re-exported by the package.
MODULE_ONLY = {
    "operators": ("coupling_matrix",),
    "superop": ("dephasing_rates",),
    "floquet": ("interaction_propagator",),
    "spectra": ("SpectralData",),
    "observables": ("partial_transpose",),
    "experiments": ("SweepResult", "dtc_settling_period"),
    "twosite": ("TwoSiteEffective",),
}


def test_every_exported_name_resolves():
    assert len(set(dtcsim.__all__)) == len(dtcsim.__all__)
    for name in dtcsim.__all__:
        assert hasattr(dtcsim, name), name


@pytest.mark.parametrize("module, names", sorted(MODULE_ONLY.items()))
def test_module_only_names_import_from_their_module(module, names):
    mod = importlib.import_module(f"dtcsim.{module}")
    for name in names:
        assert hasattr(mod, name), f"dtcsim.{module}.{name}"
        assert name not in dtcsim.__all__


def _top_level_bindings(tree):
    """(statement, names it binds) for each module-level statement: functions,
    classes, assignment targets and imports bind names, ``__future__`` and
    the other statements none."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Import):
            names = {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = {a.asname or a.name for a in node.names}
        else:
            names = set()
        yield node, names


def _loaded_names(node):
    """Every name a subtree reads: bare names and attributes; strings, and so
    docstrings, are not references."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _perfbench_names():
    """Names the benchmark reads or imports from the package."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        names |= _loaded_names(tree)
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
    return names


def test_every_module_level_name_has_a_caller():
    # a module-level name of src/ is live when it is exported, the benchmark
    # reads it, or a live statement of src/ reads it; statements that bind no
    # name (the ``__main__`` guard) and dunder names are live.  So a name read
    # only by dead code, or only by its own body, is dead as well
    statements = [(path.name, names, _loaded_names(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node, names in _top_level_bindings(ast.parse(path.read_text()))]
    live = set(dtcsim.__all__) | _perfbench_names() | {
        name for _, names, _ in statements for name in names
        if name.startswith("__") and name.endswith("__")}
    while True:
        reached = live.union(*(reads for _, names, reads in statements
                               if not names or names & live))
        if reached == live:
            break
        live = reached
    dead = [f"{module}: {name}" for module, names, _ in statements for name in names - live]
    assert sorted(dead) == []


def _traced():
    """perfbench's TRACED table, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["TRACED"])
    return ast.literal_eval(value)


def test_every_name_the_benchmark_imports_or_traces_resolves():
    # so a rename in src/ fails here, not in a traced benchmark run
    missing = [f"{module}.{name}" for module, names in _traced().items() for name in names
               if not hasattr(importlib.import_module(f"dtcsim.{module}"), name)]
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> dtcsim module, from ``from dtcsim import floquet``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dtcsim"):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(source, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif inspect.ismodule(getattr(source, alias.name)):
                        modules[alias.asname or alias.name] = getattr(source, alias.name)
        missing += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)]
    assert missing == []


def test_readme_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README quickstart", "exec"), namespace)
    assert namespace["gap"].gap == pytest.approx(0.02)
    assert capsys.readouterr().out.count("\n") == 2


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "dtcsim"
            for alias in node.names if internal else ():
                if alias.name.startswith("_") and alias.name != "__version__":
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def test_subcommands_read_only_real_settings_and_every_setting_is_read():
    names = {f.name for f in fields(RunConfig)}
    for experiment, reads in _READS.items():
        assert len(set(reads)) == len(reads), experiment
        assert set(reads) <= names - {"experiment"}, experiment
    assert set().union(*_READS.values()) == names - {"experiment"}


def _references(tree, targets):
    """(enclosing functions, outermost first; line; name) of every reference
    to a name in ``targets``: a bare name, an attribute or an imported alias."""
    found = []

    def visit(node, functions):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions + (node.name,)
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.alias):
            names = {node.name.split(".")[-1], node.asname}
        else:
            names = set()
        found.extend((functions, node.lineno, name) for name in sorted(names & targets))
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(tree, ())
    return found


def test_expm_is_called_only_inside_matrix_exp():
    references = {(path.name, functions[-1] if functions else None, name)
                  for path in sorted(PACKAGE.glob("*.py"))
                  for functions, _, name in _references(ast.parse(path.read_text()),
                                                        {"expm", "_expm"})}
    assert references == {("floquet.py", "matrix_exp", "_expm")}


# The functions that form a dense 4^N x 4^N map or eigendecompose one: the
# independent cross-check of the sector blocks, not a production route.
DENSE_ROUTE = {"floquet_map", "floquet_map_2T", "interaction_propagator",
               "eigendecompose", "liouvillian_gap"}


def test_subcommands_take_no_dense_route():
    offenders = [f"{name}:{line} {ref}"
                 for name in ("experiments.py", "twosite.py", "cli.py")
                 for functions, line, ref in _references(
                     ast.parse((PACKAGE / name).read_text()), DENSE_ROUTE)
                 if functions[:1] != ("run_validation_suite",)]
    assert offenders == []


# Third-party modules a dtcsim module may import when it is itself imported;
# every other third-party import sits inside the function that needs it.
EAGER_THIRD_PARTY = ("numpy",)


def _module_level_imports(tree):
    """(line, dotted name) of every import outside a function body, so run at
    import time; ``from a import b`` counts as ``a.b``, relative imports not."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_module_level_imports_are_stdlib_numpy_or_scipy_linalg():
    def eager_ok(name):
        return (name.split(".")[0] in sys.stdlib_module_names | {"dtcsim"}
                or any(name == ok or name.startswith(ok + ".") for ok in EAGER_THIRD_PARTY))

    offenders = [f"{path.name}:{line} imports {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in _module_level_imports(ast.parse(path.read_text()))
                 if not eager_ok(name)]
    assert offenders == []


DEFERRED = ("scipy.spatial", "scipy.optimize")
SPECTRA = ([0.0, 1j, -0.5 + 0.2j], [0.01, 1.02j, -0.5 + 0.25j])
CROSSING_ARGS = (0.2 * 2 * math.pi, 0.02, 0.5)  # j0, gamma, t2 of the twosite defaults

# A fresh interpreter runs evolve, spectrum and gap-sweep, then each function
# that needs a deferred library, and prints which of them were loaded after
# each step; after the runs it prints every scipy module loaded.
COLD_START = f"""
import json, sys
from dtcsim.cli import main

def loaded():
    return [name for name in {DEFERRED!r} if name in sys.modules]

out = sys.argv[1]
assert main(["evolve", "--n", "2", "--initial-state", "1+", "--n-periods", "2",
             "--out", out + "/evolve"]) == 0
for epsilon in ("0", "0.05"):
    assert main(["spectrum", "--n", "2", "--epsilon", epsilon,
                 "--out", out + "/spectrum" + epsilon]) == 0
assert main(["gap-sweep", "--n", "2", "--w-over-j0", "0", "--realizations", "1",
             "--out", out + "/sweep"]) == 0
after_runs = sorted(name for name in sys.modules
                    if name == "scipy" or name.startswith("scipy."))
from dtcsim.spectra import spectral_distance
distance = spectral_distance(*{SPECTRA!r})
after_distance = loaded()
from dtcsim.twosite import coupling_gamma_crossings
crossings = coupling_gamma_crossings(*{CROSSING_ARGS!r}).tolist()
print(json.dumps([after_runs, after_distance, loaded(), distance, crossings]))
"""


def test_cli_runs_load_neither_spatial_nor_optimize(tmp_path):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    after_runs, after_distance, after_all, distance, crossings = \
        json.loads(done.stdout.splitlines()[-1])
    assert after_runs == []
    assert after_distance == ["scipy.spatial"]
    assert after_all == list(DEFERRED)
    assert distance == spectral_distance(*SPECTRA)
    assert crossings == coupling_gamma_crossings(*CROSSING_ARGS).tolist()
    assert len(crossings) > 0
