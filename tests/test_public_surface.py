"""The package's public surface: what ``dtcsim`` exports, the README
quickstart, and module boundaries inside ``src/dtcsim``."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import dtcsim
from dtcsim.cli import _READS, RunConfig, main
from dtcsim.spectra import spectral_distance

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


#: A Sphinx cross-reference in a docstring: its role and its target.
REFERENCE = re.compile(r":(func|class|mod|meth|data):`([^`]*)`")


def _docstrings(tree):
    """(enclosing class name or None, docstring) of a module and of each of
    its classes and functions; a class docstring is enclosed by its class."""
    found = [(None, ast.get_docstring(tree, clean=False))]

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found.append((child.name, ast.get_docstring(child, clean=False)))
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((enclosing, ast.get_docstring(child, clean=False)))
                visit(child, enclosing)

    visit(tree, None)
    return [(enclosing, doc) for enclosing, doc in found if doc]


def _resolve(module, enclosing, role, target):
    """The object a reference names, or None: a ``dtcsim.`` target from its
    longest importable module, a bare ``:meth:`` from the enclosing class,
    any other from the docstring's module."""
    parts = target.split(".")
    if parts[0] == "dtcsim":
        for i in range(len(parts), 0, -1):
            try:
                obj, parts = importlib.import_module(".".join(parts[:i])), parts[i:]
                break
            except ImportError:
                pass
    elif role == "meth" and len(parts) == 1:
        obj = getattr(module, enclosing or "", None)
    else:
        obj = module
    for name in parts:
        obj = getattr(obj, name, None)
    return obj


def test_every_docstring_reference_resolves():
    # a derivation lives once and other docstrings point at it, so a pointer
    # must name a real object of its role
    def routine(obj):
        return callable(obj) and not inspect.isclass(obj)

    kinds = {"func": routine, "meth": routine, "class": inspect.isclass,
             "mod": inspect.ismodule, "data": lambda obj: not callable(obj)}
    references, broken = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("dtcsim" if path.stem == "__init__"
                                         else f"dtcsim.{path.stem}")
        for enclosing, doc in _docstrings(ast.parse(path.read_text())):
            for role, target in REFERENCE.findall(doc):
                references += 1
                obj = _resolve(module, enclosing, role, target)
                if obj is None or not kinds[role](obj):
                    broken.append(f"{path.name}: :{role}:`{target}`")
    assert references > 0
    assert broken == []


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


def test_only_part_bases_derives_the_reflection_parity_bases():
    # the parity bases of a sector pair are formed once, from the chain
    # reflection, and every split and join reads them from _part_bases
    references = {(path.name, functions[-1] if functions else None, name)
                  for path in sorted(PACKAGE.glob("*.py"))
                  for functions, _, name in _references(ast.parse(path.read_text()),
                                                        {"pair_reflection"})}
    assert references == {("floquet.py", "_part_bases", "pair_reflection")}
    superop = ast.parse((PACKAGE / "superop.py").read_text())
    assert [node.name for node in ast.walk(superop)
            if isinstance(node, ast.FunctionDef) and "parity" in node.name] == []


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


def _imports(tree):
    """(line, dotted name) of every import, function bodies included;
    ``from a import b`` counts as ``a.b``, relative imports not at all."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
    return found


def test_src_has_no_assert_statement():
    # python -O strips assert, so a check of src/ must still hold without it
    offenders = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert offenders == []


def test_every_import_is_stdlib_numpy_or_dtcsim():
    # the library needs numpy alone; scipy is the tests' reference
    allowed = sys.stdlib_module_names | {"numpy", "dtcsim"}
    offenders = [f"{path.name}:{line} imports {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in _imports(ast.parse(path.read_text()))
                 if name.split(".")[0] not in allowed]
    assert offenders == []


# Every subcommand at N <= 3, as its argv without --out; validate writes no
# table and is compared by its printed report.
RUNS = {
    "evolve": ["evolve", "--n", "3", "--initial-state", "1+1", "--n-periods", "2"],
    "spectrum0": ["spectrum", "--n", "3", "--epsilon", "0"],
    "spectrum0.05": ["spectrum", "--n", "2", "--epsilon", "0.05"],
    "gap-sweep": ["gap-sweep", "--n", "3", "--w-over-j0", "0,5", "--realizations", "2"],
    "twosite": ["twosite", "--points", "9"],
}
SPECTRA = ([0.0, 1j, -0.5 + 0.2j], [0.01, 1.02j, -0.5 + 0.25j])

# A fresh interpreter in which any import of scipy, or of a submodule of it,
# raises ImportError runs every subcommand and one spectral distance, and
# prints the exit codes, validate's report and the distance.  numpy.ma is
# blocked as well: the library needs none of it, and functions such as
# np.unique that import it add about 1 MB to a run's peak resident memory.
BLOCKED = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
sys.modules["numpy.ma"] = None
from dtcsim.cli import main
from dtcsim.spectra import spectral_distance

out = sys.argv[1]
codes = {{name: main(argv + ["--out", out + "/" + name]) for name, argv in {RUNS!r}.items()}}
with contextlib.redirect_stdout(io.StringIO()) as report:
    codes["validate"] = main(["validate"])
print(json.dumps([codes, report.getvalue(), spectral_distance(*{SPECTRA!r})]))
"""


def _outputs(out_dir):
    """Each run's table bytes, and its manifest without wall time and out."""
    found = {}
    for name, argv in RUNS.items():
        stem = argv[0].replace("-", "_")
        manifest = json.loads((out_dir / name / f"{stem}_manifest.json").read_text())
        del manifest["wall_time_seconds"], manifest["config"]["out"]
        found[name] = ((out_dir / name / f"{stem}.csv").read_bytes(), manifest)
    return found


def test_subcommands_run_with_scipy_blocked(tmp_path, capsys):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BLOCKED, str(tmp_path / "blocked")],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    codes, report, distance = json.loads(done.stdout.splitlines()[-1])
    assert codes == dict.fromkeys([*RUNS, "validate"], 0), report
    # the same runs in this process, where scipy is importable
    for name, argv in RUNS.items():
        assert main(argv + ["--out", str(tmp_path / "here" / name)]) == 0
    capsys.readouterr()
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == report
    here = _outputs(tmp_path / "here")
    assert _outputs(tmp_path / "blocked") == here
    assert len(here["twosite"][1]["gamma_crossings_w_over_j0"]) == 6
    assert distance == spectral_distance(*SPECTRA)


# The keys of each run's manifest, nested ones as dotted paths, besides the
# settings under "config", which are those the subcommand reads.
_COMMON_KEYS = {"config", "outputs", "package_version", "schema", "wall_time_seconds"}
MANIFEST_KEYS = {
    "evolve": _COMMON_KEYS | {"numerics"} | {f"numerics.{key}" for key in (
        "blocks_exponentiated", "hermiticity_error", "min_eigenvalue", "sector_pairs",
        "sector_pairs_stepped", "settling_period", "stepped_bytes", "stepped_matrices",
        "largest_stepped_dim", "trace_error", "tolerances",
        "tolerances.hermiticity", "tolerances.positivity", "tolerances.trace")},
    "spectrum0": _COMMON_KEYS,
    "spectrum0.05": _COMMON_KEYS,
    "gap-sweep": _COMMON_KEYS | {"failures", "seeds"},
    "twosite": _COMMON_KEYS | {"critical_disorder_estimate_w_over_j0",
                               "gamma_crossings_w_over_j0", "numerics",
                               "numerics.branch_flag_points_analytic",
                               "numerics.branch_flag_points_numeric"},
}


def _key_paths(tree, prefix=""):
    """Every key of a nested dict, as a dotted path."""
    paths = set()
    for key, value in tree.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, prefix + key + ".")
    return paths


@pytest.mark.parametrize("name", sorted(RUNS))
def test_each_subcommand_keeps_its_manifest_keys(name, tmp_path, capsys):
    argv = RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    stem = argv[0].replace("-", "_")
    paths = _key_paths(json.loads((tmp_path / f"{stem}_manifest.json").read_text()))
    settings = {path for path in paths if path.startswith("config.")}
    assert settings == {f"config.{key}" for key in ("experiment", *_READS[argv[0]])}
    assert paths - settings == MANIFEST_KEYS[name]
