"""The package's public surface: what ``dtcsim`` exports, the README
quickstart, and module boundaries inside ``src/dtcsim``."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import dtcsim

PACKAGE = Path(dtcsim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# Importable from their modules, not re-exported by the package.
MODULE_ONLY = {
    "operators": ("pauli", "embed", "coupling_matrix"),
    "superop": ("hamiltonian_superop",),
    "floquet": ("effective_hamiltonian_2T",),
    "spectra": ("EffectiveGenerator", "effective_liouvillian_2T", "SpectralData"),
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


def _expm_references(tree):
    """(enclosing function, line) of every reference to a name ``expm``:
    a bare name, an attribute or an imported alias."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.split(".")[-1], node.asname)
        else:
            names = ()
        if "expm" in names:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_expm_is_called_only_inside_matrix_exp():
    references = {(path.name, function)
                  for path in sorted(PACKAGE.glob("*.py"))
                  for function, _ in _expm_references(ast.parse(path.read_text()))}
    assert references == {("floquet.py", "matrix_exp")}
