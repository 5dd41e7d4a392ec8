"""The package keeps no mutable module state: no `global` statement and no
module-level list or set, checked on the source of every module, and no
module-level numpy array that can be written, checked on each module as
imported."""

import ast
import importlib
import pathlib
import types

import numpy as np
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ilwbo"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, function) of the one `global` statement left: the ladder's FFT
# worker switch, which ROADMAP item 4 deletes
ALLOWED_GLOBALS = {("spectral", "set_fft_workers")}

_MUTABLE = (ast.List, ast.Set, ast.ListComp, ast.SetComp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def global_statements(tree):
    """(innermost enclosing function or class, or "<module>") of each `global`."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append(where)
            visit(child, child.name if isinstance(child, _SCOPES) else where)

    visit(tree, "<module>")
    return found


def mutable_containers(tree):
    """The names bound at module level to a list or set display or call."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        call = isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id in ("list", "set")
        if isinstance(value, _MUTABLE) or call:
            found += [ast.unparse(target) for target in targets]
    return found


def writeable_arrays(module):
    """The names a module binds to a numpy array that can be written."""
    return [name for name, value in vars(module).items()
            if isinstance(value, np.ndarray) and value.flags.writeable]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_global_statement(path):
    tree = ast.parse(path.read_text())
    assert {(path.stem, where) for where in global_statements(tree)} <= ALLOWED_GLOBALS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_level_list_or_set(path):
    tree = ast.parse(path.read_text())
    assert [name for name in mutable_containers(tree) if name != "__all__"] == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("a = []\nb: set = set()\n__all__ = ['f']\n"
                     "def f():\n    global a\n    c = [1]\n"
                     "class K:\n    def g(self):\n        global b\n")
    assert mutable_containers(tree) == ["a", "b", "__all__"]
    assert global_statements(tree) == ["f", "g"]
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_writeable_module_level_array(path):
    name = "ilwbo" if path.stem == "__init__" else f"ilwbo.{path.stem}"
    assert writeable_arrays(importlib.import_module(name)) == []


def test_the_array_check_sees_a_writeable_array():
    snippet = types.ModuleType("snippet")
    exec("import numpy as np\nfrozen = np.zeros(3)\nfrozen.setflags(write=False)\n"
         "view = frozen[1:]\nopen_table = np.ones(2)\nrows = [np.ones(2)]\n", vars(snippet))
    assert writeable_arrays(snippet) == ["open_table"]
