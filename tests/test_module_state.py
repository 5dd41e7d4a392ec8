"""The package keeps no mutable module state: no `global` statement and no
module-level list or set, checked on the source of every module."""

import ast
import pathlib

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
