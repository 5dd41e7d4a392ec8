"""The README's citations of tests: every `tests/<file>.py::<name>` it gives
names a test that is defined there."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CITATION = re.compile(r"tests/(\w+\.py)((?:::\w+)+)")


def defined(path: pathlib.Path, names: list[str]) -> bool:
    """True when the chain `names` (a class, then its methods) is defined at
    the top level of the module at `path`."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_test_the_readme_cites_is_defined():
    cited = sorted(set(CITATION.findall((ROOT / "README.md").read_text())))
    assert len(cited) >= 4
    missing = [f"tests/{module}{chain}" for module, chain in cited
               if not (ROOT / "tests" / module).is_file()
               or not defined(ROOT / "tests" / module, chain.split("::")[1:])]
    assert not missing, f"the README cites tests that do not exist: {missing}"
