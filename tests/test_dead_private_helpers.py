"""No private helper of the package is left without a caller, and README
names none that is gone.

A private name is a module-level `_name` function, class or constant, or a
`_name` method; dunder names are left out. Anything in the package may refer
to it: a name read, an attribute access or an import alias.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "gibbsmatch").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """(name, line) of every private module-level function, class or constant and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno


def _references(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def dead_private_names(sources: dict) -> list[str]:
    """'module: name (line n)' for each private name no source refers to; sources maps
    module name to source text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*(_references(tree) for tree in trees.values()))
    return [f"{module}: {name} (line {line})" for module, tree in trees.items()
            for name, line in _definitions(tree) if _is_private(name) and name not in used]


def test_every_private_helper_is_used():
    assert dead_private_names({p.stem: p.read_text() for p in FILES}) == []


def test_the_scan_finds_a_dead_private_helper():
    a = ("_LIMIT = 3\n_UNUSED = 4\n"
         "def _helper():\n    return _LIMIT\n"
         "def _dead():\n    pass\n"
         "class K:\n"
         "    def __init__(self):\n        self._cached = _helper()\n"
         "    def _called(self):\n        pass\n"
         "    def _never(self):\n        self._called()\n")
    b = "from a import _imported\ndef _imported_here():\n    pass\n"
    c = "def _imported():\n    pass\n"
    assert dead_private_names({"a": a, "b": b, "c": c}) == [
        "a: _UNUSED (line 2)", "a: _dead (line 5)", "a: _never (line 12)",
        "b: _imported_here (line 2)"]


def missing_private_names(readme: str, sources: dict) -> list[str]:
    """Each bare backticked `_name` of readme that no source defines; dotted
    tokens such as `scipy.optimize._highspy` are left out."""
    defined = {name for text in sources.values() for name, _ in _definitions(ast.parse(text))}
    named = re.findall(r"`(_\w+)`", readme)
    return sorted(set(named) - defined)


def test_readme_names_only_private_code_that_exists():
    readme = (ROOT / "README.md").read_text()
    assert missing_private_names(readme, {p.stem: p.read_text() for p in FILES}) == []


def test_the_scan_finds_a_private_name_the_package_lacks():
    readme = ("`_helper` and `_LIMIT` exist, `_method` too; `_gone` does not.\n"
              "`mod._dotted`, `_helper()` and `a _bare` word are not bare tokens.\n")
    source = ("_LIMIT = 3\ndef _helper():\n    pass\n"
              "class K:\n    def _method(self):\n        pass\n")
    assert missing_private_names(readme, {"a": source}) == ["_gone"]
