"""Every name a dimcalc module imports is used in that module, and every
module-level private name is used somewhere in the package."""

import ast

import pytest

import dimcalc
from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "dimcalc").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_public_names_resolve():
    # the import checker counts the strings in `__all__` as uses, so a
    # stale entry left by a removal would pass it; `import *` raises on one
    namespace: dict = {}
    exec("from dimcalc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dimcalc.__all__)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from typing import Iterator, NamedTuple as NT\n"
              "from .model import Ref\n"
              "__all__ = ['Ref']\n"
              "def f() -> Iterator[int]:\n    return sys.argv\n")
    assert _unused_imports(source) == ["line 4: NT", "line 2: os"]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no code
    in the given modules refers to outside their own definition.

    A use is a name read or an attribute of that name, so a function
    that only calls itself counts as unused; tests are not among the
    modules, so a name only tests read counts as unused too.
    """
    defined = []  # (module, name)
    uses = set()  # (module, top-level definition holding the use, name)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner, names = node.name, [node.name]
            else:
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AnnAssign)
                           else [])
                owner = None
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    uses.add((module, owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    uses.add((module, owner, sub.attr))
    return [f"{module}: {name}" for module, name in defined
            if not any(used == name and (where, owner) != (module, name)
                       for where, owner, used in uses)]


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _unreferenced_private_names(sources) == []


def test_checker_flags_an_unused_private_name():
    sources = {
        "a.py": ("import re\n_PATTERN = re.compile('x')\n_SEEN: set = set()\n"
                 "def _loop(n):\n    return _loop(n - 1)\n"
                 "class _Old:\n    pass\n__all__ = []\n"
                 "def _used():\n    return _PATTERN\n"),
        "b.py": "from .a import _used\ndef main():\n    return _used()\n",
    }
    assert _unreferenced_private_names(sources) == [
        "a.py: _SEEN", "a.py: _loop", "a.py: _Old"]


def _private_imports(source: str) -> list[str]:
    """Names with a leading underscore that `source` imports from another
    module: each is a detail of the module that defines it."""
    return [f"line {node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_private_import():
    source = ("from __future__ import annotations\n"
              "from .model import Ref, _NODES as NODES\n"
              "import json\n"
              "def f():\n    from .parser import _tokenize, parse_model\n")
    assert _private_imports(source) == ["line 2: _NODES", "line 5: _tokenize"]
