"""Every name a library module imports is used in that module, and every
function and class the library defines has a caller in the library."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "planarcut"


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression of the module reads.  Names listed
    in `__all__` count as read: the package re-exports them."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    src = "import os\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


# Modules that serve tests and benchmarks, not the library, and public
# accessors kept on purpose without a library caller.
CALLER_EXEMPT_FILES = {"baseline.py", "generators.py"}
KEPT_WITHOUT_CALLER = {"save_graph", "rev", "tail", "edge_of", "darts_of",
                       "edge_weight", "dart_weight", "face_vertices"}


def _names(node) -> Counter:
    """Every name that code under `node` reads, imports or looks up as an
    attribute."""
    out = Counter()
    for x in ast.walk(node):
        if isinstance(x, ast.Name):
            out[x.id] += 1
        elif isinstance(x, ast.Attribute):
            out[x.attr] += 1
        elif isinstance(x, ast.alias):
            out[x.name] += 1
    return out


def definitions_without_caller(sources: dict, exempt_files=(),
                               keep=()) -> list[str]:
    """Functions, methods and classes of the modules in `sources` (file name
    -> source text) whose name no code outside their own body mentions.
    Dunder methods, names listed in an `__all__`, names in `keep` and the
    definitions of `exempt_files` are not reported."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named = Counter()
    public = set(keep)
    for tree in trees.values():
        named += _names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                public.update(ast.literal_eval(node.value))
    out = []
    for fname, tree in trees.items():
        if fname in exempt_files:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name in public or (name.startswith("__")
                                  and name.endswith("__")):
                continue
            if named[name] == _names(node)[name]:
                out.append(f"{fname}: {name} (line {node.lineno})")
    return sorted(out)


def test_definitions_without_caller_are_found():
    sources = {
        "a.py": ("class A:\n    def used(self): pass\n"
                 "    def unused(self): pass\n    def __len__(self): return 0\n"
                 "def rec(n): return rec(n - 1)\n"
                 "def kept(): pass\n__all__ = ['A']\n"),
        "b.py": "from a import A\nA().used()\ndef spare(): pass\n",
    }
    assert definitions_without_caller(sources, keep={"kept"}) == [
        "a.py: rec (line 5)", "a.py: unused (line 3)", "b.py: spare (line 3)"]
    assert definitions_without_caller(sources, exempt_files={"a.py"},
                                      keep={"kept"}) == ["b.py: spare (line 3)"]


def test_library_definitions_have_callers():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert definitions_without_caller(sources, CALLER_EXEMPT_FILES,
                                      KEPT_WITHOUT_CALLER) == []
