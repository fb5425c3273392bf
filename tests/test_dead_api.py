"""No public capability of the package without a caller in the package.

Every public function, method and class defined in `src/halfturn_ice/` must
be referenced elsewhere in the package source: by a Name node, an Attribute
node or an import alias.  Docstrings and comments do not count.  Test
oracles belong next to their tests, not in `src/`.  So must every private
module-level function, outside its own body: a helper that only tests call
does not stay in the package either.

Matching is by name only, so a public name that some local name shadows
(say, a variable `norm` in another module) escapes this check.

Nor does a module import a name it never reads: every name an import binds
(`__future__` features aside) must be loaded somewhere in that module.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "halfturn_ice"


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def _public_definitions(tree):
    """Every def or class at module level, and every method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _referenced_names(trees) -> Counter:
    """How often each name is referenced under the given nodes."""
    names = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.alias):
                names[node.name.split(".")[-1]] += 1
                if node.asname:
                    names[node.asname] += 1
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    referenced = _referenced_names(trees)
    unused = sorted({node.name for tree in trees for node in _public_definitions(tree)
                     if not node.name.startswith("_")} - referenced.keys())
    assert unused == [], f"public names nothing in src/ calls: {', '.join(unused)}"


def test_every_private_module_function_has_a_caller_in_the_package():
    trees = _trees()
    referenced = _referenced_names(trees)
    unused = sorted(node.name for tree in trees for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and referenced[node.name] == _referenced_names([node])[node.name])
    assert unused == [], f"private functions nothing else in src/ calls: {', '.join(unused)}"


def _imported_names(tree):
    """The name each import of a module binds, `__future__` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in loaded]
    assert unread == [], f"imported names their module never reads: {', '.join(unread)}"
