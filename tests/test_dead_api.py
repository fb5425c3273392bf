"""No public capability of the package without a caller in the package.

Every public function, method and class defined in `src/halfturn_ice/` must
be referenced elsewhere in the package source: by a Name node, an Attribute
node or an import alias.  Docstrings and comments do not count.  Test
oracles belong next to their tests, not in `src/`.

Matching is by name only, so a public name that some local name shadows
(say, a variable `norm` in another module) escapes this check.
"""

import ast
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


def _referenced_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    referenced = _referenced_names(trees)
    unused = sorted({node.name for tree in trees for node in _public_definitions(tree)
                     if not node.name.startswith("_")} - referenced)
    assert unused == [], f"public names nothing in src/ calls: {', '.join(unused)}"
