"""No code that only its own tests reach: every top-level function and class
of `src/csgnn`, and every method but the dunders, is referenced (as a name or
an attribute) somewhere in `src/csgnn` outside its own definition. The
package's `__init__.py` only re-exports, so an export is not a caller."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csgnn"


def _referenced(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, definition node) of the top-level functions and
    classes and of the classes' non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.endswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    uncalled = [f"{module}:{qualname}"
                for module, tree in trees.items() if module != "__init__.py"
                for qualname, node in _definitions(tree)
                if everywhere[node.name] == _referenced(node)[node.name]]
    assert uncalled == []
