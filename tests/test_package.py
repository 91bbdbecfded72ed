"""The package exports only what the package itself uses.

A name in `lazyfst.__all__` must be read somewhere in `src/lazyfst/`
outside `__init__.py` and outside its own definition.  A helper that
only tests call belongs with the tests (oracles.py), not in the package.
"""

import ast
from pathlib import Path

import lazyfst

PACKAGE = Path(lazyfst.__file__).parent


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, as bare names or attributes, leaving out
    each top-level definition's references to itself."""
    found: set[str] = set()

    def walk(node: ast.AST, own: str | None) -> None:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if node.id != own:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, own)

    for stmt in tree.body:
        own = None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own = stmt.name
        walk(stmt, own)
    return found


def test_every_export_has_a_caller_in_the_package():
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text(), str(path)))
    unused = sorted(set(lazyfst.__all__) - used)
    assert unused == [], f"exported but used only outside src/: {unused}"

