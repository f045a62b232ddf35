"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

import dtcodes

SOURCES = sorted(Path(dtcodes.__file__).parent.glob("*.py"))


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_is_used_by_the_package():
    # a helper that only tests call is dead code kept alive by its tests;
    # an import alone, or a call from its own body, does not count as a use
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert len(trees) > 5
    assert unused == []
