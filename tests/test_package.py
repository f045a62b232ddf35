"""Static checks over the package source."""

import ast
import importlib
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


def _declared_all(tree: ast.Module) -> list[str] | None:
    """The names of a top-level ``__all__`` list, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return None


def test_every_public_name_is_defined_in_its_module():
    # an imported name listed in __all__ would be declared in two modules;
    # the package's own list is built from the modules' lists
    checked = 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = None if path.stem == "__init__" else _declared_all(tree)
        if names is None:
            continue
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign):
                defined.add(node.target.id)
        assert [name for name in names if name not in defined] == [], path.name
        assert len(set(names)) == len(names), path.name
        checked += 1
    assert checked > 5


# The table suites of verify, reached as dtcodes.verify and not re-exported
_VERIFY_SUITES = {"SUITES", "awe_oracle", "thresholds", "generators", "classification"}


def test_the_package_exports_each_modules_public_names():
    # every module's __all__ but the recorded tables of reference_data
    expected = {}
    for path in SOURCES:
        if path.stem in ("__init__", "reference_data"):
            continue
        module = importlib.import_module(f"dtcodes.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if path.stem == "verify" and name in _VERIFY_SUITES:
                continue
            assert name not in expected, name  # one defining module a name
            expected[name] = module
    assert len(dtcodes.__all__) == len(set(dtcodes.__all__))
    assert sorted(dtcodes.__all__) == sorted(expected)
    for name, module in expected.items():
        assert getattr(dtcodes, name) is getattr(module, name), name
