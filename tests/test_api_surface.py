"""The package exposes no public function or class that nothing uses.

A public top-level function or class of src/h2cost/*.py must be referenced
somewhere in the package other than its own definition, or by the paper
result tests (tests/test_acceptance.py, tests/test_paper_claims.py).
Anything else is API that only its own unit tests keep alive. References
are matched by name: a Name, an attribute or an imported name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "h2cost").glob("*.py"))
PAPER_TESTS = [ROOT / "tests" / "test_acceptance.py",
               ROOT / "tests" / "test_paper_claims.py"]


def names_used(node) -> Counter:
    """How often each identifier is read under node."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rsplit(".", 1)[-1]] += 1
    return used


def unused_public_api() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE + PAPER_TESTS}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    unused = []
    for path in PACKAGE:
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and used[node.name] == names_used(node)[node.name]):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_function_and_class_is_used():
    assert unused_public_api() == []


def test_the_scan_sees_a_definition_used_only_by_itself():
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1) if n else 0\n")
    node = tree.body[0]
    assert names_used(tree)["lonely"] == names_used(node)["lonely"] == 1
