"""The package exposes no public function, class or method that nothing uses,
and keeps no private helper that it does not call.

A public top-level function or class of src/h2cost/*.py, and a public
method, classmethod, staticmethod or property of a public class, must be
referenced somewhere in the package other than its own definition, or by
the paper result tests (tests/test_acceptance.py, tests/test_paper_claims.py).
Anything else is API that only its own unit tests keep alive. A private
top-level function or class must be referenced by the package itself, so
that a helper another one replaced does not linger for its tests alone.
References are matched by name: a Name, an attribute or an imported name.
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


def public_definitions(tree):
    """(name, node) of each public top-level function and class of a module,
    and of each public method, classmethod, staticmethod and property of
    its public classes, as Class.method."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for sub in methods:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub


def private_definitions(tree):
    """(name, node) of each private top-level function and class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")):
            yield node.name, node


def unused(package: dict, others, definitions=public_definitions) -> list[str]:
    """module.name of each of the definitions of the package modules (stem
    -> tree) that no module or other tree reads outside the definition."""
    used = sum((names_used(tree) for tree in [*package.values(), *others]),
               Counter())
    return [f"{stem}.{name}" for stem, tree in package.items()
            for name, node in definitions(tree)
            if used[node.name] == names_used(node)[node.name]]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def unused_public_api() -> list[str]:
    return unused({path.stem: parse(path) for path in PACKAGE},
                  map(parse, PAPER_TESTS))


def test_every_public_function_and_class_is_used():
    assert unused_public_api() == []


def test_every_private_function_and_class_is_used_by_the_package():
    package = {path.stem: parse(path) for path in PACKAGE}
    assert unused(package, [], private_definitions) == []


def test_the_scan_sees_a_definition_used_only_by_itself():
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1) if n else 0\n")
    node = tree.body[0]
    assert names_used(tree)["lonely"] == names_used(node)["lonely"] == 1


def test_the_scan_sees_a_method_used_only_by_itself():
    module = ast.parse("class Rule:\n"
                       "    @classmethod\n"
                       "    def lonely(cls, n):\n"
                       "        return cls.lonely(n - 1) if n else cls\n"
                       "    @property\n"
                       "    def read(self):\n"
                       "        return 1\n"
                       "    def _private(self):\n"
                       "        return 2\n")
    caller = ast.parse("Rule().read\n")
    assert [name for name, _ in public_definitions(module)] == [
        "Rule", "Rule.lonely", "Rule.read"]
    assert unused({"m": module}, [caller]) == ["m.Rule.lonely"]


def test_the_scan_sees_a_private_helper_only_its_tests_call():
    module = ast.parse("def _old(x):\n    return x\n"
                       "def _new(x):\n    return x\n"
                       "class _Base:\n    pass\n"
                       "class Rule(_Base):\n    pass\n"
                       "def apply(x):\n    return _new(x)\n")
    tests = ast.parse("from m import _old\nassert _old(1) == 1\n")
    assert [name for name, _ in private_definitions(module)] == [
        "_old", "_new", "_Base"]
    assert unused({"m": module}, [], private_definitions) == ["m._old"]
    assert unused({"m": module}, [tests], private_definitions) == []
