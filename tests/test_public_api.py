"""Every public top-level function and class of a library module is used by
the library itself or by the benchmark, and so is every public method,
property and dataclass field of a library class; one that only tests call or
read belongs in the tests."""

import ast
from pathlib import Path

import shm_fomo

PACKAGE = Path(shm_fomo.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the package's __init__ re-exports names, which is no use of them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Public top-level functions and classes, with their lines."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, bare (``f``) or as an attribute (``mod.f``)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_public(modules: dict[str, ast.Module], users: list[ast.Module]) -> dict:
    """(module, name) -> line of each public definition no user loads."""
    used = set().union(*(used_names(tree) for tree in users))
    return {(name, fn): line for name, tree in modules.items()
            for fn, line in public_definitions(tree).items() if fn not in used}


def public_members(tree: ast.Module) -> dict[str, int]:
    """Public methods, properties and annotated (dataclass) fields of the
    top-level classes, as ``Class.member``, with their lines."""
    members = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                members[f"{cls.name}.{name}"] = node.lineno
    return members


def read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names read anywhere (``x.name`` in a load, not a store)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_members(modules: dict[str, ast.Module], users: list[ast.Module]) -> dict:
    """(module, Class.member) -> line of each public member no user reads."""
    read = set().union(*(read_attributes(tree) for tree in users))
    return {(name, member): line for name, tree in modules.items()
            for member, line in public_members(tree).items()
            if member.split(".")[1] not in read}


def test_every_public_definition_has_a_user():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in USERS}
    modules = {p.name: trees[p] for p in MODULES}
    unused = unused_public(modules, list(trees.values()))
    assert not unused, f"public but used only by tests (or not at all): {unused}"


def test_checker_flags_a_test_only_function():
    lib = ast.parse("def used():\n    return 1\n"
                    "def test_only():\n    return 2\n"
                    "class Kept:\n    pass\n"
                    "def _private():\n    return used()\n")
    caller = ast.parse("import lib\nx: 'ignored' = lib.Kept()\n")
    assert unused_public({"lib.py": lib}, [lib, caller]) == {("lib.py", "test_only"): 3}


def test_every_public_member_is_read():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in USERS}
    modules = {p.name: trees[p] for p in MODULES}
    unread = unread_members(modules, list(trees.values()))
    assert not unread, f"public members read only by tests (or not at all): {unread}"


def test_checker_flags_a_test_only_member():
    lib = ast.parse("class Report:\n"
                    "    used: int = 0\n"
                    "    test_only: int = 0\n"
                    "    _private: int = 0\n"
                    "    def total(self):\n"
                    "        return self.used\n"
                    "    @property\n"
                    "    def shown(self):\n"
                    "        return 1\n"
                    "    def helper(self):\n"
                    "        return 2\n")
    caller = ast.parse("r = lib.Report()\nr.helper = None\nprint(r.total(), r.shown)\n")
    assert unread_members({"lib.py": lib}, [lib, caller]) == {
        ("lib.py", "Report.test_only"): 3, ("lib.py", "Report.helper"): 10}
