"""Every library and test module uses each name it imports, every
module-level private name of the package is used somewhere in the package
outside its own definition, and every public function, class, constant or method is called by package
code unless it is listed in LIBRARY_ONLY.  No isinstance or issubclass
call names a class imported from typing, and no package module reads a
private attribute through anything but self or cls.  Importing the command line
stays light: no module of the package imports dataclasses, and the import
loads neither dataclasses nor inspect.  The package exports no submodule.
Only algebra.py builds algebras, only jsonio.action_from_json checks an
action, and only jsonio.partial_from_json checks a correspondence.

The package's __init__ is exempt: its imports are the public re-exports,
and a re-export alone does not count as a use."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import pmplab

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pmplab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    )


def test_detects_an_unused_import():
    source = "from typing import Optional, Sequence\nx: Sequence[int] = []\n"
    assert unused_imports(source) == ["Optional (line 1)"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names a module or statement reads, imports or takes as an attribute."""
    referenced: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced.update(alias.name for alias in node.names)
    return referenced


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private names bound at the top level of a module that no module reads,
    imports or takes as an attribute outside the statement that binds them:
    a function that only calls itself, or a class that only names itself,
    has no caller."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    references = [_referenced_names(node) for _module, node in statements]
    return sorted(
        f"{module}: {name}"
        for i, (module, node) in enumerate(statements)
        for name in _bound_names(node)
        if _is_private(name)
        and not any(name in refs for j, refs in enumerate(references) if j != i)
    )


def test_detects_an_unreferenced_private_name():
    sources = {
        "a.py": "_used = 1\n_dead = 2\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _dead"]


def test_detects_a_private_name_used_only_in_its_own_definition():
    sources = {
        "a.py": (
            "def _countdown(n):\n    return _countdown(n - 1) if n else 0\n"
            "class _Node:\n    def copy(self):\n        return _Node()\n"
            "def _kept():\n    return _kept\n"
            "def public():\n    return _kept()\n"
        ),
    }
    assert unreferenced_private_names(sources) == ["a.py: _Node", "a.py: _countdown"]


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_names(sources) == []


# Public names no package code calls, kept on purpose.  Reference code that
# only tests need belongs in tests/, not here.
LIBRARY_ONLY = {
    "action.generated_subalgebra": "paper construction: the least invariant subalgebra holding some events",
    "action.perturb_small": "paper construction: an automorphism moving less than delta per block",
    "constructions.extend_partial_step": "paper construction: extend a partial correspondence by one block",
    "audit.c2_distance": "the public way to recompute the distance of a C2 witness",
    "constructions.verify_conjugacy": "the public way to recompute the defect of a conjugacy certificate",
    "action.apply_word": "the action of a word on one event",
    "algebra.Event.complement": "Boolean operation of the measure algebra",
    "algebra.Event.union": "Boolean operation of the measure algebra",
    "algebra.Event.intersect": "Boolean operation of the measure algebra",
    "algebra.AtomPartition.trivial": "the one-block partition, bottom of the partition lattice",
    "modeltheory.relatively_independent_joining": "paper construction: the joining that independence_deficiency measures against",
    "modeltheory.triple_law": "the actual joint law that independence_deficiency compares with the joining",
    "algebra.JointDistribution.base_marginal": "the base-cell masses of a joint law",
    "algebra.MeasuredAlgebra.denominator_lcm": "den under its old name, which perfbench/checks.py still calls",
}


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Public top-level names and public methods of top-level classes, as
    module.name or module.Class.method, that no module reads, imports or
    takes as an attribute."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for module, source in sources.items():
        stem = module.removesuffix(".py")
        tree = ast.parse(source)
        for node in tree.body:
            defined.extend((name, f"{stem}.{name}") for name in _bound_names(node))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (sub.name, f"{stem}.{node.name}.{sub.name}")
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        referenced |= _referenced_names(tree)
    return sorted(
        qualified
        for name, qualified in defined
        if not name.startswith("_") and name not in referenced
    )


def test_detects_an_unreferenced_public_name():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "def used():\n    return LIMIT\n"
            "def dead():\n    return used()\n"
            "class C:\n"
            "    def kept(self):\n        return 0\n"
            "    def gone(self):\n        return self.kept()\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b.py": "from a import C\n",
    }
    assert unreferenced_public_names(sources) == ["a.C.gone", "a.dead"]


def test_every_public_name_is_used_in_the_package_or_allowlisted():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_public_names(sources) == sorted(LIBRARY_ONLY)


def algebras_built_outside_algebra(sources: dict[str, str]) -> list[str]:
    """Calls of MeasuredAlgebra(...) or _fresh_id() in any module but
    algebra.py, as module:line: name.  Refined algebras are laid out by
    algebra._split or product_algebra alone, and every other algebra comes
    from validate_algebra or uniform_algebra."""
    found: list[str] = []
    for module, source in sources.items():
        if module == "algebra.py":
            continue
        for node in ast.walk(ast.parse(source)):
            name = _called_name(node)
            if name in ("MeasuredAlgebra", "_fresh_id"):
                found.append(f"{module}:{node.lineno}: {name}")
    return sorted(found)


def _called_name(node: ast.AST):
    """The name a call calls, bare or as an attribute; None if node is no
    call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_detects_an_algebra_built_outside_algebra():
    sources = {
        "algebra.py": "def f():\n    return MeasuredAlgebra(_fresh_id(), 1, (1,))\n",
        "b.py": (
            "from .algebra import MeasuredAlgebra, _fresh_id\n"
            "x = MeasuredAlgebra(_fresh_id(), 1, (1,))\n"
            "y = algebra.MeasuredAlgebra(1, 1, (1,))\n"
            "def g(alg: MeasuredAlgebra) -> MeasuredAlgebra:\n    return alg\n"
        ),
    }
    assert algebras_built_outside_algebra(sources) == [
        "b.py:2: MeasuredAlgebra",
        "b.py:2: _fresh_id",
        "b.py:3: MeasuredAlgebra",
    ]


def test_only_the_algebra_module_builds_algebras():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert algebras_built_outside_algebra(sources) == []


def actions_checked_past_the_boundary(sources: dict[str, str]) -> list[str]:
    """Calls of validate_action(...) anywhere but in jsonio.action_from_json,
    as module:line: the top-level definition holding the call.  An action
    from outside is checked there, once; the library's builders make theirs
    from parts that are already checked."""
    found: list[str] = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            holder = getattr(top, "name", "<module>")
            if (module, holder) == ("jsonio.py", "action_from_json"):
                continue
            found += [
                f"{module}:{node.lineno}: {holder}"
                for node in ast.walk(top)
                if _called_name(node) == "validate_action"
            ]
    return sorted(found)


def test_detects_an_action_checked_past_the_boundary():
    sources = {
        "jsonio.py": (
            "from .action import validate_action\n"
            "def action_from_json(obj):\n    return validate_action(obj[0], obj[1])\n"
            "def other(obj):\n    return validate_action(obj[0], obj[1])\n"
        ),
        "action.py": (
            "def validate_action(alg, gens):\n    return FkAction(alg, tuple(gens))\n"
            "def _lift_action(act):\n    return validate_action(act.algebra, act.gens)\n"
        ),
        "b.py": (
            "from . import action\n"
            "class C:\n    def f(self, act):\n"
            "        return action.validate_action(act.algebra, act.gens)\n"
            "x = action.validate_action(None, [])\n"
        ),
    }
    assert actions_checked_past_the_boundary(sources) == [
        "action.py:4: _lift_action", "b.py:4: C", "b.py:5: <module>", "jsonio.py:5: other",
    ]


def test_only_the_json_reader_checks_an_action():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert actions_checked_past_the_boundary(sources) == []


CORRESPONDENCE_CHECKS = {("jsonio.py", "partial_from_json")}


def _checked_correspondence(node: ast.AST) -> bool:
    """Whether node calls PartialIsomorphism.of or Isomorphism.of, bare or
    through a module."""
    if _called_name(node) != "of" or not isinstance(node.func, ast.Attribute):
        return False
    owner = node.func.value
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    return name in ("PartialIsomorphism", "Isomorphism")


def correspondences_checked_past_the_boundary(sources: dict[str, str]) -> list[str]:
    """Calls of PartialIsomorphism.of or Isomorphism.of anywhere but in
    jsonio.partial_from_json, as module:line: the top-level definition
    holding the call.  A correspondence from outside is checked where it
    enters; the library's builders make theirs from blocks that are already
    disjoint and of equal mass, and extend_partial_step checks only that
    the block its caller adds is disjoint from the paired ones."""
    found: list[str] = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            holder = getattr(top, "name", "<module>")
            if (module, holder) in CORRESPONDENCE_CHECKS:
                continue
            found += [
                f"{module}:{node.lineno}: {holder}"
                for node in ast.walk(top)
                if _checked_correspondence(node)
            ]
    return sorted(found)


def test_detects_a_correspondence_checked_past_the_boundary():
    sources = {
        "jsonio.py": (
            "from .constructions import PartialIsomorphism\n"
            "def partial_from_json(obj):\n"
            "    return PartialIsomorphism.of(obj[0], obj[1], obj[2])\n"
            "def other(obj):\n    return PartialIsomorphism.of(obj[0], obj[1], obj[2])\n"
        ),
        "constructions.py": (
            "def extend_partial_step(p):\n    return PartialIsomorphism.of(p, p, [])\n"
            "def eppa_extend(alg):\n    return PartialIsomorphism.of(alg, alg, [])\n"
            "def approx_conjugacy_search(r1, r2):\n"
            "    return Isomorphism.of(r1, r2, []), Isomorphism(r1, r2, ())\n"
            "def groups():\n    return MarkedGroup.of(1, 0, []), AtomPartition.of(a, [])\n"
        ),
        "b.py": (
            "from . import constructions\n"
            "class C:\n    def f(self, a):\n"
            "        return constructions.Isomorphism.of(a, a, [0])\n"
            "x = constructions.PartialIsomorphism.of(None, None, [])\n"
        ),
    }
    assert correspondences_checked_past_the_boundary(sources) == [
        "b.py:4: C", "b.py:5: <module>", "constructions.py:2: extend_partial_step",
        "constructions.py:4: eppa_extend", "constructions.py:6: approx_conjugacy_search",
        "jsonio.py:5: other",
    ]


def test_only_the_json_reader_checks_a_correspondence():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert correspondences_checked_past_the_boundary(sources) == []


def private_reads(source: str) -> list[str]:
    """Private, non-dunder attributes read through anything but self or cls,
    as line N: expression.  A module's private names are its own: another
    module imports the ones it needs by name, and an object's private
    attributes are read by its own methods alone."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and _is_private(node.attr)):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_detects_a_private_read_through_another_object():
    source = (
        "import jsonio\n"
        "class A:\n"
        "    def f(self, other):\n"
        "        return self._x, cls._y, self.__dict__, other.__class__\n"
        "    def g(self, other):\n"
        "        return other._x + jsonio._int_list(other.alg._units)\n"
    )
    assert private_reads(source) == [
        "line 6: jsonio._int_list", "line 6: other._x", "line 6: other.alg._units",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_a_private_attribute_of_another_object(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def typing_class_checks(source: str) -> list[str]:
    """isinstance and issubclass calls that name a class imported from
    typing, as line N: name.  typing's aliases send every such check
    through typing's own __instancecheck__; collections.abc has the same
    classes without that detour."""
    tree = ast.parse(source)
    aliases: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            aliases.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "typing")
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            continue
        classes = node.args[1]
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            if isinstance(cls, ast.Name) and cls.id in aliases:
                found.append((node.lineno, cls.id))
            elif (isinstance(cls, ast.Attribute) and isinstance(cls.value, ast.Name)
                  and cls.value.id in modules):
                found.append((node.lineno, f"{cls.value.id}.{cls.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_an_isinstance_check_on_a_typing_class():
    source = (
        "import typing\n"
        "import typing as t\n"
        "from typing import Any, Mapping as M, Sequence\n"
        "from collections.abc import Iterable\n"
        "def f(x: Sequence[int]) -> Any:\n"
        "    a = isinstance(x, M)\n"
        "    b = issubclass(type(x), (int, Sequence))\n"
        "    c = isinstance(x, typing.Sized) or isinstance(x, t.Hashable)\n"
        "    return isinstance(x, (Iterable, str)) and isinstance(x, Any.__class__)\n"
    )
    assert typing_class_checks(source) == [
        "line 6: M", "line 7: Sequence", "line 8: t.Hashable", "line 8: typing.Sized",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_isinstance_check_names_a_typing_class(path):
    assert typing_class_checks(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports, relative imports
    excluded."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_detects_an_imported_module():
    source = "import a.b\nfrom c.d import e\nfrom . import f\nfrom .g import h\n"
    assert imported_modules(source) == {"a", "c"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # diffed against the modules loaded before the import: site may load
    # some of them on its own
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import pmplab.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    added = set(json.loads(proc.stdout))
    assert "pmplab.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_all_lists_no_submodule():
    assert pmplab.__all__ == sorted(set(pmplab.__all__))
    assert not [name for name in pmplab.__all__ if isinstance(getattr(pmplab, name), ModuleType)]
    for module in ("action", "algebra", "audit", "constructions", "errors", "limits",
                   "modeltheory", "record", "simplex"):
        assert module not in pmplab.__all__
    namespace: dict = {}
    exec("from pmplab import *", namespace)
    assert not [v for v in namespace.values() if isinstance(v, ModuleType)]
    assert {"MeasuredAlgebra", "search_C2_witness", "ValidationError"} <= set(namespace)
