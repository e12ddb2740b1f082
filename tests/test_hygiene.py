"""Static checks over the package source."""

import ast
from dataclasses import fields
from pathlib import Path

import advforge
from advforge import cli

PACKAGE = Path(advforge.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
CALLER_DIRS = PROGRAM_DIRS + ("tests",)


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``__future__`` is skipped."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_checker_sees_them():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "os.path.join\n@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["field", "np"]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_imports(path.read_text())]
    assert unused == []


def module_definitions(source: str) -> list:
    """Names a module defines at its top level: functions, classes and
    plain or annotated assignments."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
    return names


def class_members(source: str) -> list:
    """``Class.name`` for each method or property that a module's
    top-level classes define; dunder methods are left out."""
    members = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            members += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))]
    return members


def referenced_names(source: str) -> set:
    """Every name a source reads, as a bare name, an attribute or an
    imported name; a definition alone is no reference."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def dead_names(modules: dict, callers, definitions=module_definitions
               ) -> list:
    """``module.name`` for each name that ``definitions`` finds in
    ``modules`` (stem -> source) and no source in ``callers`` references;
    a ``Class.name`` is referenced by its last part."""
    used = set().union(*map(referenced_names, callers))
    return [f"{stem}.{name}" for stem, source in sorted(modules.items())
            for name in definitions(source)
            if name.rsplit(".", 1)[-1] not in used]


def test_dead_names_checker_sees_them():
    module = ("class Unused(Exception): pass\nclass Used: pass\n"
              "LIMIT: int = 3\nSTALE = 1\n"
              "def helper():\n    STALE = 2\n    return LIMIT\n")
    assert dead_names({"m": module}, [module, "from m import Used, helper\n"]
                      ) == ["m.Unused", "m.STALE"]


def test_class_members_checker_sees_them():
    module = ("class A:\n    def __len__(self): return 0\n"
              "    @property\n    def stale(self): return 1\n"
              "    def used(self): return self._helper()\n"
              "    def _helper(self): return 2\n")
    assert class_members(module) == ["A.stale", "A.used", "A._helper"]
    assert dead_names({"m": module}, [module, "A().used()\n"],
                      class_members) == ["m.A.stale"]


def package_dead_names(caller_dirs, definitions=module_definitions) -> list:
    modules = {path.stem: path.read_text()
               for path in PACKAGE.glob("*.py")}
    callers = [path.read_text() for folder in caller_dirs
               for path in (ROOT / folder).rglob("*.py")]
    return dead_names(modules, callers, definitions)


def test_every_module_level_name_has_a_caller():
    assert package_dead_names(CALLER_DIRS) == []


def test_every_method_and_property_has_a_caller():
    assert package_dead_names(CALLER_DIRS, class_members) == []


def test_names_only_tests_reach_are_frozen():
    """The list of names that only tests reach is closed at empty: with
    the test above, every name has a caller in program code."""
    dead = package_dead_names(CALLER_DIRS)
    assert [name for name in package_dead_names(PROGRAM_DIRS)
            if name not in dead] == []


def test_every_config_key_is_documented():
    """Each field of ``cli.GlobalConfig`` and of its sections is named in
    README.md, as ``"key"`` or as ``section.key``."""
    readme = (ROOT / "README.md").read_text()
    keys = [("", f.name) for f in fields(cli.GlobalConfig)]
    keys += [(section, f.name) for section, cls in cli._SECTIONS.items()
             for f in fields(cls)]
    assert [f"{section}.{key}".lstrip(".") for section, key in keys
            if f'"{key}"' not in readme
            and f"{section}.{key}" not in readme] == []
