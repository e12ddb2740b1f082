"""Static checks over the package source."""

import ast
from pathlib import Path

import advforge

PACKAGE = Path(advforge.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench", "tests")
PROGRAM_DIRS = ("src", "scripts", "perfbench")


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


def dead_names(modules: dict, callers) -> list:
    """``module.name`` for each top-level name of ``modules`` (stem ->
    source) that no source in ``callers`` references."""
    used = set().union(*map(referenced_names, callers))
    return [f"{stem}.{name}" for stem, source in sorted(modules.items())
            for name in module_definitions(source) if name not in used]


def test_dead_names_checker_sees_them():
    module = ("class Unused(Exception): pass\nclass Used: pass\n"
              "LIMIT: int = 3\nSTALE = 1\n"
              "def helper():\n    STALE = 2\n    return LIMIT\n")
    assert dead_names({"m": module}, [module, "from m import Used, helper\n"]
                      ) == ["m.Unused", "m.STALE"]


def package_dead_names(caller_dirs) -> list:
    modules = {path.stem: path.read_text()
               for path in PACKAGE.glob("*.py")}
    callers = [path.read_text() for folder in caller_dirs
               for path in (ROOT / folder).rglob("*.py")]
    return dead_names(modules, callers)


def test_every_module_level_name_has_a_caller():
    assert package_dead_names(CALLER_DIRS) == []


# Names that only tests reach.  The list may only shrink: a new name that
# only tests reach fails here, and so does a listed name that gains a
# program caller or goes.
TEST_ONLY_NAMES = [
    "analytics.detection_drops", "analytics.measure_transferability",
    "analytics.write_engine_drop_csv", "analytics.write_aggregate_drop_csv",
    "gbdt.grid_search", "selector.pick_best",
]


def test_names_only_tests_reach_are_frozen():
    assert package_dead_names(PROGRAM_DIRS) == TEST_ONLY_NAMES
