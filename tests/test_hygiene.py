"""Static checks over the package source."""

import ast
from pathlib import Path

import advforge

PACKAGE = Path(advforge.__file__).parent


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
