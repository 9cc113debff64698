"""Module boundaries: no module of the package imports another's private name."""

import ast
from pathlib import Path

import onsetkit

SRC = Path(onsetkit.__file__).parent


def private_imports(source: str) -> list[str]:
    """'module.name' for every underscore name a from-import takes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (f"{node.module}." if node.module else "")
            found += [module + alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_imports_are_found():
    src = "from .models import Model, _time_blocks\nfrom . import _x\nfrom __future__ import annotations\n"
    assert private_imports(src) == [".models._time_blocks", "._x"]


def test_no_module_imports_another_modules_private_name():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {f.name: private_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}
