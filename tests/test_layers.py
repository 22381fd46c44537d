"""The package's import layers: channel, irs and sensing first, then experiments
and io, then cli. A module imports only from the layers below it."""
import ast
from pathlib import Path

import obfusense

SRC = Path(obfusense.__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
BASE = {"channel", "irs", "sensing"}


def package_imports(name: str) -> set:
    """The package modules that src/obfusense/<name>.py imports relatively."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
    return found & MODULES


def test_modules_import_only_lower_layers():
    imports = {name: package_imports(name) for name in MODULES}
    assert MODULES == BASE | {"experiments", "io", "cli"}
    for name in BASE:
        assert imports[name] == set(), name
    for name in ("experiments", "io"):
        assert imports[name] <= BASE, (name, imports[name])
    assert {name for name, deps in imports.items() if deps & {"experiments", "io"}} == {"cli"}
