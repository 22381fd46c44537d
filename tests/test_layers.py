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


def test_session_checks_are_called_only_in_plan():
    """experiments.plan is the one list of a session's checks: no study keeps its own copy of
    check_session or SchedulerParams (a method call such as check_update_rate is not counted)."""
    tree = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))

    def checks(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(call.func, "attr", getattr(call.func, "id", None))
                in ("check_session", "SchedulerParams")]

    plan = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "plan")
    assert checks(tree) == checks(plan) != []
