"""The benchmark's span targets must exist in the package.

perfbench/tracing.py binds each per-layer metric to a group of package
attributes and reports the metric as null when none of them exists. This test
reads its target table as it stands and fails when a refactor leaves a group
with no target.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

CHECK = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
found = {}
for module, attr, _layer, group in tracing.TARGETS:
    owner = importlib.import_module("obfusense." + module)
    try:
        for part in attr.split("."):
            owner = getattr(owner, part)
        found[group] = True
    except AttributeError:
        found.setdefault(group, False)
print(json.dumps(found))
"""


def test_every_tracer_group_resolves_on_a_fresh_import():
    proc = subprocess.run([sys.executable, "-c", CHECK, str(TRACING)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    found = json.loads(proc.stdout)
    assert found, "perfbench/tracing.py lists no targets"
    assert [group for group, ok in found.items() if not ok] == []
