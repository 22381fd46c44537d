import os
import subprocess
import sys
import warnings
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests replay the same examples on every run, so Tier-1 stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("deterministic")

# When a @given test fails, the hypothesis plugin imports this module to report it;
# its libcst dependency warns on import, which filterwarnings = ["error"] would turn
# into an INTERNALERROR that hides the example and ends the session. Import it once
# here with that warning ignored; every other warning stays an error.
with suppress(ImportError), warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

MINIMAL_CONFIG = """\
[anchor]
position = 1.2 2.75

[eavesdropper]
position = 6.3 2.75

[experiment]
seed = 42
"""


@pytest.fixture
def minimal_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL_CONFIG)
    return path


def run_cli(args, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "obfusense.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr
