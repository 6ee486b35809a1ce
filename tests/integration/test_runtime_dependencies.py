"""The stack imports numpy and the standard library, nothing more.

``pyproject.toml`` declares numpy as the only runtime dependency.  A
fresh interpreter importing the package, the scenario layer and the
CLI must not pull in a package that the declaration leaves out.
"""

import os
import subprocess
import sys

import repro

UNDECLARED = ("networkx", "scipy")


def test_entry_points_import_no_undeclared_package():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys\n"
        "import repro, repro.scenario, repro.cli\n"
        f"print(sorted(m for m in {UNDECLARED!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
