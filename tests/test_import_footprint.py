"""The package's import footprint: the standard library, numpy, itself.

Importing the public API and the CLI must not pull in any other
third-party package (a graph library once came in this way, for a module
nothing called).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs in a fresh interpreter: what a bare start-up already loaded (site
#: hooks, for instance) is subtracted from what the imports add.
PROBE = """
import json, sys
before = {name.split(".")[0] for name in sys.modules}
import repro.api, repro.cli
after = {name.split(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before - set(sys.stdlib_module_names))))
"""


def test_api_and_cli_import_only_numpy_beyond_the_stdlib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    added = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert added <= {"numpy", "repro"}, sorted(added - {"numpy", "repro"})
