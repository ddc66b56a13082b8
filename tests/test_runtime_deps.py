"""numpy is floqlab's only runtime dependency (pyproject.toml).

A fresh interpreter imports every floqlab module; the third-party top-level
modules this adds to what the interpreter loaded at startup must be numpy
alone, whatever else is installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import floqlab

IMPORT_ALL = """\
import importlib, json, pkgutil, sys
startup = {name.partition(".")[0] for name in sys.modules}
import floqlab
for module in pkgutil.iter_modules(floqlab.__path__, "floqlab."):
    importlib.import_module(module.name)
loaded = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(loaded - startup - set(sys.stdlib_module_names) - {"floqlab"})))
"""


def test_numpy_is_the_only_third_party_import():
    src = str(Path(floqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["numpy"]
