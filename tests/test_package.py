"""The package namespace: each export is its defining module's object, loaded on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parkmodel

_FRESH_PACKAGE = """
import json, sys
import parkmodel
seen = {"loaded": sorted(m for m in sys.modules if m.startswith("parkmodel"))}
seen["dir"] = dir(parkmodel)
star = {}
exec("from parkmodel import *", star)
seen["star"] = sorted(set(star) - {"__builtins__"})
seen["same"] = [name for name in parkmodel.__all__ if star[name] is getattr(parkmodel, name)]
print(json.dumps(seen))
"""


def test_every_export_is_its_defining_modules_object():
    assert parkmodel.__all__[0] == "__version__"
    assert isinstance(parkmodel.__version__, str)
    for name in parkmodel.__all__[1:]:
        obj = getattr(parkmodel, name)
        assert obj.__module__.startswith("parkmodel."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_in_a_fresh_interpreter():
    """dir() lists the exports before any is loaded, and `import *` loads
    each one as the same object attribute access returns."""
    env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PACKAGE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["loaded"] == ["parkmodel"]
    assert set(parkmodel.__all__) <= set(seen["dir"])
    assert seen["star"] == sorted(parkmodel.__all__)
    assert seen["same"] == parkmodel.__all__


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        parkmodel.no_such_export
    # Private helpers of the submodules are not exports.
    with pytest.raises(AttributeError, match="'_park_car'"):
        parkmodel._park_car
    with pytest.raises(ImportError, match="no_such_export"):
        from parkmodel import no_such_export  # noqa: F401
