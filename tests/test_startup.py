"""What ``lpa`` loads at start-up.

Every ``lpa`` command is a fresh process, so the package's import is part
of each command's time.  The record classes are NamedTuples and slots
classes, so importing ``leavitt.cli`` loads neither ``dataclasses`` nor
the ``inspect`` and ``ast`` modules behind it.  pytest itself loads them,
so the import runs in a fresh interpreter, without ``site`` (which may
import anything a local install names).
"""

import json
import subprocess
import sys
from pathlib import Path

import leavitt

SRC = str(Path(leavitt.__file__).resolve().parent.parent)
HEAVY = ("dataclasses", "inspect", "ast")


def test_import_of_the_cli_loads_no_class_generation_machinery():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import leavitt.cli; "
        f"print(json.dumps([leavitt.cli.__file__, [m for m in {HEAVY!r} if m in sys.modules]]))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC], capture_output=True, text=True, check=True)
    cli_file, loaded = json.loads(out.stdout)
    assert Path(cli_file).resolve().is_relative_to(SRC)
    assert loaded == []
