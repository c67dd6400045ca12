"""What ``lpa`` loads at start-up, and the package's lazy exports.

Every ``lpa`` command is a fresh process, so the package's import is part
of each command's time.  ``leavitt/__init__.py`` imports no submodule, and
each command imports only the modules it runs.  The record classes are
NamedTuples and slots classes, so the package loads neither
``dataclasses`` nor the ``inspect`` and ``ast`` modules behind it.  pytest
itself loads them, so each probe runs in a fresh interpreter, without
``site`` (which may import anything a local install names).
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt

SRC = str(Path(leavitt.__file__).resolve().parent.parent)
README = Path(SRC).parent / "README.md"
HEAVY = ("dataclasses", "inspect", "ast")
# The last line a probe prints: the exit status of its statements (None when
# they ran no command), the package's file, the leavitt modules loaded, and
# which of HEAVY were loaded.
REPORT = (
    "print(json.dumps([code, sys.modules['leavitt'].__file__, "
    "sorted(m for m in sys.modules if m.split('.')[0] == 'leavitt'), "
    f"[m for m in {HEAVY!r} if m in sys.modules]]))"
)


def _probe(statements: str, *argv: str) -> tuple[object, set[str]]:
    """Run ``statements`` in a fresh interpreter; its exit status and the leavitt modules it loaded."""
    code = f"import json, sys; sys.path.insert(0, sys.argv[1]); code = None; {statements}; {REPORT}"
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC, *argv], capture_output=True, text=True, check=True)
    status, package_file, loaded, heavy = json.loads(out.stdout.splitlines()[-1])
    assert Path(package_file).resolve().is_relative_to(SRC)
    assert heavy == []
    return status, set(loaded)


def _lpa(*argv: str) -> tuple[int, set[str]]:
    return _probe("from leavitt.cli import main; code = main(sys.argv[2:])", *argv)


@pytest.fixture
def a2_file(a2, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(a2.to_json_dict()))
    return str(path)


def test_import_of_the_cli_loads_no_class_generation_machinery():
    # the cli, and every module that one of its commands may import
    _, loaded = _probe(
        "import os, leavitt.cli; "  # not pkgutil.iter_modules, which loads inspect
        "[__import__(f'leavitt.{f[:-3]}') for f in os.listdir(leavitt.__path__[0]) if f.endswith('.py') and f[0] != '_']"
    )
    assert {"leavitt.cli", "leavitt.verify", "leavitt.textform"} <= loaded


def test_validate_loads_only_cli_graphs_and_records(a2_file):
    code, loaded = _lpa("validate", a2_file, "--json")
    assert code == 0
    assert loaded == {"leavitt", "leavitt.cli", "leavitt.graphs", "leavitt.records"}


def test_graded_classification_loads_neither_verify_nor_textform(a2_file):
    code, loaded = _lpa("classify", "--graded", a2_file, "--json")
    assert code == 0 and "leavitt.classify" in loaded
    assert not loaded & {"leavitt.verify", "leavitt.textform"}


def test_graded_classification_loads_no_module_or_groupoid_code(a2_file):
    # classify imports orbit_size and the module specs where they are used
    code, loaded = _lpa("classify", "--graded", a2_file, "--json")
    assert code == 0
    assert not loaded & {"leavitt.reps", "leavitt.groupoid", "leavitt.algebra", "leavitt.linalg"}


@pytest.mark.parametrize("argv", [["classify", "--simple"], ["dims"]], ids=["classify", "dims"])
def test_simple_classification_loads_no_module_code(a2_file, argv):
    # the moduli are enumerated or sampled, and no quotient field is built
    code, loaded = _lpa(*argv, a2_file, "--json")
    assert code == 0 and "leavitt.classify" in loaded
    assert not loaded & {"leavitt.reps", "leavitt.verify", "leavitt.textform"}


def test_a_bad_base_path_fails_before_verify_loads(a2_file):
    code, loaded = _lpa("verify", "triv-iso", "--at", "nowhere", a2_file)
    assert code == 2 and "leavitt.textform" in loaded
    assert "leavitt.verify" not in loaded


def test_fields_loads_only_records():
    _, loaded = _probe("import leavitt.fields")
    assert loaded == {"leavitt", "leavitt.fields", "leavitt.records"}


# ---------------------------------------------------------------------------
# Lazy exports


def test_every_export_is_its_home_modules_object_and_is_not_cached():
    for name, module in leavitt._EXPORTS.items():
        namespace = {}
        exec(f"from leavitt import {name}", namespace)
        assert namespace[name] is vars(importlib.import_module(f"leavitt.{module}"))[name], name
        # the tracer patches what the package namespace holds; a cached copy would escape it
        assert name not in vars(leavitt), name


def test_dir_lists_every_export():
    assert set(leavitt._EXPORTS) <= set(dir(leavitt))
    assert leavitt.__all__ == list(leavitt._EXPORTS)


def test_an_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        leavitt.no_such_name
    with pytest.raises(ImportError):
        exec("from leavitt import no_such_name", {})


def test_the_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example") :]
    start = section.index("```python\n") + len("```python\n")
    example = section[start : section.index("```", start)]
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
