"""Every boundary the perfbench tracer wraps still exists in the library.

``perfbench/trace.py`` names its targets as strings; a renamed or deleted
function would otherwise surface only when the tracer is installed.  The
file is loaded as a module of its own, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_trace_targets", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return [(layer, target) for layer, target, *_ in trace.BOUNDARIES]


@pytest.mark.parametrize("layer,target", _boundaries())
def test_target_resolves(layer, target):
    home = importlib.import_module(f"leavitt.{layer}")
    if "." in target:
        cls_name, meth = target.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth)), target
    else:
        assert callable(getattr(home, target, None)), target
