"""Every library name the benchmark's tracer wraps exists in the library.

perfbench/tracer.py replaces `module.attr` with a timing wrapper for each
entry of its SITES table; a name the library drops would fail only the
benchmark's traced runs.  This reads the table and touches nothing else
under perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


@pytest.mark.parametrize("module, attr, layer", _sites())
def test_traced_site_resolves(module, attr, layer):
    lib = importlib.import_module(f"rulecover.{module}")
    assert callable(getattr(lib, attr, None)), f"rulecover.{module}.{attr} ({layer})"
