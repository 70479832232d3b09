"""Every name the benchmark's tracer wraps still exists in substoe.

perfbench/tracing.py patches library functions and methods by name; a
refactor that drops or renames one should fail here rather than when a
traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span, module_name, path", _targets())
def test_traced_name_exists(span, module_name, path):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), span
    else:
        assert callable(getattr(owner, path, None)), span
