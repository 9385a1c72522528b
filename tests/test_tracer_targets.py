"""Every function the benchmark tracer wraps must still exist.

``perfbench/tracer.py`` wraps functions of ``sgclab`` by name and raises
when one is gone, which breaks ``perfbench/run.py --trace 1``.  Deleting a
traced function therefore fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_targets_resolve():
    traced = _traced()
    assert traced
    for module, target, _ in traced:
        obj = importlib.import_module(f"sgclab.{module}")
        for attr in target.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"sgclab.{module}.{target} is traced but missing"
