"""The benchmark's traced functions must exist in the package.

perfbench/spans.py wraps each (module, name) in its TRACED list by
attribute lookup, so renaming or deleting one of those functions breaks
``perfbench/run.py --trace 1``. This test reads that list without changing
anything under perfbench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules while the module runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_resolves(monkeypatch):
    traced = load_traced(monkeypatch)
    assert traced
    for module_name, func_name, _ in traced:
        module = importlib.import_module(f"noise_forge.{module_name}")
        func = getattr(module, func_name, None)
        if not callable(func):
            pytest.fail(f"perfbench traces noise_forge.{module_name}.{func_name}, which is missing")
