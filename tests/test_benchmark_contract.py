"""The benchmark's traced functions must exist in the package, and the
ones whose rows it counts must keep their (w, ds, idx) parameter order.

perfbench/spans.py wraps each (module, name) in its TRACED list by
attribute lookup, so renaming or deleting one of those functions breaks
``perfbench/run.py --trace 1``. This test reads that list without changing
anything under perfbench/.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules while the module runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves(monkeypatch):
    traced = load_spans(monkeypatch).TRACED
    assert traced
    for module_name, func_name, _ in traced:
        module = importlib.import_module(f"noise_forge.{module_name}")
        func = getattr(module, func_name, None)
        if not callable(func):
            pytest.fail(f"perfbench traces noise_forge.{module_name}.{func_name}, which is missing")


def test_row_counted_functions_take_w_ds_idx_first(monkeypatch):
    # perfbench's _rows extractor reads idx as args[2] (or the "idx" keyword)
    # and the dataset as args[1]; a renamed or reordered parameter would make
    # model.*.rows misreport without any error.
    spans = load_spans(monkeypatch)
    counted = [(m, f) for m, f, extract in spans.TRACED if extract is spans._rows]
    assert counted
    for module_name, func_name in counted:
        func = getattr(importlib.import_module(f"noise_forge.{module_name}"), func_name)
        params = list(inspect.signature(func).parameters)[:3]
        assert params == ["w", "ds", "idx"], f"{module_name}.{func_name} takes {params}"
