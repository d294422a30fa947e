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

import numpy as np
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


@pytest.mark.parametrize("alpha", [1.0, 1.5], ids=["pairwise-1.0", "pairwise-1.5"])
def test_traced_steps_use_every_gradient_they_compute(monkeypatch, alpha):
    # perfbench's optim.useful_grad_frac divides by the loss_and_grad calls
    # it finds under each training_step; a step that computes its direction
    # any other way leaves it nothing to divide by.
    from noise_forge import dataio, model, optim

    spans = load_spans(monkeypatch)
    centers = np.random.default_rng(0).standard_normal((3, 4))
    ds = dataio.make_synthetic(dataio.SyntheticSpec(centers, 10, 0.5, 0))
    w = model.glorot_init(model.MlpSpec(4, (6,), 3, seed=1))
    config = optim.NEConfig(alpha=alpha, batch_size=5)
    state = optim.OptimizerState(learning_rate=1e-2)
    streams = optim.BatchStreams.from_seed(ds.n_samples, 5, 2)
    twin = optim.BatchStreams.from_seed(ds.n_samples, 5, 2)
    want_rows = []
    for _ in range(3):
        primary, enhancement = optim.sample_minibatch_pair(twin)
        want_rows.append(len(primary if alpha == 1.0 else np.union1d(primary, enhancement)))
    tracer = spans.Tracer()
    with tracer:
        for _ in range(3):
            w, _ = optim.training_step(w, ds, config, state, streams)
    use = spans.grad_use(tracer.spans)
    assert list(use) == [alpha]
    useful, computed = use[alpha]
    assert useful == computed >= 1
    # model.loss_and_grad.rows: one pass per step over B, or over B ∪ B'
    rows = [s.attrs["rows"] for s in tracer.spans if s.name == "model.loss_and_grad"]
    assert rows == want_rows
    if alpha != 1.0:
        assert min(want_rows) < 10  # the pairs share rows
