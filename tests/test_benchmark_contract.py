"""The benchmark's traced functions must exist in the package, the ones
whose rows it counts must keep their (w, ds, idx) parameter order, and each
workload's unit must run on the package as it is.

perfbench/spans.py wraps each (module, name) in its TRACED list by
attribute lookup, so renaming or deleting one of those functions breaks
``perfbench/run.py --trace 1``. perfbench/workloads.py calls the package
directly (fullscale-steps reaches into ``optim``), so a changed signature
or an in-place write to shared state breaks a benchmark run. These tests
load both files without changing anything under perfbench/.
"""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_spans(monkeypatch):
    return load_perfbench(monkeypatch, "spans")


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


def small_full_state(workloads):
    train, test = workloads.dataio.split_holdout(workloads._blobs(3, 3, 5, 30, 1.0), 0.2, 3)
    w0 = workloads.model.glorot_init(workloads.model.MlpSpec(5, (8, 8), 3, seed=3))
    return workloads._FullState(train, test, w0, 3)


def small_probe_state(workloads):
    data = workloads._blobs(4, 4, 16, 50, 0.9)
    w = workloads.model.glorot_init(workloads.model.MlpSpec(16, (128, 128), 4, seed=4))
    return workloads._ProbeState(data, w, 4)


def capped_desk_state(workloads):
    return replace(workloads._desk_setup(5), max_steps=60)


@pytest.mark.parametrize(
    "unit, setup, weights, checked",
    [
        ("_full_unit", small_full_state, "w0", True),
        ("_probe_unit", small_probe_state, "w", True),
        # 60 steps do not reach L**, so the desk unit's convergence checks fail by design
        ("_desk_unit", capped_desk_state, None, False),
    ],
    ids=["fullscale-steps", "probe-60k", "desk-sweep"],
)
def test_workload_unit_repeats_on_a_small_state(monkeypatch, unit, setup, weights, checked):
    workloads = load_perfbench(monkeypatch, "workloads")
    monkeypatch.setattr(workloads, "FULL_BATCH", 8)
    monkeypatch.setattr(workloads, "PROBE_BATCH", 10)
    monkeypatch.setattr(workloads, "PROBE_SAMPLES", 20)
    state = setup(workloads)
    before = None if weights is None else getattr(state, weights).values.copy()
    results = [getattr(workloads, unit)(state, 1) for _ in range(2)]
    assert results[0].fingerprint == results[1].fingerprint
    assert results[0].work > 0
    if checked:
        for result in results:
            assert all(ok for ok, _ in result.checks), result.checks
    if weights is not None:
        # every unit starts from the set-up's weights, so no unit may write them
        assert np.array_equal(getattr(state, weights).values, before)
