import ctypes
import json
import math
import os
import pickle
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

import noise_forge.harness as harness
from noise_forge.dataio import SyntheticSpec, make_synthetic
from noise_forge.model import MlpSpec
from noise_forge.optim import DivergenceError, NEConfig, StepLog
from noise_forge.harness import (
    STATUS_CONVERGED,
    STATUS_DID_NOT_CONVERGE,
    STATUS_DIVERGED,
    AggregateResult,
    ProbePlan,
    RunRecord,
    SweepPlan,
    TrainConfig,
    config_hash,
    sweep_alpha,
    train_run,
)
from noise_forge.noiselab import ProbeRow
from noise_forge.report import (
    ResultsUnit,
    aggregate_row,
    alpha_flags,
    render_comparison,
    tradeoff_rows,
    write_results,
    write_tradeoff_csv,
)


def blob_dataset(seed=0, n_per_class=8, classes=2, dim=3, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(classes, dim))
    return make_synthetic(SyntheticSpec(centers, n_per_class, noise, seed))


def small_config(**overrides):
    train = blob_dataset(seed=1)
    test = blob_dataset(seed=2, n_per_class=4)
    defaults = dict(
        model=MlpSpec(3, (4,), 2, seed=0),
        ne=NEConfig(alpha=1.0, batch_size=4, base="sgd"),
        train_data=train,
        test_data=test,
        learning_rate=0.1,
        l_star=0.01,
        l_star_star=0.001,
        eval_interval=100,
        max_steps=1000,
        seeds=(0,),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def scripted_losses(monkeypatch, losses):
    """Make full-train-loss evaluations return a fixed sequence."""
    queue = iter(losses)
    monkeypatch.setattr(harness, "mean_loss", lambda w, ds, chunk_size=4096: next(queue))


def scripted_steps(monkeypatch, fail_at=None):
    """Replace the optimizer step with a no-op that advances the counter."""
    def fake_step(w, ds, cfg, state, streams, log=False):
        if fail_at is not None and state.step_count + 1 >= fail_at:
            raise DivergenceError("scripted failure")
        lr = state.learning_rate
        state.step_count += 1
        return w, StepLog(state.step_count, 0, 0.5, 1.0, None, 1.0, lr)

    monkeypatch.setattr(harness, "training_step", fake_step)


class TestConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="l_star"):
            small_config(l_star=0.001, l_star_star=0.01)

    def test_batch_cannot_exceed_dataset(self):
        with pytest.raises(ValueError, match="batch"):
            small_config(ne=NEConfig(alpha=1.0, batch_size=100))

    def test_model_must_match_data(self):
        with pytest.raises(ValueError, match="input_dim"):
            small_config(model=MlpSpec(7, (4,), 2, seed=0))
        with pytest.raises(ValueError, match="classes"):
            small_config(model=MlpSpec(3, (4,), 5, seed=0))
        # a wider test set would be scored with its extra-class rows all wrong
        with pytest.raises(ValueError, match="num_classes does not match test data"):
            small_config(test_data=blob_dataset(seed=2, n_per_class=4, classes=3))

    def test_test_data_must_match_the_training_width(self):
        with pytest.raises(ValueError, match="^train/test input_dim mismatch$"):
            small_config(test_data=blob_dataset(seed=2, n_per_class=4, dim=5))

    def test_max_steps_default_is_two_hundred_epochs(self):
        cfg = small_config(max_steps=None)
        # N = 16, B = 4: 4 steps per epoch
        assert cfg.resolved_max_steps() == 800
        assert small_config(max_steps=123).resolved_max_steps() == 123

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            small_config(eval_interval=0)
        with pytest.raises(ValueError):
            small_config(max_steps=0)
        with pytest.raises(ValueError):
            small_config(seeds=())

    def test_non_integer_seeds_rejected(self):
        # named_stream would truncate 1.5 and rerun seed 1's streams as a second seed
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got 1\.5$"):
            small_config(seeds=(1, 1.5))
        assert small_config(seeds=(np.int64(1), 2)).seeds == (1, 2)

    def test_numpy_integer_batch_is_stored_as_an_int(self):
        # an np.int64 B used to pass every check and then break config_hash's JSON
        cfg = small_config(ne=NEConfig(alpha=1.0, batch_size=np.int64(4), base="sgd"))
        assert type(cfg.ne.batch_size) is int
        assert config_hash(cfg) == config_hash(small_config())

    def test_numpy_integer_counts_are_hashed_as_ints(self):
        # an np.int64 eval_interval or max_steps used to pass every check and run,
        # then break config_hash's JSON
        cfg = small_config(eval_interval=np.int64(100), max_steps=np.int64(1000))
        assert config_hash(cfg) == config_hash(small_config())

    # a truthy "no" used to log every step
    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_log_steps_takes_only_a_bool(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'log_steps must be a bool, got {value!r}')}$"):
            small_config(log_steps=value)

    def test_numpy_bool_log_steps_is_stored_as_a_bool(self):
        assert small_config(log_steps=np.True_).log_steps is True
        assert small_config(log_steps=np.False_).log_steps is False

    def test_negative_seeds_rejected(self):
        # named_stream would reject them only once a run starts
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
            small_config(seeds=(0, -1))


class TestConfigHash:
    def test_stable_across_equal_configs(self):
        assert config_hash(small_config()) == config_hash(small_config())

    def test_sensitive_to_run_settings(self):
        base = config_hash(small_config())
        changed = config_hash(small_config(ne=NEConfig(alpha=2.0, batch_size=4)))
        assert base != changed

    def test_seeds_excluded(self):
        a = config_hash(small_config(seeds=(0, 1)))
        b = config_hash(small_config(seeds=(5,)))
        assert a == b

    def test_shape(self):
        h = config_hash(small_config())
        assert len(h) == 12
        int(h, 16)

    def test_digest_is_pinned(self):
        # runs.csv rows are keyed by this digest; a change to the hashed
        # payload (dropping "mode", say) would re-key every results directory
        assert config_hash(small_config()) == "6584d0b7c7dc"


# Each number in config_hash's payload: a config holding a given value of it,
# its plain value, and whether its rule takes a real number (else an integer).
HASHED_NUMBERS = {
    "alpha": (lambda v: small_config(ne=NEConfig(alpha=v, batch_size=4, base="sgd")), 2.0, True),
    "batch_size": (lambda v: small_config(ne=NEConfig(batch_size=v, base="sgd")), 4, False),
    "learning_rate": (lambda v: small_config(learning_rate=v), 1.0, True),
    "l_star": (lambda v: small_config(l_star=v), 1.0, True),
    "l_star_star": (lambda v: small_config(l_star=2.0, l_star_star=v), 1.0, True),
    "eval_interval": (lambda v: small_config(eval_interval=v), 100, False),
    "max_steps": (lambda v: small_config(max_steps=v), 1000, False),
}
SPELLINGS = {"int": int, "np.int64": np.int64, "np.float32": np.float32, "np.float64": np.float64}


class TestHashIgnoresNumberTypes:
    """config_hash depends on the run, not on how its numbers were typed: an
    int or numpy alpha used to hash apart from 2.0, and an np.float32 one to
    raise in write_results after the run."""

    @pytest.mark.parametrize(
        "name, spelling",
        [
            pytest.param(name, spelling, id=f"{name}-{spelling}")
            for name, (_, _, real) in HASHED_NUMBERS.items()
            for spelling in (SPELLINGS if real else ["np.int64"])
        ],
    )
    def test_every_spelling_gives_the_plain_digest(self, name, spelling):
        build, plain, _ = HASHED_NUMBERS[name]
        assert config_hash(build(SPELLINGS[spelling](plain))) == config_hash(build(plain))

    def test_payload_holds_only_json_native_values(self):
        # a numpy spelling of every number: a field added without a storing rule fails here
        cfg = small_config(
            ne=NEConfig(alpha=np.float32(2), batch_size=np.int64(4), base="sgd"),
            learning_rate=np.float32(0.5),
            l_star=np.float64(0.5),
            l_star_star=np.float32(0.25),
            eval_interval=np.int64(100),
            max_steps=np.int64(1000),
        )
        with mock.patch.object(harness.json, "dumps", wraps=json.dumps) as dumps:
            config_hash(cfg)
        payload = dumps.call_args.args[0]
        assert set(HASHED_NUMBERS) <= set(payload)
        for key, value in payload.items():
            items = value if isinstance(value, list) else [value]
            assert all(type(v) in (int, float, str, type(None)) for v in items), (key, value)


class TestProtocol:
    def test_scripted_run_follows_the_schedule(self, monkeypatch):
        # evals at steps 0, 100, 200, 300: halve once at 100, converge at 300
        scripted_losses(monkeypatch, [0.5, 0.009, 0.005, 0.0009])
        scripted_steps(monkeypatch)
        record = train_run(small_config(), seed=0)
        assert record.status == STATUS_CONVERGED
        assert record.lr_halved_at == 100
        assert record.convergence_steps == 300
        assert record.steps_taken == 300
        assert record.final_train_loss == 0.0009
        assert math.isfinite(record.test_accuracy)

    def test_learning_rate_halves_exactly_once(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, 0.009, 0.005, 0.002, 0.0009])
        scripted_steps(monkeypatch)
        record = train_run(small_config(log_steps=True), seed=0)
        lrs = [l.lr for l in record.steps]
        assert record.lr_halved_at == 100
        assert set(lrs) == {0.1, 0.05}
        assert lrs[:100] == [0.1] * 100
        assert lrs[100:] == [0.05] * 300

    def test_convergence_at_step_zero(self, monkeypatch):
        scripted_losses(monkeypatch, [0.0005])
        scripted_steps(monkeypatch)
        record = train_run(small_config(), seed=0)
        assert record.status == STATUS_CONVERGED
        assert record.convergence_steps == 0
        assert record.steps_taken == 0
        assert record.lr_halved_at is None

    def test_halving_can_fire_at_the_first_evaluation(self, monkeypatch):
        scripted_losses(monkeypatch, [0.6, 0.0005])
        scripted_steps(monkeypatch)
        record = train_run(small_config(l_star=2.0), seed=0)
        assert record.lr_halved_at == 0
        assert record.convergence_steps == 100

    def test_run_that_never_converges_keeps_accuracy(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, 0.5])
        scripted_steps(monkeypatch)
        record = train_run(small_config(max_steps=150), seed=0)
        assert record.status == STATUS_DID_NOT_CONVERGE
        assert record.steps_taken == 150
        assert record.convergence_steps is None
        assert math.isfinite(record.test_accuracy)

    def test_non_finite_loss_marks_divergence(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, float("nan")])
        scripted_steps(monkeypatch)
        record = train_run(small_config(), seed=0)
        assert record.status == STATUS_DIVERGED
        assert math.isnan(record.test_accuracy)
        assert record.steps_taken == 100

    def test_step_failure_marks_divergence(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5])
        scripted_steps(monkeypatch, fail_at=5)
        record = train_run(small_config(), seed=0)
        assert record.status == STATUS_DIVERGED
        assert record.steps_taken == 4
        assert math.isnan(record.test_accuracy)

    def test_real_divergence_raises_no_numpy_warning(self):
        # a learning rate this large overflows the weights within a few steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = train_run(small_config(learning_rate=1e300, eval_interval=1), seed=0)
        assert record.status == STATUS_DIVERGED
        assert math.isnan(record.test_accuracy)

    def test_step_log_holds_every_step(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, 0.0005])
        scripted_steps(monkeypatch)
        record = train_run(small_config(log_steps=True), seed=0)
        logs = record.steps
        assert len(logs) == record.steps_taken == 100
        assert [l.step for l in logs] == list(range(1, 101))

    def test_real_run_is_deterministic(self):
        cfg = small_config(max_steps=60, eval_interval=20)
        a = train_run(cfg, seed=3)
        b = train_run(cfg, seed=3)
        assert a == b  # wall time is excluded from comparison
        assert a.status in (STATUS_CONVERGED, STATUS_DID_NOT_CONVERGE, STATUS_DIVERGED)
        assert a.steps_taken <= 60

    def test_record_equality_ignores_wall_time(self):
        a = RunRecord(0, STATUS_CONVERGED, 0.9, 50, 0.0005, 100, wall_time_s=1.0)
        b = RunRecord(0, STATUS_CONVERGED, 0.9, 50, 0.0005, 100, wall_time_s=9.9)
        assert a == b

    def test_record_rejects_convergence_steps(self):
        # derived from status and steps_taken, so it cannot disagree with them
        with pytest.raises(TypeError, match="convergence_steps"):
            RunRecord(
                seed=0, status=STATUS_CONVERGED, test_accuracy=0.9, convergence_steps=7,
                lr_halved_at=None, final_train_loss=0.0005, steps_taken=100,
            )

    @pytest.mark.parametrize(
        "overrides, status",
        [
            ({"l_star": 0.5, "l_star_star": 0.4, "eval_interval": 10}, STATUS_CONVERGED),
            ({"max_steps": 30, "eval_interval": 10}, STATUS_DID_NOT_CONVERGE),
            ({"learning_rate": 1e300}, STATUS_DIVERGED),
        ],
        ids=["converged", "max-steps", "diverged"],
    )
    def test_convergence_steps_are_the_steps_of_a_converged_run(self, overrides, status):
        record = train_run(small_config(**overrides), seed=0)
        assert record.status == status
        assert record.steps_taken > 0
        expected = record.steps_taken if status == STATUS_CONVERGED else None
        assert record.convergence_steps == expected


class TestProbePlan:
    def test_explicit_steps_and_interval(self):
        plan = ProbePlan(steps=(0, 7), interval=25)
        assert plan.should_probe(0)
        assert plan.should_probe(7)
        assert plan.should_probe(25)
        assert plan.should_probe(50)
        assert not plan.should_probe(13)

    def test_zero_interval_only_uses_explicit_steps(self):
        plan = ProbePlan(steps=(3,), interval=0)
        assert plan.should_probe(3)
        assert not plan.should_probe(0)

    def test_a_plan_without_checkpoints_is_rejected(self):
        message = "^the probe plan names no checkpoint: give probe.steps or a probe.interval > 0$"
        with pytest.raises(ValueError, match=message):
            ProbePlan(steps=(), interval=0)
        assert ProbePlan(steps=(), interval=25).should_probe(50)

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_too_few_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match=rf"^probe\.n_samples must be an integer >= 2, got {n_samples}$"):
            ProbePlan(n_samples=n_samples)
        assert ProbePlan(n_samples=2).n_samples == 2

    def test_probe_run_emits_rows_at_planned_steps(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, 0.5, 0.5])
        scripted_steps(monkeypatch)
        cfg = small_config(max_steps=50, eval_interval=25)
        record = train_run(replace(cfg, probe=ProbePlan(steps=(0,), interval=25, n_samples=10)), seed=0)
        rows = record.probes
        assert record.status == STATUS_DID_NOT_CONVERGE
        assert [r.step for r in rows] == [0, 25, 50]
        assert all(math.isfinite(r.trace_cov) for r in rows)


def rec(seed=0, status=STATUS_CONVERGED, acc=0.9, conv=100):
    return RunRecord(
        seed=seed,
        status=status,
        test_accuracy=acc,
        lr_halved_at=None,
        final_train_loss=0.0005,
        steps_taken=conv or 0,
        wall_time_s=0.0,
    )


class TestAggregate:
    def test_hand_statistics(self):
        agg = AggregateResult([rec(0, acc=0.9, conv=100), rec(1, acc=0.8, conv=200)])
        assert agg.mean_accuracy == pytest.approx(0.85)
        assert agg.std_accuracy == pytest.approx(0.05)  # ddof=0
        assert agg.mean_convergence == pytest.approx(150.0)
        assert agg.std_convergence == pytest.approx(50.0)
        assert agg.n_converged == 2
        assert not all(r.status == STATUS_DIVERGED for r in agg.records)

    def test_single_run_has_zero_spread(self):
        agg = AggregateResult([rec(0)])
        assert agg.std_accuracy == 0.0
        assert agg.std_convergence == 0.0

    def test_statuses_partition_the_runs(self):
        agg = AggregateResult(
            [
                rec(0, acc=0.9, conv=100),
                rec(1, status=STATUS_DID_NOT_CONVERGE, acc=0.7),
                rec(2, status=STATUS_DIVERGED, acc=float("nan")),
            ]
        )
        # diverged runs are excluded from accuracy, kept in the counts
        assert agg.mean_accuracy == pytest.approx(0.8)
        assert agg.mean_convergence == pytest.approx(100.0)
        assert agg.n_converged == 1
        assert sum(r.status == STATUS_DID_NOT_CONVERGE for r in agg.records) == 1
        assert sum(r.status == STATUS_DIVERGED for r in agg.records) == 1
        assert not all(r.status == STATUS_DIVERGED for r in agg.records)

    def test_all_diverged_is_flagged(self):
        agg = AggregateResult([rec(0, status=STATUS_DIVERGED, acc=float("nan"))])
        assert all(r.status == STATUS_DIVERGED for r in agg.records)
        assert math.isnan(agg.mean_accuracy)
        assert math.isnan(agg.mean_convergence)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AggregateResult([])

    def test_all_diverged_summaries_compare_equal(self):
        # the statistics are NaN; they are derived, not stored, so equality holds
        recs = [rec(0, status=STATUS_DIVERGED, acc=float("nan")), rec(1, status=STATUS_DIVERGED, acc=float("nan"))]
        assert AggregateResult(recs) == AggregateResult(recs)


class TestRepeatRuns:
    def test_records_follow_seed_order(self, monkeypatch):
        monkeypatch.setattr(
            harness, "train_run", lambda cfg, seed: rec(seed)
        )
        (agg,) = SweepPlan(small_config(seeds=(5, 1, 3))).run().cells
        assert [r.seed for r in agg.records] == [5, 1, 3]

    def test_defaults_to_config_seeds(self, monkeypatch):
        monkeypatch.setattr(
            harness, "train_run", lambda cfg, seed: rec(seed)
        )
        (agg,) = SweepPlan(small_config(seeds=(2, 4))).run().cells
        assert [r.seed for r in agg.records] == [2, 4]

    def test_empty_seed_list_rejected(self):
        # a plan runs cfg.seeds, which TrainConfig keeps non-empty
        with pytest.raises(ValueError, match="need at least one seed"):
            SweepPlan(small_config(seeds=())).run()

    def test_parallel_jobs_match_serial(self):
        cfg = small_config(max_steps=40, eval_interval=20, seeds=(0, 1))
        (serial,) = SweepPlan(cfg).run(jobs=1).cells
        (parallel,) = SweepPlan(cfg).run(jobs=2).cells
        assert serial.records == parallel.records
        for name in ("mean_accuracy", "std_accuracy", "mean_convergence", "std_convergence"):
            np.testing.assert_allclose(
                getattr(serial, name), getattr(parallel, name), equal_nan=True
            )


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None without a getter."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stub_pools(monkeypatch):
    """Replace the process pool with an in-process stub on an 8-CPU
    affinity; returns the list each pool's (max_workers, start method, BLAS
    threads) is appended to. The stub hands the initializer's configs to the
    workers' task function, checks that every task it maps pickles to under
    1 KB, and starts no process."""
    pools = []

    class StubPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            assert initializer is harness._init_worker
            threads, configs = initargs
            pools.append((max_workers, mp_context.get_start_method(), threads))
            monkeypatch.setattr(harness, "_worker_configs", configs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            assert all(len(pickle.dumps(item)) < 1024 for item in items)
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    return pools


def worker_view():
    """What a pool worker holds: its BLAS thread count and its configs' count."""
    return openblas_threads(), len(harness._worker_configs)


class TestWorkerPool:
    def test_workers_share_the_cpus_between_their_blas_threads(self, monkeypatch):
        # a real pool: the dispatcher's own arguments, observed from a worker
        if openblas_threads() is None:
            pytest.skip("numpy is not linked against an OpenBLAS with a thread getter")
        views = []

        class ObservedPool(ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context, **kwargs):
                super().__init__(max_workers, mp_context=mp_context, **kwargs)
                self.start_method = mp_context.get_start_method()

            def map(self, fn, items):
                views.append((self.start_method, self.submit(worker_view).result()))
                return super().map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", ObservedPool)
        cfg = small_config(max_steps=20, eval_interval=10, seeds=(0, 1))
        plan = SweepPlan(cfg, "alpha", [1.0, 2.0])
        assert len(plan.run(jobs=2).cells) == 2
        want = max(1, len(os.sched_getaffinity(0)) // 2)
        assert views == [("spawn", (want, 2))]
        assert harness._worker_configs == ()  # nothing is set in this process

    def test_one_pool_runs_every_cell_and_seed(self, monkeypatch):
        pools = stub_pools(monkeypatch)
        monkeypatch.setattr(
            harness, "train_run", lambda cfg, seed: rec(seed, acc=cfg.ne.alpha / 10)
        )
        cfg = small_config(train_data=blob_dataset(seed=1, n_per_class=100), seeds=(7, 3))
        assert len(pickle.dumps(cfg)) > 1024  # so the stub's task-size check can fail
        sweep = SweepPlan(cfg, "alpha", [1.0, 1.5, 2.0]).run(jobs=4)
        assert pools == [(4, "spawn", 2)]
        assert [[r.seed for r in cell.records] for cell in sweep.cells] == [[7, 3]] * 3
        assert [cell.mean_accuracy for cell in sweep.cells] == [0.1, 0.15, 0.2]

    @pytest.mark.parametrize(
        "jobs, n_seeds, workers", [(8, 5, 5), (2, 3, 2), (3, 1, None), (1, 4, None)]
    )
    def test_pool_starts_at_most_one_worker_per_seed(self, monkeypatch, jobs, n_seeds, workers):
        # a stub executor records what the plan's run asks for; no process starts
        pools = stub_pools(monkeypatch)
        monkeypatch.setattr(harness, "train_run", lambda cfg, seed: rec(seed))
        seeds = tuple(range(10, 10 + n_seeds))
        (agg,) = SweepPlan(small_config(seeds=seeds)).run(jobs=jobs).cells
        assert [r.seed for r in agg.records] == list(seeds)
        assert pools == ([] if workers is None else [(workers, "spawn", 8 // workers)])

    def test_pool_starts_with_step_logs_on(self, monkeypatch, tmp_path):
        # each seed's step log comes back on its record, and the parent writes it
        pools = stub_pools(monkeypatch)
        cfg = small_config(max_steps=40, eval_interval=20, seeds=(3, 5), log_steps=True)
        plan = SweepPlan(cfg).run(jobs=2)
        write_results(tmp_path, plan)
        (agg,) = plan.cells
        assert pools == [(2, "spawn", 4)]
        assert [r.seed for r in agg.records] == [3, 5]
        for seed in (3, 5):
            lines = (tmp_path / f"steps_seed{seed}.csv").read_text().splitlines()
            assert lines[0].startswith("step,epoch,minibatch_loss")
            assert len(lines) == 1 + 40

    def test_probe_rows_cross_a_real_pool_intact(self, tmp_path):
        # compared as probe.csv bytes, since a kurtosis can be NaN
        plan = ProbePlan(steps=(0,), interval=20, n_samples=10)
        cfg = replace(small_config(max_steps=40, eval_interval=20, seeds=(0, 1)), probe=plan)
        probe_csvs = []
        for jobs in (1, 2):
            records = SweepPlan(cfg).run(jobs=jobs).cells[0].records
            assert [len(r.probes) for r in records] == [3, 3]  # steps 0, 20 and 40
            for r in records:
                one = SweepPlan(replace(cfg, seeds=(r.seed,)), cells=(AggregateResult([r]),))
                write_results(tmp_path / f"jobs{jobs}_seed{r.seed}", one)
            probe_csvs.append([(tmp_path / f"jobs{jobs}_seed{s}" / "probe.csv").read_bytes() for s in (0, 1)])
        assert probe_csvs[0] == probe_csvs[1]
        assert probe_csvs[0][0] != probe_csvs[0][1]  # each seed keeps its own rows

    def test_parallel_runs_csv_is_byte_equal_to_serial(self, tmp_path):
        cfg = small_config(max_steps=40, eval_interval=20, seeds=(0, 1, 2))
        for jobs in (1, 2):
            write_results(tmp_path / str(jobs), SweepPlan(cfg).run(jobs=jobs))
        serial, parallel = ((tmp_path / j / "runs.csv").read_bytes() for j in ("1", "2"))
        assert serial == parallel


def fake_table_runner(table):
    """train_run stand-in returning scripted outcomes per (B, alpha, seed)."""

    def run(cfg, seed):
        acc, conv = table[(cfg.ne.batch_size, cfg.ne.alpha)]
        return rec(seed, acc=acc, conv=conv)

    return run


class TestSweeps:
    def test_batch_sweep_collects_cells_in_grid_order(self, monkeypatch, tmp_path):
        table = {(4, 1.0): (0.80, 100), (8, 1.0): (0.90, 200), (16, 1.0): (0.90, 400)}
        monkeypatch.setattr(harness, "train_run", fake_table_runner(table))
        cfg = small_config(seeds=(0, 1))
        sweep = SweepPlan(cfg, "batch_size", [4, 8, 16]).run()
        assert (sweep.axis, sweep.column, sweep.fixed_value) == ("batch_size", "B", 1.0)
        assert sweep.values == (4.0, 8.0, 16.0)
        assert [c.mean_accuracy for c in sweep.cells] == [0.80, 0.90, 0.90]
        # tie on accuracy goes to the smaller grid value
        assert write_results(tmp_path, sweep) == 8

    def test_alpha_sweep_fixes_batch(self, monkeypatch, tmp_path):
        table = {(16, 1.0): (0.85, 100), (16, 1.5): (0.87, 150), (16, 2.0): (0.86, 250)}
        monkeypatch.setattr(harness, "train_run", fake_table_runner(table))
        sweep = sweep_alpha(small_config(), [1.0, 1.5, 2.0], b_fixed=16)
        assert (sweep.axis, sweep.column, sweep.fixed_value) == ("alpha", "alpha", 16.0)
        assert write_results(tmp_path, sweep) == 1.5
        points = (tmp_path / "scatter.csv").read_text().splitlines()
        assert points[1] == "increase-alpha,100.0,0.85"

    def test_best_value_skips_cells_without_accuracy(self, monkeypatch, tmp_path):
        table = {(16, 1.0): (float("nan"), 100), (16, 2.0): (0.7, 100)}
        monkeypatch.setattr(harness, "train_run", fake_table_runner(table))

        def diverged_or_ok(cfg, seed):
            acc, conv = table[(cfg.ne.batch_size, cfg.ne.alpha)]
            if math.isnan(acc):
                return rec(seed, status=STATUS_DIVERGED, acc=acc)
            return rec(seed, acc=acc, conv=conv)

        monkeypatch.setattr(harness, "train_run", diverged_or_ok)
        sweep = sweep_alpha(small_config(), [1.0, 2.0], b_fixed=16)
        assert write_results(tmp_path, sweep) == 2.0

    def test_bad_cell_stops_the_sweep_before_any_run(self, monkeypatch):
        runs = []

        def counted(cfg, seed):
            runs.append((cfg.ne.batch_size, cfg.ne.alpha, seed))
            return rec(seed)

        monkeypatch.setattr(harness, "train_run", counted)
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            sweep_alpha(small_config(), [1.0, 0.5], b_fixed=4)
        with pytest.raises(ValueError, match=r"batch_size must lie in \[1, n_samples\], got 100000"):
            SweepPlan(small_config(), "batch_size", [4, 100_000]).run()
        assert runs == []

    @pytest.mark.parametrize(
        "overrides, axis, message",
        [
            pytest.param({}, "learning_rate", "unknown plan axis 'learning_rate'", id="unknown-axis"),
            pytest.param({"log_steps": True}, "alpha", "a sweep cannot log steps or probe", id="log-steps"),
            pytest.param({"probe": ProbePlan()}, "batch_size", "a sweep cannot log steps or probe", id="probe"),
        ],
    )
    def test_plan_rejected_before_any_run(self, overrides, axis, message, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "train_run", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=message):
            SweepPlan(small_config(**overrides), axis, [1, 2]).run()
        assert runs == []

    def test_sweep_of_a_logging_config_writes_nothing(self, tmp_path):
        # both cells run seed 0, so each would write steps_seed0.csv over the other's
        cfg = small_config(log_steps=True, seeds=(0,), max_steps=5)
        with pytest.raises(ValueError, match="steps_seed<N>.csv"):
            write_results(tmp_path, sweep_alpha(cfg, [1.0, 2.0], b_fixed=4))
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_batch_grid_rejected(self):
        # the grid used to be cast with int, so [2.5, 4] ran B = 2
        with pytest.raises(ValueError, match=r"^batch_size must lie in \[1, n_samples\], got 2\.5 for n_samples = None$"):
            SweepPlan(small_config(), "batch_size", [2.5, 4])
        plan = SweepPlan(small_config(), "batch_size", [np.int64(4), 8])
        assert [type(cfg.ne.batch_size) for cfg in plan.configs] == [int, int]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "batch_size", []).run()
        with pytest.raises(ValueError):
            sweep_alpha(small_config(), [], b_fixed=4)


class TestPlanRules:
    """A plan is one base config and a grid along its axis; each bad plan
    raises before anything runs."""

    def test_unknown_axis_rejected(self):
        message = r"^unknown plan axis 'bogus': a plan is 'single' or sweeps batch_size or alpha$"
        with pytest.raises(ValueError, match=message):
            SweepPlan(small_config(), "bogus", [1.0])

    def test_single_plan_takes_no_grid(self):
        with pytest.raises(ValueError, match=r"^a single plan takes no grid, got \[1\.0, 2\.0\]$"):
            SweepPlan(small_config(), "single", [1.0, 2.0])
        assert SweepPlan(small_config()).grid == ()

    def test_sweep_holds_a_config(self):
        with pytest.raises(ValueError, match=r"^the alpha grid must be non-empty$"):
            SweepPlan(small_config(), "alpha")

    def test_sweep_configs_differ_along_the_axis(self):
        with pytest.raises(ValueError, match=r"^the batch_size grid must not repeat a value, got \[4, 8, 4\]$"):
            SweepPlan(small_config(), "batch_size", [4, 8, np.int64(4)])

    @pytest.mark.parametrize("overrides", [{"log_steps": True}, {"probe": ProbePlan()}], ids=["log-steps", "probe"])
    def test_sweep_configs_neither_log_nor_probe(self, overrides):
        with pytest.raises(ValueError, match="^a sweep cannot log steps or probe"):
            SweepPlan(small_config(**overrides), "alpha", [1.0, 2.0])

    @pytest.mark.parametrize("axis, grid", [("alpha", [2, 1.0, np.float32(1.5)]), ("batch_size", [np.int64(8), 4])])
    def test_cells_differ_from_the_base_only_along_the_axis(self, axis, grid, tmp_path):
        base = small_config(
            ne=NEConfig(alpha=1.5, batch_size=16, base="sgd"), learning_rate=0.5, seeds=(7, 2), eval_interval=5
        )
        plan = SweepPlan(base, axis, grid)
        assert plan.grid == tuple(getattr(c.ne, axis) for c in plan.configs)
        assert [type(v) for v in plan.grid] == [type(getattr(base.ne, axis))] * len(grid)
        assert plan.values == tuple(float(v) for v in grid)
        for cfg, value in zip(plan.configs, plan.grid):
            assert cfg.ne == replace(base.ne, **{axis: value})
            for f in fields(TrainConfig):
                if f.name in ("train_data", "test_data"):
                    assert getattr(cfg, f.name) is getattr(base, f.name)
                elif f.name != "ne":
                    assert getattr(cfg, f.name) == getattr(base, f.name)
        cells = tuple(AggregateResult([rec(s) for s in base.seeds]) for _ in grid)
        write_results(tmp_path, replace(plan, cells=cells))
        meta = json.loads((tmp_path / "sweep.json").read_text())
        other = "alpha" if axis == "batch_size" else "batch_size"
        assert meta["fixed_value"] == plan.fixed_value == float(getattr(base.ne, other))
        assert meta["values"] == list(plan.values)

    def test_cells_match_the_configs(self):
        cell = AggregateResult([rec(0)])
        with pytest.raises(ValueError, match=r"^a plan holds one cell per config: 1 configs, 2 cells$"):
            SweepPlan(small_config(), cells=(cell, cell))
        with pytest.raises(ValueError, match=r"^a plan holds one cell per config: 2 configs, 1 cells$"):
            SweepPlan(small_config(), "alpha", [1.0, 2.0], cells=(cell,))
        assert SweepPlan(small_config(), cells=(cell,)).cells == (cell,)

    def test_an_unrun_plan_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match=r"^the plan has not run: it holds no cells to write$"):
            write_results(tmp_path, SweepPlan(small_config()))
        assert list(tmp_path.iterdir()) == []


def sweep_from_cells(axis, values, cells, fixed=1.0):
    """The aggregate rows of a sweep along ``axis``. Built from the rows, not
    a SweepPlan, because TestComparison's B = 32 and 64 exceed
    small_config's 16 training rows."""
    if axis == "batch_size":
        return [aggregate_row(int(v), fixed, c) for v, c in zip(values, cells)]
    return [aggregate_row(int(fixed), v, c) for v, c in zip(values, cells)]


def cell(acc, conv, status=STATUS_CONVERGED):
    return AggregateResult([rec(0, status=status, acc=acc, conv=conv)])


def flags_of(values, cells):
    return alpha_flags(sweep_from_cells("alpha", values, cells))


class TestDirectionalFlags:
    def test_both_expectations_met(self):
        flags = flags_of([1.0, 1.5, 2.0], [cell(0.85, 100), cell(0.86, 120), cell(0.84, 150)])
        assert flags["accuracy-best-enhanced-not-worse"] is True
        assert flags["time-nondecreasing-in-alpha"] is True

    def test_accuracy_regression_detected(self):
        flags = flags_of([1.0, 2.0], [cell(0.90, 100), cell(0.85, 150)])
        assert flags["accuracy-best-enhanced-not-worse"] is False

    def test_time_regression_detected(self):
        flags = flags_of([1.0, 1.5, 2.0], [cell(0.85, 100), cell(0.86, 90), cell(0.87, 150)])
        assert flags["time-nondecreasing-in-alpha"] is False

    def test_missing_baseline_gives_none(self):
        flags = flags_of([1.5, 2.0], [cell(0.86, 120), cell(0.84, 150)])
        assert flags["accuracy-best-enhanced-not-worse"] is None

    def test_missing_times_give_none(self):
        no_conv = cell(0.8, None, status=STATUS_DID_NOT_CONVERGE)
        flags = flags_of([1.0, 2.0], [cell(0.85, 100), no_conv])
        assert flags["time-nondecreasing-in-alpha"] is None


class TestComparison:
    """Harness sweep results, compared by report.render_comparison."""

    def render(self):
        batch = sweep_from_cells(
            "batch_size", [32.0, 64.0], [cell(0.88, 300), cell(0.84, 150)], fixed=1.0
        )
        alpha = sweep_from_cells(
            "alpha", [1.0, 2.0], [cell(0.84, 150), cell(0.88, 280)], fixed=64.0
        )
        units = [
            ResultsUnit(axis, tuple(rows), {}, axis)
            for axis, rows in (("batch_size", batch), ("alpha", alpha))
        ]
        return render_comparison(*units)

    def test_best_cells_and_gap(self):
        text, _ = self.render()
        assert "- best reduced batch: B = 32 at alpha = 1:" in text
        assert "- best enhanced: alpha = 2 at B = 64 " in text
        assert "- accuracy gap (enhanced - reduced): +0.0000" in text

    def test_effective_batch_annotations(self):
        text, _ = self.render()
        assert "| 1 | 64.0 | 0.8400 +- 0.0000 | 150.0 +- 0.0 |" in text
        assert "| 2 | 12.8 | 0.8800 +- 0.0000 | 280.0 +- 0.0 |" in text

    def test_scatter_rows_carry_both_series(self):
        _, scatter = self.render()
        series = [row[0] for row in scatter]
        assert series == ["reduce-batch", "reduce-batch", "increase-alpha", "increase-alpha"]


def single(cfg, *records):
    """A single-config plan that has run, its one cell holding ``records``."""
    return SweepPlan(cfg, cells=(AggregateResult(records),))


class TestCsvWriters:
    def test_step_log_schema_and_blank_optional(self, tmp_path):
        record = replace(rec(0), steps=(StepLog(1, 0, 0.5, 1.25, None, 1.25, 0.001),))
        write_results(tmp_path, single(small_config(log_steps=True), record))
        lines = (tmp_path / "steps_seed0.csv").read_text().splitlines()
        assert lines[0] == "step,epoch,minibatch_loss,grad_norm_b,grad_norm_bprime,combined_norm,lr"
        assert lines[1] == "1,0,0.5,1.25,,1.25,0.001"

    def test_runs_schema(self, tmp_path):
        cfg = small_config(ne=NEConfig(alpha=1.5, batch_size=4))
        record = RunRecord(0, STATUS_CONVERGED, 0.875, 150, 0.0009, 300)
        write_results(tmp_path, single(cfg, record))
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert lines[0] == "config_hash,B,alpha,seed,test_accuracy,convergence_steps,lr_halved_at,status"
        assert lines[1] == f"{config_hash(cfg)},4,1.5,0,0.875,300,150,converged"

    def test_aggregate_schema(self, tmp_path):
        write_results(tmp_path, single(small_config(), rec(0, acc=0.9, conv=100)))
        lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "B,alpha,mean_acc,std_acc,mean_steps,std_steps,n_converged"
        assert lines[1] == "4,1.0,0.9,0.0,100.0,0.0,1"

    def test_cells_carry_their_own_configs(self, tmp_path):
        plan = SweepPlan(small_config(ne=NEConfig(batch_size=8, base="sgd")), "alpha", [1.0, 2.5])
        cells = [AggregateResult([rec(0, acc=0.75), rec(3, acc=0.5)]), AggregateResult([rec(1, acc=0.25)])]
        write_results(tmp_path, replace(plan, cells=tuple(cells)))
        runs = [line.split(",") for line in (tmp_path / "runs.csv").read_text().splitlines()[1:]]
        h0, h1 = (config_hash(c) for c in plan.configs)
        assert h0 != h1
        assert [r[:5] for r in runs] == [
            [h0, "8", "1.0", "0", "0.75"],
            [h0, "8", "1.0", "3", "0.5"],
            [h1, "8", "2.5", "1", "0.25"],
        ]
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:3] for line in agg] == [["8", "1.0", "0.625"], ["8", "2.5", "0.25"]]

    def test_numpy_alpha_is_written_as_its_float(self, tmp_path):
        # config_hash used to raise on an np.float32 alpha, after every run had finished
        cfg = small_config(ne=NEConfig(alpha=np.float32(2), batch_size=4))
        write_results(tmp_path, single(cfg, RunRecord(0, STATUS_CONVERGED, 0.875, 150, 0.0009, 300)))
        line = (tmp_path / "runs.csv").read_text().splitlines()[1]
        h = config_hash(small_config(ne=NEConfig(alpha=2.0, batch_size=4)))
        assert line == f"{h},4,2.0,0,0.875,300,150,converged"

    def test_probe_schema(self, tmp_path):
        row = ProbeRow(0, 2.0, 8, 0.5, 4.9, -0.25, 0.75)
        write_results(tmp_path, single(small_config(probe=ProbePlan()), replace(rec(0), probes=(row,))))
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[0] == (
            "step,alpha,B,trace_cov,enhancement_ratio,predicted_factor,"
            "b_eff,median_excess_kurtosis,grad_diversity"
        )
        assert lines[1] == "0,2.0,8,0.5,4.9,5.0,1.6,-0.25,0.75"

    def test_scatter_schema_drops_value_column(self, tmp_path):
        path = tmp_path / "scatter.csv"
        rows = [aggregate_row(32, 1.0, AggregateResult([rec(0, acc=0.88, conv=300)]))]
        write_tradeoff_csv(path, tradeoff_rows("reduce-batch", rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "series,convergence_steps,accuracy"
        assert lines[1] == "reduce-batch,300.0,0.88"

    def test_parent_directories_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "steps_seed0.csv"
        write_results(path.parent, single(small_config(log_steps=True), rec(0)))
        assert path.exists()
