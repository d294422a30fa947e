import math

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
    SweepResult,
    TrainConfig,
    aggregate,
    aggregate_row,
    config_hash,
    probe_run,
    repeat_runs,
    sweep_alpha,
    sweep_batch,
    train_run,
    write_cells,
    write_probe_csv,
    write_step_log,
)
from noise_forge.report import (
    ResultsUnit,
    alpha_flags,
    best_row,
    render_comparison,
    tradeoff_rows,
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
        ne=NEConfig(alpha=1.0, batch_size=4, base="sgd", mode="pairwise"),
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
        lrs = []
        record = train_run(small_config(), seed=0, step_writer=lambda l: lrs.append(l.lr))
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

    def test_step_writer_sees_every_step(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, 0.0005])
        scripted_steps(monkeypatch)
        logs = []
        record = train_run(small_config(), seed=0, step_writer=logs.append)
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
        a = RunRecord(0, STATUS_CONVERGED, 0.9, 100, 50, 0.0005, 100, wall_time_s=1.0)
        b = RunRecord(0, STATUS_CONVERGED, 0.9, 100, 50, 0.0005, 100, wall_time_s=9.9)
        assert a == b


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

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_too_few_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="probe.n_samples must be >= 2"):
            ProbePlan(n_samples=n_samples)
        assert ProbePlan(n_samples=2).n_samples == 2

    def test_probe_run_emits_rows_at_planned_steps(self, monkeypatch):
        scripted_losses(monkeypatch, [0.5, 0.5, 0.5])
        scripted_steps(monkeypatch)
        cfg = small_config(max_steps=50, eval_interval=25)
        record, rows = probe_run(cfg, seed=0, plan=ProbePlan(steps=(0,), interval=25, n_samples=10))
        assert record.status == STATUS_DID_NOT_CONVERGE
        assert [r.step for r in rows] == [0, 25, 50]
        assert all(math.isfinite(r.trace_cov) for r in rows)


def rec(seed=0, status=STATUS_CONVERGED, acc=0.9, conv=100):
    return RunRecord(
        seed=seed,
        status=status,
        test_accuracy=acc,
        convergence_steps=conv if status == STATUS_CONVERGED else None,
        lr_halved_at=None,
        final_train_loss=0.0005,
        steps_taken=conv or 0,
        wall_time_s=0.0,
    )


class TestAggregate:
    def test_hand_statistics(self):
        agg = aggregate([rec(0, acc=0.9, conv=100), rec(1, acc=0.8, conv=200)])
        assert agg.mean_accuracy == pytest.approx(0.85)
        assert agg.std_accuracy == pytest.approx(0.05)  # ddof=0
        assert agg.mean_convergence == pytest.approx(150.0)
        assert agg.std_convergence == pytest.approx(50.0)
        assert agg.n_converged == 2
        assert agg.status == "ok"

    def test_single_run_has_zero_spread(self):
        agg = aggregate([rec(0)])
        assert agg.std_accuracy == 0.0
        assert agg.std_convergence == 0.0

    def test_statuses_partition_the_runs(self):
        agg = aggregate(
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
        assert agg.n_did_not_converge == 1
        assert agg.n_diverged == 1
        assert agg.status == "ok"

    def test_all_diverged_is_flagged(self):
        agg = aggregate([rec(0, status=STATUS_DIVERGED, acc=float("nan"))])
        assert agg.status == "all-diverged"
        assert math.isnan(agg.mean_accuracy)
        assert math.isnan(agg.mean_convergence)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestRepeatRuns:
    def test_records_follow_seed_order(self, monkeypatch):
        monkeypatch.setattr(
            harness, "train_run", lambda cfg, seed, step_writer=None: rec(seed)
        )
        agg = repeat_runs(small_config(), seeds=[5, 1, 3])
        assert [r.seed for r in agg.records] == [5, 1, 3]

    def test_defaults_to_config_seeds(self, monkeypatch):
        monkeypatch.setattr(
            harness, "train_run", lambda cfg, seed, step_writer=None: rec(seed)
        )
        agg = repeat_runs(small_config(seeds=(2, 4)))
        assert [r.seed for r in agg.records] == [2, 4]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            repeat_runs(small_config(), seeds=[])

    def test_parallel_jobs_match_serial(self):
        cfg = small_config(max_steps=40, eval_interval=20, seeds=(0, 1))
        serial = repeat_runs(cfg, jobs=1)
        parallel = repeat_runs(cfg, jobs=2)
        assert serial.records == parallel.records
        for name in ("mean_accuracy", "std_accuracy", "mean_convergence", "std_convergence"):
            np.testing.assert_allclose(
                getattr(serial, name), getattr(parallel, name), equal_nan=True
            )


def fake_table_runner(table):
    """train_run stand-in returning scripted outcomes per (B, alpha, seed)."""

    def run(cfg, seed, step_writer=None):
        acc, conv = table[(cfg.ne.batch_size, cfg.ne.alpha)]
        return rec(seed, acc=acc, conv=conv)

    return run


class TestSweeps:
    def test_batch_sweep_collects_cells_in_grid_order(self, monkeypatch):
        table = {(4, 1.0): (0.80, 100), (8, 1.0): (0.90, 200), (16, 1.0): (0.90, 400)}
        monkeypatch.setattr(harness, "train_run", fake_table_runner(table))
        cfg = small_config(seeds=(0, 1))
        sweep = sweep_batch(cfg, [4, 8, 16], alpha_fixed=1.0)
        assert sweep.axis == "batch_size"
        assert sweep.values == (4.0, 8.0, 16.0)
        assert [c.mean_accuracy for c in sweep.cells] == [0.80, 0.90, 0.90]
        # tie on accuracy goes to the smaller grid value
        assert best_row(sweep.rows(), "B")["B"] == 8

    def test_alpha_sweep_fixes_batch(self, monkeypatch):
        table = {(16, 1.0): (0.85, 100), (16, 1.5): (0.87, 150), (16, 2.0): (0.86, 250)}
        monkeypatch.setattr(harness, "train_run", fake_table_runner(table))
        sweep = sweep_alpha(small_config(), [1.0, 1.5, 2.0], b_fixed=16)
        assert sweep.axis == "alpha"
        assert sweep.fixed_value == 16.0
        assert best_row(sweep.rows(), "alpha")["alpha"] == 1.5
        points = tradeoff_rows("increase-alpha", sweep.rows())
        assert points[0] == ("increase-alpha", 100.0, 0.85)

    def test_best_value_skips_cells_without_accuracy(self, monkeypatch):
        table = {(16, 1.0): (float("nan"), 100), (16, 2.0): (0.7, 100)}
        monkeypatch.setattr(harness, "train_run", fake_table_runner(table))

        def diverged_or_ok(cfg, seed, step_writer=None):
            acc, conv = table[(cfg.ne.batch_size, cfg.ne.alpha)]
            if math.isnan(acc):
                return rec(seed, status=STATUS_DIVERGED, acc=acc)
            return rec(seed, acc=acc, conv=conv)

        monkeypatch.setattr(harness, "train_run", diverged_or_ok)
        sweep = sweep_alpha(small_config(), [1.0, 2.0], b_fixed=16)
        assert best_row(sweep.rows(), "alpha")["alpha"] == 2.0

    def test_bad_cell_stops_the_sweep_before_any_run(self, monkeypatch):
        runs = []

        def counted(cfg, seed, step_writer=None):
            runs.append((cfg.ne.batch_size, cfg.ne.alpha, seed))
            return rec(seed)

        monkeypatch.setattr(harness, "train_run", counted)
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            sweep_alpha(small_config(), [1.0, 0.5], b_fixed=4)
        with pytest.raises(ValueError, match="batch_size exceeds training set size"):
            sweep_batch(small_config(), [4, 100_000])
        assert runs == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_batch(small_config(), [])
        with pytest.raises(ValueError):
            sweep_alpha(small_config(), [], b_fixed=4)


def sweep_from_cells(axis, values, cells, fixed=1.0):
    return SweepResult(axis=axis, values=tuple(values), fixed_value=fixed, cells=tuple(cells))


def cell(acc, conv, status=STATUS_CONVERGED):
    return aggregate([rec(0, status=status, acc=acc, conv=conv)])


def flags_of(values, cells):
    return alpha_flags(sweep_from_cells("alpha", values, cells).rows())


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
        units = [ResultsUnit(s.axis, tuple(s.rows()), {}, s.axis) for s in (batch, alpha)]
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


class TestCsvWriters:
    def test_step_log_schema_and_blank_optional(self, tmp_path):
        path = tmp_path / "steps.csv"
        write_step_log(path, [StepLog(1, 0, 0.5, 1.25, None, 1.25, 0.001)])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,minibatch_loss,grad_norm_b,grad_norm_bprime,combined_norm,lr"
        assert lines[1] == "1,0,0.5,1.25,,1.25,0.001"

    def test_runs_schema(self, tmp_path):
        cfg = small_config(ne=NEConfig(alpha=1.5, batch_size=4))
        record = RunRecord(0, STATUS_CONVERGED, 0.875, 300, 150, 0.0009, 300)
        write_cells(tmp_path, [(cfg, aggregate([record]))])
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert lines[0] == "config_hash,B,alpha,seed,test_accuracy,convergence_steps,lr_halved_at,status"
        assert lines[1] == f"{config_hash(cfg)},4,1.5,0,0.875,300,150,converged"

    def test_aggregate_schema(self, tmp_path):
        write_cells(tmp_path, [(small_config(), aggregate([rec(0, acc=0.9, conv=100)]))])
        lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "B,alpha,mean_acc,std_acc,mean_steps,std_steps,n_converged"
        assert lines[1] == "4,1.0,0.9,0.0,100.0,0.0,1"

    def test_cells_carry_their_own_configs(self, tmp_path):
        plan = harness.SweepPlan.over_alpha(small_config(), [1.0, 2.5], b_fixed=8)
        cells = [aggregate([rec(0, acc=0.75), rec(3, acc=0.5)]), aggregate([rec(1, acc=0.25)])]
        write_cells(tmp_path, zip(plan.configs, cells))
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

    def test_probe_schema(self, tmp_path):
        from noise_forge.noiselab import ProbeRow

        path = tmp_path / "probe.csv"
        row = ProbeRow(0, 2.0, 8, 0.5, 4.9, 5.0, 1.6, -0.25, 0.75)
        write_probe_csv(path, [row])
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "step,alpha,B,trace_cov,enhancement_ratio,predicted_factor,"
            "b_eff,median_excess_kurtosis,grad_diversity"
        )
        assert lines[1] == "0,2.0,8,0.5,4.9,5.0,1.6,-0.25,0.75"

    def test_scatter_schema_drops_value_column(self, tmp_path):
        path = tmp_path / "scatter.csv"
        rows = [aggregate_row(32, 1.0, aggregate([rec(0, acc=0.88, conv=300)]))]
        write_tradeoff_csv(path, tradeoff_rows("reduce-batch", rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "series,convergence_steps,accuracy"
        assert lines[1] == "reduce-batch,300.0,0.88"

    def test_parent_directories_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "steps.csv"
        write_step_log(path, [])
        assert path.exists()
