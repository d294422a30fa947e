import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from noise_forge import harness, oracles
from noise_forge.cli import (
    DATA_DIR_ENV,
    DEFAULTS,
    ConfigError,
    build_train_config,
    parse_and_dispatch,
    resolve_config,
)
from test_acceptance import DESK_SCALE_SETS
from test_dataio import image_bytes, label_bytes
from test_harness import openblas_threads

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, extra=None):
    cfg = {
        "synthetic.classes": 2,
        "synthetic.dim": 3,
        "synthetic.n_per_class": 20,
        "model.hidden": [4],
        "ne.batch_size": 4,
        "train.eval_interval": 10,
        "train.max_steps": 40,
        "train.seeds": [0],
        "probe.n_samples": 20,
    }
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestResolveConfig:
    def test_defaults_without_inputs(self):
        cfg = resolve_config(None, [])
        assert cfg == DEFAULTS
        cfg["root_seed"] = 99
        assert DEFAULTS["root_seed"] == 0  # result is a private copy

    def test_file_values_apply(self, tmp_path):
        path = write_config(tmp_path)
        cfg = resolve_config(path, [])
        assert cfg["ne.batch_size"] == 4
        assert cfg["model.hidden"] == [4]
        assert cfg["optim.base"] == "adam"  # untouched default

    def test_set_overrides_file(self, tmp_path):
        path = write_config(tmp_path)
        cfg = resolve_config(path, ["ne.batch_size=8", "ne.alpha=2.5"])
        assert cfg["ne.batch_size"] == 8
        assert cfg["ne.alpha"] == 2.5

    def test_bare_strings_fall_back_from_json(self):
        cfg = resolve_config(None, ["optim.base=sgd"])
        assert cfg["optim.base"] == "sgd"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(None, ["optim.momentum=0.9"])

    def test_type_mismatches_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            resolve_config(None, ["ne.batch_size=4.5"])
        with pytest.raises(ConfigError, match="boolean"):
            resolve_config(None, ["train.log_steps=1"])
        with pytest.raises(ConfigError, match="list"):
            resolve_config(None, ["train.seeds=3"])
        with pytest.raises(ConfigError, match="number"):
            resolve_config(None, ['ne.alpha="big"'])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            resolve_config(None, ["ne.alpha"])

    def test_fullscale_preset_fills_unset_keys(self):
        # the reference protocol: the 10-class image task at full size, a
        # 7 x 500 net, 10 seeds and the published grids
        preset = {
            "data.source": "idx",
            "data.subset": 0,
            "model.hidden": [500, 500, 500, 500, 500, 500, 500],
            "ne.batch_size": 5000,
            "train.seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            "sweep.b_grid": [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 2000, 3000, 5000],
            "sweep.alpha_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
        }
        assert json.loads((CONFIGS / "fullscale.json").read_text()) == preset
        assert resolve_config(str(CONFIGS / "fullscale.json"), []) == {**DEFAULTS, **preset}

    def test_explicit_keys_beat_the_preset(self):
        cfg = resolve_config(str(CONFIGS / "fullscale.json"), ["data.source=synthetic", "ne.batch_size=4"])
        assert cfg["ne.batch_size"] == 4
        assert cfg["data.source"] == "synthetic"
        assert cfg["model.hidden"] == [500] * 7  # the file still fills the rest
        assert cfg["sweep.b_grid"][-1] == 5000
        with pytest.raises(ConfigError, match="unknown config key: fullscale"):
            resolve_config(None, ["fullscale=true"])

    def test_desk_config_is_check_8s(self):
        assert resolve_config(str(CONFIGS / "desk.json"), []) == resolve_config(None, DESK_SCALE_SETS)


class TestBuildTrainConfig:
    def test_synthetic_datasets_and_shapes(self, tmp_path):
        cfg = resolve_config(write_config(tmp_path), [])
        tc = build_train_config(cfg)
        # 40 synthetic samples split 75/25
        assert tc.train_data.n_samples == 30
        assert tc.test_data.n_samples == 10
        assert tc.model.input_dim == 3
        assert tc.model.num_classes == 2
        assert tc.ne.batch_size == 4
        assert tc.max_steps == 40

    def test_deterministic_in_root_seed(self, tmp_path):
        cfg = resolve_config(write_config(tmp_path), [])
        a = build_train_config(cfg)
        b = build_train_config(cfg)
        np.testing.assert_array_equal(a.train_data.inputs, b.train_data.inputs)
        c = build_train_config(resolve_config(write_config(tmp_path), ["root_seed=5"]))
        assert not np.array_equal(a.train_data.inputs, c.train_data.inputs)

    def test_subset_caps_synthetic_training_rows(self, tmp_path):
        # 80 synthetic samples split 75/25: 60 training rows, of which
        # data.subset keeps at most that many; 0 or a cap of 60 or more keeps all
        path = write_config(tmp_path, {"synthetic.n_per_class": 40})
        full = build_train_config(resolve_config(path, ["data.subset=0"]))
        assert full.train_data.n_samples == 60
        capped = build_train_config(resolve_config(path, ["data.subset=20"]))
        assert capped.train_data.n_samples == 20
        np.testing.assert_array_equal(capped.test_data.inputs, full.test_data.inputs)
        kept = {tuple(row) for row in full.train_data.inputs}
        assert all(tuple(row) in kept for row in capped.train_data.inputs)
        for cap in (60, 100):
            same = build_train_config(resolve_config(path, [f"data.subset={cap}"]))
            np.testing.assert_array_equal(same.train_data.inputs, full.train_data.inputs)

    def test_idx_source_requires_a_directory(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(ConfigError, match=DATA_DIR_ENV):
            build_train_config(resolve_config(None, ["data.source=idx"]))

    def test_invalid_batch_is_a_config_error(self, tmp_path):
        cfg = resolve_config(write_config(tmp_path, {"ne.batch_size": 1000}), [])
        with pytest.raises(ConfigError, match="batch"):
            build_train_config(cfg)


@pytest.fixture
def pool_starts(monkeypatch):
    """(workers, start method) of each pool harness starts; the pools are real."""
    starts = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context, **kwargs):
            starts.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordedPool)
    return starts


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared directory where the command tests leave their outputs."""
    tmp = tmp_path_factory.mktemp("cli")
    config = write_config(tmp)
    return tmp, config


class TestTrainCommand:
    def test_writes_outputs_and_exits_clean(self, workspace, capsys):
        tmp, config = workspace
        out = tmp / "results" / "train"
        rc = parse_and_dispatch(["train", "--config", config, "--out", str(out)])
        assert rc == 0
        assert (out / "runs.csv").is_file()
        assert (out / "aggregate.csv").is_file()
        assert (out / "resolved_config.json").is_file()
        runs = (out / "runs.csv").read_text().splitlines()
        assert len(runs) == 2  # header + one seed
        assert "results written to" in capsys.readouterr().out

    def test_cell_without_a_converged_run_prints_no_steps(self, workspace, capsys):
        tmp, config = workspace
        rc = parse_and_dispatch(["train", "--config", config, "--out", str(tmp / "unconverged")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "did not converge within 40 steps" in out
        assert "steps n/a (0/1 converged)" in out

    def test_step_logging_writes_per_seed_files(self, workspace, capsys):
        tmp, config = workspace
        out = tmp / "steplog"
        rc = parse_and_dispatch(
            ["train", "--config", config, "--out", str(out), "--set", "train.log_steps=true"]
        )
        assert rc == 0
        steps = (out / "steps_seed0.csv").read_text().splitlines()
        assert steps[0].startswith("step,epoch,minibatch_loss")
        assert len(steps) >= 2

    def test_step_logs_are_byte_equal_under_jobs(self, workspace, pool_starts):
        # with step logs on, --jobs 2 still runs the seeds in a worker pool
        tmp, config = workspace
        files = ("runs.csv", "aggregate.csv", "steps_seed0.csv", "steps_seed1.csv")
        outputs = []
        for jobs in ("1", "2"):
            out = tmp / f"jobs{jobs}"
            rc = parse_and_dispatch(
                [
                    "train", "--config", config, "--out", str(out), "--jobs", jobs,
                    "--set", "train.log_steps=true", "--set", "train.seeds=[0,1]",
                ]
            )
            assert rc == 0
            outputs.append([(out / name).read_bytes() for name in files])
        assert pool_starts == [(2, "spawn")]
        assert outputs[0] == outputs[1]

    def test_all_diverged_exits_two(self, tmp_path, monkeypatch, capsys):
        # the divergence detection itself is covered by the protocol tests;
        # here only the exit-code plumbing is under test
        from noise_forge import harness

        def diverged_run(cfg, seed):
            return harness.RunRecord(
                seed, harness.STATUS_DIVERGED, float("nan"), None, None, float("nan"), 7
            )

        monkeypatch.setattr(harness, "train_run", diverged_run)
        config = write_config(tmp_path)
        rc = parse_and_dispatch(
            ["train", "--config", config, "--out", str(tmp_path / "diverged")]
        )
        assert rc == 2
        assert "diverged" in capsys.readouterr().err

    def test_real_divergence_prints_no_numpy_warning(self, tmp_path, capsys):
        config = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc = parse_and_dispatch(
                [
                    "sweep-alpha", "--config", config, "--out", str(tmp_path / "out"),
                    "--set", "optim.learning_rate=1e300", "--set", "sweep.alpha_grid=[1,2]",
                ]
            )
        assert rc == 2
        assert "no sweep cell produced a finite accuracy" in capsys.readouterr().err

    def test_sweep_without_any_finite_cell_exits_two(self, tmp_path, monkeypatch, capsys):
        from noise_forge import harness

        def diverged_run(cfg, seed):
            return harness.RunRecord(
                seed, harness.STATUS_DIVERGED, float("nan"), None, None, float("nan"), 7
            )

        monkeypatch.setattr(harness, "train_run", diverged_run)
        config = write_config(tmp_path)
        rc = parse_and_dispatch(
            [
                "sweep-alpha",
                "--config",
                config,
                "--out",
                str(tmp_path / "sweep"),
                "--set",
                "sweep.alpha_grid=[1.0,2.0]",
            ]
        )
        assert rc == 2
        assert "no sweep cell" in capsys.readouterr().err


class TestSweepCommands:
    def test_alpha_sweep_of_one_matches_plain_train(self, workspace, capsys):
        tmp, config = workspace
        train_out = tmp / "results" / "train"
        if not (train_out / "aggregate.csv").is_file():
            assert parse_and_dispatch(["train", "--config", config, "--out", str(train_out)]) == 0
        sweep_out = tmp / "results" / "sweep-alpha"
        rc = parse_and_dispatch(
            [
                "sweep-alpha",
                "--config",
                config,
                "--out",
                str(sweep_out),
                "--set",
                "sweep.alpha_grid=[1.0]",
            ]
        )
        assert rc == 0
        assert (sweep_out / "aggregate.csv").read_bytes() == (train_out / "aggregate.csv").read_bytes()
        assert (sweep_out / "scatter.csv").is_file()
        meta = json.loads((sweep_out / "sweep.json").read_text())
        assert meta["axis"] == "alpha"
        assert meta["values"] == [1.0]
        capsys.readouterr()

    def test_batch_sweep_writes_cells_in_grid_order(self, workspace, capsys):
        tmp, config = workspace
        out = tmp / "results" / "sweep-b"
        rc = parse_and_dispatch(
            [
                "sweep-b",
                "--config",
                config,
                "--out",
                str(out),
                "--set",
                "sweep.b_grid=[2,4]",
            ]
        )
        assert rc == 0
        lines = (out / "aggregate.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("2,1.0,")
        assert lines[2].startswith("4,1.0,")
        capsys.readouterr()

    def test_sweep_json_best_matches_report_marker(self, tmp_path, capsys):
        # a one-value grid is still a sweep, so its cell is the best one
        for grid in ("[1.0,1.5,2.0]", "[1.5]"):
            results = tmp_path / grid / "results"
            out = results / "sweep-alpha"
            rc = parse_and_dispatch(
                [
                    "sweep-alpha",
                    "--config",
                    write_config(tmp_path),
                    "--out",
                    str(out),
                    "--set",
                    f"sweep.alpha_grid={grid}",
                ]
            )
            assert rc == 0
            printed = capsys.readouterr().out
            assert parse_and_dispatch(["report", "--results", str(results)]) == 0
            marked = [
                line for line in (results / "report.md").read_text().splitlines()
                if "(best)" in line
            ]
            assert len(marked) == 1
            alpha = float(marked[0].split("|")[2])
            assert json.loads((out / "sweep.json").read_text())["best_value"] == alpha
            assert f"best alpha: {alpha:g}" in printed
            capsys.readouterr()

    @pytest.mark.parametrize(
        "command, setting, fixed",
        [("sweep-alpha", "ne.batch_size=8", "8,1.0,"), ("sweep-b", "ne.alpha=2", "4,2.0,")],
    )
    def test_sweeps_hold_the_base_config_fixed(self, command, setting, fixed, tmp_path, capsys):
        # the fixed B of an alpha sweep and the fixed alpha of a batch sweep are ne.*
        out = tmp_path / command
        grid = "sweep.alpha_grid=[1.0]" if command == "sweep-alpha" else "sweep.b_grid=[4]"
        argv = [command, "--config", write_config(tmp_path), "--out", str(out), "--set", setting, "--set", grid]
        assert parse_and_dispatch(argv) == 0
        assert (out / "aggregate.csv").read_text().splitlines()[1].startswith(fixed)
        assert (out / "runs.csv").read_text().splitlines()[1].split(",")[1:3] == fixed.split(",")[:2]
        capsys.readouterr()

    def test_one_seed_cells_share_one_pool(self, workspace, pool_starts, capsys):
        # three one-seed cells under --jobs 2 run in one two-worker pool
        tmp, config = workspace
        files = ("runs.csv", "aggregate.csv", "sweep.json", "scatter.csv")
        outputs = []
        for jobs in ("1", "2"):
            out = tmp / f"sweep-jobs{jobs}"
            argv = ["sweep-alpha", "--config", config, "--out", str(out), "--jobs", jobs]
            assert parse_and_dispatch(argv + ["--set", "sweep.alpha_grid=[1.0,1.5,2.0]"]) == 0
            outputs.append([(out / name).read_bytes() for name in files])
        assert pool_starts == [(2, "spawn")]
        assert outputs[0] == outputs[1]
        capsys.readouterr()


class TestOneRunPath:
    @pytest.mark.parametrize("command", ["train", "sweep-b", "sweep-alpha", "probe"])
    def test_every_command_dispatches_its_runs_once(self, command, tmp_path, monkeypatch, capsys):
        # every run goes through the one dispatcher, so no command grows its own run path
        calls = []
        dispatch = harness._dispatch

        def counted(*args, **kw):
            calls.append(args)
            return dispatch(*args, **kw)

        monkeypatch.setattr(harness, "_dispatch", counted)
        config = write_config(tmp_path, {"sweep.b_grid": [2, 4], "sweep.alpha_grid": [1.0, 2.0]})
        assert parse_and_dispatch([command, "--config", config, "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 1
        capsys.readouterr()


class TestBlasThreads:
    def test_train_and_probe_outputs_do_not_follow_the_blas_thread_count(self, tmp_path, capsys):
        # the desk net (P = 19,204) is long enough for OpenBLAS to split a dot product by thread
        before = openblas_threads()
        if before is None:
            pytest.skip("numpy is not linked against an OpenBLAS with a thread getter")
        desk = [
            "synthetic.classes=4", "synthetic.dim=16", "synthetic.n_per_class=200",
            "synthetic.noise_scale=0.9", "model.hidden=[128,128]", "ne.batch_size=100",
            "ne.alpha=2", "optim.learning_rate=0.003", "train.eval_interval=25",
            "train.max_steps=250", "train.seeds=[0]", "train.log_steps=true", "probe.steps=[0,200]",
        ]
        sets = [arg for item in desk for arg in ("--set", item)]
        outputs = []
        try:
            for threads in (1, 2):
                harness._set_blas_threads(threads)
                out = tmp_path / str(threads)
                assert parse_and_dispatch(["train", "--out", str(out / "train"), *sets]) == 0
                assert parse_and_dispatch(["probe", "--out", str(out / "probe"), *sets]) == 0
                names = (
                    "train/runs.csv", "train/steps_seed0.csv",
                    "probe/runs.csv", "probe/steps_seed0.csv", "probe/probe.csv",
                )
                outputs.append([(out / name).read_bytes() for name in names])
        finally:
            harness._set_blas_threads(before)
        assert len(outputs[0][4].splitlines()) == 3  # header and steps 0 and 200
        assert outputs[0] == outputs[1]
        # probing never moves the trajectory: the probed run logs the same steps as train
        assert outputs[0][2:4] == outputs[0][0:2]
        capsys.readouterr()


class TestProbeCommand:
    def test_probe_writes_measurements(self, workspace, capsys):
        tmp, config = workspace
        out = tmp / "probe"
        rc = parse_and_dispatch(
            ["probe", "--config", config, "--out", str(out), "--set", "ne.alpha=2.0"]
        )
        assert rc == 0
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0].startswith("step,alpha,B,trace_cov,enhancement_ratio")
        assert len(lines) == 2
        assert lines[1].startswith("0,2.0,4,")
        out_text = capsys.readouterr().out
        assert "predicted 5.0000" in out_text
        assert "not reached" not in out_text

    def test_one_seed_starts_no_pool(self, workspace, pool_starts, capsys):
        # probe runs the first seed only, so --jobs 2 has one task and runs it in process
        tmp, config = workspace
        files = ("runs.csv", "probe.csv", "steps_seed0.csv")
        outputs = []
        for jobs in ("1", "2"):
            out = tmp / f"probe-jobs{jobs}"
            argv = ["probe", "--config", config, "--out", str(out), "--jobs", jobs]
            assert parse_and_dispatch(argv + ["--set", "train.seeds=[0,1]", "--set", "train.log_steps=true"]) == 0
            outputs.append([(out / name).read_bytes() for name in files])
        assert pool_starts == []
        assert outputs[0] == outputs[1]
        assert not (tmp / "probe-jobs2" / "steps_seed1.csv").exists()
        capsys.readouterr()

    def test_steps_after_the_run_stops_are_reported(self, workspace, capsys):
        tmp, config = workspace
        out = tmp / "probe-unreached"
        rc = parse_and_dispatch(
            [
                "probe", "--config", config, "--out", str(out),
                "--set", "train.max_steps=20", "--set", "probe.steps=[0,10,50]",
            ]
        )
        assert rc == 0
        steps = [line.split(",")[0] for line in (out / "probe.csv").read_text().splitlines()[1:]]
        assert steps == ["0", "10"]
        assert "probe steps 50 not reached: run stopped at step 20" in capsys.readouterr().out


class TestIdxSource:
    @staticmethod
    def data_dir(tmp_path, monkeypatch):
        """Uncompressed 40-row train and test IDX pairs, found through the environment."""
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(40, 1, 6))
        labels = np.tile(np.arange(2), 20)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for stem in ("train", "t10k"):
            (data_dir / f"{stem}-images-idx3-ubyte").write_bytes(image_bytes(images))
            (data_dir / f"{stem}-labels-idx1-ubyte").write_bytes(label_bytes(labels))
        monkeypatch.setenv(DATA_DIR_ENV, str(data_dir))
        return data_dir

    def test_training_from_idx_files(self, tmp_path, monkeypatch, capsys):
        self.data_dir(tmp_path, monkeypatch)
        config = write_config(
            tmp_path,
            {
                "data.source": "idx",
                "data.subset": 0,
                "train.max_steps": 20,
                "synthetic.classes": 2,
            },
        )
        # model head size comes from the loader's one-hot width, which
        # defaults to 10 classes for image data
        rc = parse_and_dispatch(
            ["train", "--config", config, "--out", str(tmp_path / "idx-out")]
        )
        assert rc == 0
        resolved = json.loads((tmp_path / "idx-out" / "resolved_config.json").read_text())
        assert resolved["data.source"] == "idx"
        capsys.readouterr()

    def test_broken_gzip_file_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        broken = self.data_dir(tmp_path, monkeypatch) / "train-images-idx3-ubyte.gz"
        broken.write_bytes(b"not gzip")
        out = tmp_path / "out"
        rc = parse_and_dispatch(["train", "--set", "data.source=idx", "--out", str(out)])
        assert rc == 1
        assert f"config error: {broken}: not a readable gzip file" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_subset_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # a negative subset used to fall through to the full training set
        self.data_dir(tmp_path, monkeypatch)
        out = tmp_path / "out"
        argv = ["train", "--set", "data.source=idx", "--set", "data.subset=-5", "--out", str(out)]
        rc = parse_and_dispatch(argv)
        assert rc == 1
        assert "config error: data.subset must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyOraclesCommand:
    def test_fast_suite_passes(self, capsys):
        rc = parse_and_dispatch(["verify-oracles", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracle checks passed" in out
        assert "FAIL" not in out

    def test_a_biased_pair_pass_fails_its_check(self, monkeypatch, capsys):
        # the pass keeps alpha/|B| on B but drops (1 - alpha) * grad(B'), so it
        # averages to alpha * grad; grad(B) alone would be unbiased and pass
        def without_second(primary, second, alpha, n):
            return primary, np.full(primary.shape[0], alpha / primary.shape[0])

        monkeypatch.setattr(oracles, "pair_rows", without_second)
        rc = parse_and_dispatch(["verify-oracles", "--fast"])
        assert rc == 3
        assert "FAIL  ne-direction-unbiased" in capsys.readouterr().out


class TestReportCommand:
    def test_report_renders_from_results(self, workspace, capsys):
        tmp, config = workspace
        results = tmp / "results"
        assert (results / "train" / "aggregate.csv").is_file()
        rc = parse_and_dispatch(["report", "--results", str(results)])
        assert rc == 0
        report_path = results / "report.md"
        assert report_path.is_file()
        text = report_path.read_text()
        assert "| B | alpha |" in text or "alpha" in text
        capsys.readouterr()

    def test_missing_results_dir_fails(self, tmp_path, capsys):
        rc = parse_and_dispatch(["report", "--results", str(tmp_path / "nope")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_results_dir_without_units_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = parse_and_dispatch(["report", "--results", str(empty)])
        assert rc == 1
        capsys.readouterr()

    def test_malformed_results_are_a_config_error(self, tmp_path, capsys):
        unit = tmp_path / "results" / "train"
        unit.mkdir(parents=True)
        (unit / "aggregate.csv").write_text("B,alpha,mean_acc,std_acc,mean_steps,std_steps,n_converged\n")
        out = tmp_path / "out"
        rc = parse_and_dispatch(["report", "--results", str(tmp_path / "results"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {unit / 'aggregate.csv'}: no rows\n"
        assert not out.exists()

    def test_sweep_json_that_is_not_json_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sweep.alpha_grid": [1.0, 2.0]})
        unit = tmp_path / "results" / "sweep-alpha"
        assert parse_and_dispatch(["sweep-alpha", "--config", config, "--out", str(unit)]) == 0
        (unit / "sweep.json").write_text("{\n")
        capsys.readouterr()
        rc = parse_and_dispatch(["report", "--results", str(tmp_path / "results")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {unit / 'sweep.json'}: Expecting property name")


class TestUsageErrors:
    def test_missing_config_file(self, capsys):
        rc = parse_and_dispatch(["train", "--config", "/does/not/exist.json"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = parse_and_dispatch(["train", "--config", str(bad)])
        assert rc == 1
        assert "valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [
            "train.max_steps=Infinity",
            "train.eval_interval=1e400",
            "root_seed=NaN",
            "train.seeds=[Infinity]",
            "train.seeds=[0.5]",
            "sweep.b_grid=[1e400]",
            "model.hidden=[1.5]",
            "probe.steps=[0,NaN]",
        ],
    )
    def test_non_finite_integer_is_a_config_error(self, setting, capsys):
        rc = parse_and_dispatch(["train", "--set", setting])
        assert rc == 1
        assert "expects an integer" in capsys.readouterr().err

    def test_retired_mode_key_is_unknown(self, tmp_path, capsys):
        # pairwise is the only training rule, so there is no ne.mode to set
        rc = parse_and_dispatch(["train", "--set", "ne.mode=off", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown config key: ne.mode" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("setting", ['sweep.alpha_grid=[1.0,"2"]', "sweep.alpha_grid=[true]"])
    def test_non_numeric_alpha_is_a_config_error(self, setting, capsys):
        rc = parse_and_dispatch(["sweep-alpha", "--set", setting])
        assert rc == 1
        assert "expects a number" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["train", "sweep-b", "sweep-alpha", "probe"])
    def test_jobs_below_one_is_a_config_error(self, command, jobs, tmp_path, capsys):
        config = write_config(tmp_path, {"sweep.b_grid": [4], "sweep.alpha_grid": [1.0]})
        rc = parse_and_dispatch([command, "--config", config, "--out", str(tmp_path), "--jobs", jobs])
        assert rc == 1
        assert "config error: --jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("probe.steps=[-3]", "probe.steps entry must be an integer >= 0, got -3"),
            ("probe.interval=-5", "probe.interval must be an integer >= 0, got -5"),
        ],
    )
    def test_negative_probe_plan_is_a_config_error(self, setting, message, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = parse_and_dispatch(["probe", "--config", config, "--out", str(tmp_path), "--set", setting])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "probe.csv").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("probe.steps=[-3]", "probe.steps entry must be an integer >= 0, got -3"),
            ("probe.n_samples=1", "probe.n_samples must be an integer >= 2, got 1"),
            # probe.interval is 0 here, so this plan would train the run and probe nowhere
            ("probe.steps=[]", "the probe plan names no checkpoint"),
        ],
    )
    def test_rejected_probe_plan_stops_before_training_and_output(
        self, setting, message, tmp_path, monkeypatch, capsys
    ):
        runs = []
        train_run = harness.train_run

        def counted(*args, **kw):
            runs.append(args)
            return train_run(*args, **kw)

        monkeypatch.setattr(harness, "train_run", counted)
        out = tmp_path / "out"
        config = write_config(tmp_path, {"probe.steps": [10], "probe.interval": 0})
        rc = parse_and_dispatch(["probe", "--config", config, "--out", str(out), "--set", setting])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("sweep-b", "sweep.b_grid=[16,100000]", "batch_size must lie in [1, n_samples], got 100000"),
            ("sweep-alpha", "sweep.alpha_grid=[1.0,0.5]", "alpha must be >= 1"),
            # a sweep's cells share seeds, so one steps_seed<N>.csv per seed would collide
            ("sweep-b", "train.log_steps=true", "a sweep cannot log steps or probe: its cells share seeds"),
            ("sweep-alpha", "train.log_steps=true", "a sweep cannot log steps or probe: its cells share seeds"),
            # a repeated value would run its cell twice
            ("sweep-b", "sweep.b_grid=[8,8,16]", "the batch_size grid must not repeat a value, got [8, 8, 16]"),
            ("sweep-b", "sweep.b_grid=[8,8.0]", "the batch_size grid must not repeat a value, got [8, 8]"),
            ("sweep-alpha", "sweep.alpha_grid=[1,2.0,1.0]", "the alpha grid must not repeat a value, got [1.0, 2.0, 1.0]"),
        ],
    )
    def test_rejected_sweep_grid_leaves_no_output(
        self, command, setting, message, tmp_path, monkeypatch, capsys
    ):
        runs = []
        monkeypatch.setattr(harness, "train_run", lambda *args, **kw: runs.append(args))
        out = tmp_path / "out"
        config = write_config(tmp_path)
        rc = parse_and_dispatch([command, "--config", config, "--out", str(out), "--set", setting])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, seeds, message",
        [
            pytest.param(command, "[0,-1]", "seed must be an integer >= 0, got -1", id=command)
            for command in ("train", "probe", "sweep-alpha")
        ]
        + [
            # a repeated seed would repeat an identical run
            pytest.param(command, "[1,0,1]", "seeds must not repeat, got [1, 0, 1]", id=f"{command}-repeated")
            for command in ("train", "sweep-b")
        ],
    )
    def test_negative_seed_leaves_no_output(self, command, seeds, message, tmp_path, monkeypatch, capsys):
        # the seed check used to fire only inside a run, after the output
        # directory and resolved_config.json were written
        runs = []

        def counted(real):
            return lambda *args, **kw: runs.append(args) or real(*args, **kw)

        monkeypatch.setattr(harness, "train_run", counted(harness.train_run))
        out = tmp_path / "out"
        config = write_config(tmp_path, {"sweep.alpha_grid": [1.0], "sweep.b_grid": [4]})
        argv = [command, "--config", config, "--out", str(out), "--set", f"train.seeds={seeds}"]
        rc = parse_and_dispatch(argv)
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_path_blocked_by_a_file_is_a_config_error(self, under, tmp_path, capsys):
        config = write_config(tmp_path)
        results = tmp_path / "results"
        assert parse_and_dispatch(["train", "--config", config, "--out", str(results)]) == 0
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        capsys.readouterr()
        for argv in (["train", "--config", config], ["report", "--results", str(results)]):
            rc = parse_and_dispatch([*argv, "--out", str(out)])
            assert rc == 1
            assert "config error" in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_synthetic_data_without_a_column_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["train", "--config", write_config(tmp_path), "--set", "synthetic.dim=0", "--out", str(out)]
        assert parse_and_dispatch(argv) == 1
        assert "config error: centers must be 2-D with at least one row and one column" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_set_key(self, capsys):
        rc = parse_and_dispatch(["train", "--set", "no.such.key=1"])
        assert rc == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        rc = parse_and_dispatch(["frobnicate"])
        assert rc == 1
        capsys.readouterr()

    def test_main_exits_with_parser_code(self, monkeypatch, capsys):
        from noise_forge.cli import main

        monkeypatch.setattr("sys.argv", ["noise-forge"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 1
        capsys.readouterr()
