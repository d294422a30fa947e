import json

import numpy as np
import pytest

from noise_forge import harness
from noise_forge.cli import (
    DATA_DIR_ENV,
    DEFAULTS,
    ConfigError,
    build_train_config,
    parse_and_dispatch,
    resolve_config,
)
from test_dataio import image_bytes, label_bytes


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
            resolve_config(None, ["fullscale=1"])
        with pytest.raises(ConfigError, match="list"):
            resolve_config(None, ["train.seeds=3"])
        with pytest.raises(ConfigError, match="number"):
            resolve_config(None, ['ne.alpha="big"'])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            resolve_config(None, ["ne.alpha"])

    def test_fullscale_preset_fills_unset_keys(self):
        cfg = resolve_config(None, ["fullscale=true"])
        assert cfg["model.hidden"] == [500] * 7
        assert cfg["ne.batch_size"] == 5000
        assert cfg["data.source"] == "idx"
        assert len(cfg["sweep.b_grid"]) == 13
        assert cfg["sweep.alpha_grid"] == [float(a) for a in range(1, 12)]

    def test_explicit_keys_beat_the_preset(self, tmp_path):
        path = write_config(tmp_path, {"fullscale": True})
        cfg = resolve_config(path, ["data.source=synthetic"])
        assert cfg["ne.batch_size"] == 4  # explicit in the file
        assert cfg["data.source"] == "synthetic"  # explicit on the command line
        assert cfg["model.hidden"] == [4]
        assert cfg["sweep.b_fixed"] == 5000  # preset still fills the rest


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

    def test_idx_source_requires_a_directory(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(ConfigError, match=DATA_DIR_ENV):
            build_train_config(resolve_config(None, ["data.source=idx"]))

    def test_invalid_batch_is_a_config_error(self, tmp_path):
        cfg = resolve_config(write_config(tmp_path, {"ne.batch_size": 1000}), [])
        with pytest.raises(ConfigError, match="batch"):
            build_train_config(cfg)


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

    def test_all_diverged_exits_two(self, tmp_path, monkeypatch, capsys):
        # the divergence detection itself is covered by the protocol tests;
        # here only the exit-code plumbing is under test
        from noise_forge import harness

        def diverged_run(cfg, seed, step_writer=None):
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

    def test_sweep_without_any_finite_cell_exits_two(self, tmp_path, monkeypatch, capsys):
        from noise_forge import harness

        def diverged_run(cfg, seed, step_writer=None):
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
                "--set",
                "sweep.b_fixed=4",
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
                "--set",
                "sweep.b_fixed=4",
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
                    "--set",
                    "sweep.b_fixed=4",
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
    def test_training_from_idx_files(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(40, 1, 6))
        labels = np.tile(np.arange(2), 20)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for stem in ("train", "t10k"):
            (data_dir / f"{stem}-images-idx3-ubyte").write_bytes(image_bytes(images))
            (data_dir / f"{stem}-labels-idx1-ubyte").write_bytes(label_bytes(labels))
        monkeypatch.setenv(DATA_DIR_ENV, str(data_dir))
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


class TestVerifyOraclesCommand:
    def test_fast_suite_passes(self, capsys):
        rc = parse_and_dispatch(["verify-oracles", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracle checks passed" in out
        assert "FAIL" not in out


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
            ("probe.steps=[-3]", "probe.steps entries must be >= 0"),
            ("probe.interval=-5", "probe.interval must be >= 0"),
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
            ("probe.steps=[-3]", "probe.steps entries must be >= 0"),
            ("probe.n_samples=1", "probe.n_samples must be >= 2"),
        ],
    )
    def test_rejected_probe_plan_stops_before_training_and_output(
        self, setting, message, tmp_path, monkeypatch, capsys
    ):
        runs = []
        probe_run = harness.probe_run

        def counted(*args):
            runs.append(args)
            return probe_run(*args)

        monkeypatch.setattr(harness, "probe_run", counted)
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
            ("sweep-b", "sweep.b_grid=[16,100000]", "batch_size exceeds training set size"),
            ("sweep-alpha", "sweep.alpha_grid=[1.0,0.5]", "alpha must be >= 1"),
        ],
    )
    def test_rejected_sweep_grid_leaves_no_output(
        self, command, setting, message, tmp_path, monkeypatch, capsys
    ):
        runs = []
        monkeypatch.setattr(harness, "train_run", lambda *args, **kw: runs.append(args))
        out = tmp_path / "out"
        config = write_config(tmp_path, {"sweep.b_fixed": 4})
        rc = parse_and_dispatch([command, "--config", config, "--out", str(out), "--set", setting])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert runs == []
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
