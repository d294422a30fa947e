"""Command-line interface.

Subcommands: train, sweep-b, sweep-alpha, probe, verify-oracles, report.
Configuration is a flat JSON object of dotted keys; any key can be
overridden on the command line with --set key=value (values parse as JSON,
falling back to bare strings). Exit codes: 0 success, 1 configuration or
usage error, 2 runtime error or divergence, 3 oracle verification failure.

This module only parses, wires, and prints; every numerical decision lives
in the library modules.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

from . import dataio, harness, oracles, report
from .model import MlpSpec
from .optim import NEConfig
from .rng import named_stream

DATA_DIR_ENV = "NOISE_FORGE_DATA_DIR"

DEFAULTS: dict = {
    "root_seed": 0,
    "data.source": "synthetic",  # "synthetic" or "idx"
    "data.dir": "",  # empty -> $NOISE_FORGE_DATA_DIR
    "data.train_images": "train-images-idx3-ubyte.gz",
    "data.train_labels": "train-labels-idx1-ubyte.gz",
    "data.test_images": "t10k-images-idx3-ubyte.gz",
    "data.test_labels": "t10k-labels-idx1-ubyte.gz",
    "data.subset": 10000,  # 0 -> full training set
    "synthetic.classes": 4,
    "synthetic.dim": 24,
    "synthetic.n_per_class": 320,
    "synthetic.noise_scale": 0.5,
    "synthetic.center_spread": 1.0,
    "synthetic.label_noise": 0.0,
    "synthetic.test_fraction": 0.25,
    "model.hidden": [100, 100],
    "optim.base": "adam",
    "optim.learning_rate": 0.001,
    "ne.mode": "pairwise",
    "ne.alpha": 1.0,
    "ne.batch_size": 128,
    "train.l_star": 0.01,
    "train.l_star_star": 0.001,
    "train.eval_interval": 50,
    "train.max_steps": 0,  # 0 -> 200 epochs worth
    "train.seeds": [0, 1, 2, 3, 4],
    "train.log_steps": False,
    "sweep.b_grid": [32, 64, 128, 256],
    "sweep.alpha_grid": [1.0, 1.5, 2.0],
    "sweep.alpha_fixed": 1.0,
    "sweep.b_fixed": 128,
    "probe.steps": [0],
    "probe.interval": 0,
    "probe.n_samples": 200,
    "fullscale": False,
}

# Reference-protocol settings: the 10-class image task at full size
# (fully connected 7 x 500 net, 10 seeds, the published grids). Applied on
# top of the defaults when "fullscale" is set, without clobbering keys the
# user set explicitly.
FULLSCALE: dict = {
    "data.source": "idx",
    "data.subset": 0,
    "model.hidden": [500, 500, 500, 500, 500, 500, 500],
    "ne.batch_size": 5000,
    "train.seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "sweep.b_grid": [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 2000, 3000, 5000],
    "sweep.alpha_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
    "sweep.b_fixed": 5000,
}


class ConfigError(ValueError):
    """Bad configuration, bad CLI usage, or missing inputs."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse usage errors to exit 1
        raise ConfigError(message)


def _parse_set(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _check_type(key: str, value: object, default: object) -> object:
    """``value`` converted to the kind of ``default``; list elements take the
    kind of the default's first element."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key} expects a boolean, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())  # also rejects inf and nan
        ):
            raise ConfigError(f"config key {key} expects an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key} expects a number, got {value!r}")
        return float(value)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} expects a list, got {value!r}")
        return [_check_type(key, item, default[0]) for item in value]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {key} expects a string, got {value!r}")
        return value
    return value


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    """Merge defaults, config file, fullscale preset, and --set overrides."""
    explicit: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        explicit.update(loaded)
    for item in overrides:
        key, value = _parse_set(item)
        explicit[key] = value
    for key in explicit:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
    merged = copy.deepcopy(DEFAULTS)
    merged.update({k: _check_type(k, v, DEFAULTS[k]) for k, v in explicit.items()})
    if merged["fullscale"]:
        for key, value in FULLSCALE.items():
            if key not in explicit:
                merged[key] = copy.deepcopy(value)
    return merged


def _build_datasets(cfg: dict) -> tuple[dataio.Dataset, dataio.Dataset]:
    seed = cfg["root_seed"]
    if cfg["data.source"] == "synthetic":
        rng = named_stream(seed, "synthetic", 2)
        centers = cfg["synthetic.center_spread"] * rng.standard_normal(
            (cfg["synthetic.classes"], cfg["synthetic.dim"])
        )
        spec = dataio.SyntheticSpec(
            centers=centers,
            n_per_class=cfg["synthetic.n_per_class"],
            noise_scale=cfg["synthetic.noise_scale"],
            seed=seed,
            label_noise=cfg["synthetic.label_noise"],
        )
        full = dataio.make_synthetic(spec)
        return dataio.split_holdout(full, cfg["synthetic.test_fraction"], seed)
    if cfg["data.source"] != "idx":
        raise ConfigError(f"data.source must be 'synthetic' or 'idx', got {cfg['data.source']!r}")
    data_dir = cfg["data.dir"] or os.environ.get(DATA_DIR_ENV, "")
    if not data_dir:
        raise ConfigError(f"data.source is 'idx' but neither data.dir nor ${DATA_DIR_ENV} is set")
    root = Path(data_dir)
    paths = {}
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        p = root / cfg[f"data.{key}"]
        if not p.is_file() and p.suffix == ".gz" and p.with_suffix("").is_file():
            p = p.with_suffix("")  # accept uncompressed files transparently
        if not p.is_file():
            raise ConfigError(f"IDX file not found: {p}")
        paths[key] = p
    train = dataio.load_idx_pair(paths["train_images"], paths["train_labels"])
    test = dataio.load_idx_pair(paths["test_images"], paths["test_labels"])
    if cfg["data.subset"] > 0 and cfg["data.subset"] < train.n_samples:
        train = dataio.subset(train, cfg["data.subset"], seed)
    return train, test


def build_train_config(cfg: dict) -> harness.TrainConfig:
    train, test = _build_datasets(cfg)
    model = MlpSpec(
        input_dim=train.input_dim,
        hidden=tuple(cfg["model.hidden"]),
        num_classes=train.num_classes,
        seed=cfg["root_seed"],
    )
    ne = NEConfig(
        alpha=float(cfg["ne.alpha"]),
        batch_size=int(cfg["ne.batch_size"]),
        base=cfg["optim.base"],
        mode=cfg["ne.mode"],
    )
    try:
        return harness.TrainConfig(
            model=model,
            ne=ne,
            train_data=train,
            test_data=test,
            learning_rate=float(cfg["optim.learning_rate"]),
            l_star=float(cfg["train.l_star"]),
            l_star_star=float(cfg["train.l_star_star"]),
            eval_interval=int(cfg["train.eval_interval"]),
            max_steps=None if int(cfg["train.max_steps"]) == 0 else int(cfg["train.max_steps"]),
            seeds=tuple(int(s) for s in cfg["train.seeds"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_resolved(cfg: dict, out: Path) -> None:
    (out / "resolved_config.json").write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")


def _record_line(record: harness.RunRecord) -> str:
    if record.status == harness.STATUS_CONVERGED:
        tail = f"converged at {record.convergence_steps} steps"
    elif record.status == harness.STATUS_DIVERGED:
        tail = "diverged"
    else:
        tail = f"did not converge within {record.steps_taken} steps"
    return f"seed {record.seed}: {tail}, test accuracy {record.test_accuracy:.4f}"


def _cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.set or [])
    tc = build_train_config(cfg)
    out = _out_dir(args, "train")
    _dump_resolved(cfg, out)
    if cfg["train.log_steps"]:
        records = []
        for seed in tc.seeds:
            logs = []
            records.append(harness.train_run(tc, seed, step_writer=logs.append))
            harness.write_step_log(out / f"steps_seed{seed}.csv", logs)
        agg = harness.aggregate(records)
    else:
        agg = harness.repeat_runs(tc, jobs=args.jobs)
    harness.write_cells(out, [(tc, agg)])
    for record in agg.records:
        print(_record_line(record))
    print(
        f"B={tc.ne.batch_size} alpha={tc.ne.alpha:g}: "
        f"accuracy {agg.mean_accuracy:.4f} +- {agg.std_accuracy:.4f}, "
        f"steps {agg.mean_convergence:.1f} +- {agg.std_convergence:.1f} "
        f"({agg.n_converged}/{len(agg.records)} converged)"
    )
    print(f"results written to {out}")
    if agg.status == "all-diverged":
        print("error: every run diverged", file=sys.stderr)
        return 2
    return 0


def _print_sweep(sweep: harness.SweepResult, label: str, best: float | None) -> None:
    for value, cell in zip(sweep.values, sweep.cells):
        print(
            f"{label}={value:g}: accuracy {cell.mean_accuracy:.4f} +- {cell.std_accuracy:.4f}, "
            f"steps {cell.mean_convergence:.1f} +- {cell.std_convergence:.1f} "
            f"({cell.n_converged}/{len(cell.records)} converged)"
        )
    print(f"best {label}: {best:g}" if best is not None else f"best {label}: none (no finite cell)")


def _cmd_sweep(args) -> int:
    cfg = resolve_config(args.config, args.set or [])
    tc = build_train_config(cfg)
    if args.command == "sweep-b":
        plan = harness.SweepPlan.over_batch(tc, cfg["sweep.b_grid"], float(cfg["sweep.alpha_fixed"]))
    else:
        plan = harness.SweepPlan.over_alpha(tc, cfg["sweep.alpha_grid"], int(cfg["sweep.b_fixed"]))
    out = _out_dir(args, args.command)
    _dump_resolved(cfg, out)
    sweep = plan.run(args.jobs)
    harness.write_cells(out, zip(plan.configs, sweep.cells))
    key = "B" if sweep.axis == "batch_size" else "alpha"
    best_row = report.best_row(sweep.rows(), key)  # None when no cell has a finite accuracy
    best = None if best_row is None else float(best_row[key])
    meta = {"axis": sweep.axis, "values": list(sweep.values), "fixed_value": sweep.fixed_value, "best_value": best}
    (out / "sweep.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    if args.command == "sweep-alpha":
        report.write_tradeoff_csv(out / "scatter.csv", report.tradeoff_rows("increase-alpha", sweep.rows()))
    _print_sweep(sweep, key, best)
    print(f"results written to {out}")
    if best is None:
        print("error: no sweep cell produced a finite accuracy", file=sys.stderr)
        return 2
    return 0


def _cmd_probe(args) -> int:
    cfg = resolve_config(args.config, args.set or [])
    tc = build_train_config(cfg)
    plan = harness.ProbePlan(
        steps=tuple(int(s) for s in cfg["probe.steps"]),
        interval=int(cfg["probe.interval"]),
        n_samples=int(cfg["probe.n_samples"]),
    )
    out = _out_dir(args, "probe")
    _dump_resolved(cfg, out)
    seed = tc.seeds[0]
    record, rows = harness.probe_run(tc, seed, plan)
    harness.write_cells(out, [(tc, harness.aggregate([record]))])
    harness.write_probe_csv(out / "probe.csv", rows)
    print(_record_line(record))
    for row in rows:
        print(
            f"step {row.step}: trace {row.trace_cov:.6e}, ratio {row.enhancement_ratio:.4f} "
            f"(predicted {row.predicted_factor:.4f}), B_eff {row.b_eff:.1f}, "
            f"median excess kurtosis {row.median_excess_kurtosis:.4f}, "
            f"gradient diversity {row.grad_diversity:.4f}"
        )
    unreached = sorted({s for s in plan.steps if s > record.steps_taken})
    if unreached:
        steps = ", ".join(str(s) for s in unreached)
        print(f"probe steps {steps} not reached: run stopped at step {record.steps_taken}")
    print(f"results written to {out}")
    if record.status == harness.STATUS_DIVERGED:
        print("error: probed run diverged", file=sys.stderr)
        return 2
    return 0


def _cmd_verify_oracles(args) -> int:
    checks = oracles.run_oracle_suite(fast=args.fast)
    width = max(len(c.name) for c in checks)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status}  {check.name:<{width}}  measured {check.measured:.3e} "
            f"(bound {check.bound:.3e})  {check.detail}"
        )
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} oracle checks passed")
    return 3 if failed else 0


def _cmd_report(args) -> int:
    path = report.emit_report(args.results, args.out)
    print(f"report written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noise-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file of dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", help="output directory (default runs/<command>)")
        p.add_argument("--jobs", type=int, default=1, help="parallel seed workers")

    p_train = sub.add_parser("train", help="run the protocol over the configured seeds")
    common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_sb = sub.add_parser("sweep-b", help="batch-size sweep at fixed alpha")
    common(p_sb)
    p_sb.set_defaults(func=_cmd_sweep)

    p_sa = sub.add_parser("sweep-alpha", help="alpha sweep at fixed batch size")
    common(p_sa)
    p_sa.set_defaults(func=_cmd_sweep)

    p_probe = sub.add_parser("probe", help="train one seed and measure noise at checkpoints")
    common(p_probe)
    p_probe.set_defaults(func=_cmd_probe)

    p_verify = sub.add_parser("verify-oracles", help="run the noise-lab oracle suite")
    p_verify.add_argument("--fast", action="store_true", help="smaller Monte Carlo sizes")
    p_verify.set_defaults(func=_cmd_verify_oracles)

    p_report = sub.add_parser("report", help="render report.md from saved results")
    p_report.add_argument("--results", required=True, help="directory holding results")
    p_report.add_argument("--out", help="where to write the report (default: results dir)")
    p_report.set_defaults(func=_cmd_report)

    return parser


def parse_and_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
