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
from dataclasses import replace
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
    "data.subset": 10000,  # cap on training rows, either source; 0 -> all
    "synthetic.classes": 4,
    "synthetic.dim": 24,
    "synthetic.n_per_class": 320,
    "synthetic.noise_scale": 0.5,
    "synthetic.label_noise": 0.0,
    "synthetic.test_fraction": 0.25,
    "model.hidden": [100, 100],
    "optim.base": "adam",
    "optim.learning_rate": 0.001,
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
    "probe.steps": [0],
    "probe.interval": 0,
    "probe.n_samples": 200,
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
    """Merge the defaults, then the config file, then the --set overrides."""
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
    return merged


def _build_datasets(cfg: dict) -> tuple[dataio.Dataset, dataio.Dataset]:
    seed = cfg["root_seed"]
    if cfg["data.subset"] < 0:
        raise ConfigError(f"data.subset must be >= 0 (0 keeps the full set), got {cfg['data.subset']}")
    if cfg["data.source"] not in ("synthetic", "idx"):
        raise ConfigError(f"data.source must be 'synthetic' or 'idx', got {cfg['data.source']!r}")
    if cfg["data.source"] == "synthetic":
        rng = named_stream(seed, "synthetic", 2)
        centers = rng.standard_normal((cfg["synthetic.classes"], cfg["synthetic.dim"]))
        spec = dataio.SyntheticSpec(
            centers=centers,
            n_per_class=cfg["synthetic.n_per_class"],
            noise_scale=cfg["synthetic.noise_scale"],
            seed=seed,
            label_noise=cfg["synthetic.label_noise"],
        )
        full = dataio.make_synthetic(spec)
        train, test = dataio.split_holdout(full, cfg["synthetic.test_fraction"], seed)
    else:
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
    if 0 < cfg["data.subset"] < train.n_samples:
        train = dataio.subset(train, cfg["data.subset"], seed)
    return train, test


def build_train_config(cfg: dict) -> harness.TrainConfig:
    train, test = _build_datasets(cfg)
    model = MlpSpec(
        input_dim=train.input_dim,
        hidden=tuple(cfg["model.hidden"]),
        num_classes=train.num_classes,
    )
    ne = NEConfig(alpha=cfg["ne.alpha"], batch_size=cfg["ne.batch_size"], base=cfg["optim.base"])
    try:
        return harness.TrainConfig(
            model=model,
            ne=ne,
            train_data=train,
            test_data=test,
            learning_rate=cfg["optim.learning_rate"],
            l_star=cfg["train.l_star"],
            l_star_star=cfg["train.l_star_star"],
            eval_interval=cfg["train.eval_interval"],
            max_steps=cfg["train.max_steps"] or None,
            seeds=tuple(cfg["train.seeds"]),
            log_steps=cfg["train.log_steps"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _record_line(record: harness.RunRecord) -> str:
    if record.status == harness.STATUS_CONVERGED:
        tail = f"converged at {record.convergence_steps} steps"
    elif record.status == harness.STATUS_DIVERGED:
        tail = "diverged"
    else:
        tail = f"did not converge within {record.steps_taken} steps"
    return f"seed {record.seed}: {tail}, test accuracy {record.test_accuracy:.4f}"


def _cell_line(label: str, agg: harness.AggregateResult) -> str:
    return (
        f"{label}: accuracy {report.fmt_mean_std(agg.mean_accuracy, agg.std_accuracy, 4)}, "
        f"steps {report.fmt_mean_std(agg.mean_convergence, agg.std_convergence, 1)} "
        f"({agg.n_converged}/{len(agg.records)} converged)"
    )


def _cmd_run(args) -> int:
    """train, sweep-b, sweep-alpha and probe: build one plan, write
    resolved_config.json, run the plan once, write its results with
    report.write_results and print them."""
    cfg = resolve_config(args.config, args.set or [])
    tc = build_train_config(cfg)
    if args.sweep is not None:
        axis, grid_key = args.sweep
        plan = harness.SweepPlan.over(tc, axis, cfg[grid_key])
    elif args.command == "probe":
        probe = harness.ProbePlan(tuple(cfg["probe.steps"]), cfg["probe.interval"], cfg["probe.n_samples"])
        plan = harness.SweepPlan("single", (replace(tc, seeds=tc.seeds[:1], probe=probe),))
    else:
        plan = harness.SweepPlan("single", (tc,))
    out = Path(args.out) if args.out else Path("runs") / args.command
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    plan = plan.run(args.jobs)
    best = report.write_results(out, plan)
    if plan.axis == "single":
        (tc,), (agg,) = plan.configs, plan.cells
        for record in agg.records:
            print(_record_line(record))
        if tc.probe is None:
            print(_cell_line(f"B={tc.ne.batch_size} alpha={tc.ne.alpha:g}", agg))
        else:
            record = agg.records[0]
            for row in record.probes:
                print(
                    f"step {row.step}: trace {row.trace_cov:.6e}, ratio {row.enhancement_ratio:.4f} "
                    f"(predicted {row.predicted_factor:.4f}), B_eff {row.b_eff:.1f}, "
                    f"median excess kurtosis {row.median_excess_kurtosis:.4f}, "
                    f"gradient diversity {row.grad_diversity:.4f}"
                )
            unreached = sorted({s for s in tc.probe.steps if s > record.steps_taken})
            if unreached:
                steps = ", ".join(str(s) for s in unreached)
                print(f"probe steps {steps} not reached: run stopped at step {record.steps_taken}")
        failed = all(r.status == harness.STATUS_DIVERGED for r in agg.records)
        error = "every run diverged"
    else:
        for value, cell in zip(plan.values, plan.cells):
            print(_cell_line(f"{plan.column}={value:g}", cell))
        print(f"best {plan.column}: {best:g}" if best is not None else f"best {plan.column}: none (no finite cell)")
        failed, error = best is None, "no sweep cell produced a finite accuracy"
    print(f"results written to {out}")
    if failed:
        print(f"error: {error}", file=sys.stderr)
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

    # the run commands; a sweep names its harness.SWEEP_AXES field and its grid key
    for name, help_text, sweep in (
        ("train", "run the protocol over the configured seeds", None),
        ("sweep-b", "batch-size sweep at fixed alpha", ("batch_size", "sweep.b_grid")),
        ("sweep-alpha", "alpha sweep at fixed batch size", ("alpha", "sweep.alpha_grid")),
        ("probe", "train one seed and measure noise at checkpoints", None),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file of dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", help="output directory (default runs/<command>)")
        p.add_argument("--jobs", type=int, default=1, help="parallel (cell, seed) runs")
        p.set_defaults(func=_cmd_run, sweep=sweep)

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
    except (FileNotFoundError, FileExistsError, NotADirectoryError, ValueError) as exc:
        # ConfigError is a ValueError; an --out path that names a file, or
        # lies under one, fails mkdir with FileExistsError or NotADirectoryError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
