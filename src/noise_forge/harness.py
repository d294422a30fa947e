"""Training protocol, multi-seed experiments, sweeps, and CSV output.

A run follows a fixed script: Glorot init from the run seed, base optimizer
on the combined two-minibatch gradient, full-train-loss evaluation every
eval_interval steps, one learning-rate halving the first time the loss
reaches l_star, and a stop with status "converged" when it reaches
l_star_star. Convergence time is counted in steps (one two-minibatch update
is one step). Runs that exhaust max_steps are kept with their accuracy;
runs whose gradients or loss go non-finite are marked diverged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dataio import Dataset
from .model import MlpSpec, glorot_init, evaluate_accuracy, mean_loss
from .noiselab import ProbeRow, probe_noise
from .optim import BatchStreams, NEConfig, OptimizerState, StepLog, training_step

STATUS_CONVERGED = "converged"
STATUS_DID_NOT_CONVERGE = "did-not-converge"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Everything a run needs besides its seed."""

    model: MlpSpec
    ne: NEConfig
    train_data: Dataset
    test_data: Dataset
    learning_rate: float = 1e-3
    l_star: float = 0.01
    l_star_star: float = 0.001
    eval_interval: int = 50
    max_steps: int | None = None
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        if not (0.0 < self.l_star_star < self.l_star):
            raise ValueError("need 0 < l_star_star < l_star")
        if int(self.eval_interval) < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.max_steps is not None and int(self.max_steps) < 1:
            raise ValueError("max_steps must be >= 1 when given")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if len(self.seeds) < 1:
            raise ValueError("need at least one seed")
        if self.model.input_dim != self.train_data.input_dim:
            raise ValueError("model input_dim does not match training data")
        if self.model.num_classes != self.train_data.num_classes:
            raise ValueError("model num_classes does not match training data")
        if self.train_data.input_dim != self.test_data.input_dim:
            raise ValueError("train/test input_dim mismatch")
        if self.ne.batch_size > self.train_data.n_samples:
            raise ValueError("batch_size exceeds training set size")

    def resolved_max_steps(self) -> int:
        """max_steps, defaulting to 200 epochs worth of steps."""
        if self.max_steps is not None:
            return int(self.max_steps)
        return 200 * max(1, self.train_data.n_samples // self.ne.batch_size)


def config_hash(cfg: TrainConfig) -> str:
    """Short stable digest identifying the run configuration (seed excluded)."""
    payload = {
        "dims": list(cfg.model.dims),
        "alpha": cfg.ne.alpha,
        "batch_size": cfg.ne.batch_size,
        "base": cfg.ne.base,
        "mode": cfg.ne.mode,
        "learning_rate": cfg.learning_rate,
        "l_star": cfg.l_star,
        "l_star_star": cfg.l_star_star,
        "eval_interval": cfg.eval_interval,
        "max_steps": cfg.max_steps,
        "n_train": cfg.train_data.n_samples,
        "n_test": cfg.test_data.n_samples,
        "num_classes": cfg.train_data.num_classes,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class ProbePlan:
    """Which steps to probe noise at, and how hard."""

    steps: tuple[int, ...] = (0,)
    interval: int = 0
    n_samples: int = 200

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.steps):
            raise ValueError(f"probe.steps entries must be >= 0, got {list(self.steps)}")
        if self.interval < 0:
            raise ValueError(f"probe.interval must be >= 0, got {self.interval}")
        if self.n_samples < 2:
            raise ValueError(f"probe.n_samples must be >= 2, got {self.n_samples}")

    def should_probe(self, step: int) -> bool:
        if step in self.steps:
            return True
        return self.interval > 0 and step % self.interval == 0


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one seeded run. wall_time_s is informational only."""

    seed: int
    status: str
    test_accuracy: float
    convergence_steps: int | None
    lr_halved_at: int | None
    final_train_loss: float
    steps_taken: int
    wall_time_s: float = field(compare=False, default=0.0)


def _run(
    cfg: TrainConfig,
    seed: int,
    step_writer: Callable[[StepLog], None] | None = None,
    probe_plan: ProbePlan | None = None,
) -> tuple[RunRecord, list[ProbeRow]]:
    n = cfg.train_data.n_samples
    w = glorot_init(replace(cfg.model, seed=seed))
    state = OptimizerState(learning_rate=cfg.learning_rate)
    streams = BatchStreams.from_seed(n, cfg.ne.batch_size, seed)
    max_steps = cfg.resolved_max_steps()
    halved_at: int | None = None
    conv: int | None = None
    status = STATUS_DID_NOT_CONVERGE
    probe_rows: list[ProbeRow] = []
    last_loss = float("nan")
    t0 = time.perf_counter()
    while True:
        step = state.step_count
        if probe_plan is not None and probe_plan.should_probe(step):
            probe_rows.append(
                probe_noise(
                    w,
                    cfg.train_data,
                    state.learning_rate,
                    cfg.ne.batch_size,
                    cfg.ne.alpha,
                    probe_plan.n_samples,
                    seed,
                    step=step,
                    stream_index=step,
                )
            )
        if step % cfg.eval_interval == 0:
            last_loss = mean_loss(w, cfg.train_data)
            if not np.isfinite(last_loss):
                status = STATUS_DIVERGED
                break
            if last_loss <= cfg.l_star_star:
                status = STATUS_CONVERGED
                conv = step
                break
            if halved_at is None and last_loss <= cfg.l_star:
                state.learning_rate *= 0.5
                halved_at = step
        if step >= max_steps:
            status = STATUS_DID_NOT_CONVERGE
            break
        try:
            w, log = training_step(
                w, cfg.train_data, cfg.ne, state, streams, log=step_writer is not None
            )
        except FloatingPointError:
            status = STATUS_DIVERGED
            break
        if step_writer is not None:
            step_writer(log)
    if status == STATUS_DIVERGED:
        accuracy = float("nan")
    else:
        accuracy = evaluate_accuracy(w, cfg.test_data)
    record = RunRecord(
        seed=seed,
        status=status,
        test_accuracy=accuracy,
        convergence_steps=conv,
        lr_halved_at=halved_at,
        final_train_loss=last_loss,
        steps_taken=state.step_count,
        wall_time_s=time.perf_counter() - t0,
    )
    return record, probe_rows


def train_run(
    cfg: TrainConfig, seed: int, step_writer: Callable[[StepLog], None] | None = None
) -> RunRecord:
    """Run the full protocol once from the given seed."""
    record, _ = _run(cfg, seed, step_writer=step_writer)
    return record


def probe_run(
    cfg: TrainConfig, seed: int, plan: ProbePlan
) -> tuple[RunRecord, list[ProbeRow]]:
    """train_run plus noise probes at the planned checkpoints."""
    return _run(cfg, seed, probe_plan=plan)


@dataclass(frozen=True)
class AggregateResult:
    """Multi-seed summary.

    Accuracy statistics cover non-diverged runs (did-not-converge runs keep
    their accuracy); convergence statistics cover converged runs only.
    Standard deviations use ddof=0, so a single run reports 0.
    """

    records: tuple[RunRecord, ...]
    mean_accuracy: float
    std_accuracy: float
    mean_convergence: float
    std_convergence: float
    n_converged: int
    n_did_not_converge: int
    n_diverged: int
    status: str  # "ok" or "all-diverged"


def aggregate(records: Iterable[RunRecord]) -> AggregateResult:
    records = tuple(records)
    if not records:
        raise ValueError("no records to aggregate")
    accs = [r.test_accuracy for r in records if r.status != STATUS_DIVERGED]
    convs = [r.convergence_steps for r in records if r.status == STATUS_CONVERGED]
    n_div = sum(1 for r in records if r.status == STATUS_DIVERGED)
    n_dnc = sum(1 for r in records if r.status == STATUS_DID_NOT_CONVERGE)
    return AggregateResult(
        records=records,
        mean_accuracy=float(np.mean(accs)) if accs else float("nan"),
        std_accuracy=float(np.std(accs)) if accs else float("nan"),
        mean_convergence=float(np.mean(convs)) if convs else float("nan"),
        std_convergence=float(np.std(convs)) if convs else float("nan"),
        n_converged=len(convs),
        n_did_not_converge=n_dnc,
        n_diverged=n_div,
        status="all-diverged" if n_div == len(records) else "ok",
    )


AGGREGATE_COLUMNS = ("B", "alpha", "mean_acc", "std_acc", "mean_steps", "std_steps", "n_converged")


def aggregate_row(b: int, alpha: float, agg: AggregateResult) -> dict:
    """One aggregate.csv row keyed by column: the dict report.load_unit reads back."""
    return dict(
        zip(
            AGGREGATE_COLUMNS,
            (b, alpha, agg.mean_accuracy, agg.std_accuracy, agg.mean_convergence, agg.std_convergence, agg.n_converged),
        )
    )


def _train_one(args: tuple[TrainConfig, int]) -> RunRecord:
    cfg, seed = args
    return train_run(cfg, seed)


def repeat_runs(
    cfg: TrainConfig, seeds: Iterable[int] | None = None, jobs: int = 1
) -> AggregateResult:
    """Run the protocol once per seed and aggregate. Results are ordered by
    the seed list regardless of scheduling."""
    seed_list = list(cfg.seeds if seeds is None else seeds)
    if not seed_list:
        raise ValueError("need at least one seed")
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_train_one, [(cfg, s) for s in seed_list]))
    else:
        records = [train_run(cfg, s) for s in seed_list]
    return aggregate(records)


@dataclass(frozen=True)
class SweepResult:
    """Aggregates along one axis (batch_size or alpha), other settings fixed.

    Cell statistics are meant to be read with >= 2 completed runs behind
    them; that is a reporting convention, not a hard precondition (a grid
    of one with one seed is still a valid, if noisy, sweep).
    """

    axis: str
    values: tuple[float, ...]
    fixed_value: float
    cells: tuple[AggregateResult, ...]

    def rows(self) -> list[dict]:
        """One aggregate row per cell, in grid order (see aggregate_row)."""
        if self.axis == "batch_size":
            return [aggregate_row(int(v), self.fixed_value, c) for v, c in zip(self.values, self.cells)]
        return [aggregate_row(int(self.fixed_value), v, c) for v, c in zip(self.values, self.cells)]


@dataclass(frozen=True)
class SweepPlan:
    """One TrainConfig per grid cell along one axis, the other setting fixed.

    Building a plan builds, and so checks, every cell's config, so a bad
    grid is rejected before any run and before any output is written.
    """

    axis: str
    values: tuple[float, ...]
    fixed_value: float
    configs: tuple[TrainConfig, ...]

    @classmethod
    def over_batch(
        cls, cfg: TrainConfig, b_grid: Iterable[int], alpha_fixed: float = 1.0
    ) -> SweepPlan:
        values = [int(b) for b in b_grid]
        if not values:
            raise ValueError("b_grid must be non-empty")
        configs = [replace(cfg, ne=replace(cfg.ne, batch_size=b, alpha=float(alpha_fixed))) for b in values]
        return cls("batch_size", tuple(float(v) for v in values), float(alpha_fixed), tuple(configs))

    @classmethod
    def over_alpha(
        cls, cfg: TrainConfig, alpha_grid: Iterable[float], b_fixed: int
    ) -> SweepPlan:
        values = [float(a) for a in alpha_grid]
        if not values:
            raise ValueError("alpha_grid must be non-empty")
        configs = [replace(cfg, ne=replace(cfg.ne, batch_size=int(b_fixed), alpha=a)) for a in values]
        return cls("alpha", tuple(values), float(b_fixed), tuple(configs))

    def run(self, jobs: int = 1) -> SweepResult:
        """Repeat the protocol for every cell, in grid order."""
        cells = tuple(repeat_runs(cell_cfg, jobs=jobs) for cell_cfg in self.configs)
        return SweepResult(self.axis, self.values, self.fixed_value, cells)


def sweep_batch(
    cfg: TrainConfig, b_grid: Iterable[int], alpha_fixed: float = 1.0, jobs: int = 1
) -> SweepResult:
    """Repeat the protocol for each batch size at fixed alpha (see SweepPlan)."""
    return SweepPlan.over_batch(cfg, b_grid, alpha_fixed).run(jobs)


def sweep_alpha(
    cfg: TrainConfig, alpha_grid: Iterable[float], b_fixed: int, jobs: int = 1
) -> SweepResult:
    """Repeat the protocol for each alpha at fixed batch size (see SweepPlan)."""
    return SweepPlan.over_alpha(cfg, alpha_grid, b_fixed).run(jobs)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_step_log(path: str | Path, logs: Iterable[StepLog]) -> None:
    _write_csv(path, [f.name for f in fields(StepLog)], map(astuple, logs))


def write_probe_csv(path: str | Path, rows: Iterable[ProbeRow]) -> None:
    header = ["B" if f.name == "batch_size" else f.name for f in fields(ProbeRow)]
    _write_csv(path, header, map(astuple, rows))


def write_cells(out: str | Path, cells: Iterable[tuple[TrainConfig, AggregateResult]]) -> None:
    """Write a results directory's runs.csv (one row per seed) and
    aggregate.csv (one row per cell), cells in the given order.

    Each cell's B, alpha and config_hash come from its own config, so these
    two files are written here and nowhere else.
    """
    out = Path(out)
    cells = list(cells)
    runs = []
    for cfg, agg in cells:
        h, b, a = config_hash(cfg), cfg.ne.batch_size, cfg.ne.alpha
        runs.extend(
            (h, b, a, r.seed, r.test_accuracy, r.convergence_steps, r.lr_halved_at, r.status)
            for r in agg.records
        )
    _write_csv(
        out / "runs.csv",
        ["config_hash", "B", "alpha", "seed", "test_accuracy", "convergence_steps", "lr_halved_at", "status"],
        runs,
    )
    _write_csv(
        out / "aggregate.csv",
        AGGREGATE_COLUMNS,
        (aggregate_row(cfg.ne.batch_size, cfg.ne.alpha, agg).values() for cfg, agg in cells),
    )
