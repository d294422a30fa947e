"""Training protocol, multi-seed experiments and sweeps.

A run follows a fixed script: Glorot init from the run seed, base optimizer
on the combined two-minibatch gradient, full-train-loss evaluation every
eval_interval steps, one learning-rate halving the first time the loss
reaches l_star, and a stop with status "converged" when it reaches
l_star_star. Convergence time is counted in steps (one two-minibatch update
is one step). Runs that exhaust max_steps are kept with their accuracy;
runs whose gradients or loss go non-finite are marked diverged. Where the
config's probe plan asks, a run also measures its gradient noise before a
step, on the noise streams, so probing never moves the trajectory. A run
hands back everything it produced on its RunRecord; ``report.write_results``
writes it to disk.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .dataio import Dataset
from .model import MlpSpec, glorot_init, evaluate_accuracy, mean_loss
from .noiselab import ProbeRow, probe_noise
from .optim import BatchStreams, NEConfig, OptimizerState, StepLog, check_batch_size, check_learning_rate, training_step
from .rng import check_count, is_number

STATUS_CONVERGED = "converged"
STATUS_DID_NOT_CONVERGE = "did-not-converge"
STATUS_DIVERGED = "diverged"

# What a sweep may vary: each NEConfig field, with its results column. A grid
# value becomes the field's value by the field's own rule.
SWEEP_AXES: dict[str, str] = {"batch_size": "B", "alpha": "alpha"}


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Everything a run needs besides its seed, including where it probes
    its noise (``probe``; None probes nowhere) and whether it keeps a
    StepLog of every step (``log_steps``)."""

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
    probe: ProbePlan | None = None
    log_steps: bool = False

    def __post_init__(self) -> None:
        if not (is_number(self.l_star) and is_number(self.l_star_star) and 0.0 < self.l_star_star < self.l_star):
            raise ValueError("need 0 < l_star_star < l_star")
        object.__setattr__(self, "l_star", float(self.l_star))
        object.__setattr__(self, "l_star_star", float(self.l_star_star))
        object.__setattr__(self, "eval_interval", check_count("eval_interval", self.eval_interval, 1))
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", check_count("max_steps", self.max_steps, 1))
        object.__setattr__(self, "learning_rate", check_learning_rate(self.learning_rate))
        if len(self.seeds) < 1:
            raise ValueError("need at least one seed")
        object.__setattr__(self, "seeds", tuple(check_count("seed", s, 0) for s in self.seeds))
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {list(self.seeds)}")
        if self.model.input_dim != self.train_data.input_dim:
            raise ValueError("model input_dim does not match training data")
        if self.model.num_classes != self.train_data.num_classes:
            raise ValueError("model num_classes does not match training data")
        if self.model.num_classes != self.test_data.num_classes:
            raise ValueError("model num_classes does not match test data")
        if self.train_data.input_dim != self.test_data.input_dim:
            raise ValueError("train/test input_dim mismatch")
        check_batch_size(self.ne.batch_size, self.train_data.n_samples)
        if not isinstance(self.log_steps, (bool, np.bool_)):
            raise ValueError(f"log_steps must be a bool, got {self.log_steps!r}")
        object.__setattr__(self, "log_steps", bool(self.log_steps))

    def resolved_max_steps(self) -> int:
        """max_steps, defaulting to 200 epochs worth of steps."""
        if self.max_steps is not None:
            return self.max_steps
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
    """Which steps to probe noise at (at least one; TrainConfig.probe = None probes nowhere), and how hard."""

    steps: tuple[int, ...] = (0,)
    interval: int = 0
    n_samples: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(check_count("probe.steps entry", s, 0) for s in self.steps))
        object.__setattr__(self, "interval", check_count("probe.interval", self.interval, 0))
        if not self.steps and self.interval == 0:
            raise ValueError("the probe plan names no checkpoint: give probe.steps or a probe.interval > 0")
        object.__setattr__(self, "n_samples", check_count("probe.n_samples", self.n_samples, 2))

    def should_probe(self, step: int) -> bool:
        if step in self.steps:
            return True
        return self.interval > 0 and step % self.interval == 0


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one seeded run, with its noise probes and, when the config
    logs steps, its StepLog per step, both in step order. wall_time_s is
    informational only. probes and steps are left out of equality: a
    probe's kurtosis can be NaN, and a run is the same run whether or not it
    logged its steps.

    final_train_loss is the full-train loss at the last evaluation. A run
    that stops at max_steps between evaluations takes its last steps after
    that evaluation, so the loss is older than the final weights. Derived:
    convergence_steps, the steps taken by a converged run (None otherwise).
    """

    seed: int
    status: str
    test_accuracy: float
    lr_halved_at: int | None
    final_train_loss: float
    steps_taken: int
    wall_time_s: float = field(compare=False, default=0.0)
    probes: tuple[ProbeRow, ...] = field(compare=False, default=())
    steps: tuple[StepLog, ...] = field(compare=False, default=())

    convergence_steps = property(lambda self: self.steps_taken if self.status == STATUS_CONVERGED else None)


def train_run(cfg: TrainConfig, seed: int) -> RunRecord:
    """Run the full protocol once from the given seed, probing the noise at
    the steps ``cfg.probe`` plans and logging every step if ``cfg.log_steps``."""
    n = cfg.train_data.n_samples
    w = glorot_init(replace(cfg.model, seed=seed))
    state = OptimizerState(learning_rate=cfg.learning_rate)
    streams = BatchStreams.from_seed(n, cfg.ne.batch_size, seed)
    max_steps = cfg.resolved_max_steps()
    halved_at: int | None = None
    status = STATUS_DID_NOT_CONVERGE
    probe_rows: list[ProbeRow] = []
    step_logs: list[StepLog] = []
    last_loss = float("nan")
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run says so in its status
        while True:
            step = state.step_count
            if cfg.probe is not None and cfg.probe.should_probe(step):
                probe_rows.append(
                    probe_noise(
                        w,
                        cfg.train_data,
                        state.learning_rate,
                        cfg.ne.batch_size,
                        cfg.ne.alpha,
                        cfg.probe.n_samples,
                        seed,
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
                    break
                if halved_at is None and last_loss <= cfg.l_star:
                    state.learning_rate *= 0.5
                    halved_at = step
            if step >= max_steps:
                status = STATUS_DID_NOT_CONVERGE
                break
            try:
                w, log = training_step(w, cfg.train_data, cfg.ne, state, streams, log=cfg.log_steps)
            except FloatingPointError:
                status = STATUS_DIVERGED
                break
            if cfg.log_steps:
                step_logs.append(log)
    if status == STATUS_DIVERGED:
        accuracy = float("nan")
    else:
        accuracy = evaluate_accuracy(w, cfg.test_data)
    return RunRecord(
        seed=seed,
        status=status,
        test_accuracy=accuracy,
        lr_halved_at=halved_at,
        final_train_loss=last_loss,
        steps_taken=state.step_count,
        wall_time_s=time.perf_counter() - t0,
        probes=tuple(probe_rows),
        steps=tuple(step_logs),
    )


def _stat(fn, values: list) -> float:
    return float(fn(values)) if values else float("nan")


@dataclass(frozen=True)
class AggregateResult:
    """Multi-seed summary of one or more records. Derived: mean_accuracy and
    std_accuracy over non-diverged runs (did-not-converge runs keep their
    accuracy); mean_convergence, std_convergence and n_converged over
    converged runs only. Standard deviations use ddof=0, so a single run
    reports 0; a statistic over no run is NaN.
    """

    records: tuple[RunRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise ValueError("no records to aggregate")

    _accuracies = property(lambda self: [r.test_accuracy for r in self.records if r.status != STATUS_DIVERGED])
    _convergences = property(lambda self: [r.convergence_steps for r in self.records if r.status == STATUS_CONVERGED])
    mean_accuracy = property(lambda self: _stat(np.mean, self._accuracies))
    std_accuracy = property(lambda self: _stat(np.std, self._accuracies))
    mean_convergence = property(lambda self: _stat(np.mean, self._convergences))
    std_convergence = property(lambda self: _stat(np.std, self._convergences))
    n_converged = property(lambda self: len(self._convergences))


def _set_blas_threads(n: int) -> None:
    """Set the loaded OpenBLAS's thread count to ``n``; do nothing when no
    OpenBLAS setter is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn(n)
                return


_worker_configs: tuple[TrainConfig, ...] = ()  # set by _init_worker, in pool workers only


def _init_worker(threads: int, configs: tuple[TrainConfig, ...]) -> None:
    global _worker_configs
    _set_blas_threads(threads)
    _worker_configs = configs


def _worker_task(task: tuple[int, int]) -> RunRecord:
    return train_run(_worker_configs[task[0]], task[1])


def _dispatch(configs: tuple[TrainConfig, ...], jobs: int) -> list[AggregateResult]:
    """One aggregate per config over its seeds. The (cell, seed) tasks run in
    this process, or in one pool of ``min(jobs, tasks)`` > 1 spawned workers
    that each get ``configs`` once (cells sharing a Dataset pickle it once)
    and a share of the CPUs for BLAS threads (each taking all, two workers ran
    a 4-seed desk train 3x slower than one process on 2 CPUs). Each record
    comes back with its probes and step log, which the parent writes."""
    tasks = [(cell, seed) for cell, cfg in enumerate(configs) for seed in cfg.seeds]
    workers = min(jobs, len(tasks))
    if workers > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        spawn, initargs = multiprocessing.get_context("spawn"), (max(1, cpus // workers), configs)
        with ProcessPoolExecutor(workers, mp_context=spawn, initializer=_init_worker, initargs=initargs) as pool:
            records = iter(list(pool.map(_worker_task, tasks)))
    else:
        records = (train_run(configs[cell], seed) for cell, seed in tasks)
    return [AggregateResult([next(records) for _ in cfg.seeds]) for cfg in configs]


@dataclass(frozen=True)
class SweepPlan:
    """The plan of a run command: one base TrainConfig and a grid along
    ``axis``, a SWEEP_AXES field ("single" runs the base alone, with no
    grid). ``configs`` is derived, one per cell: the base set to each grid
    value by its NEConfig field's rule (``grid`` keeps the values that rule
    returns), so a sweep's cells differ only along its axis. ``run`` returns
    a copy holding one aggregate per cell. Rejected before any run: an unknown
    axis, a grid on a single plan, a sweep base that logs steps or probes,
    an empty or repeating grid, and cells other than one per config. Cell
    statistics want >= 2 completed runs each (a convention, not a check).
    """

    base: TrainConfig
    axis: str = "single"
    grid: tuple[float, ...] = ()
    cells: tuple[AggregateResult, ...] = ()
    configs: tuple[TrainConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grid = tuple(self.grid)
        if self.axis == "single":
            if grid:
                raise ValueError(f"a single plan takes no grid, got {list(grid)}")
            configs = (self.base,)
        elif self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown plan axis {self.axis!r}: a plan is 'single' or sweeps {' or '.join(SWEEP_AXES)}")
        elif self.base.log_steps or self.base.probe is not None:
            raise ValueError(
                "a sweep cannot log steps or probe: its cells share seeds, "
                "so their steps_seed<N>.csv and probe.csv files would collide"
            )
        elif not grid:
            raise ValueError(f"the {self.axis} grid must be non-empty")
        else:
            configs = tuple(replace(self.base, ne=replace(self.base.ne, **{self.axis: v})) for v in grid)
            grid = tuple(getattr(cfg.ne, self.axis) for cfg in configs)
            if len(set(grid)) < len(grid):
                raise ValueError(f"the {self.axis} grid must not repeat a value, got {list(grid)}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "configs", configs)
        if self.cells and len(self.cells) != len(configs):
            raise ValueError(f"a plan holds one cell per config: {len(configs)} configs, {len(self.cells)} cells")

    @property
    def column(self) -> str:
        """A sweep's results column (see SWEEP_AXES)."""
        return SWEEP_AXES[self.axis]

    @property
    def values(self) -> tuple[float, ...]:
        """A sweep's grid: each cell's setting along the axis."""
        return tuple(float(v) for v in self.grid)

    @property
    def fixed_value(self) -> float:
        """The setting a sweep holds fixed: the base's other SWEEP_AXES field."""
        other = next(a for a in SWEEP_AXES if a != self.axis)
        return float(getattr(self.base.ne, other))

    def run(self, jobs: int = 1) -> SweepPlan:
        """Repeat the protocol for every cell, in grid order, each over its
        seeds in seed-list order (see ``_dispatch`` for ``jobs``, a count >= 1)."""
        jobs = check_count("jobs", jobs, 1)
        return replace(self, cells=tuple(_dispatch(self.configs, jobs)))


def sweep_alpha(
    cfg: TrainConfig, alpha_grid: Iterable[float], b_fixed: int, jobs: int = 1
) -> SweepPlan:
    """Run the plan whose base is ``cfg`` at batch size ``b_fixed`` and whose
    grid is ``alpha_grid`` along alpha (see SweepPlan). Kept for the
    benchmark's desk-sweep workload and the harness tests."""
    cfg = replace(cfg, ne=replace(cfg.ne, batch_size=b_fixed))
    return SweepPlan(cfg, "alpha", alpha_grid).run(jobs)
