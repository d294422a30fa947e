"""noise-forge benchmark: one workload per invocation, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 35 --trace 1

It imports noise_forge from ./src of the checkout it sits in and nowhere else.
Untraced (--trace 0), it repeats the workload's set-up and then its timed
unit for about --seconds and reports the end-to-end metrics. Traced
(--trace 1), it alternates untraced and traced units, reports per-layer
metrics from the spans, and writes the spans to .perfbench/. Every line but
the last is a human-readable report; the last is one JSON object with keys
correct, attempted, failed and metrics. The exit code is 1 when any output
check failed and 2 when noise_forge cannot be found.

See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-ups run in slots: one before the first unit, which warms caches and
# lazy state and is reported apart, and one after each unit. setup_s is the
# median over the slots after units, so it spans the same stretch of time as
# the units: the host's speed drifts by tens of percent within a minute, and
# set-ups bunched at the start of a run mixed cold and warm ones and moved
# their median by 50% from run to run.
SETUP_SLOT_S = 0.25  # repeat cheap set-ups until a slot has spent this long
MAX_SETUPS_PER_SLOT = 1000
MIN_UNITS = 2
GEMM_SHAPE = (5000, 784, 500)  # the widest full-scale layer at B = 5000
GEMM_REPS = 7
# Span totals the traced run reports, as "<layer>.<function>.<key>"; see README.md.
SPAN_METRICS = (
    "dataio.make_synthetic.s",
    "dataio.split_holdout.s",
    "rng.named_stream.calls",
    "rng.named_stream.s",
    "model.glorot_init.s",
    "model.mean_loss.calls",
    "model.mean_loss.rows",
    "model.mean_loss.s",
    "model.evaluate_accuracy.s",
    "model.per_sample_grad_norms.s",
    "optim.training_step.calls",
    "optim.training_step.s",
    "optim.training_step.self_s",
    "optim.sample_minibatch_pair.s",
    "optim.ne_combine.s",
    "optim.adam_step.s",
    "noiselab.probe_noise.calls",
    "noiselab.probe_noise.s",
    "noiselab.probe_noise.self_s",
    "noiselab.exact_noise_trace.s",
    "noiselab.gradient_diversity.s",
    "harness.train_run.calls",
    "harness.train_run.s",
    "harness.train_run.self_s",
    "model.loss_and_grad.calls",
    "model.loss_and_grad.s",
    "model.loss_and_grad.rows",  # last, so optim.useful_grad_frac prints next to it
)
SPAN_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s"}


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; return that count.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _import_package():
    """Import noise_forge from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "noise_forge" / "__init__.py").is_file():
        sys.stderr.write(f"noise_forge sources not found under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import noise_forge

    if Path(noise_forge.__file__).resolve().parent != (src / "noise_forge").resolve():
        sys.stderr.write(f"imported noise_forge from {noise_forge.__file__}, not from {src}\n")
        sys.exit(2)
    return noise_forge


def _blas_threads() -> tuple[int | None, str]:
    """Thread count the loaded OpenBLAS reports, and where the number came from."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn()), f"measured ({symbol})"
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "requested (OPENBLAS_NUM_THREADS)"


def machine_info(nproc: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = _blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_source": source,
        "cpu": platform.machine(),
        "seed": seed,
    }


def _setup_slot(workload, seed: int, times: list[float]) -> object:
    """Set up at least once and until SETUP_SLOT_S is spent; append each time
    to ``times`` and return the last state (all are identical)."""
    spent = 0.0
    n = 0
    while n == 0 or (spent < SETUP_SLOT_S and n < MAX_SETUPS_PER_SLOT):
        state = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        state = workload.setup(seed)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        n += 1
    return state


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def gemm_gflops() -> float:
    """Measured float64 GEMM rate at GEMM_SHAPE (median of GEMM_REPS)."""
    import numpy as np

    m, k, n = GEMM_SHAPE
    gen = np.random.default_rng(0)
    a = gen.standard_normal((m, k))
    b = gen.standard_normal((k, n))
    a @ b
    times = [_timed(np.matmul, a, b)[0] for _ in range(GEMM_REPS)]
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def flops_per_row(dims: tuple[int, ...]) -> int:
    """Multiply-add flops of one row through loss_and_grad: forward, weight
    gradients, and input gradients of every layer but the first."""
    macs = [dims[i] * dims[i + 1] for i in range(len(dims) - 1)]
    return 2 * (2 * sum(macs) + sum(macs[1:]))


class Checks:
    """Counts output checks; each is one attempted operation for error_rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.failed += not ok
        print(f"check {'ok' if ok else 'FAILED'}: {what}")

    def add_unit(self, result, reference=None, what: str = "") -> None:
        """Record the unit's own checks, and that it reproduces ``reference``."""
        for ok, check in result.checks:
            self.add(ok, check)
        if reference is not None:
            self.add(result.fingerprint == reference.fingerprint, what)


def _line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<8} {note}".rstrip())


def run_untraced(workload, seed: int, seconds: float, checks: Checks) -> dict:
    first_times: list[float] = []
    setup_times: list[float] = []
    units: list[tuple[float, object]] = []
    t_start = time.perf_counter()
    state = _setup_slot(workload, seed, first_times)
    while True:
        wall, result = _timed(workload.unit, state, len(units))
        reference = units[0][1] if units and workload.repeats else None
        checks.add_unit(result, reference, f"unit {len(units)} reproduces unit 0 exactly")
        units.append((wall, result))
        walls = [w for w, _ in units]
        state = None  # so that only one set-up is alive at a time
        state = _setup_slot(workload, seed, setup_times)
        if len(units) >= MIN_UNITS and time.perf_counter() - t_start + statistics.median(walls) > seconds:
            break
    results = [r for _, r in units]
    work = sum(r.work for r in results)
    work_s = sum(r.work_s for r in results)
    setup_s = statistics.median(setup_times)
    wall_s = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"end-to-end ({len(units)} units of: {workload.unit_label})")
    _line("setup_s", setup_s, "s", f"median of {len(setup_times)} set-ups in {len(units)} slots after units, min {min(setup_times):.6g} max {max(setup_times):.6g}")
    _line("setup_first_slot_s", statistics.median(first_times), "s", f"median of {len(first_times)} set-ups before the first unit (warm-up)")
    _line("wall_s", wall_s, "s", f"median of {len(walls)} units, min {min(walls):.6g} max {max(walls):.6g}")
    if workload.name == "probe-60k":
        probe_times = [r.work_s for r in results]
        _line("probe_s", statistics.median(probe_times), "s", f"median of {len(probe_times)} checkpoints, {results[0].work} samples each")
    else:
        _line("steps_per_s", work / work_s, "1/s", f"{work} {workload.work_label} in {work_s:.6g} s")
    _line("peak_rss_mb", peak_rss_mb, "MB")
    values, run_checks = workload.summarize(results)
    for key, value in values.items():
        _line(key, value, "")
    for ok, what in run_checks:
        checks.add(ok, what)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "throughput": (work / work_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(workload, seed: int, seconds: float, checks: Checks, out_path: Path, machine: dict) -> dict:
    import spans as tr

    gflops_ref = gemm_gflops()
    tracer = tr.Tracer()
    untraced_setup, _ = _timed(workload.setup, seed)
    with tracer:
        setup_run = tracer.new_run()
        traced_setup, state = _timed(tracer.call, "bench.setup", workload.setup, (seed,), {})
    plain: list[float] = []  # untraced unit walls
    plain_results = []
    traced: list[float] = []
    unit_runs: list[int] = []
    t_start = time.perf_counter()
    while True:
        index = len(plain)
        wall, untraced_result = _timed(workload.unit, state, index)
        checks.add_unit(untraced_result)
        plain.append(wall)
        plain_results.append(untraced_result)
        with tracer:
            unit_runs.append(tracer.new_run())
            wall, result = _timed(tracer.call, "bench.unit", workload.unit, (state, index), {})
        checks.add_unit(result, untraced_result, f"traced unit {index} reproduces the untraced one exactly")
        traced.append(wall)
        if time.perf_counter() - t_start + plain[-1] + traced[-1] > seconds:
            break

    for ok, what in workload.summarize(plain_results)[1]:
        checks.add(ok, what)

    layers = tr.per_unit(tracer.spans, setup_run, unit_runs)
    metrics = {}
    for metric in SPAN_METRICS:
        name, key = metric.rsplit(".", 1)
        metrics[metric] = (layers.get(name, {}).get(key, 0), SPAN_UNITS[key])
    print(f"per-layer (one set-up plus one unit of: {workload.unit_label}; mean of {len(traced)} traced units)")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)

    over = f"gradients over {len(unit_runs)} traced units"
    use = tr.grad_use([s for s in tracer.spans if s.run_id in unit_runs])
    for alpha, (useful, computed) in sorted(use.items()):
        _line(f"optim.useful_grad_frac[alpha={alpha:g}]", useful / computed, "", f"{useful}/{computed} {over}")
    useful = sum(u for u, _ in use.values())
    computed = sum(c for _, c in use.values())
    if computed:
        _line("optim.useful_grad_frac", useful / computed, "", f"{useful}/{computed} {over}, all cells")
    else:
        _line("optim.useful_grad_frac", "n/a", "", "no training steps")

    dims = workload.dims(state)
    train = workload.train_set(state)
    lg_s, lg_rows = metrics["model.loss_and_grad.s"][0], metrics["model.loss_and_grad.rows"][0]
    traced_wall = traced_setup + statistics.mean(traced)
    plain_wall = untraced_setup + statistics.mean(plain)
    glue = sum(layers[name]["self_s"] for name in ("bench.setup", "bench.unit"))
    layer_self = sum(row["self_s"] for name, row in layers.items() if not name.startswith("bench."))
    derived = {
        "model.loss_and_grad.gflops_per_s": (
            lg_rows * flops_per_row(dims) / lg_s / 1e9 if lg_s > 0 else 0.0,
            "GFLOP/s",
            f"computed: {flops_per_row(dims)} flop/row over dims {list(dims)}",
        ),
        "ref.gemm_f64.gflops_per_s": (
            gflops_ref,
            "GFLOP/s",
            f"measured: float64 {'x'.join(map(str, GEMM_SHAPE))} matmul, median of {GEMM_REPS}",
        ),
        "dataio.train_bytes": (int(train.inputs.nbytes + train.labels.nbytes), "bytes", "training inputs and labels"),
        "trace.wall_s": (traced_wall, "s", "traced set-up plus mean traced unit"),
        "trace.untraced_wall_s": (plain_wall, "s", "untraced set-up plus mean untraced unit"),
        "trace.overhead_s": (traced_wall - plain_wall, "s", ""),
        "trace.unattributed_s": (glue, "s", "self time of the benchmark's root spans"),
    }
    for name, (value, unit, note) in derived.items():
        _line(name, value, unit, note)
        metrics[name] = (value, unit)
    print(f"self-time accounting: layers {layer_self:.6g} s + benchmark glue {glue:.6g} s = {layer_self + glue:.6g} s; traced wall {traced_wall:.6g} s")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({"machine": machine, "workload": workload.name, "setup_run": setup_run,
                   "unit_runs": unit_runs, "spans": tr.to_records(tracer.spans)}, fh)
    print(f"spans: {len(tracer.spans)} written to {out_path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = _limit_blas_threads()
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    machine = machine_info(nproc, args.seed)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: {workload.why}")

    checks = Checks()
    if args.trace:
        out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.json"
        metrics = run_traced(workload, args.seed, args.seconds, checks, out, machine)
        wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    else:
        metrics = run_untraced(workload, args.seed, args.seconds, checks)
        wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    failed = checks.failed
    _line("error_rate", failed / checks.attempted, "", f"{failed} failed of {checks.attempted} checks")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
