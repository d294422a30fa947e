"""Release checks: one test per shipping criterion, one summary line each.

Every test gathers its own evidence (enumeration oracles, scripted
protocols, real sweeps), records a PASS/FAIL/SKIP line for the terminal
summary via acceptance_log.record_acceptance, and then asserts. The Monte Carlo
ratio check and the desk-scale directional run each take on the order of a
minute; everything else is fast.

The directional run on real image data only executes when
$NOISE_FORGE_DATA_DIR points at the IDX files; without it that check is
recorded as SKIP and a synthetic stand-in exercises the identical protocol.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from acceptance_log import record_acceptance

import noise_forge.harness as harness
from noise_forge.cli import DATA_DIR_ENV, build_train_config, resolve_config
from noise_forge.dataio import Dataset, SyntheticSpec, make_synthetic
from noise_forge.harness import (
    STATUS_CONVERGED,
    ProbePlan,
    TrainConfig,
    config_hash,
)
from noise_forge.model import (
    MlpSpec,
    ParamVector,
    glorot_init,
    loss_and_grad,
    mean_loss,
    per_sample_grad_matrix,
)
from noise_forge.noiselab import (
    effective_batch,
    enhancement_factor,
    enumerate_ne_noise_covariance_from_grads,
    enumerate_noise_covariance_from_grads,
    exact_noise_trace,
    excess_kurtosis,
    noise_covariance_from_grads,
    sample_ne_noise,
)
from noise_forge.optim import (
    BatchStreams,
    NEConfig,
    OptimizerState,
    StepLog,
    sample_minibatch_pair,
    training_step,
)
from noise_forge.report import alpha_flags, emit_report, load_unit, write_results


def blob_dataset(seed, n_per_class, classes, dim, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(classes, dim))
    return make_synthetic(SyntheticSpec(centers, n_per_class, noise, seed))


def rel_fro(a, b):
    """Relative Frobenius error; plain error when the reference is zero."""
    err = float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
    denom = float(np.linalg.norm(np.asarray(b)))
    return err / denom if denom > 0.0 else err


# Settings for the desk-scale directional run: four well separated but
# overlapping Gaussian classes, a net with enough capacity to reach the
# convergence threshold, and a batch size small enough that the noise level
# actually matters. Validated to converge on every seed within the step cap.
DESK_SCALE_SETS = [
    "synthetic.classes=4",
    "synthetic.dim=16",
    "synthetic.n_per_class=200",
    "synthetic.noise_scale=0.9",
    "model.hidden=[128,128]",
    "ne.batch_size=100",
    "optim.learning_rate=0.003",
    "train.eval_interval=25",
    "train.max_steps=12000",
    "train.seeds=[0,1,2,3,4]",
]


def test_c1_enumeration_matches_closed_form_covariance():
    """Subset enumeration equals the closed-form noise covariance."""
    toys = [
        (blob_dataset(seed=1, n_per_class=4, classes=2, dim=3), MlpSpec(3, (), 2, seed=1)),
        (blob_dataset(seed=2, n_per_class=3, classes=3, dim=4), MlpSpec(4, (5,), 3, seed=2)),
        (blob_dataset(seed=3, n_per_class=5, classes=2, dim=2), MlpSpec(2, (3,), 2, seed=3)),
        (blob_dataset(seed=4, n_per_class=3, classes=4, dim=5), MlpSpec(5, (), 4, seed=4)),
        (blob_dataset(seed=5, n_per_class=2, classes=3, dim=3), MlpSpec(3, (4, 3), 3, seed=5)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for ds, spec in toys:
        grads = per_sample_grad_matrix(glorot_init(spec), ds)
        for b in (1, 2, 4, ds.n_samples):
            enum = enumerate_noise_covariance_from_grads(grads, b)
            exact = noise_covariance_from_grads(grads, b)
            worst = max(worst, rel_fro(enum, exact))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    record_acceptance(
        1,
        "enumerated noise covariance matches closed form",
        ok,
        f"max rel err {worst:.2e} over {len(toys)} problems x 4 batch sizes, {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_c2_enhanced_noise_scales_by_predicted_factor():
    """Sampled and enumerated enhanced noise both match f(alpha) x vanilla."""
    alphas = (1.5, 2.0, 2.5)
    t0 = time.perf_counter()

    # Monte Carlo: trace ratio against the exact vanilla trace.
    ds_mc = blob_dataset(seed=6, n_per_class=16, classes=4, dim=6)
    w_mc = glorot_init(MlpSpec(6, (8,), 4, seed=6))
    b = 8
    baseline = exact_noise_trace(w_mc, ds_mc, b)
    worst_mc = 0.0
    for alpha in alphas:
        samples = sample_ne_noise(w_mc, ds_mc, b, alpha, n_samples=100_000, seed=17)
        ratio = samples.var(axis=0, ddof=1).sum() / baseline
        worst_mc = max(worst_mc, abs(ratio / enhancement_factor(alpha) - 1.0))

    # Exact: enumerate every ordered pair of size-2 subsets of 8 samples.
    ds_en = blob_dataset(seed=1, n_per_class=4, classes=2, dim=3)
    w_en = glorot_init(MlpSpec(3, (), 2, seed=1))
    grads_en = per_sample_grad_matrix(w_en, ds_en)
    vanilla = noise_covariance_from_grads(grads_en, 2)
    worst_en = 0.0
    for alpha in alphas:
        pair = enumerate_ne_noise_covariance_from_grads(grads_en, 2, alpha)
        worst_en = max(worst_en, rel_fro(pair, enhancement_factor(alpha) * vanilla))

    elapsed = time.perf_counter() - t0
    ok = worst_mc <= 0.05 and worst_en <= 1e-10 and elapsed < 60.0
    record_acceptance(
        2,
        "enhanced noise covariance scales by alpha^2 + (1-alpha)^2",
        ok,
        f"MC ratio off by {worst_mc:.3%} at n=1e5, pair enumeration rel err {worst_en:.2e}, {elapsed:.1f}s",
    )
    assert worst_mc <= 0.05
    assert worst_en <= 1e-10
    assert elapsed < 60.0


def test_c3_effective_batch_reference_points():
    """Hand values of B / (alpha^2 + (1-alpha)^2), exact equality."""
    ok = (
        effective_batch(5000, 2.0) == 1000.0
        and effective_batch(2000, 1.5) == 800.0
        and all(effective_batch(b, 1.0) == float(b) for b in (1, 7, 32, 900, 5000))
    )
    record_acceptance(3, "effective batch size hand values", ok, "B_eff(5000, 2) = 1000, B_eff(2000, 1.5) = 800")
    assert effective_batch(5000, 2.0) == 1000.0
    assert effective_batch(2000, 1.5) == 800.0
    for b in (1, 7, 32, 900, 5000):
        assert effective_batch(b, 1.0) == float(b)


def test_c4_alpha_one_trajectory_is_bit_identical_to_plain():
    """500 adam steps: pairwise at alpha=1 equals the plain optimizer bitwise.

    The plain side is written out here: grad(B) from loss_and_grad on the
    primary batch of each drawn pair, then the textbook Adam update, with
    no training_step or adam_step, on identically seeded streams.
    """
    ds = blob_dataset(seed=21, n_per_class=64, classes=4, dim=10)
    spec = MlpSpec(10, (16, 16), 4, seed=3)
    w_step = glorot_init(spec)
    cfg = NEConfig(alpha=1.0, batch_size=16, base="adam")
    state = OptimizerState(learning_rate=1e-3)
    streams = BatchStreams.from_seed(ds.n_samples, 16, seed=7)

    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    w_plain = w_step.values.copy()
    m, v = np.zeros(w_plain.size), np.zeros(w_plain.size)
    plain_streams = BatchStreams.from_seed(ds.n_samples, 16, seed=7)
    identical = 0
    for t in range(1, 501):
        w_step, _ = training_step(w_step, ds, cfg, state, streams)
        primary, _ = sample_minibatch_pair(plain_streams)
        _, g = loss_and_grad(ParamVector(w_plain, spec.dims), ds, primary)
        m = beta1 * m + (1.0 - beta1) * g.values
        v = beta2 * v + (1.0 - beta2) * g.values**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        w_plain = w_plain - lr * m_hat / (np.sqrt(v_hat) + eps)
        if w_step.values.tobytes() != w_plain.tobytes():
            break
        identical += 1
    ok = identical == 500
    record_acceptance(4, "alpha=1 trajectory bit-identical to plain optimizer", ok, f"{identical}/500 steps identical")
    assert identical == 500


def test_c5_gradient_check_on_image_sized_network():
    """Central differences confirm the analytic gradient on a 784-8-8-10 net."""
    rng = np.random.default_rng(404)
    ds = Dataset(rng.random((5, 784)), rng.integers(0, 10, size=5), 10)
    w = glorot_init(MlpSpec(784, (8, 8), 10, seed=5))
    _, grad = loss_and_grad(w, ds)
    eps = 1e-5
    base = w.values.copy()
    fd = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += eps
        minus = base.copy()
        minus[i] -= eps
        lp = mean_loss(ParamVector(plus, w.dims), ds)
        lm = mean_loss(ParamVector(minus, w.dims), ds)
        fd[i] = (lp - lm) / (2 * eps)
    rel = float(np.linalg.norm(fd - grad.values) / np.linalg.norm(grad.values))
    ok = rel < 1e-6
    record_acceptance(5, "finite-difference gradient check, 784-8-8-10 net", ok, f"rel err {rel:.2e} over {base.size} params")
    assert rel < 1e-6


def test_c6_noise_is_mean_zero_and_update_is_unbiased():
    """Over all subsets of N=6, B=2: E[xi] = 0 and E[combined grad] = full grad."""
    ds = blob_dataset(seed=33, n_per_class=3, classes=2, dim=3)
    w = glorot_init(MlpSpec(3, (4,), 2, seed=9))
    grads = per_sample_grad_matrix(w, ds)
    idx = np.array(list(itertools.combinations(range(ds.n_samples), 2)), dtype=np.int64)
    subset_means = grads[idx].mean(axis=1)

    mean_noise = subset_means.mean(axis=0) - grads.mean(axis=0)
    noise_norm = float(np.linalg.norm(mean_noise))

    alpha = 2.0
    pair_mean = alpha * subset_means.mean(axis=0) + (1.0 - alpha) * subset_means.mean(axis=0)
    _, full = loss_and_grad(w, ds)
    bias = float(np.abs(pair_mean - full.values).max())

    ok = noise_norm <= 1e-12 and bias <= 1e-10
    record_acceptance(
        6,
        "minibatch noise mean-zero, combined update unbiased",
        ok,
        f"|E[xi]| = {noise_norm:.2e}, max grad bias {bias:.2e} at alpha=2",
    )
    assert noise_norm <= 1e-12
    assert bias <= 1e-10


def test_c7_protocol_halves_once_and_stops_at_threshold(monkeypatch):
    """Scripted losses drive the schedule: one halving at L*, stop at L**."""
    train = blob_dataset(seed=41, n_per_class=8, classes=2, dim=3)
    test = blob_dataset(seed=42, n_per_class=4, classes=2, dim=3)
    cfg = TrainConfig(
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
    losses = iter([0.5, 0.008, 0.004, 0.002, 0.0009])
    monkeypatch.setattr(harness, "mean_loss", lambda w, ds, chunk_size=4096: next(losses))

    def fake_step(w, ds, ne_cfg, state, streams, log=False):
        lr = state.learning_rate
        state.step_count += 1
        return w, StepLog(state.step_count, 0, 0.5, 1.0, None, 1.0, lr)

    monkeypatch.setattr(harness, "training_step", fake_step)
    record = harness.train_run(replace(cfg, log_steps=True), seed=0)
    lrs = [log.lr for log in record.steps]
    single_halving = lrs == [0.1] * 100 + [0.05] * 300
    ok = (
        record.status == STATUS_CONVERGED
        and record.convergence_steps == 400
        and record.lr_halved_at == 100
        and single_halving
    )
    record_acceptance(
        7,
        "training protocol: single halving at L*, stop at L**",
        ok,
        f"halved at {record.lr_halved_at}, converged at {record.convergence_steps}",
    )
    assert record.status == STATUS_CONVERGED
    assert record.convergence_steps == 400
    assert record.lr_halved_at == 100
    assert single_halving


def test_c8_desk_scale_directional_run_synthetic(tmp_path):
    """Full desk-scale protocol on synthetic data: sweep, flags, report."""
    t0 = time.perf_counter()
    cfg = resolve_config(None, list(DESK_SCALE_SETS))
    tc = build_train_config(cfg)
    alpha_plan = harness.SweepPlan.over(tc, "alpha", [1.0, 1.5, 2.0])
    batch_plan = harness.SweepPlan.over(tc, "batch_size", [50, 100])
    # The batch sweep's B = 100 cell is the alpha sweep's alpha = 1 cell: same
    # config, same seeds, so it is run once and shared.
    shared = alpha_plan.configs[0]
    assert config_hash(batch_plan.configs[1]) == config_hash(shared)
    assert batch_plan.configs[1].seeds == shared.seeds
    jobs = min(2, len(os.sched_getaffinity(0)))  # the runs go through the worker pool
    alpha_sweep = alpha_plan.run(jobs=jobs)
    assert [r.seed for r in alpha_sweep.cells[0].records] == list(shared.seeds)
    batch_sweep = replace(
        batch_plan,
        cells=(harness.SweepPlan("single", batch_plan.configs[:1]).run(jobs=jobs).cells[0], alpha_sweep.cells[0]),
    )
    elapsed = time.perf_counter() - t0

    n_seeds = len(tc.seeds)
    all_converged = all(
        cell.n_converged == n_seeds for cell in alpha_sweep.cells + batch_sweep.cells
    )

    results = tmp_path / "results"
    write_results(results / "sweep-alpha", alpha_sweep)
    write_results(results / "sweep-b", batch_sweep)
    flags = alpha_flags(load_unit(results / "sweep-alpha", results).rows)
    report_path = emit_report(results)
    text = report_path.read_text(encoding="utf-8")
    flags_in_report = (
        "flag accuracy-best-enhanced-not-worse: PASS" in text
        and "flag time-nondecreasing-in-alpha: PASS" in text
    )

    accs = [cell.mean_accuracy for cell in alpha_sweep.cells]
    steps = [cell.mean_convergence for cell in alpha_sweep.cells]
    detail = (
        f"acc {accs[0]:.4f}/{accs[1]:.4f}/{accs[2]:.4f}, "
        f"steps {steps[0]:.0f}/{steps[1]:.0f}/{steps[2]:.0f} for alpha 1/1.5/2, {elapsed:.0f}s"
    )
    ok = (
        all_converged
        and flags["accuracy-best-enhanced-not-worse"] is True
        and flags["time-nondecreasing-in-alpha"] is True
        and flags_in_report
        and (results / "figures" / "fig_sweep-alpha_accuracy.csv").is_file()
        and (results / "figures" / "fig_tradeoff_scatter.csv").is_file()
    )
    record_acceptance(8, "desk-scale directional run (synthetic stand-in)", ok, detail)
    assert all_converged
    assert flags["accuracy-best-enhanced-not-worse"] is True
    assert flags["time-nondecreasing-in-alpha"] is True
    assert flags_in_report


def test_c8_report_is_emitted_even_when_direction_fails(tmp_path):
    """A losing alpha sweep still renders a report, with the failure flagged."""
    results = tmp_path / "results"
    (results / "sweep-b").mkdir(parents=True)
    (results / "sweep-alpha").mkdir(parents=True)
    agg_header = "B,alpha,mean_acc,std_acc,mean_steps,std_steps,n_converged\n"
    (results / "sweep-b" / "aggregate.csv").write_text(
        agg_header + "50,1.0,0.91,0.01,400.0,10.0,5\n100,1.0,0.9,0.01,300.0,10.0,5\n"
    )
    (results / "sweep-alpha" / "aggregate.csv").write_text(
        agg_header + "100,1.0,0.9,0.01,300.0,10.0,5\n100,2.0,0.85,0.01,200.0,10.0,5\n"
    )
    report_path = emit_report(results)
    text = report_path.read_text(encoding="utf-8")
    ok = (
        "flag accuracy-best-enhanced-not-worse: FAIL" in text
        and "flag time-nondecreasing-in-alpha: FAIL" in text
    )
    record_acceptance(8, "failed directional check still produces a flagged report", ok)
    assert "flag accuracy-best-enhanced-not-worse: FAIL" in text
    assert "flag time-nondecreasing-in-alpha: FAIL" in text


def test_c8_desk_scale_directional_run_real_data(tmp_path):
    """Same protocol on the real image task; needs $NOISE_FORGE_DATA_DIR."""
    if not os.environ.get(DATA_DIR_ENV, ""):
        record_acceptance(
            8,
            "desk-scale directional run (real image data)",
            None,
            f"${DATA_DIR_ENV} not set; the synthetic stand-in above covers the protocol",
        )
        pytest.skip(f"{DATA_DIR_ENV} not set, no image data available")
    sets = [
        "data.source=idx",
        "data.subset=10000",
        "model.hidden=[100,100]",
        "ne.batch_size=2000",
        "train.seeds=[0,1,2,3,4]",
    ]
    tc = build_train_config(resolve_config(None, sets))
    t0 = time.perf_counter()
    plan = harness.SweepPlan.over(tc, "alpha", [1.0, 1.5, 2.0])
    sweep = plan.run()
    elapsed = time.perf_counter() - t0
    results = tmp_path / "results"
    write_results(results / "sweep-alpha", sweep)
    flags = alpha_flags(load_unit(results / "sweep-alpha", results).rows)
    report_path = emit_report(results)
    accs = [cell.mean_accuracy for cell in sweep.cells]
    detail = (
        f"acc {accs[0]:.4f}/{accs[1]:.4f}/{accs[2]:.4f} for alpha 1/1.5/2, "
        f"flags {flags}, {elapsed:.0f}s"
    )
    ok = (
        flags["accuracy-best-enhanced-not-worse"] is True
        and flags["time-nondecreasing-in-alpha"] is True
        and report_path.is_file()
        and elapsed < 7200.0
    )
    record_acceptance(8, "desk-scale directional run (real image data)", ok, detail)
    assert report_path.is_file()
    assert elapsed < 7200.0
    assert flags["accuracy-best-enhanced-not-worse"] is True
    assert flags["time-nondecreasing-in-alpha"] is True


def test_c9_kurtosis_estimator_and_probe_pipeline():
    """Excess kurtosis is near zero on gaussians and finite along a real run."""
    rng = np.random.default_rng(99)
    kurt = excess_kurtosis(rng.standard_normal((100_000, 20)))
    worst = float(np.abs(kurt).max())

    train = blob_dataset(seed=51, n_per_class=10, classes=2, dim=3)
    test = blob_dataset(seed=52, n_per_class=5, classes=2, dim=3)
    cfg = TrainConfig(
        model=MlpSpec(3, (4,), 2, seed=1),
        ne=NEConfig(alpha=1.5, batch_size=8, base="sgd"),
        train_data=train,
        test_data=test,
        learning_rate=0.05,
        eval_interval=60,
        max_steps=120,
        seeds=(0,),
    )
    rows = harness.train_run(replace(cfg, probe=ProbePlan(steps=(0,), interval=50, n_samples=120)), seed=0).probes
    pipeline_ok = len(rows) >= 2 and all(math.isfinite(r.median_excess_kurtosis) for r in rows)

    ok = worst <= 0.1 and pipeline_ok
    record_acceptance(
        9,
        "kurtosis estimator calibrated, per-checkpoint probes finite",
        ok,
        f"max |kurtosis| {worst:.3f} on 1e5 gaussian draws, {len(rows)} probe rows",
    )
    assert worst <= 0.1
    assert pipeline_ok
