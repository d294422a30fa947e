import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from noise_forge import noiselab, optim
from noise_forge.dataio import Dataset, SyntheticSpec, make_synthetic, subset
from noise_forge.harness import ProbePlan, SweepPlan
from noise_forge.model import MlpSpec, ParamVector, glorot_init, loss_and_grad, param_count
from noise_forge.optim import (
    BatchStreams,
    DivergenceError,
    NEConfig,
    OptimizerState,
    adam_step,
    ne_combine,
    pair_rows,
    sample_minibatch_pair,
    sgd_step,
    training_step,
)
from noise_forge.rng import named_stream
from test_harness import small_config


def tiny_dataset(seed=0, n_per_class=5, classes=2, dim=3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(classes, dim))
    return make_synthetic(SyntheticSpec(centers, n_per_class, 0.3, seed))


def pv(values, dims):
    return ParamVector(np.asarray(values, dtype=float), dims)


class TestEpochState:
    """The epoch partition a BatchStreams keeps (order, cursor, epoch)."""

    @staticmethod
    def draw(streams):
        primary, _ = sample_minibatch_pair(streams)
        return primary

    def test_one_epoch_partitions_the_dataset(self):
        streams = BatchStreams.from_seed(12, 3, 0)
        seen = []
        for _ in range(4):
            seen.extend(self.draw(streams).tolist())
        assert sorted(seen) == list(range(12))
        assert streams.epoch == 0

    def test_reshuffle_advances_epoch(self):
        streams = BatchStreams.from_seed(6, 3, 0)
        for _ in range(2):
            self.draw(streams)
        assert streams.epoch == 0
        self.draw(streams)
        assert streams.epoch == 1

    def test_tail_shorter_than_batch_is_dropped(self):
        # n=10, B=3: three full batches per epoch, the leftover index waits
        streams = BatchStreams.from_seed(10, 3, 1)
        used = np.concatenate([self.draw(streams) for _ in range(3)])
        assert len(used) == 9
        assert len(np.unique(used)) == 9
        self.draw(streams)
        assert streams.epoch == 1

    def test_epochs_use_different_permutations(self):
        streams = BatchStreams.from_seed(8, 4, 2)
        a = np.concatenate([self.draw(streams) for _ in range(2)])
        b = np.concatenate([self.draw(streams) for _ in range(2)])
        assert sorted(a.tolist()) == sorted(b.tolist())
        assert not np.array_equal(a, b)

    def test_batch_larger_than_dataset_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            BatchStreams.from_seed(4, 5, 0)

    # 10.5 and 10.0 used to fail with numpy's AxisError, and True was stored as n_samples
    @pytest.mark.parametrize("n", [10.5, np.float64(10.0), True, 0])
    def test_row_count_takes_the_count_rule(self, n):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n_samples must be an integer >= 1, got {n!r}')}$"):
            BatchStreams.from_seed(n, 1, 0)

    def test_numpy_row_count_is_stored_as_int(self):
        streams = BatchStreams.from_seed(np.int64(10), 3, 1)
        assert type(streams.n_samples) is int
        assert streams.order.tolist() == BatchStreams.from_seed(10, 3, 1).order.tolist()


class TestMinibatchPair:
    def test_pair_shapes_and_validity(self):
        streams = BatchStreams.from_seed(10, 3, 7)
        b, bprime = sample_minibatch_pair(streams)
        for idx in (b, bprime):
            assert idx.shape == (3,)
            assert np.unique(idx).shape == (3,)
            assert idx.min() >= 0 and idx.max() < 10

    def test_enhancement_batch_is_uniform_without_replacement(self):
        # every index should land in B' with frequency B/n
        n, b, draws = 10, 3, 30_000
        streams = BatchStreams.from_seed(n, b, 3)
        counts = np.zeros(n)
        for _ in range(draws):
            _, bprime = sample_minibatch_pair(streams)
            assert len(np.unique(bprime)) == b
            counts[bprime] += 1
        p = b / n
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma)

    def test_pair_is_deterministic_in_seed(self):
        def draw(seed):
            streams = BatchStreams.from_seed(10, 4, seed)
            return sample_minibatch_pair(streams)

        a = draw(5)
        b = draw(5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestCombine:
    def test_linear_combination_by_hand(self):
        g = pv([1.0, 2.0, 0.0], (2, 1))
        gp = pv([3.0, -1.0, 0.0], (2, 1))
        # 2g - gp
        out = ne_combine(g, gp, 2.0)
        np.testing.assert_allclose(out.values, [-1.0, 5.0, 0.0], atol=0)

    def test_alpha_one_returns_exact_primary_gradient(self):
        g = pv([0.0, -0.0, 1.5], (2, 1))
        gp = pv([9.0, 9.0, 9.0], (2, 1))
        out = ne_combine(g, gp, 1.0)
        # bitwise equality, including the signed zero
        assert np.array_equal(out.values, g.values)
        assert math.copysign(1.0, out.values[1]) == -1.0
        out.values[0] = 5.0
        assert g.values[0] == 0.0

    def test_weights_sum_to_one(self):
        g = pv([2.0, 2.0, 2.0], (2, 1))
        out = ne_combine(g, g, 3.5)
        np.testing.assert_allclose(out.values, g.values, rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ne_combine(pv([0.0] * 3, (2, 1)), pv([0.0] * 2, (1, 1)), 2.0)

    def test_non_finite_alpha_rejected(self):
        g = pv([0.0, 0.0], (1, 1))
        with pytest.raises(ValueError, match="alpha"):
            ne_combine(g, g, float("nan"))

    def test_naive_variant_is_unbiased_toward_full_gradient(self):
        # averaging alpha*grad(B) + (1-alpha)*grad_full over every size-2
        # minibatch B recovers grad_full exactly
        ds = tiny_dataset(seed=4, n_per_class=4, classes=2, dim=3)  # N = 8
        w = glorot_init(MlpSpec(3, (4,), 2, seed=6))
        _, full = loss_and_grad(w, ds, None)
        alpha = 2.0
        combos = list(itertools.combinations(range(8), 2))  # 28 subsets
        acc = np.zeros(len(w))
        for sub in combos:
            _, g = loss_and_grad(w, ds, np.array(sub))
            acc += ne_combine(g, full, alpha).values
        acc /= len(combos)
        np.testing.assert_allclose(acc, full.values, atol=1e-10)


class TestSgdStep:
    def test_exact_update(self):
        w = pv([1.0, -2.0, 0.5, 0.0, 0.0, 0.0], (2, 2))
        state = OptimizerState(learning_rate=0.1)
        g = pv([10.0, 0.0, -5.0, 1.0, 2.0, 3.0], (2, 2))
        w2 = sgd_step(w, g, state)
        np.testing.assert_allclose(
            w2.values, [0.0, -2.0, 1.0, -0.1, -0.2, -0.3], atol=1e-15
        )
        assert state.step_count == 1
        assert w.values[0] == 1.0  # input untouched

    def test_two_half_steps_equal_one_full_step(self):
        g = pv([0.25, -0.5], (1, 1))
        sa = OptimizerState(learning_rate=0.2)
        a = sgd_step(pv([1.0, 1.0], (1, 1)), g, sa)
        sb = OptimizerState(learning_rate=0.1)
        b = sgd_step(sgd_step(pv([1.0, 1.0], (1, 1)), g, sb), g, sb)
        np.testing.assert_allclose(a.values, b.values, atol=1e-15)

    def test_non_finite_gradient_raises(self):
        state = OptimizerState(learning_rate=0.1)
        with pytest.raises(DivergenceError):
            sgd_step(pv([0.0, 0.0], (1, 1)), pv([np.nan, 0.0], (1, 1)), state)


def reference_adam(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Pure-Python scalar recurrence, written independently of the module."""
    w = 0.0
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w -= lr * mhat / (math.sqrt(vhat) + eps)
    return w


@pytest.mark.parametrize("step", [sgd_step, adam_step])
def test_steps_reject_a_gradient_of_another_shape(step):
    state = OptimizerState(learning_rate=0.1)
    with pytest.raises(ValueError, match="^parameter/gradient shapes disagree$"):
        step(ParamVector.zeros((2, 3)), ParamVector.zeros((3, 2)), state)
    assert state.step_count == 0 and state.adam_m is None


class TestAdamStep:
    def test_five_step_scalar_recurrence(self):
        grads = [0.3, -0.1, 0.05, 0.2, -0.4]
        lr = 0.01
        w = pv([0.0, 0.0], (1, 1))
        state = OptimizerState(learning_rate=lr)
        for g in grads:
            w = adam_step(w, pv([g, 0.0], (1, 1)), state)
        assert w.values[0] == pytest.approx(reference_adam(grads, lr), abs=1e-12)
        assert w.values[1] == 0.0
        assert state.step_count == 5

    def test_first_step_is_signed_learning_rate(self):
        # bias correction makes mhat/sqrt(vhat) = sign(g) up to eps
        state = OptimizerState(learning_rate=0.001)
        w = adam_step(pv([0.0, 0.0], (1, 1)), pv([0.7, -0.003], (1, 1)), state)
        np.testing.assert_allclose(w.values, [-0.001, 0.001], rtol=1e-4)

    def test_zero_gradient_does_not_move(self):
        state = OptimizerState(learning_rate=0.5)
        w = adam_step(pv([1.0, -1.0], (1, 1)), pv([0.0, 0.0], (1, 1)), state)
        np.testing.assert_array_equal(w.values, [1.0, -1.0])

    def test_moment_buffers_created_lazily(self):
        state = OptimizerState(learning_rate=0.1)
        assert state.adam_m is None and state.adam_v is None
        adam_step(pv([0.0, 0.0], (1, 1)), pv([1.0, 1.0], (1, 1)), state)
        assert state.adam_m is not None and state.adam_v is not None

    def test_in_place_update_is_bitwise_the_textbook_form(self):
        # the form with temporaries, in the order the docstring states
        def textbook(w, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g**2
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            return w - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

        rng = np.random.default_rng(12)
        dims = (6, 9, 3)
        w = ParamVector(rng.standard_normal(93), dims)
        ref_w, m, v = w.values.copy(), np.zeros(93), np.zeros(93)
        state = OptimizerState(learning_rate=3e-3)
        for t in range(1, 201):
            if t == 120:
                state.learning_rate *= 0.5  # the protocol's halving
            g = rng.standard_normal(93) * 10.0 ** rng.uniform(-6, 2)
            g[rng.random(93) < 0.1] = 0.0
            before = w.values.copy()
            w = adam_step(w, ParamVector(g, dims), state)
            ref_w, m, v = textbook(ref_w, g, m, v, t, state.learning_rate)
            np.testing.assert_array_equal(w.values, ref_w)
            np.testing.assert_array_equal(state.adam_m, m)
            np.testing.assert_array_equal(state.adam_v, v)
            assert not np.array_equal(w.values, before)
        assert state.step_count == 200

    def test_state_keeps_only_the_moments(self):
        # a step's scratch vector lives for that step alone
        dims = (100, 100)  # P = 10,100
        gen = np.random.default_rng(3)
        w = ParamVector(gen.standard_normal(10_100), dims)
        g = ParamVector(gen.standard_normal(10_100), dims)
        state = OptimizerState(learning_rate=0.01)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w = adam_step(w, g, state)  # cold: m and v stay, next to the result
            kept = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            w = adam_step(w, g, state)
            peak = tracemalloc.get_traced_memory()[1] - base
            g.values[5] = np.nan
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(DivergenceError):
                adam_step(w, g, state)
            check_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the warm step holds its scratch vector and its result, and no other
        # P-sized float or boolean temporary (a boolean one is 10,100 bytes)
        assert peak <= 2 * w.values.nbytes + 4096, f"warm peak {peak} bytes"
        assert kept <= 3 * w.values.nbytes + 4096, f"cold step kept {kept} bytes"
        assert check_peak <= 4096, f"finiteness check peak {check_peak} bytes"
        assert [f.name for f in dataclasses.fields(state)] == ["learning_rate", "step_count", "adam_m", "adam_v"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [adam_step, sgd_step])
    def test_every_non_finite_value_raises(self, step, bad):
        g = np.zeros(12)
        g[7] = bad
        with pytest.raises(DivergenceError):
            step(ParamVector.zeros((2, 4)), ParamVector(g, (2, 4)), OptimizerState(learning_rate=0.1))

    def test_non_finite_gradient_leaves_state_untouched(self):
        state = OptimizerState(learning_rate=0.1)
        w = adam_step(pv([0.0, 0.0], (1, 1)), pv([1.0, -2.0], (1, 1)), state)
        m, v = state.adam_m.copy(), state.adam_v.copy()
        with pytest.raises(DivergenceError):
            adam_step(w, pv([np.inf, 0.0], (1, 1)), state)
        np.testing.assert_array_equal(state.adam_m, m)
        np.testing.assert_array_equal(state.adam_v, v)
        assert state.step_count == 1


class TestConfigValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            NEConfig(alpha=0.5, batch_size=4)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            NEConfig(alpha=1.0, batch_size=0)

    def test_bad_mode_rejected(self):
        # pairwise is the one training rule
        for mode in ("bogus", "off", "naive-full"):
            with pytest.raises(ValueError, match="mode"):
                NEConfig(alpha=1.0, batch_size=4, mode=mode)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            NEConfig(alpha=1.0, batch_size=4, base="rmsprop")

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            OptimizerState(learning_rate=-0.1)


def rule_w():
    """Weights for tiny_dataset(), which has 10 rows of 3 columns and 2 classes."""
    return glorot_init(MlpSpec(3, (4,), 2, seed=0))


# Every entry point that takes a minibatch size: the rows it checks B against
# (None where it cannot know them), and a call at a given B.
BATCH_ENTRIES = {
    "NEConfig": (None, lambda b: NEConfig(batch_size=b)),
    "effective_batch": (None, lambda b: noiselab.effective_batch(b, 2.0)),
    "BatchStreams": (10, lambda b: BatchStreams.from_seed(10, b, 0)),
    "TrainConfig": (16, lambda b: small_config(ne=NEConfig(batch_size=b, base="sgd"))),
    "noise_covariance_from_grads": (10, lambda b: noiselab.noise_covariance_from_grads(np.zeros((10, 3)), b)),
    "enumerate_noise_covariance_from_grads": (
        10, lambda b: noiselab.enumerate_noise_covariance_from_grads(np.zeros((10, 3)), b)
    ),
    "enumerate_ne_noise_covariance_from_grads": (
        10, lambda b: noiselab.enumerate_ne_noise_covariance_from_grads(np.zeros((10, 3)), b, 2.0)
    ),
    "exact_noise_trace": (10, lambda b: noiselab.exact_noise_trace(rule_w(), tiny_dataset(), b)),
    "sample_ne_noise": (10, lambda b: noiselab.sample_ne_noise(rule_w(), tiny_dataset(), b, 2.0, 10, seed=0)),
    "probe_noise": (10, lambda b: noiselab.probe_noise(rule_w(), tiny_dataset(), 0.1, b, 2.0, 10, seed=0)),
}

# Every entry point that takes alpha, called at a given alpha.
ALPHA_ENTRIES = {
    "NEConfig": lambda a: NEConfig(alpha=a),
    "ne_combine": lambda a: ne_combine(pv([0.0, 0.0], (1, 1)), pv([0.0, 0.0], (1, 1)), a),
    "enhancement_factor": noiselab.enhancement_factor,
    "effective_batch": lambda a: noiselab.effective_batch(4, a),
    "enumerate_ne_noise_covariance_from_grads": (
        lambda a: noiselab.enumerate_ne_noise_covariance_from_grads(np.zeros((4, 3)), 2, a)
    ),
    "sample_ne_noise": lambda a: noiselab.sample_ne_noise(rule_w(), tiny_dataset(), 2, a, 10, seed=0),
    "probe_noise": lambda a: noiselab.probe_noise(rule_w(), tiny_dataset(), 0.1, 2, a, 10, seed=0),
    "SweepPlan": lambda a: SweepPlan(small_config(), "alpha", [a]),
    "pair_rows": lambda a: pair_rows(np.array([0, 1]), np.array([2, 3]), a, 4),
}

# Every entry point where a count or seed enters: the setting its message
# names, its bounds (high None where there is none), a call at a given
# value, and what of the result keeps the value (None where nothing does).
COUNT_ENTRIES = {
    "named_stream-seed": ("root_seed", 0, None, lambda v: named_stream(v, "init"), None),
    "named_stream-index": ("stream index", 0, None, lambda v: named_stream(0, "init", v), None),
    "glorot_init-seed": ("root_seed", 0, None, lambda v: glorot_init(MlpSpec(3, (4,), 2, seed=v)), None),
    "make_synthetic-seed": (
        "root_seed", 0, None, lambda v: make_synthetic(SyntheticSpec(np.eye(2), 3, 0.1, v)), None
    ),
    "Dataset-num_classes": (
        "num_classes", 1, None, lambda v: Dataset(np.zeros((2, 1)), np.array([0, 0]), v), lambda ds: ds.num_classes
    ),
    "SyntheticSpec-n_per_class": (
        "n_per_class", 1, None, lambda v: SyntheticSpec(np.eye(2), v, 0.1, 0), lambda spec: spec.n_per_class
    ),
    "subset-n_keep": ("n_keep", 1, 10, lambda v: subset(tiny_dataset(), v, 0), None),
    "MlpSpec-input_dim": ("input_dim", 1, None, lambda v: MlpSpec(v, (4,), 2), lambda spec: spec.dims[0]),
    "MlpSpec-hidden": ("hidden width", 1, None, lambda v: MlpSpec(3, (v,), 2), lambda spec: spec.dims[1]),
    "MlpSpec-num_classes": ("num_classes", 1, None, lambda v: MlpSpec(3, (4,), v), lambda spec: spec.dims[2]),
    "param_count": ("layer width", 1, None, lambda v: param_count((3, v, 2)), None),
    "TrainConfig-eval_interval": (
        "eval_interval", 1, None, lambda v: small_config(eval_interval=v), lambda cfg: cfg.eval_interval
    ),
    "TrainConfig-max_steps": ("max_steps", 1, None, lambda v: small_config(max_steps=v), lambda cfg: cfg.max_steps),
    "TrainConfig-seeds": ("seed", 0, None, lambda v: small_config(seeds=(v,)), lambda cfg: cfg.seeds[0]),
    "ProbePlan-steps": ("probe.steps entry", 0, None, lambda v: ProbePlan(steps=(v,)), lambda plan: plan.steps[0]),
    "ProbePlan-interval": ("probe.interval", 0, None, lambda v: ProbePlan(interval=v), lambda plan: plan.interval),
    "ProbePlan-n_samples": ("probe.n_samples", 2, None, lambda v: ProbePlan(n_samples=v), lambda plan: plan.n_samples),
    "sample_ne_noise-n_samples": (
        "n_samples", 1, None, lambda v: noiselab.sample_ne_noise(rule_w(), tiny_dataset(), 2, 2.0, v, 0), None
    ),
    "probe_noise-n_samples": (
        "n_samples", 2, None, lambda v: noiselab.probe_noise(rule_w(), tiny_dataset(), 0.1, 2, 2.0, v, 0), None
    ),
    "probe_noise-stream_index": (
        "stream index",
        0,
        None,
        lambda v: noiselab.probe_noise(rule_w(), tiny_dataset(), 0.1, 2, 2.0, 4, 0, stream_index=v),
        lambda row: row.step,
    ),
    "probe_noise-seed": (
        "root_seed", 0, None, lambda v: noiselab.probe_noise(rule_w(), tiny_dataset(), 0.1, 2, 2.0, 4, v), None
    ),
    "SweepPlan.run": ("jobs", 1, None, lambda v: SweepPlan(small_config()).run(v), None),
}

# Every entry point that takes a learning rate, called at a given rate. The
# probe takes it as the step size eta whose update noise it reports.
LEARNING_RATE_ENTRIES = {
    "OptimizerState": lambda lr: OptimizerState(learning_rate=lr),
    "TrainConfig": lambda lr: small_config(learning_rate=lr),
    "probe_noise": lambda lr: noiselab.probe_noise(rule_w(), tiny_dataset(), lr, 2, 2.0, 4, seed=0),
}
# The entry points above that keep the rate, as ``learning_rate``.
LEARNING_RATE_KEEPERS = ("OptimizerState", "TrainConfig")


class TestInputRules:
    """The minibatch-size, finite-alpha, count and learning-rate rules each
    have one check and one message, which every entry point raises for the
    same bad values."""

    @pytest.mark.parametrize(
        "name, b",
        [
            pytest.param(name, b, id=f"{name}-B={b}")
            for name, (n, _) in BATCH_ENTRIES.items()
            # a B that is not an integer (2.5 used to pass and fail at the first slice)
            for b in ([0] if n is None else [0, n + 1]) + [2.5, 4.0, True]
        ],
    )
    def test_every_entry_point_states_the_one_batch_rule(self, name, b):
        with pytest.raises(ValueError, match=rf"^batch_size must lie in \[1, n_samples\], got {b} for n_samples = "):
            BATCH_ENTRIES[name][1](b)

    # True used to pass as 1; "2" and None to fail with a TypeError
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True, "2", None], ids=repr)
    @pytest.mark.parametrize("name", ALPHA_ENTRIES)
    def test_every_entry_point_states_the_one_alpha_rule(self, name, alpha):
        with pytest.raises(ValueError, match=f"^{re.escape(f'alpha must be finite, got {alpha!r}')}$"):
            ALPHA_ENTRIES[name](alpha)

    def test_numpy_alpha_is_stored_as_a_float(self):
        alpha = NEConfig(alpha=np.float32(2)).alpha
        assert alpha == 2.0 and type(alpha) is float
        assert type(NEConfig(alpha=2).alpha) is float

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param(name, value, id=f"{name}={value!r}")
            for name, (_, low, high, _, _) in COUNT_ENTRIES.items()
            # 2.5 used to be truncated (seed 1.5 reran seed 1) and True read as 1
            for value in [2.5, True, low - 1] + ([] if high is None else [high + 1])
        ],
    )
    def test_every_count_entry_states_the_one_count_rule(self, name, value):
        setting, low, high, call, _ = COUNT_ENTRIES[name]
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{setting} must be an integer {bound}, got {value!r}')}$"):
            call(value)

    @pytest.mark.parametrize("name", [name for name, entry in COUNT_ENTRIES.items() if entry[4] is not None])
    def test_numpy_integer_counts_are_stored_as_ints(self, name):
        _, low, _, call, kept = COUNT_ENTRIES[name]
        value = kept(call(np.int64(low + 2)))
        assert value == low + 2 and type(value) is int

    # True used to pass as 1, "0.1" to fail with a TypeError
    @pytest.mark.parametrize(
        "lr", [math.nan, math.inf, 0.0, -1e-3, True, "0.1"], ids=["nan", "inf", "0", "-1e-3", "True", "'0.1'"]
    )
    @pytest.mark.parametrize("name", LEARNING_RATE_ENTRIES)
    def test_every_entry_point_states_the_one_learning_rate_rule(self, name, lr):
        with pytest.raises(ValueError, match="^learning_rate must be finite and positive$"):
            LEARNING_RATE_ENTRIES[name](lr)

    @pytest.mark.parametrize("name", LEARNING_RATE_KEEPERS)
    def test_numpy_learning_rates_are_stored_as_floats(self, name):
        lr = LEARNING_RATE_ENTRIES[name](np.float32(0.5)).learning_rate
        assert lr == 0.5 and type(lr) is float
        assert type(LEARNING_RATE_ENTRIES[name](1).learning_rate) is float

    # True used to pass as 1, "0.01" and None to fail with a TypeError
    @pytest.mark.parametrize("value", [True, "0.01", None], ids=repr)
    @pytest.mark.parametrize("threshold", ["l_star", "l_star_star"])
    def test_both_thresholds_follow_the_one_threshold_rule(self, threshold, value):
        with pytest.raises(ValueError, match=r"^need 0 < l_star_star < l_star$"):
            small_config(**{threshold: value})

    def test_numpy_thresholds_are_stored_as_floats(self):
        cfg = small_config(l_star=np.float32(0.5), l_star_star=np.float64(0.25))
        assert (cfg.l_star, cfg.l_star_star) == (0.5, 0.25)
        assert type(cfg.l_star) is float and type(cfg.l_star_star) is float

    def test_batch_bounds_are_inclusive(self):
        optim.check_batch_size(1, 1)
        optim.check_batch_size(10, 10)
        optim.check_batch_size(10**6)


class TestTrainingStep:
    def make_parts(self, alpha, seed=9, base="sgd"):
        ds = tiny_dataset(seed=2, n_per_class=8, classes=2, dim=3)
        w = glorot_init(MlpSpec(3, (4,), 2, seed=seed))
        cfg = NEConfig(alpha=alpha, batch_size=4, base=base)
        state = OptimizerState(learning_rate=0.05)
        streams = BatchStreams.from_seed(ds.n_samples, cfg.batch_size, 17)
        return ds, w, cfg, state, streams

    def test_alpha_one_log_records_step_epoch_and_lr(self):
        ds, w, cfg, state, streams = self.make_parts(1.0)
        _, log = training_step(w, ds, cfg, state, streams, log=True)
        assert log.step == 1 and log.epoch == 0
        assert log.lr == 0.05

    def test_pairwise_mode_logs_both_norms(self):
        ds, w, cfg, state, streams = self.make_parts(2.0)
        _, log = training_step(w, ds, cfg, state, streams, log=True)
        assert log.grad_norm_bprime is not None
        assert log.grad_norm_b >= 0.0
        assert log.combined_norm >= 0.0

    def test_pairwise_update_matches_manual_combination(self):
        ds, w, cfg, state, streams = self.make_parts(2.0)
        twin = BatchStreams.from_seed(ds.n_samples, cfg.batch_size, 17)
        primary, enhancement = sample_minibatch_pair(twin)
        _, g_b = loss_and_grad(w, ds, primary)
        _, g_bp = loss_and_grad(w, ds, enhancement)
        expected = w.values - 0.05 * (2.0 * g_b.values - g_bp.values)
        w2, _ = training_step(w, ds, cfg, state, streams)
        np.testing.assert_allclose(w2.values, expected, atol=1e-15)

    @pytest.mark.parametrize("n_samples, batch_size", [(10, 4), (20, 4), (10, 8)])
    def test_streams_must_match_the_config_and_data(self, n_samples, batch_size):
        # streams drawing 4 of rows 0-9 would train a B = 8 config on half a
        # 20-row dataset, with 6-7 rows a step
        ds = tiny_dataset(seed=2, n_per_class=10, classes=2, dim=3)  # N = 20
        w = glorot_init(MlpSpec(3, (4,), 2, seed=9))
        cfg = NEConfig(alpha=2.0, batch_size=8)
        state = OptimizerState(learning_rate=0.05)
        streams = BatchStreams.from_seed(n_samples, batch_size, 0)
        message = f"^streams draw {batch_size} of {n_samples} rows, config and data need 8 of 20$"
        with pytest.raises(ValueError, match=message):
            training_step(w, ds, cfg, state, streams)
        assert state.step_count == 0 and state.adam_m is None
        assert streams.cursor == 0

    def test_divergent_parameters_raise(self):
        ds, w, cfg, state, streams = self.make_parts(2.0)
        bad = ParamVector(np.full(len(w), np.nan), w.dims)
        with pytest.raises(DivergenceError):
            training_step(bad, ds, cfg, state, streams)

    def test_adam_base_steps_move_parameters(self):
        ds, w, cfg, state, streams = self.make_parts(1.5, base="adam")
        w2, _ = training_step(w, ds, cfg, state, streams)
        assert not np.array_equal(w.values, w2.values)
        assert state.step_count == 1

    def test_deterministic_given_seeds(self):
        def run():
            ds, w, cfg, state, streams = self.make_parts(2.0)
            for _ in range(10):
                w, _ = training_step(w, ds, cfg, state, streams)
            return w.values

        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("alpha", [1.0, 1.5], ids=["pairwise-1.0", "pairwise-1.5"])
    def test_one_gradient_pass_per_step(self, monkeypatch, alpha):
        # B' is still drawn at alpha = 1: both streams end where a twin that
        # only samples the pairs ends. At alpha != 1 the one weighted pass
        # covers |B ∪ B'| rows, a shared row once.
        ds, w, cfg, state, streams = self.make_parts(alpha)
        twin = BatchStreams.from_seed(ds.n_samples, cfg.batch_size, 17)
        calls, want = [], []

        def counted(w, ds, idx=None, weights=None):
            calls.append((len(idx), weights is not None))
            return loss_and_grad(w, ds, idx, weights)

        monkeypatch.setattr(optim, "loss_and_grad", counted)
        for _ in range(7):
            w, log = training_step(w, ds, cfg, state, streams)
            primary, enhancement = sample_minibatch_pair(twin)
            if alpha == 1.0:
                want.append((len(primary), False))
            else:
                want.append((len(np.union1d(primary, enhancement)), True))
            assert log is None
        assert calls == want
        if alpha != 1.0:
            assert any(rows < 2 * cfg.batch_size for rows, _ in want)  # the draws overlap
        rngs = (
            (streams.enhancement_rng, twin.enhancement_rng),
            (streams.primary_rng, twin.primary_rng),
        )
        for ours, theirs in rngs:
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert streams.cursor == twin.cursor

    @pytest.mark.parametrize("alpha", [2.0, 1.0], ids=["pairwise-2.0", "pairwise-1.0"])
    def test_logging_does_not_change_the_trajectory(self, alpha):
        runs = []
        for log in (False, True):
            ds, w, cfg, state, streams = self.make_parts(alpha, base="adam")
            rows = []
            for _ in range(30):
                w, row = training_step(w, ds, cfg, state, streams, log=log)
                rows.append(row)
            runs.append((w.values, state.adam_m, rows))
        (w_off, m_off, rows_off), (w_on, m_on, rows_on) = runs
        np.testing.assert_array_equal(w_off, w_on)
        np.testing.assert_array_equal(m_off, m_on)
        assert rows_off == [None] * 30
        assert [r.step for r in rows_on] == list(range(1, 31))
        assert all(isinstance(r.grad_norm_bprime, float) for r in rows_on)

    @pytest.mark.parametrize("alpha", [2.0, 1.0])
    def test_logged_norms_are_those_of_the_step_gradients(self, alpha):
        ds, w, cfg, state, streams = self.make_parts(alpha)
        twin = BatchStreams.from_seed(ds.n_samples, cfg.batch_size, 17)
        primary, enhancement = sample_minibatch_pair(twin)
        loss_b, g_b = loss_and_grad(w, ds, primary)
        _, g_bp = loss_and_grad(w, ds, enhancement)
        combined = ne_combine(g_b, g_bp, alpha)
        _, log = training_step(w, ds, cfg, state, streams, log=True)
        assert log.minibatch_loss == loss_b
        assert log.grad_norm_b == np.linalg.norm(g_b.values)
        assert log.grad_norm_bprime == np.linalg.norm(g_bp.values)
        assert log.combined_norm == pytest.approx(np.linalg.norm(combined.values), rel=1e-12)
        if alpha == 1.0:  # the direction is grad(B) itself
            assert log.combined_norm == log.grad_norm_b


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestFusedDirection:
    """One weighted pass over the pair_rows of B and B' against
    ne_combine(grad(B), grad(B')).

    The two round differently; 1e-12 of the norm is the stated tolerance
    (measured 5e-16 to 1e-15)."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "dims, classes, batch, per_class",
        [
            ((16, 128, 128, 4), 4, 100, 200),
            ((784, 500, 500, 10), 10, 50, 100),
            ((784, 500, 500, 10), 10, 50, 10),
        ],
        ids=["desk", "784-500-500-10", "784-500-500-10-half-data"],
    )
    def test_matches_the_combined_gradients(self, dims, classes, batch, per_class, alpha):
        # the last case draws B = N/2, where B and B' share half their rows
        centers = named_stream(3, "synthetic").standard_normal((classes, dims[0]))
        ds = make_synthetic(SyntheticSpec(centers, per_class, 0.9, 3))
        w = glorot_init(MlpSpec(dims[0], dims[1:-1], classes, seed=5))
        streams = BatchStreams.from_seed(ds.n_samples, batch, 8)
        for _ in range(2):
            primary, enhancement = sample_minibatch_pair(streams)
            loss, fused = loss_and_grad(
                w, ds, *pair_rows(primary, enhancement, alpha, ds.n_samples)
            )
            loss_b, g_b = loss_and_grad(w, ds, primary)
            loss_bp, g_bp = loss_and_grad(w, ds, enhancement)
            want = ne_combine(g_b, g_bp, alpha).values
            assert _relative_error(fused.values, want) < 1e-12
            assert loss == pytest.approx(alpha * loss_b + (1.0 - alpha) * loss_bp, rel=1e-12)

    def test_training_step_takes_the_fused_direction(self):
        ds = tiny_dataset(seed=2, n_per_class=8, classes=2, dim=3)
        w = glorot_init(MlpSpec(3, (4,), 2, seed=9))
        cfg = NEConfig(alpha=3.0, batch_size=4, base="sgd")
        streams = BatchStreams.from_seed(ds.n_samples, 4, 15)
        twin = BatchStreams.from_seed(ds.n_samples, 4, 15)
        primary, enhancement = sample_minibatch_pair(twin)
        assert np.intersect1d(primary, enhancement).size == 1  # seed 15 shares a row
        _, fused = loss_and_grad(w, ds, *pair_rows(primary, enhancement, 3.0, ds.n_samples))
        w2, _ = training_step(w, ds, cfg, OptimizerState(learning_rate=0.05), streams)
        np.testing.assert_array_equal(w2.values, w.values - 0.05 * fused.values)


class TestPairRows:
    """Each row of B ∪ B' once, with the weights that make one pass
    alpha * grad(B) + (1 - alpha) * grad(B')."""

    @staticmethod
    def expected(primary, second, alpha):
        # the rule written out row by row
        b, b2 = len(primary), len(second)
        in_second, in_primary = set(second.tolist()), set(primary.tolist())
        rows = primary.tolist() + [i for i in second.tolist() if i not in in_primary]
        weights = [alpha / b + ((1.0 - alpha) / b2 if i in in_second else 0.0) for i in primary]
        weights += [(1.0 - alpha) / b2] * (len(rows) - b)
        return rows, weights

    @pytest.mark.parametrize(
        "n, b, b2", [(10, 4, 4), (50, 25, 25), (60, 7, 30), (30, 30, 30), (9, 1, 9)]
    )
    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_laws_on_random_draws(self, n, b, b2, alpha):
        rng = np.random.default_rng(n * 100 + b)
        shared_seen = 0
        for _ in range(40):
            primary = rng.choice(n, size=b, replace=False)
            second = rng.choice(n, size=b2, replace=False)
            rows, weights = pair_rows(primary, second, alpha, n)
            assert rows.dtype == primary.dtype and rows.shape == weights.shape
            # every row of B ∪ B' exactly once, B first in draw order
            np.testing.assert_array_equal(np.sort(rows), np.union1d(primary, second))
            np.testing.assert_array_equal(rows[:b], primary)
            want_rows, want_weights = self.expected(primary, second, alpha)
            assert rows.tolist() == want_rows
            np.testing.assert_allclose(weights, want_weights, rtol=1e-15, atol=0)
            assert abs(weights.sum() - 1.0) <= 1e-15
            shared = np.isin(primary, second)
            shared_seen += int(shared.sum())
            if b == b2:  # a shared row weighs one row of a plain mean
                np.testing.assert_allclose(weights[:b][shared], 1.0 / b, rtol=1e-15)
        assert shared_seen > 0

    @staticmethod
    def parts():
        ds = tiny_dataset(seed=4, n_per_class=30, classes=3, dim=5)
        return ds, glorot_init(MlpSpec(5, (16, 8), 3, seed=2))

    def test_alpha_one_is_a_plain_pass_over_b(self):
        # B' is not read at alpha = 1: the rows of B, unweighted, so the pass
        # is loss_and_grad(w, ds, B) bit for bit
        ds, w = self.parts()
        rng = np.random.default_rng(7)
        primary = rng.choice(ds.n_samples, size=20, replace=False)
        second = rng.choice(ds.n_samples, size=20, replace=False)
        want_loss, want = loss_and_grad(w, ds, primary)
        for other in (second, None):
            rows, weights = pair_rows(primary, other, 1.0, ds.n_samples)
            assert rows is primary and weights is None
            loss, got = loss_and_grad(w, ds, rows, weights)
            assert loss == want_loss
            np.testing.assert_array_equal(got.values, want.values)

    def test_second_a_permutation_of_primary_gives_grad_b(self):
        ds, w = self.parts()
        rng = np.random.default_rng(5)
        primary = rng.choice(ds.n_samples, size=20, replace=False)
        second = rng.permutation(primary)
        _, want = loss_and_grad(w, ds, primary)
        for alpha in (1.5, 3.0):
            rows, weights = pair_rows(primary, second, alpha, ds.n_samples)
            np.testing.assert_array_equal(rows, primary)
            _, got = loss_and_grad(w, ds, rows, weights)
            assert _relative_error(got.values, want.values) < 1e-13

    def test_disjoint_batches_give_both_batches(self):
        primary, second = np.array([3, 0, 7]), np.array([5, 1, 2])
        rows, weights = pair_rows(primary, second, 2.0, 8)
        np.testing.assert_array_equal(rows, [3, 0, 7, 5, 1, 2])
        np.testing.assert_array_equal(weights, [2 / 3] * 3 + [-1 / 3] * 3)

    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_full_batch_gives_the_full_gradient(self, alpha):
        # B = N is the zero-noise limit: every row is shared and weighted 1/N,
        # with no alpha * g - (alpha - 1) * g cancellation
        ds, w = self.parts()
        n = ds.n_samples
        rng = np.random.default_rng(6)
        primary, second = rng.permutation(n), rng.permutation(n)
        rows, weights = pair_rows(primary, second, alpha, n)
        np.testing.assert_array_equal(rows, primary)
        _, got = loss_and_grad(w, ds, rows, weights)
        _, full = loss_and_grad(w, ds, None)
        assert _relative_error(got.values, full.values) < 1e-13
