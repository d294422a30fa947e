import math
import tracemalloc

import numpy as np
import pytest

from noise_forge import model
from noise_forge.dataio import Dataset, SyntheticSpec, make_synthetic
from noise_forge.model import (
    MlpSpec,
    ParamVector,
    evaluate_accuracy,
    glorot_init,
    loss_and_grad,
    mean_loss,
    param_count,
    per_sample_grad_matrix,
    per_sample_grad_norms,
)


@pytest.fixture(autouse=True)
def own_kept_buffers():
    # the kernel makes one work set per net shape, sized when first used, and
    # keeps it: a set made under a test's lowered _MAX_ROWS or _PASS_BYTES
    # must not outlive that test
    model._work_set.cache_clear()
    yield
    model._work_set.cache_clear()


def set_max_rows(monkeypatch, rows):
    # a kept set fixes its shape's chunk size when it is made: drop the old sets
    monkeypatch.setattr(model, "_MAX_ROWS", rows)
    model._work_set.cache_clear()


def kept_rows(dims):
    """Rows per chunk for ``dims``: the height of its kept work set."""
    return model._work_set(dims)[0][0].shape[0]


def blob_dataset(seed=0, n_per_class=4, classes=3, dim=4, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(classes, dim))
    return make_synthetic(SyntheticSpec(centers, n_per_class, noise, seed))


def finite_difference_grad(w, ds, idx, eps=1e-5):
    """Independent oracle: central differences of mean_loss per coordinate."""
    base = w.values.copy()
    out = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += eps
        minus = base.copy()
        minus[i] -= eps
        lp = mean_loss(ParamVector(plus, w.dims), ds, idx)
        lm = mean_loss(ParamVector(minus, w.dims), ds, idx)
        out[i] = (lp - lm) / (2 * eps)
    return out


class TestParamVector:
    def test_param_count_by_hand(self):
        # (3 -> 4): 12 weights + 4 biases; (4 -> 2): 8 weights + 2 biases
        assert param_count((3, 4, 2)) == 26

    def test_views_alias_the_flat_vector(self):
        pv = ParamVector.zeros((3, 4, 2))
        pv.weights(0)[1, 2] = 7.0
        pv.bias(1)[0] = -1.0
        assert pv.values[1 * 4 + 2] == 7.0
        assert pv.values[12 + 4 + 8] == -1.0

    def test_layout_is_weights_then_bias_per_layer(self):
        pv = ParamVector(np.arange(26, dtype=float), (3, 4, 2))
        np.testing.assert_array_equal(pv.weights(0).ravel(), np.arange(12))
        np.testing.assert_array_equal(pv.bias(0), [12, 13, 14, 15])
        np.testing.assert_array_equal(pv.weights(1).ravel(), np.arange(16, 24))
        np.testing.assert_array_equal(pv.bias(1), [24, 25])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            ParamVector(np.zeros(25), (3, 4, 2))

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^values must be 1-D$"):
            ParamVector(np.zeros((2, 13)), (3, 4, 2))

    @pytest.mark.parametrize("dims", [(), (5,)])
    def test_param_count_needs_two_widths(self, dims):
        with pytest.raises(ValueError, match="^dims needs >= 2 entries$"):
            param_count(dims)

    def test_copy_is_independent(self):
        pv = ParamVector.zeros((2, 2))
        cp = pv.copy()
        cp.values[0] = 5.0
        assert pv.values[0] == 0.0


class TestGlorotInit:
    def test_bound_is_one_for_fan_three_three(self):
        # sqrt(6 / (3 + 3)) = 1
        w = glorot_init(MlpSpec(3, (3,), 3, seed=1))
        assert np.abs(w.weights(0)).max() <= 1.0
        assert np.abs(w.weights(1)).max() <= 1.0

    def test_biases_are_zero(self):
        w = glorot_init(MlpSpec(5, (7,), 2, seed=3))
        np.testing.assert_array_equal(w.bias(0), np.zeros(7))
        np.testing.assert_array_equal(w.bias(1), np.zeros(2))

    def test_weight_variance_matches_glorot(self):
        # uniform on [-a, a] has variance a^2/3 = 2 / (fan_in + fan_out)
        w = glorot_init(MlpSpec(200, (300,), 2, seed=5))
        target = 2.0 / (200 + 300)
        assert abs(w.weights(0).var() / target - 1.0) < 0.05

    def test_deterministic_in_seed(self):
        a = glorot_init(MlpSpec(4, (5,), 3, seed=11))
        b = glorot_init(MlpSpec(4, (5,), 3, seed=11))
        np.testing.assert_array_equal(a.values, b.values)
        c = glorot_init(MlpSpec(4, (5,), 3, seed=12))
        assert not np.array_equal(a.values, c.values)


def logit_bias_block(w, mat):
    """Columns of per-sample gradient rows that hold the logit-layer bias:
    softmax(logits) - onehot for each row."""
    _, b_off = w.slots(w.n_layers - 1)
    return mat[:, b_off : b_off + w.dims[-1]]


class TestForward:
    """The shared forward pass, seen through the public entry points."""

    def test_single_linear_layer_by_hand(self):
        # logits = [4.5, 5.5]; softmax gap of 1 gives sigmoid(+-1)
        pv = ParamVector(np.array([1.0, 2.0, 3.0, 4.0, 0.5, -0.5]), (2, 2))
        ds = Dataset(np.array([[1.0, 1.0]]), np.array([1]), 2)
        assert mean_loss(pv, ds) == pytest.approx(-math.log(0.7310585786300049), rel=1e-15)

    def test_rows_sum_to_one(self):
        # each row's logit-bias block is softmax - onehot, so it sums to 0
        w = glorot_init(MlpSpec(4, (6,), 5, seed=2))
        x = np.random.default_rng(0).random((11, 4))
        ds = Dataset(x, np.arange(11) % 5, 5)
        block = logit_bias_block(w, per_sample_grad_matrix(w, ds))
        np.testing.assert_allclose(block.sum(axis=1), np.zeros(11), atol=1e-12)

    def test_zero_params_give_uniform_probabilities(self):
        w = ParamVector.zeros((3, 4))
        ds = Dataset(np.array([[0.1, 0.5, 0.9]]), np.array([2]), 4)
        block = logit_bias_block(w, per_sample_grad_matrix(w, ds))
        np.testing.assert_allclose(block, [[0.25, 0.25, -0.75, 0.25]], atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        # logits [1000, -1000]: loss 0 for label 0 and 2000 for label 1
        pv = ParamVector(np.array([1000.0, -1000.0, 0.0, 0.0]), (1, 2))
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([0, 1]), 2)
        loss, grad = loss_and_grad(pv, ds)
        assert loss == mean_loss(pv, ds) == pytest.approx(1000.0, rel=1e-15)
        assert np.isfinite(grad.values).all()

    @pytest.mark.parametrize(
        "entry",
        [mean_loss, evaluate_accuracy, loss_and_grad, per_sample_grad_matrix, per_sample_grad_norms],
        ids=lambda f: f.__name__,
    )
    def test_wrong_input_width_rejected(self, entry):
        w = ParamVector.zeros((2, 2))
        ds = Dataset(np.zeros((1, 3)), np.array([0]), 2)
        with pytest.raises(ValueError, match="columns"):
            entry(w, ds)


class TestLoss:
    def test_zero_params_loss_is_log_num_classes(self):
        ds = blob_dataset(classes=4)
        w = ParamVector.zeros((4, 4))
        assert abs(mean_loss(w, ds) - math.log(4)) < 1e-14

    def test_mean_loss_matches_loss_and_grad(self):
        ds = blob_dataset()
        w = glorot_init(MlpSpec(4, (5,), 3, seed=7))
        loss, _ = loss_and_grad(w, ds)
        assert mean_loss(w, ds) == pytest.approx(loss, rel=1e-14)

    def test_chunked_evaluation_matches_unchunked(self, monkeypatch):
        ds = blob_dataset(n_per_class=9)
        w = glorot_init(MlpSpec(4, (5,), 3, seed=7))
        set_max_rows(monkeypatch, 10_000)
        whole = mean_loss(w, ds)
        set_max_rows(monkeypatch, 4)
        assert mean_loss(w, ds) == pytest.approx(whole, rel=1e-14)

    def test_full_loss_equals_mean_over_equal_partition(self):
        ds = blob_dataset(n_per_class=4, classes=3)  # N = 12
        w = glorot_init(MlpSpec(4, (6,), 3, seed=4))
        full, full_grad = loss_and_grad(w, ds, None)
        losses = []
        grads = []
        for start in range(0, 12, 4):
            idx = np.arange(start, start + 4)
            loss_b, grad_b = loss_and_grad(w, ds, idx)
            losses.append(loss_b)
            grads.append(grad_b.values)
        assert abs(np.mean(losses) - full) <= 1e-12
        np.testing.assert_allclose(np.mean(grads, axis=0), full_grad.values, atol=1e-12)

    def test_index_validation(self):
        ds = blob_dataset()
        w = glorot_init(MlpSpec(4, (5,), 3, seed=7))
        with pytest.raises(ValueError):
            loss_and_grad(w, ds, np.array([], dtype=int))
        with pytest.raises(ValueError):
            loss_and_grad(w, ds, np.array([ds.n_samples]))

    @pytest.mark.parametrize("idx", [[0.9, 1.7], np.array([0.0, 1.0]), np.array([True, False, True])])
    def test_non_integer_index_sets_are_rejected(self, idx):
        # a float index would otherwise be truncated: [0.9, 1.7] read rows 0 and 1
        ds = blob_dataset()
        w = glorot_init(MlpSpec(4, (5,), 3, seed=7))
        for call in (mean_loss, loss_and_grad, per_sample_grad_norms, per_sample_grad_matrix):
            with pytest.raises(ValueError, match="integers"):
                call(w, ds, idx)

    @pytest.mark.parametrize(
        "idx",
        [np.array([], dtype=int), np.array([[0, 1]]), np.array([0.0, 1.0]), np.array([-1, 0]), np.array([0, 12])],
        ids=["empty", "2-D", "float", "negative", "out-of-range"],
    )
    @pytest.mark.parametrize(
        "entry",
        [lambda w, ds, idx: ds.take(idx), mean_loss, loss_and_grad, per_sample_grad_matrix, per_sample_grad_norms],
        ids=["Dataset.take", "mean_loss", "loss_and_grad", "per_sample_grad_matrix", "per_sample_grad_norms"],
    )
    def test_every_entry_point_states_the_one_row_rule(self, entry, idx):
        ds = blob_dataset()  # 12 rows
        w = glorot_init(MlpSpec(4, (5,), 3, seed=7))
        message = r"^row indices must be a non-empty 1-D array of integers in the range \[0, 12\)$"
        with pytest.raises(ValueError, match=message):
            entry(w, ds, idx)

    def test_unsigned_and_list_index_sets_are_accepted(self):
        ds = blob_dataset()
        w = glorot_init(MlpSpec(4, (5,), 3, seed=7))
        want = mean_loss(w, ds, np.array([3, 0, 5]))
        assert mean_loss(w, ds, np.array([3, 0, 5], dtype=np.uint8)) == want
        assert mean_loss(w, ds, [3, 0, 5]) == want

    def test_gradient_matches_finite_differences_small_net(self):
        ds = blob_dataset(seed=5, n_per_class=2, classes=3, dim=5)
        w = glorot_init(MlpSpec(5, (6,), 3, seed=9))
        idx = np.array([0, 2, 4, 5])
        _, grad = loss_and_grad(w, ds, idx)
        fd = finite_difference_grad(w, ds, idx)
        rel = np.linalg.norm(grad.values - fd) / np.linalg.norm(fd)
        assert rel < 1e-6


class TestWeightedLossAndGrad:
    def setup_method(self):
        self.ds = blob_dataset(seed=3, n_per_class=6, classes=3, dim=4)  # N = 18
        self.w = glorot_init(MlpSpec(4, (6, 5), 3, seed=3))
        self.idx = np.array([4, 0, 17, 9, 9, 2, 11])
        self.weights = np.array([0.5, -1.25, 2.0, 0.0, 0.75, -0.5, 1.0])

    def test_weighted_sum_of_per_sample_losses_and_gradients(self):
        loss, grad = loss_and_grad(self.w, self.ds, self.idx, self.weights)
        want_loss = 0.0
        want_grad = np.zeros(len(self.w))
        for i, weight in zip(self.idx, self.weights):
            loss_i, grad_i = loss_and_grad(self.w, self.ds, np.array([i]))
            want_loss += weight * loss_i
            want_grad += weight * grad_i.values
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(grad.values, want_grad, rtol=0, atol=1e-14)

    def test_weights_of_one_over_b_give_the_mean(self):
        b = len(self.idx)
        mean, g_mean = loss_and_grad(self.w, self.ds, self.idx)
        loss, grad = loss_and_grad(self.w, self.ds, self.idx, np.full(b, 1.0 / b))
        assert loss == pytest.approx(mean, rel=1e-14)
        np.testing.assert_allclose(grad.values, g_mean.values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunking_is_transparent(self, monkeypatch, weighted):
        weights = self.weights if weighted else None
        whole_loss, whole = loss_and_grad(self.w, self.ds, self.idx, weights)
        for rows in (1, 3):
            set_max_rows(monkeypatch, rows)
            loss, grad = loss_and_grad(self.w, self.ds, self.idx, weights)
            assert loss == pytest.approx(whole_loss, rel=1e-14)
            np.testing.assert_allclose(grad.values, whole.values, rtol=0, atol=1e-15)

    def test_weights_must_match_the_index_set(self):
        with pytest.raises(ValueError, match="weights"):
            loss_and_grad(self.w, self.ds, self.idx, self.weights[:-1])
        with pytest.raises(ValueError, match="weights"):
            loss_and_grad(self.w, self.ds, None, self.weights)

    def test_results_survive_later_calls(self, monkeypatch):
        # the kernel reuses its buffers: nothing an entry point returns may share them
        set_max_rows(monkeypatch, 4)
        loss, grad = loss_and_grad(self.w, self.ds, self.idx, self.weights)
        sq, total = per_sample_grad_norms(self.w, self.ds, self.idx)
        mat = per_sample_grad_matrix(self.w, self.ds, self.idx)
        kept = [grad.values.copy(), sq.copy(), total.values.copy(), mat.copy()]
        other = np.array([1, 3, 5, 6, 8, 10, 12, 13, 15])
        loss_and_grad(self.w, self.ds, other)
        loss_and_grad(self.w, self.ds, other, np.linspace(-1.0, 2.0, other.shape[0]))
        per_sample_grad_norms(self.w, self.ds)
        per_sample_grad_matrix(self.w, self.ds)
        mean_loss(self.w, self.ds)
        evaluate_accuracy(self.w, self.ds)
        for now, before in zip([grad.values, sq, total.values, mat], kept):
            np.testing.assert_array_equal(now, before)
        assert loss_and_grad(self.w, self.ds, self.idx, self.weights)[0] == loss

    def test_every_pass_grows_and_reuses_the_one_kept_set(self, monkeypatch):
        # one set per dims serves all five entry points: the first pass makes
        # it, one chunk of rows, and every later pass reuses it
        dims = self.w.dims
        passes = [
            lambda: loss_and_grad(self.w, self.ds),
            lambda: loss_and_grad(self.w, self.ds, np.arange(self.ds.n_samples), np.ones(self.ds.n_samples)),
            lambda: mean_loss(self.w, self.ds),
            lambda: evaluate_accuracy(self.w, self.ds),
            lambda: per_sample_grad_norms(self.w, self.ds),
            lambda: per_sample_grad_matrix(self.w, self.ds),
        ]
        for max_rows in (model._MAX_ROWS, 7):
            for run in passes:
                set_max_rows(monkeypatch, max_rows)
                run()
                kept = model._work_set(dims)
                assert kept[0][0].shape[0] == max_rows
                loss_and_grad(self.w, self.ds, self.idx)
                mean_loss(self.w, self.ds, self.idx[:3])
                assert model._work_set(dims) is kept
                assert model._work_set.cache_info().misses == 1

    @pytest.mark.parametrize("max_rows", [1024, 6])
    def test_kept_set_is_one_chunk_made_once(self, monkeypatch, max_rows):
        # training passes over B ∪ B' vary in size from step to step; none of
        # them, nor a full-data pass, remakes or resizes the set
        set_max_rows(monkeypatch, max_rows)
        dims = self.w.dims
        loss_and_grad(self.w, self.ds, np.arange(2))
        kept = model._work_set(dims)
        assert kept[0][0].shape[0] == min(max_rows, 1024)
        for rows in (3, 17, 5):
            loss_and_grad(self.w, self.ds, np.arange(rows))
        per_sample_grad_norms(self.w, self.ds)
        mean_loss(self.w, self.ds)
        assert model._work_set(dims) is kept and kept[0][0].shape[0] == min(max_rows, 1024)
        assert model._work_set.cache_info().currsize == 1


class TestPassBudget:
    """Chunks hold as many rows as fit model._PASS_BYTES, at most model._MAX_ROWS."""

    def test_narrow_nets_keep_the_row_caps(self):
        # the desk net, the real-data check-8 net and the full-scale shape
        # (35,100 bytes a row, so 1,433 rows would fit the budget)
        for dims in ((16, 128, 128, 4), (784, 100, 100, 10), (784, *(500,) * 7, 10)):
            assert kept_rows(dims) == model._MAX_ROWS == 1024

    def test_wide_nets_get_the_budget_row_count(self):
        dims = (784, *(2000,) * 7, 10)
        row_bytes = 8 * (784 + 7 * 2000 + 10 + 10 + 10 + 1 + 10) + 2000  # 120,600
        assert kept_rows(dims) == model._PASS_BYTES // row_bytes == 417
        assert kept_rows((10**7, 10)) == 1

    def test_small_budget_bounds_the_kept_set_and_keeps_the_results(self, monkeypatch):
        ds = blob_dataset(seed=4, n_per_class=20, classes=3, dim=4)  # N = 60
        w = glorot_init(MlpSpec(4, (6, 5), 3, seed=4))
        idx = np.random.default_rng(4).integers(0, ds.n_samples, size=41)
        weights = np.linspace(-1.0, 2.0, idx.shape[0])

        def outputs():
            loss, grad = loss_and_grad(w, ds, idx)
            wloss, wgrad = loss_and_grad(w, ds, idx, weights)
            sq, total = per_sample_grad_norms(w, ds, idx)
            return (
                [loss, wloss, mean_loss(w, ds), evaluate_accuracy(w, ds)],
                [grad.values, wgrad.values, sq, total.values, per_sample_grad_matrix(w, ds, idx)],
            )

        whole_scalars, whole_arrays = outputs()
        assert kept_rows(w.dims) >= ds.n_samples  # every pass in one chunk
        budget = 5 * (8 * (4 + 6 + 5 + 3 + 3 + 3 + 1 + 3) + 6)  # five rows
        monkeypatch.setattr(model, "_PASS_BYTES", budget)
        model._work_set.cache_clear()
        scalars, arrays = outputs()
        fwd, bwd = model._work_set(w.dims)
        assert fwd[0].shape[0] == 5
        assert sum(a.nbytes for a in (*fwd, *bwd)) <= budget
        np.testing.assert_allclose(scalars, whole_scalars, rtol=1e-15, atol=1e-15)
        for got, want in zip(arrays, whole_arrays):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


class TestPerSampleGradients:
    def setup_method(self):
        self.ds = blob_dataset(seed=8, n_per_class=5, classes=3, dim=4)
        self.w = glorot_init(MlpSpec(4, (6, 5), 3, seed=8))

    def test_rows_match_single_sample_gradients(self):
        mat = per_sample_grad_matrix(self.w, self.ds)
        for mu in (0, 7, 14):
            _, g = loss_and_grad(self.w, self.ds, np.array([mu]))
            np.testing.assert_allclose(mat[mu], g.values, atol=1e-14)

    def test_mean_row_equals_batched_gradient(self):
        mat = per_sample_grad_matrix(self.w, self.ds)
        _, full = loss_and_grad(self.w, self.ds, None)
        np.testing.assert_allclose(mat.mean(axis=0), full.values, atol=1e-12)

    def test_chunking_does_not_change_rows(self, monkeypatch):
        set_max_rows(monkeypatch, 4)
        a = per_sample_grad_matrix(self.w, self.ds)
        set_max_rows(monkeypatch, 64)
        b = per_sample_grad_matrix(self.w, self.ds)
        np.testing.assert_array_equal(a, b)

    def test_norms_total_is_the_batched_gradient_times_b(self, monkeypatch):
        idx = np.array([3, 0, 14, 7, 7, 9])
        _, grad = loss_and_grad(self.w, self.ds, idx)
        set_max_rows(monkeypatch, len(idx))
        _, total = per_sample_grad_norms(self.w, self.ds, idx)
        np.testing.assert_array_equal(grad.values, total.values / len(idx))

    def test_norms_do_not_depend_on_chunk_size(self, monkeypatch):
        sq, total = per_sample_grad_norms(self.w, self.ds)
        for chunk_size in (1, 4, 7):
            set_max_rows(monkeypatch, chunk_size)
            sq_c, total_c = per_sample_grad_norms(self.w, self.ds)
            np.testing.assert_allclose(sq_c, sq, rtol=1e-12)
            np.testing.assert_allclose(total_c.values, total.values, rtol=1e-12)

    def test_norms_trick_matches_explicit_rows(self):
        mat = per_sample_grad_matrix(self.w, self.ds)
        sq, total = per_sample_grad_norms(self.w, self.ds)
        np.testing.assert_allclose(sq, (mat**2).sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(total.values, mat.sum(axis=0), rtol=0, atol=1e-12)


def two_set_passes(w, ds, idx, chunk, weights=None):
    """Reference kernel with its own array per dz: yields (part, labels,
    acts, logp, dzs) per chunk, with dzs[l] = (dzs[l + 1] @ W.T) * (a > 0)
    and every activation left intact."""
    for start in range(0, len(idx), chunk):
        rows = idx[start : start + chunk]
        n = len(rows)
        labels = ds.labels[rows]
        acts = [ds.inputs[rows]]
        for layer in range(w.n_layers):
            z = acts[-1] @ w.weights(layer) + w.bias(layer)
            acts.append(np.maximum(z, 0.0) if layer < w.n_layers - 1 else z)
        shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        dzs = [None] * w.n_layers
        dzs[-1] = np.exp(logp)
        dzs[-1][np.arange(n), labels] -= 1.0
        if weights is not None:
            dzs[-1] = dzs[-1] * weights[start : start + n, None]
        for layer in range(w.n_layers - 1, 0, -1):
            dzs[layer - 1] = (dzs[layer] @ w.weights(layer).T) * (acts[layer] > 0.0)
        yield slice(start, start + n), labels, acts, logp, dzs


def two_set_loss_and_grad(w, ds, idx, chunk, weights=None):
    grad = ParamVector(np.empty(len(w)), w.dims)
    total = -0.0
    for part, labels, acts, logp, dzs in two_set_passes(w, ds, idx, chunk, weights):
        picked = logp[np.arange(len(labels)), labels]
        total -= picked.sum() if weights is None else weights[part] @ picked
        for layer in range(w.n_layers):
            gw, gb = grad.weights(layer), grad.bias(layer)
            if part.start == 0:
                gw[:] = acts[layer].T @ dzs[layer]
                gb[:] = dzs[layer].sum(axis=0)
            else:
                gw += acts[layer].T @ dzs[layer]
                gb += dzs[layer].sum(axis=0)
    if weights is None:
        grad.values /= len(idx)
        total /= len(idx)
    return total, grad.values


def two_set_norms(w, ds, idx, chunk):
    sq_norms = np.zeros(len(idx))
    total = ParamVector.zeros(w.dims)
    for part, _, acts, _, dzs in two_set_passes(w, ds, idx, chunk):
        for layer in range(w.n_layers):  # terms added in layer order 0..L-1
            a_sq = np.einsum("bi,bi->b", acts[layer], acts[layer])
            dz_sq = np.einsum("bo,bo->b", dzs[layer], dzs[layer])
            sq_norms[part] += a_sq * dz_sq + dz_sq
            total.weights(layer)[:] += acts[layer].T @ dzs[layer]
            total.bias(layer)[:] += dzs[layer].sum(axis=0)
    return sq_norms, total.values


def two_set_matrix(w, ds, idx):
    out = np.empty((len(idx), len(w)))
    for _, _, acts, _, dzs in two_set_passes(w, ds, idx, len(idx)):
        for layer in range(w.n_layers):
            w_off, b_off = w.slots(layer)
            outer = np.einsum("bi,bo->bio", acts[layer], dzs[layer])
            out[:, w_off:b_off] = outer.reshape(len(idx), -1)
            out[:, b_off : b_off + w.dims[layer + 1]] = dzs[layer]
    return out


class TestOneActivationSetSweep:
    """The backward sweep writes each dz over the activation it replaces; every
    entry point must stay byte-equal to a kernel that keeps a dz array per layer."""

    def setup_method(self):
        self.ds = blob_dataset(seed=6, n_per_class=12, classes=3, dim=6)  # N = 36
        self.w = glorot_init(MlpSpec(6, (9, 4, 8), 3, seed=6))
        gen = np.random.default_rng(6)
        self.idx = gen.integers(0, self.ds.n_samples, size=23)
        self.weights = gen.standard_normal(23)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("chunk", [4096, 3])
    def test_loss_and_grad(self, monkeypatch, weighted, chunk):
        set_max_rows(monkeypatch, chunk)
        weights = self.weights if weighted else None
        loss, grad = loss_and_grad(self.w, self.ds, self.idx, weights)
        want_loss, want_grad = two_set_loss_and_grad(self.w, self.ds, self.idx, chunk, weights)
        assert loss == want_loss
        assert np.array_equal(grad.values, want_grad)

    @pytest.mark.parametrize("chunk", [model._MAX_ROWS, 5])
    def test_per_sample_grad_norms(self, monkeypatch, chunk):
        set_max_rows(monkeypatch, chunk)
        sq, total = per_sample_grad_norms(self.w, self.ds, self.idx)
        want_sq, want_total = two_set_norms(self.w, self.ds, self.idx, chunk)
        assert np.array_equal(sq, want_sq)
        assert np.array_equal(total.values, want_total)

    def test_per_sample_grad_matrix(self):
        mat = per_sample_grad_matrix(self.w, self.ds, self.idx)
        assert np.array_equal(mat, two_set_matrix(self.w, self.ds, self.idx))


class TestKernelMemory:
    def setup_method(self):
        self.ds = blob_dataset(seed=2, n_per_class=150, classes=3, dim=8)  # N = 450
        self.w = glorot_init(MlpSpec(8, (1024, 1024), 3, seed=2))
        self.idx = np.arange(400)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_warm_gradient_pass_allocates_little_beyond_its_result(self, weighted):
        # once the kept buffers exist, a call allocates its gradient, a few
        # (rows,) and (rows, classes) temporaries and numpy's fixed-size
        # casting buffer for the float * bool mask product; nothing as
        # large as rows x hidden width (400 x 1024 here)
        weights = np.linspace(-1.0, 1.0, len(self.idx)) if weighted else None
        loss_and_grad(self.w, self.ds, self.idx, weights)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, grad = loss_and_grad(self.w, self.ds, self.idx, weights)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows, classes = len(self.idx), self.w.dims[-1]
        allowed = grad.values.nbytes + 8 * np.getbufsize() + 128 * rows * classes
        assert peak <= allowed, f"peak {peak} bytes, allowed {allowed}"

    @pytest.mark.parametrize("entry", [mean_loss, per_sample_grad_norms], ids=lambda f: f.__name__)
    def test_warm_pass_over_more_rows_than_training_allocates_no_work_arrays(self, entry):
        # a full-data pass (450 rows) takes more rows than the training pass
        # (400), and the one kept set of a 1,024-row chunk serves both: it
        # allocates its results, (rows,) temporaries and, for the norms, one
        # summed weight block at a time, but nothing of rows x hidden width
        loss_and_grad(self.w, self.ds, self.idx)
        entry(self.w, self.ds)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            entry(self.w, self.ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows, widest = self.ds.n_samples, max(self.w.dims[1:-1])
        slack = 8 * np.getbufsize() + 128 * rows * self.w.dims[-1]
        assert slack < 8 * rows * widest
        results = 0 if entry is mean_loss else 8 * len(self.w) + self.w.weights(1).nbytes
        assert peak <= results + slack, f"peak {peak} bytes, allowed {results + slack}"

    def test_matrix_pass_writes_outer_products_into_its_output(self):
        # a one-hidden-layer net whose first weight block is 73% of P: a
        # (rows, in, out) temporary would add 0.73 of the output to the peak
        ds = blob_dataset(seed=3, n_per_class=100, classes=2, dim=8)  # N = 200
        w = glorot_init(MlpSpec(8, (256,), 2, seed=3))
        per_sample_grad_matrix(w, ds)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mat = per_sample_grad_matrix(w, ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert w.weights(0).size * ds.n_samples * 8 >= mat.nbytes // 2
        # beyond the output: numpy's fixed-size iterator buffers for the
        # broadcast product into a strided target (one per operand), and (rows,) arrays
        allowed = mat.nbytes + 3 * 8 * np.getbufsize() + 64 * ds.n_samples
        assert peak <= allowed, f"peak {peak} bytes, allowed {allowed}"

    def test_kept_backward_set_has_no_hidden_width_floats(self):
        loss_and_grad(self.w, self.ds, self.idx)
        forward, backward = model._work_set(self.w.dims)
        rows = forward[0].shape[0]
        floats = [a for a in backward if a.dtype.kind == "f"]
        assert floats and all(a.shape == (rows, self.w.dims[-1]) for a in floats)
        assert sum(a.nbytes for a in backward if a.dtype.kind != "f") <= rows * 1024


class TestAccuracy:
    def test_zero_params_predict_class_zero(self):
        # balanced labels: accuracy equals the class-0 share exactly
        ds = blob_dataset(n_per_class=6, classes=3)
        w = ParamVector.zeros((4, 3))
        assert evaluate_accuracy(w, ds) == pytest.approx(1.0 / 3.0)

    def test_perfect_separation_reaches_one(self):
        inputs = np.array([[0.0, 1.0], [1.0, 0.0]])
        ds = Dataset(inputs, np.array([0, 1]), 2)
        pv = ParamVector(np.array([0.0, 10.0, 10.0, 0.0, 0.0, 0.0]), (2, 2))
        assert evaluate_accuracy(pv, ds) == 1.0

    def test_chunking_matches(self, monkeypatch):
        ds = blob_dataset(n_per_class=11)
        w = glorot_init(MlpSpec(4, (5,), 3, seed=1))
        whole = evaluate_accuracy(w, ds)
        set_max_rows(monkeypatch, 3)
        assert evaluate_accuracy(w, ds) == whole

