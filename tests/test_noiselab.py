import itertools
import math
import tracemalloc

import numpy as np
import pytest

import noise_forge.noiselab as noiselab
from noise_forge.dataio import Dataset, SyntheticSpec, make_synthetic
from noise_forge.model import MlpSpec, glorot_init, per_sample_grad_matrix
from noise_forge.noiselab import (
    MAX_DENSE_PARAMS,
    CapabilityError,
    effective_batch,
    enhancement_factor,
    enumerate_ne_noise_covariance_from_grads,
    enumerate_noise_covariance_from_grads,
    exact_noise_trace,
    excess_kurtosis,
    gradient_diversity,
    noise_covariance_from_grads,
    probe_noise,
    sample_ne_noise,
)
from noise_forge.oracles import OracleCheck
from noise_forge.rng import named_stream, uniform_batch

# per-sample scalar "gradients" with known exact noise variance:
# N=4, B=2 gives (1/2) * (2/3) * var([1,2,3,6]) = (1/2)(2/3)(3.5) = 7/6
HAND_GRADS = np.array([[1.0], [2.0], [3.0], [6.0]])
HAND_VAR = 7.0 / 6.0


def blob_dataset(seed=0, n_per_class=6, classes=2, dim=3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(classes, dim))
    return make_synthetic(SyntheticSpec(centers, n_per_class, 0.3, seed))


def rel_fro(a, b):
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return np.linalg.norm(a - b)
    return np.linalg.norm(a - b) / denom


class TestEnhancementFactor:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(1.0, 1.0), (1.5, 2.5), (2.0, 5.0), (3.0, 13.0), (0.0, 1.0), (0.5, 0.5), (-1.0, 5.0)],
    )
    def test_hand_values(self, alpha, expected):
        assert enhancement_factor(alpha) == pytest.approx(expected, rel=1e-15)

    def test_symmetric_about_one_half(self):
        for alpha in (0.2, 0.7, 1.3, 4.0):
            assert enhancement_factor(alpha) == pytest.approx(
                enhancement_factor(1.0 - alpha), rel=1e-15
            )

    def test_at_least_one_outside_unit_interval(self):
        # inside (0, 1) the combination averages and the factor drops below 1
        for alpha in (-2.0, 0.0, 1.0, 1.01, 5.0, 11.0):
            assert enhancement_factor(alpha) >= 1.0
        assert enhancement_factor(0.5) == 0.5

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            enhancement_factor(float("inf"))


class TestEffectiveBatch:
    def test_hand_values(self):
        assert effective_batch(5000, 3.0) == pytest.approx(5000 / 13.0, rel=1e-15)
        assert effective_batch(2000, 1.5) == pytest.approx(800.0, rel=1e-15)
        assert effective_batch(900, 1.0) == 900.0

    def test_decreasing_in_alpha_above_one(self):
        values = [effective_batch(1000, a) for a in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            effective_batch(0, 2.0)


class TestExactCovariance:
    def test_hand_scalar_value(self):
        cov = noise_covariance_from_grads(HAND_GRADS, batch_size=2)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(HAND_VAR, rel=1e-15)

    def test_full_batch_noise_is_zero(self):
        cov = noise_covariance_from_grads(HAND_GRADS, batch_size=4)
        np.testing.assert_array_equal(cov, np.zeros((1, 1)))

    def test_single_sample_dataset_has_zero_noise(self):
        cov = noise_covariance_from_grads(np.array([[3.0, -1.0]]), batch_size=1)
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    def test_matrix_is_symmetric_psd(self):
        g = np.random.default_rng(3).standard_normal((12, 5))
        cov = noise_covariance_from_grads(g, batch_size=3)
        np.testing.assert_allclose(cov, cov.T, atol=1e-15)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_too_many_params_rejected(self):
        with pytest.raises(CapabilityError):
            noise_covariance_from_grads(np.zeros((3, MAX_DENSE_PARAMS + 1)), batch_size=2)

    @pytest.mark.parametrize(
        "dense",
        [
            lambda g, b: noise_covariance_from_grads(g, b),
            lambda g, b: enumerate_noise_covariance_from_grads(g, b),
            lambda g, b: enumerate_ne_noise_covariance_from_grads(g, b, 2.0),
        ],
        ids=["closed-form", "enumeration", "pair-enumeration"],
    )
    def test_dense_routines_share_one_input_guard(self, dense):
        with pytest.raises(ValueError, match="n_samples, n_params"):
            dense(np.zeros(4), 2)
        for b in (0, 5):
            with pytest.raises(ValueError, match="batch_size"):
                dense(np.zeros((4, 2)), b)
        with pytest.raises(CapabilityError, match="use probe_noise"):
            dense(np.zeros((3, MAX_DENSE_PARAMS + 1)), 2)


class TestEnumerationOracle:
    def test_hand_scalar_value(self):
        cov = enumerate_noise_covariance_from_grads(HAND_GRADS, batch_size=2)
        assert cov[0, 0] == pytest.approx(HAND_VAR, rel=1e-14)

    def test_matches_closed_form_on_random_grads(self):
        g = np.random.default_rng(7).standard_normal((9, 4))
        for b in (1, 3, 9):
            exact = noise_covariance_from_grads(g, batch_size=b)
            enum = enumerate_noise_covariance_from_grads(g, batch_size=b)
            assert rel_fro(enum, exact) < 1e-12

    def test_chunking_does_not_change_result(self):
        # C(16, 5) = 4368 subsets span two enumeration chunks of 4096
        g = np.random.default_rng(9).standard_normal((16, 3))
        idx = np.array(list(itertools.combinations(range(16), 5)))
        xi = g[idx].mean(axis=1) - g.mean(axis=0)
        one_block = xi.T @ xi / idx.shape[0]
        chunked = enumerate_noise_covariance_from_grads(g, batch_size=5)
        np.testing.assert_allclose(chunked, one_block, rtol=1e-12, atol=1e-15)

    def test_subset_budget_enforced(self):
        with pytest.raises(CapabilityError):
            enumerate_noise_covariance_from_grads(np.zeros((40, 1)), batch_size=10)

    def test_pair_enumeration_hand_value(self):
        cov = enumerate_ne_noise_covariance_from_grads(HAND_GRADS, batch_size=2, alpha=2.0)
        assert cov[0, 0] == pytest.approx(5.0 * HAND_VAR, rel=1e-13)

    def test_pair_enumeration_equals_scaled_vanilla(self):
        g = np.random.default_rng(11).standard_normal((7, 3))
        vanilla = enumerate_noise_covariance_from_grads(g, batch_size=2)
        for alpha in (1.0, 1.5, 2.0, 3.0):
            enhanced = enumerate_ne_noise_covariance_from_grads(g, batch_size=2, alpha=alpha)
            assert rel_fro(enhanced, enhancement_factor(alpha) * vanilla) < 1e-12

    def test_pair_budget_enforced(self):
        with pytest.raises(CapabilityError):
            enumerate_ne_noise_covariance_from_grads(np.zeros((15, 1)), batch_size=7, alpha=2.0)

    def test_pair_array_budget_enforced_before_allocating(self):
        # C(30, 2)^2 = 189,225 pairs pass the pair budget, but x 400 parameters
        # the pairs array would hold 75.7M doubles (606 MB)
        grads = np.zeros((30, 400))
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError, match="exceed 50000000 entries"):
                enumerate_ne_noise_covariance_from_grads(grads, batch_size=2, alpha=2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestModelLevelWrappers:
    def setup_method(self):
        self.ds = blob_dataset(seed=5, n_per_class=4, classes=2, dim=3)  # N = 8
        self.w = glorot_init(MlpSpec(3, (4,), 2, seed=5))

    def test_enumeration_matches_closed_form_at_the_model(self):
        grads = per_sample_grad_matrix(self.w, self.ds)
        for b in (1, 2, 8):
            exact = noise_covariance_from_grads(grads, batch_size=b)
            enum = enumerate_noise_covariance_from_grads(grads, batch_size=b)
            assert rel_fro(enum, exact) < 1e-10

    def test_trace_shortcut_matches_dense_trace(self):
        grads = per_sample_grad_matrix(self.w, self.ds)
        for b in (1, 3, 8):
            dense = noise_covariance_from_grads(grads, batch_size=b)
            streamed = exact_noise_trace(self.w, self.ds, batch_size=b)
            assert streamed == pytest.approx(np.trace(dense), rel=1e-12, abs=1e-18)


class TestNoiseSamplers:
    def setup_method(self):
        self.ds = blob_dataset(seed=8, n_per_class=6, classes=2, dim=3)  # N = 12
        self.w = glorot_init(MlpSpec(3, (4,), 2, seed=8))

    def test_shapes_and_determinism(self):
        a = sample_ne_noise(self.w, self.ds, 3, 1.0, 40, seed=5)
        b = sample_ne_noise(self.w, self.ds, 3, 1.0, 40, seed=5)
        assert a.shape == (40, len(self.w))
        np.testing.assert_array_equal(a, b)
        c = sample_ne_noise(self.w, self.ds, 3, 1.0, 40, seed=6)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("seed", [1.5, -1])
    @pytest.mark.parametrize(
        "entry, full_pass",
        [
            (lambda w, ds, alpha, seed: sample_ne_noise(w, ds, 3, alpha, 10, seed), "per_sample_grad_matrix"),
            (lambda w, ds, alpha, seed: probe_noise(w, ds, 0.1, 3, alpha, 10, seed), "per_sample_grad_norms"),
        ],
    )
    def test_bad_seed_is_rejected_before_the_full_data_pass(self, monkeypatch, entry, full_pass, seed, alpha):
        # the noise streams used to be built at the first draw, after the pass
        calls = []
        monkeypatch.setattr(noiselab, full_pass, lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^root_seed must be an integer >= 0, got {seed}$"):
            entry(self.w, self.ds, alpha, seed)
        assert calls == []

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("eta", [math.nan, 0.0, -1.0, True, "0.1"], ids=repr)
    def test_bad_step_size_is_rejected_before_the_full_data_pass(self, monkeypatch, eta, alpha):
        # eta=-1.0 and True used to give the trace and ratio of eta=1, and
        # "0.1" to fail only after the full-data pass
        calls = []
        for name in ("_index_pairs", "per_sample_grad_norms", "loss_and_grad"):
            monkeypatch.setattr(noiselab, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(ValueError, match="^learning_rate must be finite and positive$"):
            probe_noise(self.w, self.ds, eta, 3, alpha, 10, seed=0)
        assert calls == []

    def test_stream_index_gives_fresh_draws(self):
        for alpha in (1.0, 2.0):
            a = probe_noise(self.w, self.ds, 0.1, 3, alpha, 40, seed=5, stream_index=0)
            b = probe_noise(self.w, self.ds, 0.1, 3, alpha, 40, seed=5, stream_index=1)
            again = probe_noise(self.w, self.ds, 0.1, 3, alpha, 40, seed=5, stream_index=1)
            assert a.trace_cov != b.trace_cov
            assert b == again

    def test_alpha_one_reproduces_vanilla_bitwise(self):
        # alpha = 1 is the vanilla sampler: mean(G[S]) - g_bar over the
        # "noise-primary-v2" draws, one choice(n, 3, replace=False) per row;
        # alpha = 2 adds the "noise-enhancement-v2" draws.
        g = per_sample_grad_matrix(self.w, self.ds)
        n = self.ds.n_samples

        def vanilla(stream):
            rng = named_stream(7, stream, 0)
            idx = np.array([rng.choice(n, 3, replace=False) for _ in range(50)])
            return g[idx].mean(axis=1) - g.mean(axis=0)

        xi = vanilla("noise-primary-v2")
        assert np.array_equal(xi, sample_ne_noise(self.w, self.ds, 3, 1.0, 50, seed=7))
        enhanced = 2.0 * xi + (1.0 - 2.0) * vanilla("noise-enhancement-v2")
        sampled = sample_ne_noise(self.w, self.ds, 3, 2.0, 50, seed=7)
        assert np.array_equal(enhanced, sampled)

    def test_chunks_bounded_by_the_sample_cap_are_transparent(self, monkeypatch):
        # N = 12 and P = 26: a cap of N * P allows 2 draws per chunk at B = 6
        # and 1 at B = 8, and every row stays byte-equal to the uncapped run
        p = len(self.w)
        reference = {
            (b, alpha): sample_ne_noise(self.w, self.ds, b, alpha, 12, seed=3)
            for b in (6, 8)
            for alpha in (1.0, 2.0)
        }
        monkeypatch.setattr(noiselab, "MAX_SAMPLE_ENTRIES", self.ds.n_samples * p)
        for (b, alpha), expected in reference.items():
            capped = sample_ne_noise(self.w, self.ds, b, alpha, 12, seed=3)
            assert capped.tobytes() == expected.tobytes()

    def test_gather_memory_is_bounded_by_the_sample_cap(self, monkeypatch):
        # G, the output and one chunk's (draws, B, P) gather each hold at most
        # `cap` doubles; a 512-draw gather would be 20x the cap here
        ds = blob_dataset(seed=3, n_per_class=20)
        w = glorot_init(MlpSpec(3, (16,), 2, seed=3))
        n_draws, b = 400, 20
        cap = n_draws * len(w)
        monkeypatch.setattr(noiselab, "MAX_SAMPLE_ENTRIES", cap)
        for alpha in (1.0, 2.0):
            tracemalloc.start()
            try:
                sample_ne_noise(w, ds, b, alpha, n_draws, seed=4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 8 * cap

    def test_full_batch_noise_is_exactly_zero(self):
        # zero up to the roundoff of two means: the 1e-16 bound this held on the
        # update noise at eta = 0.1 is 1e-15 on the gradient noise
        xi = sample_ne_noise(self.w, self.ds, self.ds.n_samples, 1.0, 5, seed=1)
        np.testing.assert_allclose(xi, np.zeros_like(xi), atol=1e-15)

    def test_sample_budget_enforced(self):
        with pytest.raises(CapabilityError):
            sample_ne_noise(self.w, self.ds, 3, 1.0, 30_000_000, seed=0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            sample_ne_noise(self.w, self.ds, 0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_ne_noise(self.w, self.ds, 100, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_ne_noise(self.w, self.ds, 3, float("nan"), 10, seed=0)

    def test_sample_covariance_approaches_prediction(self):
        # Monte Carlo check of the enhancement ratio at alpha = 2 (factor 5)
        b, alpha, n = 3, 2.0, 20_000
        samples = sample_ne_noise(self.w, self.ds, b, alpha, n, seed=13)
        baseline = exact_noise_trace(self.w, self.ds, b)
        ratio = samples.var(axis=0, ddof=1).sum() / baseline
        assert ratio == pytest.approx(5.0, rel=0.10)


class TestIndexPairs:
    # properties of the noise-lab batch draw itself, on N = 12, B = 3
    N, B = 12, 3

    def draws(self, alpha, n_draws, seed=4, stream_index=0):
        pairs = list(noiselab._index_pairs(seed, stream_index, alpha, n_draws, self.N, self.B))
        primary = np.array([p for p, _ in pairs])
        second = [e for _, e in pairs]
        enhancement = None if all(e is None for e in second) else np.array(second)
        return primary, enhancement

    def test_rows_hold_distinct_indices_in_range(self):
        for batches in self.draws(2.0, 500):
            assert batches.shape == (500, self.B)
            assert batches.dtype == np.int64
            assert batches.min() >= 0 and batches.max() < self.N
            assert all(len(np.unique(row)) == self.B for row in batches)

    def test_primary_batches_do_not_depend_on_alpha(self):
        for stream_index in (0, 3):
            at_one, none = self.draws(1.0, 100, stream_index=stream_index)
            at_two, enhancement = self.draws(2.0, 100, stream_index=stream_index)
            assert none is None
            assert np.array_equal(at_one, at_two)
            assert not np.array_equal(at_two, enhancement)

    def test_inclusion_frequency_is_uniform(self):
        # Each index lands in a draw with probability p = B/N, so its count
        # over D draws is Binomial(D, p): mean D*p, sd sqrt(D*p*(1-p)) =
        # 61.2 at D = 20,000, p = 1/4. The bound is 4.5 sd (275 draws). A
        # correct sampler breaks it for one of the 24 counts below with
        # probability < 24 * 6.8e-6 = 1.6e-4. An index that is never drawn,
        # or whose inclusion rate is off by 6% (300 draws), breaks it.
        draws = 20_000
        p = self.B / self.N
        bound = 4.5 * math.sqrt(draws * p * (1.0 - p))
        for batches in self.draws(2.0, draws, seed=11):
            counts = np.bincount(batches.ravel(), minlength=self.N)
            assert np.all(np.abs(counts - draws * p) <= bound), counts


class TestOracleCheck:
    # the oracle suite's one pass rule: measured <= bound
    def test_nan_fails_and_zero_meets_a_zero_bound(self):
        assert not OracleCheck("nan", float("nan"), 1.0, "").passed
        assert OracleCheck("exact", 0.0, 0.0, "").passed
        assert not OracleCheck("over", 1e-300, 0.0, "").passed


class TestFirstByKey:
    # The retired noise-lab draw took the first b columns of a full argsort of
    # N uniform keys. uniform_batch must keep its law: every ordered b-tuple
    # of distinct indices, order within the batch included, equally likely.
    N, B = 5, 2

    def ordered_pair_counts(self, batches):
        codes = batches[:, 0] * self.N + batches[:, 1]
        return np.bincount(codes, minlength=self.N * self.N).reshape(self.N, self.N)

    @pytest.mark.parametrize("case", ["random"])
    def test_matches_full_argsort(self, case):
        # 20 ordered pairs, each Binomial(D, 1/20): sd 30.8 at D = 20,000; the
        # bound is 4.5 sd. A sampler that returned its batch sorted, or swapped
        # index 0 to the front in 20% of the draws that hold it second, breaks it.
        draws = 20_000
        gen = np.random.default_rng(12)
        by_key = np.argsort(gen.random((draws, self.N)), axis=1)[:, : self.B]
        drawn = np.array([uniform_batch(gen, self.N, self.B) for _ in range(draws)])
        p = 1.0 / (self.N * (self.N - 1))
        bound = 4.5 * math.sqrt(draws * p * (1.0 - p))
        off_diagonal = ~np.eye(self.N, dtype=bool)
        for batches in (by_key, drawn):
            counts = self.ordered_pair_counts(batches)
            assert np.all(np.diag(counts) == 0)
            assert np.all(np.abs(counts[off_diagonal] - draws * p) <= bound), counts


class TestKurtosis:
    def test_gaussian_is_near_zero(self):
        x = named_stream(44, "projection").standard_normal((100_000, 2))
        np.testing.assert_allclose(excess_kurtosis(x), [0.0, 0.0], atol=0.1)

    def test_symmetric_two_point_is_minus_two(self):
        x = np.array([1.0, -1.0] * 500)[:, None]
        assert excess_kurtosis(x)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_constant_column_is_nan(self):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        kurt = excess_kurtosis(x)
        assert math.isnan(kurt[0])
        assert math.isfinite(kurt[1])
        # rounding in the mean of 1/3 leaves a tiny nonzero second moment
        assert math.isnan(excess_kurtosis(np.full((400, 1), 1.0 / 3.0))[0])


class TestGradientDiversity:
    # _grad_diversity takes the per-sample squared norms and the summed gradient
    @staticmethod
    def diversity(g):
        return noiselab._grad_diversity(np.einsum("np,np->n", g, g), g.sum(axis=0))

    def test_orthogonal_rows_give_one(self):
        assert self.diversity(np.eye(4)) == pytest.approx(1.0)

    def test_identical_rows_give_inverse_count(self):
        g = np.tile(np.array([1.0, 2.0]), (5, 1))
        assert self.diversity(g) == pytest.approx(0.2, rel=1e-15)

    def test_hand_value(self):
        # rows (1,1) and (2,0): num = 2 + 4 = 6, den = |(3,1)|^2 = 10
        g = np.array([[1.0, 1.0], [2.0, 0.0]])
        assert self.diversity(g) == pytest.approx(0.6, rel=1e-15)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            self.diversity(np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_streamed_matches_matrix_form(self):
        ds = blob_dataset(seed=3, n_per_class=5, classes=3, dim=4)
        w = glorot_init(MlpSpec(4, (6,), 3, seed=3))
        mat = per_sample_grad_matrix(w, ds)
        total = mat.sum(axis=0)
        expected = (mat**2).sum() / (total @ total)
        assert gradient_diversity(w, ds) == pytest.approx(expected, rel=1e-12)


class TestProbe:
    def setup_method(self):
        self.ds = blob_dataset(seed=6, n_per_class=6, classes=2, dim=3)  # N = 12
        self.w = glorot_init(MlpSpec(3, (5,), 2, seed=6))

    def test_matches_dense_sampling_path(self):
        # same seed, same index streams: the streamed probe must agree with
        # explicit sample matrices up to accumulation roundoff; the probe
        # reports the update noise eta * xi, the samples the gradient noise xi
        eta, b, alpha, n, seed = 0.1, 3, 2.0, 50, 15
        row = probe_noise(self.w, self.ds, eta, b, alpha, n, seed=seed)
        samples = sample_ne_noise(self.w, self.ds, b, alpha, n, seed=seed)
        baseline = exact_noise_trace(self.w, self.ds, b)
        trace = samples.var(axis=0, ddof=1).sum()
        assert row.trace_cov == pytest.approx(eta**2 * trace, rel=1e-9)
        assert row.enhancement_ratio == pytest.approx(trace / baseline, rel=1e-9)
        expected_kurt = float(np.nanmedian(excess_kurtosis(samples)))
        assert row.median_excess_kurtosis == pytest.approx(expected_kurt, abs=1e-6)
        assert row.grad_diversity == pytest.approx(gradient_diversity(self.w, self.ds), rel=1e-12)

    def test_learning_rate_enters_squared(self):
        # the same seed and stream at eta and 2 * eta: the update noise's trace
        # scales by 4, and the enhancement ratio does not move
        eta = 0.05
        for alpha in (1.0, 2.0):
            row = probe_noise(self.w, self.ds, eta, 3, alpha, 40, seed=9, stream_index=2)
            doubled = probe_noise(self.w, self.ds, 2 * eta, 3, alpha, 40, seed=9, stream_index=2)
            assert doubled.trace_cov / row.trace_cov == pytest.approx(4.0, rel=1e-12)
            assert doubled.enhancement_ratio == row.enhancement_ratio

    def test_reports_predictions_alongside_measurements(self):
        row = probe_noise(self.w, self.ds, 0.1, 3, 3.0, 20, seed=2, stream_index=7)
        assert row.step == 7
        assert row.alpha == 3.0
        assert row.batch_size == 3
        assert row.predicted_factor == pytest.approx(13.0)
        assert row.b_eff == pytest.approx(3 / 13.0)

    def test_alpha_one_ratio_is_near_one(self):
        row = probe_noise(self.w, self.ds, 0.1, 3, 1.0, 400, seed=3)
        assert row.enhancement_ratio == pytest.approx(1.0, rel=0.35)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            probe_noise(self.w, self.ds, 0.1, 3, 2.0, 1, seed=0)
        with pytest.raises(ValueError):
            probe_noise(self.w, self.ds, 0.1, 0, 2.0, 10, seed=0)
        with pytest.raises(ValueError):
            probe_noise(self.w, self.ds, 0.1, 3, float("inf"), 10, seed=0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_chunk_size_is_transparent(self, alpha):
        # 150 draws: the probe takes them one at a time, the dense sampler
        # stacks them in one block, and both see the same batches
        row = probe_noise(self.w, self.ds, 0.1, 3, alpha, 150, seed=5)
        samples = sample_ne_noise(self.w, self.ds, 3, alpha, 150, seed=5)
        assert np.isfinite(row.median_excess_kurtosis)
        assert row.trace_cov == pytest.approx(0.1**2 * samples.var(axis=0, ddof=1).sum(), rel=1e-9)
        expected_kurt = float(np.nanmedian(excess_kurtosis(samples)))
        assert row.median_excess_kurtosis == pytest.approx(expected_kurt, abs=1e-6)

    def test_constant_nonzero_noise_is_left_out_of_the_median(self):
        # one-hot inputs, and hidden unit k fires only on row k: unit k's
        # gradient is nonzero only on row k, so when no draw picks row k its
        # coordinates hold -g_bar in every draw, constant but not zero
        n = 40
        ds = Dataset(np.eye(n), np.arange(n) % 2, 2)
        w = glorot_init(MlpSpec(n, (n,), 2, seed=4))
        w.weights(0)[:] = np.eye(n)
        w.bias(0)[:] = -0.5
        eta, b, alpha, n_draws, seed = 0.1, 2, 2.0, 20, 1
        samples = sample_ne_noise(w, ds, b, alpha, n_draws, seed=seed)
        constant = np.ptp(samples, axis=0) == 0.0
        assert (constant & (samples[0] != 0.0)).any()
        row = probe_noise(w, ds, eta, b, alpha, n_draws, seed=seed)
        expected = float(np.nanmedian(excess_kurtosis(samples)))
        assert row.median_excess_kurtosis == pytest.approx(expected, abs=1e-6)

    def test_one_full_data_pass_per_checkpoint(self, monkeypatch):
        rows = {"norms": [], "grad": []}
        norms, grad = noiselab.per_sample_grad_norms, noiselab.loss_and_grad

        def counted_norms(w, ds, idx=None, *args):
            rows["norms"].append(ds.n_samples if idx is None else len(idx))
            return norms(w, ds, idx, *args)

        def counted_grad(w, ds, idx=None, weights=None):
            rows["grad"].append(ds.n_samples if idx is None else len(idx))
            return grad(w, ds, idx, weights)

        monkeypatch.setattr(noiselab, "per_sample_grad_norms", counted_norms)
        monkeypatch.setattr(noiselab, "loss_and_grad", counted_grad)
        probe_noise(self.w, self.ds, 0.1, 3, 2.0, 20, seed=4)
        assert rows["norms"] == [self.ds.n_samples]
        # one weighted call per draw over the |S ∪ S'| rows, a shared row once
        pairs = noiselab._index_pairs(4, 0, 2.0, 20, self.ds.n_samples, 3)
        want = [len(np.union1d(p, e)) for p, e in pairs]
        assert rows["grad"] == want
        assert min(want) < 6  # some draws share a row
