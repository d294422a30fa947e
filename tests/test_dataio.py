import gzip
import hashlib
import pickle
import re
import struct
import tracemalloc

import numpy as np
import pytest

from noise_forge.dataio import (
    Dataset,
    IdxFormatError,
    SyntheticSpec,
    load_idx_pair,
    make_synthetic,
    split_holdout,
    subset,
)

LABEL_RULE = r"^labels must be a non-empty 1-D array of integers in the range \[0, {C}\)$"
IMAGE_MAGIC = 0x00000803  # 2051
LABEL_MAGIC = 0x00000801  # 2049


def image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + images.astype(np.uint8).tobytes()


def label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + labels.astype(np.uint8).tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    images = np.arange(4 * 2 * 3, dtype=np.uint8).reshape(4, 2, 3)
    images[0, 0, 0] = 255
    labels = np.array([0, 9, 1, 3], dtype=np.uint8)
    ipath = tmp_path / "imgs-idx3-ubyte"
    lpath = tmp_path / "lbls-idx1-ubyte"
    ipath.write_bytes(image_bytes(images))
    lpath.write_bytes(label_bytes(labels))
    return ipath, lpath, images, labels


class TestIdxLoading:
    def test_magic_constants(self):
        assert IMAGE_MAGIC == 2051
        assert LABEL_MAGIC == 2049

    def test_load_shapes_and_values(self, idx_pair):
        ipath, lpath, images, labels = idx_pair
        ds = load_idx_pair(ipath, lpath)
        assert ds.n_samples == 4
        assert ds.input_dim == 6
        assert ds.num_classes == 10
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
        np.testing.assert_allclose(ds.inputs, images.reshape(4, 6) / 255.0, rtol=0, atol=0)

    def test_byte_255_normalizes_to_one(self, idx_pair):
        ipath, lpath, _, _ = idx_pair
        ds = load_idx_pair(ipath, lpath)
        assert ds.inputs[0, 0] == 1.0

    def test_byte_51_normalizes_to_exactly_a_fifth(self, tmp_path):
        images = np.full((1, 1, 1), 51, dtype=np.uint8)
        (tmp_path / "i").write_bytes(image_bytes(images))
        (tmp_path / "l").write_bytes(label_bytes(np.array([2], dtype=np.uint8)))
        ds = load_idx_pair(tmp_path / "i", tmp_path / "l")
        assert ds.inputs[0, 0] == 0.2

    def test_gzip_suffix_is_decompressed(self, tmp_path, idx_pair):
        ipath, lpath, images, labels = idx_pair
        gi = tmp_path / "imgs.gz"
        gl = tmp_path / "lbls.gz"
        gi.write_bytes(gzip.compress(ipath.read_bytes()))
        gl.write_bytes(gzip.compress(lpath.read_bytes()))
        ds = load_idx_pair(gi, gl)
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
        np.testing.assert_allclose(ds.inputs, images.reshape(4, 6) / 255.0)

    @pytest.mark.parametrize(
        "mangle, cause",
        [
            (lambda raw: raw, "Not a gzipped file"),
            (lambda raw: gzip.compress(raw)[:-12], "ended before the end-of-stream marker"),
            # a deflate block header of 0xFF holds the reserved block type 3
            (lambda raw: gzip.compress(raw)[:10] + b"\xff" + gzip.compress(raw)[11:], "invalid block type"),
        ],
        ids=["not-gzip", "truncated", "corrupt"],
    )
    def test_broken_gzip_is_a_format_error(self, tmp_path, idx_pair, mangle, cause):
        ipath, lpath, _, _ = idx_pair
        broken = tmp_path / "imgs.gz"
        broken.write_bytes(mangle(ipath.read_bytes()))
        with pytest.raises(IdxFormatError, match=re.escape(f"{broken}: not a readable gzip file")) as exc:
            load_idx_pair(broken, lpath)
        assert cause in str(exc.value)

    def test_bad_magic_rejected(self, tmp_path, idx_pair):
        _, lpath, _, _ = idx_pair
        bad = struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00"
        (tmp_path / "bad").write_bytes(bad)
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx_pair(tmp_path / "bad", lpath)

    def test_swapped_magics_rejected(self, idx_pair):
        ipath, lpath, _, _ = idx_pair
        with pytest.raises(IdxFormatError):
            load_idx_pair(lpath, ipath)

    def test_truncated_payload_rejected(self, tmp_path, idx_pair):
        ipath, lpath, _, _ = idx_pair
        raw = ipath.read_bytes()
        (tmp_path / "cut").write_bytes(raw[:-3])
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx_pair(tmp_path / "cut", lpath)

    def test_count_mismatch_rejected(self, tmp_path, idx_pair):
        ipath, _, _, _ = idx_pair
        (tmp_path / "short").write_bytes(label_bytes(np.array([0, 1], dtype=np.uint8)))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx_pair(ipath, tmp_path / "short")


class TestDataset:
    def test_arrays_are_read_only(self):
        ds = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_copies_do_not_alias_caller_arrays(self):
        x = np.zeros((2, 2))
        y = np.array([0, 0])
        ds = Dataset(x, y, 2)
        x[0, 0] = 0.7
        y[1] = 1
        assert ds.inputs[0, 0] == 0.0
        assert ds.labels[1] == 0

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)

    def test_out_of_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(np.array([[1.5]]), np.array([0]), 1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((1, 2)), np.array([3]), 3)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            Dataset(np.zeros((2, 2)), np.array([0]), 1)

    def test_array_ranks_rejected(self):
        with pytest.raises(ValueError, match="^inputs must be 2-D"):
            Dataset(np.zeros(3), np.zeros(3, dtype=int), 1)
        with pytest.raises(ValueError, match=LABEL_RULE.format(C=1)):
            Dataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int), 1)

    # both used to pass through an int64 cast: [0.0, 1.7, 0.2] read [0, 1, 0], True read 1
    @pytest.mark.parametrize("labels", [[0.0, 1.7, 0.2], [0.0, 1.0, 0.0], [True, False, True]])
    def test_float_and_bool_labels_rejected(self, labels):
        with pytest.raises(ValueError, match=LABEL_RULE.format(C=2)):
            Dataset(np.zeros((3, 2)), np.array(labels), 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.int64])
    def test_integer_labels_of_any_width_are_stored_as_int64(self, dtype):
        ds = Dataset(np.zeros((3, 2)), np.array([2, 0, 1], dtype=dtype), 3)
        assert ds.labels.dtype == np.int64 and not ds.labels.flags.writeable
        np.testing.assert_array_equal(ds.labels, [2, 0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 1)

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 1)), np.array([0]), 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_inputs_rejected_before_the_range(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0.5, bad]]), np.array([0]), 1)

    def test_validation_allocates_no_input_sized_temporary(self):
        # the copy of the inputs is the one large allocation; an n x d
        # boolean finiteness mask (3.1 MB here) would exceed the 1 MB slack
        x = np.random.default_rng(0).random((4000, 784))
        y = np.zeros(4000, dtype=np.int64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            Dataset(x, y, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + (1 << 20), f"peak {peak} bytes for {x.nbytes} of inputs"

    def test_pickled_copy_is_read_only_and_equal(self):
        ds = Dataset(np.array([[0.1, 0.9], [0.4, 0.0]]), np.array([1, 0]), 2)
        back = pickle.loads(pickle.dumps(ds))
        assert not back.inputs.flags.writeable and not back.labels.flags.writeable
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == 2 and back.inputs.dtype == np.float64

    def three_rows(self):
        return Dataset(np.array([[0.1], [0.2], [0.3]]), np.array([0, 1, 2]), 3)

    def test_take_picks_rows_in_order(self):
        sub = self.three_rows().take(np.array([2, 0]))
        np.testing.assert_allclose(sub.inputs[:, 0], [0.3, 0.1])
        np.testing.assert_array_equal(sub.labels, [2, 0])

    def test_take_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="range"):
            self.three_rows().take([-1])

    def test_take_rejects_float_indices(self):
        with pytest.raises(ValueError, match="integer"):
            self.three_rows().take([0.9, 1.7])

    def test_take_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="range"):
            self.three_rows().take([1, 3])


class TestSynthetic:
    def spec(self, seed=3, **kw):
        defaults = dict(
            centers=np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            n_per_class=5,
            noise_scale=0.3,
            seed=seed,
        )
        defaults.update(kw)
        return SyntheticSpec(**defaults)

    def test_counts_and_label_layout(self):
        ds = make_synthetic(self.spec())
        assert ds.n_samples == 15
        assert ds.num_classes == 3
        np.testing.assert_array_equal(np.bincount(ds.labels), [5, 5, 5])

    def test_deterministic_in_seed(self):
        a = make_synthetic(self.spec(seed=9))
        b = make_synthetic(self.spec(seed=9))
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, make_synthetic(self.spec(seed=10)).inputs)

    def test_rescaled_into_unit_interval(self):
        ds = make_synthetic(self.spec(noise_scale=2.0))
        assert ds.inputs.min() == 0.0
        assert ds.inputs.max() == 1.0

    def test_degenerate_cloud_maps_to_half(self):
        spec = SyntheticSpec(np.array([[0.4, 0.4], [0.4, 0.4]]), 3, 0.0, 1)
        ds = make_synthetic(spec)
        np.testing.assert_array_equal(ds.inputs, np.full((6, 2), 0.5))

    def test_label_noise_flips_some_labels(self):
        clean = make_synthetic(self.spec(n_per_class=200))
        noisy = make_synthetic(self.spec(n_per_class=200, label_noise=0.3))
        flipped = (clean.labels != noisy.labels).mean()
        assert 0.1 < flipped < 0.35  # 0.3 flip rate, 1/3 land on the old label

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(np.zeros((2,)), 3, 0.1, 0)
        with pytest.raises(ValueError):
            self.spec(n_per_class=0)
        with pytest.raises(ValueError):
            self.spec(noise_scale=-1.0)
        with pytest.raises(ValueError):
            self.spec(label_noise=1.5)

    # "0.1" used to be accepted and then break make_synthetic; True was kept as True
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_scale", True, "noise_scale must be finite and >= 0"),
            ("noise_scale", "0.3", "noise_scale must be finite and >= 0"),
            ("label_noise", True, "label_noise must lie in [0, 1]"),
            ("label_noise", "0.1", "label_noise must lie in [0, 1]"),
        ],
    )
    def test_real_settings_take_only_numbers(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.spec(**{field: value})

    # a NaN centre used to give a dataset of all 0.5 inputs; an inf one to fail later, in Dataset
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centers_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^centers must be finite$"):
            self.spec(centers=np.array([[0.0, 0.0], [1.0, bad], [0.0, 1.0]]))

    def test_numpy_real_settings_are_stored_as_floats(self):
        spec = self.spec(noise_scale=np.float32(0.5), label_noise=np.int64(0))
        assert (spec.noise_scale, spec.label_noise) == (0.5, 0.0)
        assert type(spec.noise_scale) is float and type(spec.label_noise) is float


class TestSplits:
    def make(self, n=10):
        rows = np.linspace(0.0, 1.0, n * 2).reshape(n, 2)
        return Dataset(rows, np.arange(n) % 3, 3)

    def test_sizes_use_floor(self):
        train, test = split_holdout(self.make(10), 0.2, seed=0)
        assert train.n_samples == 8
        assert test.n_samples == 2

    def test_union_covers_source_exactly(self):
        ds = self.make(12)
        train, test = split_holdout(ds, 0.25, seed=5)
        got = sorted(r.tobytes() for r in np.vstack([train.inputs, test.inputs]))
        want = sorted(r.tobytes() for r in ds.inputs)
        assert got == want

    def test_splits_are_disjoint(self):
        ds = self.make(12)
        train, test = split_holdout(ds, 0.25, seed=5)
        train_rows = {r.tobytes() for r in train.inputs}
        test_rows = {r.tobytes() for r in test.inputs}
        assert not train_rows & test_rows

    def test_deterministic_in_seed(self):
        ds = self.make(12)
        a_train, _ = split_holdout(ds, 0.25, seed=5)
        b_train, _ = split_holdout(ds, 0.25, seed=5)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_holdout(self.make(), 0.0, seed=0)
        with pytest.raises(ValueError):
            split_holdout(self.make(), 1.0, seed=0)
        # "0.25" used to pass the check and then break the split
        for fraction in ("0.25", True, None):
            with pytest.raises(ValueError, match="^test_fraction must lie strictly between 0 and 1$"):
                split_holdout(self.make(), fraction, seed=0)

    def test_degenerate_split_rejected(self):
        # floor(2 * 0.4) leaves no training row
        with pytest.raises(ValueError, match="empty"):
            split_holdout(self.make(2), 0.6, seed=0)

    def test_subset_size_and_determinism(self):
        ds = self.make(12)
        a = subset(ds, 5, seed=2)
        b = subset(ds, 5, seed=2)
        assert a.n_samples == 5
        np.testing.assert_array_equal(a.inputs, b.inputs)
        with pytest.raises(ValueError):
            subset(ds, 0, seed=2)
        with pytest.raises(ValueError):
            subset(ds, 13, seed=2)


def digest(*datasets):
    h = hashlib.sha256()
    for ds in datasets:
        h.update(ds.inputs.tobytes())
        h.update(ds.labels.tobytes())
    return h.hexdigest()[:16]


PINNED_CENTERS = np.random.default_rng(11).standard_normal((4, 5))


class TestBuildersArePinned:
    """Digests of the builders' outputs, recorded before they built their
    arrays in place and adopted them: the bytes must not move."""

    @pytest.mark.parametrize(
        "noise_scale, label_noise, want",
        [
            (0.7, 0.0, ("f30f5c5126a7dcbb", "91841c1fd0d969eb", "096c711feb60dd42")),
            (0.0, 0.0, ("81d67443126a87ce", "c35e5be984ed6bf0", "da7436816814bf9b")),
            (0.7, 0.3, ("aca84caf3789301c", "093483fafbbd661f", "24cdfd29e1654af6")),
        ],
        ids=["plain", "zero-noise", "label-noise"],
    )
    def test_digests(self, noise_scale, label_noise, want):
        ds = make_synthetic(SyntheticSpec(PINNED_CENTERS, 9, noise_scale, 4, label_noise))
        got = (digest(ds), digest(*split_holdout(ds, 0.25, 5)), digest(subset(ds, 20, 6)))
        assert got == want


def built_datasets(tmp_path):
    """One output of every dataio builder."""
    images = np.arange(24, dtype=np.uint8).reshape(4, 2, 3)
    (tmp_path / "i").write_bytes(image_bytes(images))
    (tmp_path / "l").write_bytes(label_bytes(np.array([0, 9, 1, 3], dtype=np.uint8)))
    synthetic = make_synthetic(SyntheticSpec(PINNED_CENTERS, 9, 0.7, 4, 0.3))
    return {
        "Dataset": Dataset(np.zeros((2, 3)), np.array([0, 1]), 2),
        "load_idx_pair": load_idx_pair(tmp_path / "i", tmp_path / "l"),
        "make_synthetic": synthetic,
        "split_holdout.train": split_holdout(synthetic, 0.25, 5)[0],
        "split_holdout.test": split_holdout(synthetic, 0.25, 5)[1],
        "subset": subset(synthetic, 20, 6),
        "take": synthetic.take(np.array([3, 1, 3])),
    }


def test_every_builder_output_is_read_only(tmp_path):
    for name, ds in built_datasets(tmp_path).items():
        assert ds.inputs.dtype == np.float64 and ds.labels.dtype == np.int64, name
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 0.5
        with pytest.raises(ValueError):
            ds.labels[0] = 0
