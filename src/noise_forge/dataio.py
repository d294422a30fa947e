"""Dataset container, IDX file loading, synthetic data, and splits.

The IDX format here is the classic big-endian layout: a 4-byte magic
(0x00000803 for rank-3 image tensors, 0x00000801 for rank-1 label vectors),
one big-endian uint32 per dimension, then the raw uint8 payload. Files may
be gzip-compressed; a ``.gz`` suffix triggers decompression.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import check_count, named_stream

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised for bad magic numbers, truncated payloads, count mismatches, or broken gzip."""


@dataclass(frozen=True)
class Dataset:
    """Immutable classification dataset.

    ``inputs`` is (n_samples, input_dim) float64 with every entry finite and
    in [0, 1]; ``labels`` is (n_samples,) int64 with values in
    [0, num_classes). Arrays a caller passes in are copied, so changing
    them later does not reach the dataset. Arrays that this module has just
    built and holds no other reference to (the synthetic cloud, the rows
    ``take`` gathers, the scaled IDX images) are adopted without a copy
    through ``_adopt``. Either way they are validated and end read-only.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self._own(
            np.array(self.inputs, dtype=np.float64, copy=True),
            np.array(self.labels, dtype=np.int64, copy=True),
        )

    def _own(self, inputs: np.ndarray, labels: np.ndarray) -> None:
        """Validate the arrays, make them read-only and store them."""
        if inputs.ndim != 2:
            raise ValueError("inputs must be 2-D (n_samples, input_dim)")
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(
                f"inputs and labels disagree on n_samples: "
                f"{inputs.shape[0]} vs {labels.shape[0]}"
            )
        if inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        num_classes = check_count("num_classes", self.num_classes, 1)
        if inputs.size:
            # min and max propagate NaN, so no n x d boolean array is needed
            lo, hi = inputs.min(), inputs.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("inputs contain non-finite entries")
            if lo < 0.0 or hi > 1.0:
                raise ValueError("inputs must lie in [0, 1]")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("labels out of range for num_classes")
        inputs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", num_classes)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def __reduce__(self):
        # unpickling skips __post_init__; rebuild through _adopt so the copy
        # (say, the one a --jobs worker receives) is validated and read-only
        return _adopt, (self.inputs, self.labels, self.num_classes)

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the given rows (see ``check_rows``), in the given order."""
        idx = check_rows(indices, self.n_samples)
        return _adopt(self.inputs[idx], self.labels[idx], self.num_classes)


def check_rows(indices, n: int) -> np.ndarray:
    """``indices`` as int64 after the row-index rule: a non-empty 1-D integer
    array inside [0, n), else ValueError (empty, 2-D, float, bool, out of range)."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.shape[0] == 0 or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"row indices must be a non-empty 1-D array of integers in the range [0, {n})")
    return idx.astype(np.int64, copy=False)


def _adopt(inputs: np.ndarray, labels: np.ndarray, num_classes: int) -> Dataset:
    """Dataset over float64 ``inputs`` and int64 ``labels`` that the caller
    has just built and no one else holds: validated and made read-only like
    any other, but not copied."""
    ds = object.__new__(Dataset)
    object.__setattr__(ds, "num_classes", num_classes)
    ds._own(inputs, labels)
    return ds


def _read_maybe_gzip(path: Path) -> bytes:
    if path.suffix == ".gz":
        try:
            with gzip.open(path, "rb") as fh:
                return fh.read()
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:  # not gzip, truncated, corrupt
            raise IdxFormatError(f"{path}: not a readable gzip file: {exc}") from exc
    return path.read_bytes()


def _parse_idx(raw: bytes, expected_magic: int, path: Path) -> tuple[np.ndarray, tuple[int, ...]]:
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: file shorter than the 4-byte magic")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims, dtype=np.int64)) if dims else 0
    payload = raw[header:]
    if len(payload) < count:
        raise IdxFormatError(
            f"{path}: payload holds {len(payload)} bytes, header promises {count}"
        )
    data = np.frombuffer(payload[:count], dtype=np.uint8)
    return data, dims


def load_idx_pair(image_path: str | Path, label_path: str | Path) -> Dataset:
    """Load an (images, labels) IDX file pair into a 10-class Dataset.

    Images are flattened to rows and divided by 255, so every input lies in
    [0, 1].
    """
    image_path = Path(image_path)
    label_path = Path(label_path)
    img_data, img_dims = _parse_idx(_read_maybe_gzip(image_path), _IMAGE_MAGIC, image_path)
    lbl_data, lbl_dims = _parse_idx(_read_maybe_gzip(label_path), _LABEL_MAGIC, label_path)
    n_images, rows, cols = (int(d) for d in img_dims)
    n_labels = int(lbl_dims[0])
    if n_images != n_labels:
        raise IdxFormatError(
            f"image/label count mismatch: {image_path} has {n_images}, "
            f"{label_path} has {n_labels}"
        )
    inputs = img_data.reshape(n_images, rows * cols).astype(np.float64)
    inputs /= 255.0
    return _adopt(inputs, lbl_data.astype(np.int64), 10)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a Gaussian-blob classification set.

    ``centers`` is (num_classes, dim); each class contributes
    ``n_per_class`` points drawn as center + noise_scale * standard normal,
    then the whole cloud is affinely rescaled into [0, 1].
    """

    centers: np.ndarray
    n_per_class: int
    noise_scale: float
    seed: int
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        centers = np.array(self.centers, dtype=np.float64, copy=True)
        if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] < 1:
            raise ValueError("centers must be 2-D with at least one row and one column")
        object.__setattr__(self, "n_per_class", check_count("n_per_class", self.n_per_class, 1))
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ValueError("noise_scale must be finite and >= 0")
        if not (0.0 <= float(self.label_noise) <= 1.0):
            raise ValueError("label_noise must lie in [0, 1]")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def make_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample the blob dataset described by ``spec``, deterministically.

    Points are generated class-by-class in label order, rescaled into [0, 1]
    by a single global affine map, and clamped. A degenerate cloud (all
    points equal) maps to 0.5. With ``label_noise`` > 0 that fraction of
    labels is resampled uniformly.

    The cloud is built, rescaled and clamped in the one array the normal
    draws fill, which the dataset then adopts: one array of
    n * dim floats at any time.
    """
    rng = named_stream(spec.seed, "synthetic")
    n = spec.n_per_class * spec.num_classes
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.n_per_class)
    points = rng.standard_normal((n, spec.dim))
    points *= spec.noise_scale
    for k, center in enumerate(spec.centers):
        points[k * spec.n_per_class : (k + 1) * spec.n_per_class] += center
    lo = points.min()
    hi = points.max()
    if hi > lo:
        points -= lo
        points /= hi - lo
    else:
        points.fill(0.5)
    np.clip(points, 0.0, 1.0, out=points)
    if spec.label_noise > 0.0:
        flip = rng.random(n) < spec.label_noise
        labels[flip] = rng.integers(0, spec.num_classes, size=int(flip.sum()))
    return _adopt(points, labels, spec.num_classes)


def split_holdout(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint shuffled train/test split.

    Train size is floor(n * (1 - test_fraction)); the remaining rows form
    the test set. Both splits must be non-empty.
    """
    if not (0.0 < float(test_fraction) < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = ds.n_samples
    n_train = int(np.floor(n * (1.0 - test_fraction)))
    if n_train < 1 or n - n_train < 1:
        raise ValueError(
            f"split of {n} samples at test_fraction={test_fraction} "
            "leaves an empty side"
        )
    perm = named_stream(seed, "split").permutation(n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


def subset(ds: Dataset, n_keep: int, seed: int) -> Dataset:
    """Random n_keep-row subset (shuffled, without replacement)."""
    n_keep = check_count("n_keep", n_keep, 1, ds.n_samples)
    perm = named_stream(seed, "subset").permutation(ds.n_samples)
    return ds.take(perm[:n_keep])
