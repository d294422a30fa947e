"""Dataset container, IDX file loading, synthetic data, and splits.

The IDX format here is the classic big-endian layout: a 4-byte magic
(0x00000803 for rank-3 image tensors, 0x00000801 for rank-1 label vectors),
one big-endian uint32 per dimension, then the raw uint8 payload. Files may
be gzip-compressed; a ``.gz`` suffix triggers decompression.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import named_stream

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised for bad magic numbers, truncated payloads, or count mismatches."""


@dataclass(frozen=True)
class Dataset:
    """Immutable classification dataset.

    ``inputs`` is (n_samples, input_dim) float64 with every entry finite and
    in [0, 1]; ``labels`` is (n_samples,) int64 with values in
    [0, num_classes). Arrays are copied on construction and marked
    read-only.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        inputs = np.array(self.inputs, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
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
        if int(self.num_classes) < 1:
            raise ValueError("num_classes must be >= 1")
        if not np.isfinite(inputs).all():
            raise ValueError("inputs contain non-finite entries")
        if inputs.size and (inputs.min() < 0.0 or inputs.max() > 1.0):
            raise ValueError("inputs must lie in [0, 1]")
        if labels.size and (labels.min() < 0 or labels.max() >= int(self.num_classes)):
            raise ValueError("labels out of range for num_classes")
        inputs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", int(self.num_classes))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes)


def _read_maybe_gzip(path: Path) -> bytes:
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
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
    return Dataset(inputs, lbl_data.astype(np.int64), 10)


def write_idx_pair(
    ds: Dataset,
    image_path: str | Path,
    label_path: str | Path,
    *,
    image_shape: tuple[int, int] | None = None,
) -> None:
    """Write a Dataset back to an IDX image/label file pair.

    Inputs must be exact multiples of 1/255 (i.e. normalized byte data);
    anything else would not survive the uint8 round-trip and raises
    ValueError. ``image_shape`` defaults to (1, input_dim).
    """
    scaled = ds.inputs * 255.0
    bytes_f = np.rint(scaled)
    if not np.allclose(scaled, bytes_f, rtol=0.0, atol=1e-6):
        raise ValueError("inputs are not byte-exact; cannot round-trip to IDX")
    if ds.num_classes > 256:
        raise ValueError("labels do not fit in uint8")
    if image_shape is None:
        image_shape = (1, ds.input_dim)
    rows, cols = (int(s) for s in image_shape)
    if rows * cols != ds.input_dim:
        raise ValueError(f"image_shape {image_shape} does not match input_dim {ds.input_dim}")
    img = bytes_f.astype(np.uint8)
    image_path = Path(image_path)
    label_path = Path(label_path)
    with open(image_path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IMAGE_MAGIC, ds.n_samples, rows, cols))
        fh.write(img.tobytes())
    with open(label_path, "wb") as fh:
        fh.write(struct.pack(">II", _LABEL_MAGIC, ds.n_samples))
        fh.write(ds.labels.astype(np.uint8).tobytes())


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
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError("centers must be 2-D with at least one row")
        if int(self.n_per_class) < 1:
            raise ValueError("n_per_class must be >= 1")
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
    """
    rng = named_stream(spec.seed, "synthetic")
    n = spec.n_per_class * spec.num_classes
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.n_per_class)
    points = spec.centers[labels] + spec.noise_scale * rng.standard_normal((n, spec.dim))
    lo = points.min()
    hi = points.max()
    if hi > lo:
        points = (points - lo) / (hi - lo)
    else:
        points = np.full_like(points, 0.5)
    np.clip(points, 0.0, 1.0, out=points)
    if spec.label_noise > 0.0:
        flip = rng.random(n) < spec.label_noise
        labels = labels.copy()
        labels[flip] = rng.integers(0, spec.num_classes, size=int(flip.sum()))
    return Dataset(points, labels, spec.num_classes)


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
    if not (1 <= int(n_keep) <= ds.n_samples):
        raise ValueError(f"n_keep must lie in [1, {ds.n_samples}]")
    perm = named_stream(seed, "subset").permutation(ds.n_samples)
    return ds.take(perm[: int(n_keep)])
