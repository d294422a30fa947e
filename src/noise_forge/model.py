"""Fully-connected ReLU classifier on a flat float64 parameter vector.

Architecture: dims = (input_dim, hidden..., num_classes); every layer is an
affine map, hidden layers pass through ReLU, the last layer emits logits,
and the loss is mean cross-entropy over the indexed samples. All parameters
live in one contiguous float64 vector laid out layer by layer as
(weights row-major, then bias), which is what lets the optimizer and the
noise lab treat gradients as plain vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .rng import named_stream


def param_count(dims: tuple[int, ...]) -> int:
    """Total parameters for the given layer widths."""
    if len(dims) < 2 or any(int(d) < 1 for d in dims):
        raise ValueError("dims needs >= 2 entries, all positive")
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


class ParamVector:
    """Flat float64 parameter vector plus the layer widths that shape it.

    ``weights(i)`` and ``bias(i)`` return live views into ``values``;
    mutating a view mutates the vector. Construction validates only the
    length, not finiteness: gradient vectors are built on the hot path and
    divergence is checked where the contracts demand it (optimizer steps).
    """

    __slots__ = ("values", "dims", "_offsets")

    def __init__(self, values: np.ndarray, dims: tuple[int, ...]):
        dims = tuple(int(d) for d in dims)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be 1-D")
        expected = param_count(dims)
        if values.shape[0] != expected:
            raise ValueError(
                f"values has {values.shape[0]} entries, dims {dims} need {expected}"
            )
        self.values = values
        self.dims = dims
        offsets = []
        off = 0
        for i in range(len(dims) - 1):
            f_in, f_out = dims[i], dims[i + 1]
            offsets.append((off, off + f_in * f_out))
            off += f_in * f_out + f_out
        self._offsets = tuple(offsets)

    @classmethod
    def zeros(cls, dims: tuple[int, ...]) -> "ParamVector":
        return cls(np.zeros(param_count(tuple(dims))), tuple(dims))

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def weights(self, layer: int) -> np.ndarray:
        w_off, b_off = self._offsets[layer]
        f_in, f_out = self.dims[layer], self.dims[layer + 1]
        return self.values[w_off:b_off].reshape(f_in, f_out)

    def bias(self, layer: int) -> np.ndarray:
        _, b_off = self._offsets[layer]
        f_out = self.dims[layer + 1]
        return self.values[b_off : b_off + f_out]

    def slots(self, layer: int) -> tuple[int, int]:
        """(weights_offset, bias_offset) of the layer inside ``values``."""
        return self._offsets[layer]

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.dims)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"ParamVector(dims={self.dims}, n={len(self)})"


@dataclass(frozen=True)
class MlpSpec:
    """Shape and init seed for a classifier: input_dim -> hidden -> classes."""

    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if int(self.input_dim) < 1 or int(self.num_classes) < 1:
            raise ValueError("input_dim and num_classes must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return (int(self.input_dim), *self.hidden, int(self.num_classes))


def glorot_init(spec: MlpSpec) -> ParamVector:
    """Uniform init on [-a, a] with a = sqrt(6 / (fan_in + fan_out)); zero biases.

    Weight blocks are drawn layer by layer from the "init" stream of
    ``spec.seed``, so the full vector is a pure function of the spec.
    """
    dims = spec.dims
    rng = named_stream(spec.seed, "init")
    pv = ParamVector.zeros(dims)
    for layer in range(pv.n_layers):
        f_in, f_out = dims[layer], dims[layer + 1]
        bound = np.sqrt(6.0 / (f_in + f_out))
        pv.weights(layer)[:] = rng.uniform(-bound, bound, size=(f_in, f_out))
    return pv


def _resolve_index(ds: Dataset, idx: np.ndarray | None) -> np.ndarray:
    if idx is None:
        return np.arange(ds.n_samples, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] == 0:
        raise ValueError("index set must be 1-D and non-empty")
    if idx.min() < 0 or idx.max() >= ds.n_samples:
        raise ValueError("index out of range for dataset")
    return idx


def _chunks(w: ParamVector, ds: Dataset, idx: np.ndarray, chunk_size: int, backward: bool = True):
    """The one forward (and backward) pass, over the resolved ``idx`` in chunks.

    Yields (part, labels, acts, logp, dzs) per chunk: ``part`` is the
    chunk's slice of ``idx``, ``acts`` the activations [input, relu
    outputs..., logits] and ``logp`` the log-softmax of the logits. With
    ``backward``, ``dzs`` holds the per-layer, per-sample derivatives
    d(sum of losses)/d(z_layer): the last is softmax(logits) - onehot (no
    1/B scaling), earlier ones go through the transposed weights with the
    ReLU mask taken from the post-activations (relu'(0) counted as 0).
    Without it ``dzs`` is empty. ``Dataset`` guarantees finite float64
    inputs, so only the width is checked.
    """
    if ds.input_dim != w.dims[0]:
        raise ValueError(f"dataset has {ds.input_dim} columns, model expects {w.dims[0]}")
    last = w.n_layers - 1
    for start in range(0, idx.shape[0], chunk_size):
        rows = idx[start : start + chunk_size]
        labels = ds.labels[rows]
        acts = [ds.inputs[rows]]
        for layer in range(w.n_layers):
            z = acts[-1] @ w.weights(layer) + w.bias(layer)
            acts.append(np.maximum(z, 0.0) if layer < last else z)
        shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        dzs = []
        if backward:
            dzs.append(np.exp(logp))
            dzs[0][np.arange(rows.shape[0]), labels] -= 1.0
            for layer in range(last, 0, -1):
                dzs.insert(0, (dzs[0] @ w.weights(layer).T) * (acts[layer] > 0.0))
        yield slice(start, start + rows.shape[0]), labels, acts, logp, dzs


def mean_loss(
    w: ParamVector, ds: Dataset, idx: np.ndarray | None = None, chunk_size: int = 4096
) -> float:
    """Mean cross-entropy over the indexed samples (all samples when idx is None)."""
    idx = _resolve_index(ds, idx)
    total = 0.0
    for _, labels, _, logp, _ in _chunks(w, ds, idx, chunk_size, backward=False):
        total += -logp[np.arange(labels.shape[0]), labels].sum()
    return float(total / idx.shape[0])


def loss_and_grad(
    w: ParamVector, ds: Dataset, idx: np.ndarray | None = None
) -> tuple[float, ParamVector]:
    """Mean loss over the index set and its gradient as a ParamVector.

    Passing the full index set (or None) yields the full-dataset loss and
    gradient. The reduction order is fixed, so results are deterministic
    for a given (w, ds, idx).
    """
    idx = _resolve_index(ds, idx)
    b = idx.shape[0]
    ((_, labels, acts, logp, dzs),) = _chunks(w, ds, idx, b)
    loss = float(-logp[np.arange(b), labels].mean())
    grad = ParamVector.zeros(w.dims)
    for layer in range(w.n_layers):
        grad.weights(layer)[:] = acts[layer].T @ dzs[layer] / b
        grad.bias(layer)[:] = dzs[layer].sum(axis=0) / b
    return loss, grad


def per_sample_grad_matrix(
    w: ParamVector, ds: Dataset, idx: np.ndarray | None = None, chunk_size: int = 256
) -> np.ndarray:
    """Stack per-sample loss gradients into a (len(idx), P) matrix.

    Row mu is the gradient of the single-sample cross-entropy at sample
    idx[mu]. Memory is the dominant cost: len(idx) * P doubles.
    """
    idx = _resolve_index(ds, idx)
    out = np.empty((idx.shape[0], len(w)))
    for part, _, acts, _, dzs in _chunks(w, ds, idx, chunk_size):
        block = out[part]
        for layer in range(w.n_layers):
            w_off, b_off = w.slots(layer)
            f_out = w.dims[layer + 1]
            outer = np.einsum("bi,bo->bio", acts[layer], dzs[layer])
            block[:, w_off:b_off] = outer.reshape(block.shape[0], -1)
            block[:, b_off : b_off + f_out] = dzs[layer]
    return out


def per_sample_grad_norms(
    w: ParamVector, ds: Dataset, idx: np.ndarray | None = None, chunk_size: int = 1024
) -> tuple[np.ndarray, ParamVector]:
    """Squared per-sample gradient norms plus the summed gradient, streamed.

    Uses the rank-one structure of layer gradients: the sample's weight
    block is outer(a_prev, dz), whose squared Frobenius norm is
    |a_prev|^2 * |dz|^2, so norms never require materializing (n, P).
    Returns (sq_norms of shape (len(idx),), sum of per-sample gradients).
    """
    idx = _resolve_index(ds, idx)
    sq_norms = np.zeros(idx.shape[0])
    total = ParamVector.zeros(w.dims)
    for part, _, acts, _, dzs in _chunks(w, ds, idx, chunk_size):
        for layer in range(w.n_layers):
            a_sq = np.einsum("bi,bi->b", acts[layer], acts[layer])
            dz_sq = np.einsum("bo,bo->b", dzs[layer], dzs[layer])
            sq_norms[part] += a_sq * dz_sq + dz_sq
            total.weights(layer)[:] += acts[layer].T @ dzs[layer]
            total.bias(layer)[:] += dzs[layer].sum(axis=0)
    return sq_norms, total


def evaluate_accuracy(w: ParamVector, ds: Dataset, chunk_size: int = 4096) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Ties resolve to the lowest class index (numpy argmax), so the value is
    deterministic; an all-zero parameter vector predicts class 0 everywhere.
    """
    correct = 0
    for _, labels, acts, _, _ in _chunks(w, ds, _resolve_index(ds, None), chunk_size, backward=False):
        correct += int((acts[-1].argmax(axis=1) == labels).sum())
    return correct / ds.n_samples

