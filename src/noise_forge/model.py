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
from functools import cache

import numpy as np

from .dataio import Dataset, check_rows
from .rng import check_count, named_stream

# Most rows in one chunk of any pass; _work_set lowers it so a chunk's work
# arrays fit _PASS_BYTES. One chunk is live at a time, so no pass holds more
# than that, whatever the index set.
_MAX_ROWS = 1024
_PASS_BYTES = 48 << 20


def param_count(dims: tuple[int, ...]) -> int:
    """Total parameters for the given layer widths: two or more, each a count >= 1."""
    if len(dims) < 2:
        raise ValueError("dims needs >= 2 entries")
    dims = [check_count("layer width", d, 1) for d in dims]
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@cache
def _layout(dims: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(parameter count, (weights_offset, bias_offset) per layer) of ``dims``."""
    offsets = []
    off = 0
    for i in range(len(dims) - 1):
        f_in, f_out = dims[i], dims[i + 1]
        offsets.append((off, off + f_in * f_out))
        off += f_in * f_out + f_out
    return param_count(dims), tuple(offsets)


class ParamVector:
    """Flat float64 parameter vector plus the layer widths that shape it.

    ``weights(i)`` and ``bias(i)`` return live views into ``values``;
    mutating a view mutates the vector. Construction checks only the length
    (``_layout`` checks each shape's widths once), not finiteness: gradient
    vectors are built on the hot path and divergence is checked where the
    contracts demand it (optimizer steps).
    """

    __slots__ = ("values", "dims", "_offsets")

    def __init__(self, values: np.ndarray, dims: tuple[int, ...]):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be 1-D")
        expected, self._offsets = _layout(dims)
        if values.shape[0] != expected:
            raise ValueError(
                f"values has {values.shape[0]} entries, dims {dims} need {expected}"
            )
        self.values = values
        self.dims = dims

    @classmethod
    def zeros(cls, dims: tuple[int, ...]) -> "ParamVector":
        return cls(np.zeros(_layout(dims)[0]), dims)

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
        object.__setattr__(self, "input_dim", check_count("input_dim", self.input_dim, 1))
        object.__setattr__(self, "hidden", tuple(check_count("hidden width", h, 1) for h in self.hidden))
        object.__setattr__(self, "num_classes", check_count("num_classes", self.num_classes, 1))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.num_classes)


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
    return np.arange(ds.n_samples, dtype=np.int64) if idx is None else check_rows(idx, ds.n_samples)


@cache
def _work_set(dims: tuple[int, ...]) -> tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The kernel's work arrays for ``dims``, (forward, backward), made on first
    use and kept: every pass over a net of this shape shares the one set.

    A chunk holds as many rows as fit _PASS_BYTES, at most _MAX_ROWS, and a
    chunk of fewer rows writes only its own. "forward" holds the activations,
    the log-softmax, the softmax exponentials and the row maxima/sums, carved
    from one allocation; "backward" the top dz, (rows, classes), and one flat
    boolean ReLU mask with room for the widest hidden layer. The other dz have
    no arrays of their own: _sweep writes each over the activation it
    replaces. The desk net (16-128-128-4), 784-100-100-10 and the full-scale
    shape (784-dim input, 7x500 hidden, 10 classes; 35.1 KB a row, 34 MiB a
    set) all get 1,024 rows.
    """
    widths = (*dims, dims[-1], dims[-1], 1)
    mask = max(dims[1:-1], default=0)
    # a row takes its forward floats, its top dz and its mask bytes
    rows = min(_MAX_ROWS, max(1, _PASS_BYTES // (8 * (sum(widths) + dims[-1]) + mask)))
    flat = np.empty(rows * sum(widths))
    ends = np.cumsum(widths) * rows
    forward = [flat[end - rows * d : end].reshape(rows, d) for d, end in zip(widths, ends)]
    return forward, (np.empty((rows, dims[-1])), np.empty(rows * mask, dtype=bool))


def _sweep(w: ParamVector, acts: list[np.ndarray], logp: np.ndarray, labels: np.ndarray, weights, bwd):
    """(layer, a, dz) from the top layer down, for one chunk of _chunks.

    ``a`` is the layer's input activation and ``dz`` the per-sample
    derivatives d(sum of losses)/d(z_layer). The top dz, softmax(logits) -
    onehot (no 1/B scaling, each row times its ``weights`` entry when given),
    is built when the sweep starts, so a pass that never iterates it never
    builds it. Backprop being linear, each dz below carries the same row
    weights: once the consumer is done with layer l > 0, its input activation
    a_l is turned into dz_{l-1} = (dz_l @ W_l.T) * (a_l > 0) in place
    (relu'(0) counted as 0), the mask taken before the product overwrites a_l.
    So a pair (a, dz) is valid only until the consumer advances, and once the
    sweep has started the hidden activations in ``acts`` are gone.
    """
    top, mask = bwd
    n = labels.shape[0]
    dz = top[:n]
    np.exp(logp, out=dz)
    dz[np.arange(n), labels] -= 1.0
    if weights is not None:
        np.multiply(dz, weights[:, None], out=dz)
    for layer in range(w.n_layers - 1, -1, -1):
        a = acts[layer]
        yield layer, a, dz
        if layer:
            alive = mask[: a.size].reshape(a.shape)
            np.greater(a, 0.0, out=alive)
            np.matmul(dz, w.weights(layer).T, out=a)
            np.multiply(a, alive, out=a)
            dz = a


def _chunks(w: ParamVector, ds: Dataset, idx: np.ndarray, weights: np.ndarray | None = None):
    """The one forward/backward pass over the resolved ``idx``, one _work_set chunk at a time.

    Yields (part, labels, acts, logp, layers) per chunk: ``part`` slices ``idx``
    and ``weights`` (one per row), ``acts`` is [input, relu outputs..., logits],
    ``logp`` the log-softmax and ``layers`` the chunk's _sweep. All are views of
    the kept _work_set that the next chunk or call overwrites: a consumer finishes
    with a chunk before it advances, copies what it returns, and calls no other
    entry point while it iterates. ``Dataset`` inputs are finite float64, so only
    the width is checked.
    """
    if ds.input_dim != w.dims[0]:
        raise ValueError(f"dataset has {ds.input_dim} columns, model expects {w.dims[0]}")
    last = w.n_layers - 1
    fwd, bwd = _work_set(w.dims)
    chunk = fwd[0].shape[0]
    for start in range(0, idx.shape[0], chunk):
        rows = idx[start : start + chunk]
        n = rows.shape[0]
        part = slice(start, start + n)
        labels = ds.labels[rows]
        acts = [a[:n] for a in fwd[: last + 2]]
        logp, expd, col = (a[:n] for a in fwd[last + 2 :])
        # idx is checked by check_rows; "clip" lets take write to out unbuffered
        np.take(ds.inputs, rows, axis=0, out=acts[0], mode="clip")
        for layer in range(w.n_layers):
            z = acts[layer + 1]
            np.matmul(acts[layer], w.weights(layer), out=z)
            np.add(z, w.bias(layer), out=z)
            if layer < last:
                np.maximum(z, 0.0, out=z)
        np.max(acts[-1], axis=1, keepdims=True, out=col)
        np.subtract(acts[-1], col, out=logp)
        np.exp(logp, out=expd)
        np.sum(expd, axis=1, keepdims=True, out=col)
        np.log(col, out=col)
        np.subtract(logp, col, out=logp)
        part_weights = None if weights is None else weights[part]
        yield part, labels, acts, logp, _sweep(w, acts, logp, labels, part_weights, bwd)


def mean_loss(w: ParamVector, ds: Dataset, idx: np.ndarray | None = None) -> float:
    """Mean cross-entropy over the indexed samples (all samples when idx is None)."""
    idx = _resolve_index(ds, idx)
    total = 0.0
    for _, labels, _, logp, _ in _chunks(w, ds, idx):
        total += -logp[np.arange(labels.shape[0]), labels].sum()
    return float(total / idx.shape[0])


def loss_and_grad(
    w: ParamVector,
    ds: Dataset,
    idx: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[float, ParamVector]:
    """Loss over the index set and its gradient as a ParamVector, in one pass.

    Without ``weights`` the loss is the mean cross-entropy over ``idx``
    (all samples when None); with them, one float per row of ``idx``, it is
    sum_i weights[i] * loss_i. Either way the gradient is that of the loss
    returned. So the rows and weights of ``optim.pair_rows`` (each row of
    B ∪ B' once, a shared row carrying both of its weights) give the
    noise-enhanced direction alpha * grad(B) + (1 - alpha) * grad(B') from
    one pass; it rounds differently from combining two gradients, by about
    1e-15 of its norm.

    Rows go through the kernel in chunks of up to 1,024 (fewer for nets
    wider than the full-scale shape; see _work_set), so an unweighted
    index set of up to one chunk gets acts.T @ dz / len(idx) from one GEMM
    per layer; larger sets sum the chunks' products. The reduction order is
    fixed, so results are deterministic for given (w, ds, idx, weights). The
    returned gradient is a fresh vector that later calls do not touch.
    """
    idx = _resolve_index(ds, idx)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != idx.shape:
            raise ValueError("weights need one entry per index")
    grad = ParamVector(np.empty(len(w)), w.dims)
    total = -0.0  # -0.0 - s is -s for every s, 0.0 included: one chunk gives -mean
    for part, labels, _, logp, layers in _chunks(w, ds, idx, weights):
        picked = logp[np.arange(labels.shape[0]), labels]
        total -= picked.sum() if weights is None else weights[part] @ picked
        for layer, a, dz in layers:
            gw, gb = grad.weights(layer), grad.bias(layer)
            if part.start == 0:
                np.matmul(a.T, dz, out=gw)
                np.sum(dz, axis=0, out=gb)
            else:
                gw += a.T @ dz
                gb += dz.sum(axis=0)
    if weights is None:
        grad.values /= idx.shape[0]
        total /= idx.shape[0]
    return float(total), grad


def per_sample_grad_matrix(
    w: ParamVector, ds: Dataset, idx: np.ndarray | None = None
) -> np.ndarray:
    """Stack per-sample loss gradients into a (len(idx), P) matrix.

    Row mu is the gradient of the single-sample cross-entropy at sample
    idx[mu]. Memory is the dominant cost: len(idx) * P doubles. Each weight
    block, outer(a, dz) per row, is written straight into ``out``.
    """
    idx = _resolve_index(ds, idx)
    out = np.empty((idx.shape[0], len(w)))
    for part, _, _, _, layers in _chunks(w, ds, idx):
        block = out[part]
        for layer, a, dz in layers:
            w_off, b_off = w.slots(layer)
            # a view: the reshape only splits the contiguous last axis
            target = block[:, w_off:b_off].reshape(a.shape[0], a.shape[1], dz.shape[1])
            np.multiply(a[:, :, None], dz[:, None, :], out=target)
            block[:, b_off : b_off + dz.shape[1]] = dz
    return out


def per_sample_grad_norms(
    w: ParamVector, ds: Dataset, idx: np.ndarray | None = None
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
    for part, _, _, _, layers in _chunks(w, ds, idx):
        terms = []
        for layer, a, dz in layers:
            a_sq = np.einsum("bi,bi->b", a, a)
            dz_sq = np.einsum("bo,bo->b", dz, dz)
            terms.append(a_sq * dz_sq + dz_sq)
            total.weights(layer)[:] += a.T @ dz
            total.bias(layer)[:] += dz.sum(axis=0)
        for term in reversed(terms):  # layers 0..L-1: the order fixes the rounding
            sq_norms[part] += term
    return sq_norms, total


def evaluate_accuracy(w: ParamVector, ds: Dataset) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Ties resolve to the lowest class index (numpy argmax), so the value is
    deterministic; an all-zero parameter vector predicts class 0 everywhere.
    """
    correct = 0
    for _, labels, acts, _, _ in _chunks(w, ds, _resolve_index(ds, None)):
        correct += int((acts[-1].argmax(axis=1) == labels).sum())
    return correct / ds.n_samples
