"""Optimizer steps and the two-minibatch noise-enhanced gradient rule.

The update direction is alpha * grad(B) + (1 - alpha) * grad(B'), where B is
the primary minibatch from an epoch partition and B' is an independent
minibatch resampled uniformly each step. alpha = 1 reduces exactly to the
base optimizer; alpha > 1 amplifies minibatch noise without changing the
expected direction.

A step forms that direction in one gradient pass over ``pair_rows``: B alone
at alpha = 1, else each row of B ∪ B' once, weighted (``training_step``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .model import ParamVector, loss_and_grad
from .rng import check_count, is_integer, is_number, named_stream, uniform_batch


class DivergenceError(FloatingPointError):
    """A gradient or update became non-finite; the run cannot continue."""


def check_alpha(alpha: float) -> float:
    """The finite-alpha rule: ValueError unless alpha is a number (``rng.is_number``). Returns it as a float."""
    if not is_number(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    return float(alpha)


def check_learning_rate(learning_rate: float) -> float:
    """The learning-rate rule: ValueError unless it is a number (``rng.is_number``) > 0. Returns it as a float."""
    if not (is_number(learning_rate) and learning_rate > 0):
        raise ValueError("learning_rate must be finite and positive")
    return float(learning_rate)


def check_batch_size(batch_size: int, n_samples: int | None = None) -> int:
    """The minibatch-size rule: ValueError unless batch_size is an integer
    (``rng.is_integer``) with 1 <= batch_size (<= n_samples where known).
    Returns it as a plain int."""
    if not (is_integer(batch_size) and 1 <= batch_size and (n_samples is None or batch_size <= n_samples)):
        raise ValueError(f"batch_size must lie in [1, n_samples], got {batch_size} for n_samples = {n_samples}")
    return int(batch_size)


@dataclass(frozen=True)
class NEConfig:
    """Noise-enhancement settings for a training run.

    alpha is the primary-batch weight (>= 1; 1 disables enhancement) in
    alpha * grad(B) + (1 - alpha) * grad(B'). mode names that rule and
    takes only "pairwise"; it is kept so existing callers and config
    hashes stay valid.
    """

    alpha: float = 1.0
    batch_size: int = 32
    base: str = "adam"
    mode: str = "pairwise"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1 (1 disables enhancement)")
        object.__setattr__(self, "batch_size", check_batch_size(self.batch_size))
        if self.base not in ("sgd", "adam"):
            raise ValueError(f"unknown base optimizer {self.base!r}")
        if self.mode != "pairwise":
            raise ValueError(f"unknown mode {self.mode!r} (only 'pairwise')")


# Adam's moment decay rates and denominator floor (Kingma & Ba,
# arXiv:1412.6980); every run uses these.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Mutable per-run optimizer state; accumulators allocate lazily.

    Only the learning rate is set by the caller. ``adam_m`` and ``adam_v``
    are updated in place.
    """

    learning_rate: float
    step_count: int = field(default=0, init=False)
    adam_m: np.ndarray | None = field(default=None, init=False)
    adam_v: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.learning_rate = check_learning_rate(self.learning_rate)


@dataclass
class BatchStreams:
    """The two minibatch streams of a run: the epoch partition and B'.

    Each epoch draws a fresh permutation from ``primary_rng`` and hands out
    consecutive batch_size slices, so within one epoch the primary
    minibatches are disjoint and cover every index exactly once (when
    batch_size divides n_samples; otherwise the short tail is dropped and a
    new epoch begins). ``enhancement_rng`` draws B' independently.
    """

    n_samples: int
    batch_size: int
    primary_rng: np.random.Generator
    enhancement_rng: np.random.Generator
    order: np.ndarray = field(init=False)
    cursor: int = field(init=False, default=0)
    epoch: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.n_samples = check_count("n_samples", self.n_samples, 1)
        self.batch_size = check_batch_size(self.batch_size, self.n_samples)
        self.order = self.primary_rng.permutation(self.n_samples)

    @classmethod
    def from_seed(cls, n_samples: int, batch_size: int, seed: int) -> "BatchStreams":
        return cls(
            n_samples,
            batch_size,
            named_stream(seed, "primary-batch"),
            named_stream(seed, "enhancement-batch"),
        )


def sample_minibatch_pair(streams: BatchStreams) -> tuple[np.ndarray, np.ndarray]:
    """Draw (primary, enhancement) minibatches of the configured size.

    The primary batch advances the epoch partition; the enhancement batch
    is an independent uniform draw without replacement from the full index
    range (``rng.uniform_batch``), resampled every call.
    """
    n, b = streams.n_samples, streams.batch_size
    if streams.cursor + b > n:
        streams.order = streams.primary_rng.permutation(n)
        streams.cursor = 0
        streams.epoch += 1
    primary = streams.order[streams.cursor : streams.cursor + b].copy()
    streams.cursor += b
    return primary, uniform_batch(streams.enhancement_rng, n, b)


def ne_combine(grad_b: ParamVector, grad_bprime: ParamVector, alpha: float) -> ParamVector:
    """alpha * grad_b + (1 - alpha) * grad_bprime.

    alpha = 1 returns a copy of grad_b outright, so the enhanced path is
    bit-identical to the plain one there (no 0 * g' term to perturb signs).
    Training uses the fused ``pair_rows`` pass; this stays for the oracles, the
    tests' reference for ``pair_rows`` and the benchmark's tracer.
    """
    alpha = check_alpha(alpha)
    if grad_b.dims != grad_bprime.dims:
        raise ValueError("gradient shapes disagree")
    if alpha == 1.0:
        return grad_b.copy()
    return ParamVector(alpha * grad_b.values + (1.0 - alpha) * grad_bprime.values, grad_b.dims)


def pair_rows(
    primary: np.ndarray, second: np.ndarray | None, alpha: float, n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows and weights of one pass giving alpha * grad(B) + (1 - alpha) * grad(B').

    ``primary`` (B) and ``second`` (B') hold distinct indices in [0, n).
    At alpha = 1 the pass is over B alone, unweighted: (primary, None), so
    ``loss_and_grad`` takes the plain mean and the result is grad(B) bit for
    bit; ``second`` is not read and may be None. Otherwise each row of
    B ∪ B' appears once: the rows of B in draw order, weighted alpha/|B|,
    plus (1 - alpha)/|B'| on those also in B'; then the rest of B' in draw
    order, weighted (1 - alpha)/|B'|. Backprop is linear in the row weights,
    so ``loss_and_grad(w, ds, rows, weights)`` returns that direction, and
    the weighted loss alpha * L_B + (1 - alpha) * L_B'. A shared row costs
    one row of work instead of two. One boolean mark array of length n
    finds the shared rows in O(n + |B| + |B'|).
    """
    alpha = check_alpha(alpha)
    if alpha == 1.0:
        return primary, None
    b, b2 = primary.shape[0], second.shape[0]
    mark = np.zeros(n, dtype=bool)
    mark[second] = True
    shared = mark[primary]
    mark[second] = False
    mark[primary] = True
    rest = second[~mark[second]]
    on_b = np.where(shared, alpha / b + (1.0 - alpha) / b2, alpha / b)
    weights = np.concatenate((on_b, np.full(rest.shape[0], (1.0 - alpha) / b2)))
    return np.concatenate((primary, rest)), weights


def _require_finite(g: ParamVector) -> None:
    # min and max propagate NaN, so this needs no P-sized boolean array
    if not (np.isfinite(g.values.min()) and np.isfinite(g.values.max())):
        raise DivergenceError("non-finite gradient")


def sgd_step(w: ParamVector, g: ParamVector, state: OptimizerState) -> ParamVector:
    """w - lr * g; increments step_count."""
    if w.dims != g.dims:
        raise ValueError("parameter/gradient shapes disagree")
    _require_finite(g)
    state.step_count += 1
    return ParamVector(w.values - state.learning_rate * g.values, w.dims)


def adam_step(w: ParamVector, g: ParamVector, state: OptimizerState) -> ParamVector:
    """Bias-corrected Adam step: w - lr * m_hat / (sqrt(v_hat) + eps).

    The moments are updated in place and the rest runs in one scratch
    vector and in the returned vector, which first holds sqrt(v_hat) + eps,
    with the operations and their order of the textbook form, so the result
    is bit for bit that form's.
    """
    if w.dims != g.dims:
        raise ValueError("parameter/gradient shapes disagree")
    _require_finite(g)
    if state.adam_m is None:
        state.adam_m = np.zeros(len(w))
        state.adam_v = np.zeros(len(w))
    m, v = state.adam_m, state.adam_v
    t = state.step_count + 1
    m *= ADAM_BETA1  # m = beta1 * m + (1 - beta1) * g
    s = np.multiply(g.values, 1.0 - ADAM_BETA1)
    m += s
    v *= ADAM_BETA2  # v = beta2 * v + (1 - beta2) * g**2
    np.multiply(g.values, g.values, out=s)
    s *= 1.0 - ADAM_BETA2
    v += s
    np.divide(m, 1.0 - ADAM_BETA1**t, out=s)  # lr * m_hat
    s *= state.learning_rate
    r = np.divide(v, 1.0 - ADAM_BETA2**t)  # sqrt(v_hat) + eps
    np.sqrt(r, out=r)
    r += ADAM_EPS
    s /= r
    state.step_count = t
    return ParamVector(np.subtract(w.values, s, out=r), w.dims)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm by numpy's fixed-order sum; a BLAS dot's order follows its thread count."""
    return float(np.sqrt((x * x).sum()))


@dataclass(frozen=True)
class StepLog:
    """One training step's log row (the step-log CSV schema)."""

    step: int
    epoch: int
    minibatch_loss: float
    grad_norm_b: float
    grad_norm_bprime: float
    combined_norm: float
    lr: float


def training_step(
    w: ParamVector,
    ds: Dataset,
    config: NEConfig,
    state: OptimizerState,
    streams: BatchStreams,
    log: bool = False,
) -> tuple[ParamVector, StepLog | None]:
    """One full step: sample the pair, form the direction, apply the base rule.

    Each step makes one ``loss_and_grad`` call, over ``pair_rows(B, B',
    alpha, N)``. At alpha = 1 that is B alone, unweighted, so the run is
    bit-identical to plain descent on grad(B); B' is still drawn so the
    streams stay aligned. Otherwise it visits each row of B ∪ B' once, and
    the direction is alpha * grad(B) + (1 - alpha) * grad(B') to about
    1e-15 of its norm (tests hold it to 1e-12).

    With ``log`` the step also returns its StepLog, computing grad(B) and
    grad(B') and their norms in two more passes; without it it returns None
    in its place. The update never depends on ``log``. Raises ValueError
    when ``streams`` disagrees with ``config``'s batch size or ``ds``'s row
    count, and DivergenceError, before any state changes, when the direction
    is non-finite.
    """
    if (streams.batch_size, streams.n_samples) != (config.batch_size, ds.n_samples):
        raise ValueError(
            f"streams draw {streams.batch_size} of {streams.n_samples} rows, "
            f"config and data need {config.batch_size} of {ds.n_samples}"
        )
    lr = state.learning_rate
    primary, enhancement = sample_minibatch_pair(streams)
    _, direction = loss_and_grad(w, ds, *pair_rows(primary, enhancement, config.alpha, ds.n_samples))
    step_fn = adam_step if config.base == "adam" else sgd_step
    w_next = step_fn(w, direction, state)
    if not log:
        return w_next, None
    loss_b, grad_b = loss_and_grad(w, ds, primary)
    _, grad_bprime = loss_and_grad(w, ds, enhancement)
    return w_next, StepLog(
        step=state.step_count,
        epoch=streams.epoch,
        minibatch_loss=loss_b,
        grad_norm_b=_norm(grad_b.values),
        grad_norm_bprime=_norm(grad_bprime.values),
        combined_norm=_norm(direction.values),
        lr=lr,
    )
