"""Measurement lab for minibatch gradient noise.

Conventions used throughout:

* At frozen parameters w, the per-sample gradient matrix G is (N, P), row mu
  holding the gradient of sample mu's loss; g_bar is the full gradient.
* Vanilla noise for a minibatch S of size B is xi = eta * (mean(G[S]) - g_bar).
  Its exact covariance over uniform draws without replacement is
      (eta^2 / B) * (N - B) / (N - 1) * [ (1/N) sum_mu g_mu g_mu^T - g_bar g_bar^T ].
* Enhanced noise with weight alpha over an independent pair (S, S') is
  xi_ne = alpha * xi + (1 - alpha) * xi', whose covariance is the vanilla
  covariance scaled by alpha^2 + (1 - alpha)^2.
* Noise samples are realized as rows of an (n_samples, P) float64 matrix.

Dense routines guard their own cost and raise CapabilityError rather than
silently thrash; probe_noise is the streaming path that works at any P.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .model import ParamVector, loss_and_grad, per_sample_grad_matrix, per_sample_grad_norms
from .optim import check_alpha, check_batch_size, pair_rows
from .rng import check_count, named_stream, uniform_batch

MAX_DENSE_PARAMS = 2000
MAX_ENUM_SUBSETS = 1_000_000
MAX_ENUM_PAIRS = 1_000_000
MAX_SAMPLE_ENTRIES = 50_000_000


class CapabilityError(RuntimeError):
    """The requested computation exceeds this routine's intended scale."""


def enhancement_factor(alpha: float) -> float:
    """Noise variance multiplier alpha^2 + (1 - alpha)^2.

    Equals 1 exactly at alpha in {0, 1}, exceeds 1 outside [0, 1], and dips
    to a minimum of 0.5 at alpha = 0.5 (weights between 0 and 1 average the
    two batches and damp noise instead of enhancing it).
    """
    alpha = check_alpha(alpha)
    return alpha**2 + (1.0 - alpha) ** 2


def effective_batch(batch_size: int, alpha: float) -> float:
    """Batch size whose vanilla noise level matches enhanced noise at (B, alpha):
    B / (alpha^2 + (1 - alpha)^2)."""
    return check_batch_size(batch_size) / enhancement_factor(alpha)


def _finite_population_factor(n: int, b: int) -> float:
    if n == 1:
        # B = N = 1: the only minibatch is the dataset, noise is identically 0.
        return 0.0
    return (n - b) / (n - 1)


def _dense_grads(grads: np.ndarray, batch_size: int) -> np.ndarray:
    """``grads`` as a float64 (n_samples, n_params) array, after the checks
    every dense routine shares: 2-D, 1 <= batch_size <= n_samples, and at
    most MAX_DENSE_PARAMS columns (else CapabilityError)."""
    g = np.asarray(grads, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("grads must be (n_samples, n_params)")
    n, p = g.shape
    check_batch_size(batch_size, n)
    if p > MAX_DENSE_PARAMS:
        raise CapabilityError(f"dense noise routines need P <= {MAX_DENSE_PARAMS}, got {p}; use probe_noise")
    return g


def noise_covariance_from_grads(grads: np.ndarray, eta: float, batch_size: int) -> np.ndarray:
    """Exact (P, P) vanilla noise covariance from a per-sample gradient matrix."""
    g = _dense_grads(grads, batch_size)
    n = g.shape[0]
    factor = _finite_population_factor(n, batch_size)
    g_bar = g.mean(axis=0)
    second = g.T @ g / n - np.outer(g_bar, g_bar)
    return (eta**2 / batch_size) * factor * second


def enumerate_noise_covariance_from_grads(
    grads: np.ndarray, eta: float, batch_size: int
) -> np.ndarray:
    """Population covariance of xi over every size-B subset, by enumeration.

    Also asserts the enumerated noise mean is zero (absolute tolerance
    1e-12); a violation would mean the arithmetic itself is broken.
    """
    g = _dense_grads(grads, batch_size)
    n, p = g.shape
    n_subsets = math.comb(n, batch_size)
    if n_subsets > MAX_ENUM_SUBSETS:
        raise CapabilityError(
            f"C({n}, {batch_size}) = {n_subsets} subsets exceeds {MAX_ENUM_SUBSETS}"
        )
    g_bar = g.mean(axis=0)
    second = np.zeros((p, p))
    mean_acc = np.zeros(p)
    combos = itertools.combinations(range(n), batch_size)
    while True:
        block = list(itertools.islice(combos, 4096))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        xi = eta * (g[idx].mean(axis=1) - g_bar)
        second += xi.T @ xi
        mean_acc += xi.sum(axis=0)
    mean = mean_acc / n_subsets
    if np.abs(mean).max() > 1e-12:
        raise ArithmeticError(
            f"enumerated noise mean is not zero (max |mean| = {np.abs(mean).max():.3e})"
        )
    return second / n_subsets


def enumerate_ne_noise_covariance_from_grads(
    grads: np.ndarray, eta: float, batch_size: int, alpha: float
) -> np.ndarray:
    """Population covariance of alpha*xi + (1-alpha)*xi' over all subset pairs.

    Enumerates every ordered pair of size-B subsets (M^2 pairs for
    M = C(N, B)), so it is exact and directly comparable to the vanilla
    enumeration scaled by the enhancement factor. CapabilityError, before
    any allocation, when M^2 exceeds MAX_ENUM_PAIRS or the (M^2, P) pairs
    array would exceed MAX_SAMPLE_ENTRIES.
    """
    g = _dense_grads(grads, batch_size)
    alpha = check_alpha(alpha)
    n, p = g.shape
    m = math.comb(n, batch_size)
    if m * m > MAX_ENUM_PAIRS:
        raise CapabilityError(f"{m}^2 subset pairs exceed {MAX_ENUM_PAIRS}")
    if m * m * p > MAX_SAMPLE_ENTRIES:  # the pairs array below holds m^2 * P doubles
        raise CapabilityError(f"{m}^2 subset pairs x {p} parameters exceed {MAX_SAMPLE_ENTRIES} entries")
    g_bar = g.mean(axis=0)
    idx = np.array(list(itertools.combinations(range(n), batch_size)), dtype=np.int64)
    xi = eta * (g[idx].mean(axis=1) - g_bar)
    pairs = alpha * xi[:, None, :] + (1.0 - alpha) * xi[None, :, :]
    flat = pairs.reshape(m * m, p)
    mean = flat.mean(axis=0)
    if np.abs(mean).max() > 1e-12:
        raise ArithmeticError(
            f"enumerated pair noise mean is not zero (max |mean| = {np.abs(mean).max():.3e})"
        )
    return flat.T @ flat / (m * m)


def _noise_trace(sq_norms: np.ndarray, total: np.ndarray, eta: float, batch_size: int) -> float:
    """tr Cov = (eta^2/B) * f * [ (1/N) sum_mu |g_mu|^2 - |g_bar|^2 ] from the
    per-sample squared norms and the summed gradient; f is the finite-population
    factor."""
    n = sq_norms.shape[0]
    factor = _finite_population_factor(n, batch_size)
    g_bar_sq = float((total * total).sum()) / (n * n)
    return float((eta**2 / batch_size) * factor * (sq_norms.mean() - g_bar_sq))


def exact_noise_trace(w: ParamVector, ds: Dataset, eta: float, batch_size: int) -> float:
    """Trace of the exact vanilla covariance, streamed at any parameter count.

    Per-sample squared norms come from the rank-one layer structure, so no
    (N, P) matrix is formed.
    """
    check_batch_size(batch_size, ds.n_samples)
    sq_norms, total = per_sample_grad_norms(w, ds)
    return _noise_trace(sq_norms, total.values, eta, batch_size)


def _index_pairs(
    seed: int,
    stream_index: int,
    alpha: float,
    n_draws: int,
    n_total: int,
    batch_size: int,
):
    """One (primary, enhancement) pair of (B,) index arrays per draw.

    Each array is one ``uniform_batch`` draw, the sampler training uses for
    B': a uniformly random B-subset in random order, at O(B) cost for B
    small against N. Primary batches come from the "noise-primary-v2"
    stream of ``seed``, enhancement batches from the independent
    "noise-enhancement-v2" stream, each drawn once per draw and built on the
    call, so a bad seed fails before the caller's data pass. At alpha = 1 the
    enhancement stream is not drawn and None stands in for its batches.
    """
    rng_p = named_stream(seed, "noise-primary-v2", stream_index)
    rng_e = None if alpha == 1.0 else named_stream(seed, "noise-enhancement-v2", stream_index)
    return (
        (uniform_batch(rng_p, n_total, batch_size), None if rng_e is None else uniform_batch(rng_e, n_total, batch_size))
        for _ in range(n_draws)
    )


def sample_ne_noise(
    w: ParamVector,
    ds: Dataset,
    eta: float,
    batch_size: int,
    alpha: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Monte Carlo enhanced noise samples alpha*xi + (1-alpha)*xi'.

    Batches come from ``_index_pairs``: S from the "noise-primary-v2" stream
    of ``seed`` and S' from the independent "noise-enhancement-v2" stream,
    one ``uniform_batch`` draw each per row. Draws are stacked in chunks of
    at most 512, fewer when B * P is large, so that each (rows, B, P) gather
    holds at most MAX_SAMPLE_ENTRIES doubles; the chunking never changes a
    row. At alpha = 1 the enhancement stream is not drawn and each row is the
    vanilla noise eta * (mean(G[S]) - g_bar).
    """
    alpha = check_alpha(alpha)
    check_batch_size(batch_size, ds.n_samples)
    n_samples = check_count("n_samples", n_samples, 1)
    if ds.n_samples * len(w) > MAX_SAMPLE_ENTRIES:
        raise CapabilityError(
            f"per-sample gradient matrix would hold {ds.n_samples * len(w)} doubles; "
            "use probe_noise for large models"
        )
    if n_samples * len(w) > MAX_SAMPLE_ENTRIES:
        raise CapabilityError("sample matrix too large; use probe_noise")
    pairs = _index_pairs(seed, 0, alpha, n_samples, ds.n_samples, batch_size)
    g = per_sample_grad_matrix(w, ds)
    g_bar = g.mean(axis=0)
    out = np.empty((n_samples, g.shape[1]))
    chunk = min(512, max(1, MAX_SAMPLE_ENTRIES // (batch_size * g.shape[1])))
    for start in range(0, n_samples, chunk):
        idx_p, idx_e = zip(*itertools.islice(pairs, chunk))
        xi = eta * (g[np.array(idx_p)].mean(axis=1) - g_bar)
        if alpha != 1.0:
            xi = alpha * xi + (1.0 - alpha) * (eta * (g[np.array(idx_e)].mean(axis=1) - g_bar))
        out[start : start + len(idx_p)] = xi
    return out


def excess_kurtosis(samples: np.ndarray) -> np.ndarray:
    """Excess kurtosis m4/m2^2 - 3 (population moments) of each column.

    Columns whose values are all equal yield nan, even where rounding in
    the mean leaves a tiny nonzero m2.
    """
    x = np.asarray(samples, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    m2 = (centered**2).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kurt = m4 / m2**2 - 3.0
    return np.where((m2 > 0.0) & (np.ptp(x, axis=0) > 0.0), kurt, np.nan)


def _grad_diversity(sq_norms: np.ndarray, total: np.ndarray) -> float:
    """sum_mu |g_mu|^2 / |sum_mu g_mu|^2 from the per-sample squared norms and
    the summed gradient."""
    den = float((total * total).sum())
    if den == 0.0:
        raise ValueError("summed gradient is zero; diversity undefined")
    return float(sq_norms.sum()) / den


def gradient_diversity(w: ParamVector, ds: Dataset) -> float:
    """Gradient diversity over the dataset, streamed at any scale.

    Equals 1 for orthogonal per-sample gradients of equal norm and
    1/n_samples when all per-sample gradients coincide.
    """
    sq_norms, total = per_sample_grad_norms(w, ds)
    return _grad_diversity(sq_norms, total.values)


@dataclass(frozen=True)
class ProbeRow:
    """One noise-probe measurement at a training checkpoint (probe CSV schema)."""

    step: int
    alpha: float
    batch_size: int
    trace_cov: float
    enhancement_ratio: float
    predicted_factor: float
    b_eff: float
    median_excess_kurtosis: float
    grad_diversity: float


def probe_noise(
    w: ParamVector,
    ds: Dataset,
    eta: float,
    batch_size: int,
    alpha: float,
    n_samples: int,
    seed: int,
    stream_index: int = 0,
) -> ProbeRow:
    """Measure enhanced noise at frozen parameters without dense matrices.

    One streamed pass over the dataset gives the per-sample squared gradient
    norms and the summed gradient, and from them the full gradient, the
    exact closed-form vanilla trace and the gradient diversity. Enhanced
    samples are then generated minibatch-pair by minibatch-pair (one
    ``loss_and_grad`` call each over the rows ``optim.pair_rows`` gives, the
    training step's rule: S alone at alpha = 1, else S ∪ S' weighted, which
    rounds differently from combining two gradients by about 1e-15 of the
    noise) and folded into per-coordinate raw moment accumulators, so memory
    stays at O(P) regardless of model size. The pairs are ``_index_pairs``
    draws on the v2 noise streams at ``stream_index``, the checkpoint's step
    (``ProbeRow.step``), so each checkpoint gets fresh batches, and a draw
    costs O(B) rather than O(N). The enhancement ratio divides the empirical
    enhanced trace by the vanilla trace. The median excess kurtosis skips
    coordinates whose sampled noise is the same in every draw.
    """
    alpha = check_alpha(alpha)
    n_samples = check_count("n_samples", n_samples, 2)
    stream_index = check_count("stream index", stream_index, 0)
    n = ds.n_samples
    batch_size = check_batch_size(batch_size, n)
    pairs = _index_pairs(seed, stream_index, alpha, n_samples, n, batch_size)
    sq_norms, total = per_sample_grad_norms(w, ds)
    base = total.values / n
    p = len(w)
    s1 = np.zeros(p)
    s2 = np.zeros(p)
    s3 = np.zeros(p)
    s4 = np.zeros(p)
    first = None
    varies = np.zeros(p, dtype=bool)
    # alpha * xi + (1 - alpha) * xi' = eta * (combined - base), as the weights
    # sum to 1; one weighted pass over S ∪ S' gives the combined gradient
    for primary, second in pairs:
        _, g = loss_and_grad(w, ds, *pair_rows(primary, second, alpha, n))
        xi = eta * (g.values - base)
        if first is None:
            first = xi
        varies |= xi != first
        s1 += xi
        x2 = xi * xi
        s2 += x2
        s3 += x2 * xi
        s4 += x2 * x2
    r1 = s1 / n_samples
    r2 = s2 / n_samples
    r3 = s3 / n_samples
    r4 = s4 / n_samples
    var_pop = r2 - r1**2
    trace = float(var_pop.sum() * n_samples / (n_samples - 1))
    mu4 = r4 - 4.0 * r3 * r1 + 6.0 * r2 * r1**2 - 3.0 * r1**4
    with np.errstate(divide="ignore", invalid="ignore"):
        kurt = mu4 / var_pop**2 - 3.0
    kurt = np.where(varies & (var_pop > 0.0), kurt, np.nan)
    vanilla_trace = _noise_trace(sq_norms, total.values, eta, batch_size)
    ratio = trace / vanilla_trace if vanilla_trace > 0 else float("nan")
    return ProbeRow(
        step=stream_index,
        alpha=alpha,
        batch_size=batch_size,
        trace_cov=trace,
        enhancement_ratio=ratio,
        predicted_factor=enhancement_factor(alpha),
        b_eff=effective_batch(batch_size, alpha),
        median_excess_kurtosis=float(np.nanmedian(kurt)),
        grad_diversity=_grad_diversity(sq_norms, total.values),
    )
