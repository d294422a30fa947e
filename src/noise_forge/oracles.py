"""Self-contained oracle suite for the noise lab.

Each check recomputes a quantity two independent ways (closed form vs
enumeration, prediction vs Monte Carlo) on small bundled instances and
reports the measured discrepancy against a fixed bound. The CLI's
verify-oracles subcommand renders these; the tests run its fast suite, both
as is (every check passes) and with a broken ``pair_rows`` (its check fails).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, SyntheticSpec, make_synthetic
from .model import MlpSpec, ParamVector, glorot_init, loss_and_grad, per_sample_grad_matrix
from .noiselab import (
    effective_batch,
    enhancement_factor,
    enumerate_ne_noise_covariance_from_grads,
    enumerate_noise_covariance_from_grads,
    excess_kurtosis,
    noise_covariance_from_grads,
    sample_ne_noise,
)
from .optim import ne_combine, pair_rows
from .rng import named_stream


@dataclass(frozen=True)
class OracleCheck:
    name: str
    measured: float
    bound: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound


def _rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance |a - b| / max(|a|, |b|); 0 when both are zero."""
    num = float(np.linalg.norm(a - b))
    den = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if den == 0.0:
        return 0.0
    return num / den


def _toy_instance(
    seed: int,
    n_per_class: int,
    num_classes: int,
    dim: int,
    hidden: tuple[int, ...],
) -> tuple[ParamVector, Dataset]:
    """Small blob dataset plus freshly initialized classifier, deterministic in seed."""
    crng = named_stream(seed, "synthetic", 1)
    centers = crng.uniform(0.1, 0.9, size=(num_classes, dim))
    ds = make_synthetic(SyntheticSpec(centers, n_per_class, 0.25, seed))
    w = glorot_init(MlpSpec(dim, hidden, num_classes, seed=seed))
    return w, ds


# name, seed, n_per_class, classes, dim, hidden
_TOY_TABLE = (
    ("logit-2d", 11, 3, 2, 2, ()),
    ("mlp-4c", 12, 2, 4, 3, (4,)),
    ("mlp-3c", 13, 4, 3, 4, (6,)),
    ("deep-2c", 14, 6, 2, 5, (8, 4)),
    ("wide-2c", 15, 5, 2, 6, (10,)),
)


def _standard_toys() -> list[tuple[str, ParamVector, Dataset]]:
    """The bundled toy instances used by every enumeration check."""
    return [
        (name, *_toy_instance(seed, npc, c, d, hidden))
        for name, seed, npc, c, d, hidden in _TOY_TABLE
    ]


def _batch_grid(n: int) -> list[int]:
    return sorted({b for b in (1, 2, 4, n) if 1 <= b <= n})


def run_oracle_suite(fast: bool = False) -> list[OracleCheck]:
    """Run every oracle check; ``fast`` shrinks the Monte Carlo sizes."""
    checks: list[OracleCheck] = []

    # Closed-form covariance vs full minibatch enumeration, per toy instance,
    # across a batch grid that includes B = N (zero covariance on both sides).
    toys = _standard_toys()
    for name, w, ds in toys:
        grads = per_sample_grad_matrix(w, ds)
        worst = 0.0
        grid = _batch_grid(ds.n_samples)
        for b in grid:
            exact = noise_covariance_from_grads(grads, b)
            enum = enumerate_noise_covariance_from_grads(grads, b)
            worst = max(worst, _rel_frobenius(exact, enum))
        checks.append(
            OracleCheck(
                name=f"covariance-equivalence/{name}",
                measured=worst,
                bound=1e-10,
                detail=f"N={ds.n_samples}, P={grads.shape[1]}, B in {grid}",
            )
        )

    # Enumerated noise mean is zero (the enumeration itself also asserts this).
    _, w, ds = toys[0]
    grads = per_sample_grad_matrix(w, ds)
    g_bar = grads.mean(axis=0)
    means = []
    for combo in itertools.combinations(range(ds.n_samples), 2):
        means.append(grads[list(combo)].mean(axis=0) - g_bar)
    mean_norm = float(np.abs(np.mean(means, axis=0)).max())
    checks.append(
        OracleCheck(
            name="noise-mean-zero",
            measured=mean_norm,
            bound=1e-12,
            detail=f"all C({ds.n_samples},2) minibatches, max |mean coordinate|",
        )
    )

    # Exact pair enumeration: enhanced covariance = factor * vanilla covariance.
    _, w8, ds8 = toys[1]
    grads8 = per_sample_grad_matrix(w8, ds8)
    vanilla = enumerate_noise_covariance_from_grads(grads8, 2)
    worst_pair = 0.0
    for alpha in (1.5, 2.0, 2.5):
        enhanced = enumerate_ne_noise_covariance_from_grads(grads8, 2, alpha)
        factor = enhancement_factor(alpha)
        ratio_err = abs(np.trace(enhanced) / np.trace(vanilla) / factor - 1.0)
        matrix_err = _rel_frobenius(enhanced, factor * vanilla)
        worst_pair = max(worst_pair, ratio_err, matrix_err)
    checks.append(
        OracleCheck(
            name="pair-enumeration-enhancement",
            measured=worst_pair,
            bound=1e-10,
            detail=f"N={ds8.n_samples}, B=2, alpha in (1.5, 2, 2.5); trace and matrix",
        )
    )

    # Effective batch identities hold exactly.
    b_eff_errs = [
        abs(effective_batch(5000, 2.0) - 1000.0),
        abs(effective_batch(2000, 1.5) - 800.0),
        max(abs(effective_batch(b, 1.0) - b) for b in (1, 32, 900, 5000)),
    ]
    checks.append(
        OracleCheck(
            name="effective-batch-identities",
            measured=max(b_eff_errs),
            bound=0.0,
            detail="(5000, 2)->1000, (2000, 1.5)->800, (B, 1)->B",
        )
    )

    # Monte Carlo enhancement ratio on a larger toy.
    w_mc, ds_mc = _toy_instance(21, 10, 4, 5, (8,))
    n_mc = 20_000 if fast else 100_000
    alpha_mc = 2.0
    van = sample_ne_noise(w_mc, ds_mc, 5, 1.0, n_mc, seed=33)
    enh = sample_ne_noise(w_mc, ds_mc, 5, alpha_mc, n_mc, seed=33)
    trace_van = float(van.var(axis=0, ddof=1).sum())
    trace_enh = float(enh.var(axis=0, ddof=1).sum())
    mc_err = abs(trace_enh / trace_van / enhancement_factor(alpha_mc) - 1.0)
    checks.append(
        OracleCheck(
            name="mc-enhancement-ratio",
            measured=mc_err,
            bound=0.05,
            detail=f"alpha=2, B=5, N={ds_mc.n_samples}, n={n_mc} samples each side",
        )
    )

    # The combined direction is unbiased: averaging over every minibatch pair
    # recovers the full gradient, both for two combined gradients and for the
    # one weighted pass over B ∪ B' that training takes (pairs sharing rows
    # included).
    _, w6, ds6 = toys[0]
    _, full = loss_and_grad(w6, ds6, None)
    subsets = [np.array(c, dtype=np.int64) for c in itertools.combinations(range(ds6.n_samples), 2)]
    sub_grads = [loss_and_grad(w6, ds6, s)[1] for s in subsets]
    combined = np.zeros(len(w6))
    fused = np.zeros(len(w6))
    for s, gb in zip(subsets, sub_grads):
        for s2, ge in zip(subsets, sub_grads):
            combined += ne_combine(gb, ge, 2.0).values
            fused += loss_and_grad(w6, ds6, *pair_rows(s, s2, 2.0, ds6.n_samples))[1].values
    n_pairs = len(subsets) ** 2
    bias = max(float(np.abs(acc / n_pairs - full.values).max()) for acc in (combined, fused))
    checks.append(
        OracleCheck(
            name="ne-direction-unbiased",
            measured=bias,
            bound=1e-10,
            detail=f"alpha=2, all {len(subsets)}^2 minibatch pairs, N=6, B=2; combined and fused",
        )
    )

    # The kurtosis estimator is calibrated: iid Gaussians have excess ~ 0.
    n_k = 30_000 if fast else 100_000
    gauss = named_stream(44, "projection").standard_normal((n_k, 16))
    kmax = float(np.abs(excess_kurtosis(gauss)).max())
    checks.append(
        OracleCheck(
            name="kurtosis-gaussian-zero",
            measured=kmax,
            bound=0.1,
            detail=f"{n_k} iid standard normal vectors, 16 coordinates",
        )
    )

    return checks
