"""Deterministic random-stream management.

Every stochastic component in the package draws from a named stream derived
from a single root seed. Streams are independent PCG64 generators obtained
through ``numpy.random.SeedSequence`` spawn keys, so

* the same (root_seed, name, index) triple always yields the same sequence,
* distinct names never share state, and
* disabling one consumer (say, the enhancement batch) leaves every other
  stream's draw sequence untouched.

A change to how a consumer draws from its stream gets a new stream name and
id instead of a new meaning for the old ones: an old name then fails loudly
rather than silently producing different numbers under the same seed. Both
the training enhancement batch and the noise-lab batches are drawn by
``uniform_batch``.
"""

from __future__ import annotations

import numpy as np

# Registry of stream names. The numeric ids are part of the on-disk
# reproducibility contract: reordering them would silently change every run.
_STREAM_IDS = {
    "init": 0,
    "primary-batch": 1,
    "enhancement-batch": 2,
    "split": 3,
    "subset": 4,
    # ids 5 and 6 are retired (see _RETIRED_STREAMS) and never handed out again
    "synthetic": 7,
    "projection": 8,
    "noise-primary-v2": 9,
    "noise-enhancement-v2": 10,
}

# Retired stream name -> (its id, the stream that replaces it). The v1
# noise-lab streams picked each batch as the B smallest of N uniform keys;
# the v2 streams draw it with uniform_batch, so the same seed gives other
# batches.
_RETIRED_STREAMS = {
    "noise-primary": (5, "noise-primary-v2"),
    "noise-enhancement": (6, "noise-enhancement-v2"),
}


def stream_names() -> tuple[str, ...]:
    """All registered stream names, sorted."""
    return tuple(sorted(_STREAM_IDS))


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """The count rule, where each count or seed enters: ValueError naming the
    setting unless ``value`` is an integer (``is_integer``) with low <= value
    (<= high when given). Returns it as a plain int, for the caller to store."""
    if not (is_integer(value) and low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def named_stream(root_seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Return the deterministic generator for ``name`` under ``root_seed``.

    ``index`` selects a sub-stream (used e.g. for per-checkpoint noise
    probes) and defaults to 0. Both are counts (``check_count``) >= 0.
    """
    if name in _RETIRED_STREAMS:
        raise ValueError(
            f"stream {name!r} is retired; use {_RETIRED_STREAMS[name][1]!r}"
        )
    if name not in _STREAM_IDS:
        raise ValueError(
            f"unknown stream name {name!r}; expected one of {stream_names()}"
        )
    root_seed = check_count("root_seed", root_seed, 0)
    index = check_count("stream index", index, 0)
    ss = np.random.SeedSequence(root_seed, spawn_key=(_STREAM_IDS[name], index))
    return np.random.default_rng(ss)


def uniform_batch(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """b distinct indices drawn uniformly from range(n), in random order.

    One ``rng.choice(n, b, replace=False)`` call: numpy's set sample, which
    costs O(b) for b small against n (Bentley & Floyd 1987).
    """
    return rng.choice(n, size=b, replace=False).astype(np.int64, copy=False)
