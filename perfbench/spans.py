"""In-memory span tracer that wraps noise_forge's public functions from outside.

A span is one call of a traced function: its id, the id of the span that was
open when it started (its parent), the id of the run it belongs to, its name,
start and end times from ``time.perf_counter``, and a few attributes (rows
processed, alpha of a training step). Spans stay in a list until the
benchmark writes them out at the end.

Tracing patches module attributes of the already-imported package: every
``noise_forge`` module whose namespace holds a traced function (the module
that defines it and every module that imported it by name) gets the wrapper,
so calls are caught at the call sites their callers actually use. Nothing in
the package's source changes, and ``Tracer.uninstall`` restores the originals.

Calls are single-threaded, so the open spans form a stack and a span's
children never overlap in time: its self time is its duration minus the sum
of its direct children's durations.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True, slots=True)
class Span:
    span_id: int
    parent_id: int | None
    run_id: int
    name: str
    start: float
    end: float
    outermost: bool  # no enclosing span has the same name
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args: tuple, kwargs: dict) -> dict:
    """Rows a (w, ds, idx=None, ...) call processes: len(idx), or all of ds."""
    idx = kwargs.get("idx", args[2] if len(args) > 2 else None)
    return {"rows": int(args[1].n_samples) if idx is None else int(len(idx))}


def _step_alpha(args: tuple, kwargs: dict) -> dict:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return {"alpha": float(config.alpha)}


# (defining module, function name, attribute extractor or None). Each entry is
# a layer boundary the benchmark reports on; see perfbench/README.md.
TRACED: tuple[tuple[str, str, Callable[[tuple, dict], dict] | None], ...] = (
    ("dataio", "make_synthetic", None),
    ("dataio", "split_holdout", None),
    ("rng", "named_stream", None),
    ("model", "glorot_init", None),
    ("model", "loss_and_grad", _rows),
    ("model", "mean_loss", _rows),
    ("model", "evaluate_accuracy", None),
    ("model", "per_sample_grad_norms", _rows),
    ("optim", "training_step", _step_alpha),
    ("optim", "sample_minibatch_pair", None),
    ("optim", "ne_combine", None),
    ("optim", "adam_step", None),
    ("noiselab", "probe_noise", None),
    ("noiselab", "exact_noise_trace", None),
    ("noiselab", "gradient_diversity", None),
    ("harness", "train_run", None),
)


class Tracer:
    """Records spans; ``call`` opens one by hand, ``install`` wraps the package."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = 0
        self._next_id = 0
        self._open_ids: list[int] = []
        self._open_names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def new_run(self) -> int:
        """Start a new run id; later spans share it until the next call."""
        self.run_id += 1
        return self.run_id

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, attrs: dict | None = None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._open_ids[-1] if self._open_ids else None
        outermost = name not in self._open_names
        self._open_ids.append(span_id)
        self._open_names.append(name)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open_ids.pop()
            self._open_names.pop()
            self.spans.append(
                Span(span_id, parent, self.run_id, name, start, end, outermost, attrs or {})
            )

    def wrap(self, name: str, fn: Callable, extract: Callable[[tuple, dict], dict] | None = None) -> Callable:
        def traced(*args, **kwargs):
            attrs = extract(args, kwargs) if extract is not None else None
            return self.call(name, fn, args, kwargs, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "noise_forge") -> None:
        """Wrap every TRACED function wherever the package's modules hold it."""
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module_name, fn_name, extract in TRACED:
            original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, extract)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus its direct children's."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None:
            own[s.parent_id] -= s.duration
    return own


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds (outermost spans only), self seconds, rows."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        row["calls"] += 1
        row["self_s"] += own[s.span_id]
        row["rows"] += s.attrs.get("rows", 0)
        if s.outermost:
            row["s"] += s.duration
    return out


def grad_use(spans: list[Span]) -> dict[float, tuple[int, int]]:
    """Per alpha: (gradients feeding updates, gradients computed) in training steps.

    A step computes grad(B) and, in pairwise or naive-full mode, a second
    gradient. The second one feeds the update only when alpha != 1, because
    at alpha = 1 the combine keeps grad(B) alone.
    """
    computed: dict[int, int] = {}
    steps = {s.span_id: s for s in spans if s.name == "optim.training_step"}
    for s in spans:
        if s.name == "model.loss_and_grad" and s.parent_id in steps:
            computed[s.parent_id] = computed.get(s.parent_id, 0) + 1
    out: dict[float, tuple[int, int]] = {}
    for span_id, step in steps.items():
        alpha = step.attrs["alpha"]
        n = computed.get(span_id, 0)
        useful, total = out.get(alpha, (0, 0))
        out[alpha] = (useful + (n if alpha != 1.0 else min(n, 1)), total + n)
    return out


def per_unit(spans: list[Span], setup_run: int, unit_runs: list[int]) -> dict[str, dict[str, float]]:
    """summarize() of the set-up run plus the mean over the unit runs, per name:
    the cost of one set-up followed by one workload unit."""
    out = {name: dict(row) for name, row in summarize([s for s in spans if s.run_id == setup_run]).items()}
    for run in unit_runs:
        for name, row in summarize([s for s in spans if s.run_id == run]).items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
            for key, value in row.items():
                acc[key] += value / len(unit_runs)
    return out


def to_records(spans: list[Span]) -> list[list]:
    """Compact JSON-ready rows: id, parent, run, name, start, end, attrs."""
    return [[s.span_id, s.parent_id, s.run_id, s.name, s.start, s.end, s.attrs] for s in spans]
