"""The results directory: written from a run plan, read back, and rendered.

``write_results`` writes every file a run command leaves in its results
directory, from the plan it ran; no other module writes these files, and
``load_unit`` reads them back. The report command scans a results tree for
directories containing an ``aggregate.csv``, renders one summary table per
directory, and, for each directory holding both a batch-size sweep and an
alpha sweep, adds a comparison section with effective-batch annotations
and directional flags. Output is a pure function of the input CSVs: units are
visited in sorted order and no timestamps are embedded.

The sweep verdict is pure functions over aggregate rows (the dicts
``aggregate_row`` builds and ``load_unit`` reads back): the best cell, the
directional flags and the trade-off scatter rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .harness import SWEEP_AXES, AggregateResult, SweepPlan, config_hash
from .noiselab import ProbeRow, effective_batch
from .optim import StepLog

RUNS_COLUMNS = ("config_hash", "B", "alpha", "seed", "test_accuracy", "convergence_steps", "lr_halved_at", "status")
AGGREGATE_COLUMNS = ("B", "alpha", "mean_acc", "std_acc", "mean_steps", "std_steps", "n_converged")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def aggregate_row(b: int, alpha: float, agg: AggregateResult) -> dict:
    """One aggregate.csv row keyed by AGGREGATE_COLUMNS: the dict load_unit reads back."""
    return dict(
        zip(
            AGGREGATE_COLUMNS,
            (b, alpha, agg.mean_accuracy, agg.std_accuracy, agg.mean_convergence, agg.std_convergence, agg.n_converged),
        )
    )


def write_results(out: str | Path, plan: SweepPlan) -> float | None:
    """Write the results directory of a run plan: runs.csv (one row per
    seed) and aggregate.csv (one row per cell), in grid order; each run's
    steps_seed<N>.csv when its config logs steps; a probed config's
    probe.csv from its first run; and, for a sweep, sweep.json, plus
    scatter.csv along alpha. Each cell's B, alpha and config_hash come from
    its own config.

    Returns a sweep's best value (see best_row), or None for a single
    config or a sweep with no finite cell.
    """
    out = Path(out)
    cells = list(zip(plan.configs, plan.cells))
    runs = []
    for cfg, agg in cells:
        h, b, a = config_hash(cfg), cfg.ne.batch_size, cfg.ne.alpha
        runs.extend(
            (h, b, a, r.seed, r.test_accuracy, r.convergence_steps, r.lr_halved_at, r.status)
            for r in agg.records
        )
    _write_csv(out / "runs.csv", RUNS_COLUMNS, runs)
    rows = [aggregate_row(cfg.ne.batch_size, cfg.ne.alpha, agg) for cfg, agg in cells]
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, (row.values() for row in rows))
    for cfg, agg in cells:
        if cfg.log_steps:
            for r in agg.records:
                _write_csv(out / f"steps_seed{r.seed}.csv", [f.name for f in fields(StepLog)], map(astuple, r.steps))
        if cfg.probe is not None:
            header = [SWEEP_AXES[f.name][0] if f.name in SWEEP_AXES else f.name for f in fields(ProbeRow)]
            _write_csv(out / "probe.csv", header, map(astuple, agg.records[0].probes))
    if plan.axis == "single":
        return None
    best = best_row(rows, plan.column)
    best_value = None if best is None else float(best[plan.column])
    meta = {"axis": plan.axis, "values": list(plan.values), "fixed_value": plan.fixed_value, "best_value": best_value}
    (out / "sweep.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    if plan.axis == "alpha":
        write_tradeoff_csv(out / "scatter.csv", tradeoff_rows("increase-alpha", rows))
    return best_value


def _parse(column: str, text: str) -> float:
    if column in ("B", "n_converged"):  # "8" or "8.0", as the command line reads an integer key
        value = float(text)
        if not value.is_integer():
            raise ValueError(f"column {column} holds {text!r}, not an integer")
        return int(value)
    return float(text) if text else math.nan


@dataclass(frozen=True)
class ResultsUnit:
    """One results directory: its aggregate rows plus per-cell run counts."""

    name: str
    rows: tuple[dict, ...]
    totals: dict[tuple[float, float], int]
    axis: str  # a SWEEP_AXES field, or "single"


def _read_rows(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """The ``columns`` of each row of the CSV at ``path``, parsed; ValueError naming
    the file if it has no row, lacks a column or holds a value that does not parse."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        raws = list(reader)
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing or not raws:
        raise ValueError(f"{path}: " + (f"missing column {', '.join(missing)}" if missing else "no rows"))
    try:
        return [{c: _parse(c, raw[c]) for c in columns} for raw in raws]
    except (TypeError, ValueError) as exc:  # a short row reads None
        raise ValueError(f"{path}: {exc}") from exc


def load_unit(directory: Path, root: Path) -> ResultsUnit:
    """The results directory ``directory``, named by its path under ``root``.
    A malformed file in it raises ValueError naming the file."""
    rows = _read_rows(directory / "aggregate.csv", AGGREGATE_COLUMNS)
    totals: dict[tuple[float, float], int] = {}
    runs_path = directory / "runs.csv"
    if runs_path.exists():
        for run in _read_rows(runs_path, ("B", "alpha")):
            key = (float(run["B"]), run["alpha"])
            totals[key] = totals.get(key, 0) + 1
    sweep_path = directory / "sweep.json"
    if sweep_path.exists():  # a sweep names its axis, even over a one-value grid
        try:
            meta = json.loads(sweep_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sweep_path}: {exc}") from exc
        axis = meta.get("axis") if isinstance(meta, dict) else None
        if axis not in SWEEP_AXES:
            raise ValueError(f"{sweep_path}: needs a JSON object whose axis is {' or '.join(map(repr, SWEEP_AXES))}")
    else:  # hand-written results: the one column that varies, if only one does
        varying = [a for a, (column, _) in SWEEP_AXES.items() if len({r[column] for r in rows}) > 1]
        axis = varying[0] if len(varying) == 1 else "single"
    name = directory.relative_to(root).as_posix()
    return ResultsUnit(name=name, rows=tuple(rows), totals=totals, axis=axis)


def best_row(rows: tuple[dict, ...], key: str) -> dict | None:
    """Row with the highest finite mean accuracy; ties go to the smaller key."""
    best = None
    for row in sorted(rows, key=lambda r: r[key]):
        if math.isfinite(row["mean_acc"]) and (best is None or row["mean_acc"] > best["mean_acc"]):
            best = row
    return best


def fmt_mean_std(mean: float, std: float, digits: int) -> str:
    """``mean +- std`` to ``digits`` decimals, or "n/a" when the mean is not
    finite (a cell with no run behind the statistic). The command line prints
    its cells with this too, so both views of a cell agree."""
    if not math.isfinite(mean):
        return "n/a"
    return f"{mean:.{digits}f} +- {std:.{digits}f}"


def _converged_text(unit: ResultsUnit, row: dict) -> str:
    total = unit.totals.get((float(row["B"]), float(row["alpha"])))
    if total is None:
        return str(row["n_converged"])
    return f"{row['n_converged']}/{total}"


def render_unit(unit: ResultsUnit) -> str:
    axis_note = {
        "alpha": f"alpha sweep at B = {unit.rows[0]['B']}",
        "batch_size": f"batch-size sweep at alpha = {unit.rows[0]['alpha']:g}",
        "single": "single configuration",
    }[unit.axis]
    best = best_row(unit.rows, SWEEP_AXES[unit.axis][0]) if unit.axis in SWEEP_AXES else None
    lines = [f"## {unit.name}", "", f"{axis_note}.", ""]
    lines.append("| B | alpha | test accuracy | steps to stop | converged |")
    lines.append("|---|-------|---------------|---------------|-----------|")
    for row in sorted(unit.rows, key=lambda r: (r["B"], r["alpha"])):
        mark = " (best)" if best is row else ""
        lines.append(
            "| {b} | {a:g} | {acc} | {steps} | {conv} |".format(
                b=row["B"],
                a=row["alpha"],
                acc=fmt_mean_std(row["mean_acc"], row["std_acc"], 4) + mark,
                steps=fmt_mean_std(row["mean_steps"], row["std_steps"], 1),
                conv=_converged_text(unit, row),
            )
        )
    lines.append("")
    return "\n".join(lines)


def alpha_flags(rows: tuple[dict, ...]) -> dict[str, bool | None]:
    """Directional expectations along the alpha axis.

    "accuracy-best-enhanced-not-worse": the best finite alpha > 1 accuracy
    reaches at least the alpha = 1 accuracy (False when no alpha > 1 cell
    is finite). "time-nondecreasing-in-alpha": mean steps do not decrease
    as alpha grows. None when the needed cells are missing or have no
    statistics.
    """
    by_alpha = sorted(rows, key=lambda r: r["alpha"])
    base = [r for r in by_alpha if r["alpha"] == 1.0]
    enhanced = [r for r in by_alpha if r["alpha"] > 1.0]
    flags: dict[str, bool | None] = {}
    if base and enhanced and math.isfinite(base[0]["mean_acc"]):
        best = best_row(enhanced, "alpha")
        flags["accuracy-best-enhanced-not-worse"] = bool(best and best["mean_acc"] >= base[0]["mean_acc"])
    else:
        flags["accuracy-best-enhanced-not-worse"] = None
    times = [r["mean_steps"] for r in by_alpha]
    if len(times) >= 2 and all(math.isfinite(t) for t in times):
        flags["time-nondecreasing-in-alpha"] = bool(
            all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        )
    else:
        flags["time-nondecreasing-in-alpha"] = None
    return flags


def tradeoff_rows(series: str, rows: tuple[dict, ...]) -> list[tuple[str, float, float]]:
    """(series, mean_steps, mean_acc) per row, in the order given."""
    return [(series, row["mean_steps"], row["mean_acc"]) for row in rows]


def write_tradeoff_csv(path: Path, scatter: list[tuple[str, float, float]]) -> None:
    _write_csv(path, ["series", "convergence_steps", "accuracy"], scatter)


def _flag_text(value: bool | None) -> str:
    if value is None:
        return "NA (insufficient data)"
    return "PASS" if value else "FAIL"


def render_comparison(batch_unit: ResultsUnit, alpha_unit: ResultsUnit) -> tuple[str, list[tuple]]:
    """Compare a batch sweep with an alpha sweep of one directory, named in the heading below the root."""
    group = Path(batch_unit.name).parent.as_posix()
    best_b = best_row(batch_unit.rows, "B")
    best_a = best_row(alpha_unit.rows, "alpha")
    b_fixed = alpha_unit.rows[0]["B"]
    lines = ["## Enhancement at fixed B vs reducing B" + ("" if group == "." else f" ({group})"), ""]
    if best_b is None or best_a is None:
        lines.append("Not enough finite results to compare.")
        lines.append("")
        return "\n".join(lines), []
    gap = best_a["mean_acc"] - best_b["mean_acc"]
    lines.append(
        f"- best reduced batch: B = {best_b['B']} at alpha = {best_b['alpha']:g}: "
        f"accuracy {fmt_mean_std(best_b['mean_acc'], best_b['std_acc'], 4)}, "
        f"steps {fmt_mean_std(best_b['mean_steps'], best_b['std_steps'], 1)}"
    )
    lines.append(
        f"- best enhanced: alpha = {best_a['alpha']:g} at B = {best_a['B']} "
        f"(B_eff = {effective_batch(b_fixed, best_a['alpha']):.1f}): "
        f"accuracy {fmt_mean_std(best_a['mean_acc'], best_a['std_acc'], 4)}, "
        f"steps {fmt_mean_std(best_a['mean_steps'], best_a['std_steps'], 1)}"
    )
    lines.append(f"- accuracy gap (enhanced - reduced): {gap:+.4f}")
    for name, value in sorted(alpha_flags(alpha_unit.rows).items()):
        lines.append(f"- flag {name}: {_flag_text(value)}")
    lines.append("")
    lines.append("| alpha | B_eff | test accuracy | steps to stop |")
    lines.append("|-------|-------|---------------|---------------|")
    for row in sorted(alpha_unit.rows, key=lambda r: r["alpha"]):
        lines.append(
            "| {a:g} | {be:.1f} | {acc} | {steps} |".format(
                a=row["alpha"],
                be=effective_batch(b_fixed, row["alpha"]),
                acc=fmt_mean_std(row["mean_acc"], row["std_acc"], 4),
                steps=fmt_mean_std(row["mean_steps"], row["std_steps"], 1),
            )
        )
    lines.append("")
    scatter = tradeoff_rows("reduce-batch", sorted(batch_unit.rows, key=lambda r: r["B"]))
    scatter += tradeoff_rows("increase-alpha", sorted(alpha_unit.rows, key=lambda r: r["alpha"]))
    return "\n".join(lines), scatter


def emit_report(results_dir: str | Path, out_dir: str | Path | None = None) -> Path:
    """Render report.md and figure CSVs for every results unit under results_dir."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"results directory {results_dir} does not exist")
    unit_dirs = sorted(
        {p.parent for p in results_dir.rglob("aggregate.csv")},
        key=lambda p: p.relative_to(results_dir).as_posix(),
    )
    if not unit_dirs:
        raise ValueError(f"no aggregate.csv found under {results_dir}")
    units = [load_unit(d, results_dir) for d in unit_dirs]  # a malformed file stops the report before any output
    out_dir = Path(out_dir) if out_dir is not None else results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    sections = ["# Training results", ""]
    fig_dir = out_dir / "figures"
    groups: dict[str, dict[str, ResultsUnit]] = {}  # per directory, its first sweep along each axis
    for unit in units:
        sections.append(render_unit(unit))
        if unit.axis in SWEEP_AXES:
            groups.setdefault(Path(unit.name).parent.as_posix(), {}).setdefault(unit.axis, unit)
            key = SWEEP_AXES[unit.axis][0]
            stem = "root" if unit.name == "." else unit.name.replace("/", "_")
            for kind, mean, std in (("accuracy", "mean_acc", "std_acc"), ("time", "mean_steps", "std_steps")):
                rows = [(row[key], row[mean], row[std]) for row in sorted(unit.rows, key=lambda r: r[key])]
                _write_csv(fig_dir / f"fig_{stem}_{kind}.csv", [key, mean, std], rows)
    for group, pair in sorted(groups.items()):
        if len(pair) == 2:
            section, scatter = render_comparison(pair["batch_size"], pair["alpha"])
            sections.append(section)
            if scatter:
                stem = "" if group == "." else group.replace("/", "_") + "_"
                write_tradeoff_csv(fig_dir / f"fig_{stem}tradeoff_scatter.csv", scatter)
    report_path = out_dir / "report.md"
    report_path.write_text("\n".join(sections), encoding="utf-8")
    return report_path
