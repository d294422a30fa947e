import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from noise_forge.harness import STATUS_DIVERGED, SweepPlan, aggregate
from noise_forge.report import (
    ResultsUnit,
    aggregate_row,
    alpha_flags,
    best_row,
    emit_report,
    load_unit,
    render_comparison,
    render_unit,
    write_results,
)
from test_harness import rec, small_config

AGG_HEADER = "B,alpha,mean_acc,std_acc,mean_steps,std_steps,n_converged"
RUNS_HEADER = "config_hash,B,alpha,seed,test_accuracy,convergence_steps,lr_halved_at,status"


def write_results_tree(root: Path) -> Path:
    """A small, fully hand-written results tree with known best cells."""
    sweep_b = root / "sweep-b"
    sweep_b.mkdir(parents=True)
    (sweep_b / "aggregate.csv").write_text(
        AGG_HEADER + "\n"
        "8,1.0,0.9,0.01,200.0,10.0,2\n"
        "16,1.0,0.88,0.02,120.0,5.0,2\n"
    )
    (sweep_b / "runs.csv").write_text(
        RUNS_HEADER + "\n"
        "h1,8,1.0,0,0.9,200,,converged\n"
        "h1,8,1.0,1,0.9,200,,converged\n"
        "h2,16,1.0,0,0.88,120,,converged\n"
        "h2,16,1.0,1,0.88,120,,converged\n"
    )
    sweep_a = root / "sweep-alpha"
    sweep_a.mkdir()
    (sweep_a / "aggregate.csv").write_text(
        AGG_HEADER + "\n"
        "16,1.0,0.88,0.02,120.0,5.0,2\n"
        "16,2.0,0.91,0.01,300.0,20.0,2\n"
    )
    (sweep_a / "runs.csv").write_text(
        RUNS_HEADER + "\n"
        "h3,16,1.0,0,0.88,120,,converged\n"
        "h3,16,1.0,1,0.88,120,,converged\n"
        "h4,16,2.0,0,0.91,300,,converged\n"
        "h4,16,2.0,1,0.91,300,,converged\n"
    )
    train = root / "train"
    train.mkdir()
    (train / "aggregate.csv").write_text(AGG_HEADER + "\n16,1.0,0.88,0.02,120.0,5.0,2\n")
    return root


# Hand-rendered expectation for the tree above. The numbers are oracle
# values: B_eff(16, 2) = 16/5 = 3.2 and the gap is 0.91 - 0.90 = +0.0100.
EXPECTED_REPORT = """# Training results

## sweep-alpha

alpha sweep at B = 16.

| B | alpha | test accuracy | steps to stop | converged |
|---|-------|---------------|---------------|-----------|
| 16 | 1 | 0.8800 +- 0.0200 | 120.0 +- 5.0 | 2/2 |
| 16 | 2 | 0.9100 +- 0.0100 (best) | 300.0 +- 20.0 | 2/2 |

## sweep-b

batch-size sweep at alpha = 1.

| B | alpha | test accuracy | steps to stop | converged |
|---|-------|---------------|---------------|-----------|
| 8 | 1 | 0.9000 +- 0.0100 (best) | 200.0 +- 10.0 | 2/2 |
| 16 | 1 | 0.8800 +- 0.0200 | 120.0 +- 5.0 | 2/2 |

## train

single configuration.

| B | alpha | test accuracy | steps to stop | converged |
|---|-------|---------------|---------------|-----------|
| 16 | 1 | 0.8800 +- 0.0200 | 120.0 +- 5.0 | 2 |

## Enhancement at fixed B vs reducing B

- best reduced batch: B = 8 at alpha = 1: accuracy 0.9000 +- 0.0100, steps 200.0 +- 10.0
- best enhanced: alpha = 2 at B = 16 (B_eff = 3.2): accuracy 0.9100 +- 0.0100, steps 300.0 +- 20.0
- accuracy gap (enhanced - reduced): +0.0100
- flag accuracy-best-enhanced-not-worse: PASS
- flag time-nondecreasing-in-alpha: PASS

| alpha | B_eff | test accuracy | steps to stop |
|-------|-------|---------------|---------------|
| 1 | 16.0 | 0.8800 +- 0.0200 | 120.0 +- 5.0 |
| 2 | 3.2 | 0.9100 +- 0.0100 | 300.0 +- 20.0 |
"""


class TestLoadUnit:
    def test_axis_detection(self, tmp_path):
        root = write_results_tree(tmp_path)
        assert load_unit(root / "sweep-b", root).axis == "batch_size"
        assert load_unit(root / "sweep-alpha", root).axis == "alpha"
        assert load_unit(root / "train", root).axis == "single"

    def test_totals_come_from_runs_csv(self, tmp_path):
        root = write_results_tree(tmp_path)
        unit = load_unit(root / "sweep-b", root)
        assert unit.totals == {(8.0, 1.0): 2, (16.0, 1.0): 2}
        no_runs = load_unit(root / "train", root)
        assert no_runs.totals == {}

    def test_rows_parse_numbers(self, tmp_path):
        root = write_results_tree(tmp_path)
        unit = load_unit(root / "sweep-alpha", root)
        assert unit.rows[1]["alpha"] == 2.0
        assert unit.rows[1]["mean_acc"] == 0.91
        assert unit.rows[1]["n_converged"] == 2

    def test_blank_fields_become_nan(self, tmp_path):
        d = tmp_path / "unit"
        d.mkdir()
        (d / "aggregate.csv").write_text(AGG_HEADER + "\n4,1.0,nan,nan,,,0\n")
        unit = load_unit(d, tmp_path)
        assert math.isnan(unit.rows[0]["mean_acc"])
        assert math.isnan(unit.rows[0]["mean_steps"])

    @staticmethod
    def broken(root, name, text):
        """The sweep-alpha unit of a results tree, with ``name`` replaced by ``text``."""
        unit = write_results_tree(root) / "sweep-alpha"
        (unit / name).write_text(text)
        return unit

    @pytest.mark.parametrize(
        "column, text, row", [("B", "8.5", "8.5,1.0,0.9,0.0,,,2"), ("n_converged", "2.7", "8,1.0,0.9,0.0,,,2.7")]
    )
    def test_count_columns_must_hold_integers(self, column, text, row, tmp_path):
        # these used to read as B = 8 and 2 converged; "8.0" still reads as 8
        d = tmp_path / "unit"
        d.mkdir()
        (d / "aggregate.csv").write_text(AGG_HEADER + "\n8.0,1.0,0.9,0.0,,,2.0\n")
        assert [load_unit(d, tmp_path).rows[0][c] for c in ("B", "n_converged")] == [8, 2]
        (d / "aggregate.csv").write_text(AGG_HEADER + "\n" + row + "\n")
        with pytest.raises(ValueError, match=rf"unit/aggregate\.csv: column {column} holds '{text}', not an integer$"):
            load_unit(d, tmp_path)

    def test_aggregate_without_rows_is_named(self, tmp_path):
        unit = self.broken(tmp_path, "aggregate.csv", AGG_HEADER + "\n")
        with pytest.raises(ValueError, match=r"sweep-alpha/aggregate\.csv: no rows$"):
            load_unit(unit, tmp_path)

    def test_aggregate_missing_a_column_is_named(self, tmp_path):
        header = AGG_HEADER.replace(",std_acc", "")
        unit = self.broken(tmp_path, "aggregate.csv", header + "\n16,1.0,0.88,120.0,5.0,2\n")
        with pytest.raises(ValueError, match=r"sweep-alpha/aggregate\.csv: missing column std_acc$"):
            load_unit(unit, tmp_path)

    def test_runs_missing_a_column_is_named(self, tmp_path):
        header = RUNS_HEADER.replace(",alpha", "")
        unit = self.broken(tmp_path, "runs.csv", header + "\nh3,16,0,0.88,120,,converged\n")
        with pytest.raises(ValueError, match=r"sweep-alpha/runs\.csv: missing column alpha$"):
            load_unit(unit, tmp_path)

    @pytest.mark.parametrize("meta", ['{"axis": "lr"}', "[1]"], ids=["unknown-axis", "not-an-object"])
    def test_sweep_json_without_a_known_axis_is_named(self, meta, tmp_path):
        unit = self.broken(tmp_path, "sweep.json", meta)
        with pytest.raises(ValueError, match=r"sweep-alpha/sweep\.json: needs a JSON object whose axis is"):
            load_unit(unit, tmp_path)


def run_plan(plan):
    """``plan`` with scripted cells: the alpha = 2 cell all diverged, every
    other cell converged with its accuracy set by its B and alpha."""
    cells = []
    for cfg in plan.configs:
        if cfg.ne.alpha == 2.0:
            cells.append(aggregate([rec(s, status=STATUS_DIVERGED, acc=math.nan) for s in cfg.seeds]))
        else:
            cells.append(aggregate([rec(s, acc=0.5 + cfg.ne.batch_size / 100 + cfg.ne.alpha / 10, conv=100 + s) for s in cfg.seeds]))
    return SweepPlan(plan.axis, plan.configs, tuple(cells))


class TestWriteResults:
    @pytest.mark.parametrize(
        "axis, grid",
        [
            ("alpha", [1.0, 1.5, 2.0]),  # one all-diverged cell
            ("batch_size", [8]),  # one value: only sweep.json tells its axis
            ("single", None),
        ],
    )
    def test_load_unit_reads_back_what_was_written(self, axis, grid, tmp_path):
        cfg = small_config(seeds=(0, 3))
        plan = SweepPlan("single", (cfg,)) if grid is None else SweepPlan.over(cfg, axis, grid)
        plan = run_plan(plan)
        best = write_results(tmp_path / "unit", plan)
        unit = load_unit(tmp_path / "unit", tmp_path)
        written = [aggregate_row(c.ne.batch_size, c.ne.alpha, agg) for c, agg in zip(plan.configs, plan.cells)]
        np.testing.assert_equal(list(unit.rows), written)  # NaN equals NaN here
        assert [type(r["B"]) for r in unit.rows] == [int] * len(written)
        assert unit.totals == {(float(c.ne.batch_size), c.ne.alpha): 2 for c in plan.configs}
        assert unit.axis == axis
        if axis == "single":
            assert best is None
        else:
            assert best == best_row(unit.rows, plan.column)[plan.column]


class TestRenderUnit:
    def test_nan_rows_render_as_na(self):
        unit = ResultsUnit(
            name="x",
            rows=(
                {
                    "B": 4,
                    "alpha": 1.0,
                    "mean_acc": math.nan,
                    "std_acc": math.nan,
                    "mean_steps": math.nan,
                    "std_steps": math.nan,
                    "n_converged": 0,
                },
            ),
            totals={},
            axis="single",
        )
        text = render_unit(unit)
        assert "| 4 | 1 | n/a | n/a | 0 |" in text

    def test_best_marker_skips_nan_cells(self):
        rows = (
            {
                "B": 4,
                "alpha": 1.0,
                "mean_acc": math.nan,
                "std_acc": math.nan,
                "mean_steps": 10.0,
                "std_steps": 0.0,
                "n_converged": 0,
            },
            {
                "B": 8,
                "alpha": 1.0,
                "mean_acc": 0.5,
                "std_acc": 0.0,
                "mean_steps": 10.0,
                "std_steps": 0.0,
                "n_converged": 1,
            },
        )
        text = render_unit(ResultsUnit(name="x", rows=rows, totals={}, axis="batch_size"))
        assert "0.5000 +- 0.0000 (best)" in text


class TestRenderComparison:
    def test_unusable_sweeps_say_so(self, tmp_path):
        nan_rows = (
            {
                "B": 4,
                "alpha": 1.0,
                "mean_acc": math.nan,
                "std_acc": math.nan,
                "mean_steps": math.nan,
                "std_steps": math.nan,
                "n_converged": 0,
            },
        )
        unit = ResultsUnit(name="x", rows=nan_rows, totals={}, axis="batch_size")
        text, scatter = render_comparison(unit, unit)
        assert "Not enough finite results" in text
        assert scatter == []

    def test_flag_na_when_no_baseline(self):
        rows = (
            {
                "B": 16,
                "alpha": 1.5,
                "mean_acc": 0.9,
                "std_acc": 0.0,
                "mean_steps": 100.0,
                "std_steps": 0.0,
                "n_converged": 1,
            },
        )
        alpha_unit = ResultsUnit(name="a", rows=rows, totals={}, axis="alpha")
        text, _ = render_comparison(alpha_unit, alpha_unit)
        assert "flag accuracy-best-enhanced-not-worse: NA (insufficient data)" in text


def agg_row(alpha, mean_acc, mean_steps=100.0, b=16):
    return {
        "B": b,
        "alpha": alpha,
        "mean_acc": mean_acc,
        "std_acc": 0.0,
        "mean_steps": mean_steps,
        "std_steps": 0.0,
        "n_converged": 1,
    }


class TestAlphaFlags:
    @pytest.mark.parametrize(
        "enhanced, expected",
        [((math.nan, 0.90), True), ((0.90, math.nan), True), ((math.nan, math.nan), False)],
    )
    def test_best_enhanced_accuracy_skips_nan_cells(self, enhanced, expected):
        rows = (agg_row(1.0, 0.85), agg_row(1.5, enhanced[0]), agg_row(2.0, enhanced[1]))
        assert alpha_flags(rows)["accuracy-best-enhanced-not-worse"] is expected


class TestEmitReport:
    def test_golden_report(self, tmp_path):
        root = write_results_tree(tmp_path / "results")
        path = emit_report(root)
        assert path == root / "report.md"
        assert path.read_text() == EXPECTED_REPORT

    def test_emission_is_deterministic(self, tmp_path):
        root = write_results_tree(tmp_path / "results")
        first = emit_report(root).read_bytes()
        second = emit_report(root).read_bytes()
        assert first == second

    def test_figure_csvs(self, tmp_path):
        root = write_results_tree(tmp_path / "results")
        emit_report(root)
        fig = root / "figures"
        acc = (fig / "fig_sweep-alpha_accuracy.csv").read_text().splitlines()
        assert acc[0] == "alpha,mean_acc,std_acc"
        assert acc[1] == "1.0,0.88,0.02"
        assert acc[2] == "2.0,0.91,0.01"
        time = (fig / "fig_sweep-b_time.csv").read_text().splitlines()
        assert time[0] == "B,mean_steps,std_steps"
        assert time[1] == "8,200.0,10.0"
        scatter = (fig / "fig_tradeoff_scatter.csv").read_text().splitlines()
        assert scatter[0] == "series,convergence_steps,accuracy"
        assert scatter[1:] == [
            "reduce-batch,200.0,0.9",
            "reduce-batch,120.0,0.88",
            "increase-alpha,120.0,0.88",
            "increase-alpha,300.0,0.91",
        ]
        # the single-configuration unit gets no figure files
        assert not (fig / "fig_train_accuracy.csv").exists()
        # only the root unit, named ".", becomes "root"; a dotted directory keeps its dots
        dotted = root / "lr0.003"
        shutil.copytree(root / "sweep-alpha", dotted)
        emit_report(root)
        assert (fig / "fig_lr0.003_accuracy.csv").read_text().splitlines() == acc
        emit_report(dotted)
        assert (dotted / "figures" / "fig_root_accuracy.csv").read_text().splitlines() == acc

    def test_one_comparison_per_directory(self, tmp_path):
        tree = write_results_tree(tmp_path / "tree")
        emit_report(tree)  # the same pair at the tree root, for reference
        root = tmp_path / "results"
        for group in ("adam", "sgd"):
            for name in ("sweep-b", "sweep-alpha"):
                shutil.copytree(tree / name, root / group / name)
        text = emit_report(root).read_text()
        golden = EXPECTED_REPORT[EXPECTED_REPORT.index("## Enhancement") :]
        for group in ("adam", "sgd"):
            heading = f"## Enhancement at fixed B vs reducing B ({group})"
            assert text.count(heading) == 1
            section = text[text.index(heading) :]
            assert section.startswith(golden.replace("reducing B", f"reducing B ({group})", 1))
            scatter = root / "figures" / f"fig_{group}_tradeoff_scatter.csv"
            assert scatter.read_text() == (tree / "figures" / "fig_tradeoff_scatter.csv").read_text()
        assert text.count("## Enhancement") == 2
        assert not (root / "figures" / "fig_tradeoff_scatter.csv").exists()

    def test_sweeps_in_different_directories_are_not_compared(self, tmp_path):
        tree = write_results_tree(tmp_path / "tree")
        root = tmp_path / "results"
        shutil.copytree(tree / "sweep-b", root / "adam" / "sweep-b")
        shutil.copytree(tree / "sweep-alpha", root / "sgd" / "sweep-alpha")
        assert "## Enhancement" not in emit_report(root).read_text()
        assert not list((root / "figures").glob("*tradeoff_scatter.csv"))

    def test_separate_output_directory(self, tmp_path):
        root = write_results_tree(tmp_path / "results")
        out = tmp_path / "rendered"
        path = emit_report(root, out)
        assert path == out / "report.md"
        assert (out / "figures" / "fig_sweep-b_accuracy.csv").is_file()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_report(tmp_path / "missing")

    def test_tree_without_results_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="aggregate.csv"):
            emit_report(tmp_path / "empty")
