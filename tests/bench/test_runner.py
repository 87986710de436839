"""Unit tests for the benchmark runner (on miniature workloads)."""

import dataclasses

import numpy as np
import pytest

from repro.bench import (
    CONFIGS,
    accuracy_rows,
    available_methods,
    batched_deletion_rows,
    dataset_summary_rows,
    memory_row,
    prepare_workload,
    repeated_deletion_rows,
    run_update,
    sweep_update_times,
)


@pytest.fixture(scope="module")
def tiny_linear_workload():
    config = dataclasses.replace(
        CONFIGS["SGEMM (original)"], scale=0.01, n_iterations=40
    )
    return prepare_workload(config)


@pytest.fixture(scope="module")
def tiny_logistic_workload():
    config = dataclasses.replace(
        CONFIGS["HIGGS"], scale=0.002, n_iterations=40, batch_size=50
    )
    return prepare_workload(config)


class TestPrepareWorkload:
    def test_linear_methods(self, tiny_linear_workload):
        methods = available_methods(tiny_linear_workload)
        assert set(methods) == {"basel", "priu", "priu-opt", "closed-form", "infl"}

    def test_dirty_preparation(self):
        config = dataclasses.replace(
            CONFIGS["SGEMM (original)"], scale=0.01, n_iterations=20
        )
        workload = prepare_workload(config, dirty_rate=0.1)
        assert workload.dirty_indices is not None
        assert workload.dirty_indices.size == round(0.1 * workload.n_samples)

    def test_subset_rate(self, tiny_linear_workload):
        subset = tiny_linear_workload.subset(0.05, seed=3)
        assert subset.size == round(0.05 * tiny_linear_workload.n_samples)

    def test_run_update_dispatch(self, tiny_linear_workload):
        removed = tiny_linear_workload.subset(0.02)
        for method in available_methods(tiny_linear_workload):
            weights = run_update(tiny_linear_workload, method, removed)
            assert np.isfinite(weights).all()
        with pytest.raises(ValueError):
            run_update(tiny_linear_workload, "oracle", removed)


class TestSweeps:
    def test_sweep_rows_structure(self, tiny_logistic_workload):
        rows = sweep_update_times(
            tiny_logistic_workload, [0.01, 0.1], methods=["basel", "priu"]
        )
        assert len(rows) == 4
        basel_row = next(r for r in rows if r["method"] == "basel")
        assert basel_row["speedup_vs_basel"] == pytest.approx(1.0)
        priu_row = next(r for r in rows if r["method"] == "priu")
        assert priu_row["update_seconds"] > 0

    def test_accuracy_rows(self, tiny_logistic_workload):
        removed = tiny_logistic_workload.subset(0.1)
        rows = accuracy_rows(tiny_logistic_workload, removed)
        methods = {row["method"] for row in rows}
        assert "priu" in methods
        for row in rows:
            assert -1.0 <= row["similarity"] <= 1.0

    def test_repeated_deletions(self, tiny_logistic_workload):
        rows = repeated_deletion_rows(
            tiny_logistic_workload, n_subsets=3, deletion_rate=0.01,
            methods=["basel", "priu"],
        )
        assert len(rows) == 2
        assert all(row["n_subsets"] == 3 for row in rows)
        basel = next(r for r in rows if r["method"] == "basel")
        assert basel["speedup_vs_basel"] == pytest.approx(1.0)

    def test_batched_rows_alternate_and_report_medians(
        self, tiny_logistic_workload, monkeypatch
    ):
        """The Fig-4 paths are timed in turn, round after round, and
        each row reports its median round."""
        trainer = tiny_logistic_workload.trainer
        calls = []
        remove_many = trainer.remove_many

        def spy(sets, method=None, **kwargs):
            # A lone set is one request of a one-by-one path.
            call = method if len(sets) == 1 else "batched"
            if call == "batched" or not calls or calls[-1] != call:
                calls.append(call)
            return remove_many(sets, method=method, **kwargs)

        monkeypatch.setattr(trainer, "remove_many", spy)
        rows = batched_deletion_rows(
            tiny_logistic_workload, n_subsets=3, deletion_rate=0.01, repeats=3
        )
        # Three rounds of (sequential, one-by-one, batched), then the
        # untimed reference pass.
        assert calls[:9] == ["priu-seq", "priu", "batched"] * 3
        assert [row["repeats"] for row in rows] == [3, 3, 3]
        sequential = rows[0]
        assert sequential["speedup_vs_sequential"] == pytest.approx(1.0)
        assert rows[-1]["max_abs_deviation"] < 1e-10

    def test_memory_row(self, tiny_logistic_workload):
        report = memory_row(tiny_logistic_workload)
        assert report.priu > report.basel

    def test_dataset_summary(self):
        rows = dataset_summary_rows()
        names = {row["name"] for row in rows}
        assert names == {"SGEMM", "Cov", "HIGGS", "RCV1", "Heartbeat", "cifar10"}
