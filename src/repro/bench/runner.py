"""Experiment runner: produces the rows/series behind each table and figure.

The same entry points back both the pytest-benchmark targets under
``benchmarks/`` and the standalone harness (``python -m repro.bench.run_all``).

Measurement protocol (Sec. 6.2 "Incrementality"): provenance collection is
offline and excluded; *update time* is the time from receiving the removal
set to producing the updated parameter vector, for each of

    BaseL (retraining), PrIU, PrIU-opt, Closed-form (linear only), INFL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.api import IncrementalTrainer
from ..datasets.corruption import inject_dirty, random_subsets
from ..datasets.synthetic import Dataset
from ..eval.comparison import compare_updated_models
from ..eval.memory import MemoryReport, memory_report
from ..eval.timing import measure
from .configs import ExperimentConfig


@dataclass
class FittedWorkload:
    """A config + dataset + fitted trainer, ready for update measurements."""

    config: ExperimentConfig
    dataset: Dataset
    trainer: IncrementalTrainer
    dirty_indices: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.dataset.features.shape[0]

    def subset(self, deletion_rate: float, seed: int = 0) -> np.ndarray:
        """A random removal set of the requested rate."""
        rng = np.random.default_rng(seed)
        size = max(1, int(round(deletion_rate * self.n_samples)))
        return np.sort(rng.choice(self.n_samples, size=size, replace=False))


def prepare_workload(
    config: ExperimentConfig,
    dirty_rate: float | None = None,
    seed: int = 0,
) -> FittedWorkload:
    """Fit the initial model (offline phase) over clean or dirtied data.

    With ``dirty_rate`` the cleaning scenario is simulated: that fraction of
    the training samples is corrupted before training, and the corrupted ids
    become the canonical removal set.
    """
    dataset = config.load()
    features, labels = dataset.features, dataset.labels
    dirty_indices = None
    if dirty_rate is not None:
        dirty = inject_dirty(features, labels, dirty_rate, seed=seed)
        features, labels = dirty.features, dirty.labels
        dirty_indices = dirty.dirty_indices
    trainer = IncrementalTrainer(seed=seed, **config.trainer_kwargs())
    trainer.fit(features, labels)
    n_params = trainer.objective.n_parameters(features.shape[1])
    if not dataset.is_sparse and n_params <= trainer.opt_feature_limit:
        trainer.prepare_baselines()
    elif config.task == "linear":
        trainer.prepare_baselines()
    return FittedWorkload(
        config=config,
        dataset=Dataset(
            dataset.name,
            features,
            labels,
            dataset.valid_features,
            dataset.valid_labels,
            dataset.task,
            dataset.n_classes,
        ),
        trainer=trainer,
        dirty_indices=dirty_indices,
    )


def available_methods(workload: FittedWorkload, include_infl: bool = True) -> list[str]:
    """Which update methods apply to this workload (mirrors Sec. 6.2)."""
    methods = ["basel", "priu"]
    if workload.trainer._opt is not None:
        methods.append("priu-opt")
    if workload.config.task == "linear":
        methods.append("closed-form")
    large = workload.trainer.objective.n_parameters(
        workload.dataset.n_features
    ) > workload.trainer.opt_feature_limit
    if include_infl and not (workload.dataset.is_sparse or large):
        methods.append("infl")
    return methods


def run_update(workload: FittedWorkload, method: str, removed: np.ndarray) -> np.ndarray:
    """Dispatch one update; returns the updated parameter vector."""
    trainer = workload.trainer
    if method == "basel":
        return trainer.retrain(removed).weights
    if method in ("priu", "priu-opt", "priu-seq"):
        return trainer.remove(removed, method=method).weights
    if method == "closed-form":
        return trainer.closed_form(removed).weights
    if method == "infl":
        return trainer.influence(removed).weights
    raise ValueError(f"unknown method: {method}")


def sweep_update_times(
    workload: FittedWorkload,
    deletion_rates,
    methods: list[str] | None = None,
    repeats: int = 1,
    seed: int = 0,
) -> list[dict]:
    """The update-time series of Figures 1-3: one row per (rate, method)."""
    if methods is None:
        methods = available_methods(workload)
    rows = []
    for rate in deletion_rates:
        removed = workload.subset(rate, seed=seed)
        times = {}
        for method in methods:
            timing = measure(lambda m=method: run_update(workload, m, removed), repeats)
            times[method] = timing.best
        basel = times.get("basel")
        for method in methods:
            rows.append(
                {
                    "experiment": workload.config.name,
                    "deletion_rate": rate,
                    "method": method,
                    "update_seconds": times[method],
                    "speedup_vs_basel": (
                        basel / times[method] if basel else float("nan")
                    ),
                }
            )
    return rows


def accuracy_rows(
    workload: FittedWorkload,
    removed: np.ndarray,
    methods: list[str] | None = None,
) -> list[dict]:
    """Table 4 rows: validation metric, distance and similarity vs BaseL."""
    if methods is None:
        methods = [m for m in available_methods(workload) if m != "basel"]
    reference = run_update(workload, "basel", removed)
    objective = workload.trainer.objective
    rows = []
    for method in methods:
        candidate = run_update(workload, method, removed)
        comparison = compare_updated_models(
            method,
            objective,
            reference,
            candidate,
            workload.dataset.valid_features,
            workload.dataset.valid_labels,
        )
        row = {"experiment": workload.config.name, **comparison.row()}
        rows.append(row)
    return rows


def repeated_deletion_rows(
    workload: FittedWorkload,
    n_subsets: int = 10,
    deletion_rate: float = 0.001,
    methods: list[str] | None = None,
    seed: int = 0,
) -> list[dict]:
    """Figure 4: total time to serve ``n_subsets`` independent removals."""
    if methods is None:
        methods = [m for m in available_methods(workload, include_infl=False)]
    subsets = random_subsets(workload.n_samples, n_subsets, deletion_rate, seed=seed)
    rows = []
    for method in methods:
        total = 0.0
        for subset in subsets:
            timing = measure(lambda: run_update(workload, method, subset), repeats=1)
            total += timing.best
        rows.append(
            {
                "experiment": workload.config.name,
                "method": method,
                "n_subsets": n_subsets,
                "deletion_rate": deletion_rate,
                "total_seconds": total,
            }
        )
    basel_total = next(
        (r["total_seconds"] for r in rows if r["method"] == "basel"), None
    )
    for row in rows:
        row["speedup_vs_basel"] = (
            basel_total / row["total_seconds"] if basel_total else float("nan")
        )
    return rows


def batched_deletion_rows(
    workload: FittedWorkload,
    n_subsets: int = 10,
    deletion_rate: float = 0.001,
    method: str = "priu",
    seed: int = 0,
    repeats: int = 5,
) -> list[dict]:
    """Concurrent unlearning requests: ``remove_many`` vs sequential paths.

    Serves the same ``n_subsets`` removal sets three ways — the uncompiled
    seed path one request at a time (``priu-seq``), the compiled ReplayPlan
    one request at a time, and all K requests through one batched
    ``remove_many`` call — and reports each path's wall-clock plus the max
    parameter deviation of the batched result from the sequential seed
    path (which must sit at numerical noise).

    The paths are timed in turn, ``repeats`` rounds of one call each, so
    a change in the machine's load reaches every row alike; each row
    reports its median round (``total_seconds``), and the speedups are
    ratios of those medians.
    """
    trainer = workload.trainer
    subsets = random_subsets(workload.n_samples, n_subsets, deletion_rate, seed=seed)
    # Only "priu" has a distinct uncompiled reference path; for other
    # methods the sequential baseline is the method itself, one-by-one.
    sequential_method = "priu-seq" if method == "priu" else method

    def run_sequential(m: str) -> list[np.ndarray]:
        return [trainer.remove(s, method=m).weights for s in subsets]

    sequential_label = f"{sequential_method} (sequential seed path)"
    batched_label = f"{method} (remove_many, batched)"
    paths = {sequential_label: lambda: run_sequential(sequential_method)}
    if sequential_method != method:
        paths[f"{method} (compiled plan, one-by-one)"] = (
            lambda: run_sequential(method)
        )
    paths[batched_label] = lambda: trainer.remove_many(subsets, method=method)
    samples: dict[str, list[float]] = {label: [] for label in paths}
    for _ in range(repeats):
        for label, run in paths.items():
            start = time.perf_counter()
            run()
            samples[label].append(time.perf_counter() - start)
    medians = {label: float(np.median(times)) for label, times in samples.items()}

    reference = run_sequential(sequential_method)
    batched = trainer.remove_many(subsets, method=method)
    deviation = max(
        float(np.max(np.abs(out.weights - ref))) if ref.size else 0.0
        for out, ref in zip(batched, reference)
    )
    return [
        {
            "experiment": workload.config.name,
            "method": label,
            "n_subsets": n_subsets,
            "deletion_rate": deletion_rate,
            "repeats": repeats,
            "total_seconds": medians[label],
            "speedup_vs_sequential": medians[sequential_label] / medians[label],
            # Only the batched row was checked against the sequential
            # reference; the other rows carry no measured deviation.
            "max_abs_deviation": deviation if label == batched_label else None,
        }
        for label in paths
    ]


def refresh_rows(
    workload: FittedWorkload,
    deletion_rate: float = 0.001,
    repeats: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Commit cost: incremental ``ReplayPlan.refresh`` vs a fresh compile.

    Both timed paths follow the same ``compact`` of a deep copy of the
    fitted store; they differ only in how the compiled plan catches up —
    re-pinning the compacted layout in place, which re-derives only a
    sparse plan's affected blocks and moments (``refresh``), versus
    compiling a new plan over the compacted store (``recompile``).  The
    two plans must then answer a fresh query identically (asserted by
    the benchmark at atol 1e-10).  The speedup is what catching the
    plan up in place saves per commit.
    """
    import copy

    from ..core.provenance_store import remap_surviving_ids
    from ..core.replay_plan import ReplayPlan

    trainer = workload.trainer
    features, labels = trainer.features, trainer.labels
    removed = workload.subset(deletion_rate, seed=seed)
    survivors = np.delete(np.arange(workload.n_samples), removed)
    probe_old = np.delete(survivors, slice(0, None, 2))[:8]
    probe = remap_surviving_ids(probe_old, removed)

    timings: dict[str, list[float]] = {"refresh": [], "recompile": []}
    compact_samples: list[float] = []
    # One untimed warm-up round: the first pass through freshly deep-copied
    # provenance pays page faults that a long-lived serving process never
    # sees; round -1's samples are discarded.
    for round_index in range(-1, repeats):
        # The refreshed plan compiles against the store copy before the
        # compaction; only the catch-up is timed per mode (the compact +
        # survivor slicing is shared and unavoidable — reported as its own
        # column).
        store = copy.deepcopy(trainer.store)
        plan = ReplayPlan(store, features, labels)
        start = time.perf_counter()
        stats = store.compact(removed, features, labels)
        reduced_features = features[survivors]
        reduced_labels = labels[survivors]
        compact_seconds = time.perf_counter() - start
        if round_index >= 0:
            compact_samples.append(compact_seconds)
        start = time.perf_counter()
        receipt = plan.refresh(stats, reduced_features, reduced_labels)
        refreshed = time.perf_counter()
        fresh = ReplayPlan(store, reduced_features, reduced_labels)
        compiled = time.perf_counter()
        if round_index >= 0:
            timings["refresh"].append(refreshed - start)
            timings["recompile"].append(compiled - refreshed)
    deviation = float(
        np.max(np.abs(plan.run_single(probe) - fresh.run_single(probe)))
    )
    best = {mode: min(samples) for mode, samples in timings.items()}
    rows = []
    for mode in ("refresh", "recompile"):
        rows.append(
            {
                "experiment": workload.config.name,
                "mode": mode,
                "deletion_rate": deletion_rate,
                "n_removed": int(removed.size),
                "fraction_iterations_touched": receipt["fraction"],
                "plan_sync_seconds": best[mode],
                "compact_seconds": min(compact_samples),
                "speedup_vs_recompile": best["recompile"] / best[mode],
                "max_abs_deviation": deviation if mode == "refresh" else None,
            }
        )
    return rows


def serving_rows(
    workload: FittedWorkload,
    n_requests: int = 16,
    deletion_rate: float = 0.001,
    method: str = "priu",
    seed: int = 0,
    repeats: int = 3,
    max_delay_seconds: float = 0.05,
) -> tuple[list[dict], dict]:
    """Queued single-request serving vs one ``remove_many`` call in hand.

    The acceptance bar for the serving layer: submitting ``n_requests``
    removal sets one at a time through a :class:`~repro.serving
    .DeletionServer` (which must coalesce them itself) should cost close to
    the one-shot batched call a caller with all K requests in hand would
    make.  The server is started *after* the queue is pre-loaded so the
    dispatch is a deterministic single batch and the measured gap is pure
    queueing overhead.  Returns ``(rows, stats)`` where ``stats`` is the
    last served run's :meth:`~repro.serving.ServingStats.as_dict`.
    """
    from ..serving import AdmissionPolicy, DeletionServer

    trainer = workload.trainer
    subsets = random_subsets(
        workload.n_samples, n_requests, deletion_rate, seed=seed
    )
    direct_timing = measure(
        lambda: trainer.remove_many(subsets, method=method), repeats
    )
    policy = AdmissionPolicy(
        max_batch=n_requests, max_delay_seconds=max_delay_seconds
    )
    last: dict = {}

    def serve_queued() -> None:
        server = DeletionServer(
            trainer, policy, method=method, autostart=False
        )
        futures = [server.submit(subset) for subset in subsets]
        server.start()
        server.flush()
        server.close()
        last["outcomes"] = [f.result() for f in futures]
        last["stats"] = server.stats()

    served_timing = measure(serve_queued, repeats)
    reference = trainer.remove_many(subsets, method=method)
    deviation = max(
        float(np.max(np.abs(out.weights - ref.weights)))
        for out, ref in zip(last["outcomes"], reference)
    )
    rows = [
        {
            "experiment": workload.config.name,
            "method": f"{method} (remove_many, all {n_requests} in hand)",
            "n_requests": n_requests,
            "total_seconds": direct_timing.best,
            "seconds_per_request": direct_timing.best / n_requests,
            "ratio_vs_remove_many": 1.0,
            "max_abs_deviation": None,
        },
        {
            "experiment": workload.config.name,
            "method": "DeletionServer (queued single submissions)",
            "n_requests": n_requests,
            "total_seconds": served_timing.best,
            "seconds_per_request": served_timing.best / n_requests,
            "ratio_vs_remove_many": served_timing.best / direct_timing.best,
            "max_abs_deviation": deviation,
        },
    ]
    return rows, last["stats"].as_dict()


def fleet_rows(
    workloads: list[FittedWorkload],
    n_bulk_per_model: int = 8,
    n_deadline: int = 6,
    deletion_rate: float = 0.001,
    method: str = "priu",
    seed: int = 0,
    max_delay_seconds: float = 0.25,
    n_workers: int = 2,
) -> tuple[list[dict], dict]:
    """N models × mixed-lane traffic through one :class:`FleetServer`.

    The SLA acceptance bar for the fleet: with a generous bulk coalescing
    budget (``max_delay_seconds``), bulk requests wait out their batching
    delay while ``deadline``-lane requests pre-empt it — so the
    deadline lane's p99 end-to-end latency must land *below* the bulk
    lane's p50.  Bulk traffic is spread across every model; deadline
    traffic targets the first (its queued bulk rides those batches for
    free — the remaining models prove the coalescing delay is real).
    Returns ``(rows, stats)`` where ``rows`` has one entry per lane and
    ``stats`` is the fleet-wide
    :meth:`~repro.serving.ServingStats.as_dict`.
    """
    from ..serving import AdmissionPolicy, FleetServer, ModelRegistry

    registry = ModelRegistry()
    model_ids = []
    for workload in workloads:
        registry.register(workload.config.name, trainer=workload.trainer)
        model_ids.append(workload.config.name)
    policy = AdmissionPolicy(
        max_batch=max(64, n_bulk_per_model + n_deadline),
        max_delay_seconds=max_delay_seconds,
    )
    by_model = {w.config.name: w for w in workloads}
    outcomes = []
    with FleetServer(
        registry, policy, method=method, n_workers=n_workers
    ) as fleet:
        futures = []
        # Deadline traffic first: it dispatches in small immediate batches
        # (lane delay 0), so its measured tail is queue-jump + service —
        # not the cost of hauling a coalesced bulk batch along.
        urgent_subsets = random_subsets(
            by_model[model_ids[0]].n_samples,
            n_deadline,
            deletion_rate,
            seed=seed + 1000,
        )
        futures.extend(
            (model_ids[0], subset, fleet.submit(model_ids[0], subset, lane="deadline"))
            for subset in urgent_subsets
        )
        for offset, model_id in enumerate(model_ids):
            subsets = random_subsets(
                by_model[model_id].n_samples,
                n_bulk_per_model,
                deletion_rate,
                seed=seed + offset,
            )
            futures.extend(
                (model_id, subset, fleet.submit(model_id, subset))
                for subset in subsets
            )
        outcomes = [
            (model_id, subset, future.result(timeout=120))
            for model_id, subset, future in futures
        ]
        stats = fleet.stats()
    # Numerics: fleet answers must match direct single-request serving.
    deviation = max(
        float(
            np.max(
                np.abs(
                    outcome.weights
                    - by_model[model_id].trainer.remove(
                        subset, method=method
                    ).weights
                )
            )
        )
        for model_id, subset, outcome in outcomes[:: max(1, len(outcomes) // 6)]
    )
    rows = []
    for lane_name in ("deadline", "bulk"):
        lane = stats.lane(lane_name)
        if lane.latency is None:
            continue
        rows.append(
            {
                "experiment": f"fleet[{len(model_ids)} models]",
                "method": f"FleetServer {lane_name} lane",
                "lane": lane_name,
                "n_requests": lane.answered,
                "wait_p50": lane.wait.p50,
                "wait_p99": lane.wait.p99,
                "latency_p50": lane.latency.p50,
                "latency_p99": lane.latency.p99,
                "max_abs_deviation": deviation,
            }
        )
    return rows, stats.as_dict()


def maintenance_rows(
    workload: FittedWorkload,
    n_commits: int = 200,
    removals_per_commit: int = 1,
    maintain_every: int = 20,
    sample_every: int = 10,
    seed: int = 0,
    svd_epsilon: float | None = None,
) -> tuple[list[dict], dict]:
    """Commit churn with and without plan maintenance (ISSUE 5).

    Runs the *same* ``n_commits``-commit deletion stream (seeded, so both
    modes remove identical samples) against two deep copies of the fitted
    trainer: one never maintained, one calling
    :meth:`~repro.core.api.IncrementalTrainer.maintain` every
    ``maintain_every`` commits.  Records the serving-resident footprint
    (store + compiled plan bytes) over the run, per-commit service
    latency percentiles, and the final maintenance cost — the
    unmaintained footprint grows monotonically (SVD correction columns)
    while the maintained one stays bounded.  The store's per-sample
    columns (``sample_column_bytes_*``) shrink with every commit in both
    modes: a commit drops the erased rows itself, so maintenance has
    nothing of theirs to reclaim.

    ``svd_epsilon`` selects the re-truncation criterion: ``None`` keeps
    the operator to machine precision (answers agree at atol 1e-10, but
    the numerical rank of an exactly-corrected ε-truncated summary
    legitimately grows toward the full dimension, so bytes only plateau
    there); the store's own ε applies the paper's Theorem-6 tail-ratio
    criterion — widths return to the fresh-compile regime (bytes flat)
    at an ``O(ε)`` answer perturbation whose worst per-summary relative
    bound is surfaced in ``svd_max_relative_error``.  Returns
    ``(rows, extras)`` where ``extras`` carries the byte series and the
    measured maintained-vs-unmaintained deviation.
    """
    import copy

    from ..core.maintenance import MaintenancePolicy
    from ..eval.timing import percentile
    from ..linalg.svd import TruncatedSummary

    policy = MaintenancePolicy(svd_epsilon=svd_epsilon)
    rows: list[dict] = []
    series: dict[str, dict] = {}
    finals: dict[str, object] = {}
    for mode in ("unmaintained", "maintained"):
        trainer = copy.deepcopy(workload.trainer)
        rng = np.random.default_rng(seed)
        latencies: list[float] = []
        commits_axis: list[int] = []
        bytes_series: list[int] = []
        maintain_seconds = 0.0
        maintain_runs = 0
        max_relative_error = 0.0
        committed = 0
        column_bytes_first = _column_bytes(trainer.store)

        def run_maintenance() -> None:
            nonlocal maintain_seconds, maintain_runs, max_relative_error
            start = time.perf_counter()
            report = trainer.maintain(policy)
            maintain_seconds += time.perf_counter() - start
            maintain_runs += 1
            if report.svd is not None:
                max_relative_error = max(
                    max_relative_error, report.svd["max_relative_error"]
                )

        for i in range(n_commits):
            if trainer.n_samples <= removals_per_commit + 1:
                break
            ids = np.sort(
                rng.choice(
                    trainer.n_samples, size=removals_per_commit, replace=False
                )
            )
            start = time.perf_counter()
            trainer.remove(ids, method="priu", commit=True)
            latencies.append(time.perf_counter() - start)
            committed += 1
            if mode == "maintained" and (i + 1) % maintain_every == 0:
                run_maintenance()
            if (i + 1) % sample_every == 0 or i == n_commits - 1:
                commits_axis.append(i + 1)
                bytes_series.append(
                    int(trainer.store.nbytes() + trainer.plan_nbytes())
                )
        if mode == "maintained":
            # Settle any garbage accumulated after the last scheduled run
            # so the final figures describe the steady maintained state.
            run_maintenance()
            bytes_series[-1] = int(
                trainer.store.nbytes() + trainer.plan_nbytes()
            )
        cost = trainer.maintenance_cost()
        widths = [
            record.summary.rank
            for record in trainer.store.records
            if isinstance(record.summary, TruncatedSummary)
        ]
        rows.append(
            {
                "experiment": workload.config.name,
                "mode": mode,
                "n_commits": committed,
                "removals_per_commit": removals_per_commit,
                "maintain_every": maintain_every if mode == "maintained" else None,
                "commit_p50_seconds": percentile(latencies, 0.50),
                "commit_p99_seconds": percentile(latencies, 0.99),
                "serving_bytes_first": bytes_series[0],
                "serving_bytes_final": bytes_series[-1],
                "serving_bytes_peak": max(bytes_series),
                "plan_bytes_final": trainer.plan_nbytes(),
                "svd_max_width": max(widths) if widths else 0,
                "svd_correction_columns": cost.svd_correction_columns,
                "svd_max_relative_error": max_relative_error,
                "sample_column_bytes_first": column_bytes_first,
                "sample_column_bytes_final": _column_bytes(trainer.store),
                "maintain_runs": maintain_runs,
                "maintain_seconds_total": maintain_seconds,
            }
        )
        series[mode] = {
            "commits": commits_axis,
            "serving_bytes": bytes_series,
        }
        finals[mode] = trainer
    maintained = finals["maintained"]
    unmaintained = finals["unmaintained"]
    probe = np.arange(min(8, maintained.n_samples - 1), dtype=np.int64)
    deviation = float(
        np.max(
            np.abs(
                maintained.remove(probe, method="priu").weights
                - unmaintained.remove(probe, method="priu").weights
            )
        )
    )
    return rows, {"series": series, "max_abs_deviation": deviation}


def _column_bytes(store) -> int:
    """Bytes of a store's per-sample columns."""
    return sum(int(values.nbytes) for values in store.columns().per_sample())


def memory_row(workload: FittedWorkload) -> MemoryReport:
    """Table 3 row for one configuration."""
    trainer = workload.trainer
    opt_bytes = None
    if trainer._opt is not None and hasattr(trainer._opt, "nbytes"):
        opt_bytes = trainer._opt.nbytes()
    elif trainer._opt is not None:
        opt_bytes = 0
    return memory_report(
        workload.config.name,
        workload.dataset.features,
        workload.dataset.labels,
        trainer.store,
        opt_state_bytes=opt_bytes,
        plan_bytes=trainer._plan.nbytes(),
    )


def dataset_summary_rows() -> list[dict]:
    """Table 1: characteristics of the dataset analogues."""
    from ..datasets import catalog

    rows = []
    for name in ("SGEMM", "Cov", "HIGGS", "RCV1", "Heartbeat", "cifar10"):
        data = catalog.load(name)
        rows.append(
            {
                "name": name,
                "# features": data.n_features,
                "# classes": data.n_classes if data.task != "linear" else "-",
                "# samples": data.n_samples + data.valid_features.shape[0],
                "task": data.task,
                "sparse": data.is_sparse,
            }
        )
    return rows
