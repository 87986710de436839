"""Compiled replay plans: PrIU's batched multi-request update engine.

The provenance store is optimized for *capture* (one record per iteration);
serving heavy deletion traffic wants the transpose.  A :class:`ReplayPlan`
compiles the store once — offline, next to the rest of the provenance
phase — into contiguous structure-of-arrays state:

* the occurrence index packed into three flat sorted arrays
  (:class:`~repro.core.provenance_store.PackedOccurrenceIndex`), so a
  removal set resolves to its (iteration, position) hits via
  ``np.searchsorted`` instead of dict walks;
* per-iteration moments stacked into one ``(τ, m)`` (or ``(τ, q·m)``)
  matrix, per-sample interpolation state (slopes/intercepts, softmax
  probabilities, ``W x``) concatenated into flat slot-indexed arrays so the
  state of any hit is a single fancy-gather;
* summaries pre-extracted into homogeneous lists — dense matrices or
  pre-grouped SVD ``(P, V)`` factor pairs — so the hot loop never touches a
  record object or an ``isinstance`` check;
* sparse mode additionally pre-slices the per-iteration CSR batch blocks
  and precomputes their base moments ``X_tᵀ(b_t ∘ y_t)``, which the seed
  path recomputed on every request.

On top of that layout, :meth:`ReplayPlan.run` replays **K deletion sets
simultaneously**: the K weight vectors stack into an ``m × K`` matrix, so
the bulk term of every iteration (Eq. 13/14, 19/20) is a single GEMM
``G^(t) W`` instead of K sequential GEMVs, and only the sparse per-request
delta corrections ``ΔG/ΔC/Δd/ΔD`` — pre-grouped by (iteration, request) —
run per column.  At the paper's Fig-4 deletion rate (0.1%) most iterations
have no hits for a given request, so the per-iteration cost is one GEMM
plus a near-empty correction pass.

When batching wins: the replay loop is interpretation-bound (Python and
GEMV overhead per iteration) whenever ``m`` and the SVD ranks are modest,
which is exactly the PrIU regime; amortizing that overhead over K
concurrent requests approaches a K-fold speedup until the GEMM itself
dominates.  A single request (K = 1) through the plan costs the same
arithmetic as the seed path but resolves its hits through the packed index,
so it is never slower.
"""

from __future__ import annotations

import numpy as np

from ..linalg.matrix_utils import is_sparse
from . import kernels
from .provenance_store import (
    CompactionStats,
    PackedOccurrenceIndex,
    ProvenanceStore,
    normalize_removed_indices,
)


def _drop_rows(arr: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """``np.delete(arr, dropped, axis=0)`` as contiguous-segment memcpy.

    ``dropped`` is sorted-unique and sparse relative to ``arr``; stitching
    the surviving segments with one ``np.concatenate`` is ~3× faster than
    the boolean-mask gather ``np.delete`` performs, which is what keeps an
    incremental plan refresh cheap.
    """
    if dropped.size == 0:
        return np.asarray(arr)
    # Collapse consecutive dropped indices into runs so the number of
    # surviving slices is one per *gap*, not one per dropped row: the old
    # per-index comprehension paid a Python-level slice even for a dense
    # run of drops.
    run_breaks = np.flatnonzero(np.diff(dropped) > 1) + 1
    run_starts = dropped[np.concatenate(([0], run_breaks))]
    run_stops = dropped[np.concatenate((run_breaks - 1, [dropped.size - 1]))]
    keep_lo = np.concatenate(([0], run_stops + 1))
    keep_hi = np.concatenate((run_starts, [arr.shape[0]]))
    pieces = [
        arr[lo:hi]
        for lo, hi in zip(keep_lo.tolist(), keep_hi.tolist())
        if lo < hi
    ]
    if not pieces:  # every row dropped
        return np.asarray(arr)[:0]
    return np.concatenate(pieces)


class ReplayPlan:
    """One-time compilation of a :class:`ProvenanceStore` for fast replay.

    Parameters
    ----------
    store, features, labels, w0:
        Exactly what :class:`~repro.core.priu.PrIUUpdater` takes; the plan
        produces numerically matching updates (atol ≲ 1e-12 — only BLAS
        reduction order differs).
    cache_sparse_blocks:
        Sparse mode pre-slices the per-iteration CSR blocks (a time/memory
        trade: the seed path re-slices them on every request).  Disable to
        fall back to slicing inside the loop.
    kernel_block_size:
        Iterations fused per replay block (see :mod:`repro.core.kernels`).
        ``None`` resolves to :data:`~repro.core.kernels.DEFAULT_BLOCK_SIZE`
        for dense SVD-compressed plans (the only layout with a cached
        low-rank per-iteration operator); values ``<= 1`` disable fusion
        entirely — the plan is then bit-identical to the legacy
        per-iteration engine.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        features,
        labels: np.ndarray,
        w0: np.ndarray | None = None,
        cache_sparse_blocks: bool = True,
        kernel_block_size: int | None = None,
    ) -> None:
        self.store = store
        self.task = store.task
        self.sparse = is_sparse(features) or store.sparse_mode
        self.features = features if self.sparse else np.asarray(features, float)
        self.labels = np.asarray(labels)
        self.n_iterations = len(store.records)
        self.eta = float(store.learning_rate)
        self.lam = float(store.regularization)
        self.shrink = 1.0 - self.eta * self.lam
        if store.task == "multinomial_logistic":
            self.n_params = store.n_classes * store.n_features
        else:
            self.n_params = store.n_features
        self._w0 = (
            np.zeros(self.n_params) if w0 is None else np.asarray(w0, float)
        )
        self._compiled_version = store._version
        # Set by load_plan() when the archive embeds the fitted model's
        # final parameter vector; None for plans compiled in-process.
        self.final_weights: np.ndarray | None = None
        # Deferred checksum sweep over memory-mapped members (see
        # load_plan); runs once, on the first replay.
        self._integrity_check = None
        self.supported = not (self.sparse and self.task == "multinomial_logistic")
        self._kernel_block_size = kernel_block_size
        self._kernel = None
        self._kernel_stats = {
            "fused_blocks": 0,
            "fused_iterations": 0,
            "scalar_iterations": 0,
        }
        if not self.supported:
            return
        self._scale_num = 2.0 * self.eta if self.task == "linear" else self.eta
        self._compile(cache_sparse_blocks)

    # ------------------------------------------------------------ compile
    def _compile(self, cache_sparse_blocks: bool) -> None:
        records = self.store.records
        tau = self.n_iterations
        self.base_sizes = np.fromiter(
            (len(r.batch) for r in records), dtype=np.int64, count=tau
        )
        # Flat slot index: occurrence (t, pos) -> record_offsets[t] + pos.
        self._record_offsets = np.concatenate(
            ([0], np.cumsum(self.base_sizes))
        )
        self.store.packed_index()  # build (and share) the occurrence index

        if self.task == "multinomial_logistic":
            self._labels_num = self.labels.astype(int)
        else:
            self._labels_num = self.labels.astype(float)

        # Logical slot -> physical flat row.  None means identity; a
        # committed refresh of the multinomial flats installs a gather map
        # instead of rewriting the (H, q) state arrays (see refresh()).
        self._slot_map = None
        kind = self.store.compression
        self._kind = {"none": "dense"}.get(kind, kind)
        if self.sparse:
            self._compile_sparse(cache_sparse_blocks)
            return

        # Summaries as homogeneous lists (refs, no copies).
        if self._kind == "svd":
            self._lefts = [r.summary.left for r in records]
            self._rights = [r.summary.right for r in records]
            self._summaries = None
        else:
            self._summaries = [np.asarray(r.summary) for r in records]
            self._lefts = self._rights = None

        # Stacked moments: one row fetch per iteration in the hot loop.
        self.moments = np.stack(
            [np.asarray(r.moment, dtype=float).ravel() for r in records]
        )

        if self.task == "binary_logistic":
            self._compile_binary_flats(records)
        elif self.task == "multinomial_logistic":
            self._probs_flat = np.concatenate(
                [r.probabilities for r in records]
            )
            self._wx_flat = np.concatenate([r.wx for r in records])
        self._compile_kernel()

    def _resolved_block_size(self) -> int:
        if self._kernel_block_size is None:
            return kernels.DEFAULT_BLOCK_SIZE
        return int(self._kernel_block_size)

    def _compile_kernel(self) -> None:
        """Group the iteration axis into fused replay blocks (dense SVD).

        Only SVD-compressed dense plans carry a cached low-rank operator
        per iteration, which is what the block composition folds; dense
        ``m × m`` summaries and sparse CSR blocks stay on the scalar
        loops.  Splits at the PrIU-opt freeze point so the phase-1
        replay's ``stop_at = t_s`` never clips a block.
        """
        self._kernel = None
        if self.sparse or self._kind != "svd":
            return
        boundaries = ()
        frozen = self.store.frozen
        if frozen is not None:
            boundaries = (int(frozen.t_s),)
        self._kernel = kernels.compile_blocks(
            self._lefts,
            self._rights,
            self.moments,
            self.base_sizes,
            shrink=self.shrink,
            scale_num=self._scale_num,
            sigma=-1.0 if self.task == "linear" else 1.0,
            block_size=self._resolved_block_size(),
            boundaries=boundaries,
        )

    def _compile_sparse(self, cache_blocks: bool) -> None:
        """Sparse mode: pre-slice CSR batch blocks + precompute base moments.

        The seed path re-touches ``features[surviving]`` on every request
        (Sec. 5.3 keeps sparse data on Eq. 11); the plan instead computes the
        *full-batch* bulk term once per iteration and subtracts the removed
        rows' contributions, so the batch block and its moment
        ``X_tᵀ(b_t ∘ y_t)`` can be prepared offline.
        """
        records = self.store.records
        y = self._labels_num
        blocks = []
        moments = np.empty((self.n_iterations, self.n_params))
        for t, record in enumerate(records):
            block = self.features[record.batch]
            y_t = y[record.batch]
            if self.task == "linear":
                moments[t] = np.asarray(block.T @ y_t).ravel()
            else:
                moments[t] = np.asarray(
                    block.T @ (record.intercepts * y_t)
                ).ravel()
            blocks.append(block if cache_blocks else None)
        self.moments = moments
        self._blocks = blocks if cache_blocks else None
        if self.task == "binary_logistic":
            self._compile_binary_flats(records)

    def _compile_binary_flats(self, records) -> None:
        """Slot-indexed interpolation state shared by dense and sparse modes.

        The correction's moment term is ``rowsᵀ (b ∘ y)``, so the labels are
        pre-folded into the intercepts: slot ``j`` holds ``b_j · y_j``.
        """
        self._slopes_flat = np.concatenate([r.slopes for r in records])
        slot_samples = np.concatenate(
            [np.asarray(r.batch, dtype=np.int64) for r in records]
        )
        self._iy_flat = (
            np.concatenate([r.intercepts for r in records])
            * self._labels_num[slot_samples]
        )

    def _block(self, t: int):
        if self._blocks is not None:
            return self._blocks[t]
        return self.features[self.store.records[t].batch]

    # -------------------------------------------------------- persistence
    #
    # The compiled layout splits into (a) *derived* flat arrays that cost
    # real work to build — the packed occurrence index, stacked moments
    # (sparse mode's are τ sparse mat-vecs), the slot-indexed interpolation
    # flats — and (b) cheap *views* into the store / feature matrix
    # (summary refs, CSR batch slices).  Only (a) round-trips through
    # ``save_plan``/``load_plan``; (b) is rebound against the reloaded
    # store at load time.

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every compiled array :func:`~repro.core.serialization.save_plan`
        persists, keyed by its archive name.

        Round-trip tests compare these bit-for-bit (``np.array_equal`` plus
        dtype equality) between the original and a reloaded plan.
        """
        if not self.supported:
            return {}
        index = self.store.packed_index()
        arrays: dict[str, np.ndarray] = {
            "base_sizes": self.base_sizes,
            "record_offsets": self._record_offsets,
            "moments": self.moments,
            "w0": self._w0,
            "index_samples": index.samples,
            "index_iterations": index.iterations,
            "index_positions": index.positions,
        }
        for attr, key in (
            ("_slopes_flat", "slopes_flat"),
            ("_iy_flat", "iy_flat"),
            ("_probs_flat", "probs_flat"),
            ("_wx_flat", "wx_flat"),
        ):
            value = getattr(self, attr, None)
            if value is not None:
                if self._slot_map is not None:
                    # Materialize the committed layout: archives always
                    # store physically compacted flats, never the map.
                    value = value[self._slot_map]
                arrays[key] = value
        if self._kernel is not None:
            arrays.update(self._kernel.state_arrays())
        return arrays

    def state_meta(self) -> dict[str, str]:
        """Scalar descriptors saved alongside :meth:`state_arrays`."""
        return {
            "task": self.task,
            "kind": self._kind,
            "sparse": str(int(self.sparse)),
            "n_iterations": str(self.n_iterations),
            "n_params": str(self.n_params),
            "n_samples": str(self.store.n_samples),
            "learning_rate": repr(self.eta),
            "regularization": repr(self.lam),
            "kernel_block_size": str(self._resolved_block_size()),
        }

    @classmethod
    def from_compiled_state(
        cls,
        store: ProvenanceStore,
        features,
        labels: np.ndarray,
        meta: dict[str, str],
        arrays: dict[str, np.ndarray],
        cache_sparse_blocks: bool = True,
        kernel_block_size: int | None = None,
    ) -> "ReplayPlan":
        """Rebuild a plan from persisted state without recompiling.

        ``arrays`` may hold read-only memory maps — the replay loops only
        ever read them.  The store, features and labels must be the ones the
        plan was compiled against (same capture run); mismatches in task,
        iteration count, batch sizes or sample count raise ``ValueError``
        rather than silently replaying the wrong trajectory.

        Archived block descriptors (``kernel_*`` members) are rebound as
        zero-copy row-range views when the requested ``kernel_block_size``
        matches the one the archive was compiled with; otherwise — or for
        pre-kernel archives — the blocks are recompiled from the restored
        per-iteration state.
        """
        if meta["task"] != store.task:
            raise ValueError(
                f"plan was compiled for task {meta['task']!r}, "
                f"store holds {store.task!r}"
            )
        n_iterations = int(meta["n_iterations"])
        if n_iterations != len(store.records):
            raise ValueError(
                f"plan covers {n_iterations} iterations, "
                f"store holds {len(store.records)}"
            )
        if int(meta["n_samples"]) != store.n_samples:
            raise ValueError("plan and store disagree on the sample count")
        sparse = is_sparse(features) or store.sparse_mode
        if sparse != bool(int(meta["sparse"])):
            raise ValueError(
                "plan sparsity does not match the provided feature matrix"
            )
        store_kind = {"none": "dense"}.get(store.compression, store.compression)
        if meta["kind"] != store_kind:
            raise ValueError(
                f"plan was compiled for {meta['kind']!r} summaries, "
                f"store holds {store_kind!r}"
            )
        for field, value in (
            ("learning_rate", store.learning_rate),
            ("regularization", store.regularization),
        ):
            if float(meta[field]) != float(value):
                raise ValueError(
                    f"plan and store disagree on {field}: "
                    f"{meta[field]} vs {value!r}"
                )
        base_sizes = np.asarray(arrays["base_sizes"])
        record_sizes = np.fromiter(
            (len(r.batch) for r in store.records),
            dtype=np.int64,
            count=len(store.records),
        )
        if not np.array_equal(base_sizes, record_sizes):
            raise ValueError("plan batch sizes do not match the store")
        labels = np.asarray(labels)
        if labels.shape[0] != store.n_samples or (
            features.shape[0] != store.n_samples
        ):
            raise ValueError(
                "features/labels do not match the checkpointed training set"
            )

        plan = cls.__new__(cls)
        plan.store = store
        plan.task = store.task
        plan.sparse = sparse
        plan.features = features if sparse else np.asarray(features, float)
        plan.labels = labels
        plan.n_iterations = n_iterations
        plan.eta = float(store.learning_rate)
        plan.lam = float(store.regularization)
        plan.shrink = 1.0 - plan.eta * plan.lam
        plan.n_params = int(meta["n_params"])
        plan._compiled_version = store._version
        plan.final_weights = None
        plan._integrity_check = None
        plan.supported = True
        plan._scale_num = 2.0 * plan.eta if plan.task == "linear" else plan.eta
        plan._kind = meta["kind"]
        plan._slot_map = None
        plan._kernel_block_size = kernel_block_size
        plan._kernel = None
        plan._kernel_stats = {
            "fused_blocks": 0,
            "fused_iterations": 0,
            "scalar_iterations": 0,
        }

        plan.base_sizes = arrays["base_sizes"]
        plan._record_offsets = arrays["record_offsets"]
        plan.moments = arrays["moments"]
        plan._w0 = arrays["w0"]
        # Donate the saved occurrence index so the store never re-sorts it.
        if store._packed is None:
            store._packed = PackedOccurrenceIndex(
                samples=arrays["index_samples"],
                iterations=arrays["index_iterations"],
                positions=arrays["index_positions"],
            )
        if plan.task == "multinomial_logistic":
            plan._labels_num = labels.astype(int)
        else:
            plan._labels_num = labels.astype(float)

        if plan.task == "binary_logistic":
            plan._slopes_flat = arrays["slopes_flat"]
            plan._iy_flat = arrays["iy_flat"]
        elif plan.task == "multinomial_logistic":
            plan._probs_flat = arrays["probs_flat"]
            plan._wx_flat = arrays["wx_flat"]

        records = store.records
        if sparse:
            plan._blocks = (
                [plan.features[r.batch] for r in records]
                if cache_sparse_blocks
                else None
            )
        elif plan._kind == "svd":
            plan._lefts = [r.summary.left for r in records]
            plan._rights = [r.summary.right for r in records]
            plan._summaries = None
        else:
            plan._summaries = [np.asarray(r.summary) for r in records]
            plan._lefts = plan._rights = None
        if not sparse and plan._kind == "svd":
            archived = int(meta.get("kernel_block_size", "0"))
            requested = plan._resolved_block_size()
            if "kernel_starts" in arrays and archived == requested:
                plan._kernel = kernels.IterationBlocks.from_state_arrays(
                    arrays, block_size=requested
                )
            else:
                plan._compile_kernel()
        return plan

    # ------------------------------------------------------------- refresh
    def refresh(
        self, stats: CompactionStats, features, labels: np.ndarray
    ) -> dict:
        """Re-sync the compiled SoA state after :meth:`ProvenanceStore.compact`.

        ``stats`` is the receipt of the compaction this plan must catch up
        with, and ``features``/``labels`` are the *reduced* training data
        (the compacted id space).  The patch is incremental:

        * ``base_sizes`` / ``record_offsets`` shrink by the per-iteration
          drop counts;
        * the slot-indexed flats (slopes, folded intercepts, softmax state)
          lose exactly the dropped occurrence slots (one ``np.delete``);
        * stacked-moment rows and summary references are re-derived for the
          affected iterations only — dense/SVD summaries were already
          patched in place by ``compact``, sparse moments are recomputed
          from the reduced feature blocks;
        * the packed occurrence index was rebuilt by ``compact`` and is
          shared as-is;
        * fused kernel blocks spanning an affected iteration are dropped
          (their spans replay on the scalar loops) until maintenance
          regroups the schedule (:meth:`resync_summaries`).

        Every non-kernel state array then equals a fresh compile of the
        compacted store bit for bit.  Returns a receipt dict with ``mode``
        (``"refresh"`` | ``"unsupported"``), the touched-iteration
        fraction, and wall-clock-free bookkeeping the commit benchmark and
        the cost model record — ``patched_bytes`` uses the same accounting
        as :meth:`predict_patch_bytes` so the two are directly comparable.
        """
        self.labels = np.asarray(labels)
        self.features = (
            features if self.sparse else np.asarray(features, float)
        )
        self.final_weights = None
        if not self.supported:
            self._compiled_version = self.store._version
            return {
                "mode": "unsupported",
                "fraction": 0.0,
                "patched_bytes": 0,
                "dropped_slots": int(stats.dropped_slots.size),
                "touched_iterations": int(stats.n_iterations_touched),
            }
        fraction = (
            stats.n_iterations_touched / self.n_iterations
            if self.n_iterations
            else 0.0
        )
        records = self.store.records
        # Sizes/offsets: drop counts land on the affected iterations.
        base_sizes = np.array(self.base_sizes)  # writable (may be a mmap)
        base_sizes[stats.affected_iterations] -= stats.dropped_per_iteration
        self.base_sizes = base_sizes
        self._record_offsets = np.concatenate(([0], np.cumsum(base_sizes)))
        # Slot-indexed flats lose exactly the dropped occurrence slots.
        # Binary flats (two (H,) vectors, also sliced contiguously by the
        # sparse hot loop) are physically compacted; the multinomial
        # softmax state ((H, q) arrays, gather-only access) instead grows a
        # logical→physical slot map — dropping D of H rows then costs
        # O(H) int64 instead of O(H·q) float64.
        for attr in ("_slopes_flat", "_iy_flat"):
            flat = getattr(self, attr, None)
            if flat is not None:
                setattr(self, attr, _drop_rows(flat, stats.dropped_slots))
        if self.task == "multinomial_logistic" and stats.dropped_slots.size:
            if self._slot_map is None:
                old_total = int(stats.dropped_slots.size + base_sizes.sum())
                self._slot_map = _drop_rows(
                    np.arange(old_total, dtype=np.int64), stats.dropped_slots
                )
            else:
                self._slot_map = _drop_rows(
                    self._slot_map, stats.dropped_slots
                )
        if self.task == "multinomial_logistic":
            self._labels_num = self.labels.astype(int)
        else:
            self._labels_num = self.labels.astype(float)
        # Per-iteration state: only the affected rows are re-derived.
        if stats.n_iterations_touched:
            moments = np.array(self.moments)  # writable (may be a mmap)
            for t in stats.affected_iterations:
                record = records[t]
                if self.sparse:
                    block = self.features[record.batch]
                    y_t = self._labels_num[record.batch]
                    if self.task == "linear":
                        moments[t] = np.asarray(block.T @ y_t).ravel()
                    else:
                        moments[t] = np.asarray(
                            block.T @ (record.intercepts * y_t)
                        ).ravel()
                    if self._blocks is not None:
                        self._blocks[t] = block
                else:
                    moments[t] = np.asarray(
                        record.moment, dtype=float
                    ).ravel()
                    if self._kind == "svd":
                        self._lefts[t] = record.summary.left
                        self._rights[t] = record.summary.right
                    else:
                        self._summaries[t] = np.asarray(record.summary)
            self.moments = moments
        # Fused blocks fold the pre-commit summaries/moments/base sizes, so
        # every block a touched iteration lands in is stale: drop it.
        kernel_blocks_dropped = 0
        if self._kernel is not None:
            kernel_blocks_dropped = self._kernel.drop(
                stats.affected_iterations
            )
        self._compiled_version = self.store._version
        # Executed-patch byte accounting, mirrored by predict_patch_bytes.
        patched = int(self._record_offsets.nbytes)
        if stats.dropped_slots.size:
            for attr in ("_slopes_flat", "_iy_flat"):
                flat = getattr(self, attr, None)
                if flat is not None:
                    patched += int(flat.nbytes)
            if self.task == "multinomial_logistic":
                patched += int(self._slot_map.nbytes)
        patched += (
            int(stats.n_iterations_touched)
            * int(self.moments.shape[1])
            * int(self.moments.itemsize)
        )
        return {
            "mode": "refresh",
            "fraction": fraction,
            "patched_bytes": patched,
            "dropped_slots": int(stats.dropped_slots.size),
            "touched_iterations": int(stats.n_iterations_touched),
            # Observability only: dropping blocks discards derived kernel
            # state, not plan SoA arrays, so it stays outside the
            # predict_patch_bytes accounting contract.
            "kernel_blocks_dropped": kernel_blocks_dropped,
        }

    # -------------------------------------------------------- maintenance
    def slot_garbage_rows(self) -> tuple[int, int]:
        """``(garbage rows, physical rows)`` held by the multinomial flats.

        A committed refresh drops multinomial occurrence slots *logically*
        (through :attr:`_slot_map`) while the ``(H, q)`` softmax flats keep
        their physical size; the difference is reclaimable garbage that
        :meth:`repack` folds away.  Binary/linear flats are physically
        compacted on refresh and never carry garbage.
        """
        flats = getattr(self, "_probs_flat", None)
        if not self.supported or flats is None:
            return 0, 0
        physical = int(flats.shape[0])
        if self._slot_map is None:
            return 0, physical
        return physical - int(self._slot_map.size), physical

    def repack(self) -> dict:
        """Fold the logical→physical slot map into the multinomial flats.

        The gather rewrites ``probs``/``wx`` as contiguous live-row arrays
        and resets the map to identity (``None``), returning the plan to a
        freshly compiled footprint.  Values are *moved, never changed* —
        replay answers are bit-identical before and after — so re-packing
        is safe at any point between dispatches.  Returns a receipt with
        the rows and bytes reclaimed (all-zero when there was no map).
        """
        garbage, physical = self.slot_garbage_rows()
        if self._slot_map is None:
            return {"garbage_rows": 0, "physical_rows": physical,
                    "bytes_freed": 0}
        before = int(
            self._probs_flat.nbytes
            + self._wx_flat.nbytes
            + self._slot_map.nbytes
        )
        self._probs_flat = np.ascontiguousarray(
            self._probs_flat[self._slot_map]
        )
        self._wx_flat = np.ascontiguousarray(self._wx_flat[self._slot_map])
        self._slot_map = None
        after = int(self._probs_flat.nbytes + self._wx_flat.nbytes)
        return {
            "garbage_rows": garbage,
            "physical_rows": physical,
            "bytes_freed": before - after,
        }

    def resync_summaries(self, iterations=None) -> None:
        """Re-bind summary references after the store re-truncated them.

        :meth:`~repro.core.provenance_store.ProvenanceStore.\
retruncate_summaries` replaces record summaries (and bumps the store
        version); the compiled plan holds per-iteration references into
        those records, so the touched ones are re-fetched here and the
        plan's pinned version is advanced.  ``iterations=None`` re-binds
        every iteration.
        """
        if self.supported and not self.sparse and self._kind == "svd":
            records = self.store.records
            if iterations is None:
                iterations = range(self.n_iterations)
            for t in iterations:
                summary = records[t].summary
                self._lefts[t] = summary.left
                self._rights[t] = summary.right
            # Re-truncation changes ranks, so the block schedule is fully
            # regrouped — which also restores the blocks commits dropped:
            # the post-maintenance layout equals a fresh compile's.
            self._compile_kernel()
        self._compiled_version = self.store._version

    # ------------------------------------------------------------ queries
    def predict_patch_bytes(
        self, dropped_occurrences: int, touched_iterations: int
    ) -> int:
        """Bytes an incremental :meth:`refresh` of this shape would rewrite.

        The forward model behind :mod:`repro.core.costmodel`: given a
        removal predicted (from the packed occurrence index) to drop
        ``dropped_occurrences`` slots across ``touched_iterations``
        iterations, this mirrors the ``patched_bytes`` accounting the
        refresh receipt reports — rebuilt offsets, physically compacted
        binary flats, the rewritten multinomial slot map and the
        re-derived moment rows.  Keeping both sides on one formula means
        predicted-vs-actual comparisons measure the *estimate's* inputs
        (the searchsorted occurrence counts), never drift between two
        byte formulas.  Returns 0 for unsupported plans (nothing to
        patch — refresh is a metadata-only no-op there).
        """
        if not self.supported:
            return 0
        patched = int(self._record_offsets.nbytes)
        if dropped_occurrences > 0:
            rows_after = int(self._record_offsets[-1]) - int(
                dropped_occurrences
            )
            for attr in ("_slopes_flat", "_iy_flat"):
                flat = getattr(self, attr, None)
                if flat is not None:
                    patched += rows_after * int(flat.itemsize)
            if self.task == "multinomial_logistic":
                patched += rows_after * np.dtype(np.int64).itemsize
        patched += (
            int(touched_iterations)
            * int(self.moments.shape[1])
            * int(self.moments.itemsize)
        )
        return patched

    def nbytes(self) -> int:
        """Extra memory the compiled layout holds beyond the store itself."""
        if not self.supported:
            return 0
        total = int(self.moments.nbytes) + self.store.packed_index().nbytes()
        for name in (
            "_slopes_flat",
            "_iy_flat",
            "_probs_flat",
            "_wx_flat",
            "_slot_map",
        ):
            arr = getattr(self, name, None)
            if arr is not None:
                total += int(arr.nbytes)
        blocks = getattr(self, "_blocks", None)
        if blocks is not None:
            for block in blocks:
                for part in ("data", "indices", "indptr"):
                    arr = getattr(block, part, None)
                    if arr is not None:
                        total += int(arr.nbytes)
        return total

    def defer_integrity_check(self, check) -> None:
        """Register a one-shot integrity sweep to run before the first replay.

        ``load_plan`` uses this for memory-mapped members: their checksum
        verification would defeat the point of mapping if done at load
        time, so it is deferred to the first :meth:`run` — the moment the
        bytes are read anyway, and still strictly before any answer
        derived from them is produced.
        """
        self._integrity_check = check

    def verify_integrity(self) -> None:
        """Run the deferred sweep now (idempotent; no-op if none pending).

        Raises :class:`~repro.core.serialization.\
CheckpointCorruptionError` on a digest mismatch; the pending check is
        cleared only on success, so a failed plan keeps failing instead of
        accidentally serving after a first swallowed error.
        """
        check, self._integrity_check = self._integrity_check, None
        if check is None:
            return
        try:
            check()
        except BaseException:
            self._integrity_check = check
            raise

    def run_single(self, removed_indices, **kwargs) -> np.ndarray:
        """One removal set through the compiled plan (1-D result)."""
        return self.run([removed_indices], **kwargs)[:, 0]

    def run(
        self,
        removed_sets,
        stop_at: int | None = None,
        start_weights: np.ndarray | None = None,
        start_iteration: int = 0,
        assume_unique: bool = False,
    ) -> np.ndarray:
        """Replay K deletion sets simultaneously; returns ``(n_params, K)``.

        Column ``k`` equals ``PrIUUpdater.update(removed_sets[k])`` (same
        arithmetic, associativity-respecting order, so agreement is at BLAS
        reduction-order level).  ``stop_at``/``start_*`` support the
        PrIU-opt two-phase replay, batched.
        """
        if not self.supported:
            raise NotImplementedError(
                "sparse multinomial updates are not supported; "
                "densify or use the binary task"
            )
        if self.store._version != self._compiled_version:
            raise RuntimeError(
                "the provenance store changed after this plan was compiled; "
                "build a fresh ReplayPlan"
            )
        if self._integrity_check is not None:
            self.verify_integrity()
        sets = [
            normalize_removed_indices(s, assume_unique=assume_unique)
            for s in removed_sets
        ]
        n_requests = len(sets)
        if n_requests == 0:
            return np.zeros((self.n_params, 0))
        for removed in sets:
            if removed.size >= self.store.n_samples:
                raise ValueError("cannot delete every training sample")

        end = self.n_iterations if stop_at is None else int(stop_at)
        hits = self._gather_hits(sets, start_iteration, end)

        if start_weights is None:
            weights = np.repeat(self._w0[:, None], n_requests, axis=1)
        else:
            start = np.asarray(start_weights, dtype=float)
            if start.ndim == 1:
                weights = np.repeat(start[:, None], n_requests, axis=1)
            else:
                weights = start.copy()

        if n_requests == 1:
            # Dedicated 1-D path: a lone request pays GEMV + scalar-scale
            # arithmetic (exactly the seed updater's per-iteration profile,
            # minus its dict lookups), not the K-column broadcast machinery.
            runner = {
                "linear": self._run_linear_single,
                "binary_logistic": self._run_binary_single,
                "multinomial_logistic": self._run_multinomial_single,
            }[self.task]
            result, tally = kernels.run_blocked(
                self._kernel, weights[:, 0], hits, start_iteration, end,
                runner,
            )
            self._record_kernel_stats(tally)
            return result[:, None]
        runner = {
            "linear": self._run_linear,
            "binary_logistic": self._run_binary,
            "multinomial_logistic": self._run_multinomial,
        }[self.task]
        result, tally = kernels.run_blocked(
            self._kernel, weights, hits, start_iteration, end, runner
        )
        self._record_kernel_stats(tally)
        return result

    def _record_kernel_stats(self, tally: dict) -> None:
        for key, value in tally.items():
            self._kernel_stats[key] += value

    def kernel_stats(self) -> dict:
        """Cumulative fused-vs-scalar replay tallies (cost-model feed).

        ``fused_iterations`` / ``scalar_iterations`` count iteration
        advances per weight *matrix* (a K-column batch counts once), so
        the split directly measures how much of the replay work rode the
        blocked kernel.
        """
        stats = dict(self._kernel_stats)
        stats["blocks_compiled"] = (
            len(self._kernel) if self._kernel is not None else 0
        )
        stats["block_size"] = self._resolved_block_size()
        return stats

    def kernel_nbytes(self) -> int:
        """Memory held by the compiled block descriptors (0 when scalar).

        Deliberately *not* part of :meth:`nbytes`: descriptor width
        tracks the summaries' current factor widths, so including it
        would make plan-footprint comparisons depend on maintenance
        history rather than the compiled SoA layout.
        """
        return self._kernel.nbytes() if self._kernel is not None else 0

    # ------------------------------------------------------- hit gathering
    def _gather_hits(
        self, sets: list[np.ndarray], start: int, end: int
    ) -> dict:
        """Resolve every (iteration, request) delta correction up front.

        Produces hit arrays sorted by (iteration, request) plus segment
        bounds so the replay loop slices — never searches — its work, a
        ``(τ, K)`` matrix of per-request scale factors ``c·η/B_U^(t)``
        (zero rows encode the degenerate all-removed shrinkage step), and
        the pre-gathered per-hit feature rows / interpolation state.  Hits
        outside ``[start, end)`` are dropped before any gathering — the
        PrIU-opt phase-1 replay (``stop_at = t_s``) never pays for the
        ~30% of occurrences its tail skips.
        """
        index = self.store.packed_index()
        n_requests = len(sets)
        ks, ts, ids, pos = [], [], [], []
        for k, removed in enumerate(sets):
            s_ids, s_ts, s_pos = index.lookup(removed)
            ks.append(np.full(s_ids.size, k, dtype=np.int64))
            ts.append(s_ts)
            ids.append(s_ids)
            pos.append(s_pos)
        hit_k = np.concatenate(ks) if ks else np.empty(0, np.int64)
        hit_t = np.concatenate(ts) if ts else np.empty(0, np.int64)
        hit_ids = np.concatenate(ids) if ids else np.empty(0, np.int64)
        hit_pos = np.concatenate(pos) if pos else np.empty(0, np.int64)
        if start > 0 or end < self.n_iterations:
            keep = (hit_t >= start) & (hit_t < end)
            hit_k, hit_t = hit_k[keep], hit_t[keep]
            hit_ids, hit_pos = hit_ids[keep], hit_pos[keep]
        order = np.lexsort((hit_k, hit_t))
        hit_k, hit_t = hit_k[order], hit_t[order]
        hit_ids, hit_pos = hit_ids[order], hit_pos[order]

        tau = self.n_iterations
        counts = np.bincount(
            hit_t * n_requests + hit_k, minlength=tau * n_requests
        ).reshape(tau, n_requests)
        surviving = self.base_sizes[:, None] - counts
        scales = np.zeros((tau, n_requests))
        alive = surviving > 0
        scales[alive] = self._scale_num / surviving[alive]

        # Segments: one per (iteration, request) pair with hits.
        key = hit_t * n_requests + hit_k
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(key)) + 1)
        ) if key.size else np.empty(0, np.int64)
        seg_bounds = np.concatenate((seg_starts, [key.size]))
        seg_t = hit_t[seg_starts] if key.size else np.empty(0, np.int64)
        seg_k = hit_k[seg_starts] if key.size else np.empty(0, np.int64)
        seg_offsets = np.searchsorted(seg_t, np.arange(tau + 1))

        hits = {
            "scales": scales,
            "seg_bounds": seg_bounds,
            "seg_k": seg_k,
            "seg_offsets": seg_offsets,
            "hit_k": hit_k,
            "rows": self.features[hit_ids] if hit_ids.size else None,
        }
        slots = self._record_offsets[hit_t] + hit_pos
        if self.task == "linear":
            hits["y"] = self._labels_num[hit_ids]
        elif self.task == "binary_logistic":
            hits["slopes"] = self._slopes_flat[slots]
            hits["iy"] = self._iy_flat[slots]
        else:
            if self._slot_map is not None:
                slots = self._slot_map[slots]
            hits["probs"] = self._probs_flat[slots]
            hits["wx"] = self._wx_flat[slots]
            hits["y"] = self._labels_num[hit_ids]
        return hits

    # ------------------------------------------------------------ replays
    #
    # Each loop does one GEMM for the bulk term of all K columns, then a
    # single vectorized pass over the iteration's hits: per-hit scalars via
    # one einsum against the gathered weight columns, per-request sums via
    # ``np.add.reduceat`` over the pre-sorted (iteration, request) segments,
    # and one fancy-column scatter into ``adjust``.  No per-request Python
    # work survives in the dense hot loops; sparse mode keeps a per-segment
    # loop because its delta rows stay in CSR form.

    def _run_linear(self, weights, hits, start, end) -> np.ndarray:
        scales = hits["scales"]
        bounds, seg_k, offsets = (
            hits["seg_bounds"],
            hits["seg_k"],
            hits["seg_offsets"],
        )
        rows, y, hit_k = hits["rows"], hits.get("y"), hits["hit_k"]
        shrink = self.shrink
        moments = self.moments
        sparse = self.sparse
        summaries, lefts, rights = None, None, None
        if not sparse:
            if self._kind == "svd":
                lefts, rights = self._lefts, self._rights
            else:
                summaries = self._summaries
        # reprolint: allow[R006] sanctioned per-iteration fallback — kernels.run_blocked
        # fuses hit-free dense-SVD spans and delegates the rest here
        for t in range(start, end):
            if sparse:
                block = self._block(t)
                gram_w = block.T @ (block @ weights)
            elif summaries is not None:
                gram_w = summaries[t] @ weights
            else:
                gram_w = lefts[t] @ (rights[t].T @ weights)
            adjust = moments[t][:, None] - gram_w
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                if sparse:
                    for seg in range(s_lo, s_hi):
                        a, b = bounds[seg], bounds[seg + 1]
                        k = seg_k[seg]
                        r = rows[a:b]
                        delta = r.T @ (r @ weights[:, k] - y[a:b])
                        adjust[:, k] += np.asarray(delta).ravel()
                else:
                    a0, b0 = bounds[s_lo], bounds[s_hi]
                    r = rows[a0:b0]
                    v = (
                        np.einsum("hm,mh->h", r, weights[:, hit_k[a0:b0]])
                        - y[a0:b0]
                    )
                    seg_sums = np.add.reduceat(
                        r * v[:, None], bounds[s_lo:s_hi] - a0, axis=0
                    )
                    adjust[:, seg_k[s_lo:s_hi]] += seg_sums.T
            weights = shrink * weights + adjust * scales[t]
        return weights

    def _run_linear_single(self, w, hits, start, end) -> np.ndarray:
        scales = hits["scales"][:, 0]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows, y = hits["rows"], hits.get("y")
        shrink = self.shrink
        moments = self.moments
        sparse = self.sparse
        summaries = getattr(self, "_summaries", None)
        lefts = getattr(self, "_lefts", None)
        rights = getattr(self, "_rights", None)
        # reprolint: allow[R006] sanctioned per-iteration fallback — kernels.run_blocked
        # fuses hit-free dense-SVD spans and delegates the rest here
        for t in range(start, end):
            if sparse:
                block = self._block(t)
                gram_w = np.asarray(block.T @ (block @ w)).ravel()
            elif summaries is not None:
                gram_w = summaries[t] @ w
            else:
                gram_w = lefts[t] @ (rights[t].T @ w)
            adjust = moments[t] - gram_w
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                r = rows[a0:b0]
                adjust += np.asarray(r.T @ (r @ w - y[a0:b0])).ravel()
            w = shrink * w + adjust * scales[t]
        return w

    def _run_binary_single(self, w, hits, start, end) -> np.ndarray:
        scales = hits["scales"][:, 0]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows = hits["rows"]
        hit_slopes, hit_iy = hits.get("slopes"), hits.get("iy")
        shrink = self.shrink
        moments = self.moments
        sparse = self.sparse
        summaries = getattr(self, "_summaries", None)
        lefts = getattr(self, "_lefts", None)
        rights = getattr(self, "_rights", None)
        rec_off = self._record_offsets
        # reprolint: allow[R006] sanctioned per-iteration fallback — kernels.run_blocked
        # fuses hit-free dense-SVD spans and delegates the rest here
        for t in range(start, end):
            if sparse:
                block = self._block(t)
                slopes_t = self._slopes_flat[rec_off[t] : rec_off[t + 1]]
                gram_w = np.asarray(
                    block.T @ (slopes_t * np.asarray(block @ w).ravel())
                ).ravel()
            elif summaries is not None:
                gram_w = summaries[t] @ w
            else:
                gram_w = lefts[t] @ (rights[t].T @ w)
            adjust = gram_w + moments[t]
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                r = rows[a0:b0]
                z = np.asarray(r @ w).ravel()
                adjust -= np.asarray(
                    r.T @ (hit_slopes[a0:b0] * z + hit_iy[a0:b0])
                ).ravel()
            w = shrink * w + adjust * scales[t]
        return w

    def _run_multinomial_single(self, w, hits, start, end) -> np.ndarray:
        scales = hits["scales"][:, 0]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows, y = hits["rows"], hits.get("y")
        hit_probs, hit_wx = hits.get("probs"), hits.get("wx")
        shrink = self.shrink
        moments = self.moments
        q = self.store.n_classes
        m = self.store.n_features
        summaries = getattr(self, "_summaries", None)
        lefts = getattr(self, "_lefts", None)
        rights = getattr(self, "_rights", None)
        # reprolint: allow[R006] sanctioned per-iteration fallback — kernels.run_blocked
        # fuses hit-free dense-SVD spans and delegates the rest here
        for t in range(start, end):
            if summaries is not None:
                gram_w = summaries[t] @ w
            else:
                gram_w = lefts[t] @ (rights[t].T @ w)
            adjust = gram_w + moments[t]
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                n_hits = b0 - a0
                r = rows[a0:b0]
                probs = hit_probs[a0:b0]
                wx_train = hit_wx[a0:b0]
                current = r @ w.reshape(q, m).T
                pu = np.einsum("hq,hq->h", probs, current)
                lam_s = probs * current - probs * pu[:, None]
                pu2 = np.einsum("hq,hq->h", probs, wx_train)
                lam_u = probs * wx_train - probs * pu2[:, None]
                coeff = lam_u - probs
                coeff[np.arange(n_hits), y[a0:b0]] += 1.0
                adjust -= ((coeff - lam_s).T @ r).ravel()
            w = shrink * w + adjust * scales[t]
        return w

    def _run_binary(self, weights, hits, start, end) -> np.ndarray:
        scales = hits["scales"]
        bounds, seg_k, offsets = (
            hits["seg_bounds"],
            hits["seg_k"],
            hits["seg_offsets"],
        )
        rows, hit_k = hits["rows"], hits["hit_k"]
        hit_slopes, hit_iy = hits.get("slopes"), hits.get("iy")
        shrink = self.shrink
        moments = self.moments
        sparse = self.sparse
        summaries, lefts, rights = None, None, None
        if not sparse:
            if self._kind == "svd":
                lefts, rights = self._lefts, self._rights
            else:
                summaries = self._summaries
        rec_off = self._record_offsets
        # reprolint: allow[R006] sanctioned per-iteration fallback — kernels.run_blocked
        # fuses hit-free dense-SVD spans and delegates the rest here
        for t in range(start, end):
            if sparse:
                block = self._block(t)
                slopes_t = self._slopes_flat[rec_off[t] : rec_off[t + 1]]
                gram_w = block.T @ (slopes_t[:, None] * np.asarray(block @ weights))
            elif summaries is not None:
                gram_w = summaries[t] @ weights
            else:
                gram_w = lefts[t] @ (rights[t].T @ weights)
            adjust = gram_w + moments[t][:, None]
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                if sparse:
                    for seg in range(s_lo, s_hi):
                        a, b = bounds[seg], bounds[seg + 1]
                        k = seg_k[seg]
                        r = rows[a:b]
                        z = np.asarray(r @ weights[:, k]).ravel()
                        delta = r.T @ (hit_slopes[a:b] * z + hit_iy[a:b])
                        adjust[:, k] -= np.asarray(delta).ravel()
                else:
                    a0, b0 = bounds[s_lo], bounds[s_hi]
                    r = rows[a0:b0]
                    v = hit_slopes[a0:b0] * np.einsum(
                        "hm,mh->h", r, weights[:, hit_k[a0:b0]]
                    ) + hit_iy[a0:b0]
                    seg_sums = np.add.reduceat(
                        r * v[:, None], bounds[s_lo:s_hi] - a0, axis=0
                    )
                    adjust[:, seg_k[s_lo:s_hi]] -= seg_sums.T
            weights = shrink * weights + adjust * scales[t]
        return weights

    def _run_multinomial(self, weights, hits, start, end) -> np.ndarray:
        scales = hits["scales"]
        bounds, seg_k, offsets = (
            hits["seg_bounds"],
            hits["seg_k"],
            hits["seg_offsets"],
        )
        rows, y, hit_k = hits["rows"], hits.get("y"), hits["hit_k"]
        hit_probs, hit_wx = hits.get("probs"), hits.get("wx")
        shrink = self.shrink
        moments = self.moments
        q = self.store.n_classes
        m = self.store.n_features
        if self._kind == "svd":
            lefts, rights = self._lefts, self._rights
            summaries = None
        else:
            summaries = self._summaries
        # reprolint: allow[R006] sanctioned per-iteration fallback — kernels.run_blocked
        # fuses hit-free dense-SVD spans and delegates the rest here
        for t in range(start, end):
            if summaries is not None:
                gram_w = summaries[t] @ weights
            else:
                gram_w = lefts[t] @ (rights[t].T @ weights)
            adjust = gram_w + moments[t][:, None]
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                n_hits = b0 - a0
                r = rows[a0:b0]
                probs = hit_probs[a0:b0]
                wx_train = hit_wx[a0:b0]
                # ΔC^(t) applied to each hit's own weight column:
                # current_j = (W_kⱼ x_j) with W_kⱼ = column kⱼ as a q×m map.
                w_cols = weights[:, hit_k[a0:b0]].T.reshape(n_hits, q, m)
                current = np.einsum("hm,hqm->hq", r, w_cols)
                pu = np.einsum("hq,hq->h", probs, current)
                lam_s = probs * current - probs * pu[:, None]
                # ΔD^(t) from the cached training-time state.
                pu2 = np.einsum("hq,hq->h", probs, wx_train)
                lam_u = probs * wx_train - probs * pu2[:, None]
                coeff = lam_u - probs
                coeff[np.arange(n_hits), y[a0:b0]] += 1.0
                # adjust -= (ΔC w + ΔD) = ((coeff - (-lam_s))ᵀ x)… per hit:
                # -(lam_s ⊗ x) + (coeff ⊗ x) summed per request segment.
                contrib = (coeff - lam_s)[:, :, None] * r[:, None, :]
                seg_sums = np.add.reduceat(
                    contrib.reshape(n_hits, q * m),
                    bounds[s_lo:s_hi] - a0,
                    axis=0,
                )
                adjust[:, seg_k[s_lo:s_hi]] -= seg_sums.T
            weights = shrink * weights + adjust * scales[t]
        return weights


def compile_replay_plan(
    store: ProvenanceStore,
    features,
    labels: np.ndarray,
    w0: np.ndarray | None = None,
    **kwargs,
) -> ReplayPlan:
    """Functional alias for :class:`ReplayPlan` construction."""
    return ReplayPlan(store, features, labels, w0=w0, **kwargs)
