"""Compiled replay plans: PrIU's batched multi-request update engine.

The provenance store is optimized for *capture* (one record per iteration);
serving heavy deletion traffic wants the transpose.  A :class:`ReplayPlan`
compiles the store once — offline, next to the rest of the provenance
phase — into a layout whose every lookup is a gather:

* the occurrence index packed into three flat sorted arrays
  (:class:`~repro.core.provenance_store.PackedOccurrenceIndex`), so a
  removal set resolves to its (iteration, position) hits via
  ``np.searchsorted`` instead of dict walks;
* the per-sample interpolation state (slopes/intercepts, softmax
  probabilities, ``W x``) is the store's own flat slot-indexed columns
  (:class:`~repro.core.provenance_store.SampleColumns`), so the state of
  any hit is a single fancy-gather and the plan holds no copy of it;
* summaries and moments are read from the store's records on every
  iteration — dense matrices, or SVD bases ``V`` and their eigenvalues
  ``λ`` — so a maintenance fold that swaps a record's summary leaves the
  plan nothing to catch up with;
* sparse mode additionally pre-slices the per-iteration CSR batch blocks
  and precomputes their base moments ``X_tᵀ(b_t ∘ y_t)``, which the seed
  path recomputed on every request: the only state the plan derives.

On top of that layout, :meth:`ReplayPlan.run` replays **K deletion sets
simultaneously**: the K weight vectors stack into an ``m × K`` matrix, so
the bulk term of every iteration (Eq. 13/14, 19/20) is a single GEMM
``G^(t) W`` instead of K sequential GEMVs, and the per-hit delta
corrections ``ΔG/ΔC/Δd/ΔD`` of all K requests take two more small GEMMs
on iterations with hits: the hit rows against every weight column, and
their transpose against a matrix that places each hit's coefficients in
its own request's column.  At the paper's Fig-4 deletion rate (0.1%)
most iterations have no hits for a given request, so the per-iteration
cost is one GEMM plus a near-empty correction pass.

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
    multinomial_moment_coefficients,
    normalize_removed_indices,
    refuse_sparse_multinomial,
    validate_removed_indices,
)

#: The archive names of the packed occurrence index's three arrays.
_INDEX_ARRAYS = ("index_samples", "index_iterations", "index_positions")


def _n_params(store: ProvenanceStore) -> int:
    if store.task == "multinomial_logistic":
        return store.n_classes * store.n_features
    return store.n_features


def _summary_kind(store: ProvenanceStore) -> str:
    return {"none": "dense"}.get(store.compression, store.compression)


def _apply(summary, weights: np.ndarray, svd: bool) -> np.ndarray:
    """``G w`` for one record's summary: a dense matrix, or the SVD eigen
    form ``V (λ ∘ (Vᵀ w))``; ``weights`` is a vector or an ``(m, K)``
    block."""
    if not svd:
        return summary @ weights
    right, evals = summary.right, summary.weights
    if weights.ndim == 2:
        evals = evals[:, None]
    return right @ (evals * (right.T @ weights))


class ReplayPlan:
    """One-time compilation of a :class:`ProvenanceStore` for fast replay.

    Parameters
    ----------
    store, features, labels, w0:
        Exactly what :class:`~repro.core.priu.PrIUUpdater` takes; the plan
        produces numerically matching updates (atol ≲ 1e-12 — only BLAS
        reduction order differs).
    """

    def __init__(
        self,
        store: ProvenanceStore,
        features,
        labels: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> None:
        self._bind(store, features, labels, w0)
        store.packed_index()
        if self.sparse:
            self.moments = np.empty((self.n_iterations, self.n_params))
            self._sparse_moments(range(self.n_iterations))

    def _bind(self, store, features, labels, w0) -> None:
        """What a compiled and a loaded plan share: the store's scalars,
        the training data and the store layout (:meth:`_pin`).  Refuses a
        sparse multinomial store, which no build captures."""
        self.sparse = is_sparse(features) or store.sparse_mode
        refuse_sparse_multinomial(store.task, self.sparse)
        self.store = store
        self.task = store.task
        self.n_iterations = len(store.records)
        self.eta = float(store.learning_rate)
        self.lam = float(store.regularization)
        self.shrink = 1.0 - self.eta * self.lam
        self.n_params = _n_params(store)
        self._w0 = (
            np.zeros(self.n_params) if w0 is None else np.asarray(w0, float)
        )
        self._scale_num = 2.0 * self.eta if self.task == "linear" else self.eta
        self._kind = _summary_kind(store)
        # Set by load_plan() when the archive embeds the fitted model's
        # final parameter vector; None for plans compiled in-process.
        self.final_weights: np.ndarray | None = None
        # Deferred CRC check of memory-mapped members (see load_plan);
        # runs once, on the first replay.
        self._integrity_check = None
        if self.sparse:
            self._blocks = [None] * self.n_iterations
        self._pin(features, labels, range(self.n_iterations))

    # ------------------------------------------------------------ compile
    def _pin(self, features, labels, iterations) -> None:
        """Bind the training data and the store's current columns, and
        slice the CSR batch blocks of ``iterations`` on sparse mode.

        The columns object is the layout the plan replays: ``compact``
        and ``add`` replace it, and :meth:`run` refuses a store whose
        columns are no longer the pinned ones.  A maintenance fold only
        swaps summaries, which the runners read from the records, so it
        leaves the plan current.
        """
        self.features = features if self.sparse else np.asarray(features, float)
        self.labels = np.asarray(labels)
        if self.task == "multinomial_logistic":
            self._labels_num = self.labels.astype(int)
        else:
            self._labels_num = self.labels.astype(float)
        self._columns = self.store.columns()
        if self.sparse:
            records = self.store.records
            for t in iterations:
                self._blocks[t] = self.features[records[t].batch]

    def _sparse_moments(self, iterations) -> None:
        """Sparse mode's base moments ``X_tᵀ(b_t ∘ y_t)`` (linear:
        ``X_tᵀ y_t``) for ``iterations``, written into :attr:`moments`.

        The seed path re-touches ``features[surviving]`` on every request
        (Sec. 5.3 keeps sparse data on Eq. 11); the plan instead computes
        the *full-batch* bulk term once per iteration and subtracts the
        removed rows' contributions, so the batch block and its moment
        can be prepared offline.
        """
        records = self.store.records
        for t in iterations:
            block, y_t = self._blocks[t], self._labels_num[records[t].batch]
            if self.task == "linear":
                self.moments[t] = np.asarray(block.T @ y_t).ravel()
            else:
                self.moments[t] = np.asarray(
                    block.T @ (records[t].intercepts * y_t)
                ).ravel()

    # -------------------------------------------------------- persistence
    #
    # The plan derives two arrays that cost real work to build — the
    # packed occurrence index and sparse mode's moments (τ sparse
    # mat-vecs) — and round-trips only those through
    # ``save_plan``/``load_plan``.  Everything else it reads is the
    # reloaded store's (columns, summaries, moments) or sliced from the
    # feature matrix at load (CSR batch blocks).

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every compiled array :func:`~repro.core.serialization.save_plan`
        persists, keyed by its archive name.

        Round-trip tests compare these bit-for-bit (``np.array_equal`` plus
        dtype equality) between the original and a reloaded plan.
        """
        index = self.store.packed_index()
        arrays: dict[str, np.ndarray] = {
            "w0": self._w0,
            "index_samples": index.samples,
            "index_iterations": index.iterations,
            "index_positions": index.positions,
        }
        if self.sparse:
            arrays["moments"] = self.moments
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
        }

    @classmethod
    def from_compiled_state(
        cls,
        store: ProvenanceStore,
        features,
        labels: np.ndarray,
        meta: dict[str, str],
        arrays: dict[str, np.ndarray],
    ) -> "ReplayPlan":
        """Rebuild a plan from persisted state without recompiling.

        ``arrays`` may hold read-only memory maps — the replay loops only
        ever read them.  The store, features and labels must be the ones the
        plan was compiled against (same capture run); mismatches in task,
        iteration count, occurrence count, batch sizes or sample count, or
        a missing array raise ``ValueError`` rather than silently
        replaying the wrong trajectory, and a sparse multinomial store
        raises ``NotImplementedError`` as a compile does.

        Archives written by older builds also carry copies of the store's
        per-sample state (``*_flat``), stacked dense moments, batch sizes
        and record offsets, and some fused-block descriptors (``kernel_*``
        members and a matching meta entry); the loader still checks their
        CRCs, and this method checks the batch sizes against the store and
        ignores the rest.
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
        if meta["kind"] != _summary_kind(store):
            raise ValueError(
                f"plan was compiled for {meta['kind']!r} summaries, "
                f"store holds {_summary_kind(store)!r}"
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
        n_params = _n_params(store)
        if int(meta["n_params"]) != n_params:
            raise ValueError("plan and store disagree on the parameter count")
        offsets = store.columns().offsets
        expected = {name: (int(offsets[-1]),) for name in _INDEX_ARRAYS}
        expected["w0"] = (n_params,)
        if sparse:
            expected["moments"] = (n_iterations, n_params)
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise ValueError(f"plan state lacks {missing}")
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ValueError(
                    f"plan array {name!r} has shape {arrays[name].shape}, "
                    f"the store needs {shape}"
                )
            if name in _INDEX_ARRAYS and arrays[name].dtype.kind not in "iu":
                raise ValueError(f"plan array {name!r} does not hold integers")
        if "base_sizes" in arrays and not np.array_equal(
            arrays["base_sizes"], np.diff(offsets)
        ):
            raise ValueError("plan batch sizes do not match the store")
        labels = np.asarray(labels)
        if labels.shape[0] != store.n_samples or (
            features.shape[0] != store.n_samples
        ):
            raise ValueError(
                "features/labels do not match the checkpointed training set"
            )

        plan = cls.__new__(cls)
        plan._bind(store, features, labels, arrays["w0"])
        # Donate the saved occurrence index so the store never re-sorts it.
        if store._packed is None:
            store._packed = PackedOccurrenceIndex(
                *(arrays[name] for name in _INDEX_ARRAYS)
            )
        if sparse:
            plan.moments = arrays["moments"]
        return plan

    # ------------------------------------------------------------- refresh
    def refresh(
        self, stats: CompactionStats, features, labels: np.ndarray
    ) -> dict:
        """Catch up with :meth:`ProvenanceStore.compact`.

        ``stats`` is the receipt of the compaction this plan must catch up
        with, and ``features``/``labels`` are the *reduced* training data
        (the compacted id space).  ``compact`` already dropped the erased
        rows from the store's columns, patched the records' summaries and
        moments, which the runners read, and rebuilt the packed occurrence
        index, which the plan shares.  What is left is to pin the new
        columns and, on sparse mode, to re-slice the affected iterations'
        CSR blocks and recompute their base moments.

        Every state array then equals a fresh compile of the compacted
        store bit for bit.  Returns a receipt dict with ``mode``
        (``"refresh"``), the touched-iteration fraction, and
        wall-clock-free bookkeeping the commit benchmark and the cost
        model record — ``patched_bytes`` is the formula
        :meth:`predict_patch_bytes` evaluates, at the executed drop.
        """
        touched = stats.affected_iterations.tolist()
        self._pin(features, labels, touched)
        self.final_weights = None
        if self.sparse:
            # Writable (a loaded plan's moments may be a read-only map).
            self.moments = np.array(self.moments)
            self._sparse_moments(touched)
        dropped = int(stats.dropped_slots.size)
        return {
            "mode": "refresh",
            "fraction": (
                stats.n_iterations_touched / self.n_iterations
                if self.n_iterations
                else 0.0
            ),
            "patched_bytes": self._patch_bytes(
                int(self._columns.offsets[-1]) if dropped else 0, len(touched)
            ),
            "dropped_slots": dropped,
            "touched_iterations": int(stats.n_iterations_touched),
        }

    # ------------------------------------------------------------ queries
    def predict_patch_bytes(
        self, dropped_occurrences: int, touched_iterations: int
    ) -> int:
        """Bytes a commit of this shape rewrites in the layout the plan
        replays from.

        The forward model behind :mod:`repro.core.costmodel`: given a
        removal predicted (from the packed occurrence index) to drop
        ``dropped_occurrences`` slots across ``touched_iterations``
        iterations, it counts the store's rebuilt record offsets, its
        per-sample columns after the drop (``compact`` rewrites each
        once) and the touched iterations' moments.  The refresh receipt's
        ``patched_bytes`` evaluates the same formula at the executed
        drop, so predicted-vs-actual comparisons measure the *estimate's*
        inputs (the searchsorted occurrence counts), never drift between
        two byte formulas.
        """
        rows_after = int(self._columns.offsets[-1]) - int(
            dropped_occurrences
        )
        return self._patch_bytes(
            rows_after if dropped_occurrences > 0 else 0, touched_iterations
        )

    def _patch_bytes(self, rows: int, touched_iterations: int) -> int:
        """Offsets, ``rows`` slots of every per-sample column, and
        ``touched_iterations`` moment rows, in bytes."""
        slot_bytes = sum(
            values.itemsize * int(np.prod(values.shape[1:]))
            for values in self._columns.per_sample()
        )
        word = np.dtype(np.int64).itemsize
        return int(
            word * (self.n_iterations + 1)
            + rows * slot_bytes
            + touched_iterations * self.n_params * np.dtype(float).itemsize
        )

    def nbytes(self) -> int:
        """Extra memory the compiled layout holds beyond the store itself:
        the occurrence index and, on sparse mode, the base moments and
        CSR batch blocks."""
        total = self.store.packed_index().nbytes()
        if self.sparse:
            total += int(self.moments.nbytes)
            for block in self._blocks:
                for part in ("data", "indices", "indptr"):
                    arr = getattr(block, part, None)
                    if arr is not None:
                        total += int(arr.nbytes)
        return total

    def defer_integrity_check(self, check) -> None:
        """Register a one-shot integrity sweep to run before the first replay.

        ``load_plan`` uses this for memory-mapped members: checking
        their zip CRCs would defeat the point of mapping if done at load
        time, so it is deferred to the first :meth:`run` — the moment the
        bytes are read anyway, and still strictly before any answer
        derived from them is produced.
        """
        self._integrity_check = check

    def verify_integrity(self) -> None:
        """Run the deferred sweep now (idempotent; no-op if none pending).

        Raises :class:`~repro.core.serialization.\
CheckpointCorruptionError` on a CRC mismatch; the pending check is
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

        Column ``k`` equals ``PrIUUpdater.update(removed_sets[k])`` at
        BLAS reduction-order level: the same terms, but a batch sums each
        request's hit corrections through a placement GEMM (zeros for the
        other requests' hits) instead of one request at a time.  A lone
        set runs the 1-D runners, whose arithmetic does not depend on
        batching.  ``stop_at``/``start_*`` support the PrIU-opt two-phase
        replay, batched.
        """
        if self.store._columns is not self._columns:
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
            validate_removed_indices(removed, self.store.n_samples)

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
            result, _ = kernels.run_blocked(
                weights[:, 0], hits, start_iteration, end, runner
            )
            return result[:, None]
        runner = {
            "linear": self._run_linear,
            "binary_logistic": self._run_binary,
            "multinomial_logistic": self._run_multinomial,
        }[self.task]
        result, _ = kernels.run_blocked(
            weights, hits, start_iteration, end, runner
        )
        return result

    # ------------------------------------------------------- hit gathering
    def _gather_hits(
        self, sets: list[np.ndarray], start: int, end: int
    ) -> dict:
        """Resolve every (iteration, request) delta correction up front.

        One packed-index search over the K sets' concatenation yields the
        hits, each labelled by its request, sorted by iteration (request
        order within one) with per-iteration segment bounds, so the replay
        loop slices — never searches — its work.  Alongside them: a
        ``(τ, K)`` matrix of per-request scale factors ``c·η/B_U^(t)``
        (zero rows encode the degenerate all-removed shrinkage step), and
        the pre-gathered per-hit feature rows / interpolation state.  Hits
        outside ``[start, end)`` are dropped before any gathering — the
        PrIU-opt phase-1 replay (``stop_at = t_s``) never pays for the
        ~30% of occurrences its tail skips.

        The runners' weight-free terms come once per call, not once per
        iteration: on multinomial, ΔD's coefficients ``Λu − p + e_y``
        (``dcoef``, :func:`~repro.core.provenance_store.\
multinomial_moment_coefficients`); for K > 1, each hit's placement
        (``place``: its flat index in its iteration's ``(hits_t, K)``
        correction matrix, at its own row and request column; on
        multinomial, its q flat indices in a ``(q, hits_t, K)`` one).
        """
        index = self.store.packed_index()
        n_requests = len(sets)
        hit_ids, hit_t, hit_pos, hit_k = index.lookup_sets(sets)
        if start > 0 or end < self.n_iterations:
            keep = (hit_t >= start) & (hit_t < end)
            hit_k, hit_t = hit_k[keep], hit_t[keep]
            hit_ids, hit_pos = hit_ids[keep], hit_pos[keep]
        # Stable: within an iteration, hits stay in request order.
        order = np.argsort(hit_t, kind="stable")
        hit_k, hit_t = hit_k[order], hit_t[order]
        hit_ids, hit_pos = hit_ids[order], hit_pos[order]

        tau = self.n_iterations
        columns = self._columns
        counts = np.bincount(
            hit_t * n_requests + hit_k, minlength=tau * n_requests
        ).reshape(tau, n_requests)
        surviving = np.diff(columns.offsets)[:, None] - counts
        scales = np.zeros((tau, n_requests))
        alive = surviving > 0
        scales[alive] = self._scale_num / surviving[alive]

        # Segments: one per iteration with hits.
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(hit_t)) + 1)
        ) if hit_t.size else np.empty(0, np.int64)
        seg_bounds = np.concatenate((seg_starts, [hit_t.size]))
        seg_t = hit_t[seg_starts] if hit_t.size else np.empty(0, np.int64)
        seg_offsets = np.searchsorted(seg_t, np.arange(tau + 1))

        hits = {
            "scales": scales,
            "seg_bounds": seg_bounds,
            "seg_offsets": seg_offsets,
            "rows": self.features[hit_ids] if hit_ids.size else None,
        }
        slots = columns.offsets[hit_t] + hit_pos
        if self.task == "linear":
            hits["y"] = self._labels_num[hit_ids]
        elif self.task == "binary_logistic":
            hits["slopes"] = columns.slopes[slots]
            hits["iy"] = columns.intercepts[slots] * self._labels_num[hit_ids]
        else:
            hits["probs"] = columns.probabilities[slots]
            hits["dcoef"] = multinomial_moment_coefficients(
                hits["probs"], columns.wx[slots], self._labels_num[hit_ids]
            )
        if n_requests > 1:
            # Hit j is row j − (its iteration's first hit) of that
            # iteration's placement matrix, in request column hit_k[j].
            sizes = np.diff(seg_bounds)
            local = np.arange(hit_t.size) - np.repeat(seg_bounds[:-1], sizes)
            place = local * n_requests + hit_k
            if self.task == "multinomial_logistic":
                # One (hits_t, K) block per class.
                block = np.repeat(sizes, sizes) * n_requests
                place = place[:, None] + block[:, None] * np.arange(
                    self.store.n_classes
                )
            hits["place"] = place
        return hits

    # ------------------------------------------------------------ replays
    #
    # Each K-column loop does one GEMM for the bulk term of all K columns.
    # An iteration with hits then corrects every request with two small
    # GEMMs, whatever K: the hits' rows against all K weight columns, read
    # back at each hit's own request (``place``), and the rows' transpose
    # against a placement matrix that holds each hit's coefficients in its
    # request's column block — zero elsewhere, so each column sums exactly
    # its own request's hits.  The weight-free parts of those coefficients
    # (multinomial ΔD's ``dcoef``, binary ``iy``, linear ``y``) come once
    # per call from _gather_hits.  Sparse rows run the same two products in
    # CSR form; no per-request or per-hit Python work survives.  Both
    # products cost O(hits_t·m·K), K times a per-hit gather's arithmetic,
    # so they pay while an iteration meets few hits (sets of a few ids);
    # docs/architecture.md gives the measured limits.

    def _run_linear(self, weights, hits, start, end) -> np.ndarray:
        scales = hits["scales"]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows, y, place = hits["rows"], hits["y"], hits["place"]
        n_requests = weights.shape[1]
        shrink = self.shrink
        sparse, svd = self.sparse, self._kind == "svd"
        records = self.store.records
        for t in range(start, end):
            if sparse:
                block = self._blocks[t]
                gram_w = block.T @ (block @ weights)
                moment = self.moments[t]
            else:
                record = records[t]
                gram_w = _apply(record.summary, weights, svd)
                moment = record.moment
            adjust = moment[:, None] - gram_w
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                r = rows[a0:b0]
                at = place[a0:b0]
                coef = np.zeros((b0 - a0, n_requests))
                np.put(coef, at, np.take(r @ weights, at) - y[a0:b0])
                adjust += r.T @ coef
            weights = shrink * weights + adjust * scales[t]
        return weights

    def _run_linear_single(self, w, hits, start, end) -> np.ndarray:
        scales = hits["scales"][:, 0]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows, y = hits["rows"], hits.get("y")
        shrink = self.shrink
        sparse, svd = self.sparse, self._kind == "svd"
        records = self.store.records
        for t in range(start, end):
            if sparse:
                block = self._blocks[t]
                gram_w = np.asarray(block.T @ (block @ w)).ravel()
                moment = self.moments[t]
            else:
                record = records[t]
                gram_w = _apply(record.summary, w, svd)
                moment = record.moment
            adjust = moment - gram_w
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
        sparse, svd = self.sparse, self._kind == "svd"
        records = self.store.records
        slopes, rec_off = self._columns.slopes, self._columns.offsets
        for t in range(start, end):
            if sparse:
                block = self._blocks[t]
                slopes_t = slopes[rec_off[t] : rec_off[t + 1]]
                gram_w = np.asarray(
                    block.T @ (slopes_t * np.asarray(block @ w).ravel())
                ).ravel()
                moment = self.moments[t]
            else:
                record = records[t]
                gram_w = _apply(record.summary, w, svd)
                moment = record.moment
            adjust = gram_w + moment
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
        rows, hit_probs, dcoef = hits["rows"], hits["probs"], hits["dcoef"]
        shrink = self.shrink
        q = self.store.n_classes
        m = self.store.n_features
        svd = self._kind == "svd"
        records = self.store.records
        for t in range(start, end):
            record = records[t]
            adjust = _apply(record.summary, w, svd) + record.moment.reshape(-1)
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                r = rows[a0:b0]
                probs = hit_probs[a0:b0]
                current = r @ w.reshape(q, m).T
                pu = np.einsum("hq,hq->h", probs, current)
                lam_s = probs * current - probs * pu[:, None]
                adjust -= ((dcoef[a0:b0] - lam_s).T @ r).ravel()
            w = shrink * w + adjust * scales[t]
        return w

    def _run_binary(self, weights, hits, start, end) -> np.ndarray:
        scales = hits["scales"]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows, place = hits["rows"], hits["place"]
        hit_slopes, hit_iy = hits["slopes"], hits["iy"]
        n_requests = weights.shape[1]
        shrink = self.shrink
        sparse, svd = self.sparse, self._kind == "svd"
        records = self.store.records
        slopes, rec_off = self._columns.slopes, self._columns.offsets
        for t in range(start, end):
            if sparse:
                block = self._blocks[t]
                slopes_t = slopes[rec_off[t] : rec_off[t + 1]]
                gram_w = block.T @ (slopes_t[:, None] * np.asarray(block @ weights))
                moment = self.moments[t]
            else:
                record = records[t]
                gram_w = _apply(record.summary, weights, svd)
                moment = record.moment
            adjust = gram_w + moment[:, None]
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                r = rows[a0:b0]
                at = place[a0:b0]
                coef = np.zeros((b0 - a0, n_requests))
                np.put(
                    coef,
                    at,
                    hit_slopes[a0:b0] * np.take(r @ weights, at) + hit_iy[a0:b0],
                )
                adjust -= r.T @ coef
            weights = shrink * weights + adjust * scales[t]
        return weights

    def _run_multinomial(self, weights, hits, start, end) -> np.ndarray:
        scales = hits["scales"]
        bounds, offsets = hits["seg_bounds"], hits["seg_offsets"]
        rows, place, dcoef = hits["rows"], hits["place"], hits["dcoef"]
        hit_probs = hits["probs"]
        n_requests = weights.shape[1]
        shrink = self.shrink
        q = self.store.n_classes
        m = self.store.n_features
        svd = self._kind == "svd"
        records = self.store.records
        for t in range(start, end):
            record = records[t]
            adjust = (
                _apply(record.summary, weights, svd)
                + record.moment.reshape(-1)[:, None]
            )
            s_lo, s_hi = offsets[t], offsets[t + 1]
            if s_lo != s_hi:
                a0, b0 = bounds[s_lo], bounds[s_hi]
                r = rows[a0:b0]
                probs = hit_probs[a0:b0]
                at = place[a0:b0]
                # ΔC^(t) applied to each hit's own weight column: entry
                # (c, j, k) of the product is class c of hit j under
                # request k's weights, and hit j reads its own k.
                current = np.take(np.matmul(r, weights.reshape(q, m, -1)), at)
                pu = np.einsum("hq,hq->h", probs, current)
                lam_s = probs * current - probs * pu[:, None]
                # adjust -= ΔC w + ΔD: per hit (dcoef − lam_s) ⊗ x, summed
                # into its request's column, one class block at a time.
                coef = np.zeros((q, b0 - a0, n_requests))
                np.put(coef, at, dcoef[a0:b0] - lam_s)
                adjust -= np.matmul(r.T, coef).reshape(q * m, n_requests)
            weights = shrink * weights + adjust * scales[t]
        return weights
