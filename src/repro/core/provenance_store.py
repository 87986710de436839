"""The provenance store: PrIU's cached per-iteration summaries (Sec. 5).

During the original training run PrIU caches, for every iteration ``t``, the
numeric image of the provenance-annotated intermediates of Equations 8/10:

* linear regression — ``G^(t) = Σ_{i∈B(t)} x_i x_iᵀ`` and
  ``d^(t) = Σ_{i∈B(t)} x_i y_i``;
* binary logistic — ``C^(t) = Σ a_{i,(t)} x_i x_iᵀ`` and
  ``D^(t) = Σ b_{i,(t)} y_i x_i`` plus the per-sample interpolation
  coefficients themselves (needed to form ``ΔC^(t)``/``ΔD^(t)`` for an
  arbitrary removal set later);
* multinomial logistic — the frozen per-sample softmax state
  (probabilities ``p_i`` and logits-times-weights ``u_i = W^(t) x_i``)
  from which the removed samples' block contributions are reconstructed,
  plus the aggregated ``C^(t)``/``D^(t)``.

``m × m`` (or ``mq × mq``) summaries are optionally stored as truncated-SVD
factor pairs (:class:`~repro.linalg.svd.TruncatedSummary`) per Theorems 6/8.

The store also keeps an inverted *occurrence index* ``sample id → iterations
containing it`` so an update touching ``Δn`` samples enumerates only the
``O(Δn · τB/n)`` affected (iteration, sample) pairs instead of scanning every
batch.  The index is materialized as a :class:`PackedOccurrenceIndex` —
three flat, contiguous arrays sorted by sample id — so lookups are
``np.searchsorted`` range scans rather than Python dict walks;
:meth:`ProvenanceStore.removed_positions` groups a lookup by iteration.

Every per-sample array is held once, in :class:`SampleColumns`: one flat,
slot-indexed array per field (batch ids, binary slopes and intercepts,
multinomial probabilities and ``W x``), where slot ``offsets[t] + j`` is
position ``j`` of iteration ``t``'s batch.  The records' per-sample fields
are views of those columns, and a commit drops its rows from each column
once.  A compiled :class:`~repro.core.replay_plan.ReplayPlan` reads this
store as it stands: it gathers from the columns and reads each record's
summary and moment on every replay, and it pins the columns object, which
a commit replaces and a maintenance fold leaves alone.

No build captures a sparse multinomial store
(:func:`refuse_sparse_multinomial`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..linalg.svd import TruncatedSummary, retruncate_summary
from ..models.batching import BatchSchedule

Summary = Union[TruncatedSummary, np.ndarray, None]


def normalize_removed_indices(indices, assume_unique: bool = False) -> np.ndarray:
    """Canonicalize a removal set to a sorted, unique int64 array.

    Accepts ndarrays, sets, lists, tuples, ranges and generators without
    round-tripping arrays through Python lists.  ``assume_unique`` skips the
    dedup (the caller already ran it — e.g. the facade dedupes once before
    timing starts) but still guarantees the sorted contract.

    Non-integer dtypes are rejected (``astype(int64)`` would silently
    truncate 3.7 → 3), and the result never aliases caller-owned memory —
    the returned array is safe to keep (outcome records, deletion logs)
    and to read after the caller mutates their own copy.
    """
    if isinstance(indices, np.ndarray):
        if indices.size and indices.dtype.kind not in "iu":
            raise TypeError(
                "removal indices must have an integer dtype, got "
                f"{indices.dtype} (casting would silently truncate)"
            )
        arr = indices.ravel().astype(np.int64, copy=False)
        caller_owned = np.shares_memory(arr, indices)
    elif isinstance(indices, (set, frozenset)):
        arr = np.asarray(tuple(indices))
        if arr.size and arr.dtype.kind not in "iu":
            raise TypeError(
                "removal indices must be integers, got dtype "
                f"{arr.dtype} (casting would silently truncate)"
            )
        arr = arr.astype(np.int64, copy=False)
        arr.sort()  # set elements are already unique; sorting suffices
        return arr
    else:
        arr = np.asarray(tuple(indices))
        if arr.size and arr.dtype.kind not in "iu":
            raise TypeError(
                "removal indices must be integers, got dtype "
                f"{arr.dtype} (casting would silently truncate)"
            )
        arr = arr.astype(np.int64, copy=False)
        caller_owned = False
    if assume_unique:
        if arr.size > 1 and np.any(arr[1:] < arr[:-1]):
            return np.sort(arr)  # np.sort copies: never aliases the input
        return arr.copy() if caller_owned else arr
    return np.unique(arr)


def validate_removed_indices(removed: np.ndarray, n_samples: int) -> None:
    """Bounds-check a normalized removal set against ``n_samples`` ids.

    ``removed`` is sorted and unique (:func:`normalize_removed_indices`);
    an empty set always passes.
    """
    if not removed.size:
        return
    if removed[0] < 0 or removed[-1] >= n_samples:
        raise ValueError(
            f"removal ids must lie in [0, {n_samples}); "
            f"got range [{removed[0]}, {removed[-1]}]"
        )
    if removed.size >= n_samples:
        raise ValueError("cannot delete every training sample")


def refuse_sparse_multinomial(task: str, sparse: bool) -> None:
    """Raise ``NotImplementedError`` for a multinomial model over sparse
    features: capture, compiled plans and the reference updater all
    refuse it, so nothing downstream handles one."""
    if sparse and task == "multinomial_logistic":
        raise NotImplementedError(
            "sparse multinomial updates are not supported; "
            "densify or use the binary task"
        )


def remap_surviving_ids(ids: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Map pre-compaction sample ids onto the packed post-compaction space.

    ``removed`` must be sorted-unique and disjoint from ``ids``; each
    surviving id simply shifts down by the number of removed ids below it.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if removed.size == 0:
        return ids.copy()
    return ids - np.searchsorted(removed, ids, side="left")


def remap_through_deletion_log(
    ids: np.ndarray, deletion_log: np.ndarray | None, tag: int
) -> np.ndarray:
    """Translate sorted-unique ``ids`` from the id space a store had when
    its deletion log was ``tag`` entries long into its current space.

    The log holds committed removals as original ids in commit order
    (:attr:`ProvenanceStore.deletion_log`): its first ``tag`` entries fix
    the tagged space, the rest are the commits since.  Ids committed
    since drop out (those samples are gone, which is what the caller
    asked for) and survivors shift down past every later removal below
    them, so one call equals :func:`remap_surviving_ids` applied commit
    by commit.
    """
    if deletion_log is None or deletion_log.size <= tag:
        return ids
    earlier = np.sort(deletion_log[:tag])
    later = deletion_log[tag:]
    # The later removals in the tagged space (log entries are unique).
    later = np.sort(later - np.searchsorted(earlier, later))
    position = np.minimum(np.searchsorted(later, ids), later.size - 1)
    return remap_surviving_ids(ids[later[position] != ids], later)


@dataclass
class PackedOccurrenceIndex:
    """Flat structure-of-arrays occurrence table, sorted by sample id.

    Row ``j`` says: ``samples[j]`` sits at ``positions[j]`` inside the batch
    of iteration ``iterations[j]``.  Because ``samples`` is sorted (stably,
    so per-sample runs stay in iteration order), the occurrences of any
    sample are one ``np.searchsorted`` range — the whole lookup for a
    removal set is a handful of vectorized gathers instead of an
    ``O(Δn · τB/n)`` Python loop.
    """

    samples: np.ndarray  # (H,) sorted sample ids
    iterations: np.ndarray  # (H,) iteration of each occurrence
    positions: np.ndarray  # (H,) position inside that iteration's batch

    def __len__(self) -> int:
        return int(self.samples.size)

    def runs(self, removed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: rows ``lo[j]:hi[j]`` hold ``removed[j]``'s occurrences.

        ``removed`` must be sorted-unique, so the runs come out in row
        order; an id seen in no batch gets an empty run.
        """
        return (
            np.searchsorted(self.samples, removed, side="left"),
            np.searchsorted(self.samples, removed, side="right"),
        )

    def lookup(
        self, removed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All occurrences of ``removed``: ``(sample ids, iterations, positions)``.

        ``removed`` must be sorted-unique (see
        :func:`normalize_removed_indices`); ids never seen in any batch are
        silently skipped, matching the old dict ``get(..., ())`` behavior.
        """
        rows = _run_rows(*self.runs(np.asarray(removed, dtype=np.int64)))
        return self.samples[rows], self.iterations[rows], self.positions[rows]

    def lookup_sets(
        self, sets: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`lookup` of K sets in one search over their concatenation.

        Returns ``(sample ids, iterations, positions, owners)``, where
        ``owners[j]`` is the index of the set occurrence ``j`` came from.
        Each set must be sorted-unique; sets may overlap or repeat one
        another, and an occurrence shared by several sets appears once per
        set.  Rows come out set by set, each set's in :meth:`lookup`'s
        order.
        """
        if not sets:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        lo, hi = self.runs(np.concatenate(sets).astype(np.int64, copy=False))
        rows = _run_rows(lo, hi)
        sizes = [len(s) for s in sets]
        owners = np.repeat(np.repeat(np.arange(len(sets)), sizes), hi - lo)
        return (
            self.samples[rows],
            self.iterations[rows],
            self.positions[rows],
            owners,
        )

    def nbytes(self) -> int:
        return int(
            self.samples.nbytes + self.iterations.nbytes + self.positions.nbytes
        )


def _run_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The row numbers of the runs ``lo[j]:hi[j]``, concatenated."""
    counts = hi - lo
    # Row k of run j is lo[j] + (k − rows before run j).
    starts = lo - np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts, counts) + np.arange(int(counts.sum()))


def _drop_rows(arr: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """``np.delete(arr, dropped, axis=0)`` as contiguous-segment memcpy.

    ``dropped`` is sorted-unique and sparse relative to ``arr``; stitching
    the surviving segments with one ``np.concatenate`` is ~3× faster than
    the boolean-mask gather ``np.delete`` performs.  Consecutive dropped
    indices collapse into runs, so there is one slice per gap, not one
    per dropped row.  With nothing dropped, ``arr`` itself comes back.
    """
    if dropped.size == 0:
        return arr
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
        return arr[:0]
    return np.concatenate(pieces)


def _by_iteration(
    ids: np.ndarray, iterations: np.ndarray, positions: np.ndarray
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Group occurrences into ``{iteration: (sample ids, positions)}``."""
    if ids.size == 0:
        return {}
    order = np.argsort(iterations, kind="stable")
    iterations, ids, positions = iterations[order], ids[order], positions[order]
    boundaries = np.flatnonzero(np.diff(iterations)) + 1
    keys = iterations[np.concatenate(([0], boundaries))]
    return {
        int(t): (ids_group, pos_group)
        for t, ids_group, pos_group in zip(
            keys.tolist(),
            np.split(ids, boundaries),
            np.split(positions, boundaries),
        )
    }


def _drop_and_remap(
    index: PackedOccurrenceIndex,
    lo: np.ndarray,
    hi: np.ndarray,
    dropped_rows: np.ndarray,
    dropped_slots: np.ndarray,
    old_offsets: np.ndarray,
    new_offsets: np.ndarray,
) -> tuple[PackedOccurrenceIndex, np.ndarray]:
    """The occurrence index and the flat batch layout after a commit.

    ``lo``/``hi`` are the removed ids' runs (:meth:`PackedOccurrenceIndex.\
runs`), ``dropped_rows`` their rows and ``dropped_slots`` the sorted
    flat slots those rows held.  One vectorized pass over the
    index's ``H`` rows, with no per-batch loop and no table over the id
    range:

    * the index is sorted by id, so a kept row between the runs of
      removed ids ``j − 1`` and ``j`` has exactly ``j`` removed ids below
      it and moves down by ``j``;
    * its flat slot (``old_offsets[t] + position``) moves down past every
      dropped slot below it, a prefix count over the old slot space;
    * the new batches are the remapped ids scattered to their new slots
      (split at ``new_offsets``).

    Both shifts are step functions with one step per removed id or
    dropped slot, so each is one ``np.repeat``.  Dropping rows and
    shifting ids both preserve the index's order, so nothing is
    re-sorted.
    """
    size = len(index)
    keep = np.ones(size, dtype=bool)
    keep[dropped_rows] = False
    gaps = np.concatenate((lo, [size])) - np.concatenate(([0], hi))
    samples = index.samples[keep] - np.repeat(np.arange(gaps.size), gaps)
    iterations = index.iterations[keep]
    slots = old_offsets[iterations] + index.positions[keep]
    # A kept slot between dropped_slots[k-1] and dropped_slots[k] has k
    # dropped slots below it.
    steps = np.diff(np.concatenate(([0], dropped_slots, [size])))
    slots -= np.repeat(np.arange(steps.size), steps)[slots]
    batches = np.empty(size - dropped_rows.size, dtype=np.int64)
    batches[slots] = samples
    return (
        PackedOccurrenceIndex(
            samples=samples,
            iterations=iterations,
            positions=slots - new_offsets[iterations],
        ),
        batches,
    )


def _summary_nbytes(summary: Summary) -> int:
    if summary is None:
        return 0
    if isinstance(summary, TruncatedSummary):
        return summary.nbytes()
    return int(summary.nbytes)


def apply_summary(summary: Summary, vector: np.ndarray) -> np.ndarray:
    """``G w`` through whichever representation the summary uses."""
    if summary is None:
        raise ValueError("iteration has no cached summary to apply")
    if isinstance(summary, TruncatedSummary):
        return summary.apply(vector)
    return summary @ vector


def multinomial_moment_coefficients(
    probs: np.ndarray, wx: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-sample ``Λ_i u_i − p_i + e_{y_i}`` as an ``(n, q)`` array.

    Row ``i`` is sample ``i``'s coefficient in the multinomial moment
    ``D = Σ_i (Λ_i u_i − p_i + e_{y_i}) x_iᵀ`` (``Λ_i = diag(p_i) −
    p_i p_iᵀ``, ``u_i = W x_i`` at training time); it does not depend on
    the weights being replayed.  ``labels`` are integer class ids.
    """
    pu = np.einsum("ik,ik->i", probs, wx)
    coeff = probs * wx - probs * pu[:, None] - probs
    coeff[np.arange(len(labels)), labels] += 1.0
    return coeff


def multinomial_lambdas(probs: np.ndarray) -> np.ndarray:
    """Per-sample ``Λ_i = diag(p_i) − p_i p_iᵀ`` as an ``(n, q, q)`` array."""
    q = probs.shape[1]
    lam = -np.einsum("ik,il->ikl", probs, probs)
    lam[:, np.arange(q), np.arange(q)] += probs
    return lam


def multinomial_gram(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``Σ_i Λ_i ⊗ x_i x_iᵀ`` as a dense ``(qm × qm)`` matrix.

    ``Λ_i = diag(p_i) − p_i p_iᵀ`` splits the sum into ``q`` weighted
    grams on the block diagonal minus one gram of the Kronecker rows
    ``p_i ⊗ x_i``: BLAS matmuls, ``O(n q m² + n (qm)²)``, instead of a
    4-index einsum.  A multinomial summary caches ``C = −`` this sum.
    """
    n, q = probs.shape
    m = rows.shape[1]
    gram = np.zeros((q * m, q * m))
    for k in range(q):
        gram[k * m : (k + 1) * m, k * m : (k + 1) * m] = rows.T @ (
            rows * probs[:, k : k + 1]
        )
    kron_rows = (probs[:, :, None] * rows[:, None, :]).reshape(n, q * m)
    gram -= kron_rows.T @ kron_rows
    return gram


#: Each task's per-sample columns, as (column, record field) pairs.
COLUMN_FIELDS = {
    "linear": (("batches", "batch"),),
    "binary_logistic": (
        ("batches", "batch"),
        ("slopes", "slopes"),
        ("intercepts", "intercepts"),
    ),
    "multinomial_logistic": (
        ("batches", "batch"),
        ("probabilities", "probabilities"),
        ("wx", "wx"),
    ),
}


@dataclass
class SampleColumns:
    """Every record's per-sample state, one flat slot-indexed array per field.

    Slot ``offsets[t] + j`` holds position ``j`` of iteration ``t``'s
    batch: ``batches`` its sample id and, by task, its binary
    interpolation coefficients (``slopes``, ``intercepts``) or its
    multinomial softmax state (``probabilities`` and ``wx``, ``(H, q)``).
    A store's records hold views of these arrays, never copies.
    """

    offsets: np.ndarray  # (τ + 1,) from 0 to H
    batches: np.ndarray  # (H,) sample ids
    slopes: np.ndarray | None = None
    intercepts: np.ndarray | None = None
    probabilities: np.ndarray | None = None
    wx: np.ndarray | None = None

    def per_sample(self) -> list[np.ndarray]:
        """The per-sample columns this store's task holds."""
        return [
            values
            for values in (
                self.batches, self.slopes, self.intercepts,
                self.probabilities, self.wx,
            )
            if values is not None
        ]


@dataclass
class LinearRecord:
    """Per-iteration cache for linear regression (Eq. 13/14)."""

    batch: np.ndarray
    summary: Summary  # G^(t) or its SVD factors
    moment: np.ndarray  # d^(t)

    def nbytes(self) -> int:
        return int(
            self.batch.nbytes + _summary_nbytes(self.summary) + self.moment.nbytes
        )


@dataclass
class LogisticRecord:
    """Per-iteration cache for binary logistic regression (Eq. 19/20)."""

    batch: np.ndarray
    slopes: np.ndarray  # a_{i,(t)}, aligned with batch
    intercepts: np.ndarray  # b_{i,(t)}
    summary: Summary  # C^(t) or its SVD factors
    moment: np.ndarray  # D^(t)

    def nbytes(self) -> int:
        return int(
            self.batch.nbytes
            + self.slopes.nbytes
            + self.intercepts.nbytes
            + _summary_nbytes(self.summary)
            + self.moment.nbytes
        )


@dataclass
class MultinomialRecord:
    """Per-iteration cache for multinomial logistic regression.

    ``probabilities`` and ``wx`` (``u_i = W^(t) x_i``) are enough to rebuild
    any removed sample's contribution to ``C^(t)`` and ``D^(t)``:
    with ``Λ_i = diag(p_i) - p_i p_iᵀ``,

        ``ΔC^(t)(W) = Σ_{i∈R} Λ_i (W x_i) x_iᵀ``
        ``ΔD^(t)   = Σ_{i∈R} (Λ_i u_i - p_i + e_{y_i}) x_iᵀ``.
    """

    batch: np.ndarray
    probabilities: np.ndarray  # B × q
    wx: np.ndarray  # B × q : W^(t) x_i per batch sample
    summary: Summary  # C^(t) on the vec'd parameter space, or factors
    moment: np.ndarray  # D^(t) (q × m)

    def nbytes(self) -> int:
        return int(
            self.batch.nbytes
            + self.probabilities.nbytes
            + self.wx.nbytes
            + _summary_nbytes(self.summary)
            + self.moment.nbytes
        )


@dataclass
class FrozenProvenance:
    """PrIU-opt logistic: full-dataset frozen coefficients at ``t_s`` (Sec 5.4).

    For binary logistic: ``slopes``/``intercepts`` are the frozen
    ``a_{i,*}, b_{i,*}`` for *all* ``n`` samples, ``gram``/``moment`` the
    frozen ``C*``/``D*`` over the full dataset, and ``eigen`` the offline
    eigendecomposition of ``C*``.  For multinomial the per-sample state is
    ``probabilities``/``wx`` instead.

    Commits downdate ``gram``/``moment`` exactly but defer the ``O(m³)``
    re-eigendecomposition: ``eigen_stale`` flags the debt until the lazy
    refresh (:func:`~repro.core.priu_opt.refresh_frozen_eigen`)
    recomputes from the downdated gram.  The flag persists through
    checkpoints (store format v3), so a reloaded stale model refreshes on
    its first PrIU-opt query exactly like the in-process one.
    """

    t_s: int
    weights_at_ts_available: bool
    slopes: np.ndarray | None = None
    intercepts: np.ndarray | None = None
    probabilities: np.ndarray | None = None
    wx: np.ndarray | None = None
    gram: np.ndarray | None = None
    moment: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    eigen_stale: bool = False

    def nbytes(self) -> int:
        total = 0
        for arr in (
            self.slopes,
            self.intercepts,
            self.probabilities,
            self.wx,
            self.gram,
            self.moment,
            self.eigenvectors,
            self.eigenvalues,
        ):
            if arr is not None:
                total += int(arr.nbytes)
        return total


@dataclass
class CommitReceipt:
    """Audit evidence for one committed deletion batch (GDPR trail).

    ``removed_original_ids`` are the batch's sample ids in *original*
    capture-run space (the slice ``deletion_log[log_start:log_end]``);
    ``store_version_before`` pins the id space the batch executed in
    (historical evidence only — version counters restart when a
    checkpoint reloads, the receipt ``index`` is the stable ordinal).
    ``timestamp`` comes from whatever clock the committing trainer was
    given (:class:`~repro.core.api.IncrementalTrainer` ``clock=``; the
    serving layer injects its own, so fake-clock tests get deterministic
    receipts).  Receipts persist in checkpoints (store format v3).
    """

    index: int
    removed_original_ids: np.ndarray
    log_start: int
    log_end: int
    store_version_before: int
    n_samples_before: int
    n_samples_after: int
    timestamp: float

    @property
    def n_removed(self) -> int:
        return int(self.removed_original_ids.size)

    def as_dict(self) -> dict:
        """JSON-serializable form (audit exports, fleet describe)."""
        return {
            "index": self.index,
            "removed_original_ids": self.removed_original_ids.tolist(),
            "log_start": self.log_start,
            "log_end": self.log_end,
            "store_version_before": self.store_version_before,
            "n_samples_before": self.n_samples_before,
            "n_samples_after": self.n_samples_after,
            "timestamp": self.timestamp,
        }


@dataclass
class CompactionStats:
    """What one :meth:`ProvenanceStore.compact` call changed.

    Everything is expressed in the *pre*-compaction layout:
    ``dropped_slots`` are flat occurrence-slot indices (``offsets[t] +
    position``) into the old slot space, and ``affected_iterations`` are
    the iterations whose sparse blocks and moments a compiled
    :class:`~repro.core.replay_plan.ReplayPlan` re-derives
    (:meth:`~repro.core.replay_plan.ReplayPlan.refresh`).

    ``appended_columns`` counts the exact correction columns this commit
    appended to truncated-SVD summaries, and ``copied_factors`` the
    touched SVD records whose factors had to be copied into a new buffer
    instead of growing in place (see
    :meth:`~repro.linalg.svd.TruncatedSummary.widened`): every record
    on the first commit after a load or a re-truncation, and a record
    whose buffer is full.
    """

    removed: np.ndarray  # sorted-unique ids, pre-compaction space
    n_samples_before: int
    n_samples_after: int
    affected_iterations: np.ndarray  # sorted iterations that lost samples
    dropped_slots: np.ndarray  # sorted flat slot ids (old layout)
    dropped_occurrences: int
    appended_columns: int = 0
    copied_factors: int = 0

    @property
    def n_iterations_touched(self) -> int:
        return int(self.affected_iterations.size)


@dataclass
class ProvenanceStore:
    """Everything PrIU needs to replay an update without the nonlinearity."""

    task: str  # "linear" | "binary_logistic" | "multinomial_logistic"
    schedule: BatchSchedule
    learning_rate: float
    regularization: float
    n_samples: int
    n_features: int
    n_classes: int = 1
    records: list = field(default_factory=list)
    frozen: FrozenProvenance | None = None
    compression: str = "none"  # "none" | "svd"
    epsilon: float = 0.01
    sparse_mode: bool = False
    # Commit bookkeeping: ``n_original_samples`` is the sample count of the
    # capture run and ``deletion_log`` the cumulative committed removals in
    # *original* id space, in commit order.  Both stay None until the first
    # :meth:`compact`; checkpoints persist them so ``from_checkpoint`` can
    # slice the original training data down to the current survivors.
    n_original_samples: int | None = None
    deletion_log: np.ndarray | None = None
    # Audit receipts, one per compact() call, in commit order (v3).
    commit_receipts: list = field(default_factory=list)
    # Maintenance accounting: per-record count of exact correction columns
    # appended to truncated-SVD summaries by compact() and not yet
    # reclaimed by retruncate_summaries() — one per removed occurrence,
    # q − 1 on a multinomial store.  None until the first commit widens a
    # summary; persists through checkpoints (v3).
    svd_correction_columns: np.ndarray | None = None

    _packed: PackedOccurrenceIndex | None = None
    # Replaced by add() and compact(); compiled ReplayPlans pin the object
    # they were built against and refuse to run once it is replaced.
    _columns: SampleColumns | None = None
    # Bumped on every mutation, folds included: outcomes carry it (a
    # commit refuses an outcome from an earlier version) and the serving
    # registry saves a model whose version moved.
    _version: int = 0
    # Held by compact() and retruncate_summaries() while they mutate; a
    # reader that takes it sees a consistent (n_samples, deletion_log)
    # pair (see FleetServer.submit).
    _commit_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # Copies (copy.deepcopy, pickle) get a fresh lock of their own.
        state = dict(self.__dict__)
        del state["_commit_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._commit_lock = threading.Lock()
        if self._columns is not None:
            # A copy's records hold copies of the views: slice them again.
            self._bind_records()

    def add(self, record) -> None:
        self.records.append(record)
        # New records invalidate any previously built index and columns.
        self._packed = None
        self._columns = None
        self._version += 1

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------ sample columns
    def columns(self) -> SampleColumns:
        """The per-sample columns (built lazily, cached, shared).

        The first call after :meth:`add` concatenates the records'
        per-sample fields and makes every record's field, and the
        schedule's batches, a view of the result; a store loaded from a
        format-6 archive comes with its columns, and :meth:`compact`
        replaces them.
        """
        if self._columns is None:
            records = self.records
            sizes = np.fromiter(
                (len(r.batch) for r in records), dtype=np.int64, count=len(records)
            )
            arrays = {}
            for column, field_name in COLUMN_FIELDS[self.task]:
                parts = [getattr(r, field_name) for r in records]
                arrays[column] = np.concatenate(parts) if parts else np.empty(0)
            arrays["batches"] = arrays["batches"].astype(np.int64, copy=False)
            self._columns = SampleColumns(
                offsets=np.concatenate(([0], np.cumsum(sizes))), **arrays
            )
            self._bind_records()
            if len(self.schedule.batches) == len(records):
                # The records held the schedule's own batch arrays.
                self.schedule.batches = [r.batch for r in records]
        return self._columns

    def _bind_records(self) -> None:
        """Re-slice every record's per-sample fields from the columns."""
        columns = self._columns
        bounds = np.asarray(columns.offsets).tolist()
        for column, field_name in COLUMN_FIELDS[self.task]:
            values = getattr(columns, column)
            for t, record in enumerate(self.records):
                setattr(record, field_name, values[bounds[t] : bounds[t + 1]])

    # ------------------------------------------------------ occurrence index
    def packed_index(self) -> PackedOccurrenceIndex:
        """The flat sorted occurrence table (built lazily, cached, shared).

        Both :class:`~repro.core.priu.PrIUUpdater` and
        :class:`~repro.core.replay_plan.ReplayPlan` resolve removal sets
        through this one cached structure, so ``fit()`` never pays for the
        index twice.  It is built from the batch column.
        """
        if self._packed is None:
            columns = self.columns()
            offsets = np.asarray(columns.offsets, dtype=np.int64)
            sizes = np.diff(offsets)
            samples = columns.batches
            iterations = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
            positions = np.arange(samples.size, dtype=np.int64) - np.repeat(
                offsets[:-1], sizes
            )
            order = np.argsort(samples, kind="stable")
            self._packed = PackedOccurrenceIndex(
                samples=samples[order],
                iterations=iterations[order],
                positions=positions[order],
            )
        return self._packed

    def removed_positions(
        self, removed: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-iteration (sample ids, batch positions) of removed samples.

        One searchsorted range scan per removed sample plus a group-by on the
        iteration column — the ``O(Δn · τB/n)`` output is produced with no
        per-occurrence Python work.
        """
        removed = np.asarray(removed, dtype=np.int64).ravel()
        ids, ts, pos = self.packed_index().lookup(removed)
        return _by_iteration(ids, ts, pos)

    # ------------------------------------------------------------ compaction
    def survivor_original_ids(self) -> np.ndarray:
        """Original-space ids of the current samples, in current id order."""
        if self.n_original_samples is None or self.deletion_log is None:
            return np.arange(self.n_samples, dtype=np.int64)
        return np.delete(
            np.arange(self.n_original_samples, dtype=np.int64),
            np.unique(self.deletion_log),
        )

    def compact(
        self,
        removed,
        features,
        labels: np.ndarray,
        timestamp: float | None = None,
    ) -> CompactionStats:
        """Fold a committed deletion into the store itself.

        Unlike a replay — which answers the counterfactual and leaves the
        store describing the full capture run — ``compact`` makes the
        removal permanent: the samples' occurrence rows are dropped from
        every batch (per-sample interpolation state with them), their
        contributions are subtracted from the cached summaries and moments,
        and surviving ids are remapped onto the packed ``[0, n - Δn)``
        space.  The work follows what the erasure touches: the removed
        ids' occurrences come from ``Δ`` range lookups on the occurrence
        index, only the records they hit are patched, the batches and
        the index are remapped together in one vectorized pass over the
        index (:func:`_drop_and_remap`; no per-batch loop, no re-sort), and
        every other per-sample column loses the dropped slots in one
        segment copy (:func:`_drop_rows`).

        ``features``/``labels`` are the *pre*-compaction training data (the
        removed rows' features are needed to form the subtracted
        contributions).  Dense summaries are patched exactly; SVD summaries
        get exact correction columns appended (re-truncating would change
        replay answers by ``O(ε)``): one per removed occurrence, or
        ``q − 1`` for a multinomial store.  The columns are written into
        spare buffer capacity in place
        (:meth:`~repro.linalg.svd.TruncatedSummary.widened`), so a factor
        is copied only on its first commit after a load or re-truncation
        and when its buffer is full.  Sparse records carry no summaries.
        Frozen PrIU-opt state is compacted the same way, with the offline
        eigendecomposition flagged stale.

        Replaying the compacted store with removal set ``T`` is numerically
        identical (BLAS reduction-order noise only) to replaying the
        original store with ``committed ∪ T`` — the contract
        ``tests/core/test_commit.py`` property-tests.
        """
        removed = normalize_removed_indices(removed)
        n_before = self.n_samples
        if features.shape[0] != n_before or (
            np.asarray(labels).shape[0] != n_before
        ):
            raise ValueError(
                f"compact() needs the pre-compaction training data "
                f"({n_before} rows); got features with {features.shape[0]} "
                f"and labels with {np.asarray(labels).shape[0]} — slice to "
                "the survivors only *after* compacting"
            )
        validate_removed_indices(removed, n_before)

        with self._commit_lock:
            return self._compact_locked(
                removed, features, labels, n_before, timestamp
            )

    def _compact_locked(
        self,
        removed: np.ndarray,
        features,
        labels,
        n_before: int,
        timestamp: float | None,
    ) -> CompactionStats:
        index = self.packed_index()
        columns = self.columns()
        lo, hi = index.runs(removed)
        dropped_rows = _run_rows(lo, hi)
        hit_ids = index.samples[dropped_rows]
        hit_iterations = index.iterations[dropped_rows]
        hit_positions = index.positions[dropped_rows]
        old_offsets = np.asarray(columns.offsets, dtype=np.int64)
        dropped_slots = np.sort(old_offsets[hit_iterations] + hit_positions)
        affected, per_iter = np.unique(hit_iterations, return_counts=True)

        # ---- per-record state: patch summaries/moments
        appended_columns = copied_factors = 0
        for t, (ids, positions) in _by_iteration(
            hit_ids, hit_iterations, hit_positions
        ).items():
            appended, copied = self._compact_record(
                self.records[t], ids, positions, features, labels
            )
            if appended:
                # Maintenance accounting: exact correction columns widen
                # the SVD factors until retruncate_summaries() reclaims
                # them.
                if self.svd_correction_columns is None:
                    self.svd_correction_columns = np.zeros(
                        len(self.records), dtype=np.int64
                    )
                self.svd_correction_columns[t] += appended
                appended_columns += appended
                copied_factors += copied
        # ---- frozen PrIU-opt state
        if self.frozen is not None and removed.size:
            self._compact_frozen(removed, features, labels)

        # ---- the columns and the occurrence index: batch ids in one pass
        # over the index, every other column loses the dropped slots, and
        # every record's fields are re-sliced from the new columns.
        sizes = np.diff(old_offsets)
        sizes[affected] -= per_iter
        new_offsets = np.concatenate(([0], np.cumsum(sizes)))
        new_index, batches = _drop_and_remap(
            index, lo, hi, dropped_rows, dropped_slots, old_offsets, new_offsets
        )
        self._columns = SampleColumns(
            offsets=new_offsets,
            batches=batches,
            **{
                column: _drop_rows(getattr(columns, column), dropped_slots)
                for column, _ in COLUMN_FIELDS[self.task][1:]
            },
        )
        self._bind_records()

        # ---- bookkeeping: deletion log, receipts, schedule, sizes, version
        if self.n_original_samples is None:
            self.n_original_samples = n_before
        survivors = self.survivor_original_ids()
        removed_original = survivors[removed]
        log_start = 0 if self.deletion_log is None else int(
            self.deletion_log.size
        )
        self.deletion_log = (
            removed_original
            if self.deletion_log is None
            else np.concatenate([self.deletion_log, removed_original])
        )
        if timestamp is None:
            # Served commits never land here: IncrementalTrainer.remove
            # always passes timestamp=self._now(), which prefers the
            # injected serving Clock.  This fallback stamps direct
            # store-level compact() calls only.
            timestamp = time.time()  # reprolint: allow[R001] direct store-level compact() without a trainer; served commits always pass timestamp=
        self.commit_receipts.append(
            CommitReceipt(
                index=len(self.commit_receipts),
                removed_original_ids=removed_original.copy(),
                log_start=log_start,
                log_end=log_start + int(removed.size),
                store_version_before=self._version,
                n_samples_before=n_before,
                n_samples_after=n_before - int(removed.size),
                timestamp=float(timestamp),
            )
        )
        self.n_samples = n_before - int(removed.size)
        # The seeded schedule no longer regenerates the compacted batches;
        # materialize it from the records (checkpoints do the same).
        self.schedule = BatchSchedule(
            n_samples=self.n_samples,
            batch_size=self.schedule.batch_size,
            n_iterations=len(self.records),
            seed=self.schedule.seed,
            kind="materialized",
            batches=[record.batch for record in self.records],
        )
        self._version += 1
        self._packed = new_index
        return CompactionStats(
            removed=removed,
            n_samples_before=n_before,
            n_samples_after=self.n_samples,
            affected_iterations=affected,
            dropped_slots=dropped_slots,
            dropped_occurrences=int(dropped_rows.size),
            appended_columns=appended_columns,
            copied_factors=copied_factors,
        )

    def _compact_record(
        self, record, ids: np.ndarray, positions: np.ndarray, features, labels
    ) -> tuple[int, bool]:
        """Subtract the contributions of ``positions`` from one record's
        summary and moment (its per-sample fields are columns, which
        :meth:`compact` drops the rows from).

        Returns the number of exact correction columns appended to a
        truncated-SVD summary (0 for dense/sparse records) — the
        maintenance accounting :meth:`retruncate_summaries` later
        reclaims — and whether its factors were copied into a new buffer.
        """
        summary = record.summary
        copied = False
        rows = None
        if summary is not None or (
            isinstance(record, LinearRecord) and record.moment.size
        ):
            rows = np.asarray(features[ids], dtype=float)
        if isinstance(record, LinearRecord):
            if rows is not None:
                record.summary, copied = self._shrunk_summary(
                    summary, rows, None
                )
                if record.moment.size:
                    record.moment = record.moment - rows.T @ labels[ids].astype(
                        float
                    )
        elif isinstance(record, LogisticRecord):
            slopes_hit = record.slopes[positions]
            if summary is not None:
                record.summary, copied = self._shrunk_summary(
                    summary, rows, slopes_hit
                )
            if record.moment.size:
                record.moment = record.moment - rows.T @ (
                    record.intercepts[positions] * labels[ids].astype(float)
                )
        elif isinstance(record, MultinomialRecord):
            probs_hit = record.probabilities[positions]
            coeff = multinomial_moment_coefficients(
                probs_hit, record.wx[positions], labels[ids].astype(int)
            )
            record.moment = record.moment - coeff.T @ rows
            if summary is not None:
                record.summary, copied = self._shrunk_multinomial_summary(
                    summary, probs_hit, rows
                )
        if isinstance(summary, TruncatedSummary):
            return record.summary.rank - summary.rank, copied
        return 0, False

    @staticmethod
    def _shrunk_summary(
        summary: Summary, rows: np.ndarray, slopes: np.ndarray | None
    ) -> tuple[Summary, bool]:
        """``G - Σ a_i x_i x_iᵀ`` in whichever representation ``G`` uses.

        Dense summaries are patched exactly.  Truncated-SVD summaries get
        the removed samples appended as exact rank-1 corrections
        (``V ⟵ [V | x_i]``, ``λ ⟵ [λ | −a_i]``, grown in place by
        :meth:`~repro.linalg.svd.TruncatedSummary.widened`) so the
        compacted operator equals the pre-compaction operator minus the
        exact deltas — the same arithmetic a replay of the uncompacted
        store performs.  Also returns whether SVD factors were copied
        into a new buffer.
        """
        if isinstance(summary, TruncatedSummary):
            weights = -np.ones(len(rows)) if slopes is None else -slopes
            return summary.widened(rows.T, weights)
        weighted = rows if slopes is None else rows * slopes[:, None]
        return summary - weighted.T @ rows, False

    @staticmethod
    def _shrunk_multinomial_summary(
        summary: Summary, probs: np.ndarray, rows: np.ndarray
    ) -> tuple[Summary, bool]:
        """``C + Σ_i Λ_i ⊗ x_i x_iᵀ`` (the summary caches ``-Σ Λ ⊗ xxᵀ``).

        Also returns whether SVD factors were copied into a new buffer
        (see :meth:`_shrunk_summary`).
        """
        if isinstance(summary, TruncatedSummary):
            n_hits, q = probs.shape
            m = rows.shape[1]
            # Λ_i = diag(p_i) − p_i p_iᵀ is PSD with Λ_i·1 = 0, so its rank
            # is at most q − 1: expand it into q − 1 weighted Kronecker
            # columns per removed sample, appended as exact corrections.
            # eigh sorts eigenvalues ascending; eigenpair 0 is the null
            # direction, whose |λ| ~ 1e-17 moves the operator by at most
            # |λ|·‖x_i‖².
            evals, evecs = np.linalg.eigh(multinomial_lambdas(probs))
            kron = np.einsum("hqk,hm->hkqm", evecs[:, :, 1:], rows).reshape(
                n_hits * (q - 1), q * m
            )
            return summary.widened(kron.T, evals[:, 1:].reshape(-1))
        return summary + multinomial_gram(probs, rows), False

    def _compact_frozen(self, removed: np.ndarray, features, labels) -> None:
        """Compact the PrIU-opt frozen full-dataset state (Sec. 5.4).

        The frozen gram/moment are downdated *exactly*; the offline
        eigendecomposition is **not** recomputed here — it is flagged
        stale (:attr:`FrozenProvenance.eigen_stale`) and the debt is
        discharged lazily by the first PrIU-opt update (or a
        :meth:`~repro.core.api.IncrementalTrainer.maintain` call), so a
        commit-heavy serving process that answers through the compiled
        plan never pays the ``O(m³)`` (or ``O((qm)³)``) factor.
        """
        frozen = self.frozen
        needs_rows = frozen.gram is not None
        rows = (
            np.asarray(features[removed], dtype=float) if needs_rows else None
        )
        if frozen.slopes is not None:  # binary logistic
            if frozen.gram is not None:
                slopes_r = frozen.slopes[removed]
                intercepts_r = frozen.intercepts[removed]
                y = labels[removed].astype(float)
                frozen.gram = frozen.gram - rows.T @ (rows * slopes_r[:, None])
                frozen.moment = frozen.moment - rows.T @ (intercepts_r * y)
            frozen.slopes = np.delete(frozen.slopes, removed)
            frozen.intercepts = np.delete(frozen.intercepts, removed)
        elif frozen.probabilities is not None:  # multinomial
            if frozen.gram is not None:
                probs_r = frozen.probabilities[removed]
                frozen.gram = frozen.gram + multinomial_gram(probs_r, rows)
                coeff = multinomial_moment_coefficients(
                    probs_r, frozen.wx[removed], labels[removed].astype(int)
                )
                frozen.moment = frozen.moment - (coeff.T @ rows).ravel()
            frozen.probabilities = np.delete(frozen.probabilities, removed, axis=0)
            frozen.wx = np.delete(frozen.wx, removed, axis=0)
        if frozen.gram is not None and frozen.eigenvectors is not None:
            frozen.eigen_stale = True

    # ----------------------------------------------------------- maintenance
    def svd_rank_bound(self) -> int:
        """``k · min(m, B)``: the most columns an exact fold can keep.

        A record's summary is a sum over one mini-batch, ``Σ a_i x_i
        x_iᵀ`` (or ``−Σ Λ_i ⊗ x_i x_iᵀ`` with ``Λ_i·1 = 0``), and commit
        corrections lie in the same span, so the operator's rank is at
        most ``min(m, B)``, or ``(q − 1)·min(m, B)`` on a multinomial
        store (Sec. 5.1/5.3).  ``B`` is the capture batch size, or the
        longest record batch if that is larger (a ``gd`` capture).
        """
        k = self.n_classes - 1 if self.task == "multinomial_logistic" else 1
        batch = max(
            self.schedule.batch_size,
            max((len(record.batch) for record in self.records), default=0),
        )
        return k * min(self.n_features, batch)

    def svd_excess_columns(self) -> np.ndarray:
        """Per record, the columns an exact fold reclaims at least.

        ``max(0, width − bound)`` (:meth:`svd_rank_bound`) for a summary
        commits widened, 0 for every other record: a fold cannot shrink
        an operator below its rank, so below the bound an
        answer-preserving pass frees nothing.  O(records).
        """
        columns = self.svd_correction_columns
        if columns is None:
            return np.zeros(len(self.records), dtype=np.int64)
        widths = np.fromiter(
            (
                record.summary.rank
                if isinstance(record.summary, TruncatedSummary)
                else 0
                for record in self.records
            ),
            dtype=np.int64,
            count=len(self.records),
        )
        excess = np.maximum(widths - self.svd_rank_bound(), 0)
        return np.where(columns > 0, excess, 0)

    def retruncate_summaries(self, epsilon: float | None = None) -> dict:
        """Reclaim the correction columns commits appended to SVD summaries.

        With ``epsilon=None`` (answer-preserving) only the records with
        excess (:meth:`svd_excess_columns`) — widened past the store's
        rank bound — are folded, since below it an exact fold reclaims
        nothing; the others keep their summaries and their
        :attr:`svd_correction_columns`, which a later fold needs to find
        the retained orthonormal block.  An explicit ε applies the
        paper's lossy criterion to every widened record, with the worst
        error bound surfaced in the receipt.  Each fold goes through
        :func:`~repro.linalg.svd.retruncate_summary`, which folds the
        appended columns into the retained orthonormal basis
        (``"incremental"``).  A pass that folds anything bumps the store
        version; a compiled plan reads the new summaries on its next
        replay, with nothing to re-bind.  The pass holds the store's
        commit lock so concurrent submit-time readers always see a
        consistent store, and swaps summaries in only once every fold has
        succeeded.  It must not overlap a replay of the same store, which
        would read old and new summaries alike; the serving fleet runs
        one job per model at a time.

        Returns a receipt dict: ``summaries`` (how many re-truncated),
        ``below_bound`` (widened records left unfolded),
        ``columns_before``/``columns_after`` (total factor widths of the
        touched summaries), ``max_error_bound`` / ``max_relative_error``
        (exact-vs-retruncated 2-norm distance, absolute and relative to
        |λ₁|), ``max_rank_after``, and ``incremental_updates`` /
        ``full_updates`` (which path each record took).
        """
        with self._commit_lock:
            columns = self.svd_correction_columns
            widened = [] if columns is None else [
                int(t)
                for t in np.flatnonzero(columns > 0)
                if isinstance(self.records[t].summary, TruncatedSummary)
            ]
            if epsilon is None:
                excess = self.svd_excess_columns()
                touched = [t for t in widened if excess[t] > 0]
            else:
                touched = widened
            results = [
                retruncate_summary(
                    self.records[t].summary,
                    epsilon=epsilon,
                    appended=int(columns[t]),
                )
                for t in touched
            ]
            if touched:
                for t, result in zip(touched, results):
                    self.records[t].summary = result.summary
                columns[touched] = 0
                self._version += 1
        methods = [result.method for result in results]
        return {
            "summaries": len(touched),
            "below_bound": len(widened) - len(touched),
            "columns_before": sum(r.rank_before for r in results),
            "columns_after": sum(r.rank_after for r in results),
            "max_error_bound": max((r.error_bound for r in results), default=0.0),
            "max_relative_error": max(
                (r.error_bound_relative for r in results), default=0.0
            ),
            "max_rank_after": max((r.rank_after for r in results), default=0),
            "incremental_updates": methods.count("incremental"),
            "full_updates": methods.count("qr"),
        }

    # -------------------------------------------------------------- memory
    def nbytes(self) -> int:
        """Provenance memory footprint (Table 3's PrIU/PrIU-opt columns)."""
        total = sum(record.nbytes() for record in self.records)
        if self.frozen is not None:
            total += self.frozen.nbytes()
        return int(total)

    def gigabytes(self) -> float:
        return self.nbytes() / 1e9
