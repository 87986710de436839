"""Truncated SVD of provenance summaries (Sec. 5.1/5.3, Theorems 6 and 8).

PrIU caches one ``m × m`` matrix per iteration (``Σ x_i x_iᵀ`` for linear
regression, ``Σ a_i x_i x_iᵀ`` for logistic).  Its rank is at most the
mini-batch size ``B``, so when ``B < m`` the summary compresses losslessly to
rank ``B`` — and lossily to rank ``r ≪ B`` while keeping

    ``‖U_{1..r} S_{1..r} V_{1..r}ᵀ‖₂ / ‖U S Vᵀ‖₂ ≥ 1 - ε``

(the paper's Theorem 6 criterion; because the truncated matrix keeps the top
singular value, the criterion is equivalently enforced here through the
*relative tail*: we keep the smallest ``r`` such that ``σ_{r+1} ≤ ε σ_1``,
which bounds the 2-norm reconstruction error by ``ε ‖A‖₂`` and hence the
parameter deviation by ``O(ε)``).

The summary is symmetric, so its eigenpairs give the SVD up to signs: a
:class:`TruncatedSummary` caches the basis ``V_{1..r}`` (``m × r``) and the
eigenvalues ``λ_{1..r}``, and applies as ``V (λ ∘ (Vᵀ w))`` in ``O(rm)``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

#: A widened summary's factors live in buffers with this many times the
#: columns they hold (at least 1), so later commits append in place and a
#: factor is copied O(log) times over its life instead of on every commit.
#: The spare columns of a large buffer are pages nothing has touched.
GROWTH_HEADROOM = 1.5

# Guards the check-and-claim of a buffer's tail: two summaries sharing a
# buffer (shallow copies committed from two threads) cannot both win it.
_CLAIM_LOCK = threading.Lock()


class _FactorBuffer:
    """Column-major ``(m, capacity)`` basis and ``(capacity,)`` eigenvalues
    behind a widened summary.

    The first ``filled`` columns hold data.  Every summary over the
    buffer views a prefix of it, so the one whose width equals
    ``filled`` is the newest and alone may append past it.
    """

    __slots__ = ("right", "weights", "filled")

    def __init__(self, n_features: int, capacity: int) -> None:
        self.right = np.empty((n_features, capacity), order="F")
        self.weights = np.empty(capacity)
        self.filled = 0


@dataclass
class TruncatedSummary:
    """The eigen form ``(V, λ)`` of a summary, ``A ≈ V diag(λ) Vᵀ``.

    Every producer writes the retained (leading) columns of ``V``
    orthonormal: capture (:func:`truncate_from_samples`,
    :func:`truncate_summary`) and :func:`retruncate_summary`.  A commit
    appends correction columns after them (``x_i`` with weight
    ``−a_i``, or ``kron`` with ``λ_k`` on a multinomial store), which
    :func:`retruncate_summary` later folds into the orthonormal block;
    it trusts that block's orthonormality, which would cost O(m·w²) to
    check.

    A summary that :meth:`widened` produced holds ``V`` and ``λ`` as
    the first ``r`` columns (entries) of buffers with spare room
    (:data:`GROWTH_HEADROOM`), so successive commits share memory by
    design: a reader keeps seeing its own ``r`` columns, because an
    append only writes past the newest summary's width.  Copies and
    pickles carry the views alone.
    """

    right: np.ndarray  # V_{1..r},  shape (m, r)
    weights: np.ndarray  # λ_{1..r}, shape (r,)
    _buffer: _FactorBuffer | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_buffer"] = None
        return state

    @property
    def rank(self) -> int:
        return self.right.shape[1]

    @property
    def n_features(self) -> int:
        return self.right.shape[0]

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """``V (λ ∘ (Vᵀ w))`` for a vector or an ``(m, K)`` block: O(rm)."""
        projected = self.right.T @ vector
        return self.right @ (self.weights * projected.T).T

    def reconstruct(self) -> np.ndarray:
        """Materialize ``V diag(λ) Vᵀ`` (testing/diagnostics only: O(rm²))."""
        return (self.right * self.weights) @ self.right.T

    def nbytes(self) -> int:
        """Memory held by the cached basis and eigenvalues (live columns)."""
        return self.right.nbytes + self.weights.nbytes

    def widened(
        self, columns: np.ndarray, weights: np.ndarray
    ) -> tuple[TruncatedSummary, bool]:
        """``([V | X], [λ | c])`` as a new summary, and whether it copied.

        The appended ``m × d`` columns and their ``d`` weights go into
        this summary's buffer in place when it owns the buffer's tail and
        the buffer has room.  Otherwise both are copied into a new buffer
        with :data:`GROWTH_HEADROOM` — when the summary has no buffer
        (fresh from capture or re-truncation, mapped read-only from a
        checkpoint, or a copy), when the buffer is full, or when a newer
        summary already appended past this one's width.  ``self`` is left
        unchanged either way.
        """
        width = self.rank
        total = width + columns.shape[1]
        buffer = self._buffer
        with _CLAIM_LOCK:
            in_place = (
                buffer is not None
                and buffer.filled == width
                and total <= buffer.right.shape[1]
                and self.right.base is buffer.right
                and self.weights.base is buffer.weights
            )
            if in_place:
                buffer.filled = total
        if not in_place:
            buffer = _FactorBuffer(
                self.n_features, math.ceil(total * GROWTH_HEADROOM)
            )
            buffer.right[:, :width] = self.right
            buffer.weights[:width] = self.weights
            buffer.filled = total
        buffer.right[:, width:total] = columns
        buffer.weights[width:total] = weights
        grown = TruncatedSummary(
            right=buffer.right[:, :total], weights=buffer.weights[:total]
        )
        grown._buffer = buffer
        return grown, not in_place


def select_rank(singular_values: np.ndarray, epsilon: float) -> int:
    """Smallest ``r >= 1`` with ``σ_{r+1} <= ε σ_1`` (tail-ratio criterion)."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 1
    tail_ok = s <= epsilon * s[0]
    # Position of the first singular value small enough to drop.
    drop_from = int(np.argmax(tail_ok)) if tail_ok.any() else s.size
    return max(1, drop_from)


def truncate_summary(
    matrix: np.ndarray,
    epsilon: float = 0.01,
    max_rank: int | None = None,
) -> TruncatedSummary:
    """Compress a symmetric summary matrix to its ε-rank eigen form.

    Provenance summaries are symmetric (``Σ w_i x_i x_iᵀ``), so the
    eigendecomposition of ``(A + Aᵀ)/2`` gives the truncated SVD, with
    the eigenvalue signs kept in ``weights``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("provenance summaries are square m×m matrices")
    evals, evecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    order = np.argsort(-np.abs(evals))
    evals = evals[order]
    evecs = evecs[:, order]
    rank = select_rank(np.abs(evals), epsilon)
    if max_rank is not None:
        rank = min(rank, max_rank)
    rank = max(1, min(rank, evals.size))
    return TruncatedSummary(right=evecs[:, :rank], weights=evals[:rank])


def truncate_from_samples(
    rows: np.ndarray,
    weights: np.ndarray | None = None,
    epsilon: float = 0.01,
    max_rank: int | None = None,
) -> TruncatedSummary:
    """Truncated factors of ``Σ w_i x_i x_iᵀ`` without forming the m×m matrix.

    Uses the thin SVD of the ``B × m`` (weighted) sample block: if
    ``X_B = U S Vᵀ`` then ``X_Bᵀ diag(sign) X_B``'s factors come from ``V`` and
    ``S²``.  Negative weights (logistic slopes are negative) are handled by
    folding ``|w|^(1/2)`` into the rows and the sign into the eigenvalues.
    Cost is ``O(B m min(B, m))`` — cheaper than the ``O(m³)`` dense SVD when
    ``B ≪ m``, which is exactly the regime PrIU compresses.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a B×m block")
    if weights is None:
        weights = np.ones(rows.shape[0])
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape[0] != rows.shape[0]:
        raise ValueError("one weight per row is required")
    if rows.shape[0] >= rows.shape[1]:
        # More rows than dimensions: the m×m gram is the cheaper route.
        dense = rows.T @ (rows * weights[:, None])
        return truncate_summary(dense, epsilon=epsilon, max_rank=max_rank)
    scaled = rows * np.sqrt(np.abs(weights))[:, None]
    signs = np.sign(weights)
    # A = rowsᵀ diag(w) rows = scaledᵀ diag(sign) scaled.
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    # A = V S (Uᵀ diag(sign) U) S Vᵀ; define B_mid = Uᵀ diag(sign) U (r0×r0).
    mid = (u.T * signs) @ u
    core = (s[:, None] * mid) * s[None, :]
    # Eigen-decompose the small symmetric core to re-diagonalize.
    evals, evecs = np.linalg.eigh(core)
    order = np.argsort(-np.abs(evals))
    evals = evals[order]
    evecs = evecs[:, order]
    magnitudes = np.abs(evals)
    rank = select_rank(magnitudes, epsilon)
    if max_rank is not None:
        rank = min(rank, max_rank)
    rank = max(1, min(rank, magnitudes.size))
    basis = vt.T @ evecs[:, :rank]  # m × r, orthonormal columns
    return TruncatedSummary(right=basis, weights=evals[:rank])


@dataclass(frozen=True)
class RetruncationResult:
    """Receipt of one :func:`retruncate_summary` call.

    ``error_bound`` is the *exact* 2-norm distance between the widened
    operator and its re-truncated replacement — the largest |eigenvalue|
    dropped (``0.0`` when nothing was dropped), so
    ``‖A_wide − A_retrunc‖₂ = error_bound ≤ error_bound_relative · ‖A‖₂``.
    Maintenance surfaces the worst bound across all re-truncated summaries
    so callers can verify the answer contract they are trading for memory.

    ``method`` names the path the fold took: ``"incremental"`` (appended
    columns folded into the retained orthonormal basis) or ``"qr"`` (a
    thin QR over the full width; see :func:`retruncate_summary`).
    """

    summary: TruncatedSummary
    rank_before: int
    rank_after: int
    error_bound: float  # ‖dropped tail‖₂ = largest dropped |eigenvalue|
    spectral_norm: float  # |λ₁| of the widened operator
    method: str = "qr"  # "incremental" | "qr"

    @property
    def error_bound_relative(self) -> float:
        """``error_bound / |λ₁|`` (0.0 for a zero operator)."""
        if self.spectral_norm == 0.0:
            return 0.0
        return self.error_bound / self.spectral_norm


def _fold_basis(
    basis: np.ndarray, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(W, Y, Z)`` with ``fresh ≈ basis·Y + W·Z``, ``[basis | W]`` orthonormal.

    One Gram–Schmidt pass against ``basis``, then a thin SVD of the
    residual (columns scaled to unit norm) drops its directions at
    rounding level, ``max(m, w)·eps`` of each column's own norm:
    corrections in the span of ``basis``, or duplicates, leave a
    rank-deficient residual whose noise a plain QR would turn into
    directions not orthogonal to ``basis``.  The second pass runs on the
    kept directions, making them orthogonal to ``basis`` however small
    their singular values ``s``; it moves each by ``O(eps / s)``, and
    such a direction carries only ``O(s)`` of the operator.
    """
    m, retained = basis.shape
    coeffs = basis.T @ fresh
    scale = np.linalg.norm(fresh, axis=0)
    scale[scale == 0.0] = 1.0
    u, s, vt = np.linalg.svd(
        (fresh - basis @ coeffs) / scale, full_matrices=False
    )
    width = retained + fresh.shape[1]
    kept = int(np.sum(s > max(m, width) * np.finfo(float).eps))
    kept = min(kept, m - retained)
    tail = (s[:kept, None] * vt[:kept]) * scale
    u = u[:, :kept]
    overlap = basis.T @ u
    u -= basis @ overlap
    return u, coeffs + overlap @ tail, tail


def _select_retruncation_rank(
    s: np.ndarray,
    epsilon: float | None,
    max_rank: int | None,
    n_features: int,
    width: int,
) -> int:
    """The rank rule of :func:`retruncate_summary` on ``s`` = sorted |λ|."""
    if s[0] == 0.0:
        rank = 1  # zero operator: keep one (zero) column, drop the rest
    elif epsilon is None:
        tol = max(n_features, width) * np.finfo(float).eps * s[0]
        rank = max(1, int(np.sum(s > tol)))
    else:
        rank = select_rank(s, epsilon)
    if max_rank is not None:
        rank = min(rank, max_rank)
    return max(1, min(rank, s.size))


def _diagonalized(
    basis: np.ndarray,
    core: np.ndarray,
    epsilon: float | None,
    max_rank: int | None,
    width: int,
    method: str,
) -> RetruncationResult:
    """``Q K Qᵀ`` re-truncated: ``eigh`` of the small symmetric core ``K``
    (its lower triangle), eigenpairs in |λ| order cut by
    :func:`_select_retruncation_rank`, then ``V ← Q E``."""
    evals, evecs = np.linalg.eigh(core)
    order = np.argsort(-np.abs(evals))
    magnitudes = np.abs(evals[order])
    rank = _select_retruncation_rank(
        magnitudes, epsilon, max_rank, basis.shape[0], width
    )
    kept = order[:rank]
    return RetruncationResult(
        summary=TruncatedSummary(
            right=basis @ evecs[:, kept], weights=evals[kept]
        ),
        rank_before=int(width),
        rank_after=rank,
        error_bound=float(magnitudes[rank]) if rank < magnitudes.size else 0.0,
        spectral_norm=float(magnitudes[0]),
        method=method,
    )


def retruncate_summary(
    summary: TruncatedSummary,
    epsilon: float | None = None,
    max_rank: int | None = None,
    appended: int | None = None,
) -> RetruncationResult:
    """Re-truncate a widened ``(V, λ)`` summary without forming ``V Λ Vᵀ``.

    Commit compaction appends *exact* correction columns to a
    truncated-SVD summary (:meth:`~repro.core.provenance_store.\
ProvenanceStore.compact`), so after many commits the factors are far wider
    than the operator's numerical rank.  The fold works on one side: with
    ``V Λ Vᵀ = Q K Qᵀ`` for an orthonormal ``Q``, ``eigh`` of the small
    symmetric core ``K`` gives ``V ← Q E`` and ``λ`` its eigenvalues.
    ``method`` in the result names how ``Q`` and ``K`` were built:

    * ``"incremental"`` — the last ``appended`` columns are commit
      corrections, folded into the retained block of ``V``
      (:func:`_fold_basis`), which is trusted to be orthonormal (see
      :class:`TruncatedSummary`); ``K = M diag(λ) Mᵀ``.
    * ``"qr"`` — ``appended`` is ``None`` or counts every column: a thin
      QR ``V = Q R`` and ``K = R diag(λ) Rᵀ``.

    Two rank cuts apply.  The eigenvalue cut: ``epsilon=None`` (the
    default) drops only the *numerically zero* tail (``|λ| ≤ max(m, w)
    · eps_float64 · |λ₁|``), so replay answers are preserved at the
    commit contract's atol; an explicit ``epsilon`` applies the paper's
    tail-ratio criterion (:func:`select_rank`) to ``|λ|`` — smaller
    factors, answers perturbed by at most ``error_bound`` per
    application (surfaced in the result).  On the incremental path
    :func:`_fold_basis` also drops residual directions below ``max(m,
    w) · eps`` of each correction column's own norm, before the core is
    formed.  So at a borderline eigenvalue — rounding left where a
    correction cancels a captured term — the incremental path can end
    one column narrower than the ``"qr"`` path; the two agree on
    answers at the contract's atol.  ``appended`` is the count
    :attr:`~repro.core.provenance_store.\
ProvenanceStore.svd_correction_columns` keeps per record.
    """
    right = np.asarray(summary.right, dtype=float)
    weights = np.asarray(summary.weights, dtype=float)
    width = right.shape[1]
    retained = width - (appended or 0)
    if 0 < retained < width:
        prior = right[:, :retained]
        ortho, proj, tail = _fold_basis(prior, right[:, retained:])
        stacked = np.vstack((proj, tail))
        core = (stacked * weights[retained:]) @ stacked.T
        core[np.arange(retained), np.arange(retained)] += weights[:retained]
        basis = np.concatenate((prior, ortho), axis=1)
        method = "incremental"
    else:
        basis, tri = np.linalg.qr(right)
        core = (tri * weights) @ tri.T
        method = "qr"
    return _diagonalized(basis, core, epsilon, max_rank, width, method)


def _exact_weights(left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """``c`` with ``right · diag(c) == left`` bit for bit, else ``None``.

    Each column's quotient at its largest |right| entry is ``c_j`` or
    one of its two neighbouring doubles (every producer wrote ``left``
    as that product).  O(m·w) per candidate.
    """
    columns = np.arange(right.shape[1])
    pivots = np.argmax(np.abs(right), axis=0)
    divisors = right[pivots, columns]
    guess = left[pivots, columns] / np.where(divisors != 0.0, divisors, 1.0)
    weights = guess.copy()
    exact = np.all(right * guess == left, axis=0)
    for direction in (np.inf, -np.inf):
        candidate = np.nextafter(guess, direction)
        hit = ~exact & np.all(right * candidate == left, axis=0)
        weights[hit] = candidate[hit]
        exact |= hit
    return weights if exact.all() else None


def summary_from_factor_pair(
    left: np.ndarray, right: np.ndarray
) -> tuple[TruncatedSummary, bool]:
    """The eigen form of a pair ``(P, V)`` with ``A = P Vᵀ``, and whether
    it had to be folded.

    Store formats 1–3 held ``P = V · diag(λ)`` beside ``V``.  Capture,
    commits and the one-sided fold wrote ``P`` as exactly that product,
    so ``λ`` comes back bit for bit (:func:`_exact_weights`) and the
    summary keeps ``V`` as it was.  Any other pair (the older two-sided
    fold wrote ``P·G`` and ``V·G`` with ``G`` orthogonal) is
    folded once through a thin QR ``V = Q R`` and the core
    ``(Qᵀ P) Rᵀ``, symmetrized, which is exact for any symmetric
    operator; the result's ``V`` is orthonormal and its rank the
    numerical rank.  Raises ``ValueError`` when the pair's shapes differ,
    or when a part ``(P − Q Qᵀ P) Rᵀ`` of the operator outside
    ``span(Q)``, or a skew part of the core, exceeds ``√eps ‖K‖_F``: far
    above the rounding older folds left (about 3e-14 after 60), far
    below the asymmetry of an operator that is not symmetric.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape or right.ndim != 2:
        raise ValueError(
            f"factor shapes {left.shape} and {right.shape} do not pair"
        )
    weights = _exact_weights(left, right)
    if weights is not None:
        return TruncatedSummary(right=right, weights=weights), False
    basis, tri = np.linalg.qr(right)
    projected = basis.T @ left
    core = projected @ tri.T
    outside = np.linalg.norm((left - basis @ projected) @ tri.T)
    skew = np.linalg.norm(core - core.T)
    if max(outside, skew) > np.sqrt(np.finfo(float).eps) * np.linalg.norm(core):
        raise ValueError(f"P Vᵀ is not symmetric ({outside:.1e}, {skew:.1e})")
    result = _diagonalized(
        basis, 0.5 * (core + core.T), None, None, right.shape[1], "qr"
    )
    return result.summary, True


def spectral_mass_ratio(full: np.ndarray, summary: TruncatedSummary) -> float:
    """``‖V Λ Vᵀ‖₂ / ‖A‖₂`` — the quantity Theorems 6/8 lower-bound by 1-ε."""
    denom = np.linalg.norm(full, 2)
    if denom == 0.0:
        return 1.0
    return float(np.linalg.norm(summary.reconstruct(), 2) / denom)
