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

The cached factors are ``P = U_{1..r} S_{1..r}`` and ``V_{1..r}``, each
``m × r``; applying the summary to a vector costs ``O(rm)``.
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
    """Column-major ``(m, capacity)`` storage behind a widened summary.

    The first ``filled`` columns hold data.  Every summary over the
    buffer views a prefix of it, so the one whose width equals
    ``filled`` is the newest and alone may append past it.
    """

    __slots__ = ("left", "right", "filled")

    def __init__(self, n_features: int, capacity: int) -> None:
        self.left = np.empty((n_features, capacity), order="F")
        self.right = np.empty((n_features, capacity), order="F")
        self.filled = 0


@dataclass
class TruncatedSummary:
    """The cached pair ``(P, V)`` with ``A ≈ P Vᵀ``.

    A summary that :meth:`widened` produced holds its factors as the
    first ``r`` columns of Fortran-order buffers with spare columns
    (:data:`GROWTH_HEADROOM`), so successive commits share memory by
    design: a reader keeps seeing its own ``r`` columns, because an
    append only writes past the newest summary's width.  Copies and
    pickles carry the factor views alone.
    """

    left: np.ndarray  # P = U_{1..r} S_{1..r},  shape (m, r)
    right: np.ndarray  # V_{1..r},              shape (m, r)
    _buffer: _FactorBuffer | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_buffer"] = None
        return state

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    @property
    def n_features(self) -> int:
        return self.left.shape[0]

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """``(P Vᵀ) w`` via two matrix–vector products: O(rm)."""
        return self.left @ (self.right.T @ vector)

    def reconstruct(self) -> np.ndarray:
        """Materialize ``P Vᵀ`` (testing/diagnostics only: O(rm²))."""
        return self.left @ self.right.T

    def nbytes(self) -> int:
        """Memory held by the cached factors (live columns only)."""
        return self.left.nbytes + self.right.nbytes

    def widened(
        self, left_columns: np.ndarray, right_columns: np.ndarray
    ) -> tuple[TruncatedSummary, bool]:
        """``([P | L], [V | R])`` as a new summary, and whether it copied.

        The appended ``m × d`` columns go into this summary's buffer in
        place when it owns the buffer's tail and the buffer has room.
        Otherwise both factors are copied into a new buffer with
        :data:`GROWTH_HEADROOM` — when the summary has no buffer (fresh
        from capture or re-truncation, mapped read-only from a
        checkpoint, or a copy), when the buffer is full, or when a newer
        summary already appended past this one's width.  ``self`` is left
        unchanged either way.
        """
        width = self.rank
        total = width + left_columns.shape[1]
        buffer = self._buffer
        with _CLAIM_LOCK:
            in_place = (
                buffer is not None
                and buffer.filled == width
                and total <= buffer.left.shape[1]
                and self.left.base is buffer.left
                and self.right.base is buffer.right
            )
            if in_place:
                buffer.filled = total
        if not in_place:
            buffer = _FactorBuffer(
                self.n_features, math.ceil(total * GROWTH_HEADROOM)
            )
            buffer.left[:, :width] = self.left
            buffer.right[:, :width] = self.right
            buffer.filled = total
        buffer.left[:, width:total] = left_columns
        buffer.right[:, width:total] = right_columns
        grown = TruncatedSummary(
            left=buffer.left[:, :total], right=buffer.right[:, :total]
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
    symmetric: bool = False,
) -> TruncatedSummary:
    """Compress a dense summary matrix to its ε-rank truncated SVD factors.

    Provenance summaries are symmetric (``Σ w_i x_i x_iᵀ``); passing
    ``symmetric=True`` uses the ~3× cheaper eigendecomposition, with the
    eigenvalue signs folded into the left factor.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("provenance summaries are square m×m matrices")
    if symmetric:
        evals, evecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
        order = np.argsort(-np.abs(evals))
        evals = evals[order]
        evecs = evecs[:, order]
        rank = select_rank(np.abs(evals), epsilon)
        if max_rank is not None:
            rank = min(rank, max_rank)
        rank = max(1, min(rank, evals.size))
        return TruncatedSummary(
            left=evecs[:, :rank] * evals[:rank], right=evecs[:, :rank]
        )
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = select_rank(s, epsilon)
    if max_rank is not None:
        rank = min(rank, max_rank)
    rank = max(1, min(rank, s.size))
    return TruncatedSummary(left=u[:, :rank] * s[:rank], right=vt[:rank].T)


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
    folding ``|w|^(1/2)`` into the rows and the sign into the left factor.
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
        return truncate_summary(
            dense, epsilon=epsilon, max_rank=max_rank, symmetric=True
        )
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
    left = basis * evals[:rank]
    return TruncatedSummary(left=left, right=basis)


@dataclass(frozen=True)
class RetruncationResult:
    """Receipt of one :func:`retruncate_summary` call.

    ``error_bound`` is the *exact* 2-norm distance between the widened
    operator and its re-truncated replacement — the largest singular value
    dropped (``0.0`` when nothing was dropped), so
    ``‖A_wide − A_retrunc‖₂ = error_bound ≤ error_bound_relative · ‖A‖₂``.
    Maintenance surfaces the worst bound across all re-truncated summaries
    so callers can verify the answer contract they are trading for memory.
    """

    summary: TruncatedSummary
    rank_before: int
    rank_after: int
    error_bound: float  # ‖dropped tail‖₂ = largest dropped singular value
    spectral_norm: float  # σ₁ of the widened operator
    method: str = "qr"  # "qr" (full thin-QR) | "incremental"

    @property
    def error_bound_relative(self) -> float:
        """``error_bound / σ₁`` (0.0 for a zero operator)."""
        if self.spectral_norm == 0.0:
            return 0.0
        return self.error_bound / self.spectral_norm


def incremental_retruncation_wins(retained: int, appended: int) -> bool:
    """The crossover rule :func:`retruncate_summary` applies for ``appended``.

    The incremental path costs ``O(m r d + (r+d)³)`` against the full
    thin-QR's ``O(m (r+d)² )`` — it wins while the appended column count
    ``d`` is small next to the retained rank ``r``.  The ``2d ≤ r`` rule
    keeps a comfortable margin (QR of an ``m × d`` residual plus two
    skinny GEMMs versus re-orthogonalizing all ``r + d`` columns), and a
    degenerate bookkeeping state (``d ≥`` the factor width, ``d = 0``)
    always falls back to the full path.
    """
    return 0 < appended and appended * 2 <= retained


def _retruncate_incremental(
    left: np.ndarray,
    right: np.ndarray,
    retained: int,
    epsilon: float | None,
    max_rank: int | None,
) -> RetruncationResult:
    """Fold ``d`` appended correction columns into the existing factors.

    Exploits the invariant that every (re)truncation output has
    ``P₀ = Q_L diag(s)`` with orthonormal ``Q_L`` and orthonormal ``V₀``
    (true for :func:`truncate_summary`, :func:`truncate_from_samples`
    and :func:`retruncate_summary` itself), so only the ``d`` appended
    columns need orthogonalizing: one Gram–Schmidt pass against the
    retained basis (repeated once, the classical twice-is-enough
    refinement) plus a thin QR of the ``m × d`` residual on each side,
    then the SVD of the small ``(r+d) × (r+d)`` core

        ``K = [[diag(s) + X Yᵀ, X R_vᵀ], [R_p Yᵀ, R_p R_vᵀ]]``

    re-diagonalizes the widened operator in ``O(m r d + (r+d)³)`` —
    never touching the ``m × r`` retained block with a QR again.
    """
    prior_left = left[:, :retained]
    prior_right = right[:, :retained]
    appended_left = left[:, retained:]
    appended_right = right[:, retained:]
    norms = np.linalg.norm(prior_left, axis=0)
    # Zero columns (a zero-operator summary kept as rank 1) contribute
    # nothing; dividing by 1 leaves them zero in the basis.
    safe = np.where(norms > 0.0, norms, 1.0)
    basis_left = prior_left / safe

    def _split(basis, block):
        """``block = basis @ coeffs + ortho @ tri`` with ortho ⟂ basis."""
        coeffs = basis.T @ block
        residual = block - basis @ coeffs
        correction = basis.T @ residual
        residual = residual - basis @ correction
        ortho, tri = np.linalg.qr(residual)
        return coeffs + correction, ortho, tri

    x, q_left, r_left = _split(basis_left, appended_left)
    y, q_right, r_right = _split(prior_right, appended_right)
    r = retained
    d = appended_left.shape[1]
    core = np.empty((r + d, r + d))
    core[:r, :r] = x @ y.T
    core[np.arange(r), np.arange(r)] += norms
    core[:r, r:] = x @ r_right.T
    core[r:, :r] = r_left @ y.T
    core[r:, r:] = r_left @ r_right.T
    u, s, vt = np.linalg.svd(core)
    rank = _select_retruncation_rank(
        s, epsilon, max_rank, left.shape[0], left.shape[1]
    )
    error_bound = float(s[rank]) if rank < s.size else 0.0
    new_left = np.hstack((basis_left, q_left)) @ (u[:, :rank] * s[:rank])
    new_right = np.hstack((prior_right, q_right)) @ vt[:rank].T
    return RetruncationResult(
        summary=TruncatedSummary(left=new_left, right=new_right),
        rank_before=int(left.shape[1]),
        rank_after=rank,
        error_bound=error_bound,
        spectral_norm=float(s[0]) if s.size else 0.0,
        method="incremental",
    )


def _select_retruncation_rank(
    s: np.ndarray,
    epsilon: float | None,
    max_rank: int | None,
    n_features: int,
    width: int,
) -> int:
    """The shared rank rule of both re-truncation paths (see docstring)."""
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


def retruncate_summary(
    summary: TruncatedSummary,
    epsilon: float | None = None,
    max_rank: int | None = None,
    appended: int | None = None,
) -> RetruncationResult:
    """Re-truncate a widened ``(P, V)`` factor pair without forming ``PVᵀ``.

    Commit compaction appends *exact* rank-Δ correction columns to a
    truncated-SVD summary (:meth:`~repro.core.provenance_store.\
ProvenanceStore.compact`), so after many commits the factors are far wider
    than the operator's numerical rank.  This restores tightness via the
    thin-QR route: with ``P = Q_p R_p`` and ``V = Q_v R_v``,

        ``P Vᵀ = Q_p (R_p R_vᵀ) Q_vᵀ``

    and the SVD of the small ``r × r`` core re-diagonalizes the operator in
    ``O(m r² + r³)`` — never the ``O(m³)`` dense SVD.

    ``epsilon=None`` (the default) drops only the *numerically zero* tail
    (``σ ≤ max(m, r) · eps_float64 · σ₁``): the re-truncated operator equals
    the widened one to machine precision, so replay answers are preserved
    at the commit contract's atol.  Passing an explicit ``epsilon`` applies
    the paper's tail-ratio criterion (:func:`select_rank`) instead —
    smaller factors, answers perturbed by at most ``error_bound`` per
    application (surfaced in the result).

    ``appended`` tells the routine how many of the *trailing* factor
    columns are commit-appended corrections (the count
    :attr:`~repro.core.provenance_store.ProvenanceStore.\
svd_correction_columns` maintains per record).  When few columns arrived
    since the last pass (:func:`incremental_retruncation_wins`), the
    update folds them into the already-orthogonal retained factors
    instead of re-running thin-QR over the full width
    (:func:`_retruncate_incremental`) — same answer to machine precision
    (property-tested at atol 1e-10), ``method="incremental"`` in the
    receipt.  ``appended=None`` (or a count past the crossover) always
    takes the full path.
    """
    left = np.asarray(summary.left, dtype=float)
    right = np.asarray(summary.right, dtype=float)
    if appended is not None:
        retained = int(left.shape[1]) - int(appended)
        if incremental_retruncation_wins(retained, int(appended)):
            return _retruncate_incremental(
                left, right, retained, epsilon, max_rank
            )
    qp, rp = np.linalg.qr(left)
    qv, rv = np.linalg.qr(right)
    core = rp @ rv.T
    u, s, vt = np.linalg.svd(core)
    rank = _select_retruncation_rank(
        s, epsilon, max_rank, left.shape[0], left.shape[1]
    )
    error_bound = float(s[rank]) if rank < s.size else 0.0
    new_left = qp @ (u[:, :rank] * s[:rank])
    new_right = qv @ vt[:rank].T
    return RetruncationResult(
        summary=TruncatedSummary(left=new_left, right=new_right),
        rank_before=int(left.shape[1]),
        rank_after=rank,
        error_bound=error_bound,
        spectral_norm=float(s[0]) if s.size else 0.0,
        method="qr",
    )


def spectral_mass_ratio(full: np.ndarray, summary: TruncatedSummary) -> float:
    """``‖PVᵀ‖₂ / ‖A‖₂`` — the quantity Theorems 6/8 lower-bound by 1-ε."""
    denom = np.linalg.norm(full, 2)
    if denom == 0.0:
        return 1.0
    return float(np.linalg.norm(summary.reconstruct(), 2) / denom)
