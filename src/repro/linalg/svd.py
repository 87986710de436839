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

The cached factors are ``P = V_{1..r} Λ_{1..r}`` and ``V_{1..r}``, each
``m × r`` (the summary is symmetric, so its eigenpairs give the SVD up
to signs); applying the summary to a vector costs ``O(rm)``.
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

    Every producer writes the pair in *eigen form*, ``P = V · diag(c)``
    with the retained (leading) columns of ``V`` orthonormal: capture
    (:func:`truncate_from_samples`, :func:`truncate_summary` with
    ``symmetric=True``), a commit's correction columns (``(−a_i x_i,
    x_i)``, or ``(λ_k · kron, kron)`` on a multinomial store) and
    :func:`retruncate_summary`, whose fold checks the column relation in
    O(m·w) (a pair that fails it takes the slower general path) and
    trusts the orthonormality, which would cost O(m·w²) to check.

    A summary that :meth:`widened` produced holds its factors as the
    first ``r`` columns of Fortran-order buffers with spare columns
    (:data:`GROWTH_HEADROOM`), so successive commits share memory by
    design: a reader keeps seeing its own ``r`` columns, because an
    append only writes past the newest summary's width.  Copies and
    pickles carry the factor views alone.
    """

    left: np.ndarray  # P = V_{1..r} Λ_{1..r},  shape (m, r)
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
    operator and its re-truncated replacement — the largest |eigenvalue|
    dropped (``0.0`` when nothing was dropped), so
    ``‖A_wide − A_retrunc‖₂ = error_bound ≤ error_bound_relative · ‖A‖₂``.
    Maintenance surfaces the worst bound across all re-truncated summaries
    so callers can verify the answer contract they are trading for memory.

    ``method`` names the path the fold took: ``"incremental"`` (appended
    columns folded into the retained orthonormal basis), or a thin QR
    over the full width, ``"qr"`` for a pair in eigen form and
    ``"general"`` for one that failed the form check (see
    :func:`retruncate_summary`).
    """

    summary: TruncatedSummary
    rank_before: int
    rank_after: int
    error_bound: float  # ‖dropped tail‖₂ = largest dropped |eigenvalue|
    spectral_norm: float  # |λ₁| of the widened operator
    method: str = "qr"  # "incremental" | "qr" | "general"

    @property
    def error_bound_relative(self) -> float:
        """``error_bound / |λ₁|`` (0.0 for a zero operator)."""
        if self.spectral_norm == 0.0:
            return 0.0
        return self.error_bound / self.spectral_norm


def _eigen_weights(left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """``c`` with ``left = right · diag(c)`` to rounding, else ``None``.

    A column fails when ``‖left_j − c_j right_j‖ > 4 m eps |c_j| ‖right_j‖``.
    O(m·w): three reductions and one scaled copy of ``right``.
    """
    sq_norms = np.einsum("ij,ij->j", right, right)
    weights = np.einsum("ij,ij->j", right, left) / np.where(
        sq_norms > 0.0, sq_norms, 1.0
    )
    defect = right * weights
    defect -= left
    tol = 4 * right.shape[0] * np.finfo(float).eps
    defects = np.einsum("ij,ij->j", defect, defect)
    return weights if np.all(defects <= tol**2 * weights**2 * sq_norms) else None


def _fold_basis(
    basis: np.ndarray, fresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(W, Y, Z)`` with ``fresh ≈ basis·Y + W·Z``, ``[basis | W]`` orthonormal.

    One Gram–Schmidt pass against ``basis``, then a thin SVD of the
    residual (columns scaled to unit norm) drops its directions at
    rounding level: corrections in the span of ``basis``, or duplicates,
    leave a rank-deficient residual whose noise a plain QR would turn
    into directions not orthogonal to ``basis``.  The second pass runs
    on the kept directions, making them orthogonal to ``basis`` however
    small their singular values ``s``; it moves each by ``O(eps / s)``,
    and such a direction carries only ``O(s)`` of the operator.
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


def _full_width_core(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, K)`` with ``P Vᵀ = Q K Qᵀ``, from the thin QR ``V = Q R``.

    ``K = (Qᵀ P) Rᵀ``, symmetrized, is exact for a symmetric ``P Vᵀ``.
    A part ``(P − Q Qᵀ P) Rᵀ`` of the operator outside ``span(Q)``, or a
    skew part of ``K``, above ``√eps ‖K‖_F`` raises ``ValueError``: far
    above the rounding folds leave (older two-sided folds: about 3e-14
    after 60), far below the asymmetry of a non-symmetric operator.
    """
    basis, tri = np.linalg.qr(right)
    projected = basis.T @ left
    core = projected @ tri.T
    outside = np.linalg.norm((left - basis @ projected) @ tri.T)
    skew = np.linalg.norm(core - core.T)
    if max(outside, skew) > np.sqrt(np.finfo(float).eps) * np.linalg.norm(core):
        raise ValueError(f"P Vᵀ is not symmetric ({outside:.1e}, {skew:.1e})")
    return basis, 0.5 * (core + core.T)


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


def retruncate_summary(
    summary: TruncatedSummary,
    epsilon: float | None = None,
    max_rank: int | None = None,
    appended: int | None = None,
) -> RetruncationResult:
    """Re-truncate a widened symmetric ``(P, V)`` pair without forming ``PVᵀ``.

    Commit compaction appends *exact* correction columns to a
    truncated-SVD summary (:meth:`~repro.core.provenance_store.\
ProvenanceStore.compact`), so after many commits the factors are far wider
    than the operator's numerical rank.  The operator is symmetric, so
    the fold works on one side: with ``P Vᵀ = Q K Qᵀ`` for an orthonormal
    ``Q``, ``eigh`` of the small symmetric core ``K`` gives ``V ← Q E``
    and ``P ← V · diag(λ)``.  ``method`` in the result names how ``Q``
    and ``K`` were built:

    * ``"incremental"`` — the pair is in eigen form, ``P = V · diag(c)``
      (checked in O(m·w); see :class:`TruncatedSummary`), and the last
      ``appended`` columns are commit corrections, folded into the
      retained block of ``V`` (:func:`_fold_basis`), which is trusted to
      be orthonormal; ``K = M diag(c) Mᵀ``.
    * otherwise a thin QR ``V = Q R`` and ``K = (Qᵀ P) Rᵀ``
      (:func:`_full_width_core`, exact for any symmetric operator;
      ``ValueError`` for any other): ``"qr"`` for a pair in eigen form
      (``appended`` is ``None`` or counts every column), ``"general"``
      for one that is not (factors the older two-sided fold wrote into
      existing checkpoints, or a pair a caller built).

    ``epsilon=None`` (the default) drops only the *numerically zero* tail
    (``|λ| ≤ max(m, w) · eps_float64 · |λ₁|``), so replay answers are
    preserved at the commit contract's atol.  An explicit ``epsilon``
    applies the paper's tail-ratio criterion (:func:`select_rank`) to
    ``|λ|`` — smaller factors, answers perturbed by at most
    ``error_bound`` per application (surfaced in the result).
    ``appended`` is the count :attr:`~repro.core.provenance_store.\
ProvenanceStore.svd_correction_columns` keeps per record.
    """
    left = np.asarray(summary.left, dtype=float)
    right = np.asarray(summary.right, dtype=float)
    n_features, width = right.shape
    retained = width - (appended or 0)
    weights = _eigen_weights(left, right)
    if weights is not None and 0 < retained < width:
        prior = right[:, :retained]
        ortho, proj, tail = _fold_basis(prior, right[:, retained:])
        stacked = np.vstack((proj, tail))
        core = (stacked * weights[retained:]) @ stacked.T
        core[np.arange(retained), np.arange(retained)] += weights[:retained]
        basis = np.concatenate((prior, ortho), axis=1)
        method = "incremental"
    else:
        basis, core = _full_width_core(left, right)
        method = "general" if weights is None else "qr"
    evals, evecs = np.linalg.eigh(core)
    order = np.argsort(-np.abs(evals))
    magnitudes = np.abs(evals[order])
    rank = _select_retruncation_rank(
        magnitudes, epsilon, max_rank, n_features, width
    )
    kept = order[:rank]
    new_right = basis @ evecs[:, kept]
    return RetruncationResult(
        summary=TruncatedSummary(left=new_right * evals[kept], right=new_right),
        rank_before=int(width),
        rank_after=rank,
        error_bound=float(magnitudes[rank]) if rank < magnitudes.size else 0.0,
        spectral_norm=float(magnitudes[0]),
        method=method,
    )


def spectral_mass_ratio(full: np.ndarray, summary: TruncatedSummary) -> float:
    """``‖PVᵀ‖₂ / ‖A‖₂`` — the quantity Theorems 6/8 lower-bound by 1-ε."""
    denom = np.linalg.norm(full, 2)
    if denom == 0.0:
        return 1.0
    return float(np.linalg.norm(summary.reconstruct(), 2) / denom)
