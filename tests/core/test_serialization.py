"""Unit tests for provenance-store serialization (save/load round trips)."""

import dataclasses
import zipfile

import numpy as np
import pytest

from repro.core import (
    CheckpointCorruptionError,
    IncrementalTrainer,
    PrIUUpdater,
    load_store,
    save_store,
    train_with_capture,
)
from repro.core.serialization import _Archive
from repro.linalg.svd import TruncatedSummary
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)
from repro.models import make_schedule, objective_for

from legacy_archives import with_table, write_stored


def roundtrip(store, tmp_path):
    path = save_store(store, tmp_path / "store.npz")
    return load_store(path)


def updates_agree(store, reloaded, features, labels, removed):
    original = PrIUUpdater(store, features, labels).update(removed)
    restored = PrIUUpdater(reloaded, features, labels).update(removed)
    return np.allclose(original, restored, atol=1e-12)


class TestRoundTrips:
    def test_linear_dense(self, tmp_path):
        data = make_regression(150, 6, seed=171)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 15, 30, seed=95)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
            compression="none",
        )
        reloaded = roundtrip(store, tmp_path)
        assert reloaded.task == "linear"
        assert len(reloaded) == len(store)
        assert updates_agree(
            store, reloaded, data.features, data.labels, [0, 5, 9]
        )

    def test_linear_svd(self, tmp_path):
        data = make_regression(150, 40, seed=172)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 10, 20, seed=96)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
            compression="svd",
        )
        reloaded = roundtrip(store, tmp_path)
        assert reloaded.compression == "svd"
        assert updates_agree(store, reloaded, data.features, data.labels, [1])

    def test_binary_with_frozen_state(self, tmp_path):
        data = make_binary_classification(200, 8, seed=173)
        objective = objective_for("binary_logistic", 0.05)
        schedule = make_schedule(data.n_samples, 20, 40, seed=97)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.1,
            freeze_at=0.7,
        )
        reloaded = roundtrip(store, tmp_path)
        assert reloaded.frozen is not None
        assert reloaded.frozen.t_s == store.frozen.t_s
        assert np.allclose(reloaded.frozen.eigenvalues, store.frozen.eigenvalues)
        # PrIU-opt still works from the reloaded store.
        from repro.core import PrIUOptLogisticUpdater

        original = PrIUOptLogisticUpdater(
            store, data.features, data.labels
        ).update([0, 1])
        restored = PrIUOptLogisticUpdater(
            reloaded, data.features, data.labels
        ).update([0, 1])
        assert np.allclose(original, restored, atol=1e-12)

    def test_multinomial(self, tmp_path):
        data = make_multiclass_classification(200, 8, n_classes=3, seed=174)
        objective = objective_for("multinomial_logistic", 0.05, n_classes=3)
        schedule = make_schedule(data.n_samples, 20, 25, seed=98)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.05,
        )
        reloaded = roundtrip(store, tmp_path)
        assert reloaded.n_classes == 3
        assert updates_agree(
            store, reloaded, data.features, data.labels, [3, 4]
        )

    def test_sparse_coefficient_store(self, tmp_path):
        data = make_sparse_binary_classification(200, 100, density=0.03, seed=175)
        objective = objective_for("binary_logistic", 0.05)
        schedule = make_schedule(data.n_samples, 20, 20, seed=99)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.05,
        )
        reloaded = roundtrip(store, tmp_path)
        assert reloaded.sparse_mode
        assert updates_agree(store, reloaded, data.features, data.labels, [2])

    def test_schedule_reconstructed_identically(self, tmp_path):
        data = make_regression(100, 4, seed=176)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 10, 15, seed=100)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
        )
        reloaded = roundtrip(store, tmp_path)
        for original, restored in zip(
            store.schedule.batches, reloaded.schedule.batches
        ):
            assert np.array_equal(original, restored)

    def test_version_check(self, tmp_path):
        data = make_regression(50, 3, seed=177)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 10, 5, seed=101)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
        )
        path = save_store(store, tmp_path / "s.npz")
        # Corrupt the version field.
        archive = dict(np.load(path, allow_pickle=False))
        meta = archive["__meta__"].copy()
        meta[0] = "999"
        archive["__meta__"] = meta
        np.savez_compressed(path, **archive)
        with pytest.raises(ValueError):
            load_store(path)


def fit_trainer(task, data, **kwargs):
    defaults = dict(
        learning_rate=0.05,
        regularization=0.01,
        batch_size=25,
        n_iterations=40,
        seed=0,
    )
    defaults.update(kwargs)
    trainer = IncrementalTrainer(task, **defaults)
    trainer.fit(data.features, data.labels)
    return trainer


def sparse_data(task, seed):
    """Sparse CSR features with random labels for ``task``."""
    data = make_sparse_binary_classification(260, 120, density=0.05, seed=seed)
    rng = np.random.default_rng(seed)
    if task == "linear":
        labels = rng.standard_normal(data.n_samples)
    else:
        labels = rng.integers(0, 3, size=data.n_samples)
    return dataclasses.replace(data, labels=labels)


# (task, training data, trainer options, the store kind it must produce).
ALIGNMENT_CASES = {
    "linear-dense": ("linear", lambda: make_regression(200, 6, seed=11), {}, "none"),
    "linear-svd": (
        "linear",
        lambda: make_regression(220, 60, seed=12),
        {"max_dense_params": 20},
        "svd",
    ),
    "linear-sparse": ("linear", lambda: sparse_data("linear", 16), {}, "sparse"),
    "binary-dense": (
        "binary_logistic",
        lambda: make_binary_classification(260, 8, seed=13),
        {"freeze_fraction": 0.7},
        "none",
    ),
    "binary-svd": (
        "binary_logistic",
        lambda: make_binary_classification(260, 40, seed=17),
        {"max_dense_params": 20},
        "svd",
    ),
    "binary-sparse": (
        "binary_logistic",
        lambda: make_sparse_binary_classification(260, 120, density=0.05, seed=15),
        {},
        "sparse",
    ),
    "multinomial-dense": (
        "multinomial_logistic",
        lambda: make_multiclass_classification(260, 8, n_classes=3, seed=14),
        {"n_classes": 3},
        "none",
    ),
    "multinomial-svd": (
        "multinomial_logistic",
        lambda: make_multiclass_classification(260, 20, n_classes=3, seed=18),
        {"n_classes": 3, "max_dense_params": 20},
        "svd",
    ),
    "multinomial-sparse": (
        "multinomial_logistic",
        lambda: sparse_data("multinomial", 19),
        {"n_classes": 3},
        "sparse",
    ),
}


class TestAlignedMembers:
    """Every member the loaders memory-map is 64-byte aligned.

    numpy runs a matmul outside BLAS when an operand is unaligned, which
    is slower and can differ in the last bits from the aligned product.
    """

    @pytest.mark.parametrize("case", sorted(ALIGNMENT_CASES))
    def test_every_mapped_member_is_aligned(self, case, tmp_path):
        task, make, kwargs, compression = ALIGNMENT_CASES[case]
        trainer = fit_trainer(task, make(), **kwargs)
        assert trainer.store.compression == compression
        paths = trainer.save_checkpoint(tmp_path)
        for path in paths.values():
            with _Archive(path) as archive:
                members = {
                    name: archive.array(name)
                    for name in archive.files
                    if not name.startswith("__")
                }
            assert members, path.name
            for name, member in members.items():
                if not member.size:
                    continue
                assert isinstance(member, np.memmap), (path.name, name)
                assert member.flags.aligned, (path.name, name)
                assert member.ctypes.data % 64 == 0, (path.name, name)


class TestOlderStoreFormats:
    """Stores of formats 1–4 still load and answer bit-identically.

    The fixtures are rebuilt here from a freshly saved store: format 4
    as it was written (stored and aligned, so it maps, with the
    ``__checksums__`` digest table), format 3 exactly as those builds
    wrote it (``np.savez_compressed``, digest table included, each SVD
    summary as ``summary_<t>_left`` = ``right · diag(weights)`` beside
    ``summary_<t>_right``), format 2 without the maintenance/audit
    members, the ``eigen_stale`` flag or the digest table, and format 1
    (from an uncommitted store) without ``n_original_samples`` or the
    deletion log.  The tables come from ``legacy_archives.digest_table``;
    the loader ignores them and checks every member by its zip CRC.
    """

    REMOVED = [4, 11, 30]

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        data = make_binary_classification(300, 30, seed=181)

        def fit():
            return fit_trainer(
                "binary_logistic",
                data,
                learning_rate=0.1,
                max_dense_params=20,
                freeze_fraction=0.7,
            )

        uncommitted, trainer = fit(), fit()
        assert trainer.store.compression == "svd"
        assert trainer.store.frozen is not None
        directory = tmp_path_factory.mktemp("formats")
        save_store(uncommitted.store, directory / "uncommitted.npz")
        trainer.remove([2, 9, 40], commit=True)
        trainer.remove([5, 77], commit=True)
        trainer.save_checkpoint(directory / "committed")
        store = trainer.store
        assert store.deletion_log is not None and store.commit_receipts
        assert store.svd_correction_columns is not None
        assert store.frozen.eigen_stale
        return data, trainer, directory, uncommitted

    @staticmethod
    def _saved(path, version):
        """A saved store's members, stamped ``version``, with the digest
        table older builds wrote."""
        with np.load(path, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        assert "__checksums__" not in members
        meta = list(members["__meta__"])
        meta[0] = str(version)
        members["__meta__"] = np.array(meta)
        return with_table(members)

    @staticmethod
    def _members(path):
        """A saved store's members, with its SVD summaries and version
        as format 3 wrote them."""
        members = TestOlderStoreFormats._saved(path, 3)
        for name in [n for n in members if n.endswith("_weights")]:
            key = name[: -len("_weights")]
            weights = members.pop(name)
            members[f"{key}_left"] = members[f"{key}_right"] * weights
        return with_table(members)

    @staticmethod
    def _svd_keys(members):
        keys = [n[: -len("_left")] for n in members if n.endswith("_left")]
        assert keys and not any(n.endswith("_weights") for n in members)
        return keys

    @staticmethod
    def _write_compressed(path, members):
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert all(
                info.compress_type == zipfile.ZIP_DEFLATED
                for info in archive.infolist()
            )
        return path

    @staticmethod
    def _downgrade(members, version):
        members = {
            name: value
            for name, value in members.items()
            if name
            not in ("__receipts__", "__svd_corrections__", "__checksums__")
        }
        meta = list(members["__meta__"])
        meta[0] = str(version)
        members["__meta__"] = np.array(meta[:11] if version == 1 else meta)
        members["__frozen_meta__"] = members["__frozen_meta__"][:2]
        return members

    def assert_answers_match(self, reloaded, store, features, labels):
        for removed in (self.REMOVED, [0], [17, 18, 19, 20]):
            expected = PrIUUpdater(store, features, labels).update(removed)
            answer = PrIUUpdater(reloaded, features, labels).update(removed)
            assert np.array_equal(answer, expected), removed

    @staticmethod
    def assert_same_summaries(reloaded, store):
        """Every SVD summary came back as its basis and eigenvalues, bit
        for bit."""
        n_svd = 0
        for ours, theirs in zip(reloaded.records, store.records):
            if isinstance(theirs.summary, TruncatedSummary):
                n_svd += 1
                assert np.array_equal(ours.summary.right, theirs.summary.right)
                assert np.array_equal(
                    ours.summary.weights, theirs.summary.weights
                )
        assert n_svd

    def test_v4_stored_store_maps_and_answers(self, trained, tmp_path):
        _, trainer, directory, _ = trained
        members = self._saved(directory / "committed" / "store.npz", 4)
        path = write_stored(tmp_path / "v4.npz", members)
        reloaded = load_store(path)
        self.assert_same_summaries(reloaded, trainer.store)
        # Mapped, as a v4 store with a table was: read-only views.
        assert not reloaded.records[0].moment.flags.writeable
        assert reloaded.svd_correction_columns.flags.writeable
        assert np.array_equal(reloaded.deletion_log, trainer.store.deletion_log)
        assert len(reloaded.commit_receipts) == 2
        self.assert_answers_match(
            reloaded, trainer.store, trainer.features, trainer.labels
        )

    def test_v3_compressed_store_loads_and_answers(self, trained, tmp_path):
        _, trainer, directory, _ = trained
        members = self._members(directory / "committed" / "store.npz")
        assert "__checksums__" in members
        self._svd_keys(members)
        path = self._write_compressed(tmp_path / "v3.npz", members)
        reloaded = load_store(path)
        self.assert_same_summaries(reloaded, trainer.store)
        assert reloaded.n_original_samples == trainer.store.n_original_samples
        assert np.array_equal(reloaded.deletion_log, trainer.store.deletion_log)
        assert len(reloaded.commit_receipts) == 2
        assert np.array_equal(
            reloaded.svd_correction_columns, trainer.store.svd_correction_columns
        )
        assert reloaded.frozen.eigen_stale
        self.assert_answers_match(
            reloaded, trainer.store, trainer.features, trainer.labels
        )

    def test_v3_compressed_store_serves_through_its_checkpoint(
        self, trained, tmp_path
    ):
        data, trainer, directory, _ = trained
        checkpoint = tmp_path / "checkpoint"
        checkpoint.mkdir()
        members = self._members(directory / "committed" / "store.npz")
        self._svd_keys(members)
        self._write_compressed(checkpoint / "store.npz", members)
        (checkpoint / "plan.npz").write_bytes(
            (directory / "committed" / "plan.npz").read_bytes()
        )
        restored = IncrementalTrainer.from_checkpoint(
            checkpoint, data.features, data.labels
        )
        assert np.array_equal(restored.weights_, trainer.weights_)
        for method in ("priu", "priu-seq"):
            assert np.array_equal(
                restored.remove(self.REMOVED, method=method).weights,
                trainer.remove(self.REMOVED, method=method).weights,
            ), method

    def test_v2_store_loads_and_answers(self, trained, tmp_path):
        _, trainer, directory, _ = trained
        members = self._downgrade(
            self._members(directory / "committed" / "store.npz"), 2
        )
        self._svd_keys(members)
        path = self._write_compressed(tmp_path / "v2.npz", members)
        reloaded = load_store(path)
        self.assert_same_summaries(reloaded, trainer.store)
        assert reloaded.n_original_samples == trainer.store.n_original_samples
        assert np.array_equal(reloaded.deletion_log, trainer.store.deletion_log)
        assert not reloaded.commit_receipts
        assert reloaded.svd_correction_columns is None
        self.assert_answers_match(
            reloaded, trainer.store, trainer.features, trainer.labels
        )

    def test_v1_store_loads_and_answers(self, trained, tmp_path):
        data, _, directory, uncommitted = trained
        members = self._downgrade(
            self._members(directory / "uncommitted.npz"), 1
        )
        assert "__deletion_log__" not in members
        self._svd_keys(members)
        path = self._write_compressed(tmp_path / "v1.npz", members)
        reloaded = load_store(path)
        assert reloaded.n_original_samples is None
        assert reloaded.deletion_log is None
        self.assert_same_summaries(reloaded, uncommitted.store)
        self.assert_answers_match(
            reloaded, uncommitted.store, data.features, data.labels
        )

    def test_v3_pairs_outside_eigen_form_fold_once_at_load(
        self, trained, tmp_path
    ):
        """Factors the older two-sided fold wrote, ``left = P·G`` and
        ``right = V·G`` with ``G`` orthogonal, are not a product of their
        basis: they fold into eigen form at load, each within 1e-10 of
        its dense operator, and their correction counts are spent."""
        _, trainer, directory, _ = trained
        members = self._members(directory / "committed" / "store.npz")
        rng = np.random.default_rng(9)
        rewritten = {}
        for key in self._svd_keys(members):
            left, right = members[f"{key}_left"], members[f"{key}_right"]
            if right.shape[1] > 1:
                g, _ = np.linalg.qr(rng.standard_normal((right.shape[1],) * 2))
                members[f"{key}_left"] = left @ g
                members[f"{key}_right"] = right @ g
                rewritten[int(key.rsplit("_", 1)[1])] = left @ right.T
        corrections = trainer.store.svd_correction_columns
        assert rewritten and any(corrections[t] for t in rewritten)
        path = self._write_compressed(tmp_path / "v3.npz", with_table(members))
        reloaded = load_store(path)
        for t, dense in rewritten.items():
            summary = reloaded.records[t].summary
            np.testing.assert_allclose(
                summary.reconstruct(), dense, atol=1e-10, rtol=0.0
            )
            gram = summary.right.T @ summary.right
            assert np.linalg.norm(gram - np.eye(summary.rank), 2) <= 1e-13
            assert reloaded.svd_correction_columns[t] == 0
        untouched = [
            t for t in range(len(corrections)) if t not in rewritten
        ]
        np.testing.assert_array_equal(
            reloaded.svd_correction_columns[untouched], corrections[untouched]
        )
        for removed in (self.REMOVED, [0], [17, 18, 19, 20]):
            np.testing.assert_allclose(
                PrIUUpdater(reloaded, trainer.features, trainer.labels)
                .update(removed),
                PrIUUpdater(trainer.store, trainer.features, trainer.labels)
                .update(removed),
                atol=1e-10, rtol=0.0,
            )

    def test_v3_pair_that_is_not_symmetric_raises_typed(
        self, trained, tmp_path
    ):
        _, _, directory, _ = trained
        members = self._members(directory / "committed" / "store.npz")
        key = self._svd_keys(members)[-1]
        left = members[f"{key}_left"]
        members[f"{key}_left"] = left + np.random.default_rng(15).standard_normal(
            left.shape
        )
        path = self._write_compressed(tmp_path / "v3.npz", with_table(members))
        with pytest.raises(CheckpointCorruptionError, match="not symmetric"):
            load_store(path)

    def test_v4_eigenvalues_that_do_not_pair_raise_typed(
        self, trained, tmp_path
    ):
        _, _, directory, _ = trained
        members = self._saved(directory / "committed" / "store.npz", 4)
        key = next(n for n in members if n.endswith("_weights"))
        members[key] = members[key][:-1]
        path = write_stored(tmp_path / "v4.npz", with_table(members))
        with pytest.raises(CheckpointCorruptionError, match="do not pair"):
            load_store(path)
