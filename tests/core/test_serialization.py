"""Unit tests for provenance-store serialization (save/load round trips)."""

import dataclasses
import sys
import threading
import zipfile
import zlib

import numpy as np
import pytest

from repro.core import (
    CheckpointCorruptionError,
    IncrementalTrainer,
    PrIUUpdater,
    load_plan,
    load_store,
    save_store,
    train_with_capture,
)
from repro.core import serialization
from repro.core.serialization import _Archive, read_checkpoint_metadata
from repro.linalg.svd import TruncatedSummary
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)
from repro.models import BatchSchedule, make_schedule, objective_for
from repro.testing import LockMonitor, corrupt_npz_member

from legacy_archives import (
    per_record_members,
    with_plan_copies,
    with_table,
    write_stored,
)
from repro.core.provenance_store import COLUMN_FIELDS


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


class TestScheduleFromRecords:
    """A load hands every schedule kind the records' batches; none is
    regenerated from its seed."""

    KINDS = ["mb-sgd", "sgd", "gd"]

    @staticmethod
    def store_of(kind):
        data = make_regression(60, 4, seed=178)
        schedule = make_schedule(data.n_samples, 8, 12, seed=102, kind=kind)
        _, store = train_with_capture(
            objective_for("linear", 0.1), data.features, data.labels,
            schedule, 0.01,
        )
        return store

    @pytest.mark.parametrize("kind", KINDS)
    def test_loaded_batches_equal_a_fresh_schedule(self, kind, tmp_path):
        store = self.store_of(kind)
        loaded = roundtrip(store, tmp_path).schedule
        fresh = BatchSchedule(
            n_samples=store.n_samples, batch_size=8, n_iterations=12,
            seed=102, kind=kind,
        )
        assert (loaded.kind, loaded.seed, loaded.n_iterations) == (kind, 102, 12)
        assert (loaded.n_samples, loaded.batch_size) == (store.n_samples, 8)
        assert len(loaded.batches) == len(fresh.batches)
        for got, expected in zip(loaded.batches, fresh.batches):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_never_regenerates_the_schedule(
        self, kind, tmp_path, monkeypatch
    ):
        path = save_store(self.store_of(kind), tmp_path / "store.npz")

        def regenerate(schedule):
            raise AssertionError("load_store regenerated the batches")

        monkeypatch.setattr(BatchSchedule, "_materialize", regenerate)
        loaded = load_store(path)
        assert len(loaded.schedule.batches) == 12

    @pytest.mark.parametrize("kind", KINDS)
    def test_save_load_save_writes_the_same_schedule(self, kind, tmp_path):
        first = save_store(self.store_of(kind), tmp_path / "first.npz")
        second = save_store(load_store(first), tmp_path / "second.npz")
        assert np.array_equal(
            store_members(first)["__schedule__"],
            store_members(second)["__schedule__"],
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_iterations", ["11", "13"])
    def test_iteration_count_off_the_records_raises_typed(
        self, kind, n_iterations, tmp_path
    ):
        path = save_store(self.store_of(kind), tmp_path / "store.npz")
        bad = rewritten(
            path, tmp_path / "bad.npz", "__schedule__",
            with_entry(2, n_iterations),
        )
        with pytest.raises(CheckpointCorruptionError, match="__schedule__"):
            load_store(bad)


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


def sparse_regression(seed):
    """Sparse CSR features with random real labels."""
    data = make_sparse_binary_classification(260, 120, density=0.05, seed=seed)
    labels = np.random.default_rng(seed).standard_normal(data.n_samples)
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
    "linear-sparse": ("linear", lambda: sparse_regression(16), {}, "sparse"),
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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A binary SVD model with frozen PrIU-opt state and two commits,
    its checkpoint in ``committed/``, and an uncommitted twin's store."""
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


def format_5_checkpoint(trainer, directory):
    """``trainer``'s checkpoint in ``directory`` as builds before store
    format 6 wrote it: a format-5 store, and a format-2 plan with copies
    of the store's per-sample state."""
    paths = trainer.save_checkpoint(directory)
    members = per_record_members(store_members(paths["store"]))
    members["__meta__"] = with_entry(0, "5")(members["__meta__"])
    write_stored(paths["store"], members)
    plan = with_plan_copies(
        store_members(paths["plan"]), trainer.store, trainer.labels
    )
    write_stored(paths["plan"], plan)
    with np.load(paths["store"]) as npz:
        assert "batch_0" in npz.files and "record_offsets" not in npz.files
    with np.load(paths["plan"]) as npz:
        assert "base_sizes" in npz.files
    return directory


def assert_one_copy(trainer):
    """Each per-sample array exists once: every record's fields and the
    schedule's batches are views of the store's columns, and the plan
    holds no per-sample array of its own and, unless sparse (CSR blocks
    and base moments), no per-iteration state: it reads the records'
    summaries and moments."""
    store, plan = trainer.store, trainer._plan
    columns = store.columns()
    for column, name in COLUMN_FIELDS[store.task]:
        values = getattr(columns, column)
        for record in store.records:
            assert np.shares_memory(getattr(record, name), values), name
    for batch in store.schedule.batches:
        assert np.shares_memory(batch, columns.batches)
    per_iteration = {
        name
        for name, value in vars(plan).items()
        if (isinstance(value, list) and len(value) == plan.n_iterations)
        or (
            isinstance(value, np.ndarray)
            and value.shape[:1] == (plan.n_iterations,)
        )
    }
    assert per_iteration == ({"_blocks", "moments"} if plan.sparse else set())
    slots = int(columns.offsets[-1])
    for name, value in vars(plan).items():
        if isinstance(value, np.ndarray) and value.shape[:1] == (slots,):
            assert any(
                np.shares_memory(value, held) for held in columns.per_sample()
            ), name


def _committed(task, data, **kwargs):
    """A ``task`` model fitted on ``data`` with two committed erasures,
    and the original training data."""
    trainer = fit_trainer(task, data, **kwargs)
    trainer.remove([2, 9, 40], commit=True)
    trainer.remove([5, 77], commit=True)
    return data.features, data.labels, trainer


FORMAT_5_CASES = {
    "binary-svd": lambda: _committed(
        "binary_logistic",
        make_binary_classification(300, 30, seed=181),
        learning_rate=0.1, max_dense_params=20, freeze_fraction=0.7,
    ),
    "multinomial-dense": lambda: _committed(
        "multinomial_logistic",
        make_multiclass_classification(260, 8, n_classes=3, seed=14),
        n_classes=3,
    ),
    "binary-sparse": lambda: _committed(
        "binary_logistic",
        make_sparse_binary_classification(260, 120, density=0.05, seed=15),
    ),
}


ONE_COPY_CASES = {
    "linear": ("linear", lambda: make_regression(200, 6, seed=11), {}),
    "binary": (
        "binary_logistic",
        lambda: make_binary_classification(260, 8, seed=13),
        {"freeze_fraction": 0.7},
    ),
    "binary-sparse": (
        "binary_logistic",
        lambda: make_sparse_binary_classification(260, 120, density=0.05, seed=15),
        {},
    ),
    "multinomial": (
        "multinomial_logistic",
        lambda: make_multiclass_classification(260, 8, n_classes=3, seed=14),
        {"n_classes": 3},
    ),
    "multinomial-svd": (
        "multinomial_logistic",
        lambda: make_multiclass_classification(260, 20, n_classes=3, seed=18),
        {"n_classes": 3, "max_dense_params": 20},
    ),
}


@pytest.mark.parametrize("case", sorted(ONE_COPY_CASES))
class TestOneCopy:
    """No per-sample array exists twice: the records and the plan share
    the store's columns, fitted, reloaded and committed, and the plan
    archive holds no copy of them."""

    def test_fitted(self, case):
        task, make, kwargs = ONE_COPY_CASES[case]
        assert_one_copy(fit_trainer(task, make(), **kwargs))

    def test_reloaded_and_committed(self, case, tmp_path):
        task, make, kwargs = ONE_COPY_CASES[case]
        data = make()
        trainer = fit_trainer(task, data, **kwargs)
        trainer.save_checkpoint(tmp_path / "fit")
        with np.load(tmp_path / "fit" / "plan.npz") as npz:
            assert not set(npz.files) & {
                "slopes_flat", "iy_flat", "probs_flat", "wx_flat",
                "base_sizes", "record_offsets",
            }
            assert ("moments" in npz.files) == trainer._plan.sparse
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path / "fit", data.features, data.labels
        )
        assert_one_copy(reloaded)
        # The reloaded columns are the mapped archive members themselves.
        assert not reloaded.store.columns().batches.flags.writeable
        for model in (trainer, reloaded):
            model.remove([2, 9, 40], method="priu", commit=True)
            assert_one_copy(model)
        assert np.array_equal(
            reloaded.remove([3, 4], method="priu").weights,
            trainer.remove([3, 4], method="priu").weights,
        )
        trainer.save_checkpoint(tmp_path / "commit")
        assert_one_copy(
            IncrementalTrainer.from_checkpoint(
                tmp_path / "commit", data.features, data.labels
            )
        )


class TestOlderStoreFormats:
    """Stores of formats 1–5 still load and answer bit-identically.

    The fixtures are rebuilt here from a freshly saved store, its
    columns and stacked moments split back into the per-record members
    formats 1–5 wrote (``legacy_archives.per_record_members``): format 5
    as it was written, with a format-2 plan beside it that copies the
    store's per-sample state (``legacy_archives.with_plan_copies``), for
    a committed binary SVD, a committed multinomial and a committed
    sparse model; format 4
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

    @staticmethod
    def _saved(path, version):
        """A saved store's members, per record and stamped ``version``,
        with the digest table older builds wrote."""
        with np.load(path, allow_pickle=False) as npz:
            members = per_record_members({name: npz[name] for name in npz.files})
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

    @pytest.mark.parametrize("case", sorted(FORMAT_5_CASES))
    def test_v5_store_and_v2_plan_load_and_answer(self, case, tmp_path):
        features, labels, trainer = FORMAT_5_CASES[case]()
        directory = format_5_checkpoint(trainer, tmp_path)
        restored = IncrementalTrainer.from_checkpoint(
            directory, features, labels, method=trainer.method
        )
        assert np.array_equal(restored.weights_, trainer.weights_)
        # Loaded per record, then held as columns like a fresh fit.
        assert_one_copy(restored)
        methods = ["priu", "priu-seq"]
        if trainer._opt is not None:
            methods.append("priu-opt")
        for method in methods:
            for removed in ([4, 11, 30], [0], [17, 18, 19, 20]):
                assert np.array_equal(
                    restored.remove(removed, method=method).weights,
                    trainer.remove(removed, method=method).weights,
                ), (method, removed)
        # Committing on the reloaded model matches committing on the
        # original: the column layout carries through compaction.
        restored.remove([2, 5], method="priu", commit=True)
        trainer.remove([2, 5], method="priu", commit=True)
        assert_one_copy(restored)
        assert np.array_equal(
            restored.remove([7], method="priu").weights,
            trainer.remove([7], method="priu").weights,
        )

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


class TestStoreSweep:
    """``load_store`` checks the bulk members on two checkers while it
    decodes, and still returns only stores whose every member passed."""

    @pytest.mark.parametrize(
        "case", [c for c in sorted(ALIGNMENT_CASES) if not c.endswith("sparse")]
    )
    def test_a_flipped_byte_in_any_member_is_named(self, case, tmp_path):
        task, make, kwargs, _ = ALIGNMENT_CASES[case]
        trainer = fit_trainer(task, make(), **kwargs)
        path = save_store(trainer.store, tmp_path / "store.npz")
        raw = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            names = [
                info.filename.removesuffix(".npy")
                for info in archive.infolist()
                if not info.filename.startswith("__")
            ]
        assert any(name.startswith("summary_") for name in names)
        for name in names:
            path.write_bytes(raw)
            corrupt_npz_member(path, name)
            with pytest.raises(
                CheckpointCorruptionError,
                match=f"member '{name}' of .* is corrupted: CRC-32",
            ):
                load_store(path)

    def test_unsupported_version_is_refused_before_any_bulk_member_is_hashed(
        self, trained, tmp_path, monkeypatch
    ):
        _, _, directory, _ = trained
        path = rewritten(
            directory / "committed" / "store.npz", tmp_path / "store.npz",
            "__meta__", with_entry(0, "999"),
        )
        hashed = []

        class Spy:
            @staticmethod
            def crc32(data, value=0):
                hashed.append(memoryview(data).nbytes)
                return zlib.crc32(data, value)

        monkeypatch.setattr(serialization, "zlib", Spy)
        with pytest.raises(ValueError, match="version: 999") as refused:
            load_store(path)
        assert not isinstance(refused.value, CheckpointCorruptionError)
        with zipfile.ZipFile(path) as archive:
            assert hashed == [archive.getinfo("__meta__.npy").compress_size]

    def test_sweeps_under_contention_check_every_member(
        self, trained, tmp_path
    ):
        """Four loads at once, each on its own two checkers, with the
        interpreter switching threads every microsecond: every clean
        load ends with every member checked, and every load of a store
        with one rotten member reports that member."""
        _, _, directory, _ = trained
        clean = directory / "committed" / "store.npz"
        rotten = tmp_path / "rotten.npz"
        rotten.write_bytes(clean.read_bytes())
        corrupt_npz_member(rotten, "summary_3_right")
        failures = []

        def load(path, rounds=5):
            for _ in range(rounds):
                try:
                    with _Archive(path) as archive:
                        archive.verify()
                        if archive._checked != set(archive.files):
                            failures.append(f"{path.name}: unchecked members")
                except CheckpointCorruptionError as exc:
                    if path == clean or "'summary_3_right'" not in str(exc):
                        failures.append(f"{path.name}: {exc}")
                else:
                    if path == rotten:
                        failures.append("rotten store verified")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=load, args=(path,))
                for path in (clean, rotten, clean, rotten)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures

    def test_load_reports_no_lock_order_cycle(self, trained):
        data, trainer, directory, _ = trained
        monitor = LockMonitor()
        with monitor.capture():
            store = load_store(directory / "committed" / "store.npz")
            plan = load_plan(
                directory / "committed" / "plan.npz", store,
                trainer.features, trainer.labels,
            )
            plan.run([[1, 2]])  # the plan's deferred sweep
        monitor.assert_clean()
        assert any(
            name.startswith("serialization.py")
            for name in monitor.report()["locks"]
        )


def store_members(path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def rewritten(source, target, member, edit):
    """``source``'s members with ``member`` replaced by ``edit`` of it,
    written stored, so every CRC matches; returns ``target``."""
    members = store_members(source)
    members[member] = edit(members[member])
    return write_stored(target, members)


def with_entry(index, value):
    def edit(values):
        values = list(values)
        values[index] = value
        return np.array(values)

    return edit


def with_cell(row, column, value):
    def edit(values):
        values = np.array(values)
        values[row, column] = value
        return values

    return edit


def without_plan_key(key):
    def edit(members):
        keys = list(members["__plan_meta_keys__"])
        values = list(members["__plan_meta_values__"])
        del values[keys.index(key)]
        keys.remove(key)
        members["__plan_meta_keys__"] = np.array(keys)
        members["__plan_meta_values__"] = np.array(values)

    return edit


def with_plan_value(key, value):
    def edit(members):
        keys = list(members["__plan_meta_keys__"])
        values = list(members["__plan_meta_values__"])
        values[keys.index(key)] = value
        members["__plan_meta_values__"] = np.array(values)

    return edit


# (member, edit, whether read_checkpoint_metadata reads it too)
MALFORMED_STORES = {
    "meta one entry short": ("__meta__", lambda v: v[:-1], True),
    "meta empty": ("__meta__", lambda v: v[:0], True),
    "meta version not a number": ("__meta__", with_entry(0, "five"), True),
    "meta n_samples not a number": ("__meta__", with_entry(4, "n/a"), True),
    "meta n_samples negative": ("__meta__", with_entry(4, "-3"), True),
    "meta unknown task": ("__meta__", with_entry(1, "ridge"), True),
    "meta sparse flag 2": ("__meta__", with_entry(9, "2"), True),
    "kinds one short": ("__summary_kinds__", lambda v: v[:-1], False),
    "kinds unknown": ("__summary_kinds__", with_entry(0, "lowrank"), False),
    "schedule one short": ("__schedule__", lambda v: v[:-1], False),
    "schedule seed not a number": ("__schedule__", with_entry(3, "x"), False),
    "schedule unknown kind": ("__schedule__", with_entry(4, "adam"), False),
    "frozen meta one entry": ("__frozen_meta__", lambda v: v[:1], False),
    "frozen meta four entries": (
        "__frozen_meta__", lambda v: np.append(v, "0"), False
    ),
    "frozen meta flag not 0 or 1": ("__frozen_meta__", with_entry(2, "yes"), False),
    "corrections one short": ("__svd_corrections__", lambda v: v[:-1], False),
    "receipts five columns": ("__receipts__", lambda v: v[:, :5], False),
    "receipts past the log": ("__receipts__", with_cell(-1, 1, 1e6), False),
    "receipts bounds reversed": ("__receipts__", with_cell(0, 0, 4.0), False),
    "receipts not finite": ("__receipts__", with_cell(0, 3, np.nan), False),
    "receipts not whole": ("__receipts__", with_cell(0, 4, 2.5), False),
    "deletion log not ids": ("__deletion_log__", lambda v: v + 0.5, False),
}

MALFORMED_PLANS = {
    "meta pair lengths differ": lambda members: members.update(
        __plan_meta_values__=members["__plan_meta_values__"][:-1]
    ),
    "meta key missing": without_plan_key("n_params"),
    "n_iterations not a number": with_plan_value("n_iterations", "many"),
    "sparse flag not 0 or 1": with_plan_value("sparse", "True"),
    "format not a number": with_plan_value("format", "two"),
}


class TestMalformedMetadata:
    """CRC-clean ``__`` members that do not parse as ``save_store`` and
    ``save_plan`` write them raise :class:`CheckpointCorruptionError`,
    which the fleet does not retry, through every reader that reads
    them; an unsupported version stays a plain ``ValueError``."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
    def test_store_member_raises_typed(self, trained, tmp_path, case):
        _, _, directory, _ = trained
        member, edit, in_meta = MALFORMED_STORES[case]
        path = rewritten(
            directory / "committed" / "store.npz", tmp_path / "store.npz",
            member, edit,
        )
        with pytest.raises(CheckpointCorruptionError, match=member):
            load_store(path)
        if in_meta:
            with pytest.raises(CheckpointCorruptionError, match=member):
                read_checkpoint_metadata(path)
        else:
            assert read_checkpoint_metadata(path).task == "binary_logistic"

    @pytest.mark.parametrize("reader", [load_store, read_checkpoint_metadata])
    def test_unsupported_store_version_stays_plain(self, trained, tmp_path, reader):
        _, _, directory, _ = trained
        path = rewritten(
            directory / "committed" / "store.npz", tmp_path / "store.npz",
            "__meta__", with_entry(0, "7"),
        )
        with pytest.raises(ValueError, match="version: 7") as refused:
            reader(path)
        assert not isinstance(refused.value, CheckpointCorruptionError)

    @pytest.mark.parametrize("case", sorted(MALFORMED_PLANS))
    def test_plan_meta_raises_typed(self, trained, tmp_path, case):
        _, trainer, directory, _ = trained
        members = store_members(directory / "committed" / "plan.npz")
        MALFORMED_PLANS[case](members)
        path = write_stored(tmp_path / "plan.npz", members)
        store = load_store(directory / "committed" / "store.npz")
        with pytest.raises(CheckpointCorruptionError, match="__plan_meta_"):
            load_plan(path, store, trainer.features, trainer.labels)

    def test_unsupported_plan_version_stays_plain(self, trained, tmp_path):
        _, trainer, directory, _ = trained
        members = store_members(directory / "committed" / "plan.npz")
        with_plan_value("format", "9")(members)
        path = write_stored(tmp_path / "plan.npz", members)
        store = load_store(directory / "committed" / "store.npz")
        with pytest.raises(ValueError, match="version: 9") as refused:
            load_plan(path, store, trainer.features, trainer.labels)
        assert not isinstance(refused.value, CheckpointCorruptionError)
