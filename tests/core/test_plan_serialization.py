"""Round-trip tests for compiled-plan persistence (save_plan / load_plan).

The contract is stricter than the store's: the reloaded plan's state must
be **bit-identical** (``np.array_equal`` plus dtype equality) to the
original's, and a *fresh process* loading store + plan must answer removal
queries identically to the in-process path.
"""

import io
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CheckpointCorruptionError,
    IncrementalTrainer,
    ReplayPlan,
    load_plan,
    load_store,
    save_plan,
    save_store,
)
from repro.core.serialization import (
    _Archive,
    _parse_npy_header,
    _temp_beside,
    set_fault_hook,
)
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)
from repro.testing import corrupt_npz_member

from legacy_archives import (
    sparse_multinomial_store,
    with_plan_copies,
    with_table,
    write_stored,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


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


def roundtrip_plan(trainer, tmp_path):
    store_path = save_store(trainer.store, tmp_path / "store.npz")
    plan_path = save_plan(
        trainer._plan, tmp_path / "plan.npz", weights=trainer.weights_
    )
    store = load_store(store_path)
    return load_plan(plan_path, store, trainer.features, trainer.labels)


def assert_state_bit_identical(original: ReplayPlan, reloaded: ReplayPlan):
    state = original.state_arrays()
    restored = reloaded.state_arrays()
    assert state.keys() == restored.keys()
    for key in state:
        assert state[key].dtype == restored[key].dtype, key
        assert np.array_equal(state[key], restored[key]), key


CASES = {
    "linear-dense": ("linear", lambda: make_regression(200, 6, seed=11), {}),
    "linear-svd": (
        "linear",
        lambda: make_regression(220, 60, seed=12),
        {"batch_size": 15, "max_dense_params": 20},
    ),
    "binary-frozen": (
        "binary_logistic",
        lambda: make_binary_classification(260, 8, seed=13),
        {"learning_rate": 0.1, "freeze_fraction": 0.7},
    ),
    "multinomial": (
        "multinomial_logistic",
        lambda: make_multiclass_classification(260, 8, n_classes=3, seed=14),
        {"n_classes": 3},
    ),
    "sparse-binary": (
        "binary_logistic",
        lambda: make_sparse_binary_classification(
            260, 120, density=0.05, seed=15
        ),
        {},
    ),
}


# The representation each case must exercise: (plan kind, frozen state).
EXPECTED_SHAPE = {
    "linear-dense": ("dense", False),
    "linear-svd": ("svd", False),
    "binary-frozen": ("dense", True),
    "multinomial": ("dense", True),
    "sparse-binary": ("sparse", False),
}


@pytest.mark.parametrize("case", sorted(CASES))
class TestPlanRoundTrip:
    def test_state_bit_identical(self, case, tmp_path):
        task, make, kwargs = CASES[case]
        trainer = fit_trainer(task, make(), **kwargs)
        kind, frozen = EXPECTED_SHAPE[case]
        assert trainer._plan._kind == kind
        assert (trainer.store.frozen is not None) == frozen
        reloaded = roundtrip_plan(trainer, tmp_path)
        assert_state_bit_identical(trainer._plan, reloaded)

    def test_answers_match_in_process_plan(self, case, tmp_path):
        task, make, kwargs = CASES[case]
        trainer = fit_trainer(task, make(), **kwargs)
        reloaded = roundtrip_plan(trainer, tmp_path)
        removed = [1, 7, 19]
        expected = trainer._plan.run_single(removed)
        assert np.array_equal(reloaded.run_single(removed), expected)
        batch = [[0, 3], [5, 9, 30], [2]]
        assert np.array_equal(reloaded.run(batch), trainer._plan.run(batch))

    def test_format_2_plan_answers_like_format_3(self, case, tmp_path):
        """A plan as format 2 wrote it, with copies of the store's
        per-sample state, moments and batch sizes, loads, ignores the
        copies and answers bit-identically."""
        task, make, kwargs = CASES[case]
        trainer = fit_trainer(task, make(), **kwargs)
        store_path = save_store(trainer.store, tmp_path / "store.npz")
        plan_path = save_plan(
            trainer._plan, tmp_path / "plan.npz", weights=trainer.weights_
        )
        with np.load(plan_path, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        write_stored(
            plan_path, with_plan_copies(members, trainer.store, trainer.labels)
        )
        reloaded = load_plan(
            plan_path, load_store(store_path), trainer.features, trainer.labels
        )
        assert_state_bit_identical(trainer._plan, reloaded)
        batch = [[0, 3], [5, 9, 30], [2]]
        assert np.array_equal(reloaded.run(batch), trainer._plan.run(batch))
        assert np.array_equal(
            reloaded.run_single([1, 7, 19]), trainer._plan.run_single([1, 7, 19])
        )

    def test_final_weights_embedded(self, case, tmp_path):
        task, make, kwargs = CASES[case]
        trainer = fit_trainer(task, make(), **kwargs)
        reloaded = roundtrip_plan(trainer, tmp_path)
        assert reloaded.final_weights is not None
        assert np.array_equal(
            np.asarray(reloaded.final_weights), trainer.weights_
        )


class TestMmapLoading:
    def test_large_arrays_are_memory_mapped(self, tmp_path):
        trainer = fit_trainer(
            "binary_logistic", make_binary_classification(260, 8, seed=13)
        )
        reloaded = roundtrip_plan(trainer, tmp_path)
        index = reloaded.store.packed_index()
        assert isinstance(index.samples, np.memmap)
        # The per-sample state is the store's mapped column, not a copy.
        columns = reloaded.store.columns()
        assert not columns.slopes.flags.writeable
        assert np.shares_memory(reloaded.store.records[3].slopes, columns.slopes)


class TestValidation:
    def test_version_check(self, tmp_path):
        trainer = fit_trainer("linear", make_regression(120, 5, seed=21))
        plan_path = save_plan(trainer._plan, tmp_path / "plan.npz")
        archive = dict(np.load(plan_path, allow_pickle=False))
        keys = [str(k) for k in archive["__plan_meta_keys__"]]
        values = archive["__plan_meta_values__"].copy()
        values[keys.index("format")] = "999"
        archive["__plan_meta_values__"] = values
        np.savez(plan_path, **archive)
        with pytest.raises(ValueError, match="version"):
            load_plan(
                plan_path, trainer.store, trainer.features, trainer.labels
            )

    def test_mismatched_store_rejected(self, tmp_path):
        trainer = fit_trainer("linear", make_regression(120, 5, seed=22))
        other = fit_trainer(
            "linear", make_regression(120, 5, seed=22), n_iterations=30
        )
        plan_path = save_plan(trainer._plan, tmp_path / "plan.npz")
        with pytest.raises(ValueError):
            load_plan(plan_path, other.store, other.features, other.labels)

    def test_mismatched_task_rejected(self, tmp_path):
        trainer = fit_trainer("linear", make_regression(120, 5, seed=23))
        other = fit_trainer(
            "binary_logistic", make_binary_classification(140, 5, seed=23)
        )
        plan_path = save_plan(trainer._plan, tmp_path / "plan.npz")
        with pytest.raises(ValueError, match="task"):
            load_plan(plan_path, other.store, other.features, other.labels)

    def test_mismatched_compression_kind_rejected(self, tmp_path):
        from repro.core import train_with_capture
        from repro.models import make_schedule, objective_for

        data = make_regression(220, 40, seed=25)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 10, 20, seed=96)
        stores = {}
        for compression in ("svd", "none"):
            _, stores[compression] = train_with_capture(
                objective, data.features, data.labels, schedule, 0.01,
                compression=compression,
            )
        svd_plan = ReplayPlan(stores["svd"], data.features, data.labels)
        plan_path = save_plan(svd_plan, tmp_path / "plan.npz")
        # Same task/schedule/sample count, different summary representation.
        with pytest.raises(ValueError, match="summaries"):
            load_plan(plan_path, stores["none"], data.features, data.labels)

    def test_mismatched_hyperparameters_rejected(self, tmp_path):
        from repro.core import train_with_capture
        from repro.models import make_schedule, objective_for

        data = make_regression(150, 6, seed=26)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 10, 20, seed=97)
        stores = {}
        for eta in (0.01, 0.02):
            _, stores[eta] = train_with_capture(
                objective, data.features, data.labels, schedule, eta,
            )
        plan = ReplayPlan(stores[0.01], data.features, data.labels)
        plan_path = save_plan(plan, tmp_path / "plan.npz")
        # Identical shapes everywhere; only the learning rate differs.
        with pytest.raises(ValueError, match="learning_rate"):
            load_plan(plan_path, stores[0.02], data.features, data.labels)


class TestUnusablePlanArchives:
    """CRC-clean plan archives the loader cannot use raise
    :class:`CheckpointCorruptionError`, which the fleet does not retry:
    reloading the same bytes cannot mend them."""

    @staticmethod
    def _write_plan(path, meta, arrays):
        keys = sorted(meta)
        members = {
            **arrays,
            "__plan_meta_keys__": np.array(keys),
            "__plan_meta_values__": np.array([meta[k] for k in keys]),
        }
        return write_stored(path, members)

    @staticmethod
    def _assert_not_retried(exc):
        from repro.serving import RetryPolicy

        assert not RetryPolicy().is_transient(exc)

    def test_older_sparse_multinomial_checkpoint_is_refused(self, tmp_path):
        """Builds that captured a multinomial model over sparse features
        saved its store alone; loading one refuses it where the plan
        would be compiled, as capture does."""
        data = make_sparse_binary_classification(200, 60, density=0.05, seed=41)
        labels = np.random.default_rng(41).integers(0, 3, size=data.n_samples)
        sparse_multinomial_store(tmp_path, data.features, labels)
        with pytest.raises(NotImplementedError, match="sparse multinomial"):
            IncrementalTrainer.from_checkpoint(tmp_path, data.features, labels)

    def test_plan_for_a_sparse_multinomial_store_is_refused(self, tmp_path):
        """No build compiles (or saves) a plan for this configuration;
        one found on disk raised ``TypeError`` on its first replay."""
        data = make_sparse_binary_classification(200, 60, density=0.05, seed=41)
        labels = np.random.default_rng(41).integers(0, 3, size=data.n_samples)
        store = sparse_multinomial_store(tmp_path, data.features, labels)
        n_params = 3 * data.features.shape[1]
        index = store.packed_index()
        meta = {
            "task": "multinomial_logistic", "kind": "sparse", "sparse": "1",
            "n_iterations": str(len(store.records)),
            "n_params": str(n_params), "n_samples": str(store.n_samples),
            "learning_rate": repr(store.learning_rate),
            "regularization": repr(store.regularization), "format": "3",
        }
        arrays = {
            "w0": np.zeros(n_params),
            "index_samples": index.samples,
            "index_iterations": index.iterations,
            "index_positions": index.positions,
            "moments": np.zeros((len(store.records), n_params)),
        }
        self._write_plan(tmp_path / "plan.npz", meta, arrays)
        with pytest.raises(CheckpointCorruptionError, match="sparse multinomial"):
            IncrementalTrainer.from_checkpoint(tmp_path, data.features, labels)
        # Without the member a format-2 plan carried for it, likewise.
        arrays["probs_flat"] = np.zeros((len(index), 3))
        meta["format"] = "2"
        self._write_plan(tmp_path / "plan.npz", meta, arrays)
        with pytest.raises(CheckpointCorruptionError) as refused:
            IncrementalTrainer.from_checkpoint(tmp_path, data.features, labels)
        self._assert_not_retried(refused.value)

    @pytest.mark.parametrize(
        "member",
        ["index_samples", "index_iterations", "index_positions", "w0", "moments"],
    )
    def test_missing_member_is_refused(self, tmp_path, member):
        data = make_sparse_binary_classification(260, 120, density=0.05, seed=15)
        trainer = fit_trainer("binary_logistic", data)
        paths = trainer.save_checkpoint(tmp_path)
        with np.load(paths["plan"], allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        assert member in members
        del members[member]
        write_stored(paths["plan"], members)
        with pytest.raises(CheckpointCorruptionError, match=member) as refused:
            IncrementalTrainer.from_checkpoint(
                tmp_path, data.features, data.labels
            )
        self._assert_not_retried(refused.value)


class TestOlderArchives:
    """Plan archives from builds that fused iterations into block
    descriptors are format 1: they carry extra ``kernel_*`` members, a
    ``kernel_block_size`` meta entry, the ``__checksums__`` digest
    table and, like every format 1–2 plan, copies of the store's
    per-sample state and moments.  They still load: every member, the
    table included, is checked by its zip CRC like any other, and the
    plan ignores the extra ones."""

    @staticmethod
    def _write_legacy_plan(tmp_path):
        data = make_regression(200, 12, seed=13)
        trainer = fit_trainer("linear", data, batch_size=6, method="priu")
        assert trainer.store.compression == "svd"
        plan = trainer._plan
        rng = np.random.default_rng(0)
        legacy = {
            "kernel_starts": np.array([0, 16], dtype=np.int64),
            "kernel_stops": np.array([16, 32], dtype=np.int64),
            "kernel_alphas": np.array([0.9, 0.9]),
            "kernel_row_offsets": np.array([0, 3, 6], dtype=np.int64),
            "kernel_left": rng.standard_normal((6, plan.n_params)),
            "kernel_right": rng.standard_normal((6, plan.n_params)),
            "kernel_offsets": rng.standard_normal((2, plan.n_params)),
        }
        arrays = {
            **plan.state_arrays(),
            **legacy,
            "final_weights": trainer.weights_,
        }
        meta = {**plan.state_meta(), "kernel_block_size": "16", "format": "1"}
        keys = sorted(meta)
        arrays["__plan_meta_keys__"] = np.array(keys)
        arrays["__plan_meta_values__"] = np.array([meta[k] for k in keys])
        arrays = with_plan_copies(arrays, trainer.store, trainer.labels, "1")
        assert "moments" in arrays and "base_sizes" in arrays
        store_path = save_store(trainer.store, tmp_path / "store.npz")
        plan_path = write_stored(tmp_path / "plan.npz", with_table(arrays))
        return trainer, store_path, plan_path

    def test_kernel_members_load_and_answer_like_a_fresh_compile(
        self, tmp_path
    ):
        trainer, store_path, plan_path = self._write_legacy_plan(tmp_path)
        reloaded = load_plan(
            plan_path,
            load_store(store_path),
            trainer.features,
            trainer.labels,
        )
        assert isinstance(reloaded.store.packed_index().samples, np.memmap)
        reloaded.verify_integrity()
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        assert_state_bit_identical(fresh, reloaded)
        sets = [[3, 17], [5], [40, 41, 42]]
        assert np.array_equal(reloaded.run(sets), fresh.run(sets))
        assert np.array_equal(
            reloaded.run_single([9]), fresh.run_single([9])
        )
        assert np.array_equal(reloaded.final_weights, trainer.weights_)

    @pytest.mark.parametrize("member", ["kernel_left", "__checksums__"])
    def test_corrupt_legacy_member_is_still_caught(self, tmp_path, member):
        trainer, store_path, plan_path = self._write_legacy_plan(tmp_path)
        corrupt_npz_member(plan_path, member)
        with pytest.raises(CheckpointCorruptionError):
            plan = load_plan(
                plan_path,
                load_store(store_path),
                trainer.features,
                trainer.labels,
            )
            plan.run([[3]])

    def test_block_size_entry_without_members_loads(
        self, tmp_path, monkeypatch
    ):
        """Dense-summary and sparse plans compiled no descriptors, so
        their older archives carry only the ``kernel_block_size`` entry."""
        data = make_sparse_binary_classification(
            260, 120, density=0.05, seed=15
        )
        trainer = fit_trainer("binary_logistic", data, method="priu")
        plan = trainer._plan
        meta = {**plan.state_meta(), "kernel_block_size": "16"}
        monkeypatch.setattr(plan, "state_meta", lambda: meta)
        reloaded = roundtrip_plan(trainer, tmp_path)
        reloaded.verify_integrity()
        assert_state_bit_identical(plan, reloaded)
        sets = [[3, 17], [5], [40, 41, 42]]
        assert np.array_equal(reloaded.run(sets), plan.run(sets))

    def test_older_checkpoint_directory_serves_identically(self, tmp_path):
        trainer, store_path, _ = self._write_legacy_plan(tmp_path)
        trainer.save_checkpoint(tmp_path / "checkpoint")
        plan_path = tmp_path / "checkpoint" / "plan.npz"
        (tmp_path / "plan.npz").replace(plan_path)
        with np.load(plan_path) as npz:
            assert "kernel_left" in npz.files
        restored = IncrementalTrainer.from_checkpoint(
            tmp_path / "checkpoint",
            trainer.features,
            trainer.labels,
            method="priu",
        )
        assert np.array_equal(restored.weights_, trainer.weights_)
        removed = [2, 9, 40]
        for method in ("priu", "priu-seq"):
            assert np.array_equal(
                restored.remove(removed, method=method).weights,
                trainer.remove(removed, method=method).weights,
            ), method


class TestTrainerCheckpoint:
    def test_checkpoint_roundtrip_serves_identically(self, tmp_path):
        data = make_binary_classification(260, 8, seed=31)
        trainer = fit_trainer(
            "binary_logistic", data, learning_rate=0.1, freeze_fraction=0.7
        )
        trainer.save_checkpoint(tmp_path)
        restored = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        assert np.array_equal(restored.weights_, trainer.weights_)
        removed = [2, 9, 40]
        for method in ("priu", "priu-seq", "priu-opt"):
            assert np.array_equal(
                restored.remove(removed, method=method).weights,
                trainer.remove(removed, method=method).weights,
            ), method

    def test_checkpoint_without_plan_recovers_weights(self, tmp_path):
        data = make_regression(150, 6, seed=32)
        trainer = fit_trainer("linear", data)
        trainer.save_checkpoint(tmp_path, include_plan=False)
        assert not (tmp_path / "plan.npz").exists()
        restored = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        # weights_ recovered by replaying the empty removal set.
        assert np.allclose(restored.weights_, trainer.weights_, atol=1e-10)
        assert np.array_equal(
            restored.remove([4], method="priu").weights,
            trainer.remove([4], method="priu").weights,
        )

    def test_wrong_training_data_rejected(self, tmp_path):
        data = make_regression(150, 6, seed=33)
        trainer = fit_trainer("linear", data)
        trainer.save_checkpoint(tmp_path)
        with pytest.raises(ValueError):
            IncrementalTrainer.from_checkpoint(
                tmp_path, data.features[:100], data.labels[:100]
            )


class TestCrossProcess:
    def test_fresh_process_answers_identically(self, tmp_path):
        """load_store + load_plan in a new interpreter == in-process path."""
        data = make_binary_classification(260, 8, seed=41)
        trainer = fit_trainer("binary_logistic", data, learning_rate=0.1)
        trainer.save_checkpoint(tmp_path)
        removed = np.array([3, 17, 99], dtype=np.int64)
        expected = trainer.remove(removed, method="priu").weights

        features_path = tmp_path / "features.npy"
        labels_path = tmp_path / "labels.npy"
        answer_path = tmp_path / "answer.npy"
        np.save(features_path, data.features)
        np.save(labels_path, data.labels)
        script = (
            "import numpy as np\n"
            "from repro.core import IncrementalTrainer\n"
            f"features = np.load({str(features_path)!r})\n"
            f"labels = np.load({str(labels_path)!r})\n"
            "trainer = IncrementalTrainer.from_checkpoint(\n"
            f"    {str(tmp_path)!r}, features, labels)\n"
            "outcome = trainer.remove([3, 17, 99], method='priu')\n"
            f"np.save({str(answer_path)!r}, outcome.weights)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
        )
        assert completed.returncode == 0, completed.stderr
        answer = np.load(answer_path)
        assert np.allclose(answer, expected, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# .npy format versions: np.save silently upgrades 1.0 -> 2.0 (header dict
# over 65535 bytes) and -> 3.0 (utf-8 field names).  The byte-offset mmap
# loader must parse all three layouts (the v1 header-length field is
# uint16, v2/v3 is uint32) or it maps data two bytes short of where it is.
class TestNpyFormatVersions:
    def _archive(self, tmp_path, members):
        """A ZIP_STORED archive with explicit .npy format versions."""
        path = tmp_path / "versions.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            for name, (array, version) in members.items():
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array, version=version)
                archive.writestr(name + ".npy", buffer.getvalue())
        return path

    def test_parse_header_every_major_version(self, tmp_path):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        for version in ((1, 0), (2, 0), (3, 0)):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array, version=version)
            raw = buffer.getvalue()
            parsed = _parse_npy_header(raw)
            assert parsed is not None, version
            shape, fortran, dtype, data_offset = parsed
            assert shape == (3, 4)
            assert not fortran
            assert dtype == np.float64
            # The data starts at the offset returned: reading from there
            # reproduces the array, whatever the header layout was.
            data = np.frombuffer(
                raw[data_offset : data_offset + array.nbytes], dtype=dtype
            ).reshape(shape)
            assert np.array_equal(data, array)

    def test_parse_header_rejects_unknown_major(self):
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.arange(3), version=(1, 0))
        raw = bytearray(buffer.getvalue())
        raw[6] = 9  # fake major version
        assert _parse_npy_header(bytes(raw)) is None

    #: One array of each dtype the store and the plan write (``<f8``,
    #: ``<i8``, ``<U…``), in every shape rank ``repr`` spells apart.
    WRITTEN_DTYPES = {
        "f8": np.linspace(0, 1, 30).reshape(5, 6),
        "i8": np.arange(20, dtype=np.int64).reshape(4, 5),
        "U": np.array(["5", "binary_logistic", "0.05", "none"]),
        "f8_3d": np.arange(24, dtype=np.float64).reshape(2, 3, 4),
        "i8_scalar": np.array(7, dtype=np.int64),
    }

    def test_mmap_members_of_every_version(self, tmp_path):
        members = {
            f"{name}_v{version[0]}": (array, version)
            for name, array in self.WRITTEN_DTYPES.items()
            for version in ((1, 0), (2, 0), (3, 0))
        }
        members["f4_v3"] = (np.arange(8, dtype=np.float32), (3, 0))
        members["v2_fortran"] = (
            np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4)),
            (2, 0),
        )
        path = self._archive(tmp_path, members)
        with _Archive(path) as archive:
            mapped = {name: archive.array(name) for name in members}
            archive.verify()
        for name, (array, _) in members.items():
            assert isinstance(mapped[name], np.memmap), name
            assert mapped[name].dtype == array.dtype, name
            assert mapped[name].shape == array.shape, name
            assert np.array_equal(mapped[name], array), name
        assert np.isfortran(mapped["v2_fortran"])

    def test_non_canonical_header_loads_through_zipfile(self, tmp_path):
        """A header numpy reads but does not write (keys reordered, extra
        spaces) is not the strict pattern: the member is read through
        zipfile, CRC-checked, with identical values."""
        array = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        text = "{ 'shape': (3,  4),'descr':'<f8', 'fortran_order' : True }"
        header = text.encode("latin1")
        header += b" " * (-(10 + len(header) + 1) % 64) + b"\n"
        payload = (
            b"\x93NUMPY\x01\x00"
            + len(header).to_bytes(2, "little")
            + header
            + array.tobytes(order="F")
        )
        assert _parse_npy_header(payload) is None
        path = tmp_path / "odd.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("odd.npy", payload)
        with _Archive(path) as archive:
            loaded = archive.array("odd")
            archive.verify()
        assert not isinstance(loaded, np.memmap)
        assert loaded.dtype == array.dtype and np.isfortran(loaded)
        assert np.array_equal(loaded, array)

    def test_header_claiming_more_than_its_entry_is_not_mapped(self, tmp_path):
        """A header edited to claim more elements than its zip entry holds
        would map the next entry's bytes as array data; the member is read
        through zipfile instead, and refused."""
        path = self._archive(
            tmp_path,
            {
                "short": (np.arange(4, dtype=np.float64), (1, 0)),
                "next": (np.arange(6, dtype=np.float64), (1, 0)),
            },
        )
        raw = path.read_bytes()
        assert raw.count(b"'shape': (4,)") == 1
        path.write_bytes(raw.replace(b"'shape': (4,)", b"'shape': (9,)"))
        with _Archive(path) as archive:
            following = archive["next"]
            with pytest.raises(CheckpointCorruptionError):
                archive.array("short")
            with pytest.raises(CheckpointCorruptionError, match="CRC"):
                archive.check("short")
        assert np.array_equal(following, np.arange(6, dtype=np.float64))

    def test_forced_v2_plan_serves_bit_identically(self, tmp_path):
        """Regression: a plan archive whose members carry 2.0 headers
        (as np.save emits for huge structured dtypes) must still be
        memory-mapped at the right offset and answer identically."""
        data = make_binary_classification(260, 8, seed=13)
        trainer = fit_trainer("binary_logistic", data, learning_rate=0.1)
        store_path = save_store(trainer.store, tmp_path / "store.npz")
        plan_path = save_plan(
            trainer._plan, tmp_path / "plan.npz", weights=trainer.weights_
        )
        # Rewrite every member with a forced 2.0 header, same content.
        with np.load(plan_path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        rewritten = tmp_path / "plan_v2.npz"
        with zipfile.ZipFile(rewritten, "w", zipfile.ZIP_STORED) as archive:
            for name, array in arrays.items():
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array, version=(2, 0))
                archive.writestr(name + ".npy", buffer.getvalue())

        store = load_store(store_path)
        reloaded = load_plan(rewritten, store, trainer.features, trainer.labels)
        assert isinstance(store.packed_index().samples, np.memmap)
        assert_state_bit_identical(trainer._plan, reloaded)
        removed = np.array([3, 17, 42], dtype=np.int64)
        expected = trainer._plan.run_single(removed)
        assert np.array_equal(reloaded.run_single(removed), expected)


# --------------------------------------------------------------------------
# Durable-write staging: the temp file must be created in the destination
# directory — os.replace is only atomic within one filesystem, and a temp
# staged in $TMPDIR dies with EXDEV the moment /tmp is a different mount.
class TestDurableTempPlacement:
    def test_temp_beside_destination(self):
        path = Path("/some/volume/checkpoints/plan.npz")
        temp = _temp_beside(path)
        assert temp.parent == path.parent
        assert temp.name.startswith(path.name)

    def test_store_write_stages_in_destination_dir(
        self, tmp_path, monkeypatch
    ):
        scratch = tmp_path / "other-filesystem-scratch"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        destination = tmp_path / "nested" / "store.npz"
        destination.parent.mkdir()
        staged = []

        def observe(event, path):
            if event.endswith("temp-written"):
                staged.append((Path(path), Path(path).exists()))

        previous = set_fault_hook(observe)
        try:
            data = make_regression(60, 4, seed=7)
            trainer = fit_trainer("linear", data, n_iterations=10)
            save_store(trainer.store, destination)
        finally:
            set_fault_hook(previous)
        assert staged, "durable write never announced its temp file"
        for temp, existed in staged:
            assert temp.parent == destination.parent
            assert existed
        assert destination.exists()
        assert not list(scratch.iterdir())  # $TMPDIR never touched


# --------------------------------------------------------------------------
# Shared read-only plan mappings: every load maps the archive itself.
class TestSharedPlanMapping:
    @pytest.fixture
    def plan_on_disk(self, tmp_path):
        data = make_binary_classification(260, 8, seed=13)
        trainer = fit_trainer("binary_logistic", data, learning_rate=0.1)
        trainer.save_checkpoint(tmp_path)
        return trainer, tmp_path

    def test_two_loads_both_map_the_plan_and_agree(self, plan_on_disk):
        trainer, directory = plan_on_disk
        first = IncrementalTrainer.from_checkpoint(
            directory, trainer.features, trainer.labels
        )
        second = IncrementalTrainer.from_checkpoint(
            directory, trainer.features, trainer.labels
        )
        assert isinstance(first.store.packed_index().samples, np.memmap)
        assert isinstance(second.store.packed_index().samples, np.memmap)
        removed = np.array([5, 9], dtype=np.int64)
        assert np.array_equal(
            first.remove(removed, method="priu").weights,
            second.remove(removed, method="priu").weights,
        )

    def test_rewrite_leaves_an_earlier_load_on_its_old_mapping(
        self, plan_on_disk
    ):
        """``save_checkpoint`` replaces the archives atomically (a new
        inode), so a trainer loaded before the rewrite keeps reading the
        bytes it mapped while a fresh load sees the committed model."""
        trainer, directory = plan_on_disk
        features, labels = trainer.features, trainer.labels
        before = IncrementalTrainer.from_checkpoint(directory, features, labels)
        probe = np.array([5, 9], dtype=np.int64)
        expected = before.remove(probe, method="priu").weights
        trainer.remove([2, 3, 4], method="priu", commit=True)
        trainer.save_checkpoint(directory)

        assert np.array_equal(
            before.remove(probe, method="priu").weights, expected
        )
        after = IncrementalTrainer.from_checkpoint(directory, features, labels)
        assert after.n_samples == trainer.n_samples == before.n_samples - 3
        assert np.array_equal(
            after.remove(probe, method="priu").weights,
            trainer.remove(probe, method="priu").weights,
        )
