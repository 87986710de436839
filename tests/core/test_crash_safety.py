"""Crash-safety sweep for the durable checkpoint protocol.

The contract under test: a process killed at *any* instrumented fault
point of ``save_checkpoint`` leaves a directory that reloads to the
bit-exact pre-save or post-save state — never a torn mix — and the
recovered trainer's incremental answers still match retrain-from-scratch
at 1e-10 (the linear task is exact, so any corruption shows up as a hard
numeric miss, not tolerance noise).  Corrupted archives must be rejected
with :class:`CheckpointCorruptionError` — eagerly for members read into
memory, on first replay for memory-mapped plan members.
"""

import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CheckpointCorruptionError,
    IncrementalTrainer,
    load_plan,
    load_store,
    recover_checkpoint,
    save_plan,
    save_store,
)
from repro.core.serialization import CHECKPOINT_JOURNAL, staged_path
from repro.datasets import make_regression
from repro.testing import (
    FaultInjector,
    SimulatedCrash,
    corrupt_npz_member,
    record_fault_points,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DATA = make_regression(240, 6, noise=0.05, seed=31)
REMOVED = [3, 17, 42, 88, 120]
PROBE = [5, 61, 99]


def fit_linear():
    trainer = IncrementalTrainer(
        "linear",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=25,
        n_iterations=40,
        seed=0,
        method="priu",
    )
    trainer.fit(DATA.features, DATA.labels)
    return trainer


def assert_answers_exact(trainer):
    incremental = trainer.remove(PROBE, method="priu").weights
    scratch = trainer.retrain(PROBE).weights
    np.testing.assert_allclose(incremental, scratch, atol=1e-10)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A committed-on-disk checkpoint plus its fitted weights."""
    directory = tmp_path_factory.mktemp("pristine") / "ckpt"
    trainer = fit_linear()
    trainer.save_checkpoint(directory)
    return directory, trainer.weights_.copy()


class TestCrashSweep:
    def test_every_crash_point_reloads_pre_or_post_state(
        self, pristine, tmp_path
    ):
        pristine_dir, w0 = pristine
        features, labels = DATA.features, DATA.labels

        # Enumerate the protocol's kill points on a throwaway copy.
        scratch = tmp_path / "scratch"
        shutil.copytree(pristine_dir, scratch)
        trainer = IncrementalTrainer.from_checkpoint(
            scratch, features, labels
        )
        trainer.remove(REMOVED, commit=True)
        points = record_fault_points(
            lambda: trainer.save_checkpoint(scratch)
        )
        w1 = trainer.weights_.copy()
        assert not np.array_equal(w0, w1)

        # The enumeration must span the whole protocol: durable member
        # writes, the journal commit point, and the rename replay.
        for expected in (
            "store.begin",
            "store.renamed",
            "plan.renamed",
            "journal.renamed",
            "commit.rename.store.npz",
            "commit.done",
        ):
            assert expected in points, points
        assert len(points) >= 12

        outcomes = set()
        for step, point in enumerate(points):
            work = tmp_path / f"work-{step}"
            shutil.copytree(pristine_dir, work)
            trainer = IncrementalTrainer.from_checkpoint(
                work, features, labels
            )
            trainer.remove(REMOVED, commit=True)
            assert np.array_equal(trainer.weights_, w1)

            with FaultInjector().crash_at_step(step).installed():
                with pytest.raises(SimulatedCrash):
                    trainer.save_checkpoint(work)

            # A "fresh process": reload from disk only, with the
            # *original* training data (the commit log picks survivors).
            reloaded = IncrementalTrainer.from_checkpoint(
                work, features, labels
            )
            weights = reloaded.weights_
            if np.array_equal(weights, w0):
                outcomes.add("pre")
            elif np.array_equal(weights, w1):
                outcomes.add("post")
            else:
                pytest.fail(
                    f"crash at {point!r} (step {step}) reloaded to "
                    "neither the pre- nor the post-commit state"
                )
            assert_answers_exact(reloaded)
            # Recovery settled the directory: no staging strays, no
            # journal, and the next save starts clean.
            assert not (work / CHECKPOINT_JOURNAL).exists()
            assert not list(work.glob("*.new")) and not list(
                work.glob("*.tmp")
            )

        # Both sides of the commit point must actually be exercised.
        assert outcomes == {"pre", "post"}

    def test_hard_exit_during_commit_rolls_forward(self, pristine, tmp_path):
        """A real no-cleanup death (``os._exit``) mid-commit, in a child
        process: the journal has landed, so recovery rolls forward."""
        pristine_dir, _w0 = pristine
        work = tmp_path / "work"
        shutil.copytree(pristine_dir, work)

        # The expected post-commit weights, computed independently.
        reference = IncrementalTrainer.from_checkpoint(
            work, DATA.features, DATA.labels
        )
        reference.remove(REMOVED, commit=True)
        w1 = reference.weights_.copy()

        child = f"""
import numpy as np
from repro.core import IncrementalTrainer
from repro.datasets import make_regression
from repro.testing import FaultInjector

data = make_regression(240, 6, noise=0.05, seed=31)
trainer = IncrementalTrainer.from_checkpoint(
    {str(work)!r}, data.features, data.labels
)
trainer.remove({REMOVED!r}, commit=True)
with FaultInjector().exit_at("commit.rename.*").installed():
    trainer.save_checkpoint({str(work)!r})
raise SystemExit("unreachable: exit_at should have killed the process")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        result = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 42, result.stderr
        # The child died after the journal landed but before any rename:
        # the staged files and journal are still there.
        assert (work / CHECKPOINT_JOURNAL).exists()
        assert staged_path(work, "store.npz").exists()

        reloaded = IncrementalTrainer.from_checkpoint(
            work, DATA.features, DATA.labels
        )
        assert np.array_equal(reloaded.weights_, w1)
        assert not (work / CHECKPOINT_JOURNAL).exists()
        assert_answers_exact(reloaded)


def _largest_member(path):
    with zipfile.ZipFile(path) as archive:
        infos = [
            info
            for info in archive.infolist()
            if not info.filename.startswith("__")
        ]
    biggest = max(infos, key=lambda info: info.compress_size)
    return biggest.filename.removesuffix(".npy")


class TestCorruptionDetection:
    def test_corrupt_store_member_rejected(self, tmp_path):
        trainer = fit_linear()
        path = save_store(trainer.store, tmp_path / "store.npz")
        corrupt_npz_member(path, _largest_member(path))
        with pytest.raises(CheckpointCorruptionError):
            load_store(path)

    def test_corrupt_checkpoint_rejected_end_to_end(self, pristine, tmp_path):
        pristine_dir, _w0 = pristine
        work = tmp_path / "work"
        shutil.copytree(pristine_dir, work)
        store = work / "store.npz"
        corrupt_npz_member(store, _largest_member(store))
        with pytest.raises(CheckpointCorruptionError):
            IncrementalTrainer.from_checkpoint(
                work, DATA.features, DATA.labels
            )

    def test_corrupt_mmapped_plan_member_rejected_on_first_run(
        self, tmp_path
    ):
        trainer = fit_linear()
        store_path = save_store(trainer.store, tmp_path / "store.npz")
        plan_path = save_plan(
            trainer._plan, tmp_path / "plan.npz", weights=trainer.weights_
        )
        corrupt_npz_member(plan_path, "index_positions")

        store = load_store(store_path)
        # Mapping defers the integrity sweep: the load itself succeeds.
        plan = load_plan(plan_path, store, trainer.features, trainer.labels)
        assert isinstance(store.packed_index().positions, np.memmap)
        with pytest.raises(CheckpointCorruptionError):
            plan.run([[0, 3], [7]])
        # The failed check is not forgotten: replays keep refusing.
        with pytest.raises(CheckpointCorruptionError):
            plan.run([[0, 3], [7]])

    def test_corrupt_final_weights_rejected_at_load(self, tmp_path):
        """The embedded weights are served by the restore itself, so
        they are checked eagerly, mapped or not."""
        trainer = fit_linear()
        store_path = save_store(trainer.store, tmp_path / "store.npz")
        plan_path = save_plan(
            trainer._plan, tmp_path / "plan.npz", weights=trainer.weights_
        )
        corrupt_npz_member(plan_path, "final_weights")
        store = load_store(store_path)
        with pytest.raises(CheckpointCorruptionError, match="final_weights"):
            load_plan(plan_path, store, trainer.features, trainer.labels)


class TestJournalRecovery:
    def test_clean_directory_is_a_noop(self, tmp_path):
        assert recover_checkpoint(tmp_path) is None
        assert recover_checkpoint(tmp_path / "missing") is None

    def test_strays_without_journal_are_swept(self, tmp_path):
        (tmp_path / "store.npz").write_bytes(b"old-store")
        staged_path(tmp_path, "store.npz").write_bytes(b"new-store")
        (tmp_path / "plan.npz.tmp").write_bytes(b"half-written")

        assert recover_checkpoint(tmp_path) == "cleaned"
        assert (tmp_path / "store.npz").read_bytes() == b"old-store"
        assert not staged_path(tmp_path, "store.npz").exists()
        assert not (tmp_path / "plan.npz.tmp").exists()

    def test_journal_rolls_staged_members_forward(self, tmp_path):
        (tmp_path / "store.npz").write_bytes(b"old-store")
        (tmp_path / "plan.npz").write_bytes(b"old-plan")
        staged_path(tmp_path, "store.npz").write_bytes(b"new-store")
        staged_path(tmp_path, "plan.npz").write_bytes(b"new-plan")
        (tmp_path / CHECKPOINT_JOURNAL).write_text(
            "v1\nstore.npz\nplan.npz\n", encoding="utf-8"
        )

        assert recover_checkpoint(tmp_path) == "rolled-forward"
        assert (tmp_path / "store.npz").read_bytes() == b"new-store"
        assert (tmp_path / "plan.npz").read_bytes() == b"new-plan"
        assert not (tmp_path / CHECKPOINT_JOURNAL).exists()
        assert recover_checkpoint(tmp_path) is None

    def test_replay_is_idempotent_after_partial_rename(self, tmp_path):
        # Crash mid-replay: store.npz was already renamed, plan.npz was
        # not.  Recovery must finish the job without disturbing members
        # whose staged file is gone.
        (tmp_path / "store.npz").write_bytes(b"new-store")
        (tmp_path / "plan.npz").write_bytes(b"old-plan")
        staged_path(tmp_path, "plan.npz").write_bytes(b"new-plan")
        (tmp_path / CHECKPOINT_JOURNAL).write_text(
            "v1\nstore.npz\nplan.npz\n", encoding="utf-8"
        )

        assert recover_checkpoint(tmp_path) == "rolled-forward"
        assert (tmp_path / "store.npz").read_bytes() == b"new-store"
        assert (tmp_path / "plan.npz").read_bytes() == b"new-plan"
        assert not (tmp_path / CHECKPOINT_JOURNAL).exists()
