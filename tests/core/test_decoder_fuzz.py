"""Seeded decoder fuzzing of the checkpoint archives.

Every single-bit flip or truncation of a small store archive and a small
plan archive must do one of two things:

* load with every member equal to the original (and, for the plan,
  answer identically on its first replay), or
* raise :class:`CheckpointCorruptionError` — at load, or, for a plan
  member that is memory-mapped and so checked lazily, on the first
  replay.

Any other exception (zipfile's ``NotImplementedError`` or
``RuntimeError``, numpy's ``ValueError``, ...) would be retried by the
fleet as a transient failure instead of opening the model's breaker.
"""

import zipfile

import numpy as np
import pytest

from repro.core import (
    CheckpointCorruptionError,
    IncrementalTrainer,
    load_plan,
    load_store,
    save_store,
)
from repro.datasets import make_regression

N_FLIPS = 300
N_TRUNCATIONS = 40
SETS = [[1, 7], [3], [0, 12, 25]]


def mutations(raw: bytes, seed: int):
    """Seeded single-bit flips, then truncations, of ``raw``."""
    rng = np.random.default_rng(seed)
    for _ in range(N_FLIPS):
        at = int(rng.integers(len(raw)))
        bit = int(rng.integers(8))
        mutated = bytearray(raw)
        mutated[at] ^= 1 << bit
        yield f"flip bit {bit} of byte {at}", bytes(mutated)
    for _ in range(N_TRUNCATIONS):
        size = int(rng.integers(len(raw)))
        yield f"truncate to {size} bytes", raw[:size]


def archive_members(path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def fortran_members(path) -> list[str]:
    """Members whose ``.npy`` header says ``fortran_order: True``."""
    names = []
    with zipfile.ZipFile(path) as archive:
        for name in archive.namelist():
            with archive.open(name) as member:
                read_header = (
                    np.lib.format.read_array_header_1_0
                    if np.lib.format.read_magic(member) == (1, 0)
                    else np.lib.format.read_array_header_2_0
                )
                _, fortran, _ = read_header(member)
            if fortran:
                names.append(name)
    return names


def same_arrays(actual: dict, expected: dict) -> bool:
    return actual.keys() == expected.keys() and all(
        actual[name].dtype == value.dtype
        and np.array_equal(actual[name], value)
        for name, value in expected.items()
    )


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A small linear SVD checkpoint with one committed deletion."""
    data = make_regression(90, 12, seed=5)
    trainer = IncrementalTrainer(
        "linear",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=6,
        n_iterations=8,
        seed=0,
        max_dense_params=20,
    )
    trainer.fit(data.features, data.labels)
    trainer.remove([4, 50], commit=True)
    assert trainer.store.compression == "svd"
    directory = tmp_path_factory.mktemp("fuzz")
    trainer.save_checkpoint(directory)
    return trainer, directory


def test_store_mutations_load_identically_or_raise_typed(checkpoint, tmp_path):
    _, directory = checkpoint
    original = directory / "store.npz"
    # The committed records' widened factors are column-major, so the
    # mutations below also reach the Fortran-order header branch.
    assert fortran_members(original)
    expected = archive_members(original)
    resaved = save_store(load_store(original), tmp_path / "resaved.npz")
    assert same_arrays(archive_members(resaved), expected)

    untyped, wrong = [], []
    for i, (label, raw) in enumerate(mutations(original.read_bytes(), seed=19)):
        path = tmp_path / f"store-{i}.npz"
        path.write_bytes(raw)
        try:
            store = load_store(path)
        except CheckpointCorruptionError:
            continue
        except Exception as exc:
            untyped.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        resaved = save_store(store, tmp_path / f"resaved-{i}.npz")
        if not same_arrays(archive_members(resaved), expected):
            wrong.append(label)
    assert not untyped, untyped
    assert not wrong, wrong


def test_plan_mutations_answer_identically_or_raise_typed(
    checkpoint, tmp_path
):
    trainer, directory = checkpoint
    features, labels = trainer.features, trainer.labels
    store_path = directory / "store.npz"
    original = load_plan(
        directory / "plan.npz", load_store(store_path), features, labels
    )
    expected_answer = original.run(SETS)
    expected_state = original.state_arrays()
    assert np.array_equal(expected_answer, trainer._plan.run(SETS))

    raw_plan = (directory / "plan.npz").read_bytes()
    untyped, wrong = [], []
    for i, (label, raw) in enumerate(mutations(raw_plan, seed=23)):
        path = tmp_path / f"plan-{i}.npz"
        path.write_bytes(raw)
        try:
            plan = load_plan(path, load_store(store_path), features, labels)
            answer = plan.run(SETS)
        except CheckpointCorruptionError:
            continue
        except Exception as exc:
            untyped.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if not (
            np.array_equal(answer, expected_answer)
            and same_arrays(plan.state_arrays(), expected_state)
            and np.array_equal(plan.final_weights, original.final_weights)
        ):
            wrong.append(label)
    assert not untyped, untyped
    assert not wrong, wrong
