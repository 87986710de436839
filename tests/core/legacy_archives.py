"""Checkpoint archives as builds before store format 5 wrote them.

Store formats 1–4 and plan format 1 carried a ``__checksums__`` member:
one ``name=digest`` line per member, sorted, where the digest is a
CRC-32 over the member's dtype/shape tag and then its C-order bytes.
The loaders now ignore the table, but a fixture that stands for an
older archive carries one, computed the way those builds did.
"""

import zlib
from pathlib import Path

import numpy as np

from repro.core import IncrementalTrainer, save_store
from repro.core.serialization import _write_npz


def digest_table(members: dict) -> np.ndarray:
    """The ``__checksums__`` member older builds wrote for ``members``."""
    lines = []
    for name, value in members.items():
        value = np.asarray(value)
        crc = zlib.crc32(f"{value.dtype.str}|{value.shape}".encode())
        crc = zlib.crc32(np.ascontiguousarray(value), crc)
        lines.append(f"{name}={crc:08x}")
    return np.array(sorted(lines))


def with_table(members: dict) -> dict:
    """``members`` and a digest table that matches them."""
    members = {n: v for n, v in members.items() if n != "__checksums__"}
    members["__checksums__"] = digest_table(members)
    return members


def write_stored(path, members: dict):
    """Write ``members`` stored and 64-byte aligned, as builds since the
    aligned layout have; returns ``path``."""
    with open(path, "wb") as handle:
        _write_npz(handle, members)
    return path


# Store format 6 holds each per-sample array once, as a column over
# ``record_offsets``; formats 1–5 wrote it record by record, under these
# names (``<name>_<t>``).
_RECORD_MEMBERS = {
    "batches": "batch",
    "slopes": "slopes",
    "intercepts": "intercepts",
    "probabilities": "probs",
    "wx": "wx",
}


def per_record_members(members: dict) -> dict:
    """A format-6 store's members with its columns and stacked moments
    split back into ``batch_<t>``, ``moment_<t>`` and the per-sample
    members of each record, as formats 1–5 wrote them (the caller
    stamps the version)."""
    members = dict(members)
    offsets = members.pop("record_offsets")
    for column, name in _RECORD_MEMBERS.items():
        if column in members:
            values = members.pop(column)
            for t in range(len(offsets) - 1):
                members[f"{name}_{t}"] = values[offsets[t] : offsets[t + 1]]
    for t, moment in enumerate(members.pop("moments")):
        members[f"moment_{t}"] = moment
    return members


def with_plan_copies(members: dict, store, labels, version: str = "2") -> dict:
    """A format-3 plan's members as plan formats 1–2 wrote them, for
    ``store`` (the one the plan serves, with its training ``labels``):
    beside the index and ``w0`` they carried the batch sizes, the record
    offsets, the stacked moments (sparse plans already hold theirs) and
    copies of the per-sample state, the binary intercepts pre-multiplied
    by the labels (``iy_flat``)."""
    columns = store.columns()
    members = dict(members)
    members["base_sizes"] = np.diff(columns.offsets)
    members["record_offsets"] = np.asarray(columns.offsets)
    members.setdefault(
        "moments",
        np.stack([np.ravel(record.moment) for record in store.records]),
    )
    if store.task == "binary_logistic":
        members["slopes_flat"] = np.array(columns.slopes)
        members["iy_flat"] = columns.intercepts * np.asarray(labels, float)[
            columns.batches
        ]
    elif store.task == "multinomial_logistic":
        members["probs_flat"] = np.array(columns.probabilities)
        members["wx_flat"] = np.array(columns.wx)
    keys = [str(key) for key in members["__plan_meta_keys__"]]
    values = [str(value) for value in members["__plan_meta_values__"]]
    values[keys.index("format")] = version
    members["__plan_meta_values__"] = np.array(values)
    return members


def sparse_multinomial_store(directory, features, labels):
    """``directory/store.npz`` as builds that still captured a
    multinomial model over sparse features wrote it: the dense
    trajectory's per-sample state and moments, no summaries, compression
    ``"sparse"``, and no plan beside it (those builds compiled none).
    ``features`` is the CSR training matrix; returns the store."""
    trainer = IncrementalTrainer(
        "multinomial_logistic", learning_rate=0.05, regularization=0.01,
        batch_size=20, n_iterations=12, n_classes=3, seed=0, method="priu",
    )
    trainer.fit(features.toarray(), labels)
    store = trainer.store
    store.sparse_mode, store.compression = True, "sparse"
    for record in store.records:
        record.summary = None
    save_store(store, Path(directory) / "store.npz")
    return store
