"""Checkpoint archives as builds before store format 5 wrote them.

Store formats 1–4 and plan format 1 carried a ``__checksums__`` member:
one ``name=digest`` line per member, sorted, where the digest is a
CRC-32 over the member's dtype/shape tag and then its C-order bytes.
The loaders now ignore the table, but a fixture that stands for an
older archive carries one, computed the way those builds did.
"""

import zlib

import numpy as np

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
