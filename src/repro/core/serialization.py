"""Persisting provenance stores and compiled replay plans.

The offline capture can be expensive (it shadows a full training run), so a
real deployment saves the store next to the model checkpoint and reloads it
when a deletion request arrives — possibly in a different process, days
later.  Two artifacts cover the whole serving state:

* :func:`save_store` / :func:`load_store` — the provenance store itself,
  packed into a single ``.npz``: the per-sample columns (batch ids and
  per-sample coefficients, one member each), the stacked moments, the
  summaries (dense or SVD factors), frozen PrIU-opt state, and the
  schedule metadata needed to rebuild it bit-for-bit.
* :func:`save_plan` / :func:`load_plan` — what the *compiled*
  :class:`~repro.core.replay_plan.ReplayPlan` derives beyond the store
  (the packed occurrence index; sparse mode's base moments).  A fresh
  process goes checkpoint → plan → first answered request without
  re-running capture *or* compilation.

Both archives are written the same way: **uncompressed** zip members whose
``.npy`` payloads start on a 64-byte file offset, so every array's data is
64-byte aligned in the file.  That lets a loader memory-map the arrays
straight out of the archive (``numpy`` itself ignores ``mmap_mode`` for zip
archives, so the loader maps each stored member by its byte offset), and
the mapped arrays are as aligned as freshly allocated ones.

Both formats carry an explicit version number; loaders reject versions they
do not understand instead of misinterpreting the layout (rules in
``docs/architecture.md``).

Durability (the failure model lives in ``docs/architecture.md``, "Failure
model & recovery"):

* Every archive write goes write-temp → flush → fsync → atomic rename, so
  a crash at any point leaves either the old file or the new one on disk,
  never a torn mix.  Writers never modify an archive in place, which is
  what makes mapping it safe.
* Every archive is read through one reader (:class:`_Archive`), and the
  CRC-32 zipfile records for each member is the integrity check:
  :func:`load_store` checks every member once, before it returns, the
  bulk of them on two checkers while it decodes;
  :func:`load_plan` checks the plan members it memory-maps *lazily*, on
  the plan's first replay.  A mismatch, an entry whose local header or
  place in the file disagrees with the directory, or any archive bytes
  that do not decode, raises :class:`CheckpointCorruptionError` — bit rot
  is *detected*, never served.
* Multi-file checkpoints (``store.npz`` + ``plan.npz``) commit through a
  sidecar journal (:func:`commit_checkpoint` / :func:`recover_checkpoint`)
  so the pair flips old→new atomically even across two renames.

All crash points funnel through a module fault hook
(:func:`set_fault_hook`) so ``repro.testing.faults`` can kill or fail the
write at every step and tests can prove the old-or-new guarantee.
"""

from __future__ import annotations

import functools
import math
import os
import re
import struct
import threading
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..linalg.svd import TruncatedSummary, summary_from_factor_pair
from ..models.batching import BatchSchedule
from .provenance_store import (
    COLUMN_FIELDS,
    CommitReceipt,
    FrozenProvenance,
    LinearRecord,
    LogisticRecord,
    MultinomialRecord,
    ProvenanceStore,
    SampleColumns,
)
from .replay_plan import ReplayPlan

# Store format 2 (PR 3) adds commit bookkeeping: ``__meta__`` grows an
# ``n_original_samples`` entry, a ``__deletion_log__`` array records the
# cumulative committed removals in original id space, and the schedule kind
# may be ``"materialized"`` (batches reconstructed from the records rather
# than regenerated from the seed).  Format 3 (PR 5) adds the maintenance
# and audit state: ``__receipts__`` (per-commit audit receipts, one row per
# commit, ids recovered from the deletion log), ``__svd_corrections__``
# (per-record correction-column counters), and the frozen PrIU-opt lazy
# eigen state (``__frozen_meta__`` grows an ``eigen_stale`` flag).  Older
# format-3 archives may also carry ``frozen_pending_rows`` /
# ``frozen_pending_weights`` (removed rows kept for an incremental eigen
# correction that no longer exists); they are checked like any other
# member and ignored.  Format 4 stores an SVD summary in eigen form,
# ``summary_<t>_right`` (the basis) and ``summary_<t>_weights`` (its
# eigenvalues), where formats 1–3 stored ``summary_<t>_left`` =
# ``right · diag(weights)`` beside the basis; those load through
# :func:`~repro.linalg.svd.summary_from_factor_pair`.  Format 5 (and plan
# format 2) drops the ``__checksums__`` digest table formats 1–4 (and
# plan format 1) carried: the CRC-32 zipfile records for every member is
# the one check.  An older build maps plan members whether or not a
# table is present but checks them only against one, so it would serve a
# table-less plan unchecked: the versions move (rule 2).  Formats 1–4
# still load; their table is ignored, its bytes checked by their CRC like
# any other member's.  Writing the members
# stored instead of deflated (and padding them to 64-byte offsets)
# changes no member, meaning, dtype or metadata encoding, so it is no
# format break: every zip reader inflates or copies a member alike.
# Format 6 holds each per-sample array once, as a column over
# ``record_offsets``: ``batches``, ``slopes``/``intercepts`` (binary) or
# ``probabilities``/``wx`` (multinomial), one member each, plus one stacked
# ``moments`` of shape ``(τ, ·)``, where formats 1–5 wrote ``batch_<t>``,
# ``moment_<t>`` and the per-sample members record by record; summaries
# and the ``__`` members keep their format-5 encoding.  Plan format 3
# holds only what the plan derives beyond the store — ``index_*``, ``w0``,
# ``final_weights`` and sparse mode's ``moments`` — where formats 1–2
# also copied the per-sample state (``*_flat``), the dense moments,
# ``base_sizes`` and ``record_offsets``; those are checked and ignored.
_FORMAT_VERSION = 6
_SUPPORTED_VERSIONS = (1, 2, 3, 4, 5, 6)
_PLAN_FORMAT_VERSION = 3
_SUPPORTED_PLAN_VERSIONS = (1, 2, 3)

# Sidecar journal for multi-file checkpoint commits (store.npz + plan.npz
# flipped old->new atomically): present means "roll the staged *.new files
# forward", absent means any stray staged file belongs to an interrupted
# save and is discarded.  A ``v2`` journal ends in ``_JOURNAL_END``, so a
# journal cut short at a line boundary cannot read as a complete one
# listing fewer members; ``v1`` (no terminator) is what older builds
# wrote, and a save of theirs may still be in flight.
CHECKPOINT_JOURNAL = "checkpoint.journal"
_STAGED_SUFFIX = ".new"
_JOURNAL_END = "end"


class CheckpointCorruptionError(ValueError):
    """A checkpoint artifact failed structural or checksum validation.

    Raised instead of silently serving wrong answers when an archive is
    truncated, bit-rotten, or torn.  Subclasses :class:`ValueError` so
    pre-existing ``except ValueError`` checkpoint-validation handlers
    keep working.
    """


# ------------------------------------------------------------- fault hook
# A single injection point for crash/fault testing: every durability-
# relevant step below announces itself as ``_fault("<tag>.<step>", path)``.
# The production hook is None (zero overhead beyond one global read);
# ``repro.testing.faults.FaultInjector`` installs itself here to kill or
# fail the write mid-protocol.
_FAULT_HOOK = None


def set_fault_hook(hook):
    """Install a ``hook(event: str, path: Path)`` callable; returns the
    previous hook (restore it when done)."""
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    return previous


def _fault(event: str, path) -> None:
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(event, path)


# ---------------------------------------------------------- durable writes
def _temp_beside(path: Path) -> Path:
    """The temp-file path for a durable write of ``path``.

    The temp file must live in the *destination* directory, never in
    ``$TMPDIR``: ``os.replace`` only commits atomically within one
    filesystem, and a cross-device rename raises ``EXDEV`` outright.
    Every durable write in this module (and any new write path added to
    the project) goes through this helper so the invariant holds
    regardless of where the environment points its scratch space.
    """
    return path.with_name(path.name + ".tmp")


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (best effort; no-op off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# Every member's ``.npy`` payload starts on a multiple of this file offset,
# and the ``.npy`` header pads the array data to the same multiple within
# the payload, so a mapped array is 64-byte aligned.  numpy runs a matmul
# outside BLAS when an operand is unaligned: slower, and different in the
# last bits from the same product on an allocated array.
_MEMBER_ALIGNMENT = 64
# The padding travels in a local-header extra field under the id Android's
# ``zipalign`` uses: the field's id and size, a u16 alignment, then zero
# bytes, so the shortest padding field is 6 bytes.
_ALIGNMENT_EXTRA_ID = 0xD935
_ALIGNMENT_EXTRA_MIN = 6
# Bytes of a local file header before its name and extra field, and the
# zip64 extra field ``zipfile`` appends to a header opened with
# ``force_zip64`` (needed because a member's size is unknown when its
# header is written).
_LOCAL_HEADER_SIZE = 30
_ZIP64_EXTRA_SIZE = 20


def _aligned_entry(name: str, header_offset: int) -> zipfile.ZipInfo:
    """A stored zip entry whose payload starts 64-byte aligned when its
    local header is written at ``header_offset``."""
    entry = zipfile.ZipInfo(name)
    unpadded = (
        header_offset
        + _LOCAL_HEADER_SIZE
        + len(name.encode("utf-8"))
        + _ZIP64_EXTRA_SIZE
    )
    pad = -unpadded % _MEMBER_ALIGNMENT
    if pad < _ALIGNMENT_EXTRA_MIN:
        pad += _MEMBER_ALIGNMENT
    entry.extra = struct.pack(
        "<HHH", _ALIGNMENT_EXTRA_ID, pad - 4, _MEMBER_ALIGNMENT
    ) + bytes(pad - _ALIGNMENT_EXTRA_MIN)
    return entry


def _write_npz(handle, arrays: dict) -> None:
    """Write ``arrays`` to ``handle`` as an uncompressed, aligned ``.npz``.

    The same archive ``np.savez`` writes (``ZIP_STORED`` members named
    ``<key>.npy``, any reader loads it) except that each member's payload
    starts on a 64-byte file offset.
    """
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
        for name, value in arrays.items():
            entry = _aligned_entry(name + ".npy", handle.tell())
            with archive.open(entry, "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False
                )


def _durable_savez(path: Path, arrays: dict, *, tag: str) -> None:
    """Write an ``.npz`` crash-atomically: temp file → fsync → rename.

    The archive (:func:`_write_npz`) is written through an open file
    handle, fsynced, then renamed over ``path`` with ``os.replace`` —
    atomic on POSIX, so a reader never observes a half-written archive
    and a crash leaves either the old file or the new one.  The rename
    also leaves any mapping of the old file intact: its inode lives on
    until the last mapping goes.  The temp file is left behind on a crash
    by design (it is the *evidence* of an interrupted write);
    :func:`recover_checkpoint` sweeps it.
    """
    temp = _temp_beside(path)
    _fault(f"{tag}.begin", path)
    with open(temp, "wb") as handle:
        _write_npz(handle, arrays)
        handle.flush()
        _fault(f"{tag}.temp-written", temp)
        os.fsync(handle.fileno())
    _fault(f"{tag}.temp-synced", temp)
    os.replace(temp, path)
    _fault(f"{tag}.renamed", path)
    _fsync_dir(path.parent)


# ------------------------------------------------------------------ reading
def _unreadable(path: Path, exc: Exception) -> CheckpointCorruptionError:
    return CheckpointCorruptionError(
        f"checkpoint archive {path} is unreadable "
        f"(truncated or torn write?): {exc}"
    )


_NPY_MAGIC = b"\x93NUMPY"
# The header ``np.lib.format`` writes for an array of a plain dtype: its
# three keys in sorted order, each value spelled as ``repr`` spells it,
# then the spaces and newline that pad the payload to a 64-byte boundary.
# A dimension has no leading zero and fits in 19 digits.
_NPY_DIM = rb"(?:0|[1-9][0-9]{0,18})"
_NPY_HEADER = re.compile(
    rb"\{'descr': '([<>|][biufcSUV][0-9]{1,9})', "
    rb"'fortran_order': (False|True), "
    rb"'shape': \((|" + _NPY_DIM + rb",|" + _NPY_DIM
    + rb"(?:, " + _NPY_DIM + rb")+)\), \} *\n"
)


def _parse_npy_header(raw):
    """Parse the ``.npy`` header at the start of ``raw``, any format version.

    ``raw`` is any bytes-like object holding the payload (a slice of the
    archive's mapping, for a member).  ``np.save`` writes format 1.0 by
    default but *silently* upgrades to 2.0 when the header dict exceeds
    65535 bytes and to 3.0 when a field name needs utf-8, and the
    header-length field is ``uint16`` in 1.0 and ``uint32`` after: an
    offset parser that assumes the 1.0 layout maps data two bytes short.

    The dict must read exactly as ``np.lib.format`` writes it for a plain
    dtype (:data:`_NPY_HEADER`), in the dtype's own spelling (``'|f8'``
    for ``'<f8'`` does not match).  Returns ``(shape, fortran_order,
    dtype, data_offset)``, or ``None`` for anything else, including a
    valid header numpy reads but does not write, such as one with its
    keys reordered: the reader then goes through zipfile, whose own
    parser handles it.  Never raises.
    """
    head = bytes(raw[:12])
    if head[:6] != _NPY_MAGIC or len(head) < 10:
        return None
    if head[6] == 1:
        start = 10
    elif head[6] in (2, 3) and len(head) == 12:
        start = 12
    else:
        return None
    end = start + int.from_bytes(head[8:start], "little")
    match = _NPY_HEADER.fullmatch(bytes(raw[start:end]))
    if match is None:
        return None
    descr, fortran, dims = match.groups()
    dtype = _npy_dtype(descr)
    if dtype is None:
        return None
    shape = tuple(int(n) for n in dims.split(b",") if n)
    return shape, fortran == b"True", dtype, end


@functools.lru_cache(maxsize=64)
def _npy_dtype(descr: bytes) -> np.dtype | None:
    """The dtype ``descr`` spells, if it is that dtype's own spelling."""
    try:
        dtype = np.dtype(descr.decode("ascii"))
    except (TypeError, ValueError):
        return None
    return dtype if dtype.str.encode("ascii") == descr else None


def _mmap_member(
    mapping: np.ndarray, info: zipfile.ZipInfo, payload: int
) -> np.ndarray | None:
    """One stored zip member's ``.npy`` array as a view of ``mapping``.

    ``payload`` is the file offset of the member's stored bytes.  Returns
    None unless the member is ``ZIP_STORED`` and its ``.npy`` header
    describes exactly the bytes its zip entry holds (header plus
    ``prod(shape)·itemsize`` equals the entry's size): a header that
    claims more would map bytes of the next entry.  :class:`_Archive`
    reads such a member through zipfile instead.  Reads nothing but
    ``mapping``.
    """
    if (
        info.compress_type != zipfile.ZIP_STORED
        or info.file_size != info.compress_size
    ):
        return None
    parsed = _parse_npy_header(mapping.data[payload : payload + info.file_size])
    if parsed is None:
        return None
    shape, fortran, dtype, header_size = parsed
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes == 0 or header_size + nbytes != info.file_size:
        return None
    return np.ndarray.__new__(
        np.memmap,
        shape,
        dtype=dtype,
        buffer=mapping,
        offset=payload + header_size,
        order="F" if fortran else "C",
    )


class _Archive:
    """A checkpoint archive opened for reading: one open, one directory
    parse (zipfile's), one read-only mapping of the whole file.

    A member :func:`_mmap_member` can map is handed out as a view of that
    mapping and checked by :meth:`check` or a sweep: ``zlib.crc32`` over
    its stored bytes (the ``.npy`` header and data) against the CRC-32
    its directory entry records.  Any other member (deflated, as every
    store written before the aligned layout is; zero-size; or with a
    header that does not describe its entry) is read through zipfile,
    which checks that CRC itself.  The mapping, and so :meth:`check` and
    :meth:`verify`, outlives :meth:`close`.

    :meth:`sweeping` checks every member not checked yet on two checkers,
    the caller and one helper thread, largest member first:
    ``zlib.crc32`` releases the GIL on buffers over 5 KiB, so the two
    run in parallel.  The helper reads nothing but the mapping; zipfile
    reads go through the file handle, on the caller's thread only.

    A CRC covers a member's bytes, not its name or its place, so two
    checks run at open on every entry: its local header carries its
    directory name, and the entries, in file order, account for every
    byte before the central directory.  A damaged directory that renames
    a member, or stops listing some (a flipped comment length swallows
    the entries after it), fails there instead of loading without them.
    Archives come from a seekable writer (zipfile, numpy), so no data
    descriptor sits between entries.

    Whatever does not decode raises :class:`CheckpointCorruptionError`;
    a missing file stays ``FileNotFoundError``.
    """

    def __init__(self, path: Path):
        self.path = path
        self._handle = open(path, "rb")
        try:
            self._zip = zipfile.ZipFile(self._handle)
            self._mapping = np.memmap(self._handle, mode="r")
            self._entries = self._read_directory()
        except Exception as exc:
            self._handle.close()
            raise _unreadable(path, exc) from exc
        self._arrays: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self._checked: set[str] = set()  # guarded-by: _lock
        # The sweep's work list, smallest member first (checkers pop the
        # largest), and the mismatches it found, by member.
        self._queue: list[str] = []  # guarded-by: _lock
        self._mismatches: dict[str, str] = {}  # guarded-by: _lock

    def __enter__(self) -> "_Archive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._zip.close()
        self._handle.close()

    def _read_directory(self) -> dict[str, tuple[zipfile.ZipInfo, int]]:
        """Each member's entry and the file offset of its stored bytes,
        once the name and tiling checks pass."""
        raw = self._mapping.data
        entries = {}
        offset = 0
        for info in sorted(self._zip.infolist(), key=lambda i: i.header_offset):
            local = bytes(raw[offset : offset + _LOCAL_HEADER_SIZE])
            if (
                info.header_offset != offset
                or len(local) != _LOCAL_HEADER_SIZE
                or local[:4] != b"PK\x03\x04"
            ):
                raise ValueError(
                    f"entry {info.filename!r} does not start where the "
                    f"entry before it ends, at byte {offset}"
                )
            name_length, extra_length = struct.unpack("<HH", local[26:])
            name_start = offset + _LOCAL_HEADER_SIZE
            name = bytes(raw[name_start : name_start + name_length])
            encoding = "utf-8" if info.flag_bits & 0x800 else "cp437"
            if name != info.orig_filename.encode(encoding):
                raise ValueError(
                    f"entry {info.filename!r} is named {name!r} in its "
                    "local header"
                )
            payload = name_start + name_length + extra_length
            key = info.filename.removesuffix(".npy")
            entries[key] = (info, payload)
            offset = payload + info.compress_size
        if offset != self._zip.start_dir:
            raise ValueError(
                f"the entries end at byte {offset} but the central "
                f"directory starts at byte {self._zip.start_dir}"
            )
        return entries

    @property
    def files(self) -> list[str]:
        return list(self._entries)

    def __getitem__(self, name: str) -> np.ndarray:
        """Member ``name``, checked, as a plain ndarray.  The small
        ``__`` members come as writable in-memory copies (``compact``
        writes ``__svd_corrections__`` in place)."""
        array = self.array(name)
        self.check(name)
        if name.startswith("__"):
            return np.array(array)
        return self.view(name)

    def view(self, name: str) -> np.ndarray:
        """Member ``name`` as a plain ndarray, unchecked if it is a view
        of the mapping: a sweep checks it before the load returns."""
        return self.array(name).view(np.ndarray)

    def array(self, name: str) -> np.ndarray:
        """Member ``name`` as a view of the mapping, unchecked until
        :meth:`check` or a sweep, or else read (and checked) through
        zipfile."""
        if name in self._arrays:
            return self._arrays[name]
        if name not in self._entries:
            raise CheckpointCorruptionError(
                f"checkpoint member {name!r} missing from {self.path}"
            )
        info, payload = self._entries[name]
        try:
            array = _mmap_member(self._mapping, info, payload)
            if array is None:
                with self._zip.open(info) as member:
                    array = np.lib.format.read_array(member, allow_pickle=False)
                    # To the end, where zipfile checks the CRC.
                    member.read()
                with self._lock:
                    self._checked.add(name)
        except Exception as exc:
            # zipfile raises BadZipFile for a bad CRC or header,
            # NotImplementedError for an unknown compression method,
            # version or flag bits, RuntimeError for an entry flagged as
            # encrypted; numpy ValueError for a malformed ``.npy`` header.
            raise _unreadable(self.path, exc) from exc
        self._arrays[name] = array
        return array

    def _mismatch(self, name: str) -> str | None:
        """What is wrong with stored member ``name``'s CRC-32, if
        anything.  Reads nothing but the mapping."""
        info, payload = self._entries[name]
        crc = zlib.crc32(self._mapping.data[payload : payload + info.compress_size])
        if crc == info.CRC:
            return None
        return (
            f"checkpoint member {name!r} of {self.path} is corrupted: "
            f"CRC-32 {crc:08x} != recorded {info.CRC:08x}"
        )

    def check(self, name: str) -> None:
        """Check member ``name`` against its recorded CRC-32, once, on
        the caller's thread."""
        with self._lock:
            if name in self._checked:
                return
        if self._entries[name][0].compress_type != zipfile.ZIP_STORED:
            self.array(name)
            return
        mismatch = self._mismatch(name)
        if mismatch is not None:
            raise CheckpointCorruptionError(mismatch)
        with self._lock:
            self._checked.add(name)

    def _drain(self) -> None:
        """Check queued members, largest first, until none is left: the
        loop each of the sweep's two checkers runs."""
        while True:
            with self._lock:
                if not self._queue:
                    return
                name = self._queue.pop()
                if name in self._checked:
                    continue
            mismatch = self._mismatch(name)
            with self._lock:
                if mismatch is None:
                    self._checked.add(name)
                else:
                    self._mismatches[name] = mismatch

    @contextmanager
    def sweeping(self):
        """Check every member not checked yet, on two checkers, while the
        body runs.

        A helper thread starts on the stored members, largest first; the
        caller runs the body, then checks what is left beside the helper,
        joins it, and reads any member zipfile must read.  Only then is
        a failure reported, and a CRC mismatch wins over an error the
        body raised.  The helper never outlives the block.
        """
        with self._lock:
            self._mismatches.clear()
            self._queue = sorted(
                (
                    name
                    for name, (info, _) in self._entries.items()
                    if info.compress_type == zipfile.ZIP_STORED
                    and name not in self._checked
                ),
                key=lambda name: self._entries[name][0].compress_size,
            )
            queued = bool(self._queue)
        helper = None
        if queued:
            helper = threading.Thread(
                target=self._drain, name="checkpoint-sweep", daemon=True
            )
            try:
                helper.start()
            except RuntimeError:  # no thread to be had: check alone
                helper = None
        try:
            yield
        finally:
            try:
                self._drain()
            finally:
                if helper is not None:
                    helper.join()
            with self._lock:
                mismatches = dict(self._mismatches)
            for name in self._entries:
                if name in mismatches:
                    raise CheckpointCorruptionError(mismatches[name])
            # Members zipfile reads, and any the helper took but did not
            # settle, are checked here, on this thread.
            for name in self._entries:
                self.check(name)

    def verify(self) -> None:
        """Check every member not checked yet, on two checkers."""
        with self.sweeping():
            pass


_RECORD_TYPES = {
    "linear": LinearRecord,
    "binary_logistic": LogisticRecord,
    "multinomial_logistic": MultinomialRecord,
}
# Formats 1–5 wrote each record's per-sample fields as ``<field>_<t>``,
# the softmax probabilities as ``probs_<t>``.
_LEGACY_MEMBERS = {"probabilities": "probs"}

_FROZEN_FIELDS = (
    "slopes",
    "intercepts",
    "probabilities",
    "wx",
    "gram",
    "moment",
    "eigenvectors",
    "eigenvalues",
)

# __receipts__ columns (float64; the ids live in the deletion log slice).
_RECEIPT_COLUMNS = (
    "log_start",
    "log_end",
    "store_version_before",
    "n_samples_before",
    "n_samples_after",
    "timestamp",
)

# Canonical file names inside a checkpoint directory (written by
# ``IncrementalTrainer.save_checkpoint``, re-exported from ``core.api``).
STORE_FILENAME = "store.npz"
PLAN_FILENAME = "plan.npz"


# ------------------------------------------------------- journaled commits
def staged_path(directory: str | Path, member: str) -> Path:
    """Where a member is staged before a journaled commit renames it."""
    return Path(directory) / (member + _STAGED_SUFFIX)


def _replay_journal(directory: Path, members: list[str]) -> None:
    """Rename every staged member into place, then clear the journal.

    Idempotent: a member whose staged file is already gone was renamed by
    an earlier (interrupted) replay and is skipped, so crash-during-
    recovery recovers too.
    """
    journal = directory / CHECKPOINT_JOURNAL
    for member in members:
        staged = directory / (member + _STAGED_SUFFIX)
        _fault(f"commit.rename.{member}", staged)
        if staged.exists():
            os.replace(staged, directory / member)
    _fault("commit.clear-journal", journal)
    journal.unlink(missing_ok=True)
    _fsync_dir(directory)
    _fault("commit.done", directory)


def commit_checkpoint(directory: str | Path, members: list[str]) -> None:
    """Atomically flip staged ``<member>.new`` files into place.

    The journal (itself written durably) is the commit point: once it
    lands, :func:`recover_checkpoint` rolls the staged files forward even
    if the process dies mid-rename; before it lands, recovery discards
    them.  Either way a reader sees the complete old checkpoint or the
    complete new one.
    """
    directory = Path(directory)
    journal = directory / CHECKPOINT_JOURNAL
    temp = _temp_beside(journal)
    payload = "\n".join(["v2", *members, _JOURNAL_END]) + "\n"
    _fault("journal.begin", journal)
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        _fault("journal.temp-written", temp)
        os.fsync(handle.fileno())
    _fault("journal.temp-synced", temp)
    os.replace(temp, journal)
    _fault("journal.renamed", journal)
    _fsync_dir(directory)
    _replay_journal(directory, members)


def _journal_members(journal: Path) -> list[str]:
    """The members a checkpoint journal lists, validated.

    :func:`commit_checkpoint` writes ``v2``, one member name per line,
    each a checkpoint file (``store.npz``, ``plan.npz``), then
    ``end``, every line ending in ``\\n``.  Builds before it wrote
    ``v1`` and the members, with no terminator; such a journal is still
    rolled forward.  Anything else — bytes that are not UTF-8, another
    first line, no member, a name outside that set (``../victim`` would
    rename outside the directory), a ``v2`` journal without its
    terminator (a journal cut short), a torn last line — raises
    :class:`CheckpointCorruptionError` before a single file is renamed.
    """
    raw = journal.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptionError(
            f"checkpoint journal {journal} is not UTF-8 text: {exc}"
        ) from exc
    header, *members = text[:-1].split("\n")
    if header == "v2" and members[-1:] == [_JOURNAL_END]:
        members.pop()
    elif header != "v1":
        members = []
    if not (
        text.endswith("\n")
        and members
        and set(members) <= {STORE_FILENAME, PLAN_FILENAME}
    ):
        raise CheckpointCorruptionError(
            f"checkpoint journal {journal} is not 'v2', "
            f"{STORE_FILENAME!r}/{PLAN_FILENAME!r} lines and "
            f"{_JOURNAL_END!r} (or an older 'v1' journal): {raw[:80]!r}"
        )
    return members


def recover_checkpoint(directory: str | Path) -> str | None:
    """Settle an interrupted checkpoint save in ``directory``.

    With a journal present the staged files are rolled *forward* (the
    save had committed); without one, stray ``*.tmp``/``*.new`` files are
    swept (the save never reached its commit point, the old checkpoint
    stands).  Returns ``"rolled-forward"``, ``"cleaned"`` or None
    (nothing to do).  Safe to call on every load; I/O errors (read-only
    media) are swallowed — recovery is an optimization of the next save,
    never a load-blocker.  A journal that is not one
    :func:`commit_checkpoint` writes raises
    :class:`CheckpointCorruptionError` and nothing is renamed: rolling
    an unknown member list forward could overwrite any file.
    """
    directory = Path(directory)
    action: str | None = None
    try:
        if not directory.is_dir():
            return None
        journal = directory / CHECKPOINT_JOURNAL
        committed = journal.exists()
        if committed:
            _replay_journal(directory, _journal_members(journal))
            action = "rolled-forward"
        for stray in directory.iterdir():
            # Staged files are discarded only when no commit point was
            # reached; after a roll-forward any surviving ``.new`` file
            # belongs to a member the journal never listed, so it stays
            # for the next save's own recovery pass to judge.
            if stray.name.endswith(".tmp") or (
                not committed and stray.name.endswith(_STAGED_SUFFIX)
            ):
                stray.unlink(missing_ok=True)
                action = action or "cleaned"
    except OSError:
        return action
    return action


def _pack_summary(arrays: dict, key: str, summary) -> str:
    """Store a summary under ``key``; returns its kind tag."""
    if summary is None:
        return "none"
    if isinstance(summary, TruncatedSummary):
        arrays[f"{key}_right"] = summary.right
        arrays[f"{key}_weights"] = summary.weights
        return "svd"
    arrays[key] = np.asarray(summary)
    return "dense"


def _unpack_summary(archive, key: str, kind: str, version: int):
    """The summary stored under ``key``, and whether a pre-v4 factor pair
    had to be folded into eigen form (so its correction count is spent).

    A v4+ summary comes as views the sweep has yet to check, and only
    their shapes are read here; a pre-v4 pair is checked first, because
    converting it reads its values.  Raises
    :class:`CheckpointCorruptionError` for SVD members that do not pair:
    shapes that disagree, or a pre-v4 pair whose operator is not
    symmetric.
    """
    if kind == "none":
        return None, False
    if kind != "svd":
        return archive.view(key), False
    if version < 4:
        left, right = archive[f"{key}_left"], archive[f"{key}_right"]
    else:
        right, weights = archive.view(f"{key}_right"), archive.view(f"{key}_weights")
    try:
        if version < 4:
            return summary_from_factor_pair(left, right)
        if right.ndim != 2 or weights.shape != right.shape[1:]:
            raise ValueError(
                f"basis {right.shape} and eigenvalues {weights.shape} "
                "do not pair"
            )
    except ValueError as exc:
        raise CheckpointCorruptionError(
            f"checkpoint summary {key!r} of {archive.path}: {exc}"
        ) from exc
    return TruncatedSummary(right=right, weights=weights), False


def save_store(store: ProvenanceStore, path: str | Path) -> Path:
    """Serialize a provenance store to a ``.npz`` archive.

    Written like the plan archive (:func:`_write_npz`): uncompressed
    members whose array data sits on 64-byte file offsets, so
    :func:`load_store` can map them instead of inflating them.  The write
    is crash-atomic (:func:`_durable_savez`).
    """
    path = Path(path)
    columns = store.columns()
    arrays: dict[str, np.ndarray] = {"record_offsets": columns.offsets}
    for column, _ in COLUMN_FIELDS[store.task]:
        arrays[column] = getattr(columns, column)
    arrays["moments"] = np.array(
        [record.moment for record in store.records], dtype=float
    ).reshape(len(store.records), *_moment_shape(store))
    summary_kinds: list[str] = []
    for t, record in enumerate(store.records):
        summary_kinds.append(_pack_summary(arrays, f"summary_{t}", record.summary))

    frozen_meta: list = []
    if store.frozen is not None:
        frozen_meta = [
            store.frozen.t_s,
            int(store.frozen.weights_at_ts_available),
            int(store.frozen.eigen_stale),
        ]
        for field in _FROZEN_FIELDS:
            value = getattr(store.frozen, field)
            if value is not None:
                arrays[f"frozen_{field}"] = value

    arrays["__meta__"] = np.array(
        [
            str(_FORMAT_VERSION),
            store.task,
            str(store.learning_rate),
            str(store.regularization),
            str(store.n_samples),
            str(store.n_features),
            str(store.n_classes),
            store.compression,
            str(store.epsilon),
            str(int(store.sparse_mode)),
            str(len(store.records)),
            # v2: sample count of the original capture run ("none" while
            # no deletion has ever been committed).
            "none"
            if store.n_original_samples is None
            else str(store.n_original_samples),
        ]
    )
    if store.deletion_log is not None:
        arrays["__deletion_log__"] = store.deletion_log
    if store.commit_receipts:
        arrays["__receipts__"] = np.array(
            [
                [getattr(receipt, column) for column in _RECEIPT_COLUMNS]
                for receipt in store.commit_receipts
            ],
            dtype=float,
        )
    if store.svd_correction_columns is not None:
        arrays["__svd_corrections__"] = store.svd_correction_columns
    arrays["__schedule__"] = np.array(
        [
            str(store.schedule.n_samples),
            str(store.schedule.batch_size),
            str(store.schedule.n_iterations),
            str(store.schedule.seed),
            store.schedule.kind,
        ]
    )
    arrays["__summary_kinds__"] = np.array(summary_kinds)
    arrays["__frozen_meta__"] = np.array([str(v) for v in frozen_meta])
    _durable_savez(path, arrays, tag="store")
    return path


# ------------------------------------------------------ metadata members
# The small ``__`` members steer the decode, so the loaders check and
# parse them before anything else, and an entry that does not parse as
# ``save_store`` writes it raises CheckpointCorruptionError.
def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"{text!r} is not 0 or 1")
    return text == "1"


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(choices)}")
        return text

    return parse


def _count_or_none(text: str) -> int | None:
    return None if text == "none" else _count(text)


# ``__meta__`` after its version entry; format 1 ends before the last.
_META_FIELDS = (
    ("task", _one_of("linear", "binary_logistic", "multinomial_logistic")),
    ("learning_rate", float),
    ("regularization", float),
    ("n_samples", _count),
    ("n_features", _count),
    ("n_classes", _count),
    ("compression", _one_of("none", "svd", "sparse")),
    ("epsilon", float),
    ("sparse_mode", _flag),
    ("n_records", _count),
    ("n_original_samples", _count_or_none),
)
_SCHEDULE_FIELDS = (
    ("n_samples", _count),
    ("batch_size", _count),
    ("n_iterations", _count),
    ("seed", _count),
    ("kind", _one_of("gd", "sgd", "mb-sgd", "materialized")),
)
# ``__frozen_meta__`` holds none of these, the first two (format 1–2) or
# all three.
_FROZEN_META_FIELDS = (
    ("t_s", _count),
    ("weights_at_ts_available", _flag),
    ("eigen_stale", _flag),
)
_SUMMARY_KINDS = ("none", "dense", "svd")


def _malformed(archive, name: str, problem: str) -> CheckpointCorruptionError:
    return CheckpointCorruptionError(
        f"checkpoint member {name!r} of {archive.path} {problem}"
    )


def _vector(
    archive, name: str, length: int | None = None, integers: bool = False
) -> np.ndarray:
    """Member ``name``, checked: one dimension, ``length`` entries when
    given, an integer dtype when ``integers``."""
    values = archive[name]
    if (
        values.ndim != 1
        or (length is not None and len(values) != length)
        or (integers and values.dtype.kind not in "iu")
    ):
        expected = "" if length is None else f" of {length} entries"
        raise _malformed(
            archive, name,
            f"is {values.dtype} of shape {values.shape}, not a vector{expected}",
        )
    return values


def _entries(archive, name: str, length: int | None = None) -> list[str]:
    """Member ``name``, checked, as the strings it holds."""
    return [str(value) for value in _vector(archive, name, length)]


def _parsed(archive, name: str, texts: list[str], fields) -> dict:
    """``texts`` parsed by ``fields`` (``(key, parse)`` pairs), one each."""
    if len(texts) != len(fields):
        raise _malformed(
            archive, name,
            f"holds {len(texts)} fields where {len(fields)} belong",
        )
    try:
        return {key: parse(text) for (key, parse), text in zip(fields, texts)}
    except (ValueError, OverflowError) as exc:
        raise _malformed(archive, name, f"does not decode: {exc}") from exc


def _store_meta(archive) -> dict:
    """``__meta__``, checked and parsed, with its format ``version``.

    An integer version this build does not read raises a plain
    ``ValueError`` (the documented refusal), before anything else of the
    archive is checked.
    """
    texts = _entries(archive, "__meta__")
    try:
        version = int(texts[0])
    except (IndexError, ValueError) as exc:
        raise _malformed(archive, "__meta__", "has no format version") from exc
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported store format version: {version}")
    fields = _META_FIELDS if version >= 2 else _META_FIELDS[:-1]
    meta = _parsed(archive, "__meta__", texts[1:], fields)
    meta.setdefault("n_original_samples", None)
    meta["version"] = version
    return meta


def _receipts(archive, log: np.ndarray | None) -> list[CommitReceipt]:
    """``__receipts__``, checked: six numeric columns, whole non-negative
    counts, each row's ids a slice of the deletion log."""
    rows = archive["__receipts__"]
    try:
        values = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise _malformed(archive, "__receipts__", "is not numeric") from exc
    if values.ndim != 2 or values.shape[1] != len(_RECEIPT_COLUMNS):
        raise _malformed(
            archive, "__receipts__",
            f"has shape {values.shape}, not {len(_RECEIPT_COLUMNS)} columns",
        )
    counts, timestamps = values[:, :-1], values[:, -1]
    starts, ends = counts[:, 0], counts[:, 1]
    # Without a deletion log no receipt has ids to point at.
    log_length = -1 if log is None else len(log)
    if not (
        np.isfinite(values).all()
        and (counts >= 0).all()
        and (counts == np.floor(counts)).all()
        and (starts <= ends).all()
        and (ends <= log_length).all()
    ):
        raise _malformed(
            archive, "__receipts__",
            "holds a count that is not a whole non-negative number, or log "
            "bounds outside the deletion log",
        )
    receipts = []
    for row, timestamp in zip(counts.astype(np.int64).tolist(), timestamps):
        fields = dict(zip(_RECEIPT_COLUMNS, row))
        log_start, log_end = fields["log_start"], fields["log_end"]
        receipts.append(
            CommitReceipt(
                index=len(receipts),
                removed_original_ids=np.asarray(
                    log[log_start:log_end], dtype=np.int64
                ),
                log_start=log_start,
                log_end=log_end,
                store_version_before=fields["store_version_before"],
                n_samples_before=fields["n_samples_before"],
                n_samples_after=fields["n_samples_after"],
                timestamp=float(timestamp),
            )
        )
    return receipts


def _store_steering(archive, meta: dict) -> dict:
    """The ``__`` members that steer the decode after ``__meta__``:
    checked, parsed and validated against the record count."""
    version, n_records = meta["version"], meta["n_records"]
    steering = {
        "schedule": _parsed(
            archive, "__schedule__",
            _entries(archive, "__schedule__"), _SCHEDULE_FIELDS,
        ),
        "kinds": _entries(archive, "__summary_kinds__", n_records),
        "log": None,
        "corrections": None,
        "receipts": [],
    }
    schedule = steering["schedule"]
    if schedule["kind"] != "materialized" and schedule["n_iterations"] != n_records:
        # The decode takes a seeded schedule's batches from its records.
        raise _malformed(
            archive, "__schedule__",
            f"counts {schedule['n_iterations']} iterations for {n_records} records",
        )
    unknown = set(steering["kinds"]) - set(_SUMMARY_KINDS)
    if unknown:
        raise _malformed(
            archive, "__summary_kinds__", f"holds unknown kinds {sorted(unknown)}"
        )
    frozen = _entries(archive, "__frozen_meta__")
    if len(frozen) not in (0, 2, 3):
        raise _malformed(
            archive, "__frozen_meta__", f"holds {len(frozen)} fields, not 0, 2 or 3"
        )
    steering["frozen"] = _parsed(
        archive, "__frozen_meta__", frozen, _FROZEN_META_FIELDS[: len(frozen)]
    )
    if version >= 2 and "__deletion_log__" in archive.files:
        steering["log"] = _vector(archive, "__deletion_log__", integers=True)
    if version >= 3 and "__svd_corrections__" in archive.files:
        steering["corrections"] = _vector(
            archive, "__svd_corrections__", n_records, integers=True
        )
    if version >= 3 and "__receipts__" in archive.files:
        steering["receipts"] = _receipts(archive, steering["log"])
    if version >= 6:
        steering["offsets"] = _record_offsets(archive, n_records)
    return steering


def _record_offsets(archive, n_records: int) -> np.ndarray:
    """``record_offsets``, checked: ``τ + 1`` integers from 0, never
    decreasing, ending at the length of ``batches`` (read off its
    header)."""
    offsets = _vector(archive, "record_offsets", n_records + 1, integers=True)
    batches = archive.array("batches")
    if not (
        batches.ndim == 1
        and offsets[0] == 0
        and (np.diff(offsets) >= 0).all()
        and offsets[-1] == batches.shape[0]
    ):
        raise _malformed(
            archive, "record_offsets",
            f"does not rise from 0 to the {batches.shape[:1]} slots of "
            "'batches'",
        )
    return offsets


def _moment_shape(store: ProvenanceStore) -> tuple[int, ...]:
    """One record's moment: ``(q, m)`` on a multinomial store, ``(m,)``
    on the others, and empty on a sparse linear or binary one."""
    if store.task == "multinomial_logistic":
        return (store.n_classes, store.n_features)
    return (0,) if store.sparse_mode else (store.n_features,)


def _columns(
    archive, store: ProvenanceStore, offsets: np.ndarray, n_records: int
):
    """A format-6 store's per-sample columns and stacked moments, as
    views the sweep checks, once their headers give one slot per
    occurrence (``(H, q)`` for the softmax state) and one moment per
    record."""
    shapes = {
        column: (int(offsets[-1]),)
        + ((store.n_classes,) if column in ("probabilities", "wx") else ())
        for column, _ in COLUMN_FIELDS[store.task]
    }
    shapes["moments"] = (n_records, *_moment_shape(store))
    views = {name: archive.view(name) for name in shapes}
    for name, shape in shapes.items():
        if views[name].shape != shape:
            raise _malformed(
                archive, name, f"has shape {views[name].shape}, not {shape}"
            )
    if views["batches"].dtype.kind not in "iu":
        raise _malformed(archive, "batches", "does not hold integers")
    moments = views.pop("moments")
    return SampleColumns(offsets=offsets, **views), moments


def _decode_store(archive, meta: dict, steering: dict) -> ProvenanceStore:
    """Build the store from checked metadata and the bulk members, which
    come as views a sweep may not have checked yet: nothing here reads
    their values."""
    task, version = meta["task"], meta["version"]
    sched = steering["schedule"]
    store = ProvenanceStore(
        task=task,
        schedule=None,  # built from the loaded records below
        learning_rate=meta["learning_rate"],
        regularization=meta["regularization"],
        n_samples=meta["n_samples"],
        n_features=meta["n_features"],
        n_classes=meta["n_classes"],
        compression=meta["compression"],
        epsilon=meta["epsilon"],
        sparse_mode=meta["sparse_mode"],
    )
    view = archive.view
    if version >= 6:
        columns, moments = _columns(
            archive, store, steering["offsets"], meta["n_records"]
        )
        bounds = columns.offsets.tolist()
    folded = []
    for t, kind in enumerate(steering["kinds"]):
        summary, refactored = _unpack_summary(
            archive, f"summary_{t}", kind, version
        )
        if refactored:
            folded.append(t)
        if version >= 6:
            fields = {
                name: getattr(columns, column)[bounds[t] : bounds[t + 1]]
                for column, name in COLUMN_FIELDS[task]
            }
            fields["moment"] = moments[t]
        else:
            fields = {
                name: view(f"{_LEGACY_MEMBERS.get(name, name)}_{t}")
                for _, name in COLUMN_FIELDS[task]
            }
            fields["moment"] = view(f"moment_{t}")
        store.add(_RECORD_TYPES[task](summary=summary, **fields))
    if version >= 6:
        store._columns = columns
    # Every record holds its iteration's batch, so no kind regenerates
    # them: a seeded schedule would rebuild the same batches bit for bit,
    # and compacted ones cannot be rebuilt at all.  A seeded schedule
    # keeps its kind, seed and sizes, so a save writes the same
    # ``__schedule__``.
    materialized = sched["kind"] == "materialized"
    store.schedule = BatchSchedule(
        n_samples=store.n_samples if materialized else sched["n_samples"],
        batch_size=sched["batch_size"],
        n_iterations=(
            len(store.records) if materialized else sched["n_iterations"]
        ),
        seed=sched["seed"],
        kind=sched["kind"],
        batches=[record.batch for record in store.records],
    )
    store.n_original_samples = meta["n_original_samples"]
    store.deletion_log = steering["log"]
    store.commit_receipts.extend(steering["receipts"])
    if steering["corrections"] is not None:
        store.svd_correction_columns = steering["corrections"]
        # A folded pair holds no appended columns any more.
        store.svd_correction_columns[folded] = 0
    frozen = steering["frozen"]
    if frozen:
        store.frozen = FrozenProvenance(
            **frozen,
            **{
                field: (
                    view(f"frozen_{field}")
                    if f"frozen_{field}" in archive.files
                    else None
                )
                for field in _FROZEN_FIELDS
            },
        )
    return store


def load_store(path: str | Path) -> ProvenanceStore:
    """Reload a provenance store saved by :func:`save_store`.

    Every stored array member (a name without a leading ``__``) is
    memory-mapped read-only out of the archive and handed to the store as
    a plain ndarray view.  The small ``__`` members are read into memory,
    because maintenance writes ``__svd_corrections__`` in place.  Members
    that cannot be mapped — compressed ones, as every store written
    before archives were stored uncompressed has — are read into memory
    instead (:class:`_Archive`).

    Every member is checked against its zip CRC before this returns,
    and archive bytes that do not decode fail the same way: a corrupted
    store raises :class:`CheckpointCorruptionError`, it never loads
    wrong.  The load runs in five steps:

    1. the ``__`` members, which steer the decode, and a format-6
       store's ``record_offsets`` are checked and parsed (an unsupported
       version is refused before anything else is checked);
    2. a sweep starts over the other members, on a helper thread;
    3. the records are built from the members' headers, without reading
       their values, while the sweep runs (a format-6 store's records are
       slices of its column members, which become the store's columns);
    4. the caller joins the sweep, checking beside the helper;
    5. a format 1–5 store's per-record members, now checked, are
       concatenated into columns.

    A failure is reported once the sweep has settled, and a CRC mismatch
    wins over any error of step 3.
    """
    path = Path(path)
    with _Archive(path) as archive:
        meta = _store_meta(archive)
        steering = _store_steering(archive, meta)
        with archive.sweeping():
            store = _decode_store(archive, meta, steering)
    # A format 1–5 store's per-record members, now checked, become
    # columns (a format-6 store comes with them).
    store.columns()
    return store


# -------------------------------------------------------- checkpoint metadata
@dataclass(frozen=True)
class CheckpointMetadata:
    """The cheap-to-read identity of a saved checkpoint.

    Everything a :class:`~repro.serving.fleet.ModelRegistry` needs to
    validate a registration and bound removal ids *without* paying for a
    full :func:`load_store` — task, shapes, the live ``n_samples`` (post
    commits), and whether a compiled plan archive sits next to the store.
    Read via :func:`read_checkpoint_metadata`.
    """

    store_path: Path
    plan_path: Path | None
    format_version: int
    task: str
    n_samples: int
    n_features: int
    n_classes: int
    n_iterations: int
    n_original_samples: int | None
    sparse_mode: bool

    def as_dict(self) -> dict:
        """JSON-serializable form (registry describe / fleet benchmarks)."""
        return {
            "store_path": str(self.store_path),
            "plan_path": None if self.plan_path is None else str(self.plan_path),
            "format_version": self.format_version,
            "task": self.task,
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "n_iterations": self.n_iterations,
            "n_original_samples": self.n_original_samples,
            "sparse_mode": self.sparse_mode,
        }


def read_checkpoint_metadata(path: str | Path) -> CheckpointMetadata:
    """Read a checkpoint's ``__meta__`` block without loading its arrays.

    ``path`` is a checkpoint directory (containing ``store.npz`` and
    optionally ``plan.npz``) or a store archive itself — the same
    addressing :meth:`~repro.core.api.IncrementalTrainer.from_checkpoint`
    accepts.  Only the zip directory, the local headers and the small
    ``__meta__`` member (CRC-checked) are read; the record arrays stay on
    disk, so this is safe to call for every registered model of a large
    fleet at startup.  Archive bytes that do not decode, ``__meta__``
    entries included, raise :class:`CheckpointCorruptionError`.
    """
    path = Path(path)
    if path.is_dir():
        # Settle any interrupted save first: roll a journaled commit
        # forward, sweep pre-commit strays — so the metadata read below
        # always describes a complete old-or-new checkpoint.
        recover_checkpoint(path)
        store_path = path / STORE_FILENAME
        plan_candidate = path / PLAN_FILENAME
        plan_path = plan_candidate if plan_candidate.exists() else None
    else:
        store_path = path
        plan_path = None
    if not store_path.exists():
        raise FileNotFoundError(f"no store archive at {store_path}")
    with _Archive(store_path) as archive:
        meta = _store_meta(archive)
    return CheckpointMetadata(
        store_path=store_path,
        plan_path=plan_path,
        format_version=meta["version"],
        task=meta["task"],
        n_samples=meta["n_samples"],
        n_features=meta["n_features"],
        n_classes=meta["n_classes"],
        n_iterations=meta["n_records"],
        n_original_samples=meta["n_original_samples"],
        sparse_mode=meta["sparse_mode"],
    )


# --------------------------------------------------------------- replay plans
def save_plan(
    plan: ReplayPlan, path: str | Path, weights: np.ndarray | None = None
) -> Path:
    """Serialize a compiled replay plan to an uncompressed ``.npz``.

    Persists the derived structure-of-arrays state enumerated by
    :meth:`~repro.core.replay_plan.ReplayPlan.state_arrays` — summaries and
    sparse batch blocks stay in the store / feature matrix and are rebound
    at load time.  ``weights`` optionally embeds the fitted model's final
    parameter vector so :meth:`~repro.core.api.IncrementalTrainer.\
from_checkpoint` can restore ``weights_`` without replaying anything.

    The archive is written like the store's (:func:`_write_npz`):
    stored zip members are contiguous, 64-byte-aligned byte ranges, which
    lets :func:`load_plan` memory-map them instead of copying into RAM.
    """
    path = Path(path)
    arrays = dict(plan.state_arrays())
    if weights is not None:
        arrays["final_weights"] = np.asarray(weights, dtype=float)
    meta = dict(plan.state_meta())
    meta["format"] = str(_PLAN_FORMAT_VERSION)
    keys = sorted(meta)
    arrays["__plan_meta_keys__"] = np.array(keys)
    arrays["__plan_meta_values__"] = np.array([meta[k] for k in keys])
    _durable_savez(path, arrays, tag="plan")
    return path


# The plan meta entries :meth:`ReplayPlan.from_compiled_state` parses.
_PLAN_META_FIELDS = (
    ("task", str),
    ("kind", str),
    ("sparse", _flag),
    ("n_iterations", _count),
    ("n_params", _count),
    ("n_samples", _count),
    ("learning_rate", float),
    ("regularization", float),
)


def _plan_meta(archive) -> dict[str, str]:
    """The plan's meta pair, checked: one value per key, no key twice,
    every entry the plan parses present and parsing, and a format this
    build reads (else a plain ``ValueError``, as for a store)."""
    keys = _entries(archive, "__plan_meta_keys__")
    values = _entries(archive, "__plan_meta_values__", len(keys))
    meta = dict(zip(keys, values))
    if len(meta) != len(keys):
        raise _malformed(archive, "__plan_meta_keys__", "repeats a key")
    try:
        version = int(meta.get("format", "-1"))
    except ValueError as exc:
        raise _malformed(
            archive, "__plan_meta_values__", "has no format version"
        ) from exc
    if version not in _SUPPORTED_PLAN_VERSIONS:
        raise ValueError(f"unsupported plan format version: {version}")
    missing = [key for key, _ in _PLAN_META_FIELDS if key not in meta]
    if missing:
        raise _malformed(archive, "__plan_meta_keys__", f"lacks {missing}")
    _parsed(
        archive, "__plan_meta_values__",
        [meta[key] for key, _ in _PLAN_META_FIELDS], _PLAN_META_FIELDS,
    )
    return meta


def load_plan(
    path: str | Path,
    store: ProvenanceStore,
    features,
    labels: np.ndarray,
) -> ReplayPlan:
    """Reload a compiled plan saved by :func:`save_plan`.

    ``store`` must be the matching provenance store (typically just
    reloaded via :func:`load_store`) and ``features``/``labels`` the
    original training data — the plan validates task, iteration count,
    occurrence count, batch sizes and sample count before accepting them.
    Every member that can be is memory-mapped read-only (zero-copy); the
    replay loops never write to plan state, so serving works directly off
    the mapped file.  Archive bytes that do not decode, and a CRC-clean
    archive that does not fit the store (a member the plan needs is
    missing or misshapen, the store's state is one no plan compiles, or
    any check :meth:`~repro.core.replay_plan.ReplayPlan.\
from_compiled_state` makes fails), raise
    :class:`CheckpointCorruptionError`: reloading cannot mend either.

    If the archive embeds final model weights they are exposed as
    ``plan.final_weights``.

    Members read into memory, ``final_weights`` and the ``__`` members
    are checked against their zip CRC at load; the other mapped members
    are checked *lazily*, on the plan's first :meth:`~repro.core.\
replay_plan.ReplayPlan.run` — mapping exists precisely to avoid touching
    the bytes up front, so the check rides the first replay (which reads
    them all anyway), on two checkers like :func:`load_store`'s sweep,
    and raises :class:`CheckpointCorruptionError` before any answer
    derived from rotten bytes escapes.

    Mapped members are ``MAP_SHARED`` and read-only, so every load of the
    same archive — in this process or any other — reads the same
    page-cache pages; the kernel keeps one physical copy however many
    trainers or shard processes map the plan.
    """
    path = Path(path)
    with _Archive(path) as archive:
        meta = _plan_meta(archive)
        arrays = {}
        for name in archive.files:
            if name.startswith("__"):
                archive.check(name)
            else:
                arrays[name] = archive.array(name)
        final_weights = arrays.pop("final_weights", None)
        if final_weights is not None:
            # Consumed immediately (weights restore), so checked eagerly.
            archive.check("final_weights")
    try:
        plan = ReplayPlan.from_compiled_state(
            store, features, labels, meta, arrays
        )
    except Exception as exc:
        # Rotten mapped bytes can fail validation before the first replay
        # would have caught them: report such a failure as corruption.
        archive.verify()
        if isinstance(exc, (ValueError, NotImplementedError)):
            # CRC-clean, but not a plan this store can serve.
            raise CheckpointCorruptionError(
                f"plan archive {path} does not fit its store: {exc}"
            ) from exc
        raise
    plan.final_weights = final_weights
    plan.defer_integrity_check(archive.verify)
    return plan
