"""Seeded decoder fuzzing of the checkpoint archives and journal.

Every single-bit flip or truncation of a small store archive and a small
plan archive must do one of two things:

* load with every member equal to the original (and, for the plan,
  answer identically on its first replay), or
* raise :class:`CheckpointCorruptionError` — at load, or, for a plan
  member that is memory-mapped and so checked lazily, on the first
  replay.

No single bit of the zip directory may switch a check off: a flipped
comment length that hides the entries after it, or a flipped member
name, fails the load rather than loading without those members.

The ``.npy`` header parser the mapped loads use is fuzzed on its own:
for headers of format 1.0, 2.0 and 3.0 it returns a well-formed
``(shape, fortran_order, dtype, data_offset)`` or ``None`` and never
raises, and a member is never mapped past its zip entry.  A rotten
member that also fails to decode is reported by its CRC.

A mutated ``checkpoint.journal`` must either roll exactly the members it
lists forward or raise :class:`CheckpointCorruptionError` having renamed
nothing, and never touch a file outside the checkpoint directory; a
journal cut short must never roll anything forward.

Any other exception (zipfile's ``NotImplementedError`` or
``RuntimeError``, numpy's ``ValueError``, ...) would be retried by the
fleet as a transient failure instead of opening the model's breaker.
"""

import io
import re
import struct
import zipfile

import numpy as np
import pytest

from repro.core import (
    CheckpointCorruptionError,
    IncrementalTrainer,
    load_plan,
    load_store,
    recover_checkpoint,
    save_store,
)
from repro.core.serialization import (
    CHECKPOINT_JOURNAL,
    _aligned_entry,
    _mmap_member,
    _parse_npy_header,
)
from repro.datasets import make_multiclass_classification, make_regression
from repro.testing import FaultInjector, SimulatedCrash

from legacy_archives import write_stored

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
    # A format-6 store: per-sample columns, SVD summaries as a basis and
    # its eigenvalues, and no digest table: each member's zip CRC is its
    # one check.
    assert str(expected["__meta__"][0]) == "6"
    assert "record_offsets" in expected and "batch_0" not in expected
    assert any(name.endswith("_weights") for name in expected)
    assert not any(name.endswith("_left") for name in expected)
    assert "__checksums__" not in expected
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


# ----------------------------------------------------- directory damage
#: Offset of the high byte of the comment-length field in a central
#: directory entry.
COMMENT_LENGTH_HIGH_BYTE = 33
#: Size of a central directory entry before its name.
DIRECTORY_ENTRY_SIZE = 46


def directory_entries(raw: bytes) -> dict[str, int]:
    """The offset of each member's central directory entry, in order."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        offset, count = archive.start_dir, len(archive.infolist())
    entries = {}
    for _ in range(count):
        assert raw[offset : offset + 4] == b"PK\x01\x02"
        name_length, extra_length, comment_length = struct.unpack(
            "<HHH", raw[offset + 28 : offset + 34]
        )
        name = raw[offset + 46 : offset + 46 + name_length].decode()
        entries[name] = offset
        offset += DIRECTORY_ENTRY_SIZE + name_length + extra_length + comment_length
    return entries


def flipped(raw: bytes, at: int, bit: int) -> bytes:
    mutated = bytearray(raw)
    mutated[at] ^= 1 << bit
    return bytes(mutated)


def rotten(raw: bytes, member: str) -> bytes:
    """``raw`` with bit 6 of ``member``'s last stored byte flipped."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        info = archive.getinfo(member)
    _, end = payload_span(raw, info)
    return flipped(raw, end - 1, 6)


def load_archive(checkpoint, name: str, raw: bytes, path):
    """Load ``raw`` as the checkpoint's ``name`` archive, and replay a
    plan once (which checks its mapped members)."""
    trainer, directory = checkpoint
    path.write_bytes(raw)
    if name == "store.npz":
        return load_store(path)
    plan = load_plan(
        path, load_store(directory / "store.npz"),
        trainer.features, trainer.labels,
    )
    return plan.run(SETS)


def test_hidden_entries_do_not_switch_the_check_off(checkpoint, tmp_path):
    """A rotten byte in ``index_positions``, and a flipped comment length
    in the directory entry of ``__plan_meta_values__.npy``.  When the
    digest table was written after that entry, zipfile stopped listing
    it, the plan loaded as an archive older than the table, and a mapped
    member went unchecked: the replay answered 0.037 off."""
    _, directory = checkpoint
    raw = rotten((directory / "plan.npz").read_bytes(), "index_positions.npy")
    entry = directory_entries(raw)["__plan_meta_values__.npy"]
    raw = flipped(raw, entry + COMMENT_LENGTH_HIGH_BYTE, 0)
    with pytest.raises(CheckpointCorruptionError):
        load_archive(checkpoint, "plan.npz", raw, tmp_path / "plan.npz")


@pytest.mark.parametrize("name", ["store.npz", "plan.npz"])
def test_no_comment_length_flip_hides_a_member(checkpoint, tmp_path, name):
    """The comment-length flip on every directory entry: alone it fails
    the load wherever it hides the entries after it, and together with a
    rotten byte in the first member it hides (the entry's own member, for
    the last entry) it always does."""
    _, directory = checkpoint
    raw = (directory / name).read_bytes()
    entries = list(directory_entries(raw).items())
    assert len(entries) >= 7
    missed = []
    for k, (member, offset) in enumerate(entries):
        at = offset + COMMENT_LENGTH_HIGH_BYTE
        victim = entries[min(k + 1, len(entries) - 1)][0]
        cases = [("and a rotten byte", flipped(rotten(raw, victim), at, 0))]
        if k + 1 < len(entries):
            cases.append(("alone", flipped(raw, at, 0)))
        for label, mutated in cases:
            try:
                load_archive(checkpoint, name, mutated, tmp_path / name)
            except CheckpointCorruptionError:
                continue
            missed.append(f"{member} {label}")
    assert not missed, missed


@pytest.mark.parametrize("where", ["directory", "local header"])
@pytest.mark.parametrize(
    "name, member",
    [("store.npz", "__deletion_log__.npy"), ("plan.npz", "index_positions.npy")],
)
def test_a_renamed_member_is_refused(checkpoint, tmp_path, name, member, where):
    """A flipped bit in the last letter of a member's name, in its
    directory entry or in its local header: the names disagree."""
    _, directory = checkpoint
    raw = (directory / name).read_bytes()
    if where == "directory":
        at = directory_entries(raw)[member] + DIRECTORY_ENTRY_SIZE
    else:
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            at = archive.getinfo(member).header_offset + 30
    mutated = flipped(raw, at + len(member) - len(".npy") - 1, 0)
    with pytest.raises(CheckpointCorruptionError):
        load_archive(checkpoint, name, mutated, tmp_path / name)


# ------------------------------------------------- malformed columns (v6)
def _swap(values, i, j):
    values = np.array(values)
    values[[i, j]] = values[[j, i]]
    return values


def _end_short(values):
    values = np.array(values)
    values[-1] -= 1
    return values


#: CRC-clean format-6 store members whose shapes or offsets do not fit
#: together: (member, edit).
MALFORMED_COLUMNS = {
    "offsets descend": ("record_offsets", lambda v: _swap(v, 2, 3)),
    "offsets end short of the slots": ("record_offsets", _end_short),
    "offsets start past 0": ("record_offsets", lambda v: v + 1),
    "offsets one short": ("record_offsets", lambda v: v[:-1]),
    "batches one slot long": ("batches", lambda v: np.append(v, 0)),
    "batches not ids": ("batches", lambda v: v.astype(float)),
    "probabilities one slot short": ("probabilities", lambda v: v[:-1]),
    "probabilities one class short": ("probabilities", lambda v: v[:, :-1]),
    "wx a vector": ("wx", lambda v: v[:, 0]),
    "moments one record short": ("moments", lambda v: v[:-1]),
    "moments flattened": ("moments", lambda v: v.reshape(len(v), -1)),
}


@pytest.fixture(scope="module")
def columnar(tmp_path_factory):
    """A small multinomial checkpoint with one committed deletion."""
    data = make_multiclass_classification(120, 6, n_classes=3, seed=8)
    trainer = IncrementalTrainer(
        "multinomial_logistic",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=10,
        n_iterations=8,
        n_classes=3,
        seed=0,
        method="priu",
    )
    trainer.fit(data.features, data.labels)
    trainer.remove([4, 50], commit=True)
    directory = tmp_path_factory.mktemp("columnar")
    trainer.save_checkpoint(directory)
    return trainer, directory


@pytest.mark.parametrize("case", sorted(MALFORMED_COLUMNS))
def test_malformed_columns_raise_typed(columnar, tmp_path, case):
    _, directory = columnar
    member, edit = MALFORMED_COLUMNS[case]
    members = archive_members(directory / "store.npz")
    members[member] = edit(members[member])
    path = write_stored(tmp_path / "store.npz", members)
    with pytest.raises(CheckpointCorruptionError):
        load_store(path)


@pytest.mark.parametrize("member", ["index_samples", "index_positions"])
def test_an_index_of_the_wrong_length_raises_typed(columnar, tmp_path, member):
    """A plan's occurrence index must hold one row per slot of the
    store it serves."""
    trainer, directory = columnar
    members = archive_members(directory / "plan.npz")
    members[member] = members[member][:-1]
    path = write_stored(tmp_path / "plan.npz", members)
    with pytest.raises(CheckpointCorruptionError, match=member):
        load_plan(
            path, load_store(directory / "store.npz"),
            trainer.features, trainer.labels,
        )


# ------------------------------------------------------------ .npy headers
def payload_span(raw: bytes, info: zipfile.ZipInfo) -> tuple[int, int]:
    """The byte range ``[start, end)`` a stored zip entry's data holds."""
    offset = info.header_offset
    name_length, extra_length = struct.unpack("<HH", raw[offset + 26 : offset + 30])
    start = offset + 30 + name_length + extra_length
    return start, start + info.file_size


def with_shape(path, member: str, shape: str) -> None:
    """Rewrite ``member``'s ``.npy`` 1.0 header in place, inside its
    padding, so that its shape reads ``shape``."""
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    start, _ = payload_span(bytes(raw), info)
    assert raw[start : start + 8] == b"\x93NUMPY\x01\x00"
    length = int.from_bytes(raw[start + 8 : start + 10], "little")
    header = raw[start + 10 : start + 10 + length].decode("latin1")
    header = re.sub(r"'shape': \([^)]*\)", f"'shape': {shape}", header)
    header = header.rstrip().ljust(length - 1) + "\n"
    assert len(header) == length
    raw[start + 10 : start + 10 + length] = header.encode("latin1")
    path.write_bytes(bytes(raw))


def test_overflowing_shape_fails_typed(checkpoint, tmp_path):
    """A shape of ``9e999`` overflowed ``int()`` inside the mapping
    parser; the load raised ``OverflowError``, which the fleet would
    retry as transient."""
    trainer, directory = checkpoint
    store = tmp_path / "store.npz"
    store.write_bytes((directory / "store.npz").read_bytes())
    with_shape(store, "summary_0_right", "(9e999,)")
    with pytest.raises(CheckpointCorruptionError):
        load_store(store)
    plan = tmp_path / "plan.npz"
    plan.write_bytes((directory / "plan.npz").read_bytes())
    member = next(
        name[: -len(".npy")]
        for name in zipfile.ZipFile(plan).namelist()
        if not name.startswith("__")
    )
    with_shape(plan, member, "(9e999,)")
    with pytest.raises(CheckpointCorruptionError):
        load_plan(
            plan, load_store(directory / "store.npz"),
            trainer.features, trainer.labels,
        )


def test_a_rotten_member_that_breaks_decode_surfaces_as_its_crc(
    checkpoint, tmp_path
):
    """``summary_<t>_weights`` re-headed as ``(1, r)``: it still maps,
    no longer pairs with its basis, and no longer matches its CRC.  The
    decode fails while the sweep is still running; the CRC verdict is
    the one reported."""
    _, directory = checkpoint
    store = tmp_path / "store.npz"
    store.write_bytes((directory / "store.npz").read_bytes())
    with zipfile.ZipFile(store) as archive:
        member = next(
            name.removesuffix(".npy") for name in archive.namelist()
            if name.endswith("_weights.npy")
        )
    rank = archive_members(store)[member].shape[0]
    with_shape(store, member, f"(1, {rank})")
    with pytest.raises(
        CheckpointCorruptionError, match=f"'{member}' .* CRC-32"
    ) as failure:
        load_store(store)
    assert "do not pair" in str(failure.value.__context__)


#: ``shape`` and ``fortran_order`` values a header may carry that no
#: writer produces.
ODD_FIELDS = [
    "'shape': (9e999,)", "'shape': (1e400, 2)", "'shape': (-1,)",
    "'shape': (True, 2)", "'shape': (2.0,)", "'shape': [3, 4]",
    "'shape': 12", "'shape': None", "'shape': (10**400,)",
    "'fortran_order': 1", "'fortran_order': 'yes'", "'descr': '<f9'",
    "'descr': [()]", "'descr': 3",
]


def npy_header_cases(version: tuple[int, int], seed: int):
    """A ``.npy`` payload written at ``version`` and the length of its
    header, then every truncation of the header, every single-bit flip
    of it, seeded multi-byte edits and :data:`ODD_FIELDS` swapped in."""
    array = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version, allow_pickle=False)
    raw = buffer.getvalue()
    header_end = len(raw) - array.nbytes
    yield "intact", raw
    for size in range(header_end + 1):
        yield f"truncate to {size} bytes", raw[:size]
    for at in range(header_end):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[at] ^= 1 << bit
            yield f"flip bit {bit} of byte {at}", bytes(mutated)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        mutated = bytearray(raw)
        for at in rng.integers(header_end, size=int(rng.integers(2, 6))):
            mutated[int(at)] = int(rng.integers(256))
        yield f"edit {bytes(mutated[:header_end])!r}", bytes(mutated)
    # The magic and length bytes are not text; the dict is ASCII.  An
    # edit keeps the header's length, inside its padding.
    text = raw[:header_end].decode("latin1")
    for field in ODD_FIELDS:
        key = field.split(":")[0]
        edited = re.sub(key + r": ('[^']*'|\([^)]*\)|\w+)", field, text)
        assert edited != text
        edited = edited.rstrip().ljust(header_end - 1) + "\n"
        assert len(edited) == header_end
        yield f"field {field}", edited.encode("latin1") + raw[header_end:]


def well_formed(parsed, raw: bytes) -> bool:
    if parsed is None:
        return True
    shape, fortran, dtype, data_offset = parsed
    return (
        isinstance(shape, tuple)
        and all(type(n) is int and n >= 0 for n in shape)
        and type(fortran) is bool
        and isinstance(dtype, np.dtype)
        and type(data_offset) is int
        and 10 <= data_offset <= len(raw)
    )


def stored_archive(payload: bytes) -> bytes:
    """An aligned, stored ``.npz`` whose first member holds ``payload``
    as is and whose second member follows it."""
    handle = io.BytesIO()
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
        for name, data in (("a.npy", payload), ("b.npy", b"\xab" * 256)):
            entry = _aligned_entry(name, handle.tell())
            with archive.open(entry, "w", force_zip64=True) as member:
                member.write(data)
    return handle.getvalue()


@pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
def test_npy_header_parser_never_raises(version):
    untyped, malformed = [], []
    for label, raw in npy_header_cases(version, seed=31 + version[0]):
        try:
            parsed = _parse_npy_header(raw)
        except Exception as exc:
            untyped.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if not well_formed(parsed, raw):
            malformed.append(f"{label}: {parsed!r}")
    assert not untyped, untyped
    assert not malformed, malformed
    raw = next(npy_header_cases(version, 0))[1]
    intact = _parse_npy_header(raw)
    assert intact == ((3, 4), True, np.dtype("<f8"), len(raw) - 12 * 8)


@pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
def test_mapped_member_never_reaches_past_its_entry(version):
    outside, mapped = [], 0
    for label, payload in npy_header_cases(version, seed=37 + version[0]):
        raw = stored_archive(payload)
        mapping = np.frombuffer(raw, dtype=np.uint8)
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            info = archive.getinfo("a.npy")
        start, end = payload_span(raw, info)
        try:
            member = _mmap_member(mapping, info, start)
        except ValueError:
            member = None  # the reader refuses it as corrupt
        if member is None:
            continue
        mapped += 1
        first = member.__array_interface__["data"][0] - mapping.ctypes.data
        if not (start < first and first + member.nbytes <= end):
            outside.append(label)
    assert not outside, outside
    assert mapped  # the intact payload, at least, maps


# ---------------------------------------------------------------- journal
#: The members a checkpoint save stages, in the order its journal lists
#: them.
MEMBERS = ("store.npz", "plan.npz")
#: Files beside the checkpoint directory a journal line ``../victim``
#: would reach.
OUTSIDE = {"victim": b"victim", "victim.new": b"staged by a bad journal"}


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """A save that crashed right after its journal landed: the old store
    and plan, their staged replacements and the real journal, as bytes,
    plus the training data."""
    data = make_regression(60, 4, seed=6)
    trainer = IncrementalTrainer(
        "linear",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=10,
        n_iterations=6,
        seed=0,
    )
    trainer.fit(data.features, data.labels)
    directory = tmp_path_factory.mktemp("journal") / "ckpt"
    trainer.save_checkpoint(directory)
    trainer.remove([3], commit=True)
    with FaultInjector().crash_at("journal.renamed").installed():
        with pytest.raises(SimulatedCrash):
            trainer.save_checkpoint(directory)
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    assert set(files) == {
        CHECKPOINT_JOURNAL, *MEMBERS, *(f"{m}.new" for m in MEMBERS)
    }
    return files, data


def recover_with_journal(files: dict, journal: bytes, case):
    """Recover a copy of the crashed save whose journal is ``journal``.

    Returns the typed error (or None) and the directory's files before
    and after; asserts that nothing beside the directory changed.
    """
    directory = case / "ckpt"
    directory.mkdir(parents=True)
    before = dict(files, **{CHECKPOINT_JOURNAL: journal})
    for name, raw in before.items():
        (directory / name).write_bytes(raw)
    for name, raw in OUTSIDE.items():
        (case / name).write_bytes(raw)
    error = None
    try:
        recover_checkpoint(directory)
    except CheckpointCorruptionError as exc:
        error = exc
    beside = {
        path.name: path.read_bytes() for path in case.iterdir()
        if path.is_file()
    }
    assert beside == OUTSIDE
    after = {path.name: path.read_bytes() for path in directory.iterdir()}
    return error, before, after


def rolled_forward_exactly(
    journal: bytes, before: dict, after: dict, version: str = "v2"
) -> bool:
    """``after`` is ``before`` with the journal's members rolled forward,
    and ``journal`` is byte for byte what a save of them writes (a
    ``v1`` save, of an older build, wrote no terminator)."""
    rolled = [
        m for m in MEMBERS
        if f"{m}.new" not in after and after.get(m) == before[f"{m}.new"]
    ]
    expected = {
        name: raw for name, raw in before.items()
        if name != CHECKPOINT_JOURNAL
    }
    for member in rolled:
        expected[member] = expected.pop(f"{member}.new")
    lines = (version, *rolled) + (("end",) if version == "v2" else ())
    written = "".join(f"{line}\n" for line in lines).encode()
    return bool(rolled) and after == expected and journal == written


class TestCheckpointJournal:
    def test_non_utf8_journal_raises_typed(self, journaled, tmp_path):
        files, data = journaled
        journal = b"v1\nstore.npz\n\xff\n"
        error, before, after = recover_with_journal(files, journal, tmp_path)
        assert isinstance(error, CheckpointCorruptionError)
        assert CHECKPOINT_JOURNAL in str(error)
        assert after == before
        with pytest.raises(CheckpointCorruptionError, match="journal"):
            IncrementalTrainer.from_checkpoint(
                tmp_path / "ckpt", data.features, data.labels
            )

    def test_member_outside_the_directory_is_refused(
        self, journaled, tmp_path
    ):
        files, _ = journaled
        error, before, after = recover_with_journal(
            files, b"v1\n../victim\n", tmp_path
        )
        assert isinstance(error, CheckpointCorruptionError)
        assert after == before

    def test_unknown_version_is_not_rolled_forward(self, journaled, tmp_path):
        files, _ = journaled
        error, before, after = recover_with_journal(
            files, b"v3\nstore.npz\nplan.npz\nend\n", tmp_path
        )
        assert isinstance(error, CheckpointCorruptionError)
        assert after == before

    def test_journal_cut_at_a_line_boundary_is_refused(
        self, journaled, tmp_path
    ):
        """``v2\\nstore.npz\\n`` is the real journal cut short, not a
        store-only save: rolling it forward would leave the new store
        beside the old plan."""
        files, data = journaled
        error, before, after = recover_with_journal(
            files, b"v2\nstore.npz\n", tmp_path
        )
        assert isinstance(error, CheckpointCorruptionError)
        assert after == before
        with pytest.raises(CheckpointCorruptionError, match="journal"):
            IncrementalTrainer.from_checkpoint(
                tmp_path / "ckpt", data.features, data.labels
            )

    @pytest.mark.parametrize("members", [MEMBERS, MEMBERS[:1]])
    def test_older_v1_journal_still_rolls_forward(
        self, journaled, tmp_path, members
    ):
        """A save by an older build, interrupted after its ``v1`` journal
        landed, is rolled forward as that journal lists."""
        files, _ = journaled
        journal = "".join(f"{line}\n" for line in ("v1", *members)).encode()
        error, before, after = recover_with_journal(files, journal, tmp_path)
        assert error is None
        assert rolled_forward_exactly(journal, before, after, version="v1")

    def test_journal_mutations_roll_forward_exactly_or_raise_typed(
        self, journaled, tmp_path
    ):
        """Every single-bit flip, 100 seeded multi-bit flips and every
        truncation of the real journal, which itself rolls both members
        forward.  No truncation rolls anything forward."""
        files, _ = journaled
        raw = files[CHECKPOINT_JOURNAL]
        error, before, after = recover_with_journal(
            files, raw, tmp_path / "intact"
        )
        assert error is None and set(after) == set(MEMBERS)
        assert rolled_forward_exactly(raw, before, after)
        cases = [(f"truncate to {size} bytes", raw[:size])
                 for size in range(len(raw))]
        for at in range(len(raw)):
            for bit in range(8):
                mutated = bytearray(raw)
                mutated[at] ^= 1 << bit
                cases.append((f"flip bit {bit} of byte {at}", bytes(mutated)))
        rng = np.random.default_rng(29)
        for _ in range(100):
            mutated = bytearray(raw)
            flips = int(rng.integers(2, 5))
            for at, bit in zip(
                rng.integers(len(raw), size=flips), rng.integers(8, size=flips)
            ):
                mutated[int(at)] ^= 1 << int(bit)
            cases.append((f"flip {flips} bits: {mutated!r}", bytes(mutated)))
        wrong = []
        for i, (label, journal) in enumerate(cases):
            try:
                error, before, after = recover_with_journal(
                    files, journal, tmp_path / f"case-{i}"
                )
            except Exception as exc:
                wrong.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if error is None:
                ok = not label.startswith("truncate") and (
                    rolled_forward_exactly(journal, before, after)
                )
            else:
                ok = after == before
            if not ok:
                wrong.append(label)
        assert not wrong, wrong
