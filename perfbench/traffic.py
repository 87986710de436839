"""Seeded request streams.

Every workload draws its whole request stream up front from the run's
``--seed``, before any model is fitted, so the program under test only
ever sees generated inputs and one seed always yields the same stream.
:func:`stream_hash` fingerprints a stream; the self-test compares the
hashes of two draws with the same seed (equal) and with different seeds
(different).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

DELETION_RATE = 0.001  # removal-set size as a share of the model's samples
DEADLINE_SHARE = 4  # one request in this many rides the deadline lane


@dataclass(frozen=True)
class Request:
    """One generated operation: what to send, where, and (open loop) when."""

    model: str
    ids: np.ndarray
    lane: str | None = None
    due: float = 0.0  # seconds after the phase starts (open loop only)


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([int(seed), salt])


def _removal(rng: np.random.Generator, n_samples: int, size: int) -> np.ndarray:
    return np.sort(rng.choice(n_samples, size=size, replace=False))


def query_stream(
    seed: int,
    stream: str,
    models: dict[str, int],
    count: int,
    rate: float | None = None,
) -> list[Request]:
    """Counterfactual queries over ``models``.

    ``models`` maps model id to its sample count; each removal set holds
    :data:`DELETION_RATE` of that model's samples (at least one id).
    One request in :data:`DEADLINE_SHARE` goes to the ``deadline`` lane,
    the rest to ``bulk``.  With ``rate`` (requests per second) the
    requests pick models at random and carry Poisson arrival times for
    an open-loop phase; without, they visit the models in turn, so every
    slice of the stream loads each model equally.
    """
    rng = _rng(seed, stream)
    names = sorted(models)
    picks = (
        rng.integers(len(names), size=count)
        if rate is not None
        else np.arange(count) % len(names)
    )
    lanes = rng.integers(DEADLINE_SHARE, size=count)
    gaps = (
        rng.exponential(1.0 / rate, size=count)
        if rate is not None
        else np.zeros(count)
    )
    dues = np.cumsum(gaps) - gaps[0]
    requests = []
    for pick, lane, due in zip(picks, lanes, dues):
        name = names[pick]
        n = models[name]
        size = max(1, int(round(DELETION_RATE * n)))
        requests.append(
            Request(
                model=name,
                ids=_removal(rng, n, size),
                lane="deadline" if lane == 0 else "bulk",
                due=float(due),
            )
        )
    return requests


def cycle_stream(
    seed: int, stream: str, models: list[str], n_samples: int, count: int
) -> list[Request]:
    """Closed-loop queries visiting ``models`` in a fixed cycle."""
    rng = _rng(seed, stream)
    size = max(1, int(round(DELETION_RATE * n_samples)))
    return [
        Request(model=models[i % len(models)], ids=_removal(rng, n_samples, size))
        for i in range(count)
    ]


def erase_stream(
    seed: int, stream: str, models: dict[str, int], count: int
) -> list[Request]:
    """Committed erasures of 1-4 ids, alternating models.

    Sizes cycle 1, 2, 3, 4 per model, so every seed erases the same
    number of samples per round and only which samples differs.  Ids
    address each model's *current* id space: a closed-loop client
    commits one erasure before sending the next, so every erasure of
    ``k`` distinct ids shrinks that model by exactly ``k`` and the stream
    can be drawn in full up front.
    """
    rng = _rng(seed, stream)
    names = sorted(models)
    live = dict(models)
    requests = []
    for i in range(count):
        name = names[i % len(names)]
        size = 1 + (i // len(names)) % 4
        requests.append(Request(model=name, ids=_removal(rng, live[name], size)))
        live[name] -= size
    return requests


def stream_hash(*streams: list[Request]) -> str:
    """A digest of every field of every request in ``streams``."""
    digest = hashlib.sha256()
    for requests in streams:
        for request in requests:
            digest.update(request.model.encode())
            digest.update(str(request.lane).encode())
            digest.update(np.float64(request.due).tobytes())
            digest.update(np.asarray(request.ids, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()
