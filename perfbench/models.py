"""The three models every workload serves, and the timed set-up around them.

The configurations are the repository's own "Cov (extended)", "HIGGS
(extended)" and "Heartbeat (extended)" at ``REPRO_BENCH_SCALE``-style
dataset scale, with the SGD iteration count divided as well so that
three fits, three checkpoint writes and the warm-up stay within a few
seconds on two cores.  Heartbeat is served with ``method="priu"`` so the
compiled plan and its blocked kernel sit on the hot path; the other two
keep their default (PrIU-opt).

The datasets come from the catalog's fixed generators and the SGD
schedule from a fixed seed, so set-up work is the same for every run;
the run's ``--seed`` only drives the request streams (``traffic.py``).
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import IncrementalTrainer
from repro.bench import CONFIGS

EXPERIMENTS = {
    "cov": ("Cov (extended)", None),
    "higgs": ("HIGGS (extended)", None),
    "heartbeat": ("Heartbeat (extended)", "priu"),
}


@dataclass(frozen=True)
class Size:
    """Dataset scale and the divisor applied to each config's iterations."""

    scale: float
    iteration_divisor: int

    def config(self, key: str):
        name, method = EXPERIMENTS[key]
        config = CONFIGS[name]
        changes = {
            "scale": config.scale * self.scale,
            "n_iterations": max(2, config.n_iterations // self.iteration_divisor),
        }
        if method is not None:
            changes["method"] = method
        return dataclasses.replace(config, **changes)


FULL = Size(scale=0.02, iteration_divisor=10)
TINY = Size(scale=0.004, iteration_divisor=60)


@dataclass
class Data:
    features: object
    labels: object

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])


def generate(size: Size, keys) -> dict[str, Data]:
    """The training data of each model (outside every timed region)."""
    data = {}
    for key in keys:
        dataset = size.config(key).load()
        data[key] = Data(dataset.features, dataset.labels)
    return data


class Scratch:
    """A private directory for checkpoints, removed on :meth:`close`."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))

    def new_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def fit_and_save(size: Size, key: str, data: Data, directory: Path):
    """Fit one model (capture + plan compile) and write its checkpoint."""
    trainer = IncrementalTrainer(**size.config(key).trainer_kwargs())
    trainer.fit(data.features, data.labels)
    trainer.save_checkpoint(directory)
    return trainer
