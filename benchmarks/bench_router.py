"""Sharded router: throughput scale-out and zero-copy plan residency.

The router acceptance bar (ISSUE 9): on the Fig-4 repeated-removal
workload spread over several models,

* **scale-out** — aggregate ``remove_many`` throughput at 4 shard
  processes reaches ≥ 2.5× the single-process :class:`FleetServer`
  (recorded always; asserted only under ``REPRO_BENCH_ASSERT_TIMING=1``
  — the ratio needs ≥ 4 idle cores, which shared runners don't promise);
* **zero-copy** — every shard maps the same read-only plan archive, so
  the *plan* bytes resident per extra worker process are ≈ 0 (asserted
  < 5% of the plan's size whenever ``/proc/<pid>/smaps`` is available:
  PSS charges each shared page 1/n to its n mappers, so the fleet-wide
  plan residency stays one copy no matter how many shards map it).
  Each model is served once before PSS is sampled, which maps and reads
  every plan page (the first replay's checksum sweep reads them all);
* **bit-identity** — a serial mixed-lane contract run answers exactly
  like the single-process fleet (always asserted; serial submission
  keeps both sides in the singleton batch-size class, where the
  engine's answers are composition-independent).

Runable standalone (writes ``BENCH_router.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.02 \
        python benchmarks/bench_router.py --out BENCH_router.json
"""

import json
import os
import time
from pathlib import Path

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

from repro import AdmissionPolicy, FleetServer, ModelRegistry, ShardRouter  # noqa: E402
from repro.bench.reporting import report  # noqa: E402
from repro.eval import pss_bytes  # noqa: E402

from conftest import workload  # noqa: E402

EXPERIMENT = "Cov (extended)"
N_SHARDS = 4
N_MODELS = 4
N_SUBSETS = 10  # Fig-4: ten repeated removal subsets per model
DELETION_RATE = 0.001
POLICY = AdmissionPolicy(max_batch=8, max_delay_seconds=0.002)
ASSERT_TIMING = os.environ.get("REPRO_BENCH_ASSERT_TIMING", "") == "1"

_CHECKPOINT_CACHE: dict[str, object] = {}


def _checkpoint(tmp_root: Path):
    """Fit the workload once; save its checkpoint once per process."""
    if "entry" not in _CHECKPOINT_CACHE:
        wl = workload(EXPERIMENT)
        directory = tmp_root / "router-bench-checkpoint"
        wl.trainer.save_checkpoint(directory)
        _CHECKPOINT_CACHE["entry"] = (wl, directory)
    return _CHECKPOINT_CACHE["entry"]


def _traffic(wl):
    """Fig-4 shaped: N_SUBSETS removal sets per model, distinct seeds."""
    return [
        (f"model-{m}", wl.subset(DELETION_RATE, seed=m * N_SUBSETS + i))
        for m in range(N_MODELS)
        for i in range(N_SUBSETS)
    ]


def _register_models(server, wl, directory, router: bool):
    for m in range(N_MODELS):
        model_id = f"model-{m}"
        if router:
            server.register(
                model_id, directory, wl.dataset.features, wl.dataset.labels
            )
        else:
            server.register(
                model_id,
                checkpoint=directory,
                features=wl.dataset.features,
                labels=wl.dataset.labels,
            )


def _burst_throughput(server, traffic):
    """Submit everything at once; requests answered per wall-clock second."""
    started = time.perf_counter()
    futures = [server.submit(model_id, ids) for model_id, ids in traffic]
    outcomes = [future.result(timeout=300) for future in futures]
    elapsed = time.perf_counter() - started
    return len(outcomes) / elapsed, elapsed, outcomes


def _plan_pss_bytes(pid: int, plan_path: Path) -> int | None:
    """One process's resident (PSS) bytes of mappings of the plan archive.

    Parses ``/proc/<pid>/smaps``: each mapping opens with a header line
    carrying the backing path; its ``Pss:`` line charges this process
    1/n of every page n processes share.  Summed over the fleet this is
    the plan's *total* physical residency — one copy, however many
    shards map it.
    """
    name = plan_path.name
    total = 0
    current_is_plan = False
    try:
        with open(f"/proc/{pid}/smaps") as handle:
            for line in handle:
                if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ", 1)[0]:
                    current_is_plan = line.rstrip("\n").endswith(name)
                elif current_is_plan and line.startswith("Pss:"):
                    total += int(line.split()[1]) * 1024
    except OSError:
        return None
    return total


def _worker_pids(router: ShardRouter) -> list[int]:
    description = router.describe()
    return [
        shard["pid"]
        for shard in description["shards"].values()
        if shard["alive"] and shard["pid"] is not None
    ]


def _resident_plan_bytes(tmp_root: Path):
    """Fleet-wide plan residency at 1 vs N_SHARDS workers (module docstring)."""
    wl, directory = _checkpoint(tmp_root)
    plan_path = Path(directory) / "plan.npz"
    plan_bytes = plan_path.stat().st_size
    residency = {}
    pss_totals = {}
    for n_shards in (1, N_SHARDS):
        with ShardRouter(n_shards=n_shards, policy=POLICY) as router:
            _register_models(router, wl, directory, router=True)
            # Touch every model once so each home shard loads (and maps)
            # its models, then let the queues drain.
            for m in range(N_MODELS):
                router.submit(f"model-{m}", wl.subset(DELETION_RATE, seed=m))
            router.flush(timeout=120)
            pids = _worker_pids(router)
            samples = [_plan_pss_bytes(pid, plan_path) for pid in pids]
            pss = [pss_bytes(pid) for pid in pids]
            if any(sample is None for sample in samples):
                return None, plan_bytes, {}
            residency[n_shards] = sum(samples)
            pss_totals[n_shards] = (
                None if any(p is None for p in pss) else sum(pss)
            )
    per_extra = (residency[N_SHARDS] - residency[1]) / (N_SHARDS - 1)
    return (
        {
            "plan_pss_total_1_shard": residency[1],
            f"plan_pss_total_{N_SHARDS}_shards": residency[N_SHARDS],
            "resident_plan_bytes_per_extra_process": per_extra,
            "pss_total_1_shard": pss_totals[1],
            f"pss_total_{N_SHARDS}_shards": pss_totals[N_SHARDS],
        },
        plan_bytes,
        residency,
    )


def _bit_identity(tmp_root: Path) -> float:
    """Serial mixed-lane contract: router ≡ single-process fleet, in bits."""
    wl, directory = _checkpoint(tmp_root)
    serial = [
        (f"model-{i % N_MODELS}", wl.subset(DELETION_RATE, seed=100 + i),
         "deadline" if i % 4 == 0 else "bulk")
        for i in range(12)
    ]
    registry = ModelRegistry()
    _register_models(registry, wl, directory, router=False)
    with FleetServer(registry, POLICY, method="priu", n_workers=1) as fleet:
        reference = [
            fleet.submit(m, ids, lane=lane).result(timeout=300)
            for m, ids, lane in serial
        ]
    with ShardRouter(n_shards=N_SHARDS, policy=POLICY) as router:
        _register_models(router, wl, directory, router=True)
        answers = [
            router.submit(m, ids, lane=lane).result(timeout=300)
            for m, ids, lane in serial
        ]
    deviation = 0.0
    for expected, actual in zip(reference, answers):
        if not np.array_equal(expected.weights, actual.weights):
            deviation = max(
                deviation,
                float(np.max(np.abs(expected.weights - actual.weights))),
            )
    return deviation


def _throughputs(tmp_root: Path):
    wl, directory = _checkpoint(tmp_root)
    traffic = _traffic(wl)
    # One request per model: the traffic is model-major, so every
    # N_SUBSETS-th request belongs to the next model.  Each burst below
    # then loads every model before the timed burst starts.
    warm_up = traffic[::N_SUBSETS]
    registry = ModelRegistry()
    _register_models(registry, wl, directory, router=False)
    with FleetServer(registry, POLICY, method="priu", n_workers=1) as fleet:
        _, single_warm, _ = _burst_throughput(fleet, warm_up)
        single, single_elapsed, outcomes = _burst_throughput(fleet, traffic)
        assert len(outcomes) == len(traffic)
    with ShardRouter(n_shards=N_SHARDS, policy=POLICY) as router:
        _register_models(router, wl, directory, router=True)
        _, sharded_warm, _ = _burst_throughput(router, warm_up)
        sharded, sharded_elapsed, outcomes = _burst_throughput(router, traffic)
        assert len(outcomes) == len(traffic)
        router.flush(timeout=120)
        stats = router.stats()
        assert stats.failed == 0
        assert stats.answered == stats.submitted
    return {
        "n_requests": len(traffic),
        "n_warm_up_requests": len(warm_up),
        "single_process_warm_up_seconds": single_warm,
        "single_process_rps": single,
        "single_process_seconds": single_elapsed,
        f"router_{N_SHARDS}_shards_warm_up_seconds": sharded_warm,
        f"router_{N_SHARDS}_shards_rps": sharded,
        f"router_{N_SHARDS}_shards_seconds": sharded_elapsed,
        "throughput_ratio": sharded / single,
    }


# ------------------------------------------------------------------ pytest
def test_router_bit_identical_and_scales(tmp_path_factory):
    tmp_root = tmp_path_factory.mktemp("router-bench")
    deviation = _bit_identity(tmp_root)
    assert deviation == 0.0, f"router deviates from fleet by {deviation}"
    throughput = _throughputs(tmp_root)
    report(
        "router_throughput",
        f"Sharded router: {N_SHARDS} shards vs one process",
        [throughput],
    )
    if ASSERT_TIMING:
        assert throughput["throughput_ratio"] >= 2.5


def test_plan_residency_is_shared(tmp_path_factory):
    tmp_root = tmp_path_factory.mktemp("router-bench-memory")
    memory, plan_bytes, _ = _resident_plan_bytes(tmp_root)
    if memory is None:
        import pytest

        pytest.skip("/proc/<pid>/smaps unavailable")
    assert (
        memory["resident_plan_bytes_per_extra_process"] < 0.05 * plan_bytes
    ), memory


# --------------------------------------------------------------- standalone
def main(out_path: str = "BENCH_router.json") -> dict:
    """Smoke-scale run recording the router trajectory (CI artifact)."""
    import tempfile

    from conftest import SCALE

    with tempfile.TemporaryDirectory() as scratch:
        tmp_root = Path(scratch)
        deviation = _bit_identity(tmp_root)
        assert deviation == 0.0, f"router deviates from fleet by {deviation}"
        throughput = _throughputs(tmp_root)
        memory, plan_bytes, _ = _resident_plan_bytes(tmp_root)
        if memory is not None:
            per_extra = memory["resident_plan_bytes_per_extra_process"]
            assert per_extra < 0.05 * plan_bytes, memory
        if ASSERT_TIMING:
            assert throughput["throughput_ratio"] >= 2.5
    results = {
        "scale": SCALE,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "experiment": EXPERIMENT,
        "n_shards": N_SHARDS,
        "n_models": N_MODELS,
        "n_subsets_per_model": N_SUBSETS,
        "deletion_rate": DELETION_RATE,
        "bit_identical_to_single_process": True,
        "max_abs_deviation": deviation,
        "plan_bytes": plan_bytes,
        "throughput": throughput,
        "memory": memory,
        "timing_asserted": ASSERT_TIMING,
    }
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    print(
        f"  throughput: {throughput['single_process_rps']:.1f} rps (1 proc) "
        f"-> {throughput[f'router_{N_SHARDS}_shards_rps']:.1f} rps "
        f"({N_SHARDS} shards), ratio {throughput['throughput_ratio']:.2f}x"
    )
    if memory is not None:
        print(
            f"  plan residency: {plan_bytes} plan bytes, "
            f"{memory['resident_plan_bytes_per_extra_process']:.0f} "
            "resident plan bytes per extra process"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_router.json")
    main(parser.parse_args().out)
