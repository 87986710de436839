"""The benchmark's self-test, at tiny size.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, prints a final JSON line whose
  metrics are exactly the ``end_to_end`` / ``per_layer`` names in
  ``BENCHMARK.json``, each with its unit, and passes the correctness gate;
* ``BENCHMARK.json`` lists the same metrics as ``metrics.py`` and the
  same workloads as ``workloads.py``;
* one seed always draws the same request streams (equal hashes) and
  another seed draws different ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import metrics  # noqa: E402
from models import TINY, generate  # noqa: E402
from traffic import stream_hash  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_contract(contract: dict) -> None:
    names = [w["name"] for w in contract["workloads"]]
    assert sorted(names) == sorted(WORKLOADS), names
    end_to_end = {m["name"]: m for m in contract["end_to_end"]}
    assert {n: (u, b, x) for n, u, b, x in metrics.END_TO_END} == {
        n: (m["unit"], m["better"], m["bound"]) for n, m in end_to_end.items()
    }, "BENCHMARK.json end_to_end differs from metrics.END_TO_END"
    assert {n: (u, b) for n, u, b, *_ in metrics.PER_LAYER} == {
        m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]
    }, "BENCHMARK.json per_layer differs from metrics.PER_LAYER"


def check_streams() -> None:
    for name, workload in WORKLOADS.items():
        data = generate(TINY, workload.keys)

        def digest(seed):
            return stream_hash(*workload(TINY, seed, data).streams.values())

        assert digest(11) == digest(11), f"{name}: one seed, two streams"
        assert digest(11) != digest(12), f"{name}: two seeds, one stream"


def check_run(name: str, trace: int, expected: dict) -> None:
    output = io.StringIO()
    argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(output):
        code = run.main(argv, size=TINY)
    lines = output.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, f"{name} trace={trace} exited {code}:\n{output.getvalue()}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == expected, f"{name} trace={trace}: {got} != {expected}"
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), (metric, entry)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    check_contract(contract)
    check_streams()
    units = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, units[trace])
            print(f"ok  {name} trace={trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
