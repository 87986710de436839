"""The repository benchmark: one command, three workloads, two kinds of run.

Usage, from the repository root::

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 10 --trace 0

Each run sets the workload up :data:`SETUP_REPEATS` times from the
generated data (``setup_s`` is the median), then measures one window on
the last set-up.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` measures one untraced window on the second-to-last set-up
and one traced window, with spans around every layer's public entry
points, on the last, so both start from the same state with the same
requests; it reports the per-layer metrics (``metrics.py``) and writes
the spans to ``.perfbench/trace-<workload>-<seed>.jsonl``.

The human-readable report comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits 1 when an answer fails the correctness gate
or an operation fails, and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

# Pin the BLAS pool before anything imports numpy: one thread per
# serving worker, so the fleet's worker count decides the parallelism.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(size) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fields = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "scale": size.scale,
        "iteration_divisor": size.iteration_divisor,
    }
    return " ".join(f"{key}={value}" for key, value in fields.items())


def execute(args, size) -> dict:
    """Set up, measure and check; returns everything the report needs."""
    from measure import PssSampler
    from models import Scratch, generate
    from spans import Tracer
    from traffic import stream_hash
    from workloads import WORKLOADS, Client

    kind = WORKLOADS[args.workload]
    workload = kind(size, args.seed, generate(size, kind.keys))
    tracer = Tracer() if args.trace else None
    run = {
        "workload": workload,
        "hash": stream_hash(*workload.streams.values()),
        "setup_seconds": [],
        "warm_seconds": [],
        "windows": [],
        "checks": [],
        "tracer": tracer,
    }

    def measure(stack, traced: bool) -> None:
        client = Client(stack.server, tracer if traced else None)
        if traced:
            before = workload.registry_stats(stack) or {}
            counters = dict(tracer.counters)
            tracer.phase = "window"
            tracer.install()
            try:
                window = workload.window(stack, workload.feed(), client, args.seconds)
            finally:
                tracer.uninstall()
            after = workload.registry_stats(stack) or {}
            run["registry_delta"] = {
                key: after[key] - before.get(key, 0)
                for key in ("loads", "hits", "evictions")
                if key in after
            }
            run["counters"] = {
                key: value - counters.get(key, 0)
                for key, value in tracer.counters.items()
            }
        elif tracer is None:
            sampler = PssSampler().start()
            try:
                window = workload.window(stack, workload.feed(), client, args.seconds)
            finally:
                sampler.stop()
            run["rss_peak_bytes"] = sampler.peak
        else:  # the untraced baseline of a traced run
            window = workload.window(stack, workload.feed(), client, args.seconds)
        run["windows"].append(window)
        run["checks"].append(workload.check(stack, [window]))

    scratch = Scratch(OUT / "tmp")
    stack = None
    try:
        for attempt in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.phase = f"setup{attempt}"
                tracer.install()
            started = time.perf_counter()
            stack = workload.build(scratch)
            run["setup_seconds"].append(time.perf_counter() - started)
            run["warm_seconds"].append(stack.warm_seconds)
            if tracer is not None:
                tracer.uninstall()
            if attempt == SETUP_REPEATS - 1:
                measure(stack, traced=tracer is not None)
            elif tracer is not None and attempt == SETUP_REPEATS - 2:
                measure(stack, traced=False)
            stack.close()
            stack = None
            gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if stack is not None:
            stack.close()
        scratch.close()
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        run["trace_path"] = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(run["trace_path"])
    return run


def report_end_to_end(name, run) -> dict:
    import metrics
    from measure import median, percentile
    from workloads import OPEN_LOOP_RATE

    window = run["windows"][-1]
    values = metrics.end_to_end(window, run["setup_seconds"], run["rss_peak_bytes"])
    aliases = metrics.ALIASES[name]
    units = {metric: unit for metric, unit, *_ in metrics.END_TO_END}
    for metric, (value, samples) in values.items():
        alias = f" [{aliases[metric]}]" if metric in aliases else ""
        print(f"  {metric}{alias} = {value:.6g} {units[metric]} (n={samples})")
    for kind in ("maintain", "save"):
        sweeps = [1e3 * (op.done - op.submitted) for op in window.ops if op.kind == kind]
        if sweeps:
            print(f"  {kind}_p50_ms = {median(sweeps):.6g} ms (n={len(sweeps)})")
    if window.late:
        late = 1e3 * percentile(window.late, 90)
        behind = late > 1e3 / OPEN_LOOP_RATE  # later than one mean arrival gap
        flag = "  GENERATOR FELL BEHIND" if behind else ""
        print(f"  gen.late_p90_ms = {late:.4g} ms (n={len(window.late)}){flag}")
    return {metric: (value, units[metric]) for metric, (value, _) in values.items()}


def report_per_layer(run) -> dict:
    import metrics

    tracer = run["tracer"]
    values = metrics.per_layer(
        tracer,
        run["windows"],
        SETUP_REPEATS,
        run["warm_seconds"],
        run["registry_delta"],
        run["counters"],
        run["workload"].router_hops,
    )
    for metric, unit, _, moves, where in metrics.PER_LAYER:
        value, samples = values[metric]
        print(f"  {metric} = {value:.6g} {unit} (n={samples}); moves {moves} on {where}")
    untraced, traced = (
        metrics.median([op.latency for op in window.primary if op.answered])
        for window in run["windows"]
    )
    print(
        f"  primary latency p50: {1e3 * traced:.4g} ms traced vs "
        f"{1e3 * untraced:.4g} ms untraced (run-to-run noise included)"
    )
    spans = [s for s in tracer.spans if s.phase == "window" and s.end is not None]
    busy, unattributed, layers = metrics.attribution(spans, run["windows"][-1].ops)
    print(
        f"self time by layer over {1e3 * busy:.1f} ms busy in the traced window "
        "(threads overlap, so shares may sum past 100%):"
    )
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"  {layer:32s} {1e3 * seconds:10.1f} ms  {seconds / busy:7.1%}")
    print(f"  {'unattributed':32s} {1e3 * unattributed:10.1f} ms  {unattributed / busy:7.1%}")
    print(f"spans written to {run['trace_path'].relative_to(ROOT)}")
    units = {metric: unit for metric, unit, *_ in metrics.PER_LAYER}
    return {metric: (value, units[metric]) for metric, (value, _) in values.items()}


def report(args, size, run) -> dict:
    """Print the human-readable report; return the final JSON object."""
    ops = [op for window in run["windows"] for op in window.ops]
    errors = [op for op in ops if op.error is not None]
    checks = sum(made for made, _, _ in run["checks"])
    breaches = sum(bad for _, bad, _ in run["checks"])
    worst = max(deviation for _, _, deviation in run["checks"])
    attempted = len(ops) + checks
    failed = len(errors) + breaches
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"env {environment(size)}")
    print(f"why: {run['workload'].why}")
    print(f"request stream sha256={run['hash']}")
    print(
        f"correctness: {checks} checks, {breaches} breaches, worst deviation "
        f"{worst:.3g} (atol 1e-10); {len(errors)} failed operations"
    )
    for op in errors[:5]:
        print(f"  failed {op.kind}: {op.error}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    if args.trace:
        values = report_per_layer(run)
    else:
        values = report_end_to_end(args.workload, run)
    return {
        "correct": breaches == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(value), "unit": unit}
            for metric, (value, unit) in values.items()
        },
    }


def main(argv=None, size=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The benchmark's modules import the library, so they load only now.
    from models import FULL
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    size = size or FULL
    result = report(args, size, execute(args, size))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
