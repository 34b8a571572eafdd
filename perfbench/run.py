"""Benchmark of the recalltree package.

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy::

    python3 perfbench/run.py --workload train-k1024 --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
sets up once with spans on, runs half the time untraced and half traced,
and reports the per-layer metrics and the tracing overhead; the spans are
written to ``perfbench/traces/``.  ``--size smoke`` shrinks every input for
a quick functional check.

Human-readable lines come first: the machine record, the workload's
inputs, every metric with its unit, and information that is not gated.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_REPEATS = 3
MAX_TRACED_SPANS = 4_000_000

END_TO_END = {
    "setup_s": "s",
    "tree_ex_per_s": "examples/s",
    "flat_ex_per_s": "examples/s",
    "tree_accuracy": "fraction",
    "flat_accuracy": "fraction",
    "tree_work_per_ex": "hyperplanes/ex",
    "tree_predict_p50_us": "us",
    "tree_predict_p99_us": "us",
    "peak_rss_mb": "MiB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-k1024", "predict-k4096", "online-k64-wide"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_package() -> bool:
    """Put the checkout's ``src`` first on the path and import recalltree
    from it.  False when the checkout holds no source."""
    package = ROOT / "src" / "recalltree"
    if not (package / "__init__.py").is_file():
        print(f"error: no recalltree source under {package.relative_to(ROOT)}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import recalltree
    if Path(recalltree.__file__).resolve().parent != package.resolve():
        print(f"error: imported recalltree from {recalltree.__file__}", file=sys.stderr)
        return False
    return True


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(args, spec) -> dict:
    import numpy as np
    return {
        "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "structure": spec.structure, "K": spec.num_classes, "dims": spec.dims,
        "noise": spec.noise, "bits": spec.bits, "streams": spec.streams,
        "train": spec.train, "held": spec.held,
        "flat_train": spec.flat_train, "latency_samples_per_round": spec.latency,
    }


def _run_rounds(workload, seconds: float, tracer=None, cycle: int = 1) -> list:
    """Whole cycles of ``cycle`` rounds until ``seconds`` have passed, so that
    every stream weighs the same.  A traced run also stops once the span
    buffer is full."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) % cycle or time.perf_counter() < deadline:
        if tracer is not None and rounds and len(tracer) >= MAX_TRACED_SPANS:
            break
        rounds.append(workload.run_round(len(rounds), tracer))
    return rounds


def _end_to_end(setup_times, rounds) -> dict[str, float]:
    """Throughput is the median over chunks or CLI calls.  Each latency
    percentile is the median over rounds of the round's own percentile: a
    tree's tail follows its depth, so pooling would let the deepest of the
    run's trees set the 99th percentile.  Every round takes at least 1,000
    samples."""
    import numpy as np

    def latency(q: float) -> float:
        return statistics.median(float(np.percentile(r.latency_ns, q)) / 1e3 for r in rounds)

    first = [r for r in rounds if r.tree_accuracy is not None]
    print(f"info latency_samples={sum(len(r.latency_ns) for r in rounds)} rounds={len(rounds)} "
          f"tree_chunks={sum(len(r.tree_rates) for r in rounds)} "
          f"tree_nodes={[r.nodes for r in first]}")
    return {
        "setup_s": statistics.median(setup_times),
        "tree_ex_per_s": statistics.median(x for r in rounds for x in r.tree_rates),
        "flat_ex_per_s": statistics.median(x for r in rounds for x in r.flat_rates),
        "tree_accuracy": statistics.fmean(r.tree_accuracy for r in first),
        "flat_accuracy": statistics.fmean(r.flat_accuracy for r in first),
        "tree_work_per_ex": statistics.fmean(r.work_per_ex for r in first),
        "tree_predict_p50_us": latency(50),
        "tree_predict_p99_us": latency(99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _freeze_inputs() -> None:
    """Move the inputs out of the collector's reach, so that its full
    collections during the timed rounds do not rescan them."""
    gc.collect()
    gc.freeze()


def _untraced(workload, args):
    setup_times = [workload.meter.timed(workload.setup)[1] for _ in range(SETUP_REPEATS)]
    _freeze_inputs()
    print(f"info setup_s_each={[round(t, 4) for t in setup_times]}")
    rounds = _run_rounds(workload, args.seconds, cycle=workload.min_rounds)
    factors = workload.meter.factors
    print(f"info interference: raw times are the reported ones divided by a factor with "
          f"median {statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f} "
          f"over {len(factors)} timings (1 = the quiet reference host)")
    return rounds, _end_to_end(setup_times, rounds), END_TO_END


def _traced(workload, args):
    from tracing import Tracer, per_layer_names

    tracer = Tracer()
    with tracer.installed():
        with tracer.phase("setup", 0):
            workload.setup()
    _freeze_inputs()
    plain = _run_rounds(workload, args.seconds / 2)
    with tracer.installed():
        traced = _run_rounds(workload, args.seconds / 2, tracer)
    for name in tracer.not_measured:
        print(f"info not measured: {name}")

    metrics = tracer.metrics()
    print(f"info share of the tree phase outside every traced function="
          f"{tracer.unattributed_tree_share:.4f}")
    untraced_rate = statistics.median(x for r in plain for x in r.tree_rates)
    traced_rate = statistics.median(x for r in traced for x in r.tree_rates)
    metrics["tree.nodes"] = plain[0].nodes
    metrics["trace.tree_ex_per_s_untraced"] = untraced_rate
    metrics["trace.tree_ex_per_s_traced"] = traced_rate
    metrics["trace.overhead"] = 1.0 - traced_rate / untraced_rate

    out_dir = BENCH_DIR / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.npz"
    tracer.save(str(path))
    print(f"info spans={len(tracer)} written to {path.relative_to(ROOT)}")
    return plain + traced, metrics, dict(per_layer_names())


def main(argv=None) -> int:
    args = _parse_args(argv)
    # one thread: the workloads are closed loops in a single caller
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not _import_package():
        return 2
    from workloads import SPECS, WORKLOADS

    spec = SPECS[args.size][args.workload]
    print("info machine " + json.dumps(_machine(args, spec)))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        workload = WORKLOADS[args.workload](spec, args.seed, workdir)
        rounds, metrics, units = (_traced if args.trace else _untraced)(workload, args)
    except Exception:  # a program that raises still yields a result line
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for i, r in enumerate(rounds, start=1):
        for problem in r.problems:
            print(f"info failed round {i}: {problem}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        ratio = metrics["tree_ex_per_s"] / metrics["flat_ex_per_s"]
        print(f"info tree_ex_per_s/flat_ex_per_s = {ratio:.4f} (above 1: the tree is faster)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
