"""The benchmark's three workloads.

The system is a single-caller online learner, so every workload is a closed
loop in one process and one thread: the next example goes to the program only
when the previous call has returned.

* ``train-k1024`` times ``RecallTreeModel.train`` and then ``OaaModel.train``
  at K=1024, where the tree still loses in wall-clock time.
* ``predict-k4096`` times ``recalltree predict`` (load, parse, descend, write)
  in-process for saved models at K=4096, where the tree already wins, plus
  single-example ``predict_full`` latency on the loaded tree.
* ``online-k64-wide`` times ``progressive_eval`` (predict, then train, on every
  example) at K=64 with 129 nonzeros per example, where the flat baseline wins.

Each workload draws its inputs from a pool whose class geometry is fixed
(``GEOMETRY_SEED``); the run's seed picks which examples of the pool it uses
and in what order.  A recall tree's accuracy and shape depend a good deal on
the order in which its routers see the stream, so every run trains fresh
models on several disjoint streams, one per round, and reports the mean over
them.  Rounds go on in whole cycles over the streams until the requested
seconds have passed; a round that revisits a stream must reproduce the
outputs of its first visit.  Every timing goes through ``Meter``, which
corrects it for interference from other processes on the machine.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import recalltree as rt
from recalltree import cli

# examples per timed chunk of a streaming phase; throughput is the median
# over chunks, which a short stall on a shared machine cannot move
CHUNK = 1000
GEOMETRY_SEED = 7
TREES_PER_SETUP = 2

# Time of one reference pass (best of three) on a quiet 2-vCPU Xeon host.
REFERENCE_NS = 225_000
# How the program's time follows the reference pass's under interference:
# fitted slopes of log time against log reference time.  Training chunks and
# CLI calls, which lean on numpy and memory, gave 0.25 to 0.6; single
# predict_full calls, which are mostly interpreter work, gave 0.83 to 0.87.
CALL_SLOPE = 0.5
LATENCY_SLOPE = 0.85
LATENCY_BATCH = 100


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload at one size."""

    structure: str
    num_classes: int
    dims: int
    noise: float
    bits: int
    streams: int      # disjoint streams per run (predict-k4096: trees over all set-ups)
    train: int        # training examples per stream
    held: int         # held-out examples per stream: holdout, queries or latency sample
    latency: int      # single-example predict_full samples per round
    flat_train: int = 0   # predict-k4096 trains the flat model on this prefix


SPECS = {
    "full": {
        "train-k1024": Spec("hierarchical-clusters", 1024, 12, 0.02, 20,
                            streams=4, train=12000, held=4000, latency=1200),
        "predict-k4096": Spec("zipf-tail", 4096, 12, 0.05, 24,
                              streams=6, train=6000, held=2000, latency=2000, flat_train=4500),
        "online-k64-wide": Spec("voronoi", 64, 128, 0.12, 18,
                                streams=8, train=3000, held=1000, latency=1000),
    },
    "smoke": {
        "train-k1024": Spec("hierarchical-clusters", 1024, 12, 0.02, 16,
                            streams=2, train=1200, held=300, latency=200),
        "predict-k4096": Spec("zipf-tail", 4096, 12, 0.05, 16,
                              streams=6, train=600, held=200, latency=200, flat_train=100),
        "online-k64-wide": Spec("voronoi", 64, 128, 0.12, 16,
                                streams=2, train=1200, held=100, latency=100),
    },
}


def work_budget(num_classes: int) -> int:
    """Acceptance criterion C05: ceil(4 log2 K) candidates plus ceil(log2 K)
    router evaluations per example."""
    lg = math.log2(num_classes)
    return math.ceil(4 * lg) + math.ceil(lg)


class Meter:
    """Times calls and corrects each timing for interference.

    On a shared machine other tenants slow this process by up to 1.7x, in CPU
    time as much as in wall time, for tens of seconds at a time.  A fixed
    reference pass (dictionary updates, small uint64 array arithmetic and
    gathers from a 4 MiB table: the kinds of work the program does, in none
    of its code) runs just before and after every timed call.  The timing is
    scaled by (``REFERENCE_NS`` / mean reference time) raised to the slope
    fitted for that kind of call, which gives about the time the call would
    take on the quiet reference host.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = np.ones(1 << 20, dtype=np.float32)
        self._rows = rng.integers(0, self._table.size, size=(64, 16))
        self._mul = np.uint64(0xBF58476D1CE4E5B9)
        self.factors: list[float] = []

    def _pass(self) -> None:
        counts: dict[int, int] = {}
        for i in range(600):
            counts[i & 63] = counts.get(i & 63, 0) + i
        a = np.arange(16, dtype=np.uint64)
        for _ in range(40):
            a = (a ^ (a >> np.uint64(7))) * self._mul
        for row in self._rows:
            float(self._table[row].astype(np.float64).sum())

    def _reference_ns(self) -> int:
        """The best of three reference passes, in ns."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            self._pass()
            times.append(time.perf_counter_ns() - t0)
        return min(times)

    def _factor(self, before: int, after: int, slope: float) -> float:
        factor = (2 * REFERENCE_NS / (before + after)) ** slope
        self.factors.append(factor)
        return factor

    def timed(self, fn, *args):
        """``fn(*args)`` and its corrected duration in seconds."""
        before = self._reference_ns()
        t0 = time.perf_counter_ns()
        out = fn(*args)
        elapsed = time.perf_counter_ns() - t0
        return out, elapsed * self._factor(before, self._reference_ns(), CALL_SLOPE) / 1e9

    def each(self, fn, items: list) -> tuple[list, list[float]]:
        """``fn`` on every item, and each call's corrected duration in ns.
        The reference pass runs between batches of ``LATENCY_BATCH`` calls,
        so a short burst of interference is corrected where it happens.
        Each batch starts with one untimed call, because the reference pass
        leaves the caches cold."""
        clock = time.perf_counter_ns
        out, times = [], []
        before = self._reference_ns()
        for start in range(0, len(items), LATENCY_BATCH):
            fn(items[start])
            raw = []
            for item in items[start:start + LATENCY_BATCH]:
                t0 = clock()
                out.append(fn(item))
                raw.append(clock() - t0)
            after = self._reference_ns()
            factor = self._factor(before, after, LATENCY_SLOPE)
            times.extend(t * factor for t in raw)
            before = after
        return out, times


@dataclass
class Round:
    """What one round measured.  Accuracy and work are set only on the first
    visit of a stream."""

    tree_rates: list[float] = field(default_factory=list)
    flat_rates: list[float] = field(default_factory=list)
    latency_ns: list[float] = field(default_factory=list)
    tree_accuracy: float | None = None
    flat_accuracy: float | None = None
    work_per_ex: float | None = None
    nodes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, bad, what: str) -> None:
        """Count the examples a check flags as failed."""
        n = int(np.count_nonzero(bad))
        if n:
            self.failed += n
            self.problems.append(f"{n} examples: {what}")


def _phase(tracer, name: str, examples: int):
    return tracer.phase(name, examples) if tracer is not None else nullcontext()


def _streams(spec: Spec, seed: int) -> list[tuple[list, list]]:
    """The run's (training stream, held-out examples) pairs: disjoint slices
    of the pool in an order drawn from ``seed``."""
    size = spec.train + spec.held
    pool = rt.generate_examples(rt.SynthSpec(spec.structure, spec.num_classes, spec.dims,
                                             spec.streams * size, noise=spec.noise,
                                             seed=GEOMETRY_SEED))
    order = np.random.default_rng(seed).permutation(len(pool))
    streams = []
    for s in range(spec.streams):
        ex = [pool[i] for i in order[s * size:(s + 1) * size]]
        streams.append((ex[:spec.train], ex[spec.train:]))
    return streams


def _tree(spec: Spec):
    return rt.RecallTreeModel(spec.num_classes, spec.dims + 1,
                              rt.Hyperparams.defaults(spec.num_classes, bits=spec.bits))


def _single_predictions(model, examples: list, r: Round, meter: Meter) -> np.ndarray:
    """Time ``predict_full`` per example into ``r.latency_ns``; check the
    label range and the work budget.  Returns the labels."""
    budget = work_budget(model.num_classes)
    preds, times = meter.each(model.predict_full, examples)
    r.latency_ns.extend(times)
    labels = np.array([p.label for p in preds], dtype=np.int64)
    work = np.array([p.classes_scored + p.router_evals for p in preds], dtype=np.int64)
    r.attempted += len(examples)
    r.check((labels < 0) | (labels >= model.num_classes), "tree label outside [0, K)")
    r.check(work > budget, f"tree work above the C05 budget of {budget}")
    return labels


def _flat_labels(model, examples: list, r: Round) -> np.ndarray:
    labels = np.array([model.predict_full(x).label for x in examples], dtype=np.int64)
    r.attempted += len(examples)
    r.check((labels < 0) | (labels >= model.num_classes), "flat label outside [0, K)")
    return labels


class _Streaming:
    """A workload that trains fresh models on one stream per round.  Between
    timed chunks of the tree phase it times single-example predictions, so
    latency samples spread over the whole run."""

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec, self.seed = spec, seed
        self.min_rounds = spec.streams
        self.meter = Meter()
        self.reference: dict[int, tuple[dict[str, np.ndarray], np.ndarray]] = {}

    def setup(self):
        self.data = _streams(self.spec, self.seed)

    def _step(self, model, chunk: list):
        raise NotImplementedError

    def _timed(self, model, stream: list, r: Round, rates: list, between=None) -> list:
        results = []
        for i in range(0, len(stream), CHUNK):
            chunk = stream[i:i + CHUNK]
            out, seconds = self.meter.timed(self._step, model, chunk)
            results.append(out)
            rates.append(len(chunk) / seconds)
            if between is not None:
                between(i // CHUNK)
        r.attempted += len(stream)
        return results

    def run_round(self, index: int, tracer=None) -> Round:
        spec, r = self.spec, Round()
        stream, held = self.data[index % len(self.data)]
        chunks = -(-len(stream) // CHUNK)
        per_chunk = -(-spec.latency // chunks)
        sample = held[:per_chunk * chunks]
        tree_labels = []

        def latency(c):
            tree_labels.append(_single_predictions(
                tree, sample[c * per_chunk:(c + 1) * per_chunk], r, self.meter))

        tree = _tree(spec)
        with _phase(tracer, "tree", len(stream)):
            tree_results = self._timed(tree, stream, r, r.tree_rates,
                                       latency if tracer is None else None)
        flat = rt.OaaModel(spec.num_classes, bits=spec.bits)
        with _phase(tracer, "flat", len(stream)):
            flat_results = self._timed(flat, stream, r, r.flat_rates)
        r.nodes = len(tree.nodes)
        if tracer is not None:
            return r

        labels = {"tree": np.concatenate(tree_labels), "flat": _flat_labels(flat, sample, r)}
        summary = self._summary(tree_results, flat_results)
        first, first_summary = self.reference.setdefault(index % len(self.data), (labels, summary))
        if first is labels:
            self._evaluate(tree, flat, held, summary, r)
            return r
        for name, values in labels.items():
            r.check(values != first[name], f"{name} labels differ from the stream's first visit")
        if not np.array_equal(summary, first_summary):
            r.check(np.ones(len(stream), dtype=bool),
                    "progressive validation differs from the stream's first visit")
        return r

    def _summary(self, tree_results: list, flat_results: list) -> np.ndarray:
        return np.zeros(0)

    def _evaluate(self, tree, flat, held: list, summary: np.ndarray, r: Round) -> None:
        raise NotImplementedError


class TrainK1024(_Streaming):
    """Write path at K=1024: candidate upkeep, router learning and per-node
    overhead; no parsing or model loading."""

    def _step(self, model, chunk):
        return model.train(chunk)

    def _evaluate(self, tree, flat, held, summary, r):
        held_tree = rt.holdout_eval(held, tree)
        held_flat = rt.holdout_eval(held, flat)
        r.attempted += 2 * len(held)
        r.tree_accuracy = held_tree.holdout_accuracy
        r.flat_accuracy = held_flat.holdout_accuracy
        r.work_per_ex = held_tree.scored_classes_mean + held_tree.router_evals_mean


class OnlineK64Wide(_Streaming):
    """Interleaved predict and train at K=64 with wide examples, where numpy
    arithmetic, not per-call overhead, dominates the flat baseline."""

    def _step(self, model, chunk):
        return rt.progressive_eval(chunk, model)

    def _summary(self, tree_results, flat_results):
        # chunked progressive validation equals one pass: only the very first
        # prediction meets an untrained model
        def totals(reports):
            n = np.array([rep.examples_seen for rep in reports])
            acc = np.array([rep.progressive_accuracy for rep in reports])
            work = np.array([rep.scored_classes_mean + rep.router_evals_mean for rep in reports])
            return np.rint(acc * n).sum() / n.sum(), (work * n).sum() / n.sum()
        return np.array([*totals(tree_results), totals(flat_results)[0]])

    def _evaluate(self, tree, flat, held, summary, r):
        r.tree_accuracy, r.work_per_ex, r.flat_accuracy = (float(v) for v in summary)


@dataclass
class _ModelSet:
    """The saved models and query file of one set-up of predict-k4096."""

    tree_path: str
    flat_path: str
    query_path: str
    truth: np.ndarray


class PredictK4096:
    """Read-only path at K=4096 through the CLI: model loading, parsing and
    hashing; no candidate upkeep or learning.

    Each set-up trains and saves ``TREES_PER_SETUP`` more trees, each on its
    own stream and with its own queries, and one flat model on the first
    stream's prefix; the rounds cycle over the trees.  A tree's tail latency
    follows its depth, which varies from stream to stream, so several trees
    per run keep the 99th percentile steady.
    """

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.sets: list[_ModelSet] = []
        self.out_paths = {"tree": os.path.join(workdir, "tree.out"),
                          "flat": os.path.join(workdir, "flat.out")}
        self.reference: dict[int, dict[str, np.ndarray]] = {}
        self.meter = Meter()

    @property
    def min_rounds(self) -> int:
        return len(self.sets)

    def setup(self):
        spec, k = self.spec, len(self.sets)
        streams = _streams(spec, self.seed)[k:k + TREES_PER_SETUP]
        flat_path = os.path.join(self.workdir, f"flat{k}.model")
        flat = rt.OaaModel(spec.num_classes, bits=spec.bits).train(streams[0][0][:spec.flat_train])
        rt.save_model(flat, flat_path)
        del flat
        for i, (stream, queries) in enumerate(streams, start=k):
            models = _ModelSet(os.path.join(self.workdir, f"tree{i}.model"), flat_path,
                               os.path.join(self.workdir, f"queries{i}.txt"),
                               np.array([x.label for x in queries], dtype=np.int64))
            tree = _tree(spec).train(stream)
            rt.save_model(tree, models.tree_path)
            del tree
            # repr() round-trips float64, so the parsed queries equal the generated ones
            with open(models.query_path, "w", encoding="utf-8") as fh:
                for x in queries:
                    feats = " ".join(f"{j}:{v!r}" for j, v in zip(x.indices.tolist(), x.values.tolist()))
                    fh.write(f"{x.label} {feats}\n")
            self.sets.append(models)

    def _batch(self, name: str, models: _ModelSet, tracer, r: Round) -> np.ndarray:
        out = self.out_paths[name]
        model_path = models.tree_path if name == "tree" else models.flat_path
        argv = ["predict", "--model", model_path, "--data", models.query_path, "--output", out]
        n = models.truth.size
        with _phase(tracer, name, n):
            code, seconds = self.meter.timed(cli.main, argv)
        (r.tree_rates if name == "tree" else r.flat_rates).append(n / seconds)
        r.attempted += n
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().split()
        if code != 0 or len(lines) != n:
            r.check(np.ones(n, dtype=bool), f"{name} predict exited {code} with {len(lines)} lines")
            return np.full(n, -1, dtype=np.int64)
        labels = np.array([int(s) for s in lines], dtype=np.int64)
        r.check((labels < 0) | (labels >= self.spec.num_classes), f"{name} label outside [0, K)")
        return labels

    def run_round(self, index: int, tracer=None) -> Round:
        r = Round()
        models = self.sets[index % len(self.sets)]
        outputs = {"tree": self._batch("tree", models, tracer, r),
                   "flat": self._batch("flat", models, tracer, r)}
        if tracer is not None:
            return r

        tree = rt.load_model(models.tree_path)
        queries = rt.read_examples(models.query_path)
        r.nodes = len(tree.nodes)
        sample = queries[:self.spec.latency]
        single = _single_predictions(tree, sample, r, self.meter)
        r.check(single != outputs["tree"][:len(sample)], "CLI output differs from predict_full")
        first = self.reference.setdefault(index % len(self.sets), outputs)
        if first is outputs:
            held = rt.holdout_eval(queries, tree)
            r.attempted += len(queries)
            r.work_per_ex = held.scored_classes_mean + held.router_evals_mean
            r.tree_accuracy = float(np.mean(outputs["tree"] == models.truth))
            r.flat_accuracy = float(np.mean(outputs["flat"] == models.truth))
        for name, labels in outputs.items():
            r.check(labels != first[name], f"{name} CLI output differs from the set's first round")
        return r


WORKLOADS = {
    "train-k1024": TrainK1024,
    "predict-k4096": PredictK4096,
    "online-k64-wide": OnlineK64Wide,
}
