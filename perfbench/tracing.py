"""Per-layer spans for the traced benchmark run.

Layers are the modules of the ``recalltree`` package.  While a
:class:`Tracer` is installed, every public function listed in ``TARGETS``
is replaced, wherever the package holds a reference to it, by a wrapper
that records one span per call: the function, its start and end on the
monotonic clock, and the enclosing span.  The benchmark opens one root span
per timed phase (``setup``, ``tree`` or ``flat``), so every span belongs to
the phase whose root encloses it.

Spans live in flat in-memory arrays and are written to a ``.npz`` file once
the run has ended.  A layer's self time is the summed duration of its spans
minus the time their direct child spans cover.

A target that no longer exists (a later change renamed or merged it) is
reported as "not measured"; its layer keeps its metric names.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, module under recalltree, function or Class.method)
TARGETS = (
    ("data.parse", "data", "parse_example"),
    ("data.parse", "data", "read_examples"),
    ("model_io.load", "model_io", "load_model"),
    ("model_io.save", "model_io", "save_model"),
    ("synth.generate", "synth", "generate_examples"),
    ("synth.generate", "synth", "synth_generate"),
    ("linear.hash", "linear", "mix64"),
    ("linear.hash", "linear", "mix64_array"),
    ("linear.hash", "linear", "key_salt"),
    ("linear.hash", "linear", "slots_from_mixed"),
    ("linear.hash", "linear", "slot_matrix"),
    ("linear.margin", "linear", "WeightStore.margin_at"),
    ("linear.margin", "linear", "WeightStore.batch_margins"),
    ("linear.learn", "linear", "WeightStore.learn_at"),
    ("linear.learn", "linear", "WeightStore.batch_learn"),
    ("tree.candidates", "tree", "update_candidates"),
    ("tree.entropy", "tree", "node_entropy"),
    ("tree.bound", "tree", "recall_lower_bound"),
    ("tree.self", "tree", "RecallTreeModel.train_example"),
    ("tree.self", "tree", "RecallTreeModel.predict_full"),
    ("oaa.self", "oaa", "OaaModel.train_example"),
    ("oaa.self", "oaa", "OaaModel.predict_full"),
    ("evaluation.self", "evaluation", "progressive_eval"),
    ("evaluation.self", "evaluation", "holdout_eval"),
    ("cli.self", "cli", "main"),
)

PHASES = ("setup", "tree", "flat")

# Layers reported per phase.  The flat phase never calls into tree.py and the
# tree phase never into oaa.py, so those pairs are left out.
PHASE_LAYERS = {
    "setup": ("synth.generate", "model_io.save"),
    "tree": ("data.parse", "model_io.load", "linear.hash", "linear.margin", "linear.learn",
             "tree.candidates", "tree.entropy", "tree.bound", "tree.self",
             "evaluation.self", "cli.self"),
    "flat": ("data.parse", "model_io.load", "linear.hash", "linear.margin", "linear.learn",
             "oaa.self", "evaluation.self", "cli.self"),
}

_PACKAGE = "recalltree"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric of the traced run as (name, unit)."""
    names = []
    for layer in PHASE_LAYERS["setup"]:
        names.append((f"setup.{layer}.self_ms", "ms/setup"))
        names.append((f"setup.{layer}.share", "fraction"))
    for phase in ("tree", "flat"):
        for layer in PHASE_LAYERS[phase]:
            names.append((f"{phase}.{layer}.calls_per_ex", "calls/ex"))
            names.append((f"{phase}.{layer}.self_us_per_ex", "us/ex"))
            names.append((f"{phase}.{layer}.share", "fraction"))
    names += [
        ("tree.nodes", "count"),
        ("tree.scorer_update_rate", "fraction"),
        ("tree.router_update_rate", "fraction"),
        ("trace.tree_ex_per_s_untraced", "examples/s"),
        ("trace.tree_ex_per_s_traced", "examples/s"),
        ("trace.overhead", "fraction"),
    ]
    return names


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.names = [f"{layer}:{qual}" for layer, _, qual in TARGETS] + \
                     [f"phase:{p}" for p in PHASES]
        self.layers = [layer for layer, _, _ in TARGETS]
        self.not_measured: list[str] = []
        self.phase_examples = dict.fromkeys(PHASES, 0)
        self.phase_runs = dict.fromkeys(PHASES, 0)
        self.unattributed_tree_share = 0.0
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._func = array("h")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._func)

    # -- recording -----------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self._func)
        self._func.append(fid)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, fid: int):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextmanager
    def phase(self, name: str, examples: int):
        """Root span of one timed phase that feeds ``examples`` examples."""
        self.phase_examples[name] += examples
        self.phase_runs[name] += 1
        idx = self._open(len(TARGETS) + PHASES.index(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == _PACKAGE or n.startswith(_PACKAGE + "."))]
        self.not_measured = []
        for fid, (_, module, qual) in enumerate(TARGETS):
            mod = sys.modules.get(f"{_PACKAGE}.{module}")
            cls_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.not_measured.append(f"{module}.{qual}")
                continue
            wrapper = self._wrap(original, fid)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            # `from .x import f` copies the reference, so replace it in every
            # package module that holds it
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self._func)
        return {
            "start_ns": np.frombuffer(self._start, dtype=np.int64, count=n).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64, count=n).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64, count=n).copy(),
            "func": np.frombuffer(self._func, dtype=np.int16, count=n).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics plus the tree's update rates, from all spans."""
        a = self.arrays()
        start, end, parent, func = a["start_ns"], a["end_ns"], a["parent"], a["func"].astype(np.int64)
        n = func.size
        dur = (end - start).astype(np.float64)
        linked = parent >= 0
        child = np.bincount(parent[linked], weights=dur[linked], minlength=n)
        self_ns = dur - child

        # spans are numbered in start order and nest, so a phase root's
        # descendants are the spans after it that start before it ends
        nf = len(self.names)
        phase_of = np.full(n, -1, dtype=np.int64)
        wall = dict.fromkeys(PHASES, 0.0)
        for root in np.flatnonzero(func >= len(TARGETS)):
            p = int(func[root]) - len(TARGETS)
            stop = int(np.searchsorted(start, end[root], side="left"))
            phase_of[root:stop] = p
            wall[PHASES[p]] += dur[root]
        in_phase = phase_of >= 0
        key = phase_of[in_phase] * nf + func[in_phase]
        calls = np.bincount(key, minlength=len(PHASES) * nf).reshape(len(PHASES), nf)
        selft = np.bincount(key, weights=self_ns[in_phase],
                            minlength=len(PHASES) * nf).reshape(len(PHASES), nf)

        out: dict[str, float] = {}
        for p, phase in enumerate(PHASES):
            for layer in PHASE_LAYERS[phase]:
                fids = [i for i, name in enumerate(self.layers) if name == layer]
                layer_calls = float(calls[p, fids].sum())
                layer_self = float(selft[p, fids].sum())
                share = layer_self / wall[phase] if wall[phase] else 0.0
                if phase == "setup":
                    runs = max(1, self.phase_runs[phase])
                    out[f"setup.{layer}.self_ms"] = layer_self / 1e6 / runs
                    out[f"setup.{layer}.share"] = share
                    continue
                examples = max(1, self.phase_examples[phase])
                out[f"{phase}.{layer}.calls_per_ex"] = layer_calls / examples
                out[f"{phase}.{layer}.self_us_per_ex"] = layer_self / 1e3 / examples
                out[f"{phase}.{layer}.share"] = share

        # Update rates over every tree training step in the run, set-up
        # included: a scorer update is a batch_learn directly under
        # train_example; a router step is a routing margin_at directly under
        # it, and an applied router update a learn_at directly under it.
        fid = {qual: i for i, (_, _, qual) in enumerate(TARGETS)}
        parent_func = np.where(linked, func[np.maximum(parent, 0)], -1)
        train = fid["RecallTreeModel.train_example"]
        under_train = parent_func == train
        examples = int(np.count_nonzero(func == train))
        scorer = int(np.count_nonzero(under_train & (func == fid["WeightStore.batch_learn"])))
        steps = int(np.count_nonzero(under_train & (func == fid["WeightStore.margin_at"])))
        updates = int(np.count_nonzero(under_train & (func == fid["WeightStore.learn_at"])))
        out["tree.scorer_update_rate"] = scorer / examples if examples else 0.0
        out["tree.router_update_rate"] = updates / steps if steps else 0.0
        # the tree phase's own time: the benchmark's loop and unwrapped code
        root = func == len(TARGETS) + PHASES.index("tree")
        self.unattributed_tree_share = float(self_ns[root].sum()) / wall["tree"] if wall["tree"] else 0.0
        return out
