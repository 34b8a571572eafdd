"""The recall tree: a dynamically grown binary tree of routers that whittles
K classes down to a small high-recall candidate set, plus one-against-some
scorers that pick the final class from that set.

Training and prediction both descend from the root.  At each node the
router (a hashed binary logistic scorer) picks a child; descent halts when
an empirical Bernstein lower bound on the node's candidate-set recall stops
improving, when a child has never been visited, or at the depth cap.  The
halting node's candidate set (its top-F most frequent labels) is scored by
per-class scorers and the argmax wins, so the work per example stays
O(log K) instead of O(K).

Routers are trained toward the side that lowers the expected label entropy
(base-2) after routing; class scorers get a one-against-all update
restricted to the halting node's candidates.  When path features are on,
each traversed node appends an indicator feature so downstream linear
scorers can express tree-shaped decision boundaries.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .data import SparseExample
from .errors import DomainError, UntrainedModelError
from .linear import (ROLE_CLASS, ROLE_ROUTER, WeightStore, check_store_settings, key_salt,
                     mix64_array, slot_matrix)

_LOG2 = math.log2
_NEG_INF = float("-inf")

# Entropy differences below this are treated as zero: no router update.
MIN_ROUTER_IMPORTANCE = 1e-12

# Rows per block of ``predict_batch`` and ``train``, of any lengths, for
# both models.  The block bounds the transient (rows, k, n) candidate stacks;
# on a K=4096 tree (2-vCPU Xeon) the time per example hardly changed from 64
# to 1,000 rows.
BATCH_ROWS = 256

# The model file stores the depth cap in 16 bits and F in 32.  A model
# hashes one salt per class when built, so K is bounded too.
MAX_DEPTH = (1 << 16) - 1
MAX_CANDIDATES = (1 << 32) - 1
MAX_CLASSES = 1 << 20


def check_num_classes(num_classes: int) -> None:
    if not 1 <= num_classes <= MAX_CLASSES:
        raise DomainError(f"num_classes must be in [1, {MAX_CLASSES}], got {num_classes}")


def check_label(label: int, num_classes: int) -> None:
    if label >= num_classes:
        raise DomainError(f"label {label} out of range for {num_classes} classes")


def check_raw_features(num_raw_features: int) -> None:
    # parsed indices are int64, and the path features take the uint64
    # indices from the width up
    if not 0 <= num_raw_features <= 1 << 63:
        raise DomainError(f"num_raw_features must be in [0, 2^63], got {num_raw_features}")


def read_blocks(examples):
    """The examples in lists of ``BATCH_ROWS``, the last one shorter.  Examples
    read before the iterable raises are yielded all the same, as a last
    block, then the error is raised."""
    examples = iter(examples)
    while True:
        block = []
        try:
            for x in examples:
                block.append(x)
                if len(block) == BATCH_ROWS:
                    break
        finally:
            if block:
                yield block
        if len(block) < BATCH_ROWS:
            return


def ceil_log2(n: int) -> int:
    """Smallest d with 2^d >= n; 0 for n <= 1."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


@dataclass(frozen=True)
class Hyperparams:
    """Knobs of the model.  ``defaults`` reproduces the stock settings:
    depth capped at log2(K), 4*log2(K) candidates per node, unit depth
    penalty and learning rate, logistic loss.  Routers have no setting of
    their own: each trains toward the child whose choice lowers the expected
    label entropy."""

    max_depth: int
    num_candidates: int
    depth_penalty: float = 1.0
    bits: int = 24
    learning_rate: float = 1.0
    path_features: bool = True
    adaptive_lr: bool = False

    def __post_init__(self):
        if not 0 <= self.max_depth <= MAX_DEPTH:
            raise DomainError(f"max_depth must be in [0, {MAX_DEPTH}]")
        if not 1 <= self.num_candidates <= MAX_CANDIDATES:
            raise DomainError(f"num_candidates must be in [1, {MAX_CANDIDATES}]")
        if not (math.isfinite(self.depth_penalty) and self.depth_penalty >= 0):
            raise DomainError("depth_penalty must be finite and >= 0")
        check_store_settings(self.bits, self.learning_rate)

    @classmethod
    def defaults(cls, num_classes: int, **overrides) -> "Hyperparams":
        base = dict(
            max_depth=ceil_log2(num_classes),
            num_candidates=max(1, math.ceil(4 * math.log2(num_classes))) if num_classes > 1 else 1,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class TreeNode:
    """One tree node: label histogram, top-F candidate set, and counters.

    A node has no children or two: ``left`` and the right child
    ``left + 1``.  ``sum_clog2`` caches sum(c * log2(c)) over histogram
    counts so label entropy (and entropy with one extra observation) is
    O(1) per query.
    """

    id: int
    depth: int
    left: int | None = None
    hist: dict[int, int] = field(default_factory=dict)
    total: int = 0
    sum_clog2: float = 0.0
    candidates: list[int] = field(default_factory=list)
    cand_total: int = 0

    @property
    def r_hat(self) -> float:
        """Empirical candidate-set recall: fraction of labels seen at this
        node that fall in the current top-F."""
        return self.cand_total / self.total if self.total else 0.0


def label_entropies(node: TreeNode, label: int) -> tuple[float, float]:
    """Empirical label entropy at a node in bits, without and with one more
    observation of ``label``.  An empty node has entropy 0, with or without
    the extra point mass."""
    total = node.total
    s = node.sum_clog2
    c = node.hist.get(label, 0)
    s_with = s + ((c + 1) * _LOG2(c + 1) - (c * _LOG2(c) if c else 0.0))
    h = _LOG2(total) - s / total if total else 0.0
    h_with = _LOG2(total + 1) - s_with / (total + 1)
    return (h if h > 0.0 else 0.0), (h_with if h_with > 0.0 else 0.0)


def ranked_classes(classes, counts, limit: int) -> np.ndarray:
    """The first ``limit`` of ``classes`` in candidate order: larger count
    first, ties to the smaller class id.  ``counts`` are integers.
    ``update_candidates`` keeps a node's list in this order incrementally,
    one count at a time."""
    classes = np.asarray(classes)
    return classes[np.lexsort((classes, ~np.asarray(counts)))[:limit]]


def update_candidates(node: TreeNode, label: int, num_candidates: int) -> None:
    """Count ``label`` at the node and restore the top-F candidate list.

    A single increment can only promote ``label``, so the list is repaired
    by taking it out (or the last candidate, which it now beats) and
    putting it back in by bisection, in O(log F) comparisons, and
    ``cand_total`` changes only by the counts that entered or left the
    list.  The order is ``ranked_classes``': larger count first, ties to
    the smaller class id.
    """
    hist = node.hist
    c = hist.get(label, 0)
    hist[label] = count = c + 1
    node.total += 1
    node.sum_clog2 += count * _LOG2(count) - (c * _LOG2(c) if c else 0.0)

    cands = node.candidates
    full = len(cands) >= num_candidates
    if full:
        last = cands[-1]
        c_last = hist[last]
        # every candidate now beats the last one or is it, so a label that
        # does not stays out: most calls end here, without scanning the list
        if count < c_last or (count == c_last and label > last):
            return
    if label in cands:
        cands.remove(label)
        node.cand_total += 1
    elif full:
        cands.pop()
        node.cand_total += count - c_last
    else:
        node.cand_total += count
    bisect.insort(cands, label, key=lambda c: (-hist[c], c))


def recall_lower_bound(node: TreeNode, depth_penalty: float) -> float:
    """Empirical Bernstein lower confidence bound on the node's true recall.

    Returns -inf for a never-visited node so it is never preferred over its
    parent; with depth penalty 0 it is exactly the raw empirical recall.
    """
    m = node.total
    if m == 0:
        return _NEG_INF
    # cand_total <= total, in training and on load, so var >= 0
    r = node.cand_total / m
    var = r * (1.0 - r)
    return r - (math.sqrt(depth_penalty * var / m) + depth_penalty / m)


def plurality_label(node: TreeNode) -> int:
    """Most frequent label at the node, ties to the smaller class id."""
    if not node.hist:
        raise DomainError(f"node {node.id} has an empty histogram")
    return int(ranked_classes(list(node.hist), list(node.hist.values()), 1)[0])


def path_feature_index(node_id: int, num_raw_features: int) -> int:
    """Raw-space index of a node's traversal indicator: a reserved block
    just past the declared data features, disjoint from them by
    construction."""
    return num_raw_features + node_id


def _runs(keys: np.ndarray) -> list[np.ndarray]:
    """Positions of ``keys`` grouped by value, each group in ascending
    order."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


@dataclass
class Prediction:
    """A predicted class plus the work done to produce it."""

    label: int
    classes_scored: int
    router_evals: int
    node_id: int
    depth: int


@dataclass(slots=True, eq=False)
class _ExampleKeys:
    """One example's hashed keys, built whole by ``_keys`` or ``_prefetch``
    and shared by the prediction and the update of a step, so that each is
    hashed once.

    ``mixed`` and ``values`` hold the example's mixed indices and values,
    raw ones first, with room for one path feature per level below the
    root.  ``routers`` maps a node id to the example's router slots at that
    node.  A node's features are the raw ones plus the path features of the
    nodes on the way to it, so the slots are a function of (example, node
    id) alone, and a slot hashed ahead on a route training leaves goes
    unused.  Margins are never shared: the update changes the weights the
    prediction read.
    """

    mixed: np.ndarray
    values: np.ndarray
    routers: dict[int, np.ndarray]


class RecallTreeModel:
    """Online multiclass learner with polylogarithmic work per example."""

    def __init__(self, num_classes: int, num_raw_features: int,
                 params: Hyperparams | None = None, *, _stores=None, _nodes=None):
        check_num_classes(num_classes)
        check_raw_features(num_raw_features)
        self.num_classes = num_classes
        self.num_raw_features = num_raw_features
        self.params = p = params if params is not None else Hyperparams.defaults(num_classes)
        # a loader passes the (router, class) stores and the nodes it has read
        self.router_store, self.class_store = _stores or [
            WeightStore(p.bits, p.learning_rate, p.adaptive_lr) for _ in range(2)]
        self.nodes: list[TreeNode] = _nodes or [TreeNode(id=0, depth=0)]
        # per node id: router salt and mixed path-feature index
        self._router_salts: list[np.uint64] = []
        self._path_mixed: list[np.uint64] = []
        self._node_keys()
        self._class_salts = key_salt(ROLE_CLASS, np.arange(num_classes))

    # -- structure ---------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    @property
    def examples_seen(self) -> int:
        """Every training example is counted at the root first."""
        return self.nodes[0].total

    def bound(self, node: TreeNode) -> float:
        return recall_lower_bound(node, self.params.depth_penalty)

    def _materialize(self, node: TreeNode) -> None:
        # children exist only below the depth cap; created on first router
        # update so the tree grows along the data distribution
        nid = len(self.nodes)
        self.nodes.append(TreeNode(id=nid, depth=node.depth + 1))
        self.nodes.append(TreeNode(id=nid + 1, depth=node.depth + 1))
        node.left = nid
        self._node_keys()

    def _node_keys(self) -> None:
        """Hash the router salt and path feature of every node that lacks
        them: those the model is built with, or new children."""
        ids = np.arange(len(self._router_salts), len(self.nodes), dtype=np.uint64)
        self._router_salts += list(key_salt(ROLE_ROUTER, ids))
        self._path_mixed += list(mix64_array(path_feature_index(ids, self.num_raw_features)))

    # -- feature plumbing ---------------------------------------------------

    def _check_indices(self, indices: np.ndarray) -> None:
        if indices.size and int(indices.max()) >= self.num_raw_features:
            raise DomainError(
                f"feature index {int(indices.max())} outside the declared "
                f"raw feature space of width {self.num_raw_features}"
            )

    def _keys(self, x: SparseExample) -> _ExampleKeys:
        """Keys for a one-shot call: the checked example's mixed indices and
        values, laid out as ``_descend`` lays out a row, and no router slots
        yet."""
        self._check_indices(x.indices)
        nnz = x.indices.size
        cap = nnz + self.params.max_depth
        mixed = np.empty(cap, dtype=np.uint64)
        values = np.empty(cap, dtype=np.float64)
        mixed[:nnz] = mix64_array(x.indices)
        values[:nnz] = x.values
        return _ExampleKeys(mixed, values, {})

    def _router_slots(self, keys: _ExampleKeys, node_id: int, n: int) -> np.ndarray:
        """The example's slots under a node's router; ``n`` is the width of
        its features at that node."""
        slots = keys.routers.get(node_id)
        if slots is None:
            slots = keys.routers[node_id] = slot_matrix(
                self._router_salts[node_id], keys.mixed[:n], self.params.bits)
        return slots

    def _candidate_slots(self, node: TreeNode, mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The node's candidate ids in ascending order, so that the first
        maximum of their margins breaks ties to the smaller class id, and
        the ``(k, n)`` slots of one example's ``mixed`` features under their
        scorers, or ``(rows, k, n)`` for a ``(rows, 1, n)`` stack."""
        ids = np.array(sorted(node.candidates), dtype=np.int64)
        return ids, slot_matrix(self._class_salts[ids], mixed, self.params.bits)

    # -- learning ------------------------------------------------------------

    def _update_router(self, node: TreeNode, slots: np.ndarray, values: np.ndarray,
                       y: int) -> float:
        """Entropy-objective router update; returns the router's margin with
        the post-update weights, on which the caller routes.  The caller has
        counted ``y`` at ``node``, so its total is at least 1."""
        left = self.nodes[node.left]
        right = self.nodes[node.left + 1]
        h_left, h_left_y = label_entropies(left, y)
        h_right, h_right_y = label_entropies(right, y)
        w_left = left.total / node.total
        w_right = right.total / node.total
        h_if_left = w_left * h_left_y + w_right * h_right
        h_if_right = w_left * h_left + w_right * h_right_y
        delta = h_if_left - h_if_right
        # train toward the side whose choice lowers expected entropy, the
        # paper's objective (a positive margin goes left); there is no other
        # sign, since the opposite one trains toward higher entropy.  Below
        # the threshold, importance 0 only reads the margin.
        importance = abs(delta) if abs(delta) >= MIN_ROUTER_IMPORTANCE else 0.0
        label = -1 if delta > 0 else 1
        return self.router_store.batch_learn(slots, values, label, importance)

    def _update_predictors(self, node: TreeNode, keys: _ExampleKeys, n: int, y: int) -> None:
        """One-against-all step restricted to the node's candidates; no
        update at all when the true label is not among them."""
        if y not in node.candidates:
            return
        ids, slots = self._candidate_slots(node, keys.mixed[:n])
        labels = np.where(ids == y, 1.0, -1.0)
        self.class_store.batch_learn(slots, keys.values[:n], labels)

    def train_example(self, x: SparseExample, _keys: _ExampleKeys | None = None) -> None:
        y = x.label
        check_label(y, self.num_classes)
        keys = self._keys(x) if _keys is None else _keys
        mixed, values, n = keys.mixed, keys.values, x.indices.size
        params = self.params

        node = self.root
        update_candidates(node, y, params.num_candidates)
        # a node's counts do not change once descent has left it, so each
        # bound is computed once, when its node is reached
        node_bound = self.bound(node)
        while node.depth < params.max_depth:
            if node.left is None:
                self._materialize(node)
            routed = self._update_router(node, self._router_slots(keys, node.id, n),
                                         values[:n], y)
            child = self.nodes[node.left if routed > 0 else node.left + 1]
            update_candidates(child, y, params.num_candidates)
            child_bound = self.bound(child)
            if node_bound > child_bound:
                break
            node, node_bound = child, child_bound
            if params.path_features:
                mixed[n], values[n] = self._path_mixed[node.id], 1.0
                n += 1
        self._update_predictors(node, keys, n, y)

    def train(self, examples) -> "RecallTreeModel":
        """``train_example`` on each example in order, bit for bit."""
        for x, keys in self._keyed(examples):
            self.train_example(x, keys)
        return self

    def predict_then_train(self, examples):
        """Per example, ``predict_full(x)`` then ``train_example(x)``, bit for
        bit, on one set of keys.  Yields ``(x, prediction)``: the prediction
        made before the update, or None while the model has seen no example."""
        for x, keys in self._keyed(examples):
            prediction = self.predict_full(x, keys) if self.examples_seen else None
            self.train_example(x, keys)
            yield x, prediction

    def _keyed(self, examples):
        """Each example with its keys, read by ``read_blocks``: one batched
        descent per block, on the weights at its start, hashes ahead most
        router slots its steps use."""
        for block in read_blocks(examples):
            yield from zip(block, self._prefetch(block))

    def _prefetch(self, block: list[SparseExample]) -> list[_ExampleKeys | None]:
        """Per example of a block, keys holding its mixed features and its
        router slots along its predicted route, from one batched descent; or
        None for each if one lies outside the raw space, so that every step
        builds its own keys and checks the example as it does alone."""
        routers = [{} for _ in block]
        try:
            mixed, values, *_ = self._descend(block, self._node_table(), routers)
        except DomainError:
            return [None] * len(block)
        return [_ExampleKeys(*row) for row in zip(mixed, values, routers)]

    # -- inference -----------------------------------------------------------

    def predict_full(self, x: SparseExample, _keys: _ExampleKeys | None = None) -> Prediction:
        """Route one example to its halting node without learning, then
        score the node's candidates.  The root has counted an example, and
        descent never enters a child that has not (its bound is -inf), so
        the halting node has at least one candidate."""
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        keys = self._keys(x) if _keys is None else _keys
        mixed, values, n = keys.mixed, keys.values, x.indices.size
        params = self.params
        node = self.root
        node_bound = self.bound(node)
        router_evals = 0
        while node.left is not None:
            slots = self._router_slots(keys, node.id, n)
            routed = self.router_store.batch_margins(slots, values[:n])
            router_evals += 1
            child = self.nodes[node.left if routed > 0 else node.left + 1]
            child_bound = self.bound(child)
            if node_bound > child_bound:
                break
            node, node_bound = child, child_bound
            if params.path_features:
                mixed[n], values[n] = self._path_mixed[node.id], 1.0
                n += 1
        assert len(node.candidates) <= params.num_candidates
        ids, slots = self._candidate_slots(node, mixed[:n])
        margins = self.class_store.batch_margins(slots, values[:n])
        label = int(ids[np.argmax(margins)])
        return Prediction(label, ids.size, router_evals, node.id, node.depth)

    def predict(self, x: SparseExample) -> int:
        return self.predict_full(x).label

    def predict_batch(self, examples: list[SparseExample]) -> list[Prediction]:
        """``[self.predict_full(x) for x in examples]``, bit for bit, with the
        descent and the candidate scoring done for many examples at once.

        The examples, sorted by raw length, descend in blocks of
        ``BATCH_ROWS`` through ``_descend``, the batched descent that also
        hashes ahead each ``train`` block; the rows of a block that halt at
        one node with one width are then scored as one ``(rows, k, n)``
        stack.  Every row's margins come from the same BLAS product, over
        the same features in the same order, as in ``predict_full``.  Rows
        of any length may share a block; the sort only keeps the blocks
        mostly of one width, which is faster.
        """
        if not examples:
            return []
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        table = self._node_table()
        order = np.argsort([x.indices.size for x in examples], kind="stable")
        preds: list[Prediction] = [None] * len(examples)
        for start in range(0, order.size, BATCH_ROWS):
            block = order[start:start + BATCH_ROWS].tolist()
            found = self._predict_block([examples[i] for i in block], table)
            for i, p in zip(block, found):
                preds[i] = p
        return preds

    def _node_table(self):
        """The live node table as arrays, rebuilt per batch so that training
        between batches needs no invalidation: router salts, mixed path
        features, left children (-1 for none; a right child is always its
        left child + 1) and bounds."""
        nodes = self.nodes
        return (
            np.array(self._router_salts, dtype=np.uint64),
            np.array(self._path_mixed, dtype=np.uint64),
            np.array([-1 if n.left is None else n.left for n in nodes]),
            np.array([self.bound(n) for n in nodes]),
        )

    def _descend(self, block: list[SparseExample], table,
                 routers: list[dict[int, np.ndarray]] | None = None):
        """Route examples of any raw lengths from the root to where
        ``predict_full`` would halt them, with one ``slot_matrix`` and one
        ``batch_margins`` call per level for the routing rows of each width.
        Returns their mixed features and values, one row each, laid out as
        in ``_keys`` (past a row's width the buffer is padding), and each
        row's width, halting node and router evaluations.  With
        ``routers``, one dict per row, each row's router slots at every node
        it routes at go into its dict, keyed by node id."""
        router_salts, path_mixed, left, bounds = table
        params = self.params
        width = np.array([x.indices.size for x in block], dtype=np.int64)
        nnz = int(width.max(initial=0))
        cap = nnz + params.max_depth  # one path feature per level below the root
        mixed = np.empty((len(block), cap), dtype=np.uint64)
        values = np.empty((len(block), cap), dtype=np.float64)
        if nnz:
            indices = np.concatenate([x.indices for x in block])
            self._check_indices(indices)
            filled = np.arange(nnz) < width[:, None]
            mixed[:, :nnz][filled] = mix64_array(indices)
            values[:, :nnz][filled] = np.concatenate([x.values for x in block])

        # ``live`` holds the rows still routing, all at one depth
        node = np.zeros(len(block), dtype=np.int64)
        router_evals = np.zeros(len(block), dtype=np.int64)
        live = np.flatnonzero(left[node] >= 0)
        while live.size:
            at = node[live]
            routed = np.empty(live.size)
            for same in _runs(width[live]):
                rows = live[same]
                n = int(width[rows[0]])
                slots = slot_matrix(router_salts[at[same], None], mixed[rows, None, :n],
                                    params.bits)
                if routers is not None:
                    for i, nid, row in zip(rows.tolist(), at[same].tolist(), slots[:, 0]):
                        routers[i][nid] = row
                routed[same] = self.router_store.batch_margins(
                    slots, values[rows, :n, None])[:, 0, 0]
            router_evals[live] += 1
            child = np.where(routed > 0, left[at], left[at] + 1)
            moves = ~(bounds[at] > bounds[child])
            live = live[moves]
            node[live] = child[moves]
            if params.path_features:
                mixed[live, width[live]] = path_mixed[node[live]]
                values[live, width[live]] = 1.0
                width[live] += 1
            live = live[left[node[live]] >= 0]
        return mixed, values, width, node, router_evals

    def _predict_block(self, block: list[SparseExample], table) -> list[Prediction]:
        """Predictions for examples of any raw lengths."""
        mixed, values, width, node, router_evals = self._descend(block, table)

        preds: list[Prediction] = [None] * len(block)
        # score the rows that halt at one node with one width together
        for halted in _runs(node * (int(width.max()) + 1) + width):
            nid, n = int(node[halted[0]]), int(width[halted[0]])
            halt = self.nodes[nid]
            ids, slots = self._candidate_slots(halt, mixed[halted, None, :n])
            margins = self.class_store.batch_margins(slots, values[halted, :n, None])[..., 0]
            labels = ids[np.argmax(margins, axis=1)].tolist()
            for i, label, evals in zip(halted.tolist(), labels, router_evals[halted].tolist()):
                preds[i] = Prediction(label, ids.size, evals, nid, halt.depth)
        return preds
