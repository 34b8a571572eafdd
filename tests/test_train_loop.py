"""The training loop against a plain reference loop, and its call budget.

``reference_train_example`` is the loop as it stood before the router step
was fused: four ``node_entropy`` calls and two ``recall_lower_bound`` calls
per level, one ``slot_matrix``, a ``batch_learn`` and then a second
``batch_margins`` call to route.  ``RecallTreeModel.train_example`` must
leave the same weights, AdaGrad state, node table and predictions, bit for
bit.
"""

from collections import Counter

import numpy as np
import pytest

from recalltree import tree
from recalltree.data import SparseExample
from recalltree.linear import (
    ROLE_CLASS,
    ROLE_ROUTER,
    WeightStore,
    key_salt,
    mix64_array,
    slot_matrix,
)
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import (
    MIN_ROUTER_IMPORTANCE,
    Hyperparams,
    RecallTreeModel,
    TreeNode,
    node_entropy,
    path_feature_index,
    recall_lower_bound,
    update_candidates,
)

CONFIGS = {
    "defaults": {},
    "adaptive_lr": {"adaptive_lr": True},
    "no_path_features": {"path_features": False},
    "no_depth_penalty": {"depth_penalty": 0.0},
    "no_bernstein": {"bernstein_multiplier": 0.0},
}
STRUCTURES = ("hierarchical-clusters", "voronoi", "zipf-tail")
K = 64


def reference_train_example(model: RecallTreeModel, x: SparseExample) -> None:
    """One training step of ``model`` on ``x``, from public building blocks.

    New children get no hashed keys here; call ``model._node_keys()`` before
    predicting, as a loader does.
    """
    p = model.params
    y, importance = x.label, x.importance
    nnz = x.indices.size
    mixed = np.empty(nnz + p.max_depth, dtype=np.uint64)
    values = np.empty(nnz + p.max_depth, dtype=np.float64)
    mixed[:nnz] = mix64_array(x.indices)
    values[:nnz] = x.values
    n = nnz

    def bound(node):
        return recall_lower_bound(node, p.depth_penalty, p.bernstein_multiplier)

    nodes = model.nodes
    node = nodes[0]
    update_candidates(node, y, p.num_candidates)
    while node.depth < p.max_depth:
        if node.left is None:
            node.left, node.right = len(nodes), len(nodes) + 1
            for nid in (node.left, node.right):
                nodes.append(TreeNode(id=nid, depth=node.depth + 1, parent=node.id))
        slots = slot_matrix(key_salt(ROLE_ROUTER, node.id), mixed[:n], p.bits)
        left, right = nodes[node.left], nodes[node.right]
        w_left = left.total / node.total
        w_right = right.total / node.total
        h_if_left = w_left * node_entropy(left, y) + w_right * node_entropy(right)
        h_if_right = w_left * node_entropy(left) + w_right * node_entropy(right, y)
        delta = h_if_left - h_if_right
        if abs(delta) >= MIN_ROUTER_IMPORTANCE:
            model.router_store.batch_learn(slots, values[:n], -1 if delta > 0 else 1,
                                           importance * abs(delta))
        routed = model.router_store.batch_margins(slots, values[:n])
        child = nodes[node.left if routed > 0 else node.right]
        update_candidates(child, y, p.num_candidates)
        if bound(node) > bound(child):
            break
        node = child
        if p.path_features:
            mixed[n] = mix64_array(path_feature_index(node.id, model.num_raw_features))
            values[n] = 1.0
            n += 1
    if y in node.candidates:
        ids = np.array(sorted(node.candidates), dtype=np.int64)
        slots = slot_matrix(key_salt(ROLE_CLASS, ids), mixed[:n], p.bits)
        model.class_store.batch_learn(slots, values[:n], np.where(ids == y, 1.0, -1.0),
                                      importance)
    model.examples_seen += 1


@pytest.fixture(scope="module", params=STRUCTURES)
def stream(request):
    spec = SynthSpec(request.param, num_classes=K, dimensions=8, num_examples=1500,
                     noise=0.05, seed=11)
    return raw_feature_width(spec), generate_examples(spec)


@pytest.mark.parametrize("config", list(CONFIGS))
def test_training_matches_the_reference_loop_bit_for_bit(stream, config):
    width, data = stream
    train, held = data[:1200], data[1200:]
    params = Hyperparams.defaults(K, bits=14, **CONFIGS[config])
    fused = RecallTreeModel(K, width, params).train(train)
    reference = RecallTreeModel(K, width, params)
    for x in train:
        reference_train_example(reference, x)
    reference._node_keys()

    assert len(fused.nodes) > 7  # the tree grew below the root's children
    for name in ("router_store", "class_store"):
        a, b = getattr(fused, name), getattr(reference, name)
        assert a.weights.tobytes() == b.weights.tobytes()
        if params.adaptive_lr:
            assert a._grad_sq.tobytes() == b._grad_sq.tobytes()
    assert len(fused.nodes) == len(reference.nodes)
    for a, b in zip(fused.nodes, reference.nodes):
        assert (a.hist, a.candidates, a.cand_total, a.left) == \
            (b.hist, b.candidates, b.cand_total, b.left)
        assert np.float64(a.sum_clog2).tobytes() == np.float64(b.sum_clog2).tobytes()
    assert [p.label for p in fused.predict_batch(held)] == \
        [p.label for p in reference.predict_batch(held)]


def test_one_hash_and_one_router_step_per_level(monkeypatch):
    """Per example: levels = nodes visited - 1, one router ``slot_matrix``
    and one router ``batch_learn`` or ``batch_margins`` per level, and one
    ``recall_lower_bound`` per node visited."""
    spec = SynthSpec("hierarchical-clusters", num_classes=K, dimensions=8, num_examples=400,
                     noise=0.05, seed=5)
    model = RecallTreeModel(K, raw_feature_width(spec), Hyperparams.defaults(K, bits=14))
    counts = Counter()
    inside = []  # the store call in progress, so nested margin reads are not counted

    def counting(name, fn, counted):
        def wrapper(*args, **kwargs):
            if not inside and counted(*args):
                counts[name] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def is_router(store, *_):
        return store is model.router_store

    monkeypatch.setattr(tree, "slot_matrix",
                        counting("hash", slot_matrix, lambda salts, *_: np.ndim(salts) == 0))
    monkeypatch.setattr(WeightStore, "batch_learn",
                        counting("step", WeightStore.batch_learn, is_router))
    monkeypatch.setattr(WeightStore, "batch_margins",
                        counting("step", WeightStore.batch_margins, is_router))
    monkeypatch.setattr(tree, "recall_lower_bound",
                        counting("bound", recall_lower_bound, lambda *_: True))
    monkeypatch.setattr(tree, "update_candidates",
                        counting("visit", update_candidates, lambda *_: True))

    levels = 0
    for x in generate_examples(spec):
        counts.clear()
        model.train_example(x)
        visited = counts["visit"]
        assert counts["hash"] == visited - 1
        assert counts["step"] == visited - 1
        assert counts["bound"] == visited
        levels += visited - 1
    assert levels > 2 * spec.num_examples
