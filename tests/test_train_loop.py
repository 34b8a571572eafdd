"""The training loop against a plain reference loop, and its call budget.

``reference_train_example`` is the loop as it stood before the router step
was fused: two ``label_entropies`` calls and two ``recall_lower_bound``
calls per level, one ``slot_matrix``, a ``batch_learn`` and then a second
``batch_margins`` call to route.  ``RecallTreeModel.train_example`` must
leave the same weights, AdaGrad state, node table and predictions, bit for
bit.

``train`` and ``predict_then_train`` share one step loop: it reads the
examples in blocks and hashes each block's router slots ahead in one
batched descent.  ``train`` is held to a ``train_example`` loop over the
same examples, and ``predict_then_train``, on both models, to
``predict_full(x)`` then ``train_example(x)`` per example, on dense and
ragged streams and on a stream that fails part way.  Over a stream, each
example's raw indices are mixed once and each (example, router) pair is
hashed at most once, and the hashing ahead must meet a budget.
"""

from collections import Counter

import numpy as np
import pytest

from recalltree import oaa, tree
from recalltree.data import SparseExample
from recalltree.errors import DomainError, ParseError
from recalltree.evaluation import EvalReport, progressive_eval
from recalltree.linear import (
    ROLE_CLASS,
    ROLE_ROUTER,
    WeightStore,
    key_salt,
    mix64_array,
    slot_matrix,
)
from recalltree.model_io import load_model, save_model
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import (
    BATCH_ROWS,
    MIN_BATCH_ROWS,
    MIN_ROUTER_IMPORTANCE,
    Hyperparams,
    RecallTreeModel,
    TreeNode,
    label_entropies,
    path_feature_index,
    recall_lower_bound,
    update_candidates,
)

CONFIGS = {
    "defaults": {},
    "adaptive_lr": {"adaptive_lr": True},
    "no_path_features": {"path_features": False},
    "no_depth_penalty": {"depth_penalty": 0.0},
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
        return recall_lower_bound(node, p.depth_penalty)

    nodes = model.nodes
    node = nodes[0]
    update_candidates(node, y, p.num_candidates)
    while node.depth < p.max_depth:
        if node.left is None:
            node.left = len(nodes)
            for nid in (node.left, node.left + 1):
                nodes.append(TreeNode(id=nid, depth=node.depth + 1))
        slots = slot_matrix(key_salt(ROLE_ROUTER, node.id), mixed[:n], p.bits)
        left, right = nodes[node.left], nodes[node.left + 1]
        w_left = left.total / node.total
        w_right = right.total / node.total
        h_left, h_left_y = label_entropies(left, y)
        h_right, h_right_y = label_entropies(right, y)
        h_if_left = w_left * h_left_y + w_right * h_right
        h_if_right = w_left * h_left + w_right * h_right_y
        delta = h_if_left - h_if_right
        if abs(delta) >= MIN_ROUTER_IMPORTANCE:
            model.router_store.batch_learn(slots, values[:n], -1 if delta > 0 else 1,
                                           importance * abs(delta))
        routed = model.router_store.batch_margins(slots, values[:n])
        child = nodes[node.left if routed > 0 else node.left + 1]
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


class Recording:
    """A learner that passes every step on and keeps each prediction."""

    def __init__(self, model):
        self.model = model
        self.predictions = []

    def predict_then_train(self, examples):
        for x, p in self.model.predict_then_train(examples):
            self.predictions.append(p)
            yield x, p


def reference_progressive(model, examples):
    """``predict_full`` then ``train_example`` per example, with None while
    the model is cold: the reference for ``predict_then_train``."""
    predictions = []
    for x in examples:
        predictions.append(model.predict_full(x) if model.examples_seen else None)
        model.train_example(x)
    return predictions


def reference_report(examples, predictions) -> EvalReport:
    """Progressive validation's report, with a cold model's guess of class 0."""
    correct = scored = routed = 0
    for x, p in zip(examples, predictions):
        correct += int((0 if p is None else p.label) == x.label)
        scored += 0 if p is None else p.classes_scored
        routed += 0 if p is None else p.router_evals
    n = len(examples)
    return EvalReport(examples_seen=n, progressive_accuracy=correct / n,
                      scored_classes_mean=scored / n, router_evals_mean=routed / n)


def assert_same_model(a, b, tmp_path):
    for name in ("router_store", "class_store"):
        if not hasattr(a, name):
            continue
        sa, sb = getattr(a, name), getattr(b, name)
        assert sa.weights.tobytes() == sb.weights.tobytes()
        if sa.adaptive:
            assert sa._grad_sq.tobytes() == sb._grad_sq.tobytes()
    for na, nb in zip(getattr(a, "nodes", []), getattr(b, "nodes", [])):
        assert (na.left, na.hist, na.candidates, na.cand_total) == \
            (nb.left, nb.hist, nb.candidates, nb.cand_total)
        assert np.float64(na.sum_clog2).tobytes() == np.float64(nb.sum_clog2).tobytes()
    assert len(getattr(a, "nodes", [])) == len(getattr(b, "nodes", []))
    save_model(a, str(tmp_path / "a.bin"))
    save_model(b, str(tmp_path / "b.bin"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def per_example_loop(model, examples):
    """The reference for ``train``: ``train_example`` on each example."""
    for x in examples:
        model.train_example(x)
    return model


def ragged(examples, seed=5):
    """``examples`` with about half the rows cut to random lengths, some to
    none, and three rows whose lengths no other row has."""
    rng = np.random.default_rng(seed)
    width = max(x.indices.size for x in examples)
    cuts = np.where(rng.random(len(examples)) < 0.5, width,
                    rng.integers(0, width, size=len(examples)))
    out = [SparseExample(x.label, x.indices[:k], x.values[:k]) for x, k in zip(examples, cuts)]
    for extra in range(1, 4):
        x = examples[extra]
        out.insert(150 * extra, SparseExample(
            x.label, np.tile(x.indices, extra + 1), np.tile(x.values, extra + 1)))
    return out


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("shape", ["dense", "ragged"])
def test_tree_step_matches_predict_then_train_bit_for_bit(stream, shape, config, tmp_path):
    width, data = stream
    train = data[:1200] if shape == "dense" else ragged(data[:1200])
    params = Hyperparams.defaults(K, bits=14, **CONFIGS[config])
    step = RecallTreeModel(K, width, params)
    recording = Recording(step)
    report = progressive_eval(iter(train), recording)
    reference = RecallTreeModel(K, width, params)
    expected = reference_progressive(reference, train)

    assert expected[0] is None and recording.predictions == expected
    assert report == reference_report(train, expected)
    assert len(step.nodes) > 7
    assert_same_model(step, reference, tmp_path)


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
@pytest.mark.parametrize("shape", ["dense", "ragged"])
def test_oaa_step_matches_predict_then_train_bit_for_bit(stream, shape, adaptive_lr, tmp_path):
    _, data = stream
    train = data[:1200] if shape == "dense" else ragged(data[:1200])
    step = OaaModel(K, bits=14, adaptive_lr=adaptive_lr)
    recording = Recording(step)
    report = progressive_eval(iter(train), recording)
    reference = OaaModel(K, bits=14, adaptive_lr=adaptive_lr)
    expected = reference_progressive(reference, train)

    assert expected[0] is None and recording.predictions == expected
    assert report == reference_report(train, expected)
    assert_same_model(step, reference, tmp_path)


@pytest.mark.parametrize("kind", ["tree", "oaa"])
def test_examples_read_before_the_stream_fails_are_predicted_and_trained(stream, kind,
                                                                         tmp_path):
    width, data = stream
    read = BATCH_ROWS + 100

    def failing():
        yield from data[:read]
        raise ParseError("bad token", line=read + 1, column=3)

    def model():
        if kind == "oaa":
            return OaaModel(K, bits=14)
        return RecallTreeModel(K, width, Hyperparams.defaults(K, bits=14))

    step = model()
    recording = Recording(step)
    with pytest.raises(ParseError):
        progressive_eval(failing(), recording)
    reference = model()
    expected = reference_progressive(reference, data[:read])

    assert step.examples_seen == read
    assert recording.predictions == expected
    assert_same_model(step, reference, tmp_path)


class _OnceDict(dict):
    """A router-slot memo that refuses a second entry for a node."""

    def __setitem__(self, node_id, slots):
        assert node_id not in self, f"router {node_id} hashed twice for one example"
        super().__setitem__(node_id, slots)


@pytest.mark.parametrize("shape", ["dense", "ragged"])
def test_a_stream_hashes_each_example_and_router_once(monkeypatch, shape):
    """Over a progressive pass: one mix of each example's raw indices, in a
    block's batched descent or alone; and one router ``slot_matrix`` row
    per (example, router), stored in the example's one set of keys and never
    replaced.  Rows of equal indices mix to equal bytes, so the mixes are
    counted by content: every example needs one, and there are no more
    mixes than examples.  Featureless rows have nothing to mix."""
    spec = SynthSpec("hierarchical-clusters", num_classes=K, dimensions=8, num_examples=700,
                     noise=0.05, seed=5)
    examples = generate_examples(spec)
    if shape == "ragged":
        examples = ragged(examples)
    model = RecallTreeModel(K, raw_feature_width(spec), Hyperparams.defaults(K, bits=14))
    mixed, keys = Counter(), []
    router_rows = levels = 0

    class Keys(tree._ExampleKeys):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.routers = _OnceDict()
            keys.append(self)

    def mixing(a):
        a = np.asarray(a)
        if a.dtype == np.int64:  # raw indices; path features are uint64
            mixed.update(row.tobytes() for row in a.reshape(-1, a.shape[-1]))
        return mix64_array(a)

    def hashing(salts, rows, bits):
        nonlocal router_rows
        if np.ndim(salts) != 1:  # a 0-d salt, or a (rows, 1) column of them
            router_rows += 1 if np.ndim(salts) == 0 else len(salts)
        return slot_matrix(salts, rows, bits)

    def visiting(node, y, f):
        nonlocal levels
        levels += node.id > 0  # train routes once per node it counts below the root
        return update_candidates(node, y, f)

    monkeypatch.setattr(tree, "_ExampleKeys", Keys)
    monkeypatch.setattr(tree, "update_candidates", visiting)
    monkeypatch.setattr(tree, "mix64_array", mixing)
    monkeypatch.setattr(tree, "slot_matrix", hashing)
    steps = list(model.predict_then_train(examples))

    assert len(steps) == len(keys) == len(examples)
    assert mixed == Counter(x.indices.tobytes() for x in examples if x.indices.size)
    assert router_rows == sum(len(k.routers) for k in keys)
    # the prediction and the update shared more than one router row per
    # example
    routed = sum(p.router_evals for _, p in steps if p is not None)
    assert router_rows + len(examples) < routed + levels


def test_oaa_step_hashes_once(monkeypatch):
    spec = SynthSpec("voronoi", num_classes=K, dimensions=8, num_examples=200,
                     noise=0.05, seed=5)
    model = OaaModel(K, bits=14)
    calls = []

    def hashing(*args):
        calls.append(1)
        return slot_matrix(*args)

    monkeypatch.setattr(oaa, "slot_matrix", hashing)
    for _ in model.predict_then_train(generate_examples(spec)):
        assert len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("config", ["defaults", "adaptive_lr", "no_path_features"])
@pytest.mark.parametrize("shape", ["dense", "ragged"])
def test_blocked_training_equals_the_per_example_loop(stream, shape, config, tmp_path):
    width, data = stream
    examples = data[:1200] if shape == "dense" else ragged(data[:1200])
    assert len(examples) > 2 * BATCH_ROWS
    if shape == "ragged":
        lengths = Counter(x.indices.size for x in examples)
        assert lengths[0] >= MIN_BATCH_ROWS
        assert sum(count < MIN_BATCH_ROWS for count in lengths.values()) == 3
    params = Hyperparams.defaults(K, bits=14, **CONFIGS[config])
    blocked = RecallTreeModel(K, width, params).train(x for x in examples)
    reference = per_example_loop(RecallTreeModel(K, width, params), examples)

    assert len(blocked.nodes) > 7
    assert blocked.examples_seen == len(examples)
    assert_same_model(blocked, reference, tmp_path)


def test_an_index_outside_the_raw_space_stops_training_at_its_row(stream, tmp_path):
    """The bad row sits mid-block and has its block's common length, so the
    rows before it are trained, then its ``DomainError`` is raised."""
    width, data = stream
    examples = list(data[:3 * BATCH_ROWS])
    bad = BATCH_ROWS + 100
    x = examples[bad]
    examples[bad] = SparseExample(x.label, np.append(x.indices[:-1], width), x.values)
    params = Hyperparams.defaults(K, bits=14)
    blocked = RecallTreeModel(K, width, params)
    with pytest.raises(DomainError) as raised:
        blocked.train(examples)
    reference = per_example_loop(RecallTreeModel(K, width, params), examples[:bad])
    with pytest.raises(DomainError) as expected:
        reference.train_example(examples[bad])

    assert str(raised.value) == str(expected.value)
    assert blocked.examples_seen == bad
    assert_same_model(blocked, reference, tmp_path)


def test_examples_read_before_the_stream_fails_are_trained(stream, tmp_path):
    width, data = stream
    read = BATCH_ROWS + 100

    def failing():
        yield from data[:read]
        raise ParseError("bad token", line=read + 1, column=3)

    params = Hyperparams.defaults(K, bits=14)
    blocked = RecallTreeModel(K, width, params)
    with pytest.raises(ParseError):
        blocked.train(failing())
    reference = per_example_loop(RecallTreeModel(K, width, params), data[:read])

    assert blocked.examples_seen == read
    assert_same_model(blocked, reference, tmp_path)


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
def test_a_loaded_model_trains_on_as_the_per_example_loop(stream, adaptive_lr, tmp_path):
    width, data = stream
    params = Hyperparams.defaults(K, bits=14, adaptive_lr=adaptive_lr)
    path = tmp_path / "first.bin"
    save_model(RecallTreeModel(K, width, params).train(data[:700]), str(path))
    blocked = load_model(str(path)).train(iter(data[700:1200]))
    reference = per_example_loop(load_model(str(path)), data[700:1200])

    assert blocked.examples_seen == 1200
    assert_same_model(blocked, reference, tmp_path)


def test_train_hashes_most_router_levels_ahead(monkeypatch):
    """On a dense stream, the one-router ``slot_matrix`` calls (a 0-d salt)
    made inside ``train_example``, which are the levels the batched descent
    did not hash ahead, number fewer than half the router levels stepped."""
    spec = SynthSpec("hierarchical-clusters", num_classes=K, dimensions=8, num_examples=2000,
                     noise=0.05, seed=5)
    model = RecallTreeModel(K, raw_feature_width(spec), Hyperparams.defaults(K, bits=14))
    counts = Counter()
    inside = []  # the train_example call in progress
    train_example = RecallTreeModel.train_example

    def stepping(self, x, _keys=None):
        inside.append(x)
        try:
            return train_example(self, x, _keys)
        finally:
            inside.pop()

    def hashing(salts, mixed, bits):
        if inside and np.ndim(salts) == 0:
            counts["hash"] += 1
        return slot_matrix(salts, mixed, bits)

    def visiting(node, y, f):
        counts["visit"] += 1
        return update_candidates(node, y, f)

    monkeypatch.setattr(RecallTreeModel, "train_example", stepping)
    monkeypatch.setattr(tree, "slot_matrix", hashing)
    monkeypatch.setattr(tree, "update_candidates", visiting)
    model.train(generate_examples(spec))

    levels = counts["visit"] - spec.num_examples
    assert levels > 2 * spec.num_examples
    assert counts["hash"] < levels / 2
