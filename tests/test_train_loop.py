"""The training loop against a plain reference loop, and its call budget.

``reference_train_example`` is the loop as it stood before the router step
was fused: two ``label_entropies`` calls and two ``recall_lower_bound``
calls per level, one ``slot_matrix``, a ``batch_learn`` and then a second
``batch_margins`` call to route.  ``RecallTreeModel.train_example`` must
leave the same weights, AdaGrad state, node table and predictions, bit for
bit.

``train`` and ``predict_then_train`` share one step loop: it reads the
examples in blocks and lays out each block's mixed features at once.
``train`` is held to a ``train_example`` loop over the same examples, and
``predict_then_train``, on both models, to ``predict_full(x)`` then
``train_example(x)`` per example, on dense and ragged streams and on a
stream that fails part way.  Over a stream, each example's raw indices are
mixed once and a router row is hashed only on a node memo miss.

Each tree node keeps its last router row and candidate table; a step whose
features (and candidates) repeat at a node hashes nothing there.  The memo
tests hold the steps to ``hashing_reference``, which hashes every row and
table afresh, on streams that turn each node's entry over.  The flat model
keeps the last row it hashed, and ``flat_hashing_reference`` is its
reference.
"""

import tracemalloc
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
    MIN_ROUTER_IMPORTANCE,
    Hyperparams,
    Prediction,
    RecallTreeModel,
    TreeNode,
    label_entropies,
    path_feature_index,
    recall_lower_bound,
    update_candidates,
)

from conftest import run_examples

CONFIGS = {
    "defaults": {},
    "adaptive_lr": {"adaptive_lr": True},
    "no_path_features": {"path_features": False},
    "no_depth_penalty": {"depth_penalty": 0.0},
}
STRUCTURES = ("hierarchical-clusters", "voronoi", "zipf-tail")
K = 64
# classes of the flat model's streams of wide indices
WIDE_K = 2048


def reference_train_example(model: RecallTreeModel, x: SparseExample) -> None:
    """One training step of ``model`` on ``x``, from public building blocks.

    New children get no hashed keys here; call ``model._node_keys()`` before
    predicting, as a loader does.
    """
    p = model.params
    y = x.label
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
            model.router_store.batch_learn(slots, values[:n], -1 if delta > 0 else 1, abs(delta))
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
        model.class_store.batch_learn(slots, values[:n], np.where(ids == y, 1.0, -1.0))


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


def test_one_router_step_per_level_and_a_hash_per_memo_miss(monkeypatch):
    """Per example: levels = nodes visited - 1, one router ``batch_learn``
    or ``batch_margins`` per level, and one ``recall_lower_bound`` per node
    visited.  The router ``slot_matrix`` calls are exactly those of the
    levels whose node last hashed other features, in route order: a node
    whose features repeat takes its memo row."""
    spec = SynthSpec("hierarchical-clusters", num_classes=K, dimensions=8, num_examples=400,
                     noise=0.05, seed=5)
    examples = ragged(generate_examples(spec))
    width = raw_feature_width(spec)
    model = RecallTreeModel(K, width, Hyperparams.defaults(K, bits=14))
    counts = Counter()
    inside = []  # the store call in progress, so nested margin reads are not counted
    hashed, route = [], []

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

    def hashing(salts, mixed, bits):
        if np.ndim(salts) == 0:
            hashed.append((int(salts), mixed.tobytes()))
        return slot_matrix(salts, mixed, bits)

    def visiting(node, y, f):
        route.append(node.id)
        return update_candidates(node, y, f)

    monkeypatch.setattr(tree, "slot_matrix", hashing)
    monkeypatch.setattr(WeightStore, "batch_learn",
                        counting("step", WeightStore.batch_learn, is_router))
    monkeypatch.setattr(WeightStore, "batch_margins",
                        counting("step", WeightStore.batch_margins, is_router))
    monkeypatch.setattr(tree, "recall_lower_bound",
                        counting("bound", recall_lower_bound, lambda *_: True))
    monkeypatch.setattr(tree, "update_candidates", visiting)

    last = {}  # per node id, the features its router was last hashed on
    levels = hashes = 0
    for x in examples:
        counts.clear()
        hashed.clear()
        route.clear()
        model.train_example(x)
        features = mix64_array(x.indices)
        expected = []
        for level, nid in enumerate(route[:-1]):
            path = mix64_array(path_feature_index(np.array(route[1:level + 1]), width))
            row = np.concatenate([features, path]).tobytes()
            if last.get(nid) != row:
                last[nid] = row
                expected.append((int(key_salt(ROLE_ROUTER, nid)), row))
        assert hashed == expected
        assert counts["step"] == len(route) - 1
        assert counts["bound"] == len(route)
        levels += len(route) - 1
        hashes += len(expected)
    assert levels > 2 * spec.num_examples
    # cut rows turn nodes' memo rows over; some rows find theirs
    assert len(last) < hashes < levels


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


@pytest.mark.parametrize("shape", ["dense", "ragged"])
def test_a_stream_hashes_each_example_once_and_a_router_row_per_memo_miss(monkeypatch, shape):
    """Over a progressive pass: each raw index of each example is mixed
    once, in its block's layout or alone; and the router ``slot_matrix``
    rows are exactly the memo misses: one per ``_router_slots`` call whose
    node last hashed other features, none otherwise.  Every router level of
    a prediction or an update makes one such call.  The mixed indices are
    counted as a multiset of values, which must be that of every example's
    indices."""
    spec = SynthSpec("hierarchical-clusters", num_classes=K, dimensions=8, num_examples=700,
                     noise=0.05, seed=5)
    examples = generate_examples(spec)
    if shape == "ragged":
        examples = ragged(examples)
    model = RecallTreeModel(K, raw_feature_width(spec), Hyperparams.defaults(K, bits=14))
    mixed = Counter()
    router_rows = levels = misses = from_memo = 0
    last = {}  # per node id, the features a step last hashed its router on
    router_slots = RecallTreeModel._router_slots

    def mixing(a):
        a = np.asarray(a)
        if a.dtype == np.int64:  # raw indices; path features are uint64
            mixed.update(a.ravel().tolist())
        return mix64_array(a)

    def hashing(salts, rows, bits):
        nonlocal router_rows
        if np.ndim(salts) != 1:  # a 0-d salt, or a (rows, 1) column of them
            router_rows += 1 if np.ndim(salts) == 0 else len(salts)
        return slot_matrix(salts, rows, bits)

    def stepping(self, features, node_id):
        nonlocal misses, from_memo
        before = router_rows
        row = features.tobytes()
        if last.get(node_id) == row:
            expected, from_memo = 0, from_memo + 1
        else:
            expected, misses, last[node_id] = 1, misses + 1, row
        slots = router_slots(self, features, node_id)
        assert router_rows - before == expected
        return slots

    def visiting(node, y, f):
        nonlocal levels
        levels += node.id > 0  # train routes once per node it counts below the root
        return update_candidates(node, y, f)

    monkeypatch.setattr(tree, "update_candidates", visiting)
    monkeypatch.setattr(tree, "mix64_array", mixing)
    monkeypatch.setattr(tree, "slot_matrix", hashing)
    monkeypatch.setattr(RecallTreeModel, "_router_slots", stepping)
    steps = list(model.predict_then_train(examples))

    assert len(steps) == len(examples)
    assert mixed == Counter(i for x in examples for i in x.indices.tolist())
    assert router_rows == misses
    routed = sum(p.router_evals for _, p in steps if p is not None)
    assert misses + from_memo == routed + levels
    assert misses > 0 and from_memo > 0
    # the prediction and the update shared more than one router row per
    # example
    assert router_rows + len(examples) < routed + levels


@pytest.mark.parametrize("stream", ["ragged", "runs"])
@pytest.mark.parametrize("run", ["train", "predict_then_train", "predict_batch",
                                 "predict_full", "train_example", "loaded"])
def test_oaa_hashes_a_row_only_when_its_indices_change(monkeypatch, run, stream, tmp_path):
    """One ``slot_matrix`` call, for all K classes and the row's own
    indices, per row whose indices differ from those of the last row the
    model hashed, across calls; none for a row that repeats them.  The
    model has hashed the first five rows in training; a loaded model has
    hashed none, so its first row hashes."""
    if stream == "ragged":
        spec = SynthSpec("voronoi", num_classes=K, dimensions=8, num_examples=700,
                         noise=0.05, seed=5)
        k, examples = K, ragged(generate_examples(spec))
    else:
        k, examples = WIDE_K, run_examples(700, WIDE_K, seed=3)
        # the first row repeats the last trained one, so only a loaded
        # model hashes it
        assert np.array_equal(examples[0].indices, examples[4].indices)
    model = OaaModel(k, bits=14).train(examples[:5])
    last = examples[4].indices
    if run == "loaded":
        save_model(model, str(tmp_path / "oaa.bin"))
        model, last = load_model(str(tmp_path / "oaa.bin")), None
    calls = []

    def hashing(salts, mixed, bits):
        calls.append((salts, mixed))
        return slot_matrix(salts, mixed, bits)

    monkeypatch.setattr(oaa, "slot_matrix", hashing)
    if run == "train":
        model.train(examples)
    elif run == "predict_then_train":
        assert len(list(model.predict_then_train(examples))) == len(examples)
    elif run in ("predict_batch", "loaded"):
        assert len(model.predict_batch(examples)) == len(examples)
    elif run == "predict_full":
        for x in examples:
            model.predict_full(x)
    else:
        for x in examples:
            model.train_example(x)

    changed = []
    for x in examples:
        if last is None or not np.array_equal(x.indices, last):
            changed.append(x)
        last = x.indices
    assert BATCH_ROWS < len(changed) < len(examples) if stream == "ragged" else \
        10 < len(changed) < len(examples) / 10
    assert len(calls) == len(changed)
    for (salts, mixed), x in zip(calls, changed):
        assert np.array_equal(salts, key_salt(ROLE_CLASS, np.arange(k)))
        assert np.array_equal(mixed, mix64_array(x.indices))


@pytest.mark.parametrize("config", ["defaults", "adaptive_lr", "no_path_features"])
@pytest.mark.parametrize("shape", ["dense", "ragged"])
def test_blocked_training_equals_the_per_example_loop(stream, shape, config, tmp_path):
    width, data = stream
    examples = data[:1200] if shape == "dense" else ragged(data[:1200])
    assert len(examples) > 2 * BATCH_ROWS
    if shape == "ragged":
        lengths = Counter(x.indices.size for x in examples)
        assert lengths[0] > 3
        assert sum(count == 1 for count in lengths.values()) == 3
    params = Hyperparams.defaults(K, bits=14, **CONFIGS[config])
    blocked = RecallTreeModel(K, width, params).train(x for x in examples)
    reference = per_example_loop(RecallTreeModel(K, width, params), examples)

    assert len(blocked.nodes) > 7
    assert blocked.examples_seen == len(examples)
    assert_same_model(blocked, reference, tmp_path)


def test_every_step_of_a_ragged_stream_gets_its_blocks_laid_out_keys(stream, monkeypatch):
    """Rows of lengths that only one to three rows hold are laid out in
    their block with the rest, so every step of ``train`` gets its row of
    the block's layout: its mixed features and values, with room for its
    path features."""
    width, data = stream
    examples = ragged(data[:1200])
    for copies in (2, 3):
        x = data[copies]
        examples[20 * copies:20 * copies] = [SparseExample(
            x.label, np.tile(x.indices, copies + 3), np.tile(x.values, copies + 3))] * copies
    lengths = Counter(x.indices.size for x in examples)
    assert {1, 2, 3} <= set(lengths.values())
    model = RecallTreeModel(K, width, Hyperparams.defaults(K, bits=14))
    step = model.train_example

    def checked(x, keys=None):
        assert keys is not None
        mixed, values = keys
        n = x.indices.size
        assert mixed.size == values.size >= n + model.params.max_depth
        assert np.array_equal(mixed[:n], mix64_array(x.indices))
        assert np.array_equal(values[:n], x.values)
        step(x, keys)

    monkeypatch.setattr(model, "train_example", checked)
    model.train(examples)
    assert model.examples_seen == len(examples)


@pytest.mark.parametrize("run", ["train", "progressive_eval"])
def test_an_index_outside_the_raw_space_stops_training_at_its_row(stream, run, tmp_path):
    """The bad row sits mid-block and has its block's common length, so the
    rows before it are trained (under ``progressive_eval``, each predicted
    first), then its ``DomainError`` is raised.  Its block's layout fails
    the index check, so every step in that block lays out its own keys."""
    width, data = stream
    examples = list(data[:3 * BATCH_ROWS])
    bad = BATCH_ROWS + 100
    x = examples[bad]
    examples[bad] = SparseExample(x.label, np.append(x.indices[:-1], width), x.values)
    params = Hyperparams.defaults(K, bits=14)
    blocked = RecallTreeModel(K, width, params)
    recording = Recording(blocked)
    with pytest.raises(DomainError) as raised:
        if run == "train":
            blocked.train(examples)
        else:
            progressive_eval(examples, recording)
    reference = RecallTreeModel(K, width, params)
    step = per_example_loop if run == "train" else reference_progressive
    predictions = step(reference, examples[:bad])
    with pytest.raises(DomainError) as expected:
        step(reference, examples[bad:bad + 1])

    assert str(raised.value) == str(expected.value)
    assert blocked.examples_seen == bad
    if run == "progressive_eval":
        assert recording.predictions == predictions
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


def test_train_misses_the_router_memo_at_fewer_than_half_the_levels(monkeypatch):
    """On a dense stream, the one-router ``slot_matrix`` calls (a 0-d salt)
    made inside ``train_example``, which are the node memo's router misses,
    number fewer than half the router levels stepped."""
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


# -- the tree's slot memo -----------------------------------------------------


def reference_predict(model: RecallTreeModel, x: SparseExample) -> Prediction:
    """``model.predict_full(x)`` from public building blocks, hashing every
    router row and the candidate table afresh, in buffers laid out as
    ``reference_train_example`` lays them out."""
    p = model.params
    nnz = x.indices.size
    mixed = np.empty(nnz + p.max_depth, dtype=np.uint64)
    values = np.empty(nnz + p.max_depth, dtype=np.float64)
    mixed[:nnz] = mix64_array(x.indices)
    values[:nnz] = x.values
    n = nnz
    nodes = model.nodes
    node = nodes[0]
    router_evals = 0
    while node.left is not None:
        slots = slot_matrix(key_salt(ROLE_ROUTER, node.id), mixed[:n], p.bits)
        routed = model.router_store.batch_margins(slots, values[:n])
        router_evals += 1
        child = nodes[node.left if routed > 0 else node.left + 1]
        if recall_lower_bound(node, p.depth_penalty) > recall_lower_bound(child, p.depth_penalty):
            break
        node = child
        if p.path_features:
            mixed[n] = mix64_array(path_feature_index(node.id, model.num_raw_features))
            values[n] = 1.0
            n += 1
    ids = np.array(sorted(node.candidates), dtype=np.int64)
    margins = model.class_store.batch_margins(
        slot_matrix(key_salt(ROLE_CLASS, ids), mixed[:n], p.bits), values[:n])
    return Prediction(int(ids[np.argmax(margins)]), ids.size, router_evals, node.id, node.depth)


def hashing_reference(model: RecallTreeModel, examples):
    """``reference_progressive`` with every step hashed afresh:
    ``reference_predict`` then ``reference_train_example`` per example."""
    predictions = []
    for x in examples:
        predictions.append(reference_predict(model, x) if model.examples_seen else None)
        reference_train_example(model, x)
    model._node_keys()
    return predictions


def alternating(examples, width, seed=7):
    """``examples`` in runs of one to three rows that alternate between their
    own indices (A) and the same with the last index moved past ``width``
    (B), so a tree of raw width ``2 * width`` sees A, B, A, ... at every
    node, on features that differ only there."""
    rng = np.random.default_rng(seed)
    out, shifted = [], False
    while len(out) < len(examples):
        for x in examples[len(out):len(out) + int(rng.integers(1, 4))]:
            if shifted:
                x = SparseExample(x.label, np.append(x.indices[:-1], x.indices[-1] + width),
                                  x.values)
            out.append(x)
        shifted = not shifted
    return out


def memo_stream(stream, shape):
    """(raw width, examples) of a stream shape for the memo tests."""
    width, data = stream
    if shape == "alternating":
        return 2 * width, alternating(data[:1200], width)
    return width, data[:1200] if shape == "dense" else ragged(data[:1200])


class _Logging:
    """Logs each ``_candidate_slots`` call, one example's, as (node id,
    feature bytes, sorted candidates, class ``slot_matrix`` calls it made)."""

    def __init__(self, monkeypatch):
        self.calls, self.hashes = [], 0
        candidate_slots = RecallTreeModel._candidate_slots

        def hashing(salts, mixed, bits):
            self.hashes += np.ndim(salts) == 1
            return slot_matrix(salts, mixed, bits)

        def logging(model, node, mixed):
            before = self.hashes
            found = candidate_slots(model, node, mixed)
            self.calls.append((node.id, mixed.tobytes(), sorted(node.candidates),
                               self.hashes - before))
            return found

        monkeypatch.setattr(tree, "slot_matrix", hashing)
        monkeypatch.setattr(RecallTreeModel, "_candidate_slots", logging)

    def turned_over(self) -> bool:
        """Whether a node's table was hashed for features it held before,
        after others: the memo entry flipped and came back."""
        seen, last = set(), {}
        for nid, features, _, hashes in self.calls:
            if hashes and last.get(nid, features) != features and (nid, features) in seen:
                return True
            seen.add((nid, features))
            last[nid] = features
        return False

    def candidates_changed(self) -> bool:
        """Whether two calls at one node on equal features met different
        candidate sets."""
        last = {}
        changed = False
        for nid, features, cands, _ in self.calls:
            before = last.get(nid)
            changed |= before is not None and before[0] == features and before[1] != cands
            last[nid] = features, cands
        return changed


@pytest.mark.parametrize("config", ["defaults", "adaptive_lr", "no_path_features"])
@pytest.mark.parametrize("shape", ["dense", "ragged", "alternating"])
def test_memo_steps_equal_hashing_every_step_bit_for_bit(stream, shape, config,
                                                         monkeypatch, tmp_path):
    width, examples = memo_stream(stream, shape)
    params = Hyperparams.defaults(K, bits=14, **CONFIGS[config])
    reference = RecallTreeModel(K, width, params)
    expected = hashing_reference(reference, examples)
    log = _Logging(monkeypatch)
    step = RecallTreeModel(K, width, params)
    recording = Recording(step)
    report = progressive_eval(iter(examples), recording)

    assert expected[0] is None and recording.predictions == expected
    assert report == reference_report(examples, expected)
    assert len(step.nodes) > 7
    assert_same_model(step, reference, tmp_path)
    assert log.candidates_changed()
    assert log.turned_over() == (shape != "dense")


@pytest.mark.parametrize("config", ["defaults", "adaptive_lr", "no_path_features"])
def test_memo_training_equals_hashing_every_step_bit_for_bit(stream, config, tmp_path):
    """``train`` on a stream that turns each node's entry over, then
    ``predict_full``; dense training is held to the same reference above."""
    width, examples = memo_stream(stream, "alternating")
    params = Hyperparams.defaults(K, bits=14, **CONFIGS[config])
    blocked = RecallTreeModel(K, width, params).train(x for x in examples)
    reference = RecallTreeModel(K, width, params)
    for x in examples:
        reference_train_example(reference, x)
    reference._node_keys()

    assert_same_model(blocked, reference, tmp_path)
    assert [blocked.predict_full(x) for x in examples[:300]] == \
        [reference_predict(reference, x) for x in examples[:300]]


def test_equal_features_meet_a_changed_candidate_set(tmp_path):
    """At the root of a tree that never grows, every row has the same
    features; its candidate set {0, 1} becomes {0, 2} between two rows, and
    its rank order changes while the set stays."""
    params = Hyperparams.defaults(4, bits=12, max_depth=0, num_candidates=2)
    indices = np.arange(5)
    labels = [0, 1, 2, 2, 0, 0, 3, 3, 3, 2, 2, 2, 1, 1, 1, 1]
    rng = np.random.default_rng(2)
    examples = [SparseExample(y, indices, rng.uniform(-1, 1, size=5)) for y in labels * 3]
    step, reference = RecallTreeModel(4, 5, params), RecallTreeModel(4, 5, params)
    sets = []
    predictions = []
    for x, p in step.predict_then_train(examples):
        predictions.append(p)
        sets.append(list(step.root.candidates))
    expected = hashing_reference(reference, examples)

    assert predictions == expected
    assert_same_model(step, reference, tmp_path)
    assert sets[2] == [0, 1] and sets[3] == [2, 0]
    assert sets[5] == [0, 2] and sorted(sets[5]) == sorted(sets[3])


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
@pytest.mark.parametrize("shape", ["dense", "alternating"])
def test_a_loaded_model_steps_on_as_hashing_every_step(stream, shape, adaptive_lr, tmp_path):
    """A loaded model starts with an empty memo and steps on bit for bit."""
    width, examples = memo_stream(stream, shape)
    params = Hyperparams.defaults(K, bits=14, adaptive_lr=adaptive_lr)
    path = tmp_path / "first.bin"
    first = RecallTreeModel(K, width, params)
    list(first.predict_then_train(examples[:700]))
    save_model(first, str(path))
    step = load_model(str(path))
    predictions = [p for _, p in step.predict_then_train(iter(examples[700:]))]
    reference = load_model(str(path))
    expected = hashing_reference(reference, examples[700:])

    assert predictions == expected
    assert_same_model(step, reference, tmp_path)


def test_a_repeated_table_is_not_hashed_again(stream, monkeypatch):
    """On a dense stream, a one-example candidate table is hashed exactly
    when its node last saw other features or another candidate set; a
    repeat makes no ``slot_matrix`` call, and repeats are most calls."""
    width, data = stream
    log = _Logging(monkeypatch)
    model = RecallTreeModel(K, width, Hyperparams.defaults(K, bits=14))
    list(model.predict_then_train(data[:1200]))

    last = {}
    for nid, features, cands, hashes in log.calls:
        assert hashes == (last.get(nid) != (features, cands))
        last[nid] = features, cands
    assert log.hashes == sum(hashes for *_, hashes in log.calls)
    assert log.hashes < len(log.calls) / 4


def test_the_memo_holds_one_table_and_one_router_row_per_node(stream):
    """Dropping the memo frees at most one ``(F, nnz + max_depth)`` int64
    table, one router row and their keys per node, plus 1 KiB."""
    width, data = stream
    examples = data[:600]
    params = Hyperparams.defaults(K, bits=14)
    tracemalloc.start()
    try:
        model = RecallTreeModel(K, width, params)
        for x in examples:  # one step at a time, so the memo holds every router row
            if model.examples_seen:
                model.predict_full(x)
            model.train_example(x)
        held = tracemalloc.get_traced_memory()[0]
        model._router_memo.clear()
        model._candidate_memo.clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    cap = max(x.indices.size for x in examples) + params.max_depth
    # a table and a router row, and the feature bytes of each
    per_node = 8 * cap * (params.num_candidates + 1) + 2 * 8 * cap + 1024
    assert 0 < freed <= len(model.nodes) * per_node


# -- the flat model's reused slots --------------------------------------------


@pytest.fixture(scope="module", params=["dense", "ragged", "runs", "lone"])
def flat_stream(request):
    """(K, examples) for the flat model: a dense stream, whose rows share
    one index set; the same made ragged, with rows of no features and rows
    of duplicate indices; rows at K=2048 in runs that share 12 wide indices,
    some across block ends; or wide rows that share none."""
    if request.param in ("runs", "lone"):
        longest = 120 if request.param == "runs" else 1
        return WIDE_K, run_examples(700, WIDE_K, seed=3, longest=longest)
    spec = SynthSpec("voronoi", num_classes=K, dimensions=8, num_examples=1200,
                     noise=0.05, seed=11)
    examples = generate_examples(spec)
    return K, examples if request.param == "dense" else ragged(examples)


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
def test_oaa_train_equals_the_per_example_loop(flat_stream, adaptive_lr, tmp_path):
    k, examples = flat_stream
    assert len(examples) > 2 * BATCH_ROWS
    blocked = OaaModel(k, bits=14, adaptive_lr=adaptive_lr).train(x for x in examples)
    reference = per_example_loop(OaaModel(k, bits=14, adaptive_lr=adaptive_lr), examples)

    assert blocked.examples_seen == len(examples)
    assert_same_model(blocked, reference, tmp_path)


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
def test_oaa_steps_equal_predict_full_then_train_example(flat_stream, adaptive_lr, tmp_path):
    k, examples = flat_stream
    step = OaaModel(k, bits=14, adaptive_lr=adaptive_lr)
    recording = Recording(step)
    report = progressive_eval(iter(examples), recording)
    reference = OaaModel(k, bits=14, adaptive_lr=adaptive_lr)
    expected = reference_progressive(reference, examples)

    assert recording.predictions == expected
    assert report == reference_report(examples, expected)
    assert_same_model(step, reference, tmp_path)


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
def test_a_loaded_oaa_model_trains_on_as_the_per_example_loop(flat_stream, adaptive_lr,
                                                              tmp_path):
    k, examples = flat_stream
    path = tmp_path / "first.bin"
    save_model(OaaModel(k, bits=14, adaptive_lr=adaptive_lr).train(examples[:300]), str(path))
    blocked = load_model(str(path)).train(iter(examples[300:]))
    reference = per_example_loop(load_model(str(path)), examples[300:])

    assert blocked.examples_seen == len(examples)
    assert_same_model(blocked, reference, tmp_path)


def flat_hashing_reference(model: OaaModel, examples):
    """``reference_progressive`` on the flat model with every row hashed
    afresh: its margins and its step on its own ``(K, n)`` slots."""
    salts = key_salt(ROLE_CLASS, np.arange(model.num_classes))
    predictions = []
    for x in examples:
        slots = slot_matrix(salts, mix64_array(x.indices), model.bits)
        if model.examples_seen:
            margins = model.class_store.batch_margins(slots, x.values)
            predictions.append(Prediction(int(np.argmax(margins)), model.num_classes, 0, 0, 0))
        else:
            predictions.append(None)
        labels = np.full(model.num_classes, -1.0)
        labels[x.label] = 1.0
        model.class_store.batch_learn(slots, x.values, labels)
        model.examples_seen += 1
    return predictions


@pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
def test_oaa_memo_steps_equal_hashing_every_row_bit_for_bit(flat_stream, adaptive_lr,
                                                            tmp_path):
    k, examples = flat_stream
    step = OaaModel(k, bits=14, adaptive_lr=adaptive_lr)
    predictions = [p for _, p in step.predict_then_train(iter(examples))]
    reference = OaaModel(k, bits=14, adaptive_lr=adaptive_lr)

    assert predictions == flat_hashing_reference(reference, examples)
    assert_same_model(step, reference, tmp_path)


def test_oaa_examples_read_before_the_stream_fails_are_trained(flat_stream, tmp_path):
    k, examples = flat_stream
    read = BATCH_ROWS + 100

    def failing():
        yield from examples[:read]
        raise ParseError("bad token", line=read + 1, column=3)

    blocked = OaaModel(k, bits=14)
    with pytest.raises(ParseError):
        blocked.train(failing())
    reference = per_example_loop(OaaModel(k, bits=14), examples[:read])

    assert blocked.examples_seen == read
    assert_same_model(blocked, reference, tmp_path)
