import dataclasses
import math
import mmap
import os
import stat
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalltree import model_io
from recalltree.data import SparseExample
from recalltree.errors import CorruptedModelError, DomainError, ModelFormatError, ModelTypeError
from recalltree.cli import EX_FORMAT, main
from recalltree.model_io import load_model, save_model
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import (
    MAX_CANDIDATES,
    MAX_CLASSES,
    MAX_DEPTH,
    Hyperparams,
    RecallTreeModel,
    update_candidates,
)


# the first node record starts after the magic, the version and type bytes
# and the tree header; its histogram length follows its left-child field
_TREE_HEADER = "<IHIdBBdQI"
_FIRST_NODE = 4 + struct.calcsize("<BB") + struct.calcsize(_TREE_HEADER)
_ROOT_HIST_LEN = _FIRST_NODE + struct.calcsize("<i")
# the tree's flags byte follows K, max_depth, F and the penalty; then come
# the bits byte and the learning rate
_TREE_FLAGS = 6 + struct.calcsize("<IHId")
# a one-against-all file: magic, version, tag, <IQ>, the flags byte, the
# bits byte, the learning rate, the store
_OAA_FLAGS = 4 + 2 + struct.calcsize("<IQ")
_OAA_STORE = _OAA_FLAGS + struct.calcsize("<BBd")
_STORE_HEADER = "<Q"


def settings_offset(blob: bytes) -> int:
    """Offset of the model header's flags byte, which the bits byte and the
    learning rate follow, in either model type."""
    return _OAA_FLAGS if blob[5] == model_io.TYPE_OAA else _TREE_FLAGS


def node_offsets(blob: bytes) -> list[int]:
    """Offsets of a tree file's node records, then of its first store."""
    node_count = struct.unpack_from(_TREE_HEADER, blob, 6)[-1]
    offsets = [_FIRST_NODE]
    for _ in range(node_count):
        (hist_len,) = struct.unpack_from("<I", blob, offsets[-1] + 4)
        offsets.append(offsets[-1] + 8 + 12 * hist_len + 8)  # left and length, histogram, sum_clog2
    return offsets


def store_offsets(blob: bytes) -> list[int]:
    """Offsets of the weight-store headers in a version 6 file.

    Walks the payload by the documented layout and checks that the last
    store ends the file.
    """
    flags, bits = blob[settings_offset(blob):][:2]
    if blob[5] == model_io.TYPE_OAA:
        pos, stores = _OAA_STORE, 1
    else:
        pos, stores = node_offsets(blob)[-1], 2
    slot_bytes = 12 if flags & 4 else 4
    offsets = []
    for _ in range(stores):
        offsets.append(pos)
        (count,) = struct.unpack_from(_STORE_HEADER, blob, pos)
        pos += struct.calcsize(_STORE_HEADER)
        pos += slot_bytes * count if count == 1 << bits else (4 + slot_bytes) * count
    assert pos == len(blob)
    return offsets


def recorded_reads(monkeypatch) -> list[int]:
    """Record the size of every read the loader asks for, bar a dense
    store's, which fills its table in place."""
    sizes = []
    read_exact = model_io._read_exact
    monkeypatch.setattr(model_io, "_read_exact",
                        lambda fh, n: sizes.append(n) or read_exact(fh, n))
    return sizes


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns, so -0.0 and NaN compare as stored."""
    return a.dtype == b.dtype and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))


def on_fresh_pages(a: np.ndarray) -> bool:
    """The table lies on an anonymous mapping of its own, not on memory
    from ``np.zeros``."""
    return isinstance(a.base, memoryview) and isinstance(a.base.obj, mmap.mmap)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc saw while ``call()`` ran."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expect_corrupt(path, match: str) -> None:
    """``load_model`` raises a CorruptedModelError, and ``inspect`` exits 4."""
    with pytest.raises(CorruptedModelError, match=match):
        load_model(str(path))
    assert main(["inspect", "--model", str(path)]) == EX_FORMAT


@pytest.fixture(scope="module")
def trained():
    """A K=12 tree with F=3: its held-out rows halt at many nodes, and its
    upper nodes hold classes that are not candidates."""
    spec = SynthSpec("voronoi", num_classes=12, dimensions=6, num_examples=4000,
                     noise=0.2, seed=9)
    data = generate_examples(spec)
    width = raw_feature_width(spec)
    params = Hyperparams.defaults(12, bits=14, num_candidates=3, adaptive_lr=True)
    tree = RecallTreeModel(12, width, params).train(data[:3000])
    oaa = OaaModel(12, bits=14).train(data[:3000])
    return tree, oaa, data


@pytest.fixture(scope="module")
def wide_tree_blob(tmp_path_factory) -> bytes:
    """The file of a K=64 tree at bits=24: a few KiB on disk, and two 2^24
    weight tables (128 MiB) once loaded."""
    spec = SynthSpec("voronoi", num_classes=64, dimensions=8, num_examples=40,
                     noise=0.1, seed=3)
    params = Hyperparams.defaults(64, bits=24)
    tree = RecallTreeModel(64, raw_feature_width(spec), params).train(generate_examples(spec))
    path = tmp_path_factory.mktemp("wide") / "tree.bin"
    save_model(tree, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def wide_oaa_blob(tmp_path_factory) -> bytes:
    """The file of a K=64 one-against-all at bits=24: a sparse store of a
    few thousand slots, and a 2^24 weight table (64 MiB) once loaded."""
    spec = SynthSpec("voronoi", num_classes=64, dimensions=8, num_examples=40,
                     noise=0.1, seed=3)
    oaa = OaaModel(64, bits=24).train(generate_examples(spec))
    path = tmp_path_factory.mktemp("wide") / "oaa.bin"
    save_model(oaa, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """Small version 6 files with sparse and dense stores, with and without
    AdaGrad accumulators: a tree whose router store is sparse and whose
    class store is dense, and two one-against-all models, one of each."""
    def data(k, dims):
        spec = SynthSpec("voronoi", num_classes=k, dimensions=dims, num_examples=400,
                         noise=0.2, seed=3)
        return raw_feature_width(spec), generate_examples(spec)

    width, wide = data(64, 30)
    _, narrow = data(12, 6)
    models = {
        "tree": RecallTreeModel(64, width, Hyperparams.defaults(64, bits=10, adaptive_lr=True))
        .train(wide),
        "oaa_dense": OaaModel(64, bits=10).train(wide),
        "oaa_sparse": OaaModel(12, bits=10, adaptive_lr=True).train(narrow),
    }
    root = tmp_path_factory.mktemp("small")
    files = {}
    for name, model in models.items():
        save_model(model, str(root / name))
        files[name] = (root / name).read_bytes()
    return models, files


class TestRoundTrip:
    def test_tree_predictions_survive_round_trip(self, trained, tmp_path):
        tree, _, data = trained
        path = tmp_path / "tree.bin"
        save_model(tree, str(path))
        loaded = load_model(str(path))
        assert isinstance(loaded, RecallTreeModel)
        expected = [tree.predict_full(x) for x in data[3000:]]
        assert len({p.node_id for p in expected}) >= 2
        assert [loaded.predict_full(x) for x in data[3000:]] == expected
        assert loaded.predict_batch(data[3000:]) == expected

    def test_tree_state_survives_round_trip(self, trained, tmp_path):
        tree, _, _ = trained
        path = tmp_path / "tree.bin"
        save_model(tree, str(path))
        loaded = load_model(str(path))
        assert isinstance(loaded, RecallTreeModel)
        assert loaded.params == tree.params
        assert loaded.num_raw_features == tree.num_raw_features
        assert loaded.examples_seen == tree.examples_seen
        assert np.array_equal(loaded.router_store.weights, tree.router_store.weights)
        assert np.array_equal(loaded.class_store.weights, tree.class_store.weights)
        # every field, the derived id, parent, depth, total, candidates and
        # cand_total included; some nodes hold more classes than candidates
        assert loaded.nodes == tree.nodes
        assert any(len(n.hist) > len(n.candidates) for n in tree.nodes)
        assert max(n.depth for n in tree.nodes) >= 2

    def test_oaa_round_trip(self, trained, tmp_path):
        _, oaa, data = trained
        path = tmp_path / "oaa.bin"
        save_model(oaa, str(path))
        loaded = load_model(str(path))
        assert isinstance(loaded, OaaModel)
        assert loaded.num_classes == 12
        for x in data[3000:3500]:
            assert loaded.predict(x) == oaa.predict(x)

    def test_oaa_adaptive_flag_survives_round_trip(self, trained, tmp_path):
        _, _, data = trained
        for adaptive in (False, True):
            oaa = OaaModel(12, bits=14, adaptive_lr=adaptive).train(data[:200])
            path = tmp_path / "oaa.bin"
            save_model(oaa, str(path))
            assert load_model(str(path)).class_store.adaptive is adaptive

    def test_stores_are_raw_little_endian_float32(self, small_files):
        # a plain store with at least half its slots nonzero is the raw array
        models, files = small_files
        weights = models["oaa_dense"].class_store.weights
        assert 2 * np.count_nonzero(weights) >= weights.size
        blob = files["oaa_dense"]
        (offset,) = store_offsets(blob)
        assert struct.unpack_from(_STORE_HEADER, blob, offset) == (weights.size,)
        assert blob[offset + struct.calcsize(_STORE_HEADER):] == weights.astype("<f4").tobytes()

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_a_tie_in_bytes_is_written_dense(self, tmp_path, adaptive):
        # half the slots (a quarter left empty with accumulators) make the
        # sparse body exactly as long as the dense one
        oaa = OaaModel(2, bits=10, adaptive_lr=adaptive)
        filled = 768 if adaptive else 512
        oaa.class_store.weights[:filled] = 1.0
        path = tmp_path / "oaa.bin"
        save_model(oaa, str(path))
        blob = path.read_bytes()
        assert struct.unpack_from(_STORE_HEADER, blob, _OAA_STORE) == (1024,)
        assert blob[_OAA_STORE + struct.calcsize(_STORE_HEADER):][:4096] == \
            oaa.class_store.weights.astype("<f4").tobytes()

    def test_sparse_store_lists_ascending_slots_and_their_float32_bits(self, trained, tmp_path):
        _, oaa, _ = trained
        weights = oaa.class_store.weights
        slots = np.flatnonzero(weights)
        assert 0 < 2 * slots.size < weights.size
        path = tmp_path / "oaa.bin"
        save_model(oaa, str(path))
        blob = path.read_bytes()
        (offset,) = store_offsets(blob)
        body = offset + struct.calcsize(_STORE_HEADER)
        # bits and the learning rate are stored once, in the model header
        assert struct.unpack_from("<BBd", blob, _OAA_FLAGS) == (0, 14, oaa.learning_rate)
        assert struct.unpack_from(_STORE_HEADER, blob, offset) == (slots.size,)
        assert blob[body:] == slots.astype("<u4").tobytes() + weights[slots].astype("<f4").tobytes()

    def test_adagrad_store_appends_its_accumulators(self, small_files):
        models, files = small_files
        bodies = set()
        for name, model in models.items():
            stores = [model.class_store] if name.startswith("oaa") else \
                [model.router_store, model.class_store]
            for store, offset in zip(stores, store_offsets(files[name])):
                body = offset + struct.calcsize(_STORE_HEADER)
                (count,) = struct.unpack_from(_STORE_HEADER, files[name], offset)
                arrays = [store.weights.astype("<f4")]
                if store.adaptive:
                    arrays.append(store._grad_sq.astype("<f8"))
                if count < store.weights.size:
                    slots = np.flatnonzero(np.logical_or.reduce(
                        [a.view(f"u{a.itemsize}") != 0 for a in arrays]))
                    assert count == slots.size
                    expected = slots.astype("<u4").tobytes() + \
                        b"".join(a[slots].tobytes() for a in arrays)
                else:
                    expected = b"".join(a.tobytes() for a in arrays)
                assert files[name][body:body + len(expected)] == expected
                bodies.add((store.adaptive, count < store.weights.size))
        # (adaptive, sparse): both bodies with accumulators, a dense one without
        assert bodies == {(True, True), (True, False), (False, False)}

    def test_negative_zero_and_nan_round_trip_bit_for_bit(self, trained, tmp_path):
        _, _, data = trained
        oaa = OaaModel(12, bits=12, adaptive_lr=True).train(data[:50])
        oaa.class_store.weights[[3, 7]] = [-0.0, np.nan]
        oaa.class_store._grad_sq[[5, 9]] = [-0.0, np.nan]
        path = tmp_path / "oaa.bin"
        save_model(oaa, str(path))
        loaded = load_model(str(path)).class_store
        assert bit_equal(loaded.weights, oaa.class_store.weights)
        assert bit_equal(loaded._grad_sq, oaa.class_store._grad_sq)

    def test_save_is_deterministic_for_identical_training(self, tmp_path):
        spec = SynthSpec("voronoi", num_classes=8, dimensions=4, num_examples=2000,
                         noise=0.2, seed=5)
        data = generate_examples(spec)
        width = raw_feature_width(spec)

        def train_and_dump(name):
            model = RecallTreeModel(8, width, Hyperparams.defaults(8, bits=14))
            model.train(data)
            path = tmp_path / name
            save_model(model, str(path))
            return path.read_bytes()

        assert train_and_dump("a.bin") == train_and_dump("b.bin")


class TestLoadedTables:
    """A loaded table goes on fresh small pages when its slots fall on at
    most a sixteenth of its pages, and on ``np.zeros`` otherwise; either
    way the model is the one that was saved, and the loader allocates no
    table it throws away."""

    def test_the_page_share_is_counted_per_dtype(self):
        size = 1 << 20
        per_page = mmap.PAGESIZE // 4
        # one slot on every 16th float32 page, which is every 32nd float64 page
        slots = np.arange(0, size, 16 * per_page, dtype="<u4")
        zeros = model_io._zeros_for(slots)
        for dtype in (np.float32, np.float64):
            table = zeros(size, dtype)
            assert on_fresh_pages(table)
            assert table.dtype == dtype and table.size == size and not table.any()
            table[slots] = 1.0
        # one float32 page more is past the share; in float64 it is not
        denser = np.insert(slots, 1, per_page).astype("<u4")
        zeros = model_io._zeros_for(denser)
        assert not on_fresh_pages(zeros(size, np.float32))
        assert on_fresh_pages(zeros(size, np.float64))

    @pytest.mark.parametrize("adaptive", [False, True], ids=["sgd", "adagrad"])
    def test_both_allocations_round_trip(self, tmp_path, adaptive):
        # at bits=20 a float32 table spans 1,024 pages and AdaGrad's float64
        # accumulators 2,048 (512 slots a page); this 7-node tree's routers
        # touch under 5% of them, its 32 class scorers over 25%
        spec = SynthSpec("voronoi", num_classes=32, dimensions=16, num_examples=900,
                         noise=0.2, seed=3)
        data = generate_examples(spec)
        first, rest, held = data[:300], data[300:600], data[600:]

        def fresh():
            return RecallTreeModel(32, raw_feature_width(spec), Hyperparams.defaults(
                32, bits=20, max_depth=2, adaptive_lr=adaptive))

        saved = fresh().train(first)
        path = tmp_path / "tree.bin"
        save_model(saved, str(path))
        loaded = load_model(str(path))
        assert all(on_fresh_pages(a) for a in model_io._tables(loaded.router_store))
        assert not any(on_fresh_pages(a) for a in model_io._tables(loaded.class_store))

        expected = [saved.predict_full(x) for x in held]
        assert len({p.node_id for p in expected}) >= 2
        assert [loaded.predict_full(x) for x in held] == expected
        assert loaded.predict_batch(held) == expected
        again = tmp_path / "again.bin"
        save_model(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

        whole = fresh().train(first + rest)
        loaded.train(rest)
        for name in ("router_store", "class_store"):
            pairs = zip(model_io._tables(getattr(loaded, name)),
                        model_io._tables(getattr(whole, name)), strict=True)
            assert all(bit_equal(a, b) for a, b in pairs)
        assert loaded.nodes == whole.nodes

    @pytest.mark.parametrize("kind", ["tree", "oaa"])
    def test_a_load_allocates_no_table_it_throws_away(self, wide_tree_blob, wide_oaa_blob,
                                                      tmp_path, kind):
        # the models were built after their stores were read, and each
        # constructor allocated its own 2^24 tables only for the loader to
        # replace them: the few-KiB tree file peaked at 256 MiB
        path = tmp_path / "model.bin"
        path.write_bytes(wide_tree_blob if kind == "tree" else wide_oaa_blob)
        loaded = []
        peak = traced_peak(lambda: loaded.append(load_model(str(path))))
        (model,) = loaded
        stores = [model.router_store, model.class_store] if kind == "tree" else [model.class_store]
        assert all(store.bits == 24 for store in stores)
        held = sum(a.nbytes for store in stores for a in model_io._tables(store))
        assert peak < held + (1 << 20)


class TestFormatErrors:
    def _tree_bytes(self, trained, tmp_path):
        tree, _, _ = trained
        path = tmp_path / "tree.bin"
        save_model(tree, str(path))
        return bytearray(path.read_bytes()), path

    def test_bad_magic(self, trained, tmp_path):
        blob, path = self._tree_bytes(trained, tmp_path)
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    # versions 1 to 3 predate the derived node fields, version 4 stored a
    # multiplier, a router-sign flag and settings per store, and version 5
    # the example count that the root's histogram holds; only version 6
    # loads
    @pytest.mark.parametrize("number", [0, 1, 2, 3, 4, 5, 7, 99])
    def test_version_bump_is_a_clean_format_error(self, trained, tmp_path, number):
        blob, path = self._tree_bytes(trained, tmp_path)
        blob[4] = number  # the version byte follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match=f"unsupported format version {number}$"):
            load_model(str(path))

    def test_cli_rejects_a_version_5_file(self, trained, tmp_path, capsys):
        blob, path = self._tree_bytes(trained, tmp_path)
        blob[4] = 5
        path.write_bytes(bytes(blob))
        data = tmp_path / "data.txt"
        data.write_text("0 0:1\n")
        assert main(["predict", "--model", str(path), "--data", str(data)]) == EX_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unsupported format version 5"]

    def test_unknown_type_tag(self, trained, tmp_path):
        blob, path = self._tree_bytes(trained, tmp_path)
        blob[5] = 42
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_truncated_file_is_a_corruption_error(self, trained, tmp_path):
        blob, path = self._tree_bytes(trained, tmp_path)
        path.write_bytes(bytes(blob[: len(blob) // 2]))
        with pytest.raises(CorruptedModelError):
            load_model(str(path))

    def test_store_short_by_one_byte_is_a_corruption_error(self, trained, tmp_path):
        tree, oaa, _ = trained
        for model in (tree, oaa):
            path = tmp_path / "model.bin"
            save_model(model, str(path))
            # the class store is the last section of both payloads
            path.write_bytes(path.read_bytes()[:-1])
            with pytest.raises(CorruptedModelError, match="truncated"):
                load_model(str(path))

    def test_trailing_bytes_are_a_corruption_error(self, trained, tmp_path):
        blob, path = self._tree_bytes(trained, tmp_path)
        path.write_bytes(bytes(blob) + b"\x00")
        with pytest.raises(CorruptedModelError):
            load_model(str(path))


def five_node_tree() -> RecallTreeModel:
    """A hand-built tree: the root's children are 1 and 2, node 1's are 3
    and 4, and each of the leaves 2, 3 and 4 has seen one example, counted
    on its way down too."""
    model = RecallTreeModel(4, 3, Hyperparams(max_depth=2, num_candidates=2, bits=10))
    model._materialize(model.root)
    model._materialize(model.nodes[1])
    for path in ([0, 2], [0, 1, 3], [0, 1, 4]):
        for node_id in path:
            update_candidates(model.nodes[node_id], path[-1] % 4, 2)
    return model


class TestCorruptNodeTables:
    """Each file is a valid model with one node-table invariant broken."""

    def _broken_file(self, trained, tmp_path, breaks) -> str:
        path = tmp_path / "tree.bin"
        save_model(trained[0], str(path))
        model = load_model(str(path))
        breaks(model)
        save_model(model, str(path))
        return str(path)

    # a record stores only its left child, so each case moves one ``left``
    @pytest.mark.parametrize("node_id, left, match", [
        (3, 0, "node 3 names child 0, which is not after it"),  # a cycle
        (2, 4, "node 2 names child 5 beyond the table"),
        (2, 3, "node 3 is the child of two nodes"),
        (1, None, "node 3 is not the child of any node"),
    ], ids=["child_before_its_parent", "right_child_past_the_end", "two_parents", "orphan"])
    def test_broken_link(self, tmp_path, node_id, left, match):
        model = five_node_tree()
        path = tmp_path / "tree.bin"
        save_model(model, str(path))
        assert load_model(str(path)).nodes == model.nodes
        model.nodes[node_id].left = left
        save_model(model, str(path))
        expect_corrupt(path, match)

    def test_children_that_count_more_than_their_parent(self, trained, tmp_path, capsys):
        # one class at a child gains the examples that its parent never
        # passed down, and one more; its sum_clog2 follows, so only the
        # conservation rule is broken
        path = tmp_path / "tree.bin"
        save_model(trained[0], str(path))
        model = load_model(str(path))
        parent = model.root
        child = model.nodes[parent.left]
        cls = next(iter(child.hist))
        child.hist[cls] += parent.total - child.total - model.nodes[parent.left + 1].total + 1
        child.sum_clog2 = sum(c * math.log2(c) for c in child.hist.values())
        save_model(model, str(path))
        assert main(["inspect", "--model", str(path)]) == EX_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: node 0 has counted {parent.total} examples, but its children "
            f"{parent.total + 1}"]

    @pytest.mark.parametrize("invariant", ["depth_cap", "class_range"])
    def test_other_broken_invariants(self, trained, tmp_path, invariant):
        def breaks(model):
            if invariant == "depth_cap":
                # the deepest nodes' parents now sit at the cap
                deepest = max(n.depth for n in model.nodes)
                model.params = dataclasses.replace(model.params, max_depth=deepest - 1)
            else:
                model.nodes[-1].hist[model.num_classes] = 1

        match = "has children" if invariant == "depth_cap" else "must ascend"
        expect_corrupt(self._broken_file(trained, tmp_path, breaks), match)

    # hand-set histogram at one node of the F=3 tree: the loader derives the
    # candidates, exactly the top-3 classes in ranked order (larger count
    # first, then smaller class id), and their count from it
    HIST = {0: 4, 1: 3, 2: 2, 5: 2, 7: 1}

    def _load_with(self, model, tmp_path, hist):
        node = model.nodes[-1]
        saved = (node.hist, node.sum_clog2)
        node.hist = dict(hist)
        node.sum_clog2 = sum(c * math.log2(c) for c in hist.values())
        path = tmp_path / "tree.bin"
        try:
            save_model(model, str(path))
        finally:
            node.hist, node.sum_clog2 = saved
        return load_model(str(path))

    def test_trainer_keeps_fewer_candidates_than_classes(self, trained):
        root = trained[0].root
        assert len(root.hist) > 3 and len(root.candidates) == 3

    def test_top_f_in_ranked_order_loads(self, trained, tmp_path):
        node = self._load_with(trained[0], tmp_path, self.HIST).nodes[-1]
        assert (node.hist, node.candidates, node.total, node.cand_total) == \
            (self.HIST, [0, 1, 2], 12, 9)

    def test_fewer_classes_than_f_loads(self, trained, tmp_path):
        node = self._load_with(trained[0], tmp_path, {4: 1, 9: 6}).nodes[-1]
        assert (node.candidates, node.total, node.cand_total) == ([9, 4], 7, 7)


class TestNodeRecordBytes:
    """The record layout, and byte-level damage to the root's record.  Its
    histogram length is bounded by the tree header before the block it
    describes is read."""

    def test_golden_bytes_of_a_root_and_two_children(self, tmp_path):
        model = RecallTreeModel(4, 3, Hyperparams(max_depth=1, num_candidates=2, bits=10))
        model._materialize(model.root)
        for node_id, labels in ((0, [2, 0, 2, 1, 2, 0]), (1, [0, 1, 0]), (2, [2, 2, 2])):
            for label in labels:
                update_candidates(model.nodes[node_id], label, 2)
        path = tmp_path / "tree.bin"
        save_model(model, str(path))
        blob = path.read_bytes()

        def record(left, hist, sum_clog2):
            # left i32 | hist_len u32 | (class u32, count u64) * hist_len | sum_clog2 f8
            entries = b"".join(struct.pack("<IQ", c, n) for c, n in sorted(hist.items()))
            return struct.pack("<iI", left, len(hist)) + entries + struct.pack("<d", sum_clog2)

        sums = [n.sum_clog2 for n in model.nodes]
        assert sums == pytest.approx([2 + 3 * math.log2(3), 2, 3 * math.log2(3)])
        records = (record(1, {0: 2, 1: 1, 2: 3}, sums[0])
                   + record(-1, {0: 2, 1: 1}, sums[1])
                   + record(-1, {2: 3}, sums[2]))
        assert blob[_FIRST_NODE:store_offsets(blob)[0]] == records
        assert load_model(str(path)).nodes == model.nodes

    def _root_bytes(self, trained, tmp_path):
        path = tmp_path / "tree.bin"
        save_model(trained[0], str(path))
        blob = bytearray(path.read_bytes())
        (hist_len,) = struct.unpack_from("<I", blob, _ROOT_HIST_LEN)
        assert hist_len == 12  # the root has seen every class
        return blob, path, hist_len

    def test_huge_histogram_length_is_rejected_before_reading(self, trained, tmp_path):
        blob, path, _ = self._root_bytes(trained, tmp_path)
        struct.pack_into("<I", blob, _ROOT_HIST_LEN, 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        start = time.perf_counter()
        with pytest.raises(CorruptedModelError, match="histogram entries"):
            load_model(str(path))
        assert time.perf_counter() - start < 5.0

    def test_histogram_classes_out_of_order(self, trained, tmp_path):
        blob, path, _ = self._root_bytes(trained, tmp_path)
        first = _ROOT_HIST_LEN + 4
        blob[first:first + 24] = blob[first + 12:first + 24] + blob[first:first + 12]
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptedModelError, match="must ascend"):
            load_model(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "doubled"])
    def test_sum_clog2_that_does_not_match_the_histogram(self, trained, tmp_path, value):
        blob, path, hist_len = self._root_bytes(trained, tmp_path)
        at = _ROOT_HIST_LEN + 4 + 12 * hist_len
        (stored,) = struct.unpack_from("<d", blob, at)
        assert stored == trained[0].root.sum_clog2 > 0
        struct.pack_into("<d", blob, at, 2 * stored if value == "doubled" else value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptedModelError, match="sum_clog2"):
            load_model(str(path))

    def test_histogram_block_beyond_the_file_is_rejected_before_reading(self, trained, tmp_path,
                                                                         monkeypatch):
        blob, path, _ = self._root_bytes(trained, tmp_path)
        struct.pack_into("<I", blob, 6, MAX_CLASSES)
        struct.pack_into("<I", blob, _ROOT_HIST_LEN, MAX_CLASSES)
        path.write_bytes(bytes(blob))
        reads = recorded_reads(monkeypatch)
        with pytest.raises(CorruptedModelError, match=f"histogram needs {12 * MAX_CLASSES} bytes"):
            load_model(str(path))
        assert max(reads) < len(blob)

    def test_a_stored_count_of_zero(self, tmp_path):
        # the writer stores only classes a node has counted; a leaf count
        # patched from 1 to 0 leaves sum_clog2 and the links valid, and used
        # to load as a candidate with count 0
        model = five_node_tree()
        path = tmp_path / "tree.bin"
        save_model(model, str(path))
        blob = bytearray(path.read_bytes())
        assert model.nodes[2].hist == {2: 1}
        at = node_offsets(bytes(blob))[2] + struct.calcsize("<iII")  # node 2's one count
        assert struct.unpack_from("<Q", blob, at) == (1,)
        struct.pack_into("<Q", blob, at, 0)
        path.write_bytes(bytes(blob))
        expect_corrupt(path, "node 2 histogram stores a count of 0")

    def test_a_stored_count_of_zero_at_the_root(self, tmp_path):
        # the record is refused as it is read, before the children's counts
        # are compared with their parent's
        model = five_node_tree()
        path = tmp_path / "tree.bin"
        save_model(model, str(path))
        blob = bytearray(path.read_bytes())
        assert model.root.hist == {0: 1, 2: 1, 3: 1}
        at = _ROOT_HIST_LEN + 4 + 12 + 4  # the root's second entry's count
        assert struct.unpack_from("<IQ", blob, at - 4) == (2, 1)
        struct.pack_into("<Q", blob, at, 0)
        path.write_bytes(bytes(blob))
        expect_corrupt(path, "node 0 histogram stores a count of 0")

    def test_file_cut_inside_a_histogram_block(self, trained, tmp_path):
        blob, path, hist_len = self._root_bytes(trained, tmp_path)
        path.write_bytes(bytes(blob[:_ROOT_HIST_LEN + 4 + 12 * (hist_len // 2) + 5]))
        with pytest.raises(CorruptedModelError, match="truncated"):
            load_model(str(path))


class TestTypeTags:
    def test_generic_loader_dispatches_on_tag(self, trained, tmp_path):
        tree, oaa, _ = trained
        tp, op = tmp_path / "t.bin", tmp_path / "o.bin"
        save_model(tree, str(tp))
        save_model(oaa, str(op))
        assert isinstance(load_model(str(tp)), RecallTreeModel)
        assert isinstance(load_model(str(op)), OaaModel)

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(ModelTypeError):
            save_model(object(), str(tmp_path / "x.bin"))


class TestResume:
    """Training N examples, saving, loading and training M more equals
    training N + M examples without a break, AdaGrad state included."""

    @pytest.mark.parametrize("kind", ["tree", "oaa"])
    def test_adagrad_resume_is_bit_identical(self, trained, tmp_path, kind):
        _, _, data = trained
        first, rest = data[:700], data[700:1400]

        def fresh():
            if kind == "tree":
                return RecallTreeModel(12, trained[0].num_raw_features, Hyperparams.defaults(
                    12, bits=14, num_candidates=3, adaptive_lr=True))
            return OaaModel(12, bits=14, adaptive_lr=True)

        whole = fresh().train(first + rest)
        path = tmp_path / "model.bin"
        save_model(fresh().train(first), str(path))
        resumed = load_model(str(path)).train(rest)

        stores = ["class_store"] + (["router_store"] if kind == "tree" else [])
        for name in stores:
            a, b = getattr(resumed, name), getattr(whole, name)
            assert a.adaptive and b.adaptive
            assert bit_equal(a.weights, b.weights)
            assert bit_equal(a._grad_sq, b._grad_sq)
        assert resumed.examples_seen == whole.examples_seen == 1400
        if kind == "tree":
            assert resumed.nodes == whole.nodes


class TestAtomicSave:
    def test_failed_save_leaves_the_old_file_and_no_temporary(self, trained, tmp_path,
                                                              monkeypatch):
        tree, oaa, _ = trained
        path = tmp_path / "model.bin"
        save_model(oaa, str(path))
        before = path.read_bytes()

        def disk_full(fh, store):
            fh.write(b"part of a store")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(model_io, "_write_store", disk_full)
        for model in (tree, oaa):
            with pytest.raises(OSError, match="No space"):
                save_model(model, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_model_saves_back_to_the_path_it_was_loaded_from(self, trained, tmp_path):
        tree, _, data = trained
        path = tmp_path / "tree.bin"
        save_model(tree, str(path))
        before = path.read_bytes()
        loaded = load_model(str(path))
        save_model(loaded, str(path))
        assert path.read_bytes() == before
        loaded.train(data[3000:3100])
        save_model(loaded, str(path))
        assert bit_equal(load_model(str(path)).class_store.weights, loaded.class_store.weights)
        assert os.listdir(tmp_path) == ["tree.bin"]

    def test_directory_is_synced_after_the_rename(self, trained, tmp_path, monkeypatch):
        _, oaa, _ = trained
        path = tmp_path / "oaa.bin"
        synced = []  # (a descriptor of tmp_path, path already in place) per fsync
        fsync = os.fsync

        def recording_fsync(fd):
            st = os.fstat(fd)
            synced.append((stat.S_ISDIR(st.st_mode) and os.path.samestat(st, os.stat(tmp_path)),
                           path.exists()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        save_model(oaa, str(path))
        # the temporary file before the rename, then the directory after it
        assert synced == [(False, False), (True, True)]

    def test_mode_is_what_open_gives_a_new_file(self, trained, tmp_path):
        _, oaa, _ = trained
        reference = tmp_path / "reference"
        with open(reference, "wb"):
            pass
        save_model(oaa, str(tmp_path / "oaa.bin"))
        assert os.stat(tmp_path / "oaa.bin").st_mode == os.stat(reference).st_mode


class TestHeaderFields:
    """A bad header field is a CorruptedModelError (CLI exit 4), whichever
    field it is; counts are bounded before a body is read."""

    def _expect_corrupt(self, blob, tmp_path, match):
        path = tmp_path / "model.bin"
        path.write_bytes(bytes(blob))
        expect_corrupt(path, match)

    def _oaa_blob(self, trained, tmp_path):
        path = tmp_path / "oaa.bin"
        save_model(trained[1], str(path))
        return bytearray(path.read_bytes())

    def _tree_blob(self, model, tmp_path):
        path = tmp_path / "tree.bin"
        save_model(model, str(path))
        return bytearray(path.read_bytes())

    def _blob(self, trained, tmp_path, kind):
        return self._oaa_blob(trained, tmp_path) if kind == "oaa" else \
            self._tree_blob(trained[0], tmp_path)

    @pytest.mark.parametrize("kind", ["oaa", "tree"])
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_learning_rate(self, trained, tmp_path, kind, lr):
        blob = self._blob(trained, tmp_path, kind)
        struct.pack_into("<d", blob, settings_offset(blob) + 2, lr)
        self._expect_corrupt(blob, tmp_path, "learning_rate")

    @pytest.mark.parametrize("kind", ["oaa", "tree"])
    def test_the_header_learning_rate_reaches_every_store(self, trained, tmp_path, kind):
        # a store header holds only its count, so the model header's rate
        # is the one every store of the loaded model steps with
        blob = self._blob(trained, tmp_path, kind)
        original = trained[1] if kind == "oaa" else trained[0]
        (stored,) = struct.unpack_from("<d", blob, settings_offset(blob) + 2)
        assert stored != 0.25
        struct.pack_into("<d", blob, settings_offset(blob) + 2, 0.25)
        path = tmp_path / "model.bin"
        path.write_bytes(bytes(blob))
        loaded = load_model(str(path))
        names = ["class_store"] if kind == "oaa" else ["router_store", "class_store"]
        for name in names:
            store, before = getattr(loaded, name), getattr(original, name)
            assert store.learning_rate == 0.25
            assert store.bits == before.bits
            assert bit_equal(store.weights, before.weights)
        if kind == "tree":
            assert loaded.params.learning_rate == 0.25

    # a tree reads flags bits 1 and 4, a one-against-all only bit 4; other
    # bits used to load silently
    @pytest.mark.parametrize("kind,bits", [("tree", [2, 8, 16, 32, 64, 128]),
                                           ("oaa", [1, 2, 8, 16, 32, 64, 128])])
    def test_unknown_flags_bit(self, trained, tmp_path, kind, bits):
        blob = self._blob(trained, tmp_path, kind)
        for bit in bits:
            patched = bytearray(blob)
            patched[settings_offset(blob)] |= bit
            self._expect_corrupt(patched, tmp_path, f"unknown flags bits {bit:#04x}")

    def test_the_old_router_sign_bit_is_unknown(self, trained, tmp_path, capsys):
        # a version 4 file set bit 2 for the router sign that training uses;
        # no later writer sets it
        blob = self._tree_blob(trained[0], tmp_path)
        assert blob[_TREE_FLAGS] == 1 | 4
        blob[_TREE_FLAGS] |= 2
        path = tmp_path / "bit2.bin"
        path.write_bytes(bytes(blob))
        data = tmp_path / "data.txt"
        data.write_text("0 0:1\n")
        for argv in (["predict", "--data", str(data)], ["inspect"]):
            capsys.readouterr()
            assert main([*argv, "--model", str(path)]) == EX_FORMAT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == ["error: unknown flags bits 0x02"]

    @pytest.mark.parametrize("kind", ["oaa", "tree"])
    @pytest.mark.parametrize("bits", [9, 31, 255])
    def test_bits_outside_the_legal_range(self, trained, tmp_path, kind, bits):
        blob = self._blob(trained, tmp_path, kind)
        blob[settings_offset(blob) + 1] = bits
        self._expect_corrupt(blob, tmp_path, f"bits must be in \\[10, 30\\], got {bits}")

    def test_tree_header_fields(self, trained, tmp_path):
        # the example count is not among them: the loader takes the root's
        tree = trained[0]
        blob = self._tree_blob(tree, tmp_path)
        p = tree.params
        assert blob[4:6] == bytes([6, model_io.TYPE_RECALL_TREE])
        assert struct.unpack_from(_TREE_HEADER, blob, 6) == (
            12, p.max_depth, 3, p.depth_penalty, 1 | 4, 14, p.learning_rate,
            tree.num_raw_features, len(tree.nodes))
        assert load_model(str(tmp_path / "tree.bin")).examples_seen == tree.root.total == 3000

    # parsed indices are int64, so no wider raw space can be trained
    @pytest.mark.parametrize("width", [2**63 + 1, 2**64 - 1])
    def test_raw_width_past_2_63(self, trained, tmp_path, width):
        blob = self._tree_blob(trained[0], tmp_path)
        struct.pack_into("<Q", blob, 6 + struct.calcsize("<IHIdBBd"), width)
        self._expect_corrupt(blob, tmp_path, r"num_raw_features must be in \[0, 2\^63\]")

    def test_zero_candidates(self, tmp_path):
        untrained = RecallTreeModel(12, 7, Hyperparams.defaults(12, bits=10))
        blob = self._tree_blob(untrained, tmp_path)
        struct.pack_into("<I", blob, 6 + struct.calcsize("<IH"), 0)
        self._expect_corrupt(blob, tmp_path, "num_candidates")

    @pytest.mark.parametrize("penalty", [-1.0, float("nan"), float("inf")])
    def test_bad_depth_penalty(self, trained, tmp_path, penalty):
        blob = self._tree_blob(trained[0], tmp_path)
        struct.pack_into("<d", blob, 6 + struct.calcsize("<IHI"), penalty)
        self._expect_corrupt(blob, tmp_path, "depth_penalty")

    def test_count_above_the_table_size(self, trained, tmp_path):
        blob = self._oaa_blob(trained, tmp_path)
        struct.pack_into("<Q", blob, _OAA_STORE, (1 << 14) + 1)
        self._expect_corrupt(blob, tmp_path, "lists 16385 slots for bits=14")

    def test_count_beyond_the_file_is_rejected_before_reading(self, trained, tmp_path):
        # a sparse count just under a legal 2^30 table would ask for 8 GiB
        blob = self._oaa_blob(trained, tmp_path)
        blob[_OAA_FLAGS + 1] = 30
        struct.pack_into("<Q", blob, _OAA_STORE, (1 << 30) - 1)
        started = time.perf_counter()
        self._expect_corrupt(blob, tmp_path, "needs 8589934584 bytes, .* are left")
        assert time.perf_counter() - started < 5

    def _slots_at(self, blob):
        (count,) = struct.unpack_from(_STORE_HEADER, blob, _OAA_STORE)
        start = _OAA_STORE + struct.calcsize(_STORE_HEADER)
        return start, count

    def _wide_slots(self, wide_oaa_blob):
        blob = bytearray(wide_oaa_blob)
        assert blob[settings_offset(blob) + 1] == 24
        start, count = self._slots_at(blob)
        assert count >= 2
        return blob, start, count

    def _expect_corrupt_before_any_table(self, blob, tmp_path, match):
        # the slot list used to be checked only after the store's 2^24
        # table (64 MiB) was allocated; now it is checked first
        path = tmp_path / "model.bin"
        path.write_bytes(bytes(blob))

        def load():
            with pytest.raises(CorruptedModelError, match=match):
                load_model(str(path))

        assert traced_peak(load) < 1 << 20
        expect_corrupt(path, match)

    def test_slots_out_of_order(self, wide_oaa_blob, tmp_path):
        blob, start, _ = self._wide_slots(wide_oaa_blob)
        blob[start:start + 8] = blob[start + 4:start + 8] + blob[start:start + 4]
        self._expect_corrupt_before_any_table(blob, tmp_path, "must ascend")

    def test_repeated_slot(self, wide_oaa_blob, tmp_path):
        blob, start, _ = self._wide_slots(wide_oaa_blob)
        blob[start + 4:start + 8] = blob[start:start + 4]
        self._expect_corrupt_before_any_table(blob, tmp_path, "must ascend")

    def test_slot_beyond_the_table(self, wide_oaa_blob, tmp_path):
        blob, start, count = self._wide_slots(wide_oaa_blob)
        struct.pack_into("<I", blob, start + 4 * (count - 1), 1 << 24)
        self._expect_corrupt_before_any_table(blob, tmp_path, "must ascend")

    def test_class_count_of_zero(self, trained, tmp_path):
        blob = self._oaa_blob(trained, tmp_path)
        struct.pack_into("<I", blob, 6, 0)
        self._expect_corrupt(blob, tmp_path, "num_classes")

    # (offset in the tree header, struct format, value, message); the depth
    # cap is 16 bits in the file, so every stored value is legal
    TREE_FIELDS = {
        "width": (6 + struct.calcsize("<IHIdBBd"), "<Q", 2**64 - 1,
                  r"num_raw_features must be in \[0, 2\^63\]"),
        "depth_penalty": (6 + struct.calcsize("<IHI"), "<d", float("nan"), "depth_penalty"),
        "candidates": (6 + struct.calcsize("<IH"), "<I", 0, "num_candidates"),
        "bits": (_TREE_FLAGS + 1, "<B", 31, r"bits must be in \[10, 30\], got 31"),
        "learning_rate": (_TREE_FLAGS + 2, "<d", float("nan"), "learning_rate"),
    }

    @pytest.mark.parametrize("kind", ["oaa", "tree", *(f"tree-{f}" for f in TREE_FIELDS)])
    def test_class_count_above_the_limit_is_rejected_at_once(self, trained, wide_tree_blob,
                                                             tmp_path, kind, monkeypatch):
        # K past 2^24, one changed byte in a small file, used to build
        # 2^24 class salts (0.82 s and 548 MiB) before any check failed, and
        # a bad tree field was found only after both 2^24 weight tables
        # (128 MiB) were allocated; now nothing past the header is read
        if kind == "oaa":
            blob = self._oaa_blob(trained, tmp_path)
        else:
            blob = bytearray(wide_tree_blob)
            assert blob[settings_offset(blob) + 1] == 24
        if kind in ("oaa", "tree"):
            blob[9] = 1
            assert struct.unpack_from("<I", blob, 6)[0] > MAX_CLASSES
            match = f"num_classes must be in \\[1, {MAX_CLASSES}\\]"
        else:
            offset, fmt, value, match = self.TREE_FIELDS[kind.removeprefix("tree-")]
            struct.pack_into(fmt, blob, offset, value)
        path = tmp_path / "model.bin"
        path.write_bytes(bytes(blob))
        reads = recorded_reads(monkeypatch)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(CorruptedModelError, match=match):
                load_model(str(path))
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 1 << 20
        assert sum(reads) == (_OAA_FLAGS if kind == "oaa" else _FIRST_NODE)


class TestFuzz:
    """Cut short or with one byte changed, a valid file loads or raises a
    ModelFormatError, quickly.

    The header's ``bits`` byte is left unchanged, because a change there
    yields a legal file whose in-memory model is huge (a 2^30 table).  The
    class count is bounded by ``MAX_CLASSES``, so every byte of it may
    change.
    """

    def _flippable(self, blob: bytes) -> list[int]:
        skip = settings_offset(blob) + 1
        return [i for i in range(len(blob)) if i != skip]

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_truncations_and_byte_flips(self, small_files, tmp_path_factory, data):
        _, files = small_files
        name = data.draw(st.sampled_from(sorted(files)))
        blob = bytearray(files[name])
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            at = data.draw(st.sampled_from(self._flippable(bytes(blob))))
            blob[at] ^= data.draw(st.integers(1, 255))
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(bytes(blob))
        started = time.perf_counter()
        try:
            load_model(str(path))
        except ModelFormatError:
            pass
        assert time.perf_counter() - started < 1.0


class TestSettingsRoundTrip:
    """Every setting ``Hyperparams`` accepts trains, saves and loads back to
    the same model; every other one raises ``DomainError`` up front.

    A cap beyond a few levels is round-tripped untrained: one example can
    descend to the cap, and with path features each level scores one more
    feature, so a 65535-level descent costs minutes.
    """

    PENALTIES = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, float("inf"), float("nan"), -1.0, float("-inf")]),
        st.floats(allow_nan=True, allow_infinity=True))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_train_save_load(self, tmp_path_factory, data):
        draw = data.draw
        settings_ = dict(
            max_depth=draw(st.sampled_from([0, 1, 2, 3, MAX_DEPTH, MAX_DEPTH + 1])),
            num_candidates=draw(st.sampled_from([1, 2, 3, MAX_CANDIDATES, MAX_CANDIDATES + 1])),
            depth_penalty=draw(self.PENALTIES),
            bits=10,
            path_features=draw(st.booleans()),
            adaptive_lr=draw(st.booleans()),
        )
        legal = (settings_["max_depth"] <= MAX_DEPTH
                 and settings_["num_candidates"] <= MAX_CANDIDATES
                 and math.isfinite(settings_["depth_penalty"])
                 and settings_["depth_penalty"] >= 0)
        try:
            params = Hyperparams(**settings_)
        except DomainError:
            assert not legal
            return
        assert legal

        k = draw(st.integers(1, 6))
        n = draw(st.integers(0, 40)) if params.max_depth <= 3 else 0
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        stream = []
        for _ in range(n):
            indices = np.sort(rng.choice(5, size=rng.integers(0, 6), replace=False))
            stream.append(SparseExample(int(rng.integers(k)), indices, rng.normal(size=indices.size)))
        model = RecallTreeModel(k, 5, params).train(stream)
        path = tmp_path_factory.getbasetemp() / "settings.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))

        assert loaded.params == params
        assert loaded.examples_seen == n
        assert loaded.nodes == model.nodes
        for name in ("router_store", "class_store"):
            a, b = getattr(loaded, name), getattr(model, name)
            assert bit_equal(a.weights, b.weights)
            if params.adaptive_lr:
                assert bit_equal(a._grad_sq, b._grad_sq)
        if stream:
            expected = [model.predict_full(x) for x in stream]
            assert loaded.predict_batch(stream) == model.predict_batch(stream) == expected
            assert [loaded.predict_full(x) for x in stream] == expected
