import struct
import time

import numpy as np
import pytest

from recalltree.errors import CorruptedModelError, ModelFormatError, ModelTypeError
from recalltree.cli import EX_FORMAT, main
from recalltree.model_io import load_model, save_model
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import Hyperparams, RecallTreeModel


# the first node record starts after the magic, the version and type bytes
# and the tree header; its histogram length follows its six link fields
_FIRST_NODE = 4 + struct.calcsize("<BB") + struct.calcsize("<IHIddBQQI")
_ROOT_HIST_LEN = _FIRST_NODE + struct.calcsize("<IiiiHQ")


@pytest.fixture(scope="module")
def trained():
    spec = SynthSpec("voronoi", num_classes=12, dimensions=6, num_examples=4000,
                     noise=0.2, seed=9)
    data = generate_examples(spec)
    width = raw_feature_width(spec)
    params = Hyperparams.defaults(12, bits=14, adaptive_lr=True)
    tree = RecallTreeModel(12, width, params).train(data[:3000])
    oaa = OaaModel(12, bits=14).train(data[:3000])
    return tree, oaa, data


@pytest.fixture(scope="module")
def small_f(trained):
    """A tree with F=3, so its upper nodes hold classes that are not candidates."""
    params = Hyperparams.defaults(12, bits=12, num_candidates=3)
    return RecallTreeModel(12, trained[0].num_raw_features, params).train(trained[2][:500])


class TestRoundTrip:
    def test_tree_predictions_survive_round_trip(self, trained, tmp_path):
        tree, _, data = trained
        path = tmp_path / "tree.bin"
        save_model(tree, str(path))
        loaded = load_model(str(path))
        assert isinstance(loaded, RecallTreeModel)
        for x in data[3000:]:
            assert loaded.predict(x) == tree.predict(x)

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
        assert len(loaded.nodes) == len(tree.nodes)
        for a, b in zip(loaded.nodes, tree.nodes):
            assert (a.id, a.depth, a.parent, a.left, a.right) == \
                (b.id, b.depth, b.parent, b.left, b.right)
            assert a.hist == b.hist
            assert a.candidates == b.candidates
            assert a.cand_total == b.cand_total
            assert a.sum_clog2 == pytest.approx(b.sum_clog2, abs=1e-9)

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

    def test_stores_are_raw_little_endian_float32(self, trained, tmp_path):
        tree, oaa, _ = trained
        for model in (tree, oaa):
            path = tmp_path / "model.bin"
            save_model(model, str(path))
            raw = model.class_store.weights.astype("<f4").tobytes()
            assert path.read_bytes().endswith(raw)

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

    def test_version_bump_is_a_clean_format_error(self, trained, tmp_path):
        blob, path = self._tree_bytes(trained, tmp_path)
        blob[4] = 99  # the version byte follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(str(path))

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


class TestVersionOne:
    """Format version 1 files load; they differ from version 2 only in the
    version byte and, for one-against-all, in lacking the flags byte."""

    def test_tree(self, trained, tmp_path):
        tree, _, data = trained
        path = tmp_path / "tree.bin"
        save_model(tree, str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 1
        path.write_bytes(bytes(blob))
        loaded = load_model(str(path))
        assert loaded.params == tree.params
        assert np.array_equal(loaded.class_store.weights, tree.class_store.weights)
        assert [loaded.predict(x) for x in data[3000:3300]] == \
            [tree.predict(x) for x in data[3000:3300]]

    def test_oaa_loads_as_plain_sgd(self, trained, tmp_path):
        _, _, data = trained
        oaa = OaaModel(12, bits=14, adaptive_lr=True).train(data[:200])
        path = tmp_path / "oaa.bin"
        save_model(oaa, str(path))
        blob = path.read_bytes()
        # magic, version, tag, then <IQ> and the flags byte at offset 18
        path.write_bytes(blob[:4] + b"\x01" + blob[5:18] + blob[19:])
        loaded = load_model(str(path))
        assert loaded.class_store.adaptive is False
        assert loaded.examples_seen == 200
        assert np.array_equal(loaded.class_store.weights, oaa.class_store.weights)


class TestCorruptNodeTables:
    """Each file is a valid model with one node-table invariant broken."""

    def _broken_file(self, trained, tmp_path, breaks) -> str:
        path = tmp_path / "tree.bin"
        save_model(trained[0], str(path))
        model = load_model(str(path))
        breaks(model)
        save_model(model, str(path))
        return str(path)

    def test_candidate_missing_from_histogram(self, trained, tmp_path, capsys):
        def breaks(model):
            node = next(n for n in model.nodes if n.candidates)
            del node.hist[node.candidates[-1]]

        path = self._broken_file(trained, tmp_path, breaks)
        with pytest.raises(CorruptedModelError):
            load_model(path)
        assert main(["inspect", "--model", path]) == EX_FORMAT
        assert "candidate missing" in capsys.readouterr().err

    @pytest.mark.parametrize("root_names_leaf_as_parent", [False, True])
    def test_child_pointer_back_to_root(self, trained, tmp_path, root_names_leaf_as_parent):
        # a childless node above the depth cap links back to the root, a
        # cycle that descent would follow forever; when the root also names
        # that node as its parent, only the depth rule catches it
        def breaks(model):
            leaf = next(n for n in model.nodes
                        if n.left is None and 0 < n.depth < model.params.max_depth)
            leaf.left = leaf.right = 0
            if root_names_leaf_as_parent:
                model.root.parent = leaf.id

        with pytest.raises(CorruptedModelError):
            load_model(self._broken_file(trained, tmp_path, breaks))

    @pytest.mark.parametrize("invariant", ["depth_cap", "one_child", "class_range"])
    def test_other_broken_invariants(self, trained, tmp_path, invariant):
        def breaks(model):
            node = model.nodes[-1]
            if invariant == "depth_cap":
                node.depth = model.params.max_depth + 1
            elif invariant == "one_child":
                model.root.right = None
            else:
                node.hist[model.num_classes] = 1

        with pytest.raises(CorruptedModelError):
            load_model(self._broken_file(trained, tmp_path, breaks))

    # hand-set histogram at one node of the F=3 tree: the loader accepts
    # exactly the top-3 classes in ranked order (larger count first, then
    # smaller class id) and a total equal to the histogram's sum
    HIST = {0: 4, 1: 3, 2: 2, 5: 2, 7: 1}

    def _load_with(self, model, tmp_path, hist, candidates, total=None):
        node = model.nodes[-1]
        saved = (node.hist, node.candidates, node.total)
        node.hist, node.candidates = dict(hist), list(candidates)
        node.total = sum(hist.values()) if total is None else total
        path = tmp_path / "tree.bin"
        try:
            save_model(model, str(path))
        finally:
            node.hist, node.candidates, node.total = saved
        return load_model(str(path))

    def test_trainer_keeps_fewer_candidates_than_classes(self, small_f):
        assert len(small_f.root.hist) > 3 and len(small_f.root.candidates) == 3

    def test_top_f_in_ranked_order_loads(self, small_f, tmp_path):
        node = self._load_with(small_f, tmp_path, self.HIST, [0, 1, 2]).nodes[-1]
        assert (node.hist, node.candidates, node.total, node.cand_total) == \
            (self.HIST, [0, 1, 2], 12, 9)

    def test_fewer_classes_than_f_loads(self, small_f, tmp_path):
        node = self._load_with(small_f, tmp_path, {4: 1, 9: 6}, [9, 4]).nodes[-1]
        assert node.candidates == [9, 4]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_total_off_by_one(self, small_f, tmp_path, delta):
        with pytest.raises(CorruptedModelError, match="sum of its histogram"):
            self._load_with(small_f, tmp_path, self.HIST, [0, 1, 2], total=12 + delta)

    def test_non_candidate_out_counts_the_last_candidate(self, small_f, tmp_path):
        with pytest.raises(CorruptedModelError, match="top-3"):
            self._load_with(small_f, tmp_path, {**self.HIST, 5: 3}, [0, 1, 2])

    @pytest.mark.parametrize("candidates", [
        [0, 1, 5],      # the tie between 2 and 5 broken toward the larger id
        [0, 2, 1],      # the right classes in the wrong order
        [1, 0, 2],      # the same, at the top
        [0, 1],         # one short of F
        [0, 1, 2, 5],   # more than F
        [0, 0, 1],      # a repeated class
    ])
    def test_candidates_not_the_ranked_top_f(self, small_f, tmp_path, candidates):
        with pytest.raises(CorruptedModelError, match="candidates"):
            self._load_with(small_f, tmp_path, self.HIST, candidates)


class TestNodeRecordBytes:
    """Byte-level damage to the root's record.  Its counts are bounded by
    the tree header before the block they describe is read."""

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

    def test_candidate_count_above_f_is_rejected_before_reading(self, trained, tmp_path):
        blob, path, hist_len = self._root_bytes(trained, tmp_path)
        cand_len_at = _ROOT_HIST_LEN + 4 + 12 * hist_len
        assert struct.unpack_from("<I", blob, cand_len_at) == (12,)
        struct.pack_into("<I", blob, cand_len_at, 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptedModelError, match="candidates, more than F"):
            load_model(str(path))

    def test_histogram_classes_out_of_order(self, trained, tmp_path):
        blob, path, _ = self._root_bytes(trained, tmp_path)
        first = _ROOT_HIST_LEN + 4
        blob[first:first + 24] = blob[first + 12:first + 24] + blob[first:first + 12]
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptedModelError, match="must ascend"):
            load_model(str(path))

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
