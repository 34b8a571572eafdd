import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalltree.data import SparseExample
from recalltree.errors import DomainError, UntrainedModelError
from recalltree.evaluation import progressive_eval
from recalltree.linear import mix64_array, slot_matrix
from recalltree.model_io import load_model, save_model
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import (
    MAX_CANDIDATES,
    MAX_CLASSES,
    MAX_DEPTH,
    Hyperparams,
    RecallTreeModel,
    TreeNode,
    ceil_log2,
    label_entropies,
    path_feature_index,
    plurality_label,
    ranked_classes,
    recall_lower_bound,
    update_candidates,
)

from conftest import accuracy, quadrant_examples, slot_of


def make_node(counts: dict[int, int], num_candidates: int) -> TreeNode:
    node = TreeNode(id=0, depth=0)
    for cls, count in counts.items():
        for _ in range(count):
            update_candidates(node, cls, num_candidates)
    return node


class TestRecallLowerBound:
    # (candidate mass, node mass, penalty) -> hand-evaluated bound:
    # r - sqrt(penalty * r(1-r) / m) - penalty / m
    TABLE = [
        (90, 100, 1.0, 0.86),
        (4, 4, 1.0, 0.75),
        (0, 1, 1.0, -1.0),
        (1, 1, 0.5, 0.5),
        (2, 4, 2.0, -0.3535533905932738),
        (25, 100, 0.5, 0.21438137821521028),
        (3, 4, 1.0, 0.2834936490538904),
        (100, 100, 2.0, 0.98),
        (0, 4, 0.5, -0.125),
        (1, 1, 2.0, -1.0),
        (10, 100, 1.0, 0.060000000000000005),
        (50, 100, 2.0, 0.40928932188134524),
    ]

    @pytest.mark.parametrize("cand,total,penalty,expected", TABLE)
    def test_hand_evaluated_table(self, cand, total, penalty, expected):
        node = TreeNode(id=0, depth=0, total=total, cand_total=cand)
        assert recall_lower_bound(node, penalty) == pytest.approx(expected, abs=1e-12)

    def test_penalty_zero_returns_empirical_recall(self):
        node = TreeNode(id=0, depth=0, total=7, cand_total=3)
        assert recall_lower_bound(node, 0.0) == 3 / 7

    def test_empty_node_is_never_preferred(self):
        node = TreeNode(id=0, depth=0)
        assert recall_lower_bound(node, 1.0) == float("-inf")


class TestUpdateCandidates:
    def test_first_example(self):
        node = make_node({5: 1}, num_candidates=4)
        assert node.candidates == [5]
        assert node.r_hat == 1.0

    def test_count_promotion(self):
        node = make_node({1: 3, 2: 3}, num_candidates=1)
        update_candidates(node, 2, 1)
        assert node.candidates == [2]  # count 4 beats 3

    def test_tie_breaks_to_smaller_id(self):
        node = make_node({1: 3, 2: 3}, num_candidates=1)
        update_candidates(node, 0, 1)
        assert node.candidates == [1]  # 3-3 tie between 1 and 2, 1 wins

    @given(st.lists(st.integers(0, 11), min_size=1, max_size=150),
           st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_top_f(self, labels, num_candidates):
        node = TreeNode(id=0, depth=0)
        for y in labels:
            update_candidates(node, y, num_candidates)
            brute = [c for c, _ in sorted(node.hist.items(),
                                          key=lambda kv: (-kv[1], kv[0]))]
            assert node.candidates == brute[:num_candidates]
            assert node.cand_total == sum(node.hist[c] for c in node.candidates)
            assert node.total == sum(node.hist.values())

    @given(st.lists(st.integers(0, 11), min_size=1, max_size=150),
           st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_keeps_the_ranked_top_f(self, labels, num_candidates):
        # the incremental upkeep against the one ranking the loader checks
        node = TreeNode(id=0, depth=0)
        for y in labels:
            update_candidates(node, y, num_candidates)
            ranked = ranked_classes(list(node.hist), list(node.hist.values()), num_candidates)
            assert node.candidates == ranked.tolist()

    def test_ranking_puts_larger_counts_first_and_breaks_ties_to_smaller_ids(self):
        classes = np.array([9, 2, 4, 7], dtype=np.uint32)
        counts = np.array([3, 5, 3, 0], dtype=np.uint64)
        assert ranked_classes(classes, counts, 4).tolist() == [2, 4, 9, 7]
        assert ranked_classes(classes, counts, 2).tolist() == [2, 4]


def entropy(node: TreeNode) -> float:
    """The node's label entropy, which does not depend on the label asked
    about."""
    return label_entropies(node, 0)[0]


class TestNodeEntropy:
    def test_uniform_two_classes(self):
        assert entropy(make_node({0: 1, 1: 1}, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(make_node({0: 4}, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_three_one_split(self):
        node = make_node({0: 3, 1: 1}, 4)
        assert entropy(node) == pytest.approx(0.8112781244591328, abs=1e-9)

    def test_empty_node(self):
        assert entropy(TreeNode(id=0, depth=0)) == 0.0

    def test_empty_node_with_extra_is_point_mass(self):
        assert label_entropies(TreeNode(id=0, depth=0), 3) == (0.0, 0.0)

    def test_extra_matches_fresh_computation(self):
        node = make_node({0: 3, 1: 2, 7: 5}, 4)
        widened = make_node({0: 3, 1: 2, 7: 5, 4: 1}, 4)
        assert label_entropies(node, 4)[1] == pytest.approx(entropy(widened), abs=1e-9)

    def test_extra_for_existing_class(self):
        node = make_node({0: 3, 1: 1}, 4)
        widened = make_node({0: 3, 1: 2}, 4)
        assert label_entropies(node, 1)[1] == pytest.approx(entropy(widened), abs=1e-9)

    @given(st.lists(st.integers(0, 9), max_size=60), st.integers(0, 9))
    @settings(max_examples=80, deadline=None)
    def test_entropies_with_a_label_are_those_after_counting_it(self, labels, y):
        # bit for bit: the extra point mass adds to sum_clog2 exactly as
        # counting it does, and the entropy without it is the same whichever
        # label is asked about
        node = TreeNode(id=0, depth=0)
        for label in labels:
            update_candidates(node, label, 3)
        h, h_with = label_entropies(node, y)
        assert h == label_entropies(node, (y + 1) % 10)[0]
        update_candidates(node, y, 3)
        assert h_with == entropy(node)


class TestPathFeature:
    def test_offset_rule(self):
        assert path_feature_index(0, 1000) == 1000

    def test_deterministic(self):
        assert path_feature_index(7, 10) == path_feature_index(7, 10)

    def test_injective_on_node_ids(self):
        assert path_feature_index(3, 50) != path_feature_index(4, 50)

    def test_widest_raw_space(self):
        # parsed indices are below 2^63, and the path features of a 2^63
        # wide space start there; at 2^64 - 1, node 1's wrapped around onto
        # raw index 0
        model = RecallTreeModel(4, 2**63, Hyperparams.defaults(4, bits=10))
        model.train_example(SparseExample.from_pairs(1, [(0, 1.0), (2**63 - 1, 0.5)]))
        assert len(model.nodes) > 1
        assert model._path_mixed == list(mix64_array(np.arange(len(model.nodes), dtype=np.uint64)
                                                     + np.uint64(2**63)))
        for width in (2**63 + 1, 2**64 - 1, 2**64, -1):
            with pytest.raises(DomainError, match=r"num_raw_features must be in \[0, 2\^63\]"):
                RecallTreeModel(4, width)


ROUTER_CASE_IMPORTANCE = 0.45914791702724467  # half the entropy of a 2:1 split


class TestUpdateRouter:
    def _model(self):
        params = Hyperparams(max_depth=2, num_candidates=4, bits=16)
        model = RecallTreeModel(4, 4, params)
        model._materialize(model.root)
        return model

    def _router_weight(self, model, feature_index):
        return float(model.router_store.weights[slot_of("router", 0, feature_index, 16)])

    def _run_update(self, model, y):
        x = SparseExample.from_pairs(y, [(1, 1.0)])
        mixed = mix64_array(x.indices.astype(np.uint64))
        slots = slot_matrix(model._router_salts[0], mixed, 16)
        model._update_router(model.root, slots, x.values, y)

    def _fill(self, model, left_counts, right_counts):
        root, left, right = model.root, model.nodes[1], model.nodes[2]
        for cls, n in left_counts.items():
            for _ in range(n):
                update_candidates(root, cls, 4)
                update_candidates(left, cls, 4)
        for cls, n in right_counts.items():
            for _ in range(n):
                update_candidates(root, cls, 4)
                update_candidates(right, cls, 4)

    def test_zero_mass_children_no_update(self):
        model = self._model()
        update_candidates(model.root, 0, 4)  # root has mass, children empty
        self._run_update(model, 0)
        assert not model.router_store.weights.any()

    def test_routes_toward_own_class_side(self):
        # left holds class 0, right holds class 1; a class-0 example must
        # train the router positive (left) with the hand-derived importance
        model = self._model()
        self._fill(model, {0: 2}, {1: 2})
        self._run_update(model, 0)
        w = self._router_weight(model, 1)
        assert w == pytest.approx(0.5 * ROUTER_CASE_IMPORTANCE, abs=1e-6)

    def test_mirror_case_is_symmetric(self):
        model = self._model()
        self._fill(model, {0: 2}, {1: 2})
        self._run_update(model, 1)
        w = self._router_weight(model, 1)
        assert w == pytest.approx(-0.5 * ROUTER_CASE_IMPORTANCE, abs=1e-6)

    def test_balanced_children_no_update(self):
        model = self._model()
        self._fill(model, {0: 3, 1: 3}, {0: 3, 1: 3})
        self._run_update(model, 0)
        assert not model.router_store.weights.any()


class TestDescentHalting:
    def test_unvisited_child_halts(self):
        # one training example: the tree descends along zero-margin routing;
        # a later predict must halt before any never-visited branch
        model = RecallTreeModel(4, 4, Hyperparams(max_depth=3, num_candidates=1, bits=14))
        model.train_example(SparseExample.from_pairs(2, [(0, 1.0)]))
        node_id = model.predict_full(SparseExample.from_pairs(0, [(0, 1.0)])).node_id
        assert model.nodes[node_id].total > 0

    def test_bound_comparison_case(self):
        parent = TreeNode(id=0, depth=0, total=10, cand_total=5)
        child = TreeNode(id=1, depth=1, total=10, cand_total=10)
        b_parent = recall_lower_bound(parent, 1.0)
        b_child = recall_lower_bound(child, 1.0)
        assert b_parent == pytest.approx(0.241886116991581, abs=1e-12)
        assert b_child == pytest.approx(0.9, abs=1e-12)
        assert not b_parent > b_child  # descent continues

    def test_max_depth_zero_halts_at_root(self):
        model = RecallTreeModel(4, 2, Hyperparams(max_depth=0, num_candidates=4, bits=14))
        model.train_example(SparseExample.from_pairs(1, [(0, 1.0)]))
        assert model.root.left is None
        assert model.predict_full(SparseExample.from_pairs(0, [(0, 1.0)])).node_id == 0


class TestTrainExample:
    def test_first_example_trace(self):
        # a fresh model descends along the zero-margin (right) spine to max
        # depth, materializing children and counting the label all the way;
        # routers see only zero-entropy deltas, so only class scorers move
        params = Hyperparams(max_depth=3, num_candidates=12, bits=16)
        model = RecallTreeModel(8, 4, params)
        x = SparseExample.from_pairs(5, [(0, 1.0), (2, 0.5)])
        model.train_example(x)

        assert model.root.hist == {5: 1}
        assert model.root.candidates == [5]
        assert model.root.left is not None
        assert not model.router_store.weights.any()

        # rightmost spine: root -> 2 -> 4 -> 6, all counted once
        for node_id in (2, 4, 6):
            assert model.nodes[node_id].hist == {5: 1}

        # the positive scorer update covers the raw features plus the path
        # features of the traversed nodes 2, 4, 6
        expected = {}
        for idx, val in [(0, 1.0), (2, 0.5), (4 + 2, 1.0), (4 + 4, 1.0), (4 + 6, 1.0)]:
            expected[slot_of("class", 5, idx, 16)] = 0.5 * val
        nonzero = np.nonzero(model.class_store.weights)[0]
        assert set(nonzero.tolist()) == set(expected)
        for s, v in expected.items():
            assert model.class_store.weights[s] == pytest.approx(v, abs=1e-6)

    def test_label_outside_candidates_skips_predictor_update(self):
        params = Hyperparams(max_depth=0, num_candidates=1, bits=14)
        model = RecallTreeModel(4, 2, params)
        model.train_example(SparseExample.from_pairs(0, [(0, 1.0)]))
        model.train_example(SparseExample.from_pairs(0, [(1, 1.0)]))
        before = model.class_store.weights.tobytes()
        model.train_example(SparseExample.from_pairs(1, [(0, 2.0)]))
        assert model.class_store.weights.tobytes() == before
        assert model.root.hist == {0: 2, 1: 1}

    def test_depth_zero_is_truncated_oaa_over_top_f(self):
        params = Hyperparams(max_depth=0, num_candidates=2, bits=14)
        model = RecallTreeModel(4, 3, params)
        rng = np.random.default_rng(0)
        # classes 0 and 1 dominate the stream 9:1
        for _ in range(600):
            y = int(rng.integers(0, 2)) if rng.uniform() < 0.9 else int(rng.integers(2, 4))
            model.train_example(SparseExample.from_pairs(y, [(y % 3, 1.0)]))
        assert sorted(model.root.candidates) == [0, 1]
        preds = {model.predict(SparseExample.from_pairs(0, [(j, 1.0)])) for j in range(3)}
        assert preds <= {0, 1}

    def test_label_out_of_range(self):
        model = RecallTreeModel(4, 2, Hyperparams(max_depth=1, num_candidates=2, bits=14))
        with pytest.raises(DomainError):
            model.train_example(SparseExample.from_pairs(4, [(0, 1.0)]))

    def test_feature_outside_raw_space(self):
        model = RecallTreeModel(4, 2, Hyperparams(max_depth=1, num_candidates=2, bits=14))
        with pytest.raises(DomainError):
            model.train_example(SparseExample.from_pairs(0, [(2, 1.0)]))


class TestPredict:
    def test_untrained_model_raises(self):
        model = RecallTreeModel(4, 2, Hyperparams(max_depth=1, num_candidates=2, bits=14))
        with pytest.raises(UntrainedModelError):
            model.predict(SparseExample.from_pairs(0, [(0, 1.0)]))

    def test_single_example_model_predicts_it_everywhere(self):
        model = RecallTreeModel(8, 2, Hyperparams.defaults(8, bits=14))
        model.train_example(SparseExample.from_pairs(6, [(0, 1.0)]))
        for j in range(2):
            assert model.predict(SparseExample.from_pairs(0, [(j, 1.0)])) == 6

    def test_equal_margins_tie_break_to_smaller_id(self):
        model = RecallTreeModel(8, 2, Hyperparams(max_depth=0, num_candidates=4, bits=14))
        model.train_example(SparseExample.from_pairs(7, []))
        model.train_example(SparseExample.from_pairs(2, []))
        # featureless training left all margins at zero
        assert model.predict(SparseExample.from_pairs(0, [(0, 1.0)])) == 2

    def test_quadrant_toy_end_to_end(self):
        train = quadrant_examples(10_000, seed=1)
        model = RecallTreeModel(4, 2, Hyperparams.defaults(4, bits=16, adaptive_lr=True))
        model.train(train)
        assert accuracy(model, train) >= 0.99

    def test_work_counters_within_budget(self):
        spec = SynthSpec("voronoi", num_classes=20, dimensions=6,
                         num_examples=3000, noise=0.2, seed=8)
        data = generate_examples(spec)
        model = RecallTreeModel(20, raw_feature_width(spec),
                                Hyperparams.defaults(20, bits=14)).train(data)
        F = model.params.num_candidates
        for x in data[:400]:
            p = model.predict_full(x)
            assert p.classes_scored <= F
            assert p.router_evals <= model.params.max_depth
            assert p.depth <= model.params.max_depth


class TestExampleCount:
    """The example count is the root's: every example is counted there
    before it routes, so no second counter can disagree with it."""

    def _data(self):
        spec = SynthSpec("zipf-tail", num_classes=16, dimensions=5, num_examples=900,
                         noise=0.1, seed=2)
        return raw_feature_width(spec), generate_examples(spec)

    def test_train_and_progressive_eval(self):
        width, data = self._data()
        model = RecallTreeModel(16, width, Hyperparams.defaults(16, bits=12))
        assert model.examples_seen == model.root.total == 0
        model.train(data[:300])
        assert model.examples_seen == model.root.total == 300
        report = progressive_eval(data[300:600], model)
        assert report.examples_seen == 300
        assert model.examples_seen == model.root.total == 600

    def test_save_load_train(self, tmp_path):
        width, data = self._data()
        model = RecallTreeModel(16, width, Hyperparams.defaults(16, bits=12)).train(data[:400])
        path = tmp_path / "tree.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.examples_seen == 400
        loaded.train(data[400:])
        assert loaded.examples_seen == loaded.root.total == 900

    def test_a_step_that_raises_after_the_root_counted(self, monkeypatch):
        # the root counts the label before the step fails; a counter kept
        # beside it lagged by one from then on
        width, data = self._data()
        model = RecallTreeModel(16, width, Hyperparams.defaults(16, bits=12)).train(data[:50])

        def failing(*args):
            raise MemoryError("simulated")

        monkeypatch.setattr(model, "_update_predictors", failing)
        with pytest.raises(MemoryError):
            model.train_example(data[50])
        assert model.examples_seen == model.root.total == 51
        monkeypatch.undo()
        model.train(data[51:100])
        assert model.examples_seen == model.root.total == 100

    def test_is_read_only(self):
        model = RecallTreeModel(4, 2, Hyperparams.defaults(4, bits=10))
        with pytest.raises(AttributeError):
            model.examples_seen = 7
        with pytest.raises(UntrainedModelError):
            model.predict(SparseExample.from_pairs(0, [(0, 1.0)]))


class TestInvariants:
    def _trained(self, depth_penalty=1.0, seed=3):
        spec = SynthSpec("hierarchical-clusters", num_classes=16, dimensions=5,
                         num_examples=4000, noise=0.05, seed=seed)
        data = generate_examples(spec)
        params = Hyperparams.defaults(16, bits=14, depth_penalty=depth_penalty,
                                      adaptive_lr=True)
        return RecallTreeModel(16, raw_feature_width(spec), params).train(data), data

    def test_recall_sandwich(self):
        model, _ = self._trained(depth_penalty=1.0)
        for node in model.nodes:
            if node.total:
                assert model.bound(node) <= node.r_hat + 1e-12

    def test_recall_sandwich_equality_at_penalty_zero(self):
        # exactly: a zero penalty leaves the raw empirical recall, the
        # setting that a separate multiplier of 0 used to give
        model, _ = self._trained(depth_penalty=0.0)
        for node in model.nodes:
            if node.total:
                assert model.bound(node) == node.r_hat

    def test_histogram_conservation(self):
        model, _ = self._trained()
        for node in model.nodes:
            assert node.total == sum(node.hist.values())
            if node.left is not None:
                children = model.nodes[node.left].total + model.nodes[node.left + 1].total
                assert children <= node.total

    def test_candidates_are_exactly_top_f(self):
        model, _ = self._trained()
        F = model.params.num_candidates
        for node in model.nodes:
            brute = [c for c, _ in sorted(node.hist.items(), key=lambda kv: (-kv[1], kv[0]))]
            assert node.candidates == brute[:F]

    @given(st.lists(st.integers(0, 11), min_size=1, max_size=120), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_cand_total_tracks_candidates_under_random_labels(self, labels, num_candidates):
        model = RecallTreeModel(12, 3, Hyperparams(max_depth=3, num_candidates=num_candidates,
                                                   bits=10))
        for i, y in enumerate(labels):
            model.train_example(SparseExample.from_pairs(y, [(y % 3, 1.0), (i % 3, -0.5)]))
            for node in model.nodes:
                assert node.cand_total == sum(node.hist[c] for c in node.candidates)
        for node in model.nodes:
            brute = [c for c, _ in sorted(node.hist.items(), key=lambda kv: (-kv[1], kv[0]))]
            assert node.candidates == brute[:num_candidates]
        # the loader checks the same invariants, so every trained tree loads
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "tree.bin")
            save_model(model, path)
            loaded = load_model(path)
        for a, b in zip(loaded.nodes, model.nodes, strict=True):
            assert (a.hist, a.total, a.candidates, a.cand_total) == \
                (b.hist, b.total, b.candidates, b.cand_total)
            # training updates the sum one count at a time; loading re-sums it
            assert a.sum_clog2 == pytest.approx(b.sum_clog2, abs=1e-9)

    def test_depth_cap(self):
        model, data = self._trained()
        assert all(n.depth <= model.params.max_depth for n in model.nodes)
        for x in data[:200]:
            assert model.predict_full(x).depth <= model.params.max_depth

    def test_training_is_deterministic(self):
        a, _ = self._trained(seed=4)
        b, _ = self._trained(seed=4)
        assert np.array_equal(a.router_store.weights, b.router_store.weights)
        assert np.array_equal(a.class_store.weights, b.class_store.weights)
        assert len(a.nodes) == len(b.nodes)
        for na, nb in zip(a.nodes, b.nodes):
            assert (na.hist, na.candidates, na.total) == (nb.hist, nb.candidates, nb.total)

    def test_path_feature_indices_stay_disjoint_from_data(self):
        model, _ = self._trained()
        width = raw_feature_width(SynthSpec("hierarchical-clusters", num_classes=16,
                                            dimensions=5, num_examples=1, noise=0.0, seed=0))
        for node in model.nodes:
            assert path_feature_index(node.id, width) >= width


class TestHyperparams:
    def test_defaults_track_class_count(self):
        p = Hyperparams.defaults(1000)
        assert p.max_depth == 10
        assert p.num_candidates == 40
        assert p.depth_penalty == 1.0
        assert p.learning_rate == 1.0
        assert p.path_features

    def test_single_class_defaults(self):
        p = Hyperparams.defaults(1)
        assert p.max_depth == 0
        assert p.num_candidates == 1

    def test_ceil_log2(self):
        assert [ceil_log2(k) for k in (1, 2, 3, 4, 5, 1024, 1025)] == [0, 1, 2, 2, 3, 10, 11]

    def test_validation(self):
        with pytest.raises(DomainError):
            Hyperparams(max_depth=-1, num_candidates=1)
        with pytest.raises(DomainError):
            Hyperparams(max_depth=0, num_candidates=0)
        with pytest.raises(DomainError):
            Hyperparams(max_depth=0, num_candidates=1, depth_penalty=-0.5)

    @pytest.mark.parametrize("field,good,bad", [
        ("max_depth", MAX_DEPTH, MAX_DEPTH + 1),
        ("num_candidates", MAX_CANDIDATES, MAX_CANDIDATES + 1),
        ("depth_penalty", sys.float_info.max, float("nan")),
        ("depth_penalty", sys.float_info.max, float("inf")),
    ])
    def test_limits_of_the_model_file(self, field, good, bad):
        settings = dict(max_depth=0, num_candidates=1)
        assert getattr(Hyperparams(**{**settings, field: good}), field) == good
        with pytest.raises(DomainError, match=field):
            Hyperparams(**{**settings, field: bad})

    def test_class_limit(self):
        params = Hyperparams(max_depth=0, num_candidates=1, bits=10)
        assert RecallTreeModel(MAX_CLASSES, 1, params).num_classes == MAX_CLASSES
        for k in (0, MAX_CLASSES + 1):
            with pytest.raises(DomainError, match="num_classes"):
                RecallTreeModel(k, 1, params)


class TestPluralityLabel:
    def test_majority(self):
        assert plurality_label(make_node({3: 5, 1: 2}, 4)) == 3

    def test_tie_to_smaller_id(self):
        assert plurality_label(make_node({9: 2, 4: 2}, 4)) == 4

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            plurality_label(TreeNode(id=0, depth=0))
