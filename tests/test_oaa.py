import numpy as np
import pytest

from recalltree.data import SparseExample
from recalltree.errors import DomainError, UntrainedModelError
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import MAX_CLASSES, Hyperparams, RecallTreeModel

from conftest import accuracy, quadrant_examples, slot_of


class TestTraining:
    def test_binary_case_one_positive_one_negative(self):
        model = OaaModel(2, bits=14)
        model.train_example(SparseExample.from_pairs(1, [(3, 1.0)]))
        w = model.class_store.weights
        assert w[slot_of("class", 1, 3, 14)] == pytest.approx(0.5)
        assert w[slot_of("class", 0, 3, 14)] == pytest.approx(-0.5)
        assert np.count_nonzero(w) == 2

    def test_single_class_degenerate(self):
        model = OaaModel(1, bits=14)
        model.train_example(SparseExample.from_pairs(0, [(0, 1.0)]))
        assert np.count_nonzero(model.class_store.weights) == 1
        assert model.predict(SparseExample.from_pairs(0, [(5, 1.0)])) == 0

    def test_class_limit(self):
        assert OaaModel(MAX_CLASSES, bits=10).num_classes == MAX_CLASSES
        for k in (0, MAX_CLASSES + 1):
            with pytest.raises(DomainError, match="num_classes"):
                OaaModel(k, bits=10)

    def test_label_out_of_range(self):
        model = OaaModel(3, bits=14)
        with pytest.raises(DomainError):
            model.train_example(SparseExample.from_pairs(3, [(0, 1.0)]))


class TestPrediction:
    def test_untrained_raises(self):
        with pytest.raises(UntrainedModelError):
            OaaModel(3, bits=14).predict(SparseExample.from_pairs(0, [(0, 1.0)]))

    def test_all_zero_margins_tie_break_to_class_zero(self):
        model = OaaModel(5, bits=14)
        model.train_example(SparseExample.from_pairs(2, []))  # featureless no-op update
        assert model.predict(SparseExample.from_pairs(0, [(1, 1.0)])) == 0

    def test_hand_set_weights_pick_the_favored_class(self):
        model = OaaModel(6, bits=14)
        model.examples_seen = 1
        model.class_store.weights[slot_of("class", 3, 2, 14)] = 5.0
        assert model.predict(SparseExample.from_pairs(0, [(2, 1.0)])) == 3

    def test_scored_classes_is_always_k(self):
        model = OaaModel(7, bits=14)
        model.train_example(SparseExample.from_pairs(1, [(0, 1.0)]))
        for j in range(5):
            p = model.predict_full(SparseExample.from_pairs(0, [(j, 1.0)]))
            assert p.classes_scored == 7
            assert p.router_evals == 0

    def test_quadrant_toy(self):
        train = quadrant_examples(10_000, seed=1)
        model = OaaModel(4, bits=16, adaptive_lr=True).train(train)
        assert accuracy(model, train) >= 0.99


class TestDepthZeroEquivalence:
    def test_small_scale_prediction_agreement(self):
        spec = SynthSpec("voronoi", num_classes=6, dimensions=8,
                         num_examples=22_000, noise=0.05, seed=13)
        data = generate_examples(spec)
        train, held = data[:20_000], data[20_000:]
        width = raw_feature_width(spec)
        tree = RecallTreeModel(6, width,
                               Hyperparams(max_depth=0, num_candidates=6, bits=16))
        tree.train(train)
        oaa = OaaModel(6, bits=16).train(train)
        agree = sum(tree.predict(x) == oaa.predict(x) for x in held)
        assert agree == len(held)
