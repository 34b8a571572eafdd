import tracemalloc

import numpy as np
import pytest

from recalltree.data import SparseExample
from recalltree.errors import DomainError, UntrainedModelError
from recalltree.model_io import load_model, save_model
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import BATCH_ROWS, MAX_CLASSES, Hyperparams, RecallTreeModel

from conftest import accuracy, quadrant_examples, run_examples, slot_of


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


def _streams():
    """(K, training rows, rows to predict) per kind of stream: dense rows,
    which share one index set; rows of any length with duplicate indices and
    rows of no features; rows in runs that share 12 wide indices at large K,
    across block ends; and wide rows that share none."""
    spec = SynthSpec("voronoi", num_classes=16, dimensions=8, num_examples=1400,
                     noise=0.05, seed=4)
    dense = generate_examples(spec)
    rng = np.random.default_rng(2)
    ragged = []
    for i, x in enumerate(dense):
        n = int(rng.integers(0, x.indices.size + 1))
        indices, values = x.indices[:n], x.values[:n]
        if i % 7 == 0:
            indices, values = np.tile(indices, 2), np.tile(values, 2)
        ragged.append(SparseExample(x.label, indices, values))
    runs = run_examples(900, 2048, seed=6)
    lone = run_examples(900, 2048, seed=7, longest=1)
    return {"dense": (16, dense[:800], dense[800:]),
            "ragged": (16, ragged[:800], ragged[800:]),
            "runs": (2048, runs[:300], runs[300:]),
            "lone": (2048, lone[:300], lone[300:])}


class TestReuse:
    """The model hashes a row's slots only when its indices differ from
    those of the last row it hashed, and ``predict_batch`` gathers weights
    only for a row it hashed; the weights, AdaGrad state and predictions
    stay those of one example at a time."""

    @pytest.fixture(scope="class")
    def streams(self):
        return _streams()

    @pytest.mark.parametrize("kind", ["dense", "ragged", "runs", "lone"])
    @pytest.mark.parametrize("adaptive_lr", [False, True], ids=["sgd", "adagrad"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_predict_batch_is_predict_full_bit_for_bit(self, streams, kind, adaptive_lr,
                                                       loaded, monkeypatch, tmp_path):
        k, train, rows = streams[kind]
        model = OaaModel(k, bits=14, adaptive_lr=adaptive_lr).train(train)
        if loaded:
            save_model(model, str(tmp_path / "oaa.bin"))
            model = load_model(str(tmp_path / "oaa.bin"))
        scores = []
        prediction = OaaModel._prediction

        def scoring(self, margins):
            scores.append(margins.tobytes())
            return prediction(self, margins)

        monkeypatch.setattr(OaaModel, "_prediction", scoring)
        expected = [model.predict_full(x) for x in rows]
        each = scores[:]
        scores.clear()
        assert len(rows) > 2 * BATCH_ROWS
        assert model.predict_batch(rows) == expected
        assert scores == each

    @pytest.mark.parametrize("run", ["train", "predict_batch"])
    def test_transient_memory_is_one_rows_slots_and_weights(self, run):
        """Traced peak of the call above the per-example loop's: at most
        one row's float64 weights, a ``(K, n)`` array of 8-byte entries,
        which ``predict_batch`` keeps beside the last row's slots, plus its
        list of predictions.  No table grows with the distinct indices seen:
        512 rows that share none would need ``K * 12 * 512`` entries."""
        k = 1024
        rows = run_examples(2 * BATCH_ROWS, k, seed=8, longest=1)
        model = OaaModel(k, bits=14).train(rows[:50])

        def peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        if run == "train":
            def reusing():
                OaaModel(k, bits=14).train(rows)

            def alone():
                one = OaaModel(k, bits=14)
                for x in rows:
                    one.train_example(x)
        else:
            def reusing():
                model.predict_batch(rows)

            def alone():
                [model.predict_full(x) for x in rows]

        widest = max(x.indices.size for x in rows)
        # the store's weights are allocated alike in both, so they cancel
        assert peak(reusing) - peak(alone) <= 8 * k * widest + 16 * 1024
