import numpy as np
import pytest

from recalltree.data import SparseExample
from recalltree.errors import DomainError
from recalltree.evaluation import (
    EvalReport,
    holdout_eval,
    n1_chi_squared,
    progressive_eval,
)
from recalltree.model_io import load_model, save_model
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import Hyperparams, Prediction, RecallTreeModel


class MemorizingStub:
    """Remembers exact feature vectors; anything unseen predicts class 0.

    Its progressive accuracy on first occurrences must stay at chance: if
    the harness ever trained before predicting, repeats of the training
    example would leak and first occurrences would score perfectly.
    """

    def __init__(self):
        self.seen = {}

    @staticmethod
    def _key(x):
        return (tuple(x.indices.tolist()), tuple(x.values.tolist()))

    def predict_full(self, x):
        return Prediction(self.seen.get(self._key(x), 0), 0, 0, 0, 0)

    def train_example(self, x):
        self.seen[self._key(x)] = x.label

    def predict_then_train(self, examples):
        for x in examples:
            prediction = self.predict_full(x)
            self.train_example(x)
            yield x, prediction


class TestProgressiveEval:
    def test_constant_label_stream_converges(self):
        stream = (SparseExample.from_pairs(1, [(0, 1.0)]) for _ in range(10_000))
        model = RecallTreeModel(2, 1, Hyperparams.defaults(2, bits=12))
        report = progressive_eval(stream, model)
        assert report.progressive_accuracy >= 0.99
        assert report.examples_seen == 10_000

    def test_featureless_alternating_stream_is_chance(self):
        stream = [SparseExample.from_pairs(i % 2, []) for i in range(10_000)]
        tree = RecallTreeModel(2, 1, Hyperparams.defaults(2, bits=12, path_features=False))
        report = progressive_eval(iter(stream), tree)
        assert 0.48 <= report.progressive_accuracy <= 0.52

        oaa = OaaModel(2, bits=12)
        report = progressive_eval(iter(stream), oaa)
        assert 0.48 <= report.progressive_accuracy <= 0.52

    def test_prediction_happens_strictly_before_training(self):
        rng = np.random.default_rng(3)
        firsts = [SparseExample.from_pairs(int(rng.integers(0, 10)), [(i, 1.0)])
                  for i in range(300)]
        # first occurrences only: accuracy is the chance rate of class 0
        report = progressive_eval(iter(firsts), MemorizingStub())
        assert report.progressive_accuracy < 0.25

        # the same examples repeated: firsts at chance, repeats perfect
        report = progressive_eval(iter(firsts + firsts), MemorizingStub())
        assert 0.4 < report.progressive_accuracy < 0.7

    def test_empty_stream_rejected(self):
        with pytest.raises(DomainError):
            progressive_eval(iter([]), MemorizingStub())


class TestWorkCounters:
    def test_oaa_scores_every_class(self):
        spec = SynthSpec("voronoi", num_classes=9, dimensions=4, num_examples=400,
                         noise=0.2, seed=1)
        data = generate_examples(spec)
        model = OaaModel(9, bits=12).train(data[:200])
        report = holdout_eval(data[200:], model)
        assert report.scored_classes_mean == 9.0
        assert report.router_evals_mean == 0.0

    def test_tree_counters_stay_logarithmic(self):
        spec = SynthSpec("voronoi", num_classes=40, dimensions=6, num_examples=4000,
                         noise=0.2, seed=2)
        data = generate_examples(spec)
        k = 40
        model = RecallTreeModel(k, raw_feature_width(spec),
                                Hyperparams.defaults(k, bits=14, adaptive_lr=True))
        report = progressive_eval(iter(data), model)
        import math
        assert report.scored_classes_mean <= math.ceil(4 * math.log2(k))
        assert report.router_evals_mean <= math.ceil(math.log2(k)) + 1

    def test_holdout_eval_reports_accuracy(self):
        data = [SparseExample.from_pairs(0, [(0, 1.0)]) for _ in range(50)]
        model = RecallTreeModel(2, 1, Hyperparams.defaults(2, bits=12)).train(data)
        report = holdout_eval(data, model)
        assert report.holdout_accuracy == 1.0

    def test_holdout_empty_rejected(self):
        model = RecallTreeModel(2, 1, Hyperparams.defaults(2, bits=12))
        with pytest.raises(DomainError):
            holdout_eval([], model)

    @pytest.mark.parametrize("kind", ["tree", "oaa"])
    def test_holdout_label_the_model_cannot_have_is_rejected(self, kind):
        # a label past K would otherwise count as one more miss
        data = [SparseExample.from_pairs(y % 8, [(0, 1.0)]) for y in range(50)]
        model = (RecallTreeModel(8, 1, Hyperparams.defaults(8, bits=12)) if kind == "tree"
                 else OaaModel(8, bits=12)).train(data)
        with pytest.raises(DomainError, match="^label 9 out of range for 8 classes$"):
            holdout_eval(data + [SparseExample.from_pairs(9, [(0, 1.0)])], model)


@pytest.fixture(scope="module")
def frozen_models(tmp_path_factory):
    """A trained tree, the same tree after a save/load round trip, a
    one-against-all, and held-out rows of mixed raw lengths."""
    spec = SynthSpec("hierarchical-clusters", num_classes=16, dimensions=6,
                     num_examples=3000, noise=0.1, seed=101)
    data = generate_examples(spec)
    # F=3, so that the rows halt at several nodes
    params = Hyperparams.defaults(16, bits=14, num_candidates=3)
    tree = RecallTreeModel(16, raw_feature_width(spec), params).train(data[:2000])
    path = tmp_path_factory.mktemp("holdout") / "tree.bin"
    save_model(tree, str(path))
    models = {"tree": tree, "loaded": load_model(str(path)),
              "oaa": OaaModel(16, bits=14).train(data[:2000])}
    # most rows cut to one of a few lengths; every 50th row repeated whole
    # a different number of times, so its length is shared by few rows
    rows = []
    for i, x in enumerate(data[2000:]):
        reps = 2 + i // 50 if i % 50 == 0 else 1
        k = x.indices.size if reps > 1 else i % 5
        rows.append(SparseExample(x.label, np.tile(x.indices[:k], reps),
                                  np.tile(x.values[:k], reps)))
    return models, rows


def per_example_report(examples, model) -> EvalReport:
    preds = [model.predict_full(x) for x in examples]
    n = len(examples)
    return EvalReport(
        examples_seen=n,
        holdout_accuracy=sum(p.label == x.label for x, p in zip(examples, preds)) / n,
        scored_classes_mean=sum(p.classes_scored for p in preds) / n,
        router_evals_mean=sum(p.router_evals for p in preds) / n,
    )


@pytest.mark.parametrize("name", ["tree", "loaded", "oaa"])
def test_holdout_equals_a_per_example_tally(frozen_models, name):
    models, rows = frozen_models
    # the rows mix lengths that many rows share with lengths that one row
    # holds, and predict_batch descends both kinds in shared blocks
    counts = np.unique([x.indices.size for x in rows], return_counts=True)[1]
    assert (counts > 3).any() and (counts == 1).any()
    report = holdout_eval(rows, models[name])
    assert report == per_example_report(rows, models[name])
    assert 0 < report.holdout_accuracy < 1
    if name == "tree":
        assert len({models[name].predict_full(x).node_id for x in rows}) > 2


class TestChiSquared:
    def test_frozen_case(self):
        # 60/100 vs 40/100: Pearson chi2 is 8.0, the N-1 variant scales by
        # 199/200, and the one-degree p-value follows from erfc
        result = n1_chi_squared(60, 100, 40, 100)
        assert result.statistic == pytest.approx(7.96, abs=1e-12)
        assert result.p_value == pytest.approx(0.004782241413390507, abs=1e-15)
        assert result.significant(0.05)

    def test_symmetry(self):
        a = n1_chi_squared(55, 200, 80, 210)
        b = n1_chi_squared(80, 210, 55, 200)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)

    def test_identical_proportions_are_insignificant(self):
        result = n1_chi_squared(50, 100, 50, 100)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_degenerate_columns(self):
        assert n1_chi_squared(0, 10, 0, 10).p_value == 1.0
        assert n1_chi_squared(10, 10, 10, 10).p_value == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            n1_chi_squared(5, 0, 1, 10)
        with pytest.raises(DomainError):
            n1_chi_squared(11, 10, 1, 10)


class TestEvalReport:
    def test_kv_text(self):
        report = EvalReport(examples_seen=10, progressive_accuracy=0.5,
                            scored_classes_mean=3.0, router_evals_mean=1.5,
                            ledger_summary=(0.4, 0.2, 0.9))
        text = report.to_kv_text()
        assert "examples_seen=10" in text
        assert "progressive_accuracy=0.500000" in text
        assert "ledger_W=0.400000" in text
