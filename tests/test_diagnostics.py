import math

import numpy as np
import pytest

from recalltree.data import SparseExample
from recalltree.diagnostics import (
    OracleSplitter,
    build_path_oaa,
    check_boost_bound,
    ledger_snapshot,
    plurality_predict,
)
from recalltree.errors import DomainError, UntrainedModelError
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import Hyperparams, RecallTreeModel, plurality_label, update_candidates

from conftest import slot_of

LN2 = math.log(2.0)


def depth1_pure_model():
    """Hand-built frozen tree: two pure leaves, a router that separates
    them exactly, and a root whose bound loses to both children."""
    params = Hyperparams(max_depth=1, num_candidates=1, bits=14)
    model = RecallTreeModel(2, 2, params)
    model._materialize(model.root)
    root, left, right = model.root, model.nodes[1], model.nodes[2]
    for _ in range(50):
        update_candidates(root, 0, 1)
        update_candidates(root, 1, 1)
        update_candidates(left, 0, 1)
        update_candidates(right, 1, 1)
    w = model.router_store.weights
    w[slot_of("router", 0, 0, 14)] = 1.0   # feature 0 routes left
    w[slot_of("router", 0, 1, 14)] = -1.0  # feature 1 routes right
    model.examples_seen = 100
    return model


def two_blob_examples(n_per_class=50):
    xs = []
    for _ in range(n_per_class):
        xs.append(SparseExample.from_pairs(0, [(0, 1.0)]))
        xs.append(SparseExample.from_pairs(1, [(1, 1.0)]))
    return xs


class TestLedgerSnapshot:
    def test_single_node_uniform_two_classes(self):
        model = RecallTreeModel(2, 2, Hyperparams(max_depth=0, num_candidates=1, bits=14))
        data = two_blob_examples()
        model.train(data)
        ledger = ledger_snapshot(model, data)
        assert len(ledger.records) == 1
        assert ledger.weighted_entropy == pytest.approx(LN2, abs=1e-12)
        assert ledger.error_rate == pytest.approx(0.5, abs=1e-12)
        assert ledger.marginal_entropy == pytest.approx(LN2, abs=1e-12)

    def test_pure_leaves_have_zero_entropy_and_error(self):
        model = depth1_pure_model()
        ledger = ledger_snapshot(model, two_blob_examples())
        assert {r.node_id for r in ledger.records} == {1, 2}
        assert ledger.weighted_entropy == 0.0
        assert ledger.error_rate == 0.0
        assert ledger.marginal_entropy == pytest.approx(LN2, abs=1e-12)

    def test_error_bounded_by_weighted_entropy_on_random_models(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            k = int(rng.integers(3, 20))
            spec = SynthSpec("voronoi", num_classes=k, dimensions=int(rng.integers(2, 8)),
                             num_examples=500, noise=float(rng.uniform(0.05, 0.6)),
                             seed=trial)
            data = generate_examples(spec)
            params = Hyperparams.defaults(
                k, bits=14,
                num_candidates=int(rng.integers(1, 6)),
                depth_penalty=float(rng.choice([0.0, 1.0, 2.0])),
            )
            model = RecallTreeModel(k, raw_feature_width(spec), params).train(data)
            ledger = ledger_snapshot(model, data)
            assert ledger.error_rate <= ledger.weighted_entropy + 1e-12
            assert ledger.total_examples == 500
            assert sum(r.fraction for r in ledger.records) == pytest.approx(1.0, abs=1e-9)

    def test_empty_dataset_rejected(self):
        model = depth1_pure_model()
        with pytest.raises(DomainError):
            ledger_snapshot(model, [])

    def test_text_rendering_has_one_line_per_node_plus_summary(self):
        model = depth1_pure_model()
        ledger = ledger_snapshot(model, two_blob_examples())
        lines = ledger.to_text().splitlines()
        assert len(lines) == len(ledger.records) + 1
        assert lines[-1].startswith("summary W=")


class TestOracleSplitter:
    def test_balanced_splits_on_uniform_16_have_advantage_ln2(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        for _ in range(4):
            record = splitter.split_once()
            assert record.advantage == pytest.approx(LN2, abs=1e-12)

    def test_largest_fraction_first_error_schedule(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        errors = []
        for _ in range(5):
            splitter.split_once()
            errors.append(splitter.history[-1].error_rate)
        assert errors == pytest.approx([0.875, 0.8125, 0.75, 0.6875, 0.625], abs=1e-12)

    def test_marginal_entropy(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        assert splitter.marginal_entropy == pytest.approx(math.log(16), abs=1e-12)

    def test_min_advantage_is_enforced(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)}, min_advantage=0.8)
        with pytest.raises(DomainError):
            splitter.split_once()  # balanced advantage is ln 2 < 0.8

    def test_runs_until_pure(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        history = splitter.run(100)
        assert splitter.splits == 15
        assert history[-1].error_rate == pytest.approx(0.0, abs=1e-12)
        assert history[-1].weighted_entropy == pytest.approx(0.0, abs=1e-12)

    def test_weighted_entropy_never_exceeds_marginal(self):
        splitter = OracleSplitter({c: 1.0 + 0.2 * c for c in range(12)})
        for state in splitter.run(11):
            assert state.weighted_entropy <= splitter.marginal_entropy + 1e-12


class TestBoostBound:
    def test_states_at_two_or_fewer_splits_are_excluded(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        history = splitter.run(4)  # states for t = 0..4
        checks = check_boost_bound(history, 0.1, splitter.marginal_entropy)
        assert [c.splits for c in checks] == [3, 4]

    def test_bound_values_are_the_closed_form(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        checks = check_boost_bound(splitter.run(4), 0.1, splitter.marginal_entropy)
        assert checks[0].bound == pytest.approx(2.56272749337297, abs=1e-12)
        assert checks[1].bound == pytest.approx(2.533959286127792, abs=1e-12)
        assert all(c.ok for c in checks)

    def test_zero_advantage_degenerates_to_marginal_entropy(self):
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        checks = check_boost_bound(splitter.run(15), 0.0, splitter.marginal_entropy)
        for c in checks:
            assert c.bound == pytest.approx(splitter.marginal_entropy, abs=1e-12)
            assert c.ok

    def test_measured_advantage_on_uniform_sixteen(self):
        # balanced splitting of uniform 16 has measured advantage ln 2 at
        # every split, and the bound holds with that gamma throughout
        splitter = OracleSplitter({c: 1.0 for c in range(16)})
        history = splitter.run(15)
        gamma = min(r.advantage for r in splitter.advantages)
        assert gamma == pytest.approx(LN2, abs=1e-9)
        assert all(c.ok for c in check_boost_bound(history, gamma, splitter.marginal_entropy))


class TestPathIndicatorOaa:
    def test_depth1_pure_tree_yields_two_unit_weights(self):
        model = depth1_pure_model()
        equiv = build_path_oaa(model)
        assert equiv.unit_weights == {1: 0, 2: 1}

    def test_depth1_pure_tree_agreement_is_exact(self):
        model = depth1_pure_model()
        equiv = build_path_oaa(model)
        assert equiv.agreement(two_blob_examples()) == 1.0

    def test_depth_zero_tree_predicts_root_plurality(self):
        model = RecallTreeModel(3, 2, Hyperparams(max_depth=0, num_candidates=2, bits=14))
        for _ in range(3):
            model.train_example(SparseExample.from_pairs(2, [(0, 1.0)]))
        model.train_example(SparseExample.from_pairs(0, [(1, 1.0)]))
        equiv = build_path_oaa(model)
        assert equiv.unit_weights == {0: 2}
        for j in range(2):
            assert equiv.predict(SparseExample.from_pairs(0, [(j, 1.0)])) == 2

    def test_trained_tree_agreement_is_exact(self):
        spec = SynthSpec("hierarchical-clusters", num_classes=16, dimensions=5,
                         num_examples=6000, noise=0.05, seed=9)
        data = generate_examples(spec)
        # F=3, so that the rows halt at several nodes
        params = Hyperparams.defaults(16, bits=14, num_candidates=3, adaptive_lr=True)
        model = RecallTreeModel(16, raw_feature_width(spec), params).train(data[:4000])
        assert len({model.predict_full(x).node_id for x in data[4000:]}) >= 2
        equiv = build_path_oaa(model)
        assert equiv.agreement(data[4000:]) == 1.0

    def test_agreement_equals_the_per_example_definition(self):
        spec = SynthSpec("hierarchical-clusters", num_classes=16, dimensions=6,
                         num_examples=3000, noise=0.1, seed=101)
        data = generate_examples(spec)
        # F=3, so that the rows halt at several nodes
        params = Hyperparams.defaults(16, bits=14, num_candidates=3)
        model = RecallTreeModel(16, raw_feature_width(spec), params).train(data[:2000])
        equiv = build_path_oaa(model)
        # held-out rows cut to mixed lengths
        held = [SparseExample(x.label, x.indices[:i % 7], x.values[:i % 7])
                for i, x in enumerate(data[2000:])]
        # the unit weight of every other node these rows halt at moved off
        # its plurality, so that the two views disagree on some rows
        halts = sorted({model.predict_full(x).node_id for x in held})
        assert len(halts) > 2
        for node_id in halts[::2]:
            equiv.unit_weights[node_id] = (equiv.unit_weights[node_id] + 1) % 16
        expected = np.mean([equiv.predict(x) == plurality_predict(model, x) for x in held])
        assert 0 < expected < 1
        assert equiv.agreement(held) == expected

    def test_answer_is_the_argmax_over_all_k_margins(self):
        def argmax_answer(equiv, node_id):
            # the margins of every class, as the linear model defines them
            margins = np.zeros(equiv.model.num_classes)
            cls = equiv.unit_weights.get(node_id)
            if cls is not None:
                margins[cls] += 1.0
            return int(np.argmax(margins))

        spec = SynthSpec("hierarchical-clusters", num_classes=1024, dimensions=8,
                         num_examples=2500, noise=0.05, seed=4)
        data = generate_examples(spec)
        params = Hyperparams.defaults(1024, bits=16)
        model = RecallTreeModel(1024, raw_feature_width(spec), params).train(data[:2000])
        equiv = build_path_oaa(model)
        # some nodes carry no unit weight, and some carry one for class 0
        assert 0 < len(equiv.unit_weights) < len(model.nodes)
        equiv.unit_weights[next(iter(equiv.unit_weights))] = 0
        for node_id in range(len(model.nodes)):
            assert equiv._answer(node_id) == argmax_answer(equiv, node_id)
        held = data[2000:]
        nodes = model.nodes
        expected = np.mean([argmax_answer(equiv, p.node_id) == plurality_label(nodes[p.node_id])
                            for p in model.predict_batch(held)])
        assert equiv.agreement(held) == expected

    def test_agreement_checks_the_plurality_view(self):
        model = depth1_pure_model()
        for x in two_blob_examples(5):
            assert plurality_predict(model, x) == x.label

    def test_untrained_tree_rejected(self):
        model = RecallTreeModel(2, 2, Hyperparams(max_depth=1, num_candidates=1, bits=14))
        with pytest.raises(UntrainedModelError):
            build_path_oaa(model)
