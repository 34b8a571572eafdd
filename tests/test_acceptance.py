"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Experiments use the synthetic generators at desk scale with fixed seeds;
direction claims are backed by the two-proportion N-1 chi-squared helper
at P < 0.05.  Arms of any comparison always share the base-learner
configuration, so only the quantity under test differs.
"""

import math
import time

import numpy as np

from recalltree.data import stream_dataset
from recalltree.diagnostics import (
    OracleSplitter,
    build_path_oaa,
    check_boost_bound,
    ledger_snapshot,
)
from recalltree.evaluation import holdout_eval, n1_chi_squared, progressive_eval
from recalltree.linear import WeightStore, key_salt, mix64_array, slot_matrix
from recalltree.model_io import save_model
from recalltree.oaa import OaaModel
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width, synth_generate
from recalltree.tree import Hyperparams, RecallTreeModel, TreeNode, recall_lower_bound


def report(name: str, detail: str, started: float) -> None:
    print(f"[acceptance] {name}: PASS ({detail}, {time.perf_counter() - started:.1f}s)")


def split(data, frac=0.9):
    cut = int(len(data) * frac)
    return data[:cut], data[cut:]


def test_c01_bernstein_bound_exactness():
    """The recall lower bound matches hand-evaluated values to 1e-12."""
    started = time.perf_counter()
    table = [
        # (candidate mass, node mass, penalty, hand-evaluated bound)
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
    for cand, total, penalty, expected in table:
        node = TreeNode(id=0, depth=0, total=total, cand_total=cand)
        got = recall_lower_bound(node, penalty)
        assert abs(got - expected) <= 1e-12, (cand, total, penalty, got, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("C01 bernstein-bound-exactness", "12 hand cases at 1e-12", started)


def test_c02_error_bounded_by_weighted_entropy():
    """Ledger invariant: plurality error <= weighted entropy (nats) on 50
    randomized (model, dataset) pairs, zero violations, under a minute."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    structures = ["voronoi", "hierarchical-clusters", "zipf-tail", "nonstationary-blocks"]
    for trial in range(50):
        k = int(rng.integers(3, 41))
        spec = SynthSpec(
            structure=structures[trial % 4],
            num_classes=k,
            dimensions=int(rng.integers(2, 13)),
            num_examples=int(rng.integers(300, 800)),
            noise=float(rng.uniform(0.0, 0.6)),
            seed=trial,
        )
        data = generate_examples(spec)
        params = Hyperparams.defaults(
            k,
            bits=14,
            max_depth=int(rng.integers(0, 7)),
            num_candidates=int(rng.integers(1, 9)),
            depth_penalty=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            adaptive_lr=bool(rng.integers(0, 2)),
        )
        model = RecallTreeModel(k, raw_feature_width(spec), params).train(data)
        ledger = ledger_snapshot(model, data)
        assert ledger.error_rate <= ledger.weighted_entropy + 1e-12, (
            f"pair {trial}: eps={ledger.error_rate} W={ledger.weighted_entropy}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("C02 error-le-weighted-entropy", "50 randomized pairs, 0 violations", started)


def test_c03_boosting_bound_in_oracle_mode():
    """With a guaranteed per-split advantage of 0.1 nats on uniform K=16
    and largest-fraction-first scheduling, the error never exceeds
    H1 - gamma * (1 + ln t) for t in 3..12."""
    started = time.perf_counter()
    gamma = 0.1
    splitter = OracleSplitter({c: 1.0 for c in range(16)}, min_advantage=gamma)
    history = splitter.run(12)
    assert splitter.splits == 12
    assert min(r.advantage for r in splitter.advantages) >= gamma
    checks = check_boost_bound(history, gamma, splitter.marginal_entropy)
    assert [c.splits for c in checks] == list(range(3, 13))
    for check in checks:
        assert check.ok, f"t={check.splits}: eps={check.error_rate} > bound={check.bound}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("C03 boosting-bound-oracle-mode", "t in 3..12, 0 violations", started)


def test_c04_node_indicator_equivalence():
    """The unit-weight linear construction over node indicators reproduces
    each frozen tree's plurality predictions on 10^4 samples, exactly,
    for 10 random trees of depth <= 6."""
    started = time.perf_counter()
    structures = ["voronoi", "hierarchical-clusters", "zipf-tail"]
    for trial in range(10):
        k = [12, 24, 40][trial % 3]
        spec = SynthSpec(
            structure=structures[trial % 3],
            num_classes=k,
            dimensions=6 + (trial % 2) * 4,
            num_examples=13_000,
            noise=0.1 + 0.03 * (trial % 4),
            seed=100 + trial,
        )
        data = generate_examples(spec)
        params = Hyperparams.defaults(
            k,
            bits=15,
            max_depth=min(6, Hyperparams.defaults(k).max_depth),
            num_candidates=3 if trial % 2 else Hyperparams.defaults(k).num_candidates,
            adaptive_lr=True,
        )
        model = RecallTreeModel(k, raw_feature_width(spec), params).train(data[:3000])
        equiv = build_path_oaa(model)
        agreement = equiv.agreement(data[3000:])
        assert agreement == 1.0, f"tree {trial}: agreement {agreement}"
    report("C04 node-indicator-equivalence", "10 trees x 10^4 samples, 100% agreement", started)


def test_c05_logarithmic_work():
    """Per-example hyperplane evaluations stay within the log budget at
    K in {256, 1024, 4096} while the flat baseline always scores K, and
    the work ratio grows with K."""
    started = time.perf_counter()
    ratios = []
    for k in (256, 1024, 4096):
        spec = SynthSpec("hierarchical-clusters", num_classes=k, dimensions=12,
                         num_examples=14_000, noise=0.02, seed=k)
        data = generate_examples(spec)
        train, test = data[:12_000], data[12_000:]
        width = raw_feature_width(spec)
        budget = math.ceil(4 * math.log2(k)) + math.ceil(math.log2(k))

        tree = RecallTreeModel(k, width,
                               Hyperparams.defaults(k, bits=20, adaptive_lr=True))
        tree.train(train)
        total_work = 0
        for x in test:
            p = tree.predict_full(x)
            work = p.classes_scored + p.router_evals
            assert work <= budget, f"K={k}: {work} > {budget}"
            total_work += work

        oaa = OaaModel(k, bits=20, adaptive_lr=True).train(train[:300])
        for x in test[:300]:
            assert oaa.predict_full(x).classes_scored == k
        ratios.append(k / (total_work / len(test)))
    assert ratios[0] < ratios[1] < ratios[2], ratios
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report("C05 logarithmic-work",
           f"budgets held; K/work ratios {[round(r, 1) for r in ratios]}", started)


def test_c06_statistical_sanity_vs_flat_baseline():
    """Holdout accuracy: at least 0.9x the flat baseline on its friendly
    geometry (voronoi), and no worse than baseline - 0.02 on the
    tree-friendly geometry (hierarchical boxes)."""
    started = time.perf_counter()

    spec = SynthSpec("voronoi", num_classes=100, dimensions=50,
                     num_examples=100_000, noise=0.10, seed=11)
    data = generate_examples(spec)
    train, test = split(data)
    width = raw_feature_width(spec)
    tree = RecallTreeModel(100, width,
                           Hyperparams.defaults(100, bits=20, adaptive_lr=True)).train(train)
    oaa = OaaModel(100, bits=20, adaptive_lr=True).train(train)
    tree_acc = holdout_eval(test, tree).holdout_accuracy
    oaa_acc = holdout_eval(test, oaa).holdout_accuracy
    assert tree_acc >= 0.9 * oaa_acc, f"voronoi: tree {tree_acc} vs oaa {oaa_acc}"

    spec2 = SynthSpec("hierarchical-clusters", num_classes=64, dimensions=8,
                      num_examples=50_000, noise=0.02, seed=5)
    data2 = generate_examples(spec2)
    train2, test2 = split(data2)
    width2 = raw_feature_width(spec2)
    tree2 = RecallTreeModel(64, width2,
                            Hyperparams.defaults(64, bits=18, adaptive_lr=True)).train(train2)
    oaa2 = OaaModel(64, bits=18, adaptive_lr=True).train(train2)
    tree2_acc = holdout_eval(test2, tree2).holdout_accuracy
    oaa2_acc = holdout_eval(test2, oaa2).holdout_accuracy
    assert tree2_acc >= oaa2_acc - 0.02, f"boxes: tree {tree2_acc} vs oaa {oaa2_acc}"

    report("C06 statistical-sanity",
           f"voronoi {tree_acc:.3f} vs {oaa_acc:.3f}; boxes {tree2_acc:.3f} vs {oaa2_acc:.3f}",
           started)


def test_c07_candidate_size_and_path_features():
    """On the tree-friendly synthetic: more candidates beat fewer, and
    traversal indicator features beat their absence at candidate sizes
    of 8 or more, each at P < 0.05."""
    started = time.perf_counter()
    spec = SynthSpec("hierarchical-clusters", num_classes=64, dimensions=8,
                     num_examples=55_000, noise=0.02, seed=21)
    data = generate_examples(spec)
    train, test = data[:40_000], data[40_000:]
    width = raw_feature_width(spec)
    n = len(test)

    def run_arm(candidates, path_features):
        params = Hyperparams.defaults(64, bits=18, num_candidates=candidates,
                                      path_features=path_features, adaptive_lr=True)
        model = RecallTreeModel(64, width, params).train(train)
        return round(holdout_eval(test, model).holdout_accuracy * n)

    correct_2 = run_arm(2, True)
    correct_16 = run_arm(16, True)
    correct_16_bare = run_arm(16, False)

    assert correct_16 > correct_2
    size_test = n1_chi_squared(correct_16, n, correct_2, n)
    assert size_test.p_value < 0.05

    assert correct_16 > correct_16_bare
    path_test = n1_chi_squared(correct_16, n, correct_16_bare, n)
    assert path_test.p_value < 0.05

    report("C07 candidates-and-path-features",
           f"err {1 - correct_2 / n:.3f} -> {1 - correct_16 / n:.3f} "
           f"(p={size_test.p_value:.1e}); path off err {1 - correct_16_bare / n:.3f} "
           f"(p={path_test.p_value:.1e})", started)


def test_c08_bernstein_gating_helps_starved_tails():
    """With tail classes seeing at most 20 examples and the depth cap
    operative, the full lower bound strictly beats raw empirical recall at
    P < 0.05.

    A single draw of this experiment is dominated by router-initialization
    luck (either direction can come out of one run), so the two arms are
    compared on counts pooled over six replicate datasets: one two-sided
    test over 6 x 10^4 held-out examples.
    """
    started = time.perf_counter()
    replicates = range(131, 137)
    n_test = 10_000
    pooled = {1.0: 0, 0.0: 0}
    for seed in replicates:
        spec = SynthSpec("zipf-tail", num_classes=500, dimensions=16,
                         num_examples=22_000, noise=0.2, seed=seed)
        data = generate_examples(spec)
        train, test = data[:12_000], data[12_000:]
        width = raw_feature_width(spec)

        counts = np.bincount([x.label for x in train], minlength=500)
        assert counts[400:].max() <= 20, "tail classes must be sample-starved"

        for penalty in (1.0, 0.0):
            params = Hyperparams.defaults(500, bits=19, max_depth=13,
                                          depth_penalty=penalty,
                                          adaptive_lr=True)
            model = RecallTreeModel(500, width, params).train(train)
            pooled[penalty] += round(holdout_eval(test, model).holdout_accuracy * n_test)

    n = n_test * len(replicates)
    assert pooled[1.0] > pooled[0.0], pooled
    sig = n1_chi_squared(pooled[1.0], n, pooled[0.0], n)
    assert sig.p_value < 0.05
    report("C08 bernstein-gating",
           f"pooled err {1 - pooled[1.0] / n:.3f} (penalty 1) vs {1 - pooled[0.0] / n:.3f} "
           f"(penalty 0) over {len(replicates)} replicates, p={sig.p_value:.1e}", started)


def test_c09_in_order_streams_beat_permuted(tmp_path):
    """Progressive accuracy on label-sorted runs exceeds the permuted
    stream at P < 0.05."""
    started = time.perf_counter()
    spec = SynthSpec("nonstationary-blocks", num_classes=32, dimensions=10,
                     num_examples=30_000, noise=0.5, seed=41)
    path = tmp_path / "blocks.txt"
    synth_generate(spec, str(path))
    width = raw_feature_width(spec)
    n = spec.num_examples

    def run_arm(permute):
        model = RecallTreeModel(32, width,
                                Hyperparams.defaults(32, bits=18, adaptive_lr=True))
        stream = stream_dataset(str(path), permute=permute, seed=7)
        return round(progressive_eval(stream, model).progressive_accuracy * n)

    in_order = run_arm(False)
    permuted = run_arm(True)
    assert in_order > permuted, (in_order, permuted)
    sig = n1_chi_squared(in_order, n, permuted, n)
    assert sig.p_value < 0.05
    report("C09 nonstationary-in-order",
           f"{in_order / n:.3f} vs {permuted / n:.3f}, p={sig.p_value:.1e}", started)


def test_c10_gradient_check():
    """Applied weight deltas equal central finite differences of the
    importance-weighted logistic loss to 1e-6 over 20 random states."""
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        store = WeightStore(bits=12)
        store.weights = rng.normal(0, 0.3, size=store.weights.size).astype(np.float32)
        key = int(rng.integers(0, 100))
        nnz = int(rng.integers(1, 30))
        idx = rng.integers(0, 10_000, size=nnz)
        vals = rng.uniform(-2, 2, size=nnz)
        label = int(rng.choice([-1, 1]))
        importance = float(rng.uniform(0.05, 4.0))

        slots = slot_matrix(key_salt("class", key), mix64_array(idx), 12)
        replica = store.weights.astype(np.float64).copy()
        before = store.weights.copy()
        store.batch_learn(slots, vals, label, importance)
        applied = store.weights.astype(np.float64) - before.astype(np.float64)

        def loss(w):
            m = float(np.dot(w[slots], vals))
            return importance * math.log1p(math.exp(-label * m))

        h = 1e-5
        for s in np.unique(slots):
            plus, minus = replica.copy(), replica.copy()
            plus[s] += h
            minus[s] -= h
            fd = (loss(plus) - loss(minus)) / (2 * h)
            worst = max(worst, abs(applied[s] - (-fd)))
    assert worst < 1e-6, worst
    report("C10 gradient-check", f"worst deviation {worst:.2e}", started)


def test_c11_determinism_and_persistence(tmp_path):
    """The same stream and seed produce bit-identical model files, and a
    save/load round trip predicts identically on 10^3 inputs."""
    started = time.perf_counter()
    spec = SynthSpec("voronoi", num_classes=12, dimensions=6, num_examples=4000,
                     noise=0.2, seed=9)
    data = generate_examples(spec)
    width = raw_feature_width(spec)

    def train_and_save(name):
        model = RecallTreeModel(12, width, Hyperparams.defaults(12, bits=16))
        model.train(data[:3000])
        p = tmp_path / name
        save_model(model, str(p))
        return model, p

    model_a, path_a = train_and_save("a.bin")
    _, path_b = train_and_save("b.bin")
    assert path_a.read_bytes() == path_b.read_bytes()

    from recalltree.model_io import load_model
    loaded = load_model(str(path_a))
    inputs = data[3000:4000]
    assert len(inputs) == 1000
    assert [loaded.predict(x) for x in inputs] == [model_a.predict(x) for x in inputs]
    report("C11 determinism-and-persistence", "bit-identical files, identical predictions", started)


def test_c12_depth_zero_matches_flat_baseline():
    """A depth-0 tree with a full-width candidate set and the flat
    baseline produce identical prediction vectors on a shared holdout.

    Their updates coincide exactly once every class has entered the root
    candidate set, so the stream is long enough (and the geometry clean
    enough) for the brief warm-up difference to wash out of the argmax.
    """
    started = time.perf_counter()
    spec = SynthSpec("voronoi", num_classes=8, dimensions=10,
                     num_examples=52_000, noise=0.05, seed=51)
    data = generate_examples(spec)
    train, held = data[:50_000], data[50_000:]
    width = raw_feature_width(spec)

    tree = RecallTreeModel(8, width, Hyperparams(max_depth=0, num_candidates=8, bits=18))
    tree.train(train)
    oaa = OaaModel(8, bits=18).train(train)

    tree_preds = [tree.predict(x) for x in held]
    oaa_preds = [oaa.predict(x) for x in held]
    disagree = sum(a != b for a, b in zip(tree_preds, oaa_preds))
    assert disagree == 0, f"{disagree} / {len(held)} disagreements"
    report("C12 depth-zero-equivalence", f"identical on {len(held)} holdout inputs", started)
