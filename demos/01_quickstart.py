"""Quickstart: train the recall tree and the flat one-against-all baseline
on the same stream, then compare accuracy and work per example.

The two learners share everything - hashed feature space, logistic base
learner, learning rate - so any difference comes from the tree reduction:
the tree routes each example to a small candidate set and scores only
those classes, while the baseline scores all K.
"""

import os
import tempfile

from recalltree import (
    Hyperparams,
    OaaModel,
    RecallTreeModel,
    SynthSpec,
    generate_examples,
    holdout_eval,
    load_model,
    save_model,
)
from recalltree.synth import raw_feature_width

K = 64
spec = SynthSpec("voronoi", num_classes=K, dimensions=30,
                 num_examples=40_000, noise=0.12, seed=7)
data = generate_examples(spec)
train, test = data[:36_000], data[36_000:]
width = raw_feature_width(spec)

print(f"voronoi synthetic: K={K}, {len(train)} train / {len(test)} test examples")

params = Hyperparams.defaults(K, bits=18, adaptive_lr=True)
print(f"tree defaults: max_depth={params.max_depth}, "
      f"candidates per node={params.num_candidates}")

tree = RecallTreeModel(K, width, params).train(train)
oaa = OaaModel(K, bits=18, adaptive_lr=True).train(train)

tree_report = holdout_eval(test, tree)
oaa_report = holdout_eval(test, oaa)

print(f"\ntree : accuracy={tree_report.holdout_accuracy:.4f}  "
      f"classes scored/example={tree_report.scored_classes_mean:.1f}  "
      f"router evals/example={tree_report.router_evals_mean:.1f}")
print(f"flat : accuracy={oaa_report.holdout_accuracy:.4f}  "
      f"classes scored/example={oaa_report.scored_classes_mean:.1f}")
print(f"\nwork ratio (flat / tree): "
      f"{oaa_report.scored_classes_mean / (tree_report.scored_classes_mean + tree_report.router_evals_mean):.1f}x")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "quickstart_tree.bin")
    save_model(tree, path)
    reloaded = load_model(path)
assert all(reloaded.predict(x) == tree.predict(x) for x in test[:200])
print("\nmodel round-trips through a saved file with identical predictions")
