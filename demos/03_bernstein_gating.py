"""Why descent is gated by a lower confidence bound instead of raw
empirical recall.

Deep nodes see few examples, so their empirical recall is optimistically
biased: a node that has seen one example has perfect empirical recall.
The variance-sensitive lower bound discounts small samples, halting
descent before the candidate sets become unreliable.

The regime where this matters is sample starvation: a heavy-tailed label
distribution whose classmates share cluster prototypes (so frequency
estimation, not geometry, separates them) and a deep operative depth cap.
A single run of the comparison is noisy at this scale - router
initialization luck can swing it either way - so the demo pools several
replicate datasets and tests the pooled counts once.
"""

from recalltree import (
    Hyperparams,
    RecallTreeModel,
    SynthSpec,
    generate_examples,
    holdout_eval,
    n1_chi_squared,
)
from recalltree.synth import raw_feature_width
from recalltree.tree import TreeNode, recall_lower_bound

REPLICATES = (131, 132, 133, 134)
N_TEST = 10_000

pooled = {1.0: 0, 0.0: 0}
print(f"{'replicate':>9} {'err pen=1':>11} {'err pen=0':>11}")
for seed in REPLICATES:
    spec = SynthSpec("zipf-tail", num_classes=500, dimensions=16,
                     num_examples=22_000, noise=0.2, seed=seed)
    data = generate_examples(spec)
    train, test = data[:12_000], data[12_000:]
    width = raw_feature_width(spec)
    errs = {}
    # a depth penalty of 0 leaves the bound at the raw empirical recall
    for penalty in (1.0, 0.0):
        params = Hyperparams.defaults(500, bits=19, max_depth=13,
                                      depth_penalty=penalty,
                                      adaptive_lr=True)
        model = RecallTreeModel(500, width, params).train(train)
        correct = round(holdout_eval(test, model).holdout_accuracy * N_TEST)
        pooled[penalty] += correct
        errs[penalty] = 1 - correct / N_TEST
    print(f"{seed:>9} {errs[1.0]:>11.4f} {errs[0.0]:>11.4f}")

n = N_TEST * len(REPLICATES)
sig = n1_chi_squared(pooled[1.0], n, pooled[0.0], n)
print(f"\npooled test error with the full bound (penalty 1):   {1 - pooled[1.0] / n:.4f}")
print(f"pooled test error with raw empirical recall (pen 0): {1 - pooled[0.0] / n:.4f}")
print(f"pooled difference significant at p = {sig.p_value:.2e}")

# the bound in action: a well-sampled node vs a one-example node
big = TreeNode(id=0, depth=0, total=1000, cand_total=800)
tiny = TreeNode(id=1, depth=1, total=1, cand_total=1)
print(f"\nnode with 800/1000 candidate hits: empirical recall "
      f"{big.r_hat:.3f}, lower bound {recall_lower_bound(big, 1.0):.3f}")
print(f"node with 1/1 candidate hits:      empirical recall "
      f"{tiny.r_hat:.3f}, lower bound {recall_lower_bound(tiny, 1.0):.3f}")
print("raw recall prefers the one-example node; the bound knows better")
