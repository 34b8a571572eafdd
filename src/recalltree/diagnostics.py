"""Numerical verification of the theory behind the tree.

Three instruments live here:

* an entropy ledger over the halting nodes of a frozen model, whose
  weighted entropy W (nats) provably upper-bounds the plurality error
  rate eps on the same sample;
* an oracle splitter with a guaranteed per-split entropy advantage, used
  to check the boosting bound eps_t <= H1 - gamma * (1 + ln t) in the one
  regime where its hypotheses (weak learning at every node plus a
  largest-fraction-first split schedule) actually hold;
* a constructive equivalence: a linear one-against-all over the example's
  node-indicator features that reproduces a frozen tree's plurality
  predictions exactly with nothing but unit weights.

All ledger quantities are in nats because the error bound rests on
ln(1/(1-eps)) >= eps; router training elsewhere uses bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import SparseExample
from .errors import DomainError, UntrainedModelError
from .tree import RecallTreeModel, TreeNode, plurality_label, ranked_classes


def _entropy_nats(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    return sum((c / total) * math.log(total / c) for c in counts if c)


# ---------------------------------------------------------------------------
# Entropy ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerRecord:
    """Per-halting-node accounting over one dataset pass."""

    node_id: int
    depth: int
    count: int
    fraction: float
    entropy_nats: float
    plurality: int
    plurality_error: float


@dataclass
class EntropyLedger:
    """Halting-node partition of a dataset under a frozen model.

    ``weighted_entropy`` is sum(f_n * H_n) in nats, ``error_rate`` is the
    fraction-weighted plurality error, and ``marginal_entropy`` is the
    entropy of the raw label distribution (the t=0 ledger).
    """

    records: list[LedgerRecord]
    weighted_entropy: float
    error_rate: float
    marginal_entropy: float
    total_examples: int

    def to_text(self) -> str:
        lines = [
            (
                f"node id={r.node_id} depth={r.depth} examples={r.count} "
                f"fraction={r.fraction:.6f} entropy_nats={r.entropy_nats:.6f} "
                f"plurality={r.plurality} plurality_error={r.plurality_error:.6f}"
            )
            for r in self.records
        ]
        lines.append(
            f"summary W={self.weighted_entropy:.6f} epsilon={self.error_rate:.6f} "
            f"H1={self.marginal_entropy:.6f} nodes={len(self.records)} "
            f"examples={self.total_examples}"
        )
        return "\n".join(lines)


def ledger_snapshot(model: RecallTreeModel, examples: list[SparseExample]) -> EntropyLedger:
    """Route every example through the frozen model (no learning), group by
    halting node, and account entropy and plurality error per node."""
    if not examples:
        raise DomainError("ledger snapshot needs a non-empty dataset")
    by_node: dict[int, dict[int, int]] = {}
    marginal: dict[int, int] = {}
    for x, p in zip(examples, model.predict_batch(examples)):
        counts = by_node.setdefault(p.node_id, {})
        counts[x.label] = counts.get(x.label, 0) + 1
        marginal[x.label] = marginal.get(x.label, 0) + 1

    total = len(examples)
    records = []
    weighted_entropy = 0.0
    error_rate = 0.0
    for node_id in sorted(by_node):
        counts = by_node[node_id]
        count = sum(counts.values())
        fraction = count / total
        entropy = _entropy_nats(counts.values())
        plurality = int(ranked_classes(list(counts), list(counts.values()), 1)[0])
        err = 1.0 - counts[plurality] / count
        records.append(LedgerRecord(
            node_id=node_id, depth=model.nodes[node_id].depth, count=count,
            fraction=fraction, entropy_nats=entropy, plurality=plurality,
            plurality_error=err,
        ))
        weighted_entropy += fraction * entropy
        error_rate += fraction * err
    return EntropyLedger(
        records=records,
        weighted_entropy=weighted_entropy,
        error_rate=error_rate,
        marginal_entropy=_entropy_nats(marginal.values()),
        total_examples=total,
    )


# ---------------------------------------------------------------------------
# Oracle splitter and the boosting bound
# ---------------------------------------------------------------------------

@dataclass
class AdvantageRecord:
    """Measured entropy advantage of one split, in nats.

    ``advantage`` is H_n - (f_l/f_n) H_l - (f_r/f_n) H_r; a bad router can
    make it negative, which is exactly what the measurement is for.
    """

    step: int
    node_fraction: float
    advantage: float


@dataclass
class SplitterState:
    """Ledger of the splitter tree after ``splits`` splits."""

    splits: int
    error_rate: float
    weighted_entropy: float


class OracleSplitter:
    """Deterministic recursive splitter over a known label distribution.

    At every step the leaf holding the largest fraction of examples is
    split by partitioning its class masses into two halves (greedy balance,
    heaviest class first, ties to the smaller id).  When ``min_advantage``
    is given, every split's measured advantage must clear it, enforcing the
    weak-learning hypothesis the boosting bound assumes.
    """

    def __init__(self, class_weights: dict[int, float], min_advantage: float | None = None):
        total = sum(class_weights.values())
        if total <= 0:
            raise DomainError("class weights must have positive mass")
        self._leaves: list[dict[int, float]] = [
            {c: w / total for c, w in sorted(class_weights.items()) if w > 0}
        ]
        self.min_advantage = min_advantage
        self.marginal_entropy = _entropy_nats(self._leaves[0].values())
        self.advantages: list[AdvantageRecord] = []
        self.history: list[SplitterState] = [self._state()]

    @staticmethod
    def _leaf_fraction(leaf: dict[int, float]) -> float:
        return sum(leaf.values())

    def _state(self) -> SplitterState:
        eps = 0.0
        weighted = 0.0
        for leaf in self._leaves:
            f = self._leaf_fraction(leaf)
            if f == 0:
                continue
            top = max(leaf.values())
            eps += f - top
            weighted += f * _entropy_nats(leaf.values())
        return SplitterState(splits=len(self.advantages), error_rate=eps,
                             weighted_entropy=weighted)

    @property
    def splits(self) -> int:
        return len(self.advantages)

    def can_split(self) -> bool:
        return any(len(leaf) > 1 for leaf in self._leaves)

    def split_once(self) -> AdvantageRecord:
        splittable = [i for i, leaf in enumerate(self._leaves) if len(leaf) > 1]
        if not splittable:
            raise DomainError("no leaf with more than one class remains")
        # largest fraction first, ties to the earliest-created leaf
        i = max(splittable, key=lambda j: (self._leaf_fraction(self._leaves[j]), -j))
        leaf = self._leaves.pop(i)
        order = sorted(leaf.items(), key=lambda kv: (-kv[1], kv[0]))
        left: dict[int, float] = {}
        right: dict[int, float] = {}
        for cls, w in order:
            side = left if self._leaf_fraction(left) <= self._leaf_fraction(right) else right
            side[cls] = w
        f_n = self._leaf_fraction(leaf)
        f_l = self._leaf_fraction(left)
        f_r = self._leaf_fraction(right)
        advantage = (
            _entropy_nats(leaf.values())
            - (f_l / f_n) * _entropy_nats(left.values())
            - (f_r / f_n) * _entropy_nats(right.values())
        )
        if self.min_advantage is not None and advantage < self.min_advantage:
            raise DomainError(
                f"split advantage {advantage:.6f} below the enforced "
                f"minimum {self.min_advantage:.6f}"
            )
        self._leaves.append(left)
        self._leaves.append(right)
        record = AdvantageRecord(step=len(self.advantages) + 1,
                                 node_fraction=f_n, advantage=advantage)
        self.advantages.append(record)
        self.history.append(self._state())
        return record

    def run(self, max_splits: int) -> list[SplitterState]:
        while self.splits < max_splits and self.can_split():
            self.split_once()
        return self.history


@dataclass
class BoundCheck:
    splits: int
    error_rate: float
    bound: float
    ok: bool


def check_boost_bound(history: list[SplitterState], gamma: float,
                      marginal_entropy: float) -> list[BoundCheck]:
    """Verify error_rate <= H1 - gamma * (1 + ln t) for every recorded state
    with t > 2 splits.  States at t <= 2 are outside the bound's domain and
    are skipped."""
    checks = []
    for state in history:
        t = state.splits
        if t <= 2:
            continue
        bound = marginal_entropy - gamma * (1.0 + math.log(t))
        checks.append(BoundCheck(splits=t, error_rate=state.error_rate,
                                 bound=bound, ok=state.error_rate <= bound))
    return checks


# ---------------------------------------------------------------------------
# Node-indicator equivalence construction
# ---------------------------------------------------------------------------

def plurality_predict(model: RecallTreeModel, x: SparseExample) -> int:
    """The frozen tree viewed as a plurality predictor: route to the
    halting node and answer its most frequent label."""
    return plurality_label(model.nodes[model.predict_full(x).node_id])


def _halting_capable(model: RecallTreeModel, node: TreeNode) -> bool:
    """Whether any example can stop at this node: visited, and either a
    frontier node or one whose bound beats at least one child's."""
    if node.total == 0:
        return False
    if node.left is None:
        return True
    b = model.bound(node)
    return (b > model.bound(model.nodes[node.left])
            or b > model.bound(model.nodes[node.right]))


@dataclass
class PathIndicatorOaa:
    """Linear one-against-all over (raw features, node indicators) whose
    only nonzero weights are unit weights at (halting node, plurality).

    Raw-feature weights are identically zero, so the margin of class y on
    an example halting at node n is simply [plurality(n) == y]: the argmax
    reproduces the tree's plurality prediction exactly, with no dependence
    on hashing or tolerances.

    The full traversal vector cannot serve here: an example can pass
    through an ancestor at which other examples halt, and that ancestor's
    unit weight would fire alongside the true halting node's.  The
    prediction-relevant indicator is the halting node alone, which for a
    plain decision tree is exactly the path vector's leaf coordinate.
    """

    model: RecallTreeModel
    unit_weights: dict[int, int]

    def predict(self, x: SparseExample) -> int:
        return self._answer(self.model.predict_full(x).node_id)

    def _answer(self, node_id: int) -> int:
        """Argmax over the class margins of an example halting at the node:
        the class of its unit weight, or with none (every margin 0) class 0."""
        return self.unit_weights.get(node_id, 0)

    def agreement(self, examples: list[SparseExample]) -> float:
        if not examples:
            raise DomainError("agreement needs a non-empty sample")
        nodes = self.model.nodes
        same = sum(1 for p in self.model.predict_batch(examples)
                   if self._answer(p.node_id) == plurality_label(nodes[p.node_id]))
        return same / len(examples)


def build_path_oaa(model: RecallTreeModel) -> PathIndicatorOaa:
    """Construct the unit-weight equivalence model from a frozen tree."""
    if model.examples_seen == 0:
        raise UntrainedModelError("cannot build the equivalence model from an untrained tree")
    weights = {
        node.id: plurality_label(node)
        for node in model.nodes
        if _halting_capable(model, node)
    }
    return PathIndicatorOaa(model=model, unit_weights=weights)
