"""Experiment harness: progressive validation, holdout evaluation, work
counters, and the two-proportion significance helper used for every claim
of difference between runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import SparseExample
from .errors import DomainError
from .tree import check_label


@dataclass
class EvalReport:
    """Accuracy plus work accounting for one run."""

    examples_seen: int
    progressive_accuracy: float | None = None
    holdout_accuracy: float | None = None
    scored_classes_mean: float = 0.0
    router_evals_mean: float = 0.0

    def to_kv_text(self) -> str:
        lines = [f"examples_seen={self.examples_seen}"]
        if self.progressive_accuracy is not None:
            lines.append(f"progressive_accuracy={self.progressive_accuracy:.6f}")
        if self.holdout_accuracy is not None:
            lines.append(f"holdout_accuracy={self.holdout_accuracy:.6f}")
        lines.append(f"scored_classes_mean={self.scored_classes_mean:.4f}")
        lines.append(f"router_evals_mean={self.router_evals_mean:.4f}")
        return "\n".join(lines)


def progressive_eval(stream, learner) -> EvalReport:
    """Predict-then-train over a stream; accuracy counts the prediction
    made strictly before each example's update.

    The steps are ``learner.predict_then_train(stream)``, which mixes each
    example's features once for its prediction and its update, except in a
    tree's block that holds an index outside its raw space.  The tree reads
    the stream in blocks (``read_blocks``), up to 256 examples ahead, and
    lays out each block's features at once; its update takes the router rows
    its prediction hashed from each node's memo.  The flat model reads one
    example at a time.  If the stream raises, the examples read before it
    are still predicted and trained, then the error is raised.  A cold
    learner cannot predict yet, so the first prediction falls back to class
    0 and is scored like any other.
    """
    seen = 0
    correct = 0
    scored = 0
    routed = 0
    for x, p in learner.predict_then_train(stream):
        if p is None:
            label, n_scored, n_routed = 0, 0, 0
        else:
            label, n_scored, n_routed = p.label, p.classes_scored, p.router_evals
        correct += int(label == x.label)
        scored += n_scored
        routed += n_routed
        seen += 1
    if seen == 0:
        raise DomainError("progressive evaluation needs a non-empty stream")
    return EvalReport(
        examples_seen=seen,
        progressive_accuracy=correct / seen,
        scored_classes_mean=scored / seen,
        router_evals_mean=routed / seen,
    )


def holdout_eval(examples: list[SparseExample], model) -> EvalReport:
    """Frozen-model accuracy over a held-out sample (no learning).  A label
    the model cannot have is a ``DomainError``, as in training."""
    if not examples:
        raise DomainError("holdout evaluation needs a non-empty sample")
    correct = 0
    scored = 0
    routed = 0
    for x, p in zip(examples, model.predict_batch(examples)):
        check_label(x.label, model.num_classes)
        correct += int(p.label == x.label)
        scored += p.classes_scored
        routed += p.router_evals
    n = len(examples)
    return EvalReport(
        examples_seen=n,
        holdout_accuracy=correct / n,
        scored_classes_mean=scored / n,
        router_evals_mean=routed / n,
    )


@dataclass
class Chi2Result:
    statistic: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def n1_chi_squared(successes_a: int, trials_a: int,
                   successes_b: int, trials_b: int) -> Chi2Result:
    """Two-proportion N-1 chi-squared test (two-sided).

    The statistic is the Pearson chi-squared of the 2x2 table scaled by
    (N-1)/N; with one degree of freedom the p-value is
    erfc(sqrt(statistic / 2)).
    """
    if trials_a <= 0 or trials_b <= 0:
        raise DomainError("trial counts must be positive")
    if not (0 <= successes_a <= trials_a and 0 <= successes_b <= trials_b):
        raise DomainError("successes must lie within their trial counts")
    a, b = successes_a, trials_a - successes_a
    c, d = successes_b, trials_b - successes_b
    n = trials_a + trials_b
    col1, col2 = a + c, b + d
    if col1 == 0 or col2 == 0:
        return Chi2Result(statistic=0.0, p_value=1.0)
    pearson = n * (a * d - b * c) ** 2 / (trials_a * trials_b * col1 * col2)
    statistic = pearson * (n - 1) / n
    return Chi2Result(statistic=statistic, p_value=math.erfc(math.sqrt(statistic / 2.0)))
