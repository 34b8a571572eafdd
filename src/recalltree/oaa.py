"""One-against-all baseline on the same hashed feature space and base
learner as the tree, for statistical and computational comparison.  Every
prediction scores all K classes; every training example updates all K
scorers (one positive, K-1 negative).

``train``, ``predict_then_train`` and ``predict_batch`` hash a row's
``(K, n)`` slots only when its indices differ from the previous row's; rows
of a dense stream, which all share one index set, are hashed once.
"""

from __future__ import annotations

import numpy as np

from .data import SparseExample
from .errors import UntrainedModelError
from .linear import ROLE_CLASS, WeightStore, key_salt, mix64_array, slot_matrix
from .tree import Prediction, check_label, check_num_classes, read_blocks


def _reusing(examples, build):
    """Each example with ``build(x)``, read by ``read_blocks`` as the tree
    reads a stream.  An example whose indices equal the previous one's takes
    the previous ``build`` again: a row's slots, and so the weights at them,
    depend on nothing but its indices."""
    last = built = None
    for block in read_blocks(examples):
        for x in block:
            # indices are int64, so equal bytes are equal indices; comparing
            # with np.array_equal made rows that share no index 4% slower to
            # train at K=1024 (2-vCPU Xeon)
            indices = x.indices.tobytes()
            if indices != last:
                last, built = indices, build(x)
            yield x, built


class OaaModel:
    """Linear one-against-all over hashed features.  ``train``,
    ``predict_then_train`` and ``predict_batch`` leave the weights, AdaGrad
    state and predictions of ``train_example`` and ``predict_full`` called
    one example at a time, bit for bit; those two, called alone, hash their
    example's own slots."""

    def __init__(self, num_classes: int, bits: int = 24, learning_rate: float = 1.0,
                 adaptive_lr: bool = False, *, _store: WeightStore | None = None):
        check_num_classes(num_classes)
        self.num_classes = num_classes
        # a loader passes the store it has read, which holds the settings
        self.class_store = _store or WeightStore(bits, learning_rate, adaptive_lr)
        self._class_salts = key_salt(ROLE_CLASS, np.arange(num_classes))
        self._labels = np.empty(num_classes, dtype=np.float64)
        self.examples_seen = 0

    @property
    def bits(self) -> int:
        return self.class_store.bits

    @property
    def learning_rate(self) -> float:
        return self.class_store.learning_rate

    def _slots(self, x: SparseExample) -> np.ndarray:
        return slot_matrix(self._class_salts, mix64_array(x.indices), self.class_store.bits)

    def train_example(self, x: SparseExample, _slots: np.ndarray | None = None) -> None:
        y = x.label
        check_label(y, self.num_classes)
        labels = self._labels
        labels.fill(-1.0)
        labels[y] = 1.0
        slots = self._slots(x) if _slots is None else _slots
        self.class_store.batch_learn(slots, x.values, labels)
        self.examples_seen += 1

    def train(self, examples) -> "OaaModel":
        """``train_example`` on each example in order, bit for bit."""
        for x, slots in _reusing(examples, self._slots):
            self.train_example(x, slots)
        return self

    def predict_then_train(self, examples):
        """Per example, ``predict_full(x)`` then ``train_example(x)``, bit for
        bit, on one set of ``(K, n)`` slots.  Yields ``(x, prediction)``: the
        prediction made before the update, or None while the model has seen
        no example."""
        for x, slots in _reusing(examples, self._slots):
            prediction = self.predict_full(x, slots) if self.examples_seen else None
            self.train_example(x, slots)
            yield x, prediction

    def predict_full(self, x: SparseExample, _slots: np.ndarray | None = None) -> Prediction:
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        slots = self._slots(x) if _slots is None else _slots
        return self._prediction(self.class_store.batch_margins(slots, x.values))

    def _prediction(self, scores: np.ndarray) -> Prediction:
        # ties go to the smaller class id via first-argmax
        return Prediction(int(np.argmax(scores)), self.num_classes, 0, 0, 0)

    def predict(self, x: SparseExample) -> int:
        return self.predict_full(x).label

    def predict_batch(self, examples: list[SparseExample]) -> list[Prediction]:
        """``[self.predict_full(x) for x in examples]``, bit for bit: a row
        whose indices equal the previous row's is scored on the float64
        weights gathered for that row, the same product as in
        ``batch_margins``."""
        if not examples:
            return []
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        weights = self.class_store.weights
        return [self._prediction(gathered @ x.values) for x, gathered in
                _reusing(examples, lambda x: weights[self._slots(x)].astype(np.float64))]
