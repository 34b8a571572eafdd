"""One-against-all baseline on the same hashed feature space and base
learner as the tree, for statistical and computational comparison.  Every
prediction scores all K classes; every training example updates all K
scorers (one positive, K-1 negative).

As each tree node does, the model keeps the ``(K, n)`` slots of the last
row it hashed and hashes a row only when its indices differ from that row's;
rows of a dense stream, which all share one index set, are hashed once.
"""

from __future__ import annotations

import numpy as np

from .data import SparseExample
from .errors import UntrainedModelError
from .linear import ROLE_CLASS, WeightStore, key_salt, mix64_array, slot_matrix
from .tree import Prediction, check_label, check_num_classes


class OaaModel:
    """Linear one-against-all over hashed features.  ``train`` and
    ``predict_then_train`` are loops of ``train_example`` and
    ``predict_full``.  Slots depend on nothing but the indices, so every call
    reuses the last row's when its indices repeat."""

    def __init__(self, num_classes: int, bits: int = 24, learning_rate: float = 1.0,
                 adaptive_lr: bool = False, *, _store: WeightStore | None = None):
        check_num_classes(num_classes)
        self.num_classes = num_classes
        # a loader passes the store it has read, which holds the settings
        self.class_store = _store or WeightStore(bits, learning_rate, adaptive_lr)
        self._class_salts = key_salt(ROLE_CLASS, np.arange(num_classes))
        self._labels = np.empty(num_classes, dtype=np.float64)
        # (index bytes, slots) of the last row hashed: never stale, never saved
        self._slot_memo: tuple[bytes, np.ndarray] | None = None
        self.examples_seen = 0

    @property
    def bits(self) -> int:
        return self.class_store.bits

    @property
    def learning_rate(self) -> float:
        return self.class_store.learning_rate

    def _slots(self, x: SparseExample) -> np.ndarray:
        """The ``(K, n)`` slots of ``x`` under every class: the last row's
        array itself when the indices repeat, so a caller can tell by ``is``."""
        # indices are int64, so equal bytes are equal indices; np.array_equal
        # made rows that share no index 4% slower to train at K=1024 (2-vCPU Xeon)
        indices = x.indices.tobytes()
        last = self._slot_memo
        if last is None or last[0] != indices:
            last = self._slot_memo = (indices, slot_matrix(
                self._class_salts, mix64_array(x.indices), self.class_store.bits))
        return last[1]

    def train_example(self, x: SparseExample) -> None:
        y = x.label
        check_label(y, self.num_classes)
        labels = self._labels
        labels.fill(-1.0)
        labels[y] = 1.0
        self.class_store.batch_learn(self._slots(x), x.values, labels)
        self.examples_seen += 1

    def train(self, examples) -> "OaaModel":
        """``train_example`` on each example in order."""
        for x in examples:
            self.train_example(x)
        return self

    def predict_then_train(self, examples):
        """Per example, ``predict_full(x)`` then ``train_example(x)``.  Yields
        ``(x, prediction)``: the prediction made before the update, or None
        while the model has seen no example."""
        for x in examples:
            prediction = self.predict_full(x) if self.examples_seen else None
            self.train_example(x)
            yield x, prediction

    def predict_full(self, x: SparseExample) -> Prediction:
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        return self._prediction(self.class_store.batch_margins(self._slots(x), x.values))

    def _prediction(self, scores: np.ndarray) -> Prediction:
        # ties go to the smaller class id via first-argmax
        return Prediction(int(np.argmax(scores)), self.num_classes, 0, 0, 0)

    def predict(self, x: SparseExample) -> int:
        return self.predict_full(x).label

    def predict_batch(self, examples: list[SparseExample]) -> list[Prediction]:
        """``[self.predict_full(x) for x in examples]``, bit for bit: a row
        whose slots are the previous row's array is scored on the float64
        weights gathered for that row, the same product as in
        ``batch_margins``."""
        if not examples:
            return []
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        weights = self.class_store.weights
        slots = gathered = None
        predictions = []
        for x in examples:
            row = self._slots(x)
            if row is not slots:
                # drop the last row's weights first: one row's are held at a time
                slots, gathered = row, None
                gathered = weights[slots].astype(np.float64)
            predictions.append(self._prediction(gathered @ x.values))
        return predictions
