"""One-against-all baseline on the same hashed feature space and base
learner as the tree, for statistical and computational comparison.  Every
prediction scores all K classes; every training example updates all K
scorers (one positive, K-1 negative)."""

from __future__ import annotations

import numpy as np

from .data import SparseExample
from .errors import UntrainedModelError
from .linear import ROLE_CLASS, WeightStore, key_salt, mix64_array, slot_matrix
from .tree import Prediction, check_label, check_num_classes


class OaaModel:
    """Linear one-against-all over hashed features."""

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
        for x in examples:
            self.train_example(x)
        return self

    def predict_then_train(self, examples):
        """Per example, ``predict_full(x)`` then ``train_example(x)``, bit for
        bit, on one ``(K, n)`` slot table.  Yields ``(x, prediction)``: the
        prediction made before the update, or None while the model has seen
        no example."""
        for x in examples:
            slots = self._slots(x)
            prediction = self.predict_full(x, slots) if self.examples_seen else None
            self.train_example(x, slots)
            yield x, prediction

    def predict_full(self, x: SparseExample, _slots: np.ndarray | None = None) -> Prediction:
        if self.examples_seen == 0:
            raise UntrainedModelError("model has seen no training examples")
        slots = self._slots(x) if _slots is None else _slots
        margins = self.class_store.batch_margins(slots, x.values)
        # ties go to the smaller class id via first-argmax
        label = int(np.argmax(margins))
        return Prediction(label, self.num_classes, 0, 0, 0)

    def predict(self, x: SparseExample) -> int:
        return self.predict_full(x).label

    def predict_batch(self, examples: list[SparseExample]) -> list[Prediction]:
        return [self.predict_full(x) for x in examples]
