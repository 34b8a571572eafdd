import gzip

import numpy as np
import pytest

from recalltree.data import SparseExample
from recalltree.linear import key_salt, mix64_array, slot_matrix


def slot_of(role: str, ident: int, index: int, bits: int) -> int:
    """Slot of raw feature ``index`` for one scorer in a ``2^bits`` store."""
    return int(slot_matrix(key_salt(role, ident), mix64_array([index]), bits)[0])


def quadrant_examples(n: int, seed: int, margin: float = 0.1, scale: float = 1.0):
    """4-class toy: the label is the sign quadrant of two coordinates.

    Coordinates are pushed ``margin`` away from the axes so the problem is
    separable by construction; argmax over the four sign-pattern
    directions classifies it perfectly, which is the brute-force oracle.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 2))
    signs = np.sign(pts)
    signs[signs == 0] = 1
    pts = signs * (margin + (1 - margin) * np.abs(pts))
    labels = (pts[:, 0] > 0).astype(int) * 2 + (pts[:, 1] > 0).astype(int)
    idx = np.arange(2)
    return [SparseExample(int(labels[i]), idx, pts[i] * scale) for i in range(n)]


def accuracy(model, examples) -> float:
    return sum(model.predict(x) == x.label for x in examples) / len(examples)


@pytest.fixture
def tmp_dataset(tmp_path):
    """Write ``lines`` to a dataset file and return its path.

    ``newline`` ends each line (the last one only if ``trailing``), and the
    bytes are written as they are, so "\\r\\n" and "\\r" reach the reader;
    ``gz`` compresses the file and appends ".gz" to its name.
    """
    def write(lines, name="data.txt", *, newline="\n", trailing=True, gz=False):
        text = newline.join(lines) + (newline if trailing else "")
        data = text.encode("utf-8")
        if gz:
            name, data = name + ".gz", gzip.compress(data)
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    return write
