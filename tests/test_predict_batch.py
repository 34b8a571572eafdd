"""``predict_batch`` must equal ``predict_full`` example by example, on every
kind of tree and every kind of input row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalltree.cli import EX_OK, main
from recalltree.data import SparseExample
from recalltree.errors import DomainError, UntrainedModelError
from recalltree.model_io import load_model, save_model
from recalltree.synth import SynthSpec, generate_examples, raw_feature_width
from recalltree.tree import BATCH_ROWS, Hyperparams, RecallTreeModel

SPEC = SynthSpec("hierarchical-clusters", num_classes=32, dimensions=5,
                 num_examples=3000, noise=0.05, seed=11)
WIDTH = raw_feature_width(SPEC)

VARIANTS = {
    "default": {},
    "no_path_features": dict(path_features=False),
    "raw_recall": dict(depth_penalty=0.0),
    "depth_zero": dict(max_depth=0),
}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    data = generate_examples(SPEC)
    trained = {
        name: RecallTreeModel(32, WIDTH, Hyperparams.defaults(32, bits=14, **overrides))
        .train(data[:2200])
        for name, overrides in VARIANTS.items()
    }
    path = tmp_path_factory.mktemp("batch") / "tree.bin"
    save_model(trained["default"], str(path))
    trained["loaded"] = load_model(str(path))
    assert len(trained["default"].nodes) > 7  # a tree worth descending
    return trained, data[2200:]


def per_example(model, examples):
    return [model.predict_full(x) for x in examples]


# rows of varying length over a narrow index range, so duplicates are common;
# empty rows included
rows = st.lists(
    st.lists(st.tuples(st.integers(0, WIDTH - 1),
                       st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)),
             max_size=9),
    max_size=40,
)


@pytest.mark.parametrize("name", [*VARIANTS, "loaded"])
@given(pairs=rows)
@settings(max_examples=40, deadline=None)
def test_batch_equals_per_example(models, name, pairs):
    model = models[0][name]
    examples = [SparseExample.from_pairs(0, p) for p in pairs]
    assert model.predict_batch(examples) == per_example(model, examples)


@pytest.mark.parametrize("name", [*VARIANTS, "loaded"])
def test_batch_spanning_blocks_equals_per_example(models, name):
    trained, held = models
    rng = np.random.default_rng(5)
    # held-out rows, half of them cut to random lengths, so that the
    # full-length rows fill more than one block; three rows have lengths no
    # other row has (duplicate indices), and share a block with other lengths
    cuts = np.where(rng.random(len(held)) < 0.5, WIDTH, rng.integers(0, WIDTH, size=len(held)))
    examples = [SparseExample(x.label, x.indices[:k], x.values[:k]) for x, k in zip(held, cuts)]
    for extra in range(1, 4):
        x = held[extra]
        examples.insert(100 * extra, SparseExample(
            x.label, np.tile(x.indices, extra + 1), np.tile(x.values, extra + 1)))
    lengths = np.unique([x.indices.size for x in examples], return_counts=True)[1]
    assert lengths.max() > BATCH_ROWS and (lengths == 1).sum() == 3
    batch = trained[name].predict_batch(examples)
    assert batch == per_example(trained[name], examples)
    if name == "default":
        assert len({p.node_id for p in batch}) > 2


def test_rows_of_rare_lengths_descend_in_the_batch(models, monkeypatch):
    """Lengths that only one, two or three rows hold are predicted in a
    block with the rest, never one by one."""
    trained, held = models
    model = trained["default"]
    examples = list(held[:300])
    for copies in (1, 2, 3):
        x = held[copies]
        examples[50 * copies:50 * copies] = [SparseExample(
            x.label, np.tile(x.indices, copies + 1), np.tile(x.values, copies + 1))] * copies
    lengths = np.unique([x.indices.size for x in examples], return_counts=True)[1]
    assert sorted(lengths.tolist())[:3] == [1, 2, 3]
    expected = per_example(model, examples)

    def refused(*args):
        raise AssertionError("predict_full called")

    monkeypatch.setattr(model, "predict_full", refused)
    assert model.predict_batch(examples) == expected


def test_empty_batch_on_untrained_model():
    model = RecallTreeModel(4, 2, Hyperparams(max_depth=1, num_candidates=2, bits=14))
    assert model.predict_batch([]) == []


def test_untrained_model_raises():
    model = RecallTreeModel(4, 2, Hyperparams(max_depth=1, num_candidates=2, bits=14))
    with pytest.raises(UntrainedModelError):
        model.predict_batch([SparseExample.from_pairs(0, [(0, 1.0)])])


def test_cli_predict_on_empty_file_with_untrained_model(tmp_path, capsys):
    model_path = tmp_path / "untrained.bin"
    save_model(RecallTreeModel(4, 2, Hyperparams(max_depth=1, num_candidates=2, bits=14)),
               str(model_path))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "out.txt"
    assert main(["predict", "--model", str(model_path), "--data", str(empty),
                 "--output", str(out)]) == EX_OK
    assert out.read_text() == ""


def test_feature_outside_raw_space_raises(models):
    model = models[0]["default"]
    good = SparseExample.from_pairs(0, [(0, 1.0)])
    bad = SparseExample.from_pairs(0, [(1, 1.0), (WIDTH, 1.0)])
    with pytest.raises(DomainError):
        model.predict_batch([good, bad, good])
