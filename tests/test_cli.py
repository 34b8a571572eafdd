import math

import pytest

from recalltree.cli import (
    DEFAULT_SEED,
    EX_FORMAT,
    EX_IO,
    EX_OK,
    EX_USAGE,
    build_parser,
    main,
)
from recalltree import data as data_module
from recalltree.data import read_examples, scan_examples
from recalltree.diagnostics import ledger_snapshot
from recalltree.evaluation import progressive_eval
from recalltree.model_io import load_model, save_model
from recalltree.tree import Hyperparams, RecallTreeModel


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.txt"
    assert main(["synth", "--structure", "voronoi", "--classes", "8", "--dims", "6",
                 "--examples", "3000", "--noise", "0.15", "--seed", "3",
                 "--out", str(data)]) == EX_OK
    return root, data


@pytest.fixture(scope="module")
def deep_workdir(tmp_path_factory):
    # at K=64 the routers below the root learn; at K=8 descent rarely
    # passes the root's children
    root = tmp_path_factory.mktemp("cli-deep")
    data = root / "train.txt"
    assert main(["synth", "--structure", "hierarchical-clusters", "--classes", "64",
                 "--dims", "8", "--examples", "1500", "--noise", "0.05",
                 "--out", str(data)]) == EX_OK
    return root, data


def train_model(root, data, name="model.bin", extra=()):
    model_path = root / name
    code = main(["train", "--data", str(data), "--model", str(model_path),
                 "--bits", "14", *extra])
    return code, model_path


class TestTrain:
    def test_happy_path(self, workdir, capsys):
        root, data = workdir
        code, model_path = train_model(root, data)
        out = capsys.readouterr().out
        assert code == EX_OK
        assert model_path.exists()
        assert "progressive_accuracy=" in out
        assert "scored_classes_mean=" in out
        assert "ledger_W=" in out

    def test_holdout_and_row(self, workdir, capsys):
        root, data = workdir
        code, _ = train_model(root, data, "model2.bin",
                              extra=["--holdout", str(data), "--row", "--skip-ledger"])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "holdout_accuracy=" in out

    def test_multiple_passes(self, workdir, capsys):
        root, data = workdir
        code, _ = train_model(root, data, "model3.bin", extra=["--passes", "2"])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "examples_seen=6000" in out

    def test_oaa_algo(self, workdir, capsys):
        root, data = workdir
        code, _ = train_model(root, data, "oaa.bin", extra=["--algo", "oaa"])
        assert code == EX_OK
        out = capsys.readouterr().out
        scored = float(out.split("scored_classes_mean=")[1].splitlines()[0])
        # every prediction scores all 8 classes except the cold-start fallback
        assert 8.0 - 0.01 <= scored <= 8.0

    @pytest.mark.parametrize("extra, parses, streamed_parses", [
        ([], 1, 2),
        (["--passes", "2"], 1, 3),
        (["--adagrad"], 1, 2),
        (["--permute"], 2, 2),
        (["--permute", "--passes", "2"], 3, 3),
        (["--algo", "oaa"], 2, 2),
    ], ids=["defaults", "passes", "adagrad", "permute", "permute-passes", "oaa"])
    def test_the_file_is_parsed_once_when_the_ledger_runs(self, workdir, capsys, monkeypatch,
                                                          extra, parses, streamed_parses):
        # the ledger's list serves the scan and every in-order pass; a
        # permuted pass permutes lines, so it streams.  Without the ledger
        # (--skip-ledger, or oaa) the scan and every pass stream.
        root, data = workdir
        parse_chunk = data_module._parse_chunk
        lines = []

        def counting(chunk):
            lines.append(len(chunk))
            return parse_chunk(chunk)

        monkeypatch.setattr(data_module, "_parse_chunk", counting)
        code, model_path = train_model(root, data, "once.bin", extra=extra)
        out = capsys.readouterr().out
        assert code == EX_OK
        assert sum(lines) == parses * 3000

        lines.clear()
        code, streamed_path = train_model(root, data, "streamed.bin",
                                          extra=[*extra, "--skip-ledger"])
        streamed = capsys.readouterr().out
        assert code == EX_OK
        assert sum(lines) == streamed_parses * 3000
        # the same model and report either way, but for the ledger's lines
        assert model_path.read_bytes() == streamed_path.read_bytes()
        assert [line for line in out.splitlines()[1:] if not line.startswith("ledger_")] == \
            streamed.splitlines()[1:]

    @pytest.mark.parametrize("extra", [[], ["--skip-ledger"], ["--permute"]],
                             ids=["ledger", "skip-ledger", "permute"])
    def test_extra_passes_equal_a_per_example_loop(self, deep_workdir, capsys, extra):
        # the second pass goes through ``model.train``; the reference trains
        # it one ``train_example`` at a time
        root, data = deep_workdir
        code, model_path = train_model(root, data, "passes2.bin", extra=["--passes", "2", *extra])
        out = capsys.readouterr().out
        assert code == EX_OK

        examples = read_examples(str(data))
        meta = scan_examples(examples)
        model = RecallTreeModel(meta.num_classes, meta.num_raw_features,
                                Hyperparams.defaults(meta.num_classes, bits=14))
        permute = "--permute" in extra
        report = progressive_eval(read_examples(str(data), permute, DEFAULT_SEED), model)
        for x in read_examples(str(data), permute, DEFAULT_SEED + 1):
            model.train_example(x)
        report.examples_seen = model.examples_seen
        if "--skip-ledger" not in extra:
            ledger = ledger_snapshot(model, examples)
            report.ledger_summary = (ledger.weighted_entropy, ledger.error_rate,
                                     ledger.marginal_entropy)
        reference_path = root / "passes2-reference.bin"
        save_model(model, str(reference_path))
        assert model_path.read_bytes() == reference_path.read_bytes()
        assert out == f"model={model_path}\n{report.to_kv_text()}\n"

    def test_missing_data_file_is_io_error(self, workdir, capsys):
        root, _ = workdir
        code = main(["train", "--data", str(root / "nope.txt"),
                     "--model", str(root / "m.bin")])
        assert code == EX_IO

    def test_bad_flag_value_is_usage_error(self, workdir, capsys):
        root, data = workdir
        code, _ = train_model(root, data, "bad.bin", extra=["--bits", "5"])
        assert code == EX_USAGE

    def test_unknown_flag_is_usage_error(self, workdir, capsys):
        root, data = workdir
        assert main(["train", "--data", str(data), "--model", str(root / "m.bin"),
                     "--frobnicate"]) == EX_USAGE

    @pytest.mark.parametrize("flags", [["--depth-penalty", "nan"], ["--depth-penalty", "inf"],
                                       ["--max-depth", "70000"]])
    def test_setting_a_model_file_cannot_hold_is_usage_error(self, workdir, capsys, flags):
        # all used to train: NaN wrote a model that predict rejected, inf a
        # tree whose every bound was NaN or -inf, so that every prediction
        # ran to the depth cap, and 70000 overflowed the 16-bit depth field
        # in save_model
        root, data = workdir
        code, model_path = train_model(root, data, "unsaveable.bin", extra=flags)
        err = capsys.readouterr().err
        assert code == EX_USAGE
        assert err.startswith("error: ") and "Traceback" not in err
        assert not model_path.exists()

    # routers have one sign, and the recall bound one setting: a depth
    # penalty of 0 gives the raw recall that a multiplier of 0 gave
    @pytest.mark.parametrize("flags", [["--router-sign", "literal"],
                                       ["--bernstein-multiplier", "0"]])
    def test_deleted_flag_is_usage_error(self, workdir, capsys, flags):
        root, data = workdir
        code, model_path = train_model(root, data, "deleted.bin", extra=flags)
        assert code == EX_USAGE
        assert not model_path.exists()


class TestPredict:
    def test_one_class_per_line(self, workdir, capsys, tmp_path):
        root, data = workdir
        _, model_path = train_model(root, data, "pred.bin")
        capsys.readouterr()
        out_path = tmp_path / "preds.txt"
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--output", str(out_path)])
        assert code == EX_OK
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3000
        assert all(0 <= int(v) < 8 for v in lines)
        model = load_model(str(model_path))
        assert [int(v) for v in lines] == [model.predict(x) for x in read_examples(str(data))]

    def test_empty_input_gives_empty_output(self, workdir, tmp_path, capsys):
        root, data = workdir
        _, model_path = train_model(root, data, "empty.bin")
        capsys.readouterr()
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out.txt"
        assert main(["predict", "--model", str(model_path), "--data", str(empty),
                     "--output", str(out)]) == EX_OK
        assert out.read_text() == ""

    def test_corrupt_model_is_format_error(self, workdir, tmp_path, capsys):
        root, data = workdir
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model")
        assert main(["predict", "--model", str(bad), "--data", str(data)]) == EX_FORMAT


class TestInspect:
    def test_root_counts_and_ledger(self, workdir, capsys):
        root, data = workdir
        _, model_path = train_model(root, data, "inspect.bin")
        capsys.readouterr()
        code = main(["inspect", "--model", str(model_path), "--data", str(data)])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "node id=0 depth=0 parent=-1 total=3000" in out
        assert "epsilon_le_W=True" in out
        assert "summary W=" in out

    def test_untrained_model_single_node_report(self, tmp_path, capsys):
        model = RecallTreeModel(4, 3, Hyperparams.defaults(4, bits=14))
        path = tmp_path / "fresh.bin"
        save_model(model, str(path))
        code = main(["inspect", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert out.count("node id=") == 1

    def test_oaa_inspect(self, workdir, capsys):
        root, data = workdir
        _, model_path = train_model(root, data, "oaa2.bin", extra=["--algo", "oaa"])
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path)]) == EX_OK
        assert "type=oaa" in capsys.readouterr().out


class TestSynth:
    def test_missing_required_flag_is_usage_error(self):
        assert main(["synth", "--structure", "voronoi"]) == EX_USAGE

    def test_bad_structure_is_usage_error(self, tmp_path):
        assert main(["synth", "--structure", "spiral", "--classes", "4",
                     "--dims", "2", "--examples", "10",
                     "--out", str(tmp_path / "x.txt")]) == EX_USAGE


class TestFlagDefaults:
    def test_defaults_match_the_stock_table(self):
        args = build_parser().parse_args(["train", "--data", "d", "--model", "m"])
        assert args.learning_rate == 1.0
        assert args.depth_penalty == 1.0
        assert args.bits == 24
        assert args.passes == 1
        assert args.seed == 42
        assert args.max_depth is None and args.candidates is None
        assert not args.no_path_features and not args.adagrad

    def test_derived_defaults_follow_class_count(self):
        p = Hyperparams.defaults(1000)
        assert p.max_depth == math.ceil(math.log2(1000))
        assert p.num_candidates == math.ceil(4 * math.log2(1000))
