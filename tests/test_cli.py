import math
import tracemalloc

import pytest

from recalltree.cli import (
    DEFAULT_SEED,
    EX_FORMAT,
    EX_IO,
    EX_OK,
    EX_STATE,
    EX_USAGE,
    build_parser,
    main,
)
from recalltree import cli as cli_module
from recalltree import data as data_module
from recalltree.data import read_examples, scan_dataset, stream_dataset
from recalltree.diagnostics import ledger_snapshot
from recalltree.evaluation import progressive_eval
from recalltree.model_io import load_model, save_model
from recalltree.oaa import OaaModel
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
        # the entropy ledger is inspect's, not train's
        assert "ledger_" not in out

    def test_holdout(self, workdir, capsys):
        root, data = workdir
        code, _ = train_model(root, data, "model2.bin",
                              extra=["--holdout", str(data)])
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

    @pytest.mark.parametrize("extra, parses", [
        ([], 2),
        (["--passes", "2"], 3),
        (["--adagrad"], 2),
        (["--permute"], 2),
        (["--permute", "--passes", "2"], 3),
        (["--classes", "8", "--raw-features", "7"], 1),
        (["--algo", "oaa"], 2),
        (["--algo", "oaa", "--classes", "8"], 1),
    ], ids=["defaults", "passes", "adagrad", "permute", "permute-passes", "tree-given-shape",
            "oaa", "oaa-classes"])
    def test_each_pass_streams_the_file(self, workdir, capsys, monkeypatch, extra, parses):
        # the scan, when a value the learner reads is missing, and every
        # pass each parse the file; the flat model reads no raw width
        root, data = workdir
        parse_chunk = data_module._parse_chunk
        lines = []

        def counting(chunk):
            lines.append(len(chunk))
            return parse_chunk(chunk)

        monkeypatch.setattr(data_module, "_parse_chunk", counting)
        code, _ = train_model(root, data, "streamed.bin", extra=extra)
        capsys.readouterr()
        assert code == EX_OK
        assert sum(lines) == parses * 3000

    @pytest.mark.parametrize("extra", [[], ["--permute"]], ids=["in-order", "permute"])
    def test_extra_passes_equal_a_per_example_loop(self, deep_workdir, capsys, extra):
        # the second pass goes through ``model.train``; the reference trains
        # it one ``train_example`` at a time
        root, data = deep_workdir
        code, model_path = train_model(root, data, "passes2.bin", extra=["--passes", "2", *extra])
        out = capsys.readouterr().out
        assert code == EX_OK

        meta = scan_dataset(str(data))
        model = RecallTreeModel(meta.num_classes, meta.num_raw_features,
                                Hyperparams.defaults(meta.num_classes, bits=14))
        permute = "--permute" in extra
        report = progressive_eval(read_examples(str(data), permute, DEFAULT_SEED), model)
        for x in read_examples(str(data), permute, DEFAULT_SEED + 1):
            model.train_example(x)
        report.examples_seen = model.examples_seen
        reference_path = root / "passes2-reference.bin"
        save_model(model, str(reference_path))
        assert model_path.read_bytes() == reference_path.read_bytes()
        assert out == f"model={model_path}\n{report.to_kv_text()}\n"

    def test_candidates_flag_reaches_the_saved_header(self, workdir, capsys):
        root, data = workdir
        code, model_path = train_model(root, data, "f16.bin",
                                       extra=["--candidates", "16"])
        assert code == EX_OK
        assert load_model(str(model_path)).params.num_candidates == 16

    def test_zero_passes_is_usage_error(self, workdir, capsys):
        root, data = workdir
        code, model_path = train_model(root, data, "nopass.bin", extra=["--passes", "0"])
        assert code == EX_USAGE
        assert capsys.readouterr().err == "error: --passes must be >= 1\n"
        assert not model_path.exists()

    def test_empty_training_file_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, model_path = train_model(tmp_path, empty)
        assert code == EX_USAGE
        assert capsys.readouterr().err == "error: dataset declares no classes\n"
        assert not model_path.exists()

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

    def test_negative_seed_is_usage_error(self, workdir, capsys):
        # numpy's permutation rejected it with a ValueError (exit 1)
        root, data = workdir
        code, model_path = train_model(root, data, "seed.bin",
                                       extra=["--permute", "--seed", "-1"])
        assert code == EX_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not model_path.exists()

    # parsed indices are int64, so 2^63 is the widest raw space; past 2^64
    # the path features overflowed (exit 1), and at 2^64 - 1 node 1's path
    # feature wrapped around onto raw index 0
    @pytest.mark.parametrize("width, code", [(2**64, EX_USAGE), (2**64 - 1, EX_USAGE),
                                             (2**63 + 1, EX_USAGE), (2**63, EX_OK)])
    def test_widest_raw_feature_space(self, workdir, capsys, width, code):
        root, data = workdir
        got, model_path = train_model(root, data, "wide.bin",
                                      extra=["--raw-features", str(width)])
        err = capsys.readouterr().err
        assert got == code
        if code == EX_USAGE:
            assert err == f"error: num_raw_features must be in [0, 2^63], got {width}\n"
            assert not model_path.exists()
        else:
            assert load_model(str(model_path)).num_raw_features == width

    def test_index_past_int64_is_format_error(self, workdir, tmp_path, capsys):
        # train and predict died with an uncaught OverflowError (exit 1)
        root, data = workdir
        bad = tmp_path / "bad.txt"
        bad.write_text("1 0:1\n0 0:1 99999999999999999999:0.5\n")
        code, model_path = train_model(root, bad, "overflow.bin")
        want = ("error: feature index must be in [0, 2^63), got 99999999999999999999 "
                "(line 2, column 7)\n")
        assert (code, capsys.readouterr().err) == (EX_FORMAT, want)
        assert not model_path.exists()
        _, model_path = train_model(root, data, "overflow-predict.bin")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(bad)])
        assert (code, capsys.readouterr().err) == (EX_FORMAT, want)

    # routers have one sign, and the recall bound one setting: a depth
    # penalty of 0 gives the raw recall that a multiplier of 0 gave
    @pytest.mark.parametrize("flags", [["--router-sign", "literal"],
                                       ["--bernstein-multiplier", "0"]])
    def test_deleted_flag_is_usage_error(self, workdir, capsys, flags):
        root, data = workdir
        code, model_path = train_model(root, data, "deleted.bin", extra=flags)
        assert code == EX_USAGE
        assert not model_path.exists()

    @pytest.mark.parametrize("algo", ["recall-tree", "oaa"])
    def test_holdout_label_the_model_cannot_have_is_usage_error(self, workdir, tmp_path,
                                                                capsys, algo):
        _, data = workdir
        held = tmp_path / "held.txt"
        held.write_text("9 0:1.0\n")
        model_path = tmp_path / "model.bin"
        assert main(["train", "--data", str(data), "--model", str(model_path), "--bits", "14",
                     "--algo", algo, "--holdout", str(held)]) == EX_USAGE
        assert capsys.readouterr().err == "error: label 9 out of range for 8 classes\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("algo", ["recall-tree", "oaa"])
    @pytest.mark.parametrize("holdout, code", [
        (None, EX_IO),
        ("1 0:1.0\n0 0:1.0 2\n", EX_FORMAT),
        ("1 0:1.0\n9 0:1.0\n", EX_USAGE),
        ("", EX_USAGE),
    ], ids=["missing", "bad-line", "label-past-k", "empty"])
    def test_a_bad_holdout_fails_before_training(self, workdir, tmp_path, capsys, monkeypatch,
                                                 algo, holdout, code):
        # the holdout was read after the last pass, so a bad one failed
        # only after the whole run had trained
        _, data = workdir
        held = tmp_path / "held.txt"
        if holdout is not None:
            held.write_text(holdout)
        trained = []
        monkeypatch.setattr(cli_module, "progressive_eval", lambda *a: trained.append(a))
        model_path = tmp_path / "model.bin"
        assert main(["train", "--data", str(data), "--model", str(model_path), "--bits", "14",
                     "--algo", algo, "--holdout", str(held)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert trained == []
        assert not model_path.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--max-depth", "3", "--candidates", "2"], "--max-depth"),
        (["--max-depth", "0"], "--max-depth"),
        (["--candidates", "2"], "--candidates"),
        (["--depth-penalty", "1"], "--depth-penalty"),
        (["--depth-penalty", "0"], "--depth-penalty"),
        (["--no-path-features"], "--no-path-features"),
        (["--raw-features", "6"], "--raw-features"),
    ])
    def test_the_flat_model_refuses_a_tree_only_flag(self, workdir, capsys, flags, named):
        # the flat model ignored these flags and exited 0
        root, data = workdir
        code, model_path = train_model(root, data, "oaa-tree-flag.bin",
                                       extra=["--algo", "oaa", *flags])
        assert code == EX_USAGE
        assert capsys.readouterr().err == f"error: {named} applies only to --algo recall-tree\n"
        assert not model_path.exists()

    def test_memory_does_not_grow_with_the_file(self, tmp_path, capsys):
        # a pass streams its file one chunk at a time; an in-memory copy of
        # the file took the peak from 2.3 MiB at 1,500 lines to 4.5 MiB at 6,000
        big = tmp_path / "big.txt"
        assert main(["synth", "--structure", "hierarchical-clusters", "--classes", "64",
                     "--dims", "8", "--examples", "6000", "--noise", "0.05",
                     "--out", str(big)]) == EX_OK
        small = tmp_path / "small.txt"
        small.write_text("".join(big.read_text().splitlines(keepends=True)[:1500]))

        def peak(data):
            tracemalloc.start()
            try:
                assert train_model(tmp_path, data)[0] == EX_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a first run pays the one-time costs of imports and caches
        assert train_model(tmp_path, small)[0] == EX_OK
        small_peak, big_peak = peak(small), peak(big)
        capsys.readouterr()
        assert big_peak <= 1.25 * small_peak, (small_peak, big_peak)


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

    @pytest.mark.parametrize("kind", ["tree", "oaa"])
    def test_untrained_model_is_state_error(self, workdir, tmp_path, capsys, kind):
        _, data = workdir
        model = RecallTreeModel(8, 7, Hyperparams.defaults(8, bits=10)) if kind == "tree" \
            else OaaModel(8, bits=10)
        path = tmp_path / "fresh.bin"
        save_model(model, str(path))
        out = tmp_path / "out.txt"
        assert main(["predict", "--model", str(path), "--data", str(data),
                     "--output", str(out)]) == EX_STATE
        assert capsys.readouterr().err == "error: model has seen no training examples\n"
        assert not out.exists()

    def test_corrupt_model_is_format_error(self, workdir, tmp_path, capsys):
        root, data = workdir
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model")
        assert main(["predict", "--model", str(bad), "--data", str(data)]) == EX_FORMAT

    def test_labels_are_ignored(self, workdir, tmp_path, capsys):
        root, data = workdir
        _, model_path = train_model(root, data, "labels.bin")
        capsys.readouterr()
        query = tmp_path / "query.txt"
        query.write_text("9 0:1.0\n")
        out = tmp_path / "out.txt"
        assert main(["predict", "--model", str(model_path), "--data", str(query),
                     "--output", str(out)]) == EX_OK
        assert 0 <= int(out.read_text()) < 8


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

    def test_ledger_label_the_model_cannot_have_is_usage_error(self, workdir, tmp_path, capsys):
        root, data = workdir
        _, model_path = train_model(root, data, "inspect-labels.bin")
        capsys.readouterr()
        query = tmp_path / "query.txt"
        query.write_text("9 0:1.0\n")
        assert main(["inspect", "--model", str(model_path), "--data", str(query)]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: label 9 out of range for 8 classes\n"
        assert "plurality=9" not in captured.out

    def test_untrained_model_single_node_report(self, tmp_path, capsys):
        model = RecallTreeModel(4, 3, Hyperparams.defaults(4, bits=14))
        path = tmp_path / "fresh.bin"
        save_model(model, str(path))
        code = main(["inspect", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert out.count("node id=") == 1

    def test_untrained_model_skips_the_ledger(self, workdir, tmp_path, capsys):
        _, data = workdir
        path = tmp_path / "fresh.bin"
        save_model(RecallTreeModel(8, 7, Hyperparams.defaults(8, bits=10)), str(path))
        assert main(["inspect", "--model", str(path), "--data", str(data)]) == EX_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "ledger=skipped (untrained model)"
        assert "summary W=" not in out

    def test_oaa_inspect(self, workdir, capsys):
        root, data = workdir
        _, model_path = train_model(root, data, "oaa2.bin", extra=["--algo", "oaa"])
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path)]) == EX_OK
        assert "type=oaa" in capsys.readouterr().out
        # the ledger is the tree's; the flat model ignored --data silently
        assert main(["inspect", "--model", str(model_path), "--data", str(data)]) == EX_OK
        assert capsys.readouterr().out.splitlines()[1:] == ["ledger=skipped (one-against-all model)"]

    def test_the_ledger_of_a_trained_model_is_the_librarys(self, deep_workdir, capsys):
        # train printed a summary of this ledger; inspect prints all of it
        root, data = deep_workdir
        _, model_path = train_model(root, data, "ledger.bin")
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path), "--data", str(data)]) == EX_OK
        out = capsys.readouterr().out

        meta = scan_dataset(str(data))
        model = RecallTreeModel(meta.num_classes, meta.num_raw_features,
                                Hyperparams.defaults(meta.num_classes, bits=14))
        progressive_eval(stream_dataset(str(data)), model)
        ledger = ledger_snapshot(model, read_examples(str(data)))
        assert out.endswith(f"\n{ledger.to_text()}\n"
                            f"epsilon_le_W={ledger.error_rate <= ledger.weighted_entropy}\n")


class TestSynth:
    def test_missing_required_flag_is_usage_error(self):
        assert main(["synth", "--structure", "voronoi"]) == EX_USAGE

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # numpy's generator rejected it with a ValueError (exit 1)
        out = tmp_path / "x.txt"
        assert main(["synth", "--structure", "voronoi", "--classes", "4", "--dims", "2",
                     "--examples", "10", "--seed", "-1", "--out", str(out)]) == EX_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_structure_is_usage_error(self, tmp_path):
        assert main(["synth", "--structure", "spiral", "--classes", "4",
                     "--dims", "2", "--examples", "10",
                     "--out", str(tmp_path / "x.txt")]) == EX_USAGE


class TestFlagDefaults:
    def test_defaults_match_the_stock_table(self):
        args = build_parser().parse_args(["train", "--data", "d", "--model", "m"])
        assert args.learning_rate == 1.0
        # a depth penalty not given is Hyperparams' stock one
        assert cli_module._params_from_args(args, 8).depth_penalty == 1.0
        assert args.bits == 24
        assert args.passes == 1
        assert args.seed == 42
        assert args.max_depth is None and args.candidates is None
        assert not args.no_path_features and not args.adagrad

    def test_derived_defaults_follow_class_count(self):
        p = Hyperparams.defaults(1000)
        assert p.max_depth == math.ceil(math.log2(1000))
        assert p.num_candidates == math.ceil(4 * math.log2(1000))
