"""Command-line surface: train, predict, inspect, and synth subcommands.

Exit codes: 0 success, 2 usage or domain errors, 3 I/O errors, 4 file
format errors (dataset text or model binary), 5 model-state errors.
"""

from __future__ import annotations

import argparse
import sys

from .data import read_examples, scan_dataset, stream_dataset
from .diagnostics import ledger_snapshot
from .errors import (
    DomainError,
    ModelFormatError,
    ParseError,
    UntrainedModelError,
)
from .evaluation import holdout_eval, progressive_eval
from .model_io import load_model, save_model
from .oaa import OaaModel
from .synth import SynthSpec, synth_generate
from .tree import Hyperparams, RecallTreeModel, check_label

EX_OK = 0
EX_USAGE = 2
EX_IO = 3
EX_FORMAT = 4
EX_STATE = 5

# the exit code of each error a command may raise, first match in this order
_EXIT_CODES = {ParseError: EX_FORMAT, ModelFormatError: EX_FORMAT, UntrainedModelError: EX_STATE,
               DomainError: EX_USAGE, OSError: EX_IO}

DEFAULT_SEED = 42

# the flags only the recall tree reads; each defaults to None, so that one
# given to the flat model can be refused
_TREE_ONLY_FLAGS = ("--max-depth", "--candidates", "--depth-penalty", "--no-path-features",
                    "--raw-features")


def _add_hyperparam_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=None,
                   help="depth cap (default: log2 of the class count; recall-tree only)")
    p.add_argument("--candidates", type=int, default=None,
                   help="candidate classes per node (default: 4 * log2 of the class count; "
                        "recall-tree only)")
    p.add_argument("--depth-penalty", type=float, default=None,
                   help="penalty constant in the recall lower bound; 0 uses raw "
                        "empirical recall (default: 1; recall-tree only)")
    p.add_argument("--bits", type=int, default=24,
                   help="log2 size of each hashed weight store (default: 24)")
    p.add_argument("--learning-rate", type=float, default=1.0,
                   help="logistic SGD learning rate (default: 1)")
    p.add_argument("--no-path-features", action="store_true", default=None,
                   help="do not append traversal indicator features (recall-tree only)")
    p.add_argument("--adagrad", action="store_true",
                   help="per-slot adaptive learning rate (off by default for reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recalltree",
        description="Online multiclass classification with O(log K) work per example.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="train a model and write it to disk",
        description="Train a model, streaming --data once per pass (after one scan "
                    "for a class count or raw width the flags do not give), and write "
                    "it to disk.  The entropy ledger of the saved model is reported by "
                    "'recalltree inspect --model M --data D'.")
    train.add_argument("--algo", choices=["recall-tree", "oaa"], default="recall-tree")
    train.add_argument("--data", required=True, help="training dataset (text, .gz accepted)")
    train.add_argument("--model", required=True, help="output model path")
    train.add_argument("--holdout", default=None, help="optional holdout dataset")
    train.add_argument("--classes", type=int, default=None,
                       help="class count K (default: inferred as max label + 1)")
    train.add_argument("--raw-features", type=int, default=None,
                       help="raw feature space width, at most 2^63 "
                            "(default: inferred as max index + 1; recall-tree only)")
    train.add_argument("--passes", type=int, default=1,
                       help="training epochs; progressive metrics cover pass 1 only")
    train.add_argument("--permute", action="store_true",
                       help="train on a seeded random permutation instead of file order")
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_hyperparam_flags(train)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="predict one class per input line")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True,
                         help="input dataset; labels are parsed but ignored")
    predict.add_argument("--output", default=None, help="output file (default: stdout)")
    predict.set_defaults(func=cmd_predict)

    inspect = sub.add_parser("inspect", help="report per-node statistics and the entropy ledger")
    inspect.add_argument("--model", required=True)
    inspect.add_argument("--data", default=None,
                         help="dataset for the entropy ledger (omitted: structure only)")
    inspect.set_defaults(func=cmd_inspect)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--structure", required=True,
                       choices=["voronoi", "hierarchical-clusters", "zipf-tail",
                                "nonstationary-blocks"])
    synth.add_argument("--classes", type=int, required=True)
    synth.add_argument("--dims", type=int, required=True)
    synth.add_argument("--examples", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    return parser


def _params_from_args(args, num_classes: int) -> Hyperparams:
    given = dict(max_depth=args.max_depth, num_candidates=args.candidates,
                 depth_penalty=args.depth_penalty)
    return Hyperparams.defaults(
        num_classes, bits=args.bits, learning_rate=args.learning_rate,
        path_features=not args.no_path_features, adaptive_lr=args.adagrad,
        **{name: value for name, value in given.items() if value is not None})


def cmd_train(args) -> int:
    if args.passes < 1:
        raise DomainError("--passes must be >= 1")
    if args.algo == "oaa":
        for flag in _TREE_ONLY_FLAGS:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise DomainError(f"{flag} applies only to --algo recall-tree")

    num_classes = args.classes
    num_raw = args.raw_features
    # the flat model reads no raw width, so it scans only for a missing K
    if num_classes is None or (num_raw is None and args.algo == "recall-tree"):
        meta = scan_dataset(args.data)
        num_classes = num_classes if num_classes is not None else meta.num_classes
        num_raw = num_raw if num_raw is not None else meta.num_raw_features
    if num_classes < 1:
        raise DomainError("dataset declares no classes")
    # read and check the holdout before any pass, so that a bad one costs no training
    held = read_examples(args.holdout) if args.holdout else []
    if args.holdout and not held:
        raise DomainError("--holdout holds no examples")
    for x in held:
        check_label(x.label, num_classes)

    if args.algo == "oaa":
        model = OaaModel(num_classes, bits=args.bits, learning_rate=args.learning_rate,
                         adaptive_lr=args.adagrad)
    else:
        model = RecallTreeModel(num_classes, num_raw, _params_from_args(args, num_classes))

    # each pass parses the file anew instead of keeping its examples, so an
    # in-order run holds one chunk of lines at a time
    report = progressive_eval(stream_dataset(args.data, args.permute, args.seed), model)
    for number in range(1, args.passes):
        model.train(stream_dataset(args.data, args.permute, args.seed + number))
        report.examples_seen = model.examples_seen

    if args.holdout:
        report.holdout_accuracy = holdout_eval(held, model).holdout_accuracy

    save_model(model, args.model)
    print(f"model={args.model}")
    print(report.to_kv_text())
    return EX_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    examples = read_examples(args.data)
    predictions = model.predict_batch(examples)
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        out.write("".join(f"{p.label}\n" for p in predictions))
    finally:
        if args.output:
            out.close()
    return EX_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    if isinstance(model, OaaModel):
        print(f"type=oaa classes={model.num_classes} bits={model.bits} "
              f"examples_seen={model.examples_seen}")
        if args.data:
            print("ledger=skipped (one-against-all model)")
        return EX_OK

    print(f"type=recall-tree classes={model.num_classes} nodes={len(model.nodes)} "
          f"examples_seen={model.examples_seen} max_depth={model.params.max_depth} "
          f"candidates={model.params.num_candidates}")
    parent = {child: node.id for node in model.nodes if node.left is not None
              for child in (node.left, node.left + 1)}
    for node in model.nodes:
        bound = model.bound(node)
        cands = ",".join(str(c) for c in node.candidates)
        print(f"node id={node.id} depth={node.depth} "
              f"parent={parent.get(node.id, -1)} "
              f"total={node.total} recall_hat={node.r_hat:.6f} "
              f"bound={bound if bound == float('-inf') else round(bound, 6)} "
              f"candidates=[{cands}]")
    if args.data:
        if model.examples_seen == 0:
            print("ledger=skipped (untrained model)")
            return EX_OK
        ledger = ledger_snapshot(model, read_examples(args.data))
        print(ledger.to_text())
        print(f"epsilon_le_W={ledger.error_rate <= ledger.weighted_entropy}")
    return EX_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        structure=args.structure,
        num_classes=args.classes,
        dimensions=args.dims,
        num_examples=args.examples,
        noise=args.noise,
        seed=args.seed,
    )
    synth_generate(spec, args.out)
    print(f"dataset={args.out} examples={args.examples}")
    return EX_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles its own usage messages
        return EX_USAGE if exc.code not in (0, None) else EX_OK
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
