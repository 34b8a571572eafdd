"""Command-line surface: train, predict, inspect, and synth subcommands.

Exit codes: 0 success, 2 usage or domain errors, 3 I/O errors, 4 file
format errors (dataset text or model binary), 5 model-state errors.
"""

from __future__ import annotations

import argparse
import sys

from .data import read_examples, scan_dataset, scan_examples, stream_dataset
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
from .tree import Hyperparams, RecallTreeModel

EX_OK = 0
EX_USAGE = 2
EX_IO = 3
EX_FORMAT = 4
EX_STATE = 5

DEFAULT_SEED = 42


def _add_hyperparam_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=None,
                   help="depth cap (default: log2 of the class count)")
    p.add_argument("--candidates", type=int, default=None,
                   help="candidate classes per node (default: 4 * log2 of the class count)")
    p.add_argument("--depth-penalty", type=float, default=1.0,
                   help="penalty constant in the recall lower bound; 0 uses raw "
                        "empirical recall (default: 1)")
    p.add_argument("--bits", type=int, default=24,
                   help="log2 size of each hashed weight store (default: 24)")
    p.add_argument("--learning-rate", type=float, default=1.0,
                   help="logistic SGD learning rate (default: 1)")
    p.add_argument("--no-path-features", action="store_true",
                   help="do not append traversal indicator features")
    p.add_argument("--adagrad", action="store_true",
                   help="per-slot adaptive learning rate (off by default for reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recalltree",
        description="Online multiclass classification with O(log K) work per example.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and write it to disk")
    train.add_argument("--algo", choices=["recall-tree", "oaa"], default="recall-tree")
    train.add_argument("--data", required=True, help="training dataset (text, .gz accepted)")
    train.add_argument("--model", required=True, help="output model path")
    train.add_argument("--holdout", default=None, help="optional holdout dataset")
    train.add_argument("--classes", type=int, default=None,
                       help="class count K (default: inferred as max label + 1)")
    train.add_argument("--raw-features", type=int, default=None,
                       help="raw feature space width (default: inferred as max index + 1)")
    train.add_argument("--passes", type=int, default=1,
                       help="training epochs; progressive metrics cover pass 1 only")
    train.add_argument("--permute", action="store_true",
                       help="train on a seeded random permutation instead of file order")
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--skip-ledger", action="store_true",
                       help="skip the entropy-ledger summary pass after training")
    train.add_argument("--row", action="store_true",
                       help="also print the report as a single tab-separated row")
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
    overrides = dict(
        depth_penalty=args.depth_penalty,
        bits=args.bits,
        learning_rate=args.learning_rate,
        path_features=not args.no_path_features,
        adaptive_lr=args.adagrad,
    )
    if args.max_depth is not None:
        overrides["max_depth"] = args.max_depth
    if args.candidates is not None:
        overrides["num_candidates"] = args.candidates
    return Hyperparams.defaults(num_classes, **overrides)


def cmd_train(args) -> int:
    if args.passes < 1:
        raise DomainError("--passes must be >= 1")
    # the ledger needs the file in order, so when it runs one parse serves
    # the scan, every in-order pass and the ledger; otherwise each pass
    # streams.  A permuted pass permutes lines, so it streams either way.
    examples = None
    if args.algo == "recall-tree" and not args.skip_ledger:
        examples = read_examples(args.data)

    def data_pass(number: int):
        if examples is None or args.permute:
            return stream_dataset(args.data, permute=args.permute, seed=args.seed + number)
        return examples

    num_classes = args.classes
    num_raw = args.raw_features
    if num_classes is None or num_raw is None:
        meta = scan_dataset(args.data) if examples is None else scan_examples(examples)
        num_classes = num_classes if num_classes is not None else meta.num_classes
        num_raw = num_raw if num_raw is not None else meta.num_raw_features
    if num_classes < 1:
        raise DomainError("dataset declares no classes")

    if args.algo == "oaa":
        model = OaaModel(num_classes, bits=args.bits, learning_rate=args.learning_rate,
                         adaptive_lr=args.adagrad)
    else:
        model = RecallTreeModel(num_classes, num_raw, _params_from_args(args, num_classes))

    report = progressive_eval(data_pass(0), model)
    for extra_pass in range(1, args.passes):
        model.train(data_pass(extra_pass))
        report.examples_seen = model.examples_seen

    if args.holdout:
        held = holdout_eval(read_examples(args.holdout), model)
        report.holdout_accuracy = held.holdout_accuracy

    if examples is not None:
        ledger = ledger_snapshot(model, examples)
        report.ledger_summary = (ledger.weighted_entropy, ledger.error_rate,
                                 ledger.marginal_entropy)

    save_model(model, args.model)
    print(f"model={args.model}")
    print(report.to_kv_text())
    if args.row:
        print(report.to_row())
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
        return EX_OK

    print(f"type=recall-tree classes={model.num_classes} nodes={len(model.nodes)} "
          f"examples_seen={model.examples_seen} max_depth={model.params.max_depth} "
          f"candidates={model.params.num_candidates}")
    for node in model.nodes:
        bound = model.bound(node)
        cands = ",".join(str(c) for c in node.candidates)
        print(f"node id={node.id} depth={node.depth} "
              f"parent={-1 if node.parent is None else node.parent} "
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FORMAT
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FORMAT
    except UntrainedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_STATE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IO


if __name__ == "__main__":
    sys.exit(main())
