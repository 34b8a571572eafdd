"""recalltree: online multiclass classification in polylogarithmic time.

A dynamically grown binary tree of routers whittles K classes down to a
small high-recall candidate set, and one-against-some scorers pick the
final class, so both training and inference score O(log K) hyperplanes
per example instead of K.
"""

from .data import (
    DatasetMeta,
    SparseExample,
    format_example,
    parse_example,
    read_examples,
    scan_dataset,
    stream_dataset,
)
from .diagnostics import (
    AdvantageRecord,
    EntropyLedger,
    OracleSplitter,
    PathIndicatorOaa,
    build_path_oaa,
    check_boost_bound,
    ledger_snapshot,
    plurality_predict,
)
from .errors import (
    CorruptedModelError,
    DomainError,
    ModelFormatError,
    ModelTypeError,
    ParseError,
    RecallTreeError,
    UntrainedModelError,
)
from .evaluation import Chi2Result, EvalReport, holdout_eval, n1_chi_squared, progressive_eval
from .linear import WeightStore
from .model_io import load_model, save_model
from .oaa import OaaModel
from .synth import SynthSpec, generate_examples, synth_generate
from .tree import (
    Hyperparams,
    Prediction,
    RecallTreeModel,
    TreeNode,
    path_feature_index,
    plurality_label,
    recall_lower_bound,
    update_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "AdvantageRecord",
    "Chi2Result",
    "CorruptedModelError",
    "DatasetMeta",
    "DomainError",
    "EntropyLedger",
    "EvalReport",
    "Hyperparams",
    "ModelFormatError",
    "ModelTypeError",
    "OaaModel",
    "OracleSplitter",
    "ParseError",
    "PathIndicatorOaa",
    "Prediction",
    "RecallTreeError",
    "RecallTreeModel",
    "SparseExample",
    "SynthSpec",
    "TreeNode",
    "UntrainedModelError",
    "WeightStore",
    "build_path_oaa",
    "check_boost_bound",
    "format_example",
    "generate_examples",
    "holdout_eval",
    "ledger_snapshot",
    "load_model",
    "n1_chi_squared",
    "parse_example",
    "path_feature_index",
    "plurality_label",
    "plurality_predict",
    "progressive_eval",
    "read_examples",
    "recall_lower_bound",
    "save_model",
    "scan_dataset",
    "stream_dataset",
    "synth_generate",
    "update_candidates",
]
