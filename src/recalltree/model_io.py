"""Binary model persistence.

One container for both model types::

    magic "RCLT" | version u8 | model-type u8 | payload

The tree payload carries the hyperparameters, the node table (histograms
as sorted (class, count) pairs plus the ranked candidate list), and the
two weight stores; the one-against-all payload carries its flags byte and
its class store.  Version 1 files, whose one-against-all payload has no
flags byte, still load, as plain SGD.  Integers are little-endian fixed
width; weight arrays are raw little-endian float32.  Hyperparameter reals
are stored as float64 so a loaded model reproduces the original's
predictions bit for bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CorruptedModelError, ModelFormatError, ModelTypeError
from .linear import WeightStore
from .oaa import OaaModel
from .tree import (
    ROUTER_SIGN_CORRECTED,
    ROUTER_SIGN_PAPER_LITERAL,
    Hyperparams,
    RecallTreeModel,
    TreeNode,
)

MAGIC = b"RCLT"
FORMAT_VERSION = 2
TYPE_RECALL_TREE = 1
TYPE_OAA = 2

_FLAG_PATH_FEATURES = 1
_FLAG_ROUTER_CORRECTED = 2
_FLAG_ADAPTIVE_LR = 4


def _write_store(fh, store: WeightStore) -> None:
    fh.write(struct.pack("<Bd", store.bits, store.learning_rate))
    fh.write(struct.pack("<Q", store.weights.size))
    # the array's own buffer: no copy on a little-endian host
    fh.write(store.weights.astype("<f4", copy=False).data)


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CorruptedModelError(f"model file truncated: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_struct(fh, fmt: str):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_store(fh, adaptive: bool) -> WeightStore:
    bits, lr = _read_struct(fh, "<Bd")
    (length,) = _read_struct(fh, "<Q")
    if length != 1 << bits:
        raise CorruptedModelError(f"weight array length {length} does not match bits={bits}")
    store = WeightStore(bits, lr, adaptive)
    weights = np.empty(length, dtype="<f4")
    got = fh.readinto(weights.data.cast("B"))
    if got != 4 * length:
        raise CorruptedModelError(f"model file truncated: wanted {4 * length} bytes, got {got}")
    # the file's array itself on a little-endian host
    store.weights = weights.astype(np.float32, copy=False)
    return store


def _write_node(fh, node: TreeNode) -> None:
    fh.write(struct.pack(
        "<IiiiHQ",
        node.id,
        -1 if node.parent is None else node.parent,
        -1 if node.left is None else node.left,
        -1 if node.right is None else node.right,
        node.depth,
        node.total,
    ))
    fh.write(struct.pack("<I", len(node.hist)))
    for cls in sorted(node.hist):
        fh.write(struct.pack("<IQ", cls, node.hist[cls]))
    fh.write(struct.pack("<I", len(node.candidates)))
    for cls in node.candidates:
        fh.write(struct.pack("<I", cls))


# one histogram entry as written by _write_node: (class, count)
_HIST_ENTRY = np.dtype([("cls", "<u4"), ("count", "<u8")])


def _read_node(fh, num_classes: int, num_candidates: int) -> TreeNode:
    """Read one node and check its histogram and candidate list.

    Both counts are bounded by K and F from the tree header before their
    block is read, so a damaged count cannot ask for a larger read.
    """
    nid, parent, left, right, depth, total, hist_len = _read_struct(fh, "<IiiiHQI")
    if hist_len > num_classes:
        raise CorruptedModelError(f"node {nid} has {hist_len} histogram entries for {num_classes} classes")
    hist = np.frombuffer(_read_exact(fh, _HIST_ENTRY.itemsize * hist_len), dtype=_HIST_ENTRY)
    (cand_len,) = _read_struct(fh, "<I")
    if cand_len > num_candidates:
        raise CorruptedModelError(f"node {nid} has {cand_len} candidates, more than F={num_candidates}")
    candidates = np.frombuffer(_read_exact(fh, 4 * cand_len), dtype="<u4")

    classes, counts = hist["cls"], hist["count"]
    if hist_len and (classes[-1] >= num_classes or (classes[1:] <= classes[:-1]).any()):
        raise CorruptedModelError(
            f"node {nid} histogram classes must ascend within [0, {num_classes})")
    # the top-F under the tie rule: larger count first, then smaller class id
    top = classes[np.lexsort((classes, ~counts))[:num_candidates]]
    if not np.array_equal(candidates, top):
        if not np.isin(candidates, classes).all():
            raise CorruptedModelError(f"node {nid} has a candidate missing from its histogram")
        raise CorruptedModelError(
            f"node {nid} candidates are not its top-{num_candidates} classes in ranked order")

    count_list = counts.tolist()
    if total != sum(count_list):
        raise CorruptedModelError(f"node {nid} total {total} is not the sum of its histogram")
    # summed one count at a time in file order, as training accumulates it
    sum_clog2 = 0.0
    for count in count_list:
        if count:
            sum_clog2 += count * math.log2(count)
    hist_dict = dict(zip(classes.tolist(), count_list))
    candidate_list = candidates.tolist()
    return TreeNode(
        id=nid, depth=depth,
        parent=None if parent < 0 else parent,
        left=None if left < 0 else left,
        right=None if right < 0 else right,
        hist=hist_dict, total=total, sum_clog2=sum_clog2,
        candidates=candidate_list,
        cand_total=sum(hist_dict[c] for c in candidate_list),
    )


def save_model(model, path: str) -> None:
    """Serialize a tree or one-against-all model."""
    if isinstance(model, RecallTreeModel):
        tag = TYPE_RECALL_TREE
    elif isinstance(model, OaaModel):
        tag = TYPE_OAA
    else:
        raise ModelTypeError(f"cannot serialize a {type(model).__name__}")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", FORMAT_VERSION, tag))
        if tag == TYPE_OAA:
            flags = _FLAG_ADAPTIVE_LR if model.class_store.adaptive else 0
            fh.write(struct.pack("<IQB", model.num_classes, model.examples_seen, flags))
            _write_store(fh, model.class_store)
            return
        p = model.params
        flags = 0
        if p.path_features:
            flags |= _FLAG_PATH_FEATURES
        if p.router_sign == ROUTER_SIGN_CORRECTED:
            flags |= _FLAG_ROUTER_CORRECTED
        if p.adaptive_lr:
            flags |= _FLAG_ADAPTIVE_LR
        fh.write(struct.pack(
            "<IHIddBQQI",
            model.num_classes,
            p.max_depth,
            p.num_candidates,
            p.depth_penalty,
            p.bernstein_multiplier,
            flags,
            model.num_raw_features,
            model.examples_seen,
            len(model.nodes),
        ))
        for node in model.nodes:
            _write_node(fh, node)
        _write_store(fh, model.router_store)
        _write_store(fh, model.class_store)


def _check_header(fh) -> tuple[int, int]:
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, tag = _read_struct(fh, "<BB")
    if not 1 <= version <= FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    if tag not in (TYPE_RECALL_TREE, TYPE_OAA):
        raise ModelFormatError(f"unknown model type tag {tag}")
    return version, tag


def _expect_eof(fh) -> None:
    if fh.read(1):
        raise CorruptedModelError("trailing bytes after model payload")


def _load_tree(fh) -> RecallTreeModel:
    (num_classes, max_depth, num_candidates, depth_penalty, multiplier,
     flags, num_raw_features, examples_seen, node_count) = _read_struct(fh, "<IHIddBQQI")
    nodes = [_read_node(fh, num_classes, num_candidates) for _ in range(node_count)]
    adaptive = bool(flags & _FLAG_ADAPTIVE_LR)
    router_store = _read_store(fh, adaptive)
    class_store = _read_store(fh, adaptive)
    _expect_eof(fh)

    if not nodes or nodes[0].id != 0:
        raise CorruptedModelError("node table must start at the root (id 0)")
    for i, node in enumerate(nodes):
        if node.id != i:
            raise CorruptedModelError("node ids must be dense and in order")
        for ref in (node.parent, node.left, node.right):
            if ref is not None and not 0 <= ref < node_count:
                raise CorruptedModelError(f"node {i} references missing node {ref}")
        if node.depth > max_depth:
            raise CorruptedModelError(f"node {i} at depth {node.depth} exceeds max_depth {max_depth}")
        if (node.left is None) != (node.right is None):
            raise CorruptedModelError(f"node {i} has only one child")
        # a child one level below the node it names as parent rules out
        # cycles, so descent always ends
        for child in (node.left, node.right):
            if child is not None and (nodes[child].parent != i
                                      or nodes[child].depth != node.depth + 1):
                raise CorruptedModelError(f"node {i} links to node {child}, which is not its child")
    if router_store.bits != class_store.bits:
        raise CorruptedModelError("router and class stores must share one bit width")

    params = Hyperparams(
        max_depth=max_depth,
        num_candidates=num_candidates,
        depth_penalty=depth_penalty,
        bits=class_store.bits,
        learning_rate=class_store.learning_rate,
        path_features=bool(flags & _FLAG_PATH_FEATURES),
        bernstein_multiplier=multiplier,
        router_sign=ROUTER_SIGN_CORRECTED if flags & _FLAG_ROUTER_CORRECTED
        else ROUTER_SIGN_PAPER_LITERAL,
        adaptive_lr=adaptive,
    )
    model = RecallTreeModel(num_classes, num_raw_features, params)
    model.nodes = nodes
    model.router_store = router_store
    model.class_store = class_store
    model.examples_seen = examples_seen
    return model


def _load_oaa(fh, version: int) -> OaaModel:
    num_classes, examples_seen = _read_struct(fh, "<IQ")
    (flags,) = _read_struct(fh, "<B") if version >= 2 else (0,)
    adaptive = bool(flags & _FLAG_ADAPTIVE_LR)
    store = _read_store(fh, adaptive)
    _expect_eof(fh)
    model = OaaModel(num_classes, store.bits, store.learning_rate, adaptive)
    model.class_store = store
    model.examples_seen = examples_seen
    return model


def load_model(path: str):
    """Load whichever model type the file holds."""
    with open(path, "rb") as fh:
        version, tag = _check_header(fh)
        return _load_tree(fh) if tag == TYPE_RECALL_TREE else _load_oaa(fh, version)

