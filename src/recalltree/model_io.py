"""Binary model persistence.

One container for both model types::

    magic "RCLT" | version u8 | model-type u8 | payload

The tree payload carries the hyperparameters, the node table and the two
weight stores; the one-against-all payload carries its settings and its
class store.  Each setting is stored once: the stores take ``bits`` and the
learning rate from the model header.  Integers are little-endian fixed
width.  Hyperparameter reals are stored as float64 so a loaded model
reproduces the original's predictions bit for bit.  A node record is::

    left i32 | hist_len u32 | (class u32, count u64) * hist_len | sum_clog2 f8

``left`` is -1 for no children, and the right child is ``left + 1``.  The
trained ``sum_clog2`` is kept for resumed training.  The id (the record's
position), depth, total and top-F candidates are derived on load, and so
is the tree's example count: every example is counted at the root.  Every
stored count is at least 1.

A weight store is ``count u64``, then ``count`` strictly ascending u32
slots, the float32 weights at those slots and, for an AdaGrad store, the
float64 accumulators at those slots.  The listed slots are those whose
weight or accumulator has a nonzero bit pattern, so -0.0 and NaN
round-trip.  This is the only body, however many slots are nonzero, so a
store with more than half its slots nonzero (three quarters with AdaGrad)
takes more bytes than its raw arrays would: up to twice as many (4/3 as
many with AdaGrad).

A loaded store's tables are allocated only after its body's length and
slots are checked, on pages chosen by ``_zeros_for`` from the slots, and
the model is built around the stores that were read.

Only ``FORMAT_VERSION`` loads; a file of any other version is a
``ModelFormatError``.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import secrets
import struct

import numpy as np

from .errors import CorruptedModelError, DomainError, ModelFormatError, ModelTypeError
from .linear import WeightStore, check_store_settings
from .oaa import OaaModel
from .tree import Hyperparams, RecallTreeModel, TreeNode, check_num_classes, check_raw_features, ranked_classes

MAGIC = b"RCLT"
FORMAT_VERSION = 7
TYPE_RECALL_TREE = 1
TYPE_OAA = 2

_FLAG_PATH_FEATURES = 1
_FLAG_ADAPTIVE_LR = 4

# the fields, in file order; the writer and the reader share each format
_VERSION_AND_TYPE = "<BB"
# K, max_depth, F, penalty, flags, bits, learning rate, width, nodes
_TREE_HEADER = "<IHIdBBdQI"
_OAA_HEADER = "<IQ"  # K, examples seen; then the settings
_OAA_SETTINGS = "<BBd"  # flags, bits, learning rate
_NODE_HEADER = "<iI"  # left child, histogram length
_HIST_ENTRY = np.dtype([("cls", "<u4"), ("count", "<u8")])
_SUM_CLOG2 = "<d"
_STORE_HEADER = "<Q"
# slots per step of the writer's nonzero scan
_SCAN_CHUNK = 1 << 18
# Largest share of its pages a sparse table may touch and still load onto
# fresh small pages.  Filling a 2^24 float32 table on 4 KiB pages took 0.35
# ms at 1/64 of the pages, 1.5 ms at 1/16 and 9 ms at 1/4, against about
# 10 ms at any share on huge pages (2-vCPU Xeon, medians of 7).  Nearer the
# crossing small pages save little, and every gather after the load pays
# TLB misses on them: a K=4096 tree whose class store (39% of its pages)
# went on small pages too loaded in 11-13 ms, against 10 ms with it on
# huge pages.
_FRESH_PAGE_SHARE = 1 / 16


def _sparse_slots(arrays: list[np.ndarray]) -> np.ndarray:
    """Ascending slots where any of ``arrays`` has a nonzero bit pattern.

    Scans a chunk of slots at a time, so each bool mask stays small (a
    whole-table mask of a 2^24 store is 16 MiB).  Listing the nonzeros of a
    bool mask is about 3x faster than listing those of the uint32 view.
    """
    views = [a.view(f"u{a.itemsize}") for a in arrays]
    chunks = []
    for start in range(0, views[0].size, _SCAN_CHUNK):
        mask = views[0][start:start + _SCAN_CHUNK] != 0
        for view in views[1:]:
            mask |= view[start:start + _SCAN_CHUNK] != 0
        chunks.append((np.flatnonzero(mask) + start).astype("<u4"))
    return np.concatenate(chunks)


def _tables(store: WeightStore) -> list[np.ndarray]:
    """The store's weights, then its AdaGrad accumulators if it has them."""
    return [store.weights, store._grad_sq] if store.adaptive else [store.weights]


def _write_store(fh, store: WeightStore) -> None:
    # little-endian views: the arrays' own buffers on a little-endian host
    arrays = [a.astype(a.dtype.newbyteorder("<"), copy=False) for a in _tables(store)]
    slots = _sparse_slots(arrays)
    fh.write(struct.pack(_STORE_HEADER, slots.size))
    fh.write(slots.data)
    for a in arrays:
        fh.write(a[slots].data)


@contextlib.contextmanager
def _corrupt_if_rejected(what: str):
    """A header the model constructors reject makes the file corrupt."""
    try:
        yield
    except DomainError as exc:
        raise CorruptedModelError(f"bad {what}: {exc}") from exc


def _check_left(fh, need: int, what: str) -> None:
    """Raise unless ``need`` bytes are left in the file, so that no damaged
    count asks ``read`` for more than the file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if need > left:
        raise CorruptedModelError(f"model file truncated: {what} needs {need} bytes, {left} are left")


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CorruptedModelError(f"model file truncated: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_array(fh, dtype: np.dtype, n: int, what: str) -> np.ndarray:
    """``n`` items of ``dtype``, checked against the bytes left in the
    file before they are read."""
    _check_left(fh, dtype.itemsize * n, what)
    return np.frombuffer(_read_exact(fh, dtype.itemsize * n), dtype=dtype)


def _read_struct(fh, fmt: str):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _zeros_for(slots: np.ndarray):
    """The ``np.zeros`` stand-in for a store whose nonzero slots are the
    ascending ``slots``.

    ``np.zeros`` asks for huge pages for a table of 4 MiB or more, and then
    the first write into each 2 MiB region zero-fills all of it.  A table
    whose slots fall on at most ``_FRESH_PAGE_SHARE`` of its pages, each
    dtype counted by its own itemsize, is put on fresh small pages of an
    anonymous mapping instead, so that filling it costs what it touches.
    """
    def zeros(size: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        per_page = mmap.PAGESIZE // dtype.itemsize
        pages = slots // per_page
        touched = np.count_nonzero(pages[1:] != pages[:-1]) + 1 if slots.size else 0
        if touched > _FRESH_PAGE_SHARE * (size // per_page):
            return np.zeros(size, dtype)
        table = mmap.mmap(-1, size * dtype.itemsize, flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            table.madvise(mmap.MADV_NOHUGEPAGE)
        # the array keeps the mapping alive, and unmapping follows it
        return np.frombuffer(table, dtype)
    return zeros


def _read_store(fh, bits: int, learning_rate: float, adaptive: bool) -> WeightStore:
    """Read one weight store; its settings come from the model header,
    which the caller has checked.

    The body's length follows from the stored count, and it is checked
    against the bytes left in the file, and the slots are checked, before
    any table is allocated.
    """
    (count,) = _read_struct(fh, _STORE_HEADER)
    size = 1 << bits
    if count > size:
        raise CorruptedModelError(f"weight store lists {count} slots for bits={bits}")
    # a slot, its weight and, with AdaGrad, its accumulator
    _check_left(fh, (16 if adaptive else 8) * count, "weight store")
    slots = np.frombuffer(_read_exact(fh, 4 * count), dtype="<u4")
    if count and (slots[-1] >= size or (slots[1:] <= slots[:-1]).any()):
        raise CorruptedModelError(f"weight store slots must ascend within [0, 2^{bits})")
    store = WeightStore(bits, learning_rate, adaptive, _zeros=_zeros_for(slots))
    # scattered into the store's own zero tables: no second 2^bits array
    for a in _tables(store):
        a[slots] = np.frombuffer(_read_exact(fh, a.itemsize * count),
                                 dtype=a.dtype.newbyteorder("<"))
    return store


def _write_node(fh, node: TreeNode) -> None:
    fh.write(struct.pack(_NODE_HEADER, -1 if node.left is None else node.left, len(node.hist)))
    fh.write(np.array(sorted(node.hist.items()), dtype=_HIST_ENTRY).data)
    fh.write(struct.pack(_SUM_CLOG2, node.sum_clog2))


def _read_node(fh, nid: int, num_classes: int, num_candidates: int) -> TreeNode:
    """Read node ``nid`` and check its histogram.

    The histogram length is bounded by K from the tree header, and its
    block by the bytes left in the file, before the block is read, so a
    damaged count cannot ask for a larger read.
    """
    left, hist_len = _read_struct(fh, _NODE_HEADER)
    if hist_len > num_classes:
        raise CorruptedModelError(f"node {nid} has {hist_len} histogram entries for {num_classes} classes")
    hist = _read_array(fh, _HIST_ENTRY, hist_len, "histogram")
    (sum_clog2,) = _read_struct(fh, _SUM_CLOG2)

    classes, counts = hist["cls"], hist["count"]
    if hist_len and (classes[-1] >= num_classes or (classes[1:] <= classes[:-1]).any()):
        raise CorruptedModelError(
            f"node {nid} histogram classes must ascend within [0, {num_classes})")
    if not counts.all():
        raise CorruptedModelError(f"node {nid} histogram stores a count of 0")
    count_list = counts.tolist()
    # training sums it one increment at a time, so the histogram's sum
    # differs in the last bits; the node keeps the stored value, so that
    # continued training matches training without a break
    mass = counts.astype(np.float64)
    if not math.isclose(sum_clog2, float(mass @ np.log2(mass)), rel_tol=1e-6):
        raise CorruptedModelError(f"node {nid} sum_clog2 does not match its histogram")
    hist_dict = dict(zip(classes.tolist(), count_list))
    candidates = ranked_classes(classes, counts, num_candidates).tolist()
    return TreeNode(
        id=nid, depth=0,
        left=None if left == -1 else left,
        hist=hist_dict, total=sum(count_list), sum_clog2=sum_clog2,
        candidates=candidates,
        cand_total=sum(hist_dict[c] for c in candidates),
    )


def _link_nodes(nodes: list[TreeNode], max_depth: int) -> None:
    """Set each node's depth in one forward pass.  Children come after
    their parent, one parent each and none below ``max_depth``, so every
    descent ends within the buffers sized for it.  Every example a child
    counted passed through its parent first, so the two children together
    count no more examples than their parent."""
    if not nodes:
        raise CorruptedModelError("node table has no root")
    has_parent = [False] * len(nodes)
    for node in nodes:
        if node.id and not has_parent[node.id]:
            raise CorruptedModelError(f"node {node.id} is not the child of any node")
        if node.left is None:
            continue
        if node.left <= node.id:
            raise CorruptedModelError(f"node {node.id} names child {node.left}, which is not after it")
        if node.left + 1 >= len(nodes):
            raise CorruptedModelError(f"node {node.id} names child {node.left + 1} beyond the table")
        if node.depth == max_depth:
            raise CorruptedModelError(f"node {node.id} at max_depth {max_depth} has children")
        children = nodes[node.left], nodes[node.left + 1]
        for child in children:
            if has_parent[child.id]:
                raise CorruptedModelError(f"node {child.id} is the child of two nodes")
            has_parent[child.id] = True
            child.depth = node.depth + 1
        below = children[0].total + children[1].total
        if below > node.total:
            raise CorruptedModelError(
                f"node {node.id} has counted {node.total} examples, but its children {below}")


def _write_model(fh, model, tag: int) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack(_VERSION_AND_TYPE, FORMAT_VERSION, tag))
    if tag == TYPE_OAA:
        store = model.class_store
        flags = _FLAG_ADAPTIVE_LR if store.adaptive else 0
        fh.write(struct.pack(_OAA_HEADER, model.num_classes, model.examples_seen))
        fh.write(struct.pack(_OAA_SETTINGS, flags, store.bits, store.learning_rate))
        _write_store(fh, store)
        return
    p = model.params
    flags = 0
    if p.path_features:
        flags |= _FLAG_PATH_FEATURES
    if p.adaptive_lr:
        flags |= _FLAG_ADAPTIVE_LR
    fh.write(struct.pack(
        _TREE_HEADER,
        model.num_classes,
        p.max_depth,
        p.num_candidates,
        p.depth_penalty,
        flags,
        p.bits,
        p.learning_rate,
        model.num_raw_features,
        len(model.nodes),
    ))
    for node in model.nodes:
        _write_node(fh, node)
    _write_store(fh, model.router_store)
    _write_store(fh, model.class_store)


def save_model(model, path: str) -> None:
    """Serialize a tree or one-against-all model.

    The bytes go to a new file in ``path``'s directory, which is synced and
    then renamed over ``path``, so a save that fails or is cut short leaves
    the previous file whole.  The directory is synced after the rename.
    """
    if isinstance(model, RecallTreeModel):
        tag = TYPE_RECALL_TREE
    elif isinstance(model, OaaModel):
        tag = TYPE_OAA
    else:
        raise ModelTypeError(f"cannot serialize a {type(model).__name__}")

    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(8)}.tmp")
    # 0o666 less the umask, the mode open(path, "wb") gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            _write_model(fh, model, tag)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(head, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _check_header(fh) -> int:
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, tag = _read_struct(fh, _VERSION_AND_TYPE)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    if tag not in (TYPE_RECALL_TREE, TYPE_OAA):
        raise ModelFormatError(f"unknown model type tag {tag}")
    return tag


def _check_flags(flags: int, known: int) -> None:
    if flags & ~known:
        raise CorruptedModelError(f"unknown flags bits {flags & ~known:#04x}")


def _expect_eof(fh) -> None:
    if fh.read(1):
        raise CorruptedModelError("trailing bytes after model payload")


def _load_tree(fh) -> RecallTreeModel:
    """Every header field is checked before the node table or a weight
    table is read or allocated."""
    (num_classes, max_depth, num_candidates, depth_penalty, flags, bits, learning_rate,
     num_raw_features, node_count) = _read_struct(fh, _TREE_HEADER)
    _check_flags(flags, _FLAG_PATH_FEATURES | _FLAG_ADAPTIVE_LR)
    with _corrupt_if_rejected("tree header"):
        check_num_classes(num_classes)
        check_raw_features(num_raw_features)
        params = Hyperparams(max_depth=max_depth, num_candidates=num_candidates,
                             depth_penalty=depth_penalty, bits=bits, learning_rate=learning_rate,
                             path_features=bool(flags & _FLAG_PATH_FEATURES),
                             adaptive_lr=bool(flags & _FLAG_ADAPTIVE_LR))
    # a node record takes at least 16 bytes, and each store's count 8
    _check_left(fh, 16 * node_count + 16, "node table")
    nodes = [_read_node(fh, nid, num_classes, num_candidates) for nid in range(node_count)]
    _link_nodes(nodes, max_depth)
    stores = [_read_store(fh, bits, learning_rate, params.adaptive_lr) for _ in range(2)]
    _expect_eof(fh)

    return RecallTreeModel(num_classes, num_raw_features, params, _stores=stores, _nodes=nodes)


def _load_oaa(fh) -> OaaModel:
    num_classes, examples_seen = _read_struct(fh, _OAA_HEADER)
    with _corrupt_if_rejected("one-against-all header"):
        check_num_classes(num_classes)
    flags, bits, learning_rate = _read_struct(fh, _OAA_SETTINGS)
    _check_flags(flags, _FLAG_ADAPTIVE_LR)
    with _corrupt_if_rejected("one-against-all header"):
        check_store_settings(bits, learning_rate)
    store = _read_store(fh, bits, learning_rate, bool(flags & _FLAG_ADAPTIVE_LR))
    _expect_eof(fh)
    model = OaaModel(num_classes, _store=store)
    model.examples_seen = examples_seen
    return model


def load_model(path: str):
    """Load whichever model type the file holds."""
    with open(path, "rb") as fh:
        return _load_tree(fh) if _check_header(fh) == TYPE_RECALL_TREE else _load_oaa(fh)

