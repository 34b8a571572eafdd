"""Synthetic dataset generators: desk-scale problems with known structure.

Four families, chosen to probe different regimes:

* ``voronoi`` — points labeled by their nearest unit-norm center, the
  friendly case for a linear one-against-all;
* ``hierarchical-clusters`` — classes sit at the leaves of a random
  recursive axis-aligned partition of the unit box, the friendly case for
  a tree;
* ``zipf-tail`` — class frequencies fall off as 1/rank, so tail classes
  get only a handful of examples.  Classes share cluster prototypes
  (ranks interleaved across clusters), so the label stays ambiguous given
  the coordinates and separating classmates is a frequency-estimation
  problem, which is what sample starvation stresses;
* ``nonstationary-blocks`` — examples arrive sorted by label in long
  contiguous runs, rewarding learners that exploit sequential structure.

Every generated example carries a constant feature 1.0 at index 0 with the
coordinates at indices 1..dimensions, so linear scorers without an
intercept of their own can still place thresholds.  Generation is
deterministic under (spec, seed): the same spec writes a byte-identical
file.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass

import numpy as np

from .data import SparseExample
from .errors import DomainError

STRUCTURES = ("voronoi", "hierarchical-clusters", "zipf-tail", "nonstationary-blocks")

# Global coordinate scale.  One-pass logistic SGD at the stock unit
# learning rate needs per-update margin movement of order one; labels are
# assigned before scaling, so the geometry is unchanged.
FEATURE_SCALE = 4.0

# zipf-tail interleaves class ranks into clusters of ~this many classes;
# classmates share one prototype.
ZIPF_CLUSTER_SPAN = 40


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset."""

    structure: str
    num_classes: int
    dimensions: int
    num_examples: int
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise DomainError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if self.num_classes < 1:
            raise DomainError("num_classes must be >= 1")
        if self.dimensions < 1:
            raise DomainError("dimensions must be >= 1")
        if self.num_examples < 0:
            raise DomainError("num_examples must be >= 0")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise DomainError("noise must be >= 0")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BoxSplit:
    """Internal node of the recursive axis-aligned partition."""

    axis: int
    threshold: float
    below: "BoxSplit | int"
    above: "BoxSplit | int"


class HierarchicalPartition:
    """A random binary spatial partition with one class per leaf box.

    Boxes live in the centered cube [-scale/2, scale/2]^d.  Points are
    sampled from the central part of each leaf box (``gap`` is the margin
    fraction shaved off every side), so classes are separated by real
    spatial gaps and only ``classify`` thresholds touch the boundaries.
    """

    def __init__(self, num_classes: int, dimensions: int, rng: np.random.Generator,
                 scale: float = 1.0, gap: float = 0.15):
        self.dimensions = dimensions
        self.gap = gap
        self.boxes = np.empty((num_classes, dimensions, 2))
        half = scale / 2.0
        root_box = np.stack([np.full(dimensions, -half), np.full(dimensions, half)], axis=1)
        self.root = self._build(0, num_classes, root_box, rng)

    def _build(self, lo: int, hi: int, box: np.ndarray, rng: np.random.Generator):
        if hi - lo == 1:
            self.boxes[lo] = box
            return lo
        axis = int(rng.integers(self.dimensions))
        frac = rng.uniform(0.35, 0.65)
        a, b = box[axis]
        threshold = a + frac * (b - a)
        mid = (lo + hi) // 2
        below_box = box.copy()
        below_box[axis, 1] = threshold
        above_box = box.copy()
        above_box[axis, 0] = threshold
        return BoxSplit(
            axis=axis,
            threshold=threshold,
            below=self._build(lo, mid, below_box, rng),
            above=self._build(mid, hi, above_box, rng),
        )

    def classify(self, point: np.ndarray) -> int:
        node = self.root
        while isinstance(node, BoxSplit):
            node = node.below if point[node.axis] <= node.threshold else node.above
        return node

    def sample(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        lo = self.boxes[labels, :, 0]
        hi = self.boxes[labels, :, 1]
        side = hi - lo
        return lo + (self.gap + rng.uniform(size=lo.shape) * (1.0 - 2.0 * self.gap)) * side


def unit_norm_centers(num_classes: int, dimensions: int, rng: np.random.Generator) -> np.ndarray:
    centers = rng.normal(size=(num_classes, dimensions))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return centers / norms


def nearest_center_labels(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # squared distance argmin; ||c||^2 varies only when centers are not
    # unit-norm, so keep the full expression
    sq = (points * points).sum(axis=1, keepdims=True) \
        - 2.0 * points @ centers.T \
        + (centers * centers).sum(axis=1)[None, :]
    return np.argmin(sq, axis=1).astype(np.int64)


def _zipf_probs(num_classes: int) -> np.ndarray:
    p = 1.0 / np.arange(1, num_classes + 1, dtype=np.float64)
    return p / p.sum()


def zipf_cluster_count(num_classes: int) -> int:
    return max(2, math.ceil(num_classes / ZIPF_CLUSTER_SPAN))


def _generate_matrix(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense (num_examples, dimensions) feature matrix plus labels."""
    rng = np.random.default_rng(spec.seed)
    n, d, k = spec.num_examples, spec.dimensions, spec.num_classes

    if spec.structure == "voronoi":
        centers = unit_norm_centers(k, d, rng)
        anchors = rng.integers(k, size=n)
        points = centers[anchors] + spec.noise * rng.normal(size=(n, d))
        labels = nearest_center_labels(points, centers)
        return points * FEATURE_SCALE, labels

    if spec.structure == "hierarchical-clusters":
        # the partition is built in final coordinates; noise stays in
        # unit-box units so spec.noise reads the same for every structure
        partition = HierarchicalPartition(k, d, rng, scale=FEATURE_SCALE)
        labels = rng.integers(k, size=n)
        points = partition.sample(labels, rng)
        if spec.noise:
            points = points + spec.noise * FEATURE_SCALE * rng.normal(size=(n, d))
        return points, labels

    if spec.structure == "zipf-tail":
        labels = rng.choice(k, size=n, p=_zipf_probs(k))
        groups = zipf_cluster_count(k)
        prototypes = unit_norm_centers(groups, d, rng)
        points = prototypes[labels % groups] + spec.noise * rng.normal(size=(n, d))
        return points * FEATURE_SCALE, labels

    # nonstationary-blocks: blob structure, then sorted by label so the
    # stream arrives in long single-class runs
    labels = rng.integers(k, size=n)
    prototypes = unit_norm_centers(k, d, rng)
    points = prototypes[labels] + spec.noise * rng.normal(size=(n, d))
    order = np.argsort(labels, kind="stable")
    return points[order] * FEATURE_SCALE, labels[order]


def raw_feature_width(spec: SynthSpec) -> int:
    """Width of the raw feature space: the constant feature plus the
    coordinates."""
    return spec.dimensions + 1


def generate_examples(spec: SynthSpec) -> list[SparseExample]:
    """Materialize the dataset in memory as sparse examples."""
    points, labels = _generate_matrix(spec)
    indices = np.arange(spec.dimensions + 1, dtype=np.int64)
    rows = np.concatenate([np.ones((spec.num_examples, 1)), points], axis=1)
    return [
        SparseExample(int(labels[i]), indices, rows[i])
        for i in range(spec.num_examples)
    ]


def hierarchical_oracle(spec: SynthSpec) -> HierarchicalPartition:
    """The exact partition used by a hierarchical-clusters spec; at noise 0
    its ``classify`` reproduces every label from the example coordinates."""
    if spec.structure != "hierarchical-clusters":
        raise DomainError("oracle partition exists only for hierarchical-clusters")
    return HierarchicalPartition(spec.num_classes, spec.dimensions,
                                 np.random.default_rng(spec.seed), scale=FEATURE_SCALE)


def voronoi_centers(spec: SynthSpec) -> np.ndarray:
    """The centers drawn by a voronoi spec, for nearest-center oracles."""
    if spec.structure != "voronoi":
        raise DomainError("centers exist only for voronoi")
    return unit_norm_centers(spec.num_classes, spec.dimensions,
                             np.random.default_rng(spec.seed))


def synth_generate(spec: SynthSpec, path: str) -> None:
    """Write the dataset as dataset text; ``.gz`` paths are compressed.
    Deterministic: the same (spec, seed) yields a byte-identical file."""
    opener = gzip.open if str(path).endswith(".gz") else open
    points, labels = _generate_matrix(spec)
    with opener(path, "wt", encoding="utf-8") as fh:
        for i in range(spec.num_examples):
            row = points[i]
            feats = " ".join(f"{j + 1}:{row[j]:.6g}" for j in range(spec.dimensions))
            fh.write(f"{labels[i]} 0:1 {feats}\n")
