"""Hashed weight stores and the importance-weighted binary logistic learner.

All routers share one store and all class scorers share another, so the
whole model costs a fixed ``2 * 2^bits`` floats regardless of the number
of classes or raw features.  Slots are assigned by the published
splitmix64 finalizer applied to ``mix(index) ^ salt(role, id)``, truncated
to the low ``bits`` bits; collisions within a store are accepted silently.

There is one path for each job: ``mix64_array`` hashes, ``key_salt``
derives scorer salts, ``slot_matrix`` assigns slots, and
``WeightStore.batch_margins`` / ``WeightStore.batch_learn`` score and
update one scorer (1-D slots) or many scorers of one example (2-D slots).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_ONE = np.uint64(1)

ROLE_ROUTER = "router"
ROLE_CLASS = "class"
_ROLE_CODE = {ROLE_ROUTER: np.uint64(0), ROLE_CLASS: np.uint64(1)}

MARGIN_CLAMP = 50.0

# slot mask of each legal table width
_MASKS = {bits: np.uint64((1 << bits) - 1) for bits in range(10, 31)}


def _check_bits(bits: int) -> None:
    if bits not in _MASKS:
        raise DomainError(f"bits must be in [10, 30], got {bits}")


def check_store_settings(bits: int, learning_rate: float) -> None:
    """Refuse a table width or a learning rate that no store takes."""
    _check_bits(bits)
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise DomainError("learning_rate must be a positive finite real")


def _finalize(x: np.ndarray) -> None:
    """splitmix64 finalizer, in place on a uint64 array."""
    x += _GOLDEN
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31


def mix64_array(a) -> np.ndarray:
    """splitmix64 finalizer, elementwise; the uint64 result has the shape
    of ``a`` (an int gives a 0-d array)."""
    # a fresh array of at least one dimension: array arithmetic wraps
    # modulo 2^64 silently where numpy scalar arithmetic would warn
    x = np.array(a, dtype=np.uint64, ndmin=1)
    _finalize(x)
    return x.reshape(np.shape(a))


def key_salt(role: str, ids):
    """Salt of the scorer(s) ``ids`` (an int or an integer array) of a role.

    splitmix64 is a bijection, so distinct (role, id) pairs get distinct
    salts.
    """
    return mix64_array((np.asarray(ids, dtype=np.uint64) << _ONE) | _ROLE_CODE[role])


def slot_matrix(salts, mixed: np.ndarray, bits: int) -> np.ndarray:
    """Slots of pre-mixed feature indices in a ``2^bits`` table.

    ``salts`` is uint64 as ``key_salt`` gives it (a 0-d array, an
    ``np.uint64`` scalar or an array), and ``salts[..., None]`` broadcasts
    against ``mixed``: a 0-d salt gives an ``(n,)`` row, ``(k,)`` salts give
    a ``(k, n)`` table (one row per scorer), and ``(rows, k)`` salts with
    ``(rows, 1, n)`` features give a ``(rows, k, n)`` stack, one table per
    example.
    """
    _check_bits(bits)
    # a 0-d salt broadcasts as it is; an added axis costs each router level
    x = (salts[..., None] if salts.ndim else salts) ^ mixed
    _finalize(x)
    x &= _MASKS[bits]
    return x.view(np.int64)


class WeightStore:
    """A dense ``2^bits`` float32 table of weights shared by many scorers.

    ``adaptive`` turns on an AdaGrad-style per-slot accumulator; it is off
    by default so runs are exactly reproducible.  Saved models keep the
    accumulator, so training resumed after a load takes the same steps.
    A loader passes ``_zeros``, the ``np.zeros`` stand-in that allocates
    each table on the pages that suit the slots it is about to fill.
    """

    def __init__(self, bits: int, learning_rate: float = 1.0, adaptive: bool = False,
                 *, _zeros=np.zeros):
        check_store_settings(bits, learning_rate)
        self.bits = bits
        self.learning_rate = float(learning_rate)
        self.adaptive = bool(adaptive)
        self.weights = _zeros(1 << bits, dtype=np.float32)
        self._grad_sq = _zeros(1 << bits, dtype=np.float64) if adaptive else None

    def batch_margins(self, slots: np.ndarray, values: np.ndarray):
        """Sum of value * weight over an example's features; duplicates add.

        ``slots`` is ``(n_feats,)`` for one scorer (a float64 scalar comes
        back) or ``(n_keys, n_feats)`` for many (one margin per row).  A
        stack of examples passes ``(rows, n_keys, n_feats)`` slots with
        ``(rows, n_feats, 1)`` values and gets ``(rows, n_keys, 1)``
        margins: matmul runs the same BLAS dot or matrix-vector product on
        each example as on it alone, so stacking changes no bit.
        """
        return self.weights[slots].astype(np.float64) @ values

    def batch_learn(self, slots: np.ndarray, values: np.ndarray, labels,
                    importance: float = 1.0) -> float | None:
        """Importance-weighted logistic SGD step for the scorers of one example.

        ``slots`` is ``(n_feats,)`` with one label of +1 or -1, or
        ``(n_keys, n_feats)`` with one label per row.  All pre-update
        margins are read first, clamped to ±MARGIN_CLAMP before the sigmoid
        so weights stay finite, then every delta is applied, so the result
        does not depend on scorer order except through float accumulation
        at colliding slots.  ``importance == 0`` is a no-op.

        The 1-D form returns the scorer's margin after the step, as a float
        equal to ``batch_margins`` of the updated weights, so a caller that
        acts on it needs no second margin call; the 2-D form returns None.
        """
        if not math.isfinite(importance):
            raise DomainError(f"importance must be finite, got {importance}")
        if importance < 0:
            raise DomainError(f"importance must be non-negative, got {importance}")
        one = slots.ndim == 1
        if one and labels not in (1, -1):
            raise DomainError(f"label must be +1 or -1, got {labels}")
        if importance == 0.0 or slots.size == 0:
            return float(self.batch_margins(slots, values)) if one else None
        m = self.batch_margins(slots, values)
        if one:
            # Python's min and max give the ufuncs' result, NaN included,
            # without their per-call cost
            m = min(max(m, -MARGIN_CLAMP), MARGIN_CLAMP)
        else:
            m = np.minimum(np.maximum(m, -MARGIN_CLAMP), MARGIN_CLAMP)[:, None]
            labels = np.asarray(labels)[:, None]
        g = 1.0 / (1.0 + np.exp(labels * m))  # sigmoid(-label * m)
        if self.adaptive:
            grads = importance * labels * g * values
            np.add.at(self._grad_sq, slots.ravel(), (grads * grads).ravel())
            deltas = self.learning_rate * grads / (np.sqrt(self._grad_sq[slots]) + 1e-12)
        else:
            deltas = self.learning_rate * importance * labels * g * values
        np.add.at(self.weights, slots.ravel(), deltas.ravel().astype(np.float32))
        return float(self.batch_margins(slots, values)) if one else None
