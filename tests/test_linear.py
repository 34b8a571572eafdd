import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recalltree.data import SparseExample
from recalltree.errors import DomainError
from recalltree.linear import MARGIN_CLAMP, WeightStore, key_salt, mix64_array, slot_matrix

from conftest import slot_of

KEY = ("class", 3)

# sigma(0.5) = 0.6224593312018546, so two unit-importance steps from a
# fresh store land at 0.5 - sigma(0.5)
TWO_STEP_WEIGHT = -0.1224593312018546

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """Reference splitmix64 finalizer in pure Python (the published one)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def reference_slot(role: str, ident: int, index: int, bits: int) -> int:
    salt = mix64((ident << 1) | {"router": 0, "class": 1}[role])
    return mix64(mix64(index) ^ salt) & ((1 << bits) - 1)


def unit_example(index: int) -> SparseExample:
    return SparseExample.from_pairs(0, [(index, 1.0)])


def example_slots(x: SparseExample, bits: int, key=KEY) -> np.ndarray:
    return slot_matrix(key_salt(*key), mix64_array(x.indices), bits)


def margin(store: WeightStore, x: SparseExample, key=KEY) -> float:
    return store.batch_margins(example_slots(x, store.bits, key), x.values)


def learn(store: WeightStore, x: SparseExample, importance: float, label: int, key=KEY) -> None:
    store.batch_learn(example_slots(x, store.bits, key), x.values, label, importance)


class TestSlot:
    def test_deterministic(self):
        assert slot_of(*KEY, 12345, 18) == slot_of(*KEY, 12345, 18)

    def test_range(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 2**40, size=100_000)
        s = slot_matrix(key_salt(*KEY), mix64_array(idx), 10)
        assert s.shape == (100_000,)
        assert ((0 <= s) & (s < 1024)).all()

    def test_distinct_roles_hash_apart(self):
        a = slot_of("router", 5, 7, 20)
        b = slot_of("class", 5, 7, 20)
        assert a != b  # not guaranteed in general, but these must differ here

    def test_bits_out_of_range(self):
        with pytest.raises(DomainError):
            slot_matrix(key_salt(*KEY), mix64_array([1]), 9)

    def test_scalar_and_vector_mix_agree(self):
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 2**63, size=2000).astype(np.uint64)
        vec = mix64_array(raw)
        for i in range(0, 2000, 97):
            assert int(vec[i]) == mix64(int(raw[i]))

    def test_slot_paths_agree(self):
        mixed = mix64_array(np.array([12345], dtype=np.uint64))
        s_direct = reference_slot(*KEY, 12345, 20)
        s_vector = int(slot_matrix(key_salt(*KEY), mixed, 20)[0])
        s_matrix = int(slot_matrix(key_salt("class", np.array([3])), mixed, 20)[0, 0])
        assert s_direct == s_vector == s_matrix

    def test_known_answers(self):
        # pinned so that no refactor silently re-keys saved models
        assert mix64(0) == 0xE220A8397B1DCDAF
        assert int(mix64_array(0)) == 0xE220A8397B1DCDAF
        for role, ident, index, bits, expected in [("class", 3, 12345, 20, 20523),
                                                   ("router", 0, 0, 14, 3503),
                                                   ("router", 5, 7, 24, 10912980)]:
            assert reference_slot(role, ident, index, bits) == expected
            assert slot_of(role, ident, index, bits) == expected

    def test_salts_of_many_ids_match_one_by_one(self):
        ids = np.arange(50)
        for role in ("router", "class"):
            salts = key_salt(role, ids)
            assert [int(key_salt(role, i)) for i in range(50)] == [int(v) for v in salts]
            assert int(salts[7]) == mix64((7 << 1) | (role == "class"))

    def test_chi_square_uniformity(self):
        # 10^6 distinct inputs into 2^10 buckets: at least 99% of buckets
        # within +-10% of the expected mass
        mixed = mix64_array(np.arange(10**6, dtype=np.uint64))
        slots = slot_matrix(key_salt("class", 0), mixed, 10)
        counts = np.bincount(slots, minlength=1024)
        expected = 10**6 / 1024
        within = np.mean((counts >= 0.9 * expected) & (counts <= 1.1 * expected))
        assert within >= 0.99


class TestMargin:
    def test_fresh_store_is_zero(self):
        store = WeightStore(bits=12)
        assert margin(store, unit_example(5)) == 0.0

    def test_single_term(self):
        store = WeightStore(bits=12)
        store.weights[slot_of(*KEY, 5, 12)] = 2.0
        assert margin(store, unit_example(5)) == pytest.approx(2.0)

    def test_duplicate_indices_add(self):
        store = WeightStore(bits=12)
        store.weights[slot_of(*KEY, 5, 12)] = 0.5
        x = SparseExample.from_pairs(0, [(5, 1.0), (5, 1.0)])
        assert margin(store, x) == pytest.approx(1.0)

    def test_empty_features(self):
        store = WeightStore(bits=12)
        assert margin(store, SparseExample.from_pairs(0, [])) == 0.0

    def test_linearity_on_disjoint_slots(self):
        store = WeightStore(bits=14)
        rng = np.random.default_rng(3)
        store.weights = rng.normal(size=store.weights.size).astype(np.float32)
        a = [(1, 0.5), (2, -1.5)]
        b = [(3, 2.0), (4, 0.25)]
        slots = {slot_of(*KEY, i, 14) for i, _ in a + b}
        assert len(slots) == 4  # this seed collides on none of them
        m_ab = margin(store, SparseExample.from_pairs(0, a + b))
        m_a = margin(store, SparseExample.from_pairs(0, a))
        m_b = margin(store, SparseExample.from_pairs(0, b))
        assert m_ab == pytest.approx(m_a + m_b, abs=1e-12)


class TestLearn:
    def test_first_step_is_half(self):
        store = WeightStore(bits=12)
        learn(store, unit_example(5), 1.0, +1)
        assert store.weights[slot_of(*KEY, 5, 12)] == pytest.approx(0.5)

    def test_zero_importance_is_noop(self):
        store = WeightStore(bits=12)
        learn(store, unit_example(5), 1.0, +1)
        before = store.weights.tobytes()
        learn(store, unit_example(5), 0.0, -1)
        assert store.weights.tobytes() == before

    def test_two_opposite_steps(self):
        store = WeightStore(bits=12)
        x = unit_example(5)
        learn(store, x, 1.0, +1)
        learn(store, x, 1.0, -1)
        assert store.weights[slot_of(*KEY, 5, 12)] == pytest.approx(TWO_STEP_WEIGHT, abs=1e-6)

    def test_nonfinite_importance_rejected(self):
        store = WeightStore(bits=12)
        with pytest.raises(DomainError):
            learn(store, unit_example(5), float("nan"), +1)
        with pytest.raises(DomainError):
            learn(store, unit_example(5), float("inf"), +1)

    def test_negative_importance_rejected(self):
        store = WeightStore(bits=12)
        with pytest.raises(DomainError):
            learn(store, unit_example(5), -1.0, +1)

    def test_bad_label_rejected(self):
        store = WeightStore(bits=12)
        with pytest.raises(DomainError):
            learn(store, unit_example(5), 1.0, 0)

    @given(label=st.sampled_from([-1, 1]),
           importance=st.floats(0.01, 5.0),
           value=st.floats(0.05, 3.0),
           start=st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_margin_moves_toward_label(self, label, importance, value, start):
        store = WeightStore(bits=12)
        x = SparseExample.from_pairs(0, [(9, value)])
        store.weights[slot_of(*KEY, 9, 12)] = start
        before = margin(store, x)
        learn(store, x, importance, label)
        after = margin(store, x)
        assert (after - before) * label > 0

    def test_gradient_matches_finite_differences(self):
        # the applied delta must equal -lr * d/dw of the importance-weighted
        # logistic loss, checked by central differences on a float64 replica
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            store = WeightStore(bits=12)
            store.weights = rng.normal(0, 0.3, size=store.weights.size).astype(np.float32)
            key = ("class", int(rng.integers(0, 50)))
            nnz = int(rng.integers(1, 25))
            idx = rng.integers(0, 5000, size=nnz)
            vals = rng.uniform(-2, 2, size=nnz)
            x = SparseExample(0, idx, vals)
            label = int(rng.choice([-1, 1]))
            importance = float(rng.uniform(0.1, 3.0))

            slots = example_slots(x, 12, key)
            w64 = store.weights.astype(np.float64).copy()
            before = store.weights.copy()
            learn(store, x, importance, label, key)
            applied = store.weights.astype(np.float64) - before.astype(np.float64)

            def loss(w):
                m = float(np.dot(w[slots], vals))
                return importance * math.log1p(math.exp(-label * m))

            h = 1e-5
            for s in np.unique(slots):
                plus, minus = w64.copy(), w64.copy()
                plus[s] += h
                minus[s] -= h
                fd = (loss(plus) - loss(minus)) / (2 * h)
                worst = max(worst, abs(applied[s] - (-fd)))
        assert worst < 1e-6


class TestBatchOps:
    def test_batch_margins_match_scalar(self):
        store = WeightStore(bits=14)
        rng = np.random.default_rng(7)
        store.weights = rng.normal(size=store.weights.size).astype(np.float32)
        idx = np.array([3, 8, 8, 100])
        vals = np.array([1.0, -0.5, 0.25, 2.0])
        x = SparseExample(0, idx, vals)
        batched = store.batch_margins(slot_matrix(key_salt("class", np.arange(6)),
                                                  mix64_array(idx), 14), vals)
        assert batched.shape == (6,)
        for i in range(6):
            assert batched[i] == pytest.approx(margin(store, x, ("class", i)), abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 5, 24])
    @pytest.mark.parametrize("n", [0, 1, 7, 33])
    def test_stacked_examples_match_one_by_one_bit_for_bit(self, k, n):
        store = WeightStore(bits=14)
        rng = np.random.default_rng(k * 100 + n)
        store.weights = rng.normal(size=store.weights.size).astype(np.float32)
        rows = 9
        salts = key_salt("class", rng.integers(0, 50, size=(rows, k)))
        mixed = mix64_array(rng.integers(0, 1000, size=(rows, n)))
        vals = rng.normal(size=(rows, n))
        slots = slot_matrix(salts, mixed[:, None, :], 14)
        assert slots.shape == (rows, k, n)
        stacked = store.batch_margins(slots, vals[..., None])[..., 0]
        for r in range(rows):
            one = slot_matrix(salts[r], mixed[r], 14)
            assert np.array_equal(slots[r], one)
            assert np.array_equal(stacked[r], store.batch_margins(one, vals[r]))
            if k == 1:  # a router: one 1-D dot per example
                assert stacked[r, 0] == store.batch_margins(one[0], vals[r])

    def test_batch_learn_matches_sequential_when_slots_disjoint(self):
        # a k-row step equals k one-row steps when no two rows share a slot
        idx = np.array([11, 222])
        vals = np.array([1.0, -0.75])
        slots = slot_matrix(key_salt("class", np.arange(4)), mix64_array(idx), 14)
        assert len(set(slots.ravel().tolist())) == slots.size  # disjoint here

        batch_store = WeightStore(bits=14)
        labels = np.array([1.0, -1.0, -1.0, -1.0])
        batch_store.batch_learn(slots, vals, labels, importance=1.0)

        seq_store = WeightStore(bits=14)
        for row, lab in zip(slots, labels):
            seq_store.batch_learn(row, vals, int(lab), importance=1.0)
        assert np.array_equal(batch_store.weights, seq_store.weights)


class TestLearnReturnsTheMargin:
    # raw index 5 twice, so two features of the row share a slot
    INDICES = np.array([5, 17, 5, 900])
    VALUES = np.array([0.5, -1.25, 2.0, 0.75])

    def _row(self, store):
        slots = slot_matrix(key_salt(*KEY), mix64_array(self.INDICES), store.bits)
        assert slots[0] == slots[2] and len(set(slots.tolist())) == 3
        return slots

    @staticmethod
    def reference_step(store, slots, values, label, importance):
        """The step on ufuncs alone: clamp, sigmoid and delta as numpy arrays."""
        m = np.minimum(np.maximum(store.batch_margins(slots, values), -MARGIN_CLAMP), MARGIN_CLAMP)
        g = 1.0 / (1.0 + np.exp(label * m))
        if store.adaptive:
            grads = (importance * label * g)[..., None] * values
            np.add.at(store._grad_sq, slots, grads * grads)
            deltas = store.learning_rate * grads / (np.sqrt(store._grad_sq[slots]) + 1e-12)
        else:
            deltas = (store.learning_rate * importance * label * g)[..., None] * values
        np.add.at(store.weights, slots, deltas.astype(np.float32))

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("importance", [0.0, 0.3, 7.0])
    def test_one_scorer_gets_its_margin_after_the_step(self, adaptive, importance):
        store = WeightStore(bits=12, learning_rate=0.5, adaptive=adaptive)
        store.weights[:] = np.random.default_rng(5).normal(0, 0.3, size=store.weights.size)
        slots = self._row(store)
        for label in (1, -1, -1, 1):
            before = store.weights.tobytes()
            got = store.batch_learn(slots, self.VALUES, label, importance)
            assert type(got) is float
            after = store.batch_margins(slots, self.VALUES)
            assert np.float64(got).tobytes() == np.float64(after).tobytes()
            assert (store.weights.tobytes() == before) == (importance == 0.0)

    # margins of 0, inside the clamp, at it, beyond it on both sides, and NaN
    @pytest.mark.parametrize("weight", [0.0, 0.3, 25.0, 40.0, -40.0, float("nan")])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_one_scorer_step_matches_the_ufunc_step_bit_for_bit(self, weight, adaptive):
        stores = [WeightStore(bits=12, learning_rate=0.5, adaptive=adaptive) for _ in range(2)]
        slots = self._row(stores[0])
        for store in stores:
            store.weights[slots] = weight
        for label in (1, -1):
            got = stores[0].batch_learn(slots, self.VALUES, label, 1.5)
            self.reference_step(stores[1], slots, self.VALUES, label, 1.5)
            assert stores[0].weights.tobytes() == stores[1].weights.tobytes()
            if adaptive:
                assert stores[0]._grad_sq.tobytes() == stores[1]._grad_sq.tobytes()
            after = stores[1].batch_margins(slots, self.VALUES)
            assert np.float64(got).tobytes() == np.float64(after).tobytes()

    @pytest.mark.parametrize("importance", [0.0, 1.0])
    def test_many_scorers_return_nothing(self, importance):
        store = WeightStore(bits=12)
        slots = slot_matrix(key_salt("class", np.arange(4)), mix64_array(self.INDICES), 12)
        labels = np.array([1.0, -1.0, -1.0, -1.0])
        assert store.batch_learn(slots, self.VALUES, labels, importance) is None


class TestAdaptive:
    def test_first_adaptive_step_is_learning_rate_sized(self):
        # AdaGrad-style: the first touch of a slot steps by ~lr regardless
        # of how small the importance is
        store = WeightStore(bits=12, learning_rate=0.25, adaptive=True)
        learn(store, unit_example(5), 1e-6, +1)
        assert store.weights[slot_of(*KEY, 5, 12)] == pytest.approx(0.25, rel=1e-4)

    def test_plain_step_scales_with_importance(self):
        store = WeightStore(bits=12, learning_rate=0.25, adaptive=False)
        learn(store, unit_example(5), 1e-6, +1)
        assert store.weights[slot_of(*KEY, 5, 12)] == pytest.approx(0.25 * 1e-6 * 0.5, rel=1e-3)


class TestWeightStoreValidation:
    @pytest.mark.parametrize("bits", [9, 31])
    def test_bits_bounds(self, bits):
        with pytest.raises(DomainError):
            WeightStore(bits=bits)

    def test_store_size(self):
        assert WeightStore(bits=10).weights.size == 1024

    def test_learning_rate_positive(self):
        with pytest.raises(DomainError):
            WeightStore(bits=12, learning_rate=0.0)
