"""Unit and property tests for the LLC overflow signatures (§III-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.signatures import BloomSignature


class TestBasics:
    def test_empty_initially(self):
        sig = BloomSignature(256, 2)
        assert sig.empty
        assert not sig.test(1)

    def test_insert_then_test(self):
        sig = BloomSignature(256, 2)
        sig.insert(7)
        assert sig.test(7)
        assert not sig.empty
        assert sig.inserted == 1

    def test_clear(self):
        sig = BloomSignature(256, 2)
        sig.insert(7)
        sig.clear()
        assert sig.empty
        assert not sig.test(7)
        assert sig.inserted == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            BloomSignature(100, 2)

    def test_rejects_zero_hashes(self):
        with pytest.raises(ConfigError):
            BloomSignature(256, 0)

    def test_seed_changes_mapping(self):
        a = BloomSignature(64, 1, seed=1)
        b = BloomSignature(64, 1, seed=2)
        a.insert(5)
        b.insert(5)
        assert a._array != b._array or True  # mappings may rarely coincide
        # but at least the constructors accept distinct seeds
        assert a.hashes == b.hashes

    def test_popcount_grows(self):
        sig = BloomSignature(2048, 4)
        before = sig.popcount
        sig.insert(10)
        assert sig.popcount > before

    def test_false_positive_rate_monotone(self):
        sig = BloomSignature(256, 4)
        assert sig.false_positive_rate() == 0.0
        for i in range(50):
            sig.insert(i)
        assert 0 < sig.false_positive_rate() <= 1.0


class TestNoFalseNegatives:
    """A Bloom signature must never miss a real member — missing one
    would let an HTM transaction steal the irrevocable lock
    transaction's data (§III-B)."""

    @given(st.sets(st.integers(0, 2**40), max_size=200))
    @settings(max_examples=80)
    def test_every_inserted_line_tests_positive(self, lines):
        sig = BloomSignature(1024, 4, seed=3)
        for ln in lines:
            sig.insert(ln)
        for ln in lines:
            assert sig.test(ln)

    @given(st.sets(st.integers(0, 2**30), min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_clear_then_reinsert(self, lines):
        sig = BloomSignature(512, 2)
        for ln in lines:
            sig.insert(ln)
        sig.clear()
        sig.insert(99)
        assert sig.test(99)


class TestFalsePositiveBehaviour:
    def test_fp_rate_reasonable_at_paper_size(self):
        # Table-defaults: 2048 bits, 4 hashes; a 200-line overflow set
        # (a big labyrinth spill) should stay well under 10% FP.
        sig = BloomSignature(2048, 4)
        members = set(range(0, 200 * 64, 64))
        for ln in members:
            sig.insert(ln)
        probes = [ln for ln in range(1_000_000, 1_002_000) if ln not in members]
        fp = sum(sig.test(ln) for ln in probes) / len(probes)
        assert fp < 0.10

    def test_saturated_signature_rejects_everything(self):
        sig = BloomSignature(64, 1)
        for ln in range(500):
            sig.insert(ln)
        # Fully saturated -> conservative: everything tests positive.
        assert all(sig.test(ln) for ln in range(1000, 1010))


_M64 = (1 << 64) - 1


def _mix64(x):
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class _IntFieldSignature:
    """Reference oracle: the int-field Bloom signature the simulator used
    before its bit array became a ``bytearray`` (same ``_mix64`` double
    hashing, one Python int as the bit array)."""

    def __init__(self, bits, hashes, seed):
        self.bits = bits
        self.hashes = hashes
        self._field = 0
        self.inserted = 0
        self._seed = seed
        self.chaos_fp = None

    def _indices(self, line):
        h = _mix64(line ^ (self._seed * 0x9E3779B97F4A7C15))
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        mask = self.bits - 1
        for i in range(self.hashes):
            yield (h1 + i * h2) & mask

    def insert(self, line):
        for idx in self._indices(line):
            self._field |= 1 << idx
        self.inserted += 1

    def test(self, line):
        for idx in self._indices(line):
            if not (self._field >> idx) & 1:
                return (
                    self.chaos_fp is not None
                    and not self.empty
                    and self.chaos_fp()
                )
        return True

    def clear(self):
        self._field = 0
        self.inserted = 0

    @property
    def empty(self):
        return self._field == 0

    @property
    def popcount(self):
        return bin(self._field).count("1")

    def false_positive_rate(self):
        return (self.popcount / self.bits) ** self.hashes


def _chaos_stream(pattern):
    """A chaos_fp hook replaying ``pattern`` cyclically; counts calls."""
    state = {"calls": 0}

    def draw():
        state["calls"] += 1
        return pattern[(state["calls"] - 1) % len(pattern)]

    return draw, state


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 2**40)),
        st.tuples(st.just("test"), st.integers(0, 2**40)),
        st.tuples(st.just("test"), st.integers(0, 63)),
        st.tuples(st.just("clear"), st.just(0)),
    ),
    max_size=120,
)


class TestMatchesIntFieldOracle:
    """The bytearray signature answers exactly as the int-field one did:
    every membership result (false positives included), every chaos_fp
    draw, and the fill statistics telemetry publishes."""

    @given(
        st.sampled_from(
            [(8, 1, 0), (64, 1, 3), (64, 3, 1), (256, 2, 1),
             (1024, 4, 2), (2048, 4, 1), (2048, 4, 2), (4096, 8, 7)]
        ),
        _OPS,
        st.one_of(st.none(), st.lists(st.booleans(), min_size=1, max_size=5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_insert_test_clear_sequences(self, geometry, ops, pattern):
        bits, hashes, seed = geometry
        new = BloomSignature(bits, hashes, seed=seed)
        ref = _IntFieldSignature(bits, hashes, seed)
        if pattern is not None:
            new.chaos_fp, new_calls = _chaos_stream(pattern)
            ref.chaos_fp, ref_calls = _chaos_stream(pattern)
        for op, line in ops:
            if op == "insert":
                new.insert(line)
                ref.insert(line)
            elif op == "test":
                assert new.test(line) == ref.test(line)
            else:
                new.clear()
                ref.clear()
            assert new.popcount == ref.popcount
            assert new.empty == ref.empty
            assert new.inserted == ref.inserted
            assert new.false_positive_rate() == ref.false_positive_rate()
        if pattern is not None:
            assert new_calls == ref_calls
