"""LLC overflow signatures for the HTMLock mechanism (§III-B, Fig. 5).

Inspired by LogTM-SE, the LLC holds two hash signatures — ``OfRdSig`` and
``OfWrSig`` — recording the lines of the HTMLock-mode transaction's read
and write sets that overflowed out of its L1.  Membership tests are
conservative (Bloom-filter false positives reject harmless requests but
never miss a real conflict), which is safe: a false positive only costs a
retry, a false negative would let an HTM transaction read or steal data
the irrevocable lock transaction depends on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ConfigError


def _mix64(x: int) -> int:
    x &= (1 << 64) - 1
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return x ^ (x >> 31)


class BloomSignature:
    """Fixed-size Bloom filter over cache-line addresses.

    The bit array is a ``bytearray`` with one byte per bit plus a count
    of the set bits, so a membership test is ``k`` byte probes and
    ``popcount``/``empty`` are attribute reads.  The ``k`` indices come
    from double hashing of a 64-bit mix.
    """

    __slots__ = (
        "bits", "hashes", "_array", "_set", "_mask", "_salt", "inserted",
        "chaos_fp",
    )

    def __init__(self, bits: int = 2048, hashes: int = 4, seed: int = 0) -> None:
        if bits <= 0 or bits & (bits - 1):
            raise ConfigError("signature size must be a positive power of two")
        if hashes <= 0:
            raise ConfigError("need at least one hash function")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray(bits)
        #: Number of set bits (one byte per bit in ``_array``).
        self._set = 0
        self._mask = bits - 1
        self._salt = seed * 0x9E3779B97F4A7C15
        self.inserted = 0
        #: Fault-injection hook: () -> bool, True forces a spurious
        #: membership hit.  Safe by construction — Bloom signatures are
        #: conservative, so extra false positives only cost retries.
        self.chaos_fp: Optional[Callable[[], bool]] = None

    def insert(self, line: int) -> None:
        h = _mix64(line ^ self._salt)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1  # odd => full-period double hashing
        mask = self._mask
        array = self._array
        for i in range(self.hashes):
            idx = (h1 + i * h2) & mask
            if not array[idx]:
                array[idx] = 1
                self._set += 1
        self.inserted += 1

    def test(self, line: int) -> bool:
        if not self._set:
            return False  # an empty signature never reports a hit
        h = _mix64(line ^ self._salt)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        mask = self._mask
        array = self._array
        for i in range(self.hashes):
            if not array[(h1 + i * h2) & mask]:
                chaos_fp = self.chaos_fp
                return chaos_fp is not None and chaos_fp()
        return True

    def clear(self) -> None:
        if self._set:
            self._array = bytearray(self.bits)
            self._set = 0
        self.inserted = 0

    @property
    def empty(self) -> bool:
        return not self._set

    @property
    def popcount(self) -> int:
        return self._set

    def false_positive_rate(self) -> float:
        """Current theoretical FP probability given the fill level."""
        fill = self._set / self.bits
        return fill**self.hashes
