"""Model-based (stateful hypothesis) tests for the cache structures.

A reference model written with plain dicts/lists shadows the production
structure through arbitrary operation sequences; any divergence fails.
This style catches interaction bugs (LRU vs pinning vs invalidation)
that example-based tests tend to miss.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.params import CacheParams
from repro.coherence.cachearray import CacheArray
from repro.coherence.directory import Directory
from repro.coherence.states import MESI

LINES = st.integers(0, 15)
STATES = st.sampled_from([MESI.S, MESI.E, MESI.M])
CORES = st.integers(0, 3)


class CacheArrayModel(RuleBasedStateMachine):
    """CacheArray vs a reference LRU model (2 sets x 2 ways)."""

    sets = 2
    ways = 2

    def __init__(self):
        super().__init__()
        self.arr = CacheArray(
            CacheParams(self.sets * self.ways * 64, self.ways, 2)
        )
        # Reference: per-set list of (line, state), LRU first.
        self.ref = {s: [] for s in range(self.sets)}

    def _set(self, line):
        return line % self.sets

    @rule(line=LINES, state=STATES)
    def insert(self, line, state):
        victim = self.arr.insert(line, state)
        ways = self.ref[self._set(line)]
        existing = next((e for e in ways if e[0] == line), None)
        if existing:
            ways.remove(existing)
            ways.append((line, state))
            assert victim is None
        else:
            if len(ways) >= self.ways:
                evicted = ways.pop(0)
                assert victim is not None
                assert victim.line == evicted[0]
                assert victim.state == evicted[1]
            else:
                assert victim is None
            ways.append((line, state))

    @rule(line=LINES)
    def invalidate(self, line):
        prior = self.arr.invalidate(line)
        ways = self.ref[self._set(line)]
        existing = next((e for e in ways if e[0] == line), None)
        if existing:
            ways.remove(existing)
            assert prior == existing[1]
        else:
            assert prior == MESI.I

    @rule(line=LINES)
    def touch_if_present(self, line):
        ways = self.ref[self._set(line)]
        existing = next((e for e in ways if e[0] == line), None)
        if existing:
            self.arr.touch(line)
            ways.remove(existing)
            ways.append(existing)

    @rule(line=LINES, state=STATES)
    def set_state_if_present(self, line, state):
        ways = self.ref[self._set(line)]
        existing = next((e for e in ways if e[0] == line), None)
        if existing:
            self.arr.set_state(line, state)
            idx = ways.index(existing)
            ways[idx] = (line, state)

    @invariant()
    def states_agree(self):
        for idx, ways in self.ref.items():
            for line, state in ways:
                assert self.arr.probe(line) == state
        total = sum(len(w) for w in self.ref.values())
        assert len(self.arr) == total
        self.arr.check_invariants()


class ReferenceCacheArrayModel(CacheArrayModel):
    """The same reference model on a fully associative 4-way array,
    where the LRU order is deepest and every line competes for one set."""

    sets = 1
    ways = 4


TestCacheArrayModel = CacheArrayModel.TestCase
TestCacheArrayModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)

TestReferenceCacheArrayModel = ReferenceCacheArrayModel.TestCase
TestReferenceCacheArrayModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class DirectoryModel(RuleBasedStateMachine):
    """Directory vs a reference {line: (owner, sharers)} model."""

    def __init__(self):
        super().__init__()
        self.dir = Directory()
        self.ref = {}

    def _entry(self, line):
        return self.ref.setdefault(line, [-1, set()])

    @rule(line=LINES, core=CORES)
    def set_exclusive(self, line, core):
        self.dir.set_exclusive(line, core)
        e = self._entry(line)
        e[0] = core
        e[1] = set()

    @rule(line=LINES, core=CORES)
    def add_sharer_if_legal(self, line, core):
        e = self._entry(line)
        if e[0] >= 0 and e[0] != core:
            return  # illegal; covered by unit tests
        self.dir.add_sharer(line, core)
        if e[0] != core:
            e[1].add(core)

    @rule(line=LINES, core=CORES)
    def remove_copy(self, line, core):
        self.dir.remove_copy(line, core)
        e = self._entry(line)
        if e[0] == core:
            e[0] = -1
        e[1].discard(core)

    @rule(line=LINES)
    def demote_if_owned(self, line):
        e = self._entry(line)
        if e[0] >= 0:
            self.dir.demote_owner_to_sharer(line)
            e[1].add(e[0])
            e[0] = -1

    @invariant()
    def copies_agree(self):
        for line, (owner, sharers) in self.ref.items():
            expected = {owner} if owner >= 0 else set(sharers)
            assert self.dir.copies(line) == expected
            assert self.dir.owner_of(line) == owner


TestDirectoryModel = DirectoryModel.TestCase
TestDirectoryModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
