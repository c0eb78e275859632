"""The memory subsystem: private L1s, shared inclusive LLC + directory,
transactional conflict detection, and the LockillerTM mechanisms.

Every memory access resolves *event-atomically* at its issue event: the
directory lookup, conflict resolution, state transitions and victim
aborts all happen at once, and the caller receives the total latency to
schedule its continuation.  Because the event engine totally orders
events, this preserves the blocking-directory semantics (per-line
``busy_until`` models the transient-state window) while keeping the
simulator fast.

:meth:`MemorySystem.access` returns a granted access's latency as a
plain ``int``; only a rejected (NACKed) or overflowing access returns an
:class:`AccessResult`.  A grant — L1 hit, middle-cache hit or directory
miss — builds no result or conflict record.

Conflict detection is eager (on the request path), exactly like the
modeled best-effort HTM: the global ``tx_readers`` / ``tx_writers`` maps
index which cores hold each line transactionally, and the two LLC
overflow signatures cover the HTMLock-mode transaction's spilled lines.

The tracking maps store **core bitmasks** (one int per line, bit
``1 << core``), mirroring how limited-set HTMs keep per-line sharer
metadata as compact bit vectors: the conflict pre-check is two dict
probes and an integer compare, membership updates are bit ops with no
set allocation, and holder enumeration walks the set bits in ascending
core order — which equals the CPython small-int set iteration order the
previous representation exposed for the modeled core counts (see
docs/PERFORMANCE.md PR 8 for the determinism argument).  A request that
finds no exact holder and no signature hit is granted on the spot and
counted as a grant; only a real conflict builds
:class:`~repro.core.conflict.HolderInfo` records for the conflict
manager's :meth:`~repro.core.conflict.ConflictManager.resolve`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.common.errors import ProtocolInvariantError
from repro.common.params import SystemParams
from repro.common.stats import AbortReason, CoreStats
from repro.coherence.cachearray import CacheArray
from repro.coherence.directory import DirEntry, Directory
from repro.coherence.states import MESI
from repro.core.conflict import ConflictManager, HolderInfo, RequesterInfo
from repro.core.signatures import BloomSignature
from repro.htm.txstate import TxMode, TxState
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology

# Statuses of an access that was not granted.
REJECT = 1
OVERFLOW = 2

#: Modes whose accesses are tracked in read/write sets (hot-path const).
_TRACK_MODES = (TxMode.HTM, TxMode.TL, TxMode.STL)


class AccessResult:
    """An access that was not granted: REJECT (NACK) or OVERFLOW."""

    __slots__ = ("status", "latency", "reject_holder", "reject_by_lock")

    def __init__(
        self,
        status: int,
        latency: int,
        reject_holder: int = -1,
        reject_by_lock: bool = False,
    ) -> None:
        self.status = status
        self.latency = latency
        self.reject_holder = reject_holder
        self.reject_by_lock = reject_by_lock


class MemorySystem:
    """All caches plus the functional memory image."""

    def __init__(
        self,
        params: SystemParams,
        topology: MeshTopology,
        network: NetworkModel,
        manager: ConflictManager,
        core_stats: List[CoreStats],
        tile_of_core: Callable[[int], int],
    ) -> None:
        self.params = params
        self.topology = topology
        self.network = network
        self.manager = manager
        self.core_stats = core_stats
        n = params.num_cores
        #: Hot-path constants: core->tile map and tile count, lifted out
        #: of the per-access method calls on the directory miss path.
        self._tile_of = [tile_of_core(c) for c in range(n)]
        self._n_tiles = topology.num_tiles
        self.l1s: List[CacheArray] = [CacheArray(params.l1) for _ in range(n)]
        #: MESI-Three-Level-HTM mode (§IV-A): a private middle cache per
        #: core maintains the transactional data.  None = two-level.
        self.l2s: Optional[List[CacheArray]] = (
            [CacheArray(params.l2private) for _ in range(n)]
            if params.l2private is not None
            else None
        )
        self.llc = CacheArray(params.llc)
        #: Hot-path constants lifted out of the nested frozen-dataclass
        #: attribute chains: latencies, and the associativity of the
        #: outermost private level (where transactional data lives).
        self._l1_hit_latency = params.l1.hit_latency
        self._llc_hit_latency = params.llc.hit_latency
        self._mem_latency = params.memory.latency
        if params.l2private is None:
            self._l2_hit_latency = 0
            self._outer_assoc = params.l1.assoc
        else:
            self._l2_hit_latency = (
                params.l1.hit_latency + params.l2private.hit_latency
            )
            self._outer_assoc = params.l2private.assoc
        self.directory = Directory()
        #: The directory's line -> entry map, read and filled in place
        #: by the miss path.
        self._dir_entries = self.directory.entries
        #: Committed functional memory image (word address -> value).
        self.memory: Dict[int, int] = {}
        #: line -> bitmask of cores holding it in a transactional read
        #: set (bit ``1 << core``); absent line == empty mask.
        self.tx_readers: Dict[int, int] = {}
        self.tx_writers: Dict[int, int] = {}
        #: Registered per-core transactional state (wired by Machine).
        self.tx_states: List[TxState] = []
        #: HTMLock overflow signatures; valid while ``sig_owner >= 0``.
        self.of_rd_sig = BloomSignature(
            params.htm.signature_bits, params.htm.signature_hashes, seed=1
        )
        self.of_wr_sig = BloomSignature(
            params.htm.signature_bits, params.htm.signature_hashes, seed=2
        )
        self.sig_owner: int = -1
        #: Victim-abort callback, wired by Machine:
        #: abort_core(core, reason, now).
        self.abort_core: Callable[[int, AbortReason, int], None] = (
            self._unwired_abort
        )
        #: Debug mode: run SWMR checks after every access (slow).
        self.paranoid = False
        self.signature_spills = 0
        self.signature_rejects = 0
        #: Fault injector (reject storm), wired by the Machine when a
        #: FaultPlan is armed; None = no injection, zero overhead.
        self.chaos = None

    @staticmethod
    def _unwired_abort(core: int, reason: AbortReason, now: int) -> None:
        raise ProtocolInvariantError("abort callback not wired")

    def reset(self, core_stats: List[CoreStats]) -> None:
        """Return to the just-constructed state (machine-pool reuse).

        Caches, directory, functional memory, tracking maps, signatures
        and counters all start over; the caller re-wires ``tx_states``
        after rebuilding its CPUs.
        """
        self.core_stats = core_stats
        for l1 in self.l1s:
            l1.reset()
        if self.l2s is not None:
            for l2 in self.l2s:
                l2.reset()
        self.llc.reset()
        self.directory.reset()
        self.memory.clear()
        self.tx_readers.clear()
        self.tx_writers.clear()
        self.tx_states = []
        self.of_rd_sig.clear()
        self.of_wr_sig.clear()
        self.sig_owner = -1
        self.paranoid = False
        self.signature_spills = 0
        self.signature_rejects = 0
        self.chaos = None

    # ------------------------------------------------------------------
    # Functional value plane
    # ------------------------------------------------------------------

    def functional_load(self, core: int, addr: int) -> int:
        tx = self.tx_states[core]
        val = self.memory.get(addr, 0)
        if tx.mode is TxMode.HTM:
            val += tx.write_buffer.get(addr, 0)
        return val

    def functional_store(self, core: int, addr: int, delta: int) -> None:
        tx = self.tx_states[core]
        if tx.mode is TxMode.HTM:
            tx.buffer_store(addr, delta)
        else:
            # Lock modes (TL/STL/FALLBACK) and plain accesses write
            # through: they are irrevocable.
            if delta:
                self.memory[addr] = self.memory.get(addr, 0) + delta

    def publish(self, tx: TxState) -> None:
        """Commit: apply the speculative write buffer to memory."""
        mem = self.memory
        for addr, delta in tx.write_buffer.items():
            if delta:
                mem[addr] = mem.get(addr, 0) + delta
        tx.write_buffer.clear()

    # ------------------------------------------------------------------
    # Transactional tracking
    # ------------------------------------------------------------------

    def discard_tx(self, core: int) -> None:
        """Drop all transactional tracking for ``core`` (abort path).

        The abort flash-clears every speculatively-accessed line from the
        L1 — written lines hold discarded data, and the modeled gem5
        MESI-HTM protocols flush read-marked lines as well (§IV-A notes
        the ARM protocol invalidates L1 transactional data wholesale), so
        an aborted attempt gives its retry no L1 warm-up.  HTMLock
        signatures are cleared if this core owned them.
        """
        tx = self.tx_states[core]
        tx.last_write_count = len(tx.write_set)
        readers = self.tx_readers
        writers = self.tx_writers
        directory = self.directory
        nbit = ~(1 << core)
        for line in tx.read_set:
            m = readers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    readers[line] = m
                else:
                    del readers[line]
            self._purge_private(core, line)
            directory.remove_copy(line, core)
        for line in tx.write_set:
            m = writers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    writers[line] = m
                else:
                    del writers[line]
            self._purge_private(core, line)
            directory.remove_copy(line, core)
        tx.read_set.clear()
        tx.write_set.clear()
        if self.sig_owner == core:
            self.clear_signatures(core)

    def retire_tx(self, core: int) -> None:
        """Commit: clear tracking, keeping cache lines (now committed)."""
        tx = self.tx_states[core]
        readers = self.tx_readers
        writers = self.tx_writers
        nbit = ~(1 << core)
        for line in tx.read_set:
            m = readers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    readers[line] = m
                else:
                    del readers[line]
        for line in tx.write_set:
            m = writers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    writers[line] = m
                else:
                    del writers[line]
        tx.read_set.clear()
        tx.write_set.clear()
        if self.sig_owner == core:
            self.clear_signatures(core)

    def clear_signatures(self, core: int) -> None:
        if self.sig_owner != core:
            raise ProtocolInvariantError(
                f"core {core} clearing signatures owned by {self.sig_owner}"
            )
        self.of_rd_sig.clear()
        self.of_wr_sig.clear()
        self.sig_owner = -1

    def spill_to_signature(self, core: int, line: int) -> None:
        """HTMLock overflow (Fig. 5 ②): move a set entry to the LLC sigs."""
        tx = self.tx_states[core]
        if not tx.mode.is_lock_mode:
            raise ProtocolInvariantError(
                f"core {core} spilling in mode {tx.mode}"
            )
        if self.sig_owner not in (-1, core):
            raise ProtocolInvariantError(
                f"signatures already owned by {self.sig_owner}"
            )
        self.sig_owner = core
        spilled = False
        nbit = ~(1 << core)
        if line in tx.write_set:
            self.of_wr_sig.insert(line)
            tx.write_set.discard(line)
            m = self.tx_writers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    self.tx_writers[line] = m
                else:
                    del self.tx_writers[line]
            spilled = True
        if line in tx.read_set:
            self.of_rd_sig.insert(line)
            tx.read_set.discard(line)
            m = self.tx_readers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    self.tx_readers[line] = m
                else:
                    del self.tx_readers[line]
            spilled = True
        if not spilled:
            raise ProtocolInvariantError(
                f"core {core} spilling untracked line {line:#x}"
            )
        self._purge_private(core, line)
        self.directory.remove_copy(line, core)
        self.signature_spills += 1

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def priority_of(self, core: int, now: int) -> int:
        return self.manager.priority_provider.priority_of(
            self.tx_states[core], now
        )

    def _holders(
        self,
        writers: int,
        readers: int,
        sig_owner: int,
        sig_as_writer: Optional[bool],
        now: int,
    ) -> List[HolderInfo]:
        """Conflicting holders in resolution order: exact writers, then
        exact readers (each in ascending core id), then the signature
        owner when ``sig_as_writer`` is not None."""
        provider = self.manager.priority_provider
        tx_states = self.tx_states
        holders: List[HolderInfo] = []
        for mask, as_writer in ((writers, True), (readers, False)):
            while mask:
                low = mask & -mask
                mask -= low
                c = low.bit_length() - 1
                tx = tx_states[c]
                holders.append(
                    HolderInfo(
                        c, tx.mode, provider.priority_of(tx, now), as_writer
                    )
                )
        if sig_as_writer is not None:
            tx = tx_states[sig_owner]
            holders.append(
                HolderInfo(
                    sig_owner,
                    tx.mode,
                    provider.priority_of(tx, now),
                    sig_as_writer,
                    via_signature=True,
                )
            )
        return holders

    def _middle_hit(self, core: int, line: int, is_write: bool) -> bool:
        """Serve an L1 miss from the private middle cache
        (MESI-Three-Level-HTM mode) when it holds the line with enough
        permission; the line is promoted into the L1."""
        l2 = self.l2s[core]
        st2 = l2.probe(line)
        if st2 == MESI.I or (is_write and st2 == MESI.S):
            return False
        l2.touch(line)
        new_state = st2
        if is_write:
            if st2 == MESI.E:
                l2.set_state(line, MESI.M)
            new_state = MESI.M
        # Promote into the L1; its victim silently drops back (the copy
        # remains in the inclusive middle cache).
        self.l1s[core].insert(line, new_state, pinned=None)
        return True

    def access(
        self, core: int, addr: int, is_write: bool, now: int
    ) -> Union[int, AccessResult]:
        """Resolve one load/store.

        Returns the total latency (``int``) of a granted access, else an
        :class:`AccessResult` with status REJECT or OVERFLOW.
        """
        line = addr >> 6
        tx = self.tx_states[core]
        l1 = self.l1s[core]
        stats = self.core_stats[core]

        st = l1.hit_state(line, is_write)
        if st != MESI.I:
            # -- L1 hit with sufficient permission ----------------------
            if is_write and st == MESI.E:
                l1.set_state(line, MESI.M)  # silent E->M upgrade
                if self.l2s is not None:
                    self.l2s[core].insert(line, MESI.M)  # keep inclusion
            stats.l1_hits += 1
            latency = self._l1_hit_latency
        elif self.l2s is not None and self._middle_hit(core, line, is_write):
            stats.l1_misses += 1
            stats.l2_hits += 1
            latency = self._l2_hit_latency
        else:
            stats.l1_misses += 1

            # -- Overflow pre-check (Fig. 6): need a way, all pinned ----
            # Transactional data is maintained at the outermost private
            # level: the L1 in two-level mode, the middle cache in
            # three-level mode (which is exactly why the ARM protocol
            # added it, §IV-A).  With nothing tracked yet no line is
            # pinned, and no predicate selects the same LRU victim.
            outer = l1 if self.l2s is None else self.l2s[core]
            needs_insert = outer.probe(line) == MESI.I
            pinned = None
            spill_lat = 0
            if (
                needs_insert
                and tx.mode in _TRACK_MODES
                and (tx.read_set or tx.write_set)
            ):
                pinned = tx.is_pinned
                if (
                    outer.set_occupancy(line) >= self._outer_assoc
                    and outer.find_unpinned_victim(line, pinned) is None
                ):
                    if not tx.mode.is_lock_mode:
                        return AccessResult(OVERFLOW, self._l1_hit_latency)
                    # HTMLock mode survives overflow: spill the LRU set
                    # entry into the LLC signatures, charge the
                    # notification's control leg to the LLC (Fig. 5 (2)),
                    # and carry on down the miss path into the freed way.
                    spill_line = outer.lru_line(line)
                    self.spill_to_signature(core, spill_line)
                    spill_lat = self.network.control_latency(
                        self._tile_of[core], spill_line % self._n_tiles
                    )

            # -- Miss path: to the home directory ------------------------
            # Every leg is priced by the NetworkModel, which owns the
            # stateless (class, hops) tables, the chaos hook and link
            # contention, and counts each message.
            net = self.network
            home = line % self._n_tiles
            my_tile = self._tile_of[core]
            llc_lat = self._llc_hit_latency
            req_lat = self._l1_hit_latency + net.control_latency(my_tile, home)
            entry = self._dir_entries.get(line)
            if entry is None:
                entry = self._dir_entries[line] = DirEntry()
            arrive = now + req_lat
            start = arrive if arrive > entry.busy_until else entry.busy_until

            # -- Fault injection: adversarial reject storm ---------------
            # The directory NACKs the speculative request outright,
            # exactly as if a higher-priority holder had won; the
            # requester's policy machinery (SelfAbort / RetryLater /
            # WaitWakeup) must absorb it.
            if (
                self.chaos is not None
                and tx.mode is TxMode.HTM
                and len(self.core_stats) > 1
                and self.chaos.storm_reject()
            ):
                entry.busy_until = start + llc_lat
                back = net.control_latency(home, my_tile)
                stats.rejects_received += 1
                phantom = (core + 1) % len(self.core_stats)
                self.core_stats[phantom].rejects_issued += 1
                return AccessResult(
                    REJECT,
                    (start - now) + llc_lat + back,
                    reject_holder=phantom,
                )

            # -- Conflict detection --------------------------------------
            # Other cores' bits in the tracking masks are the exact
            # holders; while an HTMLock-mode transaction has spilled,
            # the LLC also tests its overflow signatures (§III-B) unless
            # the owner already holds the line exactly.  No holder and
            # no signature hit is a grant with no victims: counted like
            # ``resolve([])`` without building any conflict record.
            own_bit = 1 << core
            writers = self.tx_writers.get(line, 0) & ~own_bit
            readers = 0
            if is_write:
                # Readers not already reported as writers.
                readers = self.tx_readers.get(line, 0) & ~own_bit & ~writers
            sig_owner = self.sig_owner
            sig_as_writer = None
            if (
                sig_owner >= 0
                and sig_owner != core
                and not ((writers | readers) >> sig_owner) & 1
            ):
                if self.of_wr_sig.test(line):
                    sig_as_writer = True
                elif self.of_rd_sig.test(line) and (
                    is_write
                    # Granting exclusive data would let the requester
                    # store silently; the paper rejects this case.
                    or not self.directory.has_other_copies(line, core)
                ):
                    sig_as_writer = False
                if sig_as_writer is not None:
                    self.signature_rejects += 1

            victims = 0  # bitmask of the cores aborted for this request
            if writers or readers or sig_as_writer is not None:
                resolution = self.manager.resolve(
                    RequesterInfo(
                        core,
                        tx.mode,
                        self.manager.priority_provider.priority_of(tx, now),
                        is_write,
                    ),
                    self._holders(writers, readers, sig_owner, sig_as_writer,
                                  now),
                )
                if not resolution.granted:
                    entry.busy_until = start + llc_lat
                    back = net.control_latency(home, my_tile)
                    stats.rejects_received += 1
                    holder = resolution.reject_holder
                    self.core_stats[holder].rejects_issued += 1
                    return AccessResult(
                        REJECT,
                        (start - now) + llc_lat + back,
                        reject_holder=holder,
                        reject_by_lock=resolution.reject_by_lock,
                    )
                # -- Granted: abort victims before moving data -----------
                for vcore, reason in resolution.victims:
                    victims |= 1 << vcore
                    self.abort_core(vcore, reason, now)
            else:
                self.manager.grants += 1

            owner_before = entry.owner
            llc_hit = self.llc.contains(line)
            data_lat = llc_lat if llc_hit else llc_lat + self._mem_latency

            if owner_before >= 0 and owner_before != core:
                owner_tile = self._tile_of[owner_before]
                if (victims >> owner_before) & 1:
                    # Fig. 3 NACK path: the aborting owner invalidated
                    # itself; the directory sources the data.
                    data_lat += (
                        net.control_latency(home, owner_tile)
                        + net.control_latency(owner_tile, home)
                        + net.data_latency(home, my_tile)
                    )
                else:
                    # Normal cache-to-cache forward.
                    data_lat += net.control_latency(
                        home, owner_tile
                    ) + net.data_latency(owner_tile, my_tile)
                    if is_write:
                        self._purge_private(owner_before, line)
                        self.directory.remove_copy(line, owner_before)
                    else:
                        self._demote_private(owner_before, line)
                        self.directory.demote_owner_to_sharer(line)
            else:
                data_lat += net.data_latency(home, my_tile)

            if is_write:
                # Inline directory.copies()/remove_copy() on the held
                # entry (set/list churn otherwise; entries are never
                # replaced, so the reference stays current across the
                # nested calls above).
                owner_now = entry.owner
                if owner_now >= 0:
                    if owner_now != core:
                        self._purge_private(owner_now, line)
                        entry.owner = -1
                        entry.sharers.discard(owner_now)
                elif entry.sharers:
                    for c in [c for c in entry.sharers if c != core]:
                        self._purge_private(c, line)
                        entry.sharers.discard(c)

            # Inclusive LLC fill (may back-invalidate on eviction).
            if not llc_hit:
                llc_victim = self.llc.insert(line, MESI.M)
                if llc_victim is not None:
                    self._back_invalidate(llc_victim.line, now)

            # Private fill / upgrade + directory stable state.
            if needs_insert:
                if is_write:
                    new_state = MESI.M
                else:
                    # Inline directory.has_other_copies on the held entry.
                    owner_now = entry.owner
                    if owner_now >= 0:
                        other = owner_now != core
                    else:
                        sh = entry.sharers
                        other = bool(sh) and (core not in sh or len(sh) > 1)
                    new_state = MESI.S if other else MESI.E
                victim = outer.insert(line, new_state, pinned)
                if victim is not None:
                    if victim.was_pinned:
                        raise ProtocolInvariantError(
                            "pinned victim after overflow pre-check"
                        )
                    if self.l2s is not None and l1.probe(victim.line) != MESI.I:
                        l1.invalidate(victim.line)  # inclusion
                    self.directory.remove_copy(victim.line, core)
                if self.l2s is not None:
                    # Fill the L1 too; its victim stays in the middle cache.
                    l1.insert(line, new_state, pinned=None)
            else:
                new_state = MESI.M if is_write else outer.probe(line)
                outer.set_state(line, new_state)
                outer.touch(line)
                if self.l2s is not None:
                    if l1.probe(line) != MESI.I:
                        l1.set_state(line, new_state)
                        l1.touch(line)
                    else:
                        l1.insert(line, new_state, pinned=None)

            if is_write or new_state == MESI.E:
                # Inline directory.set_exclusive on the held entry.
                entry.owner = core
                entry.sharers.clear()
            elif entry.owner != core:
                # Inline directory.add_sharer on the held entry.
                if entry.owner >= 0:
                    raise ProtocolInvariantError(
                        f"adding sharer {core} to owned line {line:#x}"
                    )
                entry.sharers.add(core)

            # Blocking directory: the line stays in its transient state
            # until the requester's unblock arrives — i.e. the whole data
            # path.
            entry.busy_until = start + data_lat
            latency = (start - now) + data_lat + spill_lat
            if self.paranoid:
                self.directory.check_swmr(
                    self.l2s if self.l2s is not None else self.l1s
                )

        # -- Track the granted line in the transaction's read/write set --
        # (not when the LLC fill's back-invalidation aborted the
        # requester itself).
        if tx.mode in _TRACK_MODES and not tx.aborted:
            if is_write:
                tx.write_set.add(line)
                holders = self.tx_writers
            else:
                tx.read_set.add(line)
                holders = self.tx_readers
            holders[line] = holders.get(line, 0) | (1 << core)
        return latency

    # ------------------------------------------------------------------

    def _purge_private(self, core: int, line: int) -> None:
        """Invalidate a line from every private level of ``core``."""
        self.l1s[core].invalidate(line)
        if self.l2s is not None:
            self.l2s[core].invalidate(line)

    def _demote_private(self, core: int, line: int) -> None:
        """Downgrade an owner to shared.

        Two-level: the L1 copy simply turns S.  Three-level reproduces
        the gem5 protocol's odd behaviour §IV-A criticizes: the L1 copy
        is *flushed to the middle cache* (invalidated) even though the
        remote request was only a load, leaving the middle-cache copy in
        S — subsequent local reads pay the L2 latency again.
        """
        if self.l2s is None:
            if self.l1s[core].probe(line) != MESI.I:
                self.l1s[core].set_state(line, MESI.S)
            return
        if self.l1s[core].probe(line) != MESI.I:
            self.l1s[core].invalidate(line)
        if self.l2s[core].probe(line) != MESI.I:
            self.l2s[core].set_state(line, MESI.S)
        else:  # pragma: no cover - inclusion guarantees presence
            self.l2s[core].insert(line, MESI.S)

    def _back_invalidate(self, line: int, now: int) -> None:
        """Inclusion victim: purge upstream copies; tx holders overflow."""
        # Read the held entry directly instead of materializing a set
        # copy per call; the snapshot list is still needed because the
        # purge/spill/abort calls below mutate the sharer set.
        e = self.directory.peek(line)
        if e is None:
            return
        if e.owner >= 0:
            cores = (e.owner,)
        elif e.sharers:
            cores = list(e.sharers)
        else:
            return
        for c in cores:
            tx = self.tx_states[c]
            in_tx_set = line in tx.read_set or line in tx.write_set
            if in_tx_set:
                if tx.mode.is_lock_mode:
                    self.spill_to_signature(c, line)
                    continue
                if tx.mode is TxMode.HTM and not tx.aborted:
                    self.abort_core(c, AbortReason.OVERFLOW, now)
                    continue  # abort path invalidated the written lines
            self._purge_private(c, line)
            self.directory.remove_copy(line, c)

    # ------------------------------------------------------------------
    # Validation helpers (tests, end-of-run sanity)
    # ------------------------------------------------------------------

    def publish_telemetry(self, registry) -> None:
        """Publish memory-system state under ``mem.*``/``dir.*``/``htm.*``.

        Pull-model: a census over current directory/cache state plus the
        cumulative counters the protocol already maintains — the access
        hot path carries no metric calls.
        """
        mem = registry.scope("mem")
        mem.set("memory_words", len(self.memory))
        mem.set("llc_lines", len(self.llc))
        for i, l1 in enumerate(self.l1s):
            mem.set(f"l1.{i}.lines", len(l1))
        if self.l2s is not None:
            for i, l2 in enumerate(self.l2s):
                mem.set(f"l2.{i}.lines", len(l2))

        # Directory bank census (address-interleaved home tiles).
        dir_scope = registry.scope("dir")
        dir_scope.set("entries", len(self.directory))
        per_bank: Dict[int, List[int]] = {}
        for line in self.directory.lines():
            entry = self.directory.peek(line)
            if entry is None or entry.is_idle:
                continue
            bank = self.topology.home_tile(line)
            stats = per_bank.setdefault(bank, [0, 0])
            stats[0] += 1
            stats[1] += len(entry.sharers)
        for bank, (lines, sharers) in sorted(per_bank.items()):
            bank_scope = dir_scope.scope(f"bank.{bank}")
            bank_scope.set("lines", lines)
            bank_scope.set("sharers", sharers)

        htm = registry.scope("htm")
        htm.set("tx_read_lines", len(self.tx_readers))
        htm.set("tx_write_lines", len(self.tx_writers))
        sig = htm.scope("signature")
        sig.set("spills", self.signature_spills)
        sig.set("rejects", self.signature_rejects)
        sig.set("owner", self.sig_owner)
        sig.set("rd_fill_bits", self.of_rd_sig.popcount)
        sig.set("wr_fill_bits", self.of_wr_sig.popcount)
        sig.set("rd_fp_rate", self.of_rd_sig.false_positive_rate())
        sig.set("wr_fp_rate", self.of_wr_sig.false_positive_rate())

    def check_quiescent(self) -> List[str]:
        """Invariants that must hold when no transaction is running."""
        problems: List[str] = []
        if self.tx_readers:
            problems.append(f"stale tx_readers: {len(self.tx_readers)} lines")
        if self.tx_writers:
            problems.append(f"stale tx_writers: {len(self.tx_writers)} lines")
        if self.sig_owner >= 0:
            problems.append(f"signatures still owned by {self.sig_owner}")
        if not self.of_rd_sig.empty or not self.of_wr_sig.empty:
            problems.append("signatures not cleared")
        try:
            # SWMR is checked at the outermost private level; in
            # three-level mode the L1s are strict subsets of the middle
            # caches (inclusion, checked below).
            self.directory.check_swmr(
                self.l2s if self.l2s is not None else self.l1s
            )
        except ProtocolInvariantError as exc:
            problems.append(str(exc))
        for i, l1 in enumerate(self.l1s):
            try:
                l1.check_invariants()
            except ProtocolInvariantError as exc:
                problems.append(f"L1[{i}]: {exc}")
        if self.l2s is not None:
            for i, l2 in enumerate(self.l2s):
                try:
                    l2.check_invariants()
                except ProtocolInvariantError as exc:
                    problems.append(f"L2[{i}]: {exc}")
                for line in list(self.l1s[i].resident_lines()):
                    if l2.probe(line) == MESI.I:
                        problems.append(
                            f"inclusion violated: L1[{i}] holds "
                            f"{line:#x} absent from its middle cache"
                        )
                        break
        return problems
