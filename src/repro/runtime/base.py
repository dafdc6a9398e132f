"""Common interface and shared machinery for the runtime simulators.

A :class:`ManagedRuntime` owns one :class:`VirtualAddressSpace` (the FaaS
instance's container process) and exposes:

* the **mutator API** used by workload models (``begin_invocation`` /
  ``alloc`` / ``end_invocation``),
* the **GC entry points** (``collect`` and the ``System.gc()``-style
  ``full_gc``),
* the **reclaim interface** Desiccant adds (§4.4): GC, then resize, then
  release every free page back to the OS.

Time is explicit: every operation returns or accumulates CPU seconds so the
FaaS simulator can charge latency and cgroup CPU time.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import fastpath
from repro.mem.accounting import measure, measure_mapping
from repro.mem.layout import (
    MIB,
    PAGE_SHIFT,
    PAGE_SIZE,
    PROT_RX,
    Protection,
    page_ceil,
    page_floor,
)
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.vmm import Mapping, VirtualAddressSpace
from repro.memo import digest as memo_digest
from repro.memo import effects as memo_effects
from repro.memo import toggle as memo_toggle
from repro.runtime import costs
from repro.runtime.object_model import ObjectGraph


#: The rooting scopes ``alloc`` accepts.
_SCOPES = frozenset(("ephemeral", "frame", "persistent", "weak"))


class OutOfMemory(Exception):
    """The heap cannot satisfy an allocation even after collection."""


@dataclass(frozen=True)
class LibrarySpec:
    """A shared library the runtime maps at boot (e.g. ``libjvm.so``).

    ``touched_fraction`` is how much of the file the runtime actually pages
    in; the rest never costs physical memory.
    """

    path: str
    size: int
    touched_fraction: float = 0.8


@dataclass
class RuntimeConfig:
    """Knobs common to every runtime simulator."""

    #: Instance memory budget (the paper's default is 256 MiB).
    memory_budget: int = 256 * MIB
    #: Fraction of the budget handed to the managed heap (Lambda-style).
    heap_fraction: float = 0.8
    #: Private native memory the runtime dirties at boot (malloc, stacks...).
    native_boot_bytes: int = 6 * MIB
    #: Extra native memory dirtied during the first invocation (class
    #: loading, JIT) -- the paper notes Java's first run inflates the heap.
    native_init_bytes: int = 4 * MIB
    #: Libraries mapped at boot; ``None`` uses the runtime's defaults.
    libraries: Optional[Sequence[LibrarySpec]] = None
    #: Process boot latency before the runtime is usable (cold-boot cost).
    boot_seconds: float = 0.2
    #: GC worker threads (§5.4: platforms should configure parallel
    #: collection for instances with abundant CPU).  Pauses shrink almost
    #: linearly; total CPU work stays the same plus a small coordination
    #: overhead.
    gc_threads: int = 1

    @property
    def max_heap(self) -> int:
        """Managed-heap ceiling derived from the instance budget."""
        return int(self.memory_budget * self.heap_fraction)


@dataclass
class HeapStats:
    """A snapshot of heap occupancy, in bytes."""

    committed: int
    used: int
    live_estimate: int


@dataclass
class ReclaimOutcome:
    """What one §4.4 reclamation achieved (becomes the memory profile)."""

    live_bytes: int
    released_bytes: int
    cpu_seconds: float
    uss_before: int
    uss_after: int
    aggressive: bool = False
    #: Bytes of fresh pages the reclaim's GC faulted in while evacuating
    #: survivors (promotions into newly materialized old-space pages,
    #: including unreleasable chunk/region header pages).  The vacated
    #: young pages are released separately, so a reclaim may end up to
    #: this much *above* its starting USS without having leaked anything.
    evacuated_bytes: int = 0


@dataclass
class GCEvent:
    """One collection, for tests and traces."""

    kind: str  # "young" | "full"
    seconds: float
    collected_bytes: int
    live_bytes: int


class ManagedRuntime(abc.ABC):
    """Base class wiring the object graph, libraries, and native memory."""

    #: Subclasses set these.
    language: str = "?"
    default_libraries: Sequence[LibrarySpec] = ()

    def __init__(
        self,
        name: str,
        config: RuntimeConfig,
        physical: Optional[PhysicalMemory] = None,
        shared_files: Optional[Dict[str, MappedFile]] = None,
    ) -> None:
        """``shared_files`` maps library paths to machine-wide MappedFiles;
        when provided, instances share page cache (OpenWhisk).  When absent,
        each instance gets private copies (Lambda, Figure 11)."""
        from repro.runtime.jit import CodeCache  # local import: avoids cycle

        self.name = name
        self.config = config
        self.space = VirtualAddressSpace(name, physical)
        self.graph = ObjectGraph()
        #: JIT code cache; subclasses with in-heap code (V8) override.
        self.jit = CodeCache(self, in_heap=False)
        self._shared_files = shared_files
        self._lib_mappings: List[Mapping] = []
        self._mapped_specs: List[LibrarySpec] = []
        self._native: Optional[Mapping] = None
        self._native_touched = 0
        self.booted = False
        self.invocations = 0
        self.gc_events: List[GCEvent] = []
        self.total_gc_seconds = 0.0
        self.invocation_gc_seconds = 0.0
        self.invocation_fault_seconds = 0.0
        self.last_gc_live_bytes = 0
        #: ``space.release_epoch`` as of the last full :meth:`touch_live_data`
        #: walk; ``None`` until the first walk completes.
        self._live_touch_epoch: Optional[int] = None
        #: Fast-path snapshot (never flips mid-run) plus the measurement
        #: caches it gates: ``(key, value)`` pairs keyed on the space's
        #: change counters, so repeated USS reads between mutations are
        #: O(1) instead of O(mappings).
        self._fastpath = fastpath.enabled()
        self._uss_cache: Optional[Tuple[Tuple[int, int], int]] = None
        self._hrb_cache: Optional[Tuple[int, int]] = None
        #: REPRO_MEMO construction snapshot (``None`` = memo off): an
        #: FNV-1a fold seeded from (class, config, fastpath flavor) that
        #: accumulates the externally driven mutations the space digest
        #: cannot see (``full_gc``/``free_persistent``/``reclaim``) plus
        #: one marker per completed invocation, so the interleaving of
        #: invocations and external operations addresses the effect cache.
        if memo_toggle.enabled():
            token = zlib.crc32(
                f"{type(self).__name__}|{config!r}|{int(self._fastpath)}".encode()
            )
            self._memo_sig: Optional[int] = memo_digest.fold(
                memo_digest.FNV_OFFSET, token
            )
        else:
            self._memo_sig = None
        #: Lazily deferred structural restore from the last memo hit:
        #: ``(entry, [gc_event suffixes])`` or ``None``.  Materialized by
        #: ``_memo_materialize`` before anything reads structural state.
        self._memo_pending: Optional[tuple] = None

    # ------------------------------------------------------------------ boot

    def boot(self) -> float:
        """Map libraries, dirty boot-time native memory, set up the heap.

        Returns the CPU seconds the boot consumed.
        """
        if self.booted:
            raise RuntimeError(f"{self.name}: already booted")
        seconds = self.config.boot_seconds
        libs = self.config.libraries
        if libs is None:
            libs = self.default_libraries
        for spec in libs:
            seconds += self._map_library(spec)
        native_reserve = max(self.config.memory_budget // 2, 16 * MIB)
        self._native = self.space.mmap(native_reserve, name="[native]")
        seconds += self._grow_native(self.config.native_boot_bytes)
        seconds += self._setup_heap()
        self.booted = True
        return seconds

    def _map_library(self, spec: LibrarySpec) -> float:
        if self._shared_files is not None:
            file = self._shared_files.get(spec.path)
            if file is None:
                file = MappedFile(spec.path, spec.size)
                self._shared_files[spec.path] = file
        else:
            # Private copy: a distinct file object per instance, so no
            # cross-instance page-cache sharing happens (the Lambda case).
            file = MappedFile(f"{spec.path}#{self.name}", spec.size)
        mapping = self.space.mmap(
            spec.size, prot=PROT_RX, file=file, name=spec.path
        )
        self._lib_mappings.append(mapping)
        self._mapped_specs.append(spec)
        touched = int(spec.size * spec.touched_fraction)
        counts = self.space.touch(mapping.start, touched, write=False)
        return costs.fault_cost(counts.minor, counts.major)

    def _grow_native(self, extra: int) -> float:
        assert self._native is not None
        start = self._native.start + self._native_touched
        extra = min(extra, self._native.length - self._native_touched)
        if extra <= 0:
            return 0.0
        counts = self.space.touch(start, extra)
        self._native_touched += extra
        return costs.fault_cost(counts.minor, counts.major)

    @abc.abstractmethod
    def _setup_heap(self) -> float:
        """Reserve and commit the initial heap; returns CPU seconds."""

    # ------------------------------------------------------------- mutators

    def begin_invocation(self) -> None:
        """Open an invocation frame; resets the per-invocation meters."""
        self._check_booted()
        self.graph.push_frame()
        self.invocation_gc_seconds = 0.0
        self.invocation_fault_seconds = 0.0
        if self.invocations == 0:
            self.invocation_fault_seconds += self._grow_native(
                self.config.native_init_bytes
            )

    def end_invocation(self) -> None:
        """Close the frame: its temporaries become (frozen) garbage."""
        self.graph.pop_frame()
        self.invocations += 1

    def alloc(
        self,
        size: int,
        refs: Iterable[int] = (),
        scope: str = "frame",
    ) -> int:
        """Allocate an object and root it per ``scope``.

        * ``"ephemeral"``  -- unrooted; dead at the next collection.
        * ``"frame"``      -- lives until the invocation ends (the default).
        * ``"persistent"`` -- cached state, lives across invocations.
        * ``"weak"``       -- held only by a weak root (JIT artifacts).
        """
        self._check_booted()
        oid = self.graph.new_object(size, refs)
        self._root(oid, scope)
        if scope == "ephemeral":
            # The allocation site references the object until placement
            # finishes, so a collection triggered by this very allocation
            # must not sweep it out from under the allocator.
            self.graph.root_persistent(oid)
            try:
                self._place(oid)
            finally:
                self.graph.unroot_persistent(oid)
        else:
            self._place(oid)
        return oid

    def alloc_cohort(
        self, count: int, unit: int, scope: Union[str, Sequence[str]] = "frame"
    ) -> List[int]:
        """Allocate ``count`` objects of ``unit`` bytes, rooted per ``scope``.

        ``scope`` is one scope for every member, or a sequence of ``count``
        per-member scopes (``ValueError`` when ``len(scope) != count``).
        Either way the call is semantically identical to calling
        ``alloc(unit, scope=s)`` for each member's scope ``s``, in order --
        and that is literally what happens off the fast path or when the
        runtime cannot batch this unit size.  On the fast path the run is
        folded into :class:`~repro.runtime.object_model.CohortObject`
        nodes placed with one bulk page touch per GC-free segment, while
        GC trigger points, collected volumes, and the per-member
        fault-cost accumulation order are preserved exactly: both paths
        produce byte-identical event traces.

        Returns the allocated object ids (one per folded group on the
        fast path).
        """
        self._check_booted()
        if isinstance(scope, str):
            runs: Sequence[Tuple[str, int]] = ((scope, count),)
        else:
            if len(scope) != count:
                raise ValueError(
                    f"{len(scope)} scopes given for a run of {count} members"
                )
            runs = [(s, sum(1 for _ in group)) for s, group in groupby(scope)]
        if count <= 0:
            return []
        if count == 1 or not (self._fastpath and self._supports_cohorts(unit)):
            return [
                self.alloc(unit, scope=s) for s, members in runs for _ in range(members)
            ]
        return self._alloc_cohort_fast(unit, runs)

    def _supports_cohorts(self, unit: int) -> bool:
        """Whether this runtime can bulk-place ``unit``-byte cohorts."""
        return False

    def _alloc_cohort_fast(
        self, unit: int, runs: Sequence[Tuple[str, int]]
    ) -> List[int]:
        """Place ``runs``, the call's ``(scope, members)`` stretches in
        order.  Runtimes whose member addresses are observable (arena
        holes) place one stretch of identical scopes at a time; the bump
        spaces override this with :meth:`_fold_bump_cohort`."""
        oids: List[int] = []
        for scope, members in runs:
            if members == 1:
                oids.append(self.alloc(unit, scope=scope))
            else:
                oids.extend(self._alloc_run_fast(members, unit, scope))
        return oids

    def _alloc_run_fast(self, count: int, unit: int, scope: str) -> List[int]:
        raise NotImplementedError  # pragma: no cover - guarded by the gate

    def _place_cohort_segment(self, oid: int, scope: str, place) -> None:
        """Root one segment cohort per ``scope`` and run its placement.

        Mirrors :meth:`alloc`'s routing, including the placement-guard
        rooting for ephemerals (the site references the run until its
        placement finishes).
        """
        self._root(oid, scope)
        if scope == "ephemeral":
            self.graph.root_persistent(oid)
            try:
                place()
            finally:
                self.graph.unroot_persistent(oid)
        else:
            place()

    def _root(self, oid: int, scope: str) -> None:
        if scope == "frame":
            self.graph.root_in_frame(oid)
        elif scope == "persistent":
            self.graph.root_persistent(oid)
        elif scope == "weak":
            self.graph.root_weak(oid)
        elif scope != "ephemeral":
            raise ValueError(f"unknown scope {scope!r}")

    def _touch_run(
        self, addr: int, unit: int, members: int, touch_from: int
    ) -> Tuple[int, int]:
        """One bulk touch for a contiguous run, charged per member.

        ``touch_from`` is the page-aligned address where the scalar flow's
        first touch of the run starts: ``page_floor(addr)`` for allocators
        that touch each object's own span, or a bump space's ``touched``
        high-water mark, below which its per-object materialization never
        touches (those pages may since have been swapped out).  The touch
        covers ``[touch_from, page_ceil(addr + members * unit))``.

        Fault *costs* accumulate in float arithmetic, so the charging
        order must match the scalar path: each faulting page is billed to
        the first member whose page-aligned span reaches it (exactly the
        member whose own touch would have faulted it), and each faulting
        member adds its own ``fault_cost`` to ``invocation_fault_seconds``
        in order, as :meth:`_charge_faults` would; members that fault
        nothing would only add ``0.0``.  The touch reports where it
        faulted across every mapping the range spans (commits split a
        heap mapping), and the members are billed from that.  Returns the
        run's total ``(minor, major)`` counts.
        """
        end = page_ceil(addr + members * unit)
        if end <= touch_from:
            return 0, 0
        faults: List[Tuple[int, int, bool]] = []
        counts = self.space.touch(touch_from, end - touch_from, faulted=faults)
        n = len(faults)
        if not n:
            return counts.minor, counts.major
        minor_s = costs.MINOR_FAULT_SECONDS
        major_s = costs.MAJOR_FAULT_SECONDS
        billed = self.invocation_fault_seconds
        k = 0
        lo = touch_from >> PAGE_SHIFT
        edge = addr
        for _ in range(members):
            if k == n:
                break
            edge += unit
            hi = (edge + PAGE_SIZE - 1) >> PAGE_SHIFT
            if hi <= lo:
                continue
            minor = major = 0
            while k < n:
                s, e, is_major = faults[k]
                if s >= hi:
                    break
                pages = (e if e < hi else hi) - (s if s > lo else lo)
                if is_major:
                    major += pages
                else:
                    minor += pages
                if e > hi:
                    break
                k += 1
            lo = hi
            if minor or major:
                # Inlined _charge_faults: the same fault_cost expression,
                # added in the same order.
                billed += minor * minor_s + major * major_s
        self.invocation_fault_seconds = billed
        return counts.minor, counts.major

    def _fold_bump_cohort(
        self, unit: int, runs: Sequence[Tuple[str, int]]
    ) -> List[int]:
        """Bump-place a run segment by segment, folding its scopes.

        A segment is every member that fits the bump space's committed
        free space as it stands (``space.free // unit``): the scalar path
        bumps those with no collection or resize in between, so the
        segment becomes one bump and one :meth:`_touch_run`.  The first
        member that does not fit goes through :meth:`alloc` unbatched, so
        the collection it triggers sees exactly the scalar path's graph.

        Within a segment the ephemeral members fold into one cohort and
        the surviving ones into maximal same-scope groups, in allocation
        order.  This is exact because a bump space never exposes a
        member's address, only the bytes bumped, the pages touched and the
        order of the survivors (which decides where a scavenge's to-space
        overflow splits them and what promotes): all three are kept.
        Ephemerals are dead at the next collection wherever they sit.

        Subclasses supply :meth:`_bump_space` and :meth:`_bump_placed`.
        """
        for scope, _members in runs:
            if scope not in _SCOPES:
                raise ValueError(f"unknown scope {scope!r}")
        oids: List[int] = []
        # The open segment: [scope, members] groups, the ephemeral one first.
        segment: List[List] = [["ephemeral", 0]]
        room = 0  # members the open segment can still take
        for scope, left in runs:
            while left:
                if not room:
                    self._bump_segment(unit, segment, oids)
                    segment = [["ephemeral", 0]]
                    room = self._bump_space()[0].free // unit
                    if not room:
                        oids.append(self.alloc(unit, scope=scope))
                        left -= 1
                        continue
                take = left if left < room else room
                if scope == "ephemeral":
                    segment[0][1] += take
                elif segment[-1][0] == scope:
                    segment[-1][1] += take
                else:
                    segment.append([scope, take])
                left -= take
                room -= take
        self._bump_segment(unit, segment, oids)
        return oids

    def _bump_segment(self, unit: int, segment: List[List], oids: List[int]) -> None:
        """Bump one folded segment's groups in order, dirtied by one
        :meth:`_touch_run` from the space's ``touched`` high-water mark,
        which then moves to the page above the new top."""
        members = sum(count for _scope, count in segment)
        if not members:
            return
        space, base = self._bump_space()
        start = space.top
        for scope, count in segment:
            if count:
                oid = self.graph.new_cohort(count, unit)
                self._root(oid, scope)
                space.bump(oid, count * unit)
                self._bump_placed(oid, count * unit)
                oids.append(oid)
        self._touch_run(base + start, unit, members, base + space.touched)
        if space.top > space.touched:
            space.touched = page_ceil(space.top)

    def _bump_space(self):
        """The bump space a cohort segment goes to, and its base address:
        ``(ContiguousSpace, int)``."""
        raise NotImplementedError  # pragma: no cover - bump runtimes only

    def _bump_placed(self, oid: int, size: int) -> None:
        """Bookkeeping after bumping one ``size``-byte folded group."""

    def free_persistent(self, oid: int) -> None:
        """Drop a persistent root (cached state handed off / invalidated)."""
        self._memo_materialize()
        self.memo_note(memo_digest.OP_FREE_PERSISTENT, oid)
        self.graph.unroot_persistent(oid)

    @abc.abstractmethod
    def _place(self, oid: int) -> None:
        """Assign the object a heap address, collecting/expanding as needed."""

    # ------------------------------------------------------------------- GC

    @abc.abstractmethod
    def collect(self, full: bool, aggressive: bool = False) -> float:
        """Run one collection cycle; returns its CPU seconds."""

    def full_gc(self, aggressive: bool = True) -> float:
        """The application-facing ``System.gc()`` / ``global.gc`` (eager
        baseline).  Aggressive by default, per §4.7."""
        self.memo_note(memo_digest.OP_FULL_GC, int(aggressive))
        return self.collect(full=True, aggressive=aggressive)

    @abc.abstractmethod
    def reclaim(self, aggressive: bool = False) -> ReclaimOutcome:
        """Desiccant's interface: GC + resize + release free pages (§4.4)."""

    @abc.abstractmethod
    def heap_stats(self) -> HeapStats:
        """Committed/used/live-estimate snapshot."""

    # ------------------------------------------------------------- metrics

    def uss(self) -> int:
        """The instance's unique set size (the paper's headline metric).

        Cached on ``(space.version, space.external_version)``: the first
        covers every operation on this space, the second covers shared
        file pages whose last co-sharer appeared or vanished from another
        space (the only remote influence on USS).
        """
        if not self._fastpath:
            return measure(self.space).uss
        key = (self.space.version, self.space.external_version)
        cached = self._uss_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        value = measure(self.space).uss
        self._uss_cache = (key, value)
        return value

    def heap_resident_bytes(self) -> int:
        """Resident bytes inside the heap range (what ``pmap`` reports for
        the address range the instance registered, §4.5.2).

        RSS counts resident pages regardless of sharing, so remote
        sharer transitions cannot move it: caching on ``space.version``
        alone is exact.
        """
        if self._fastpath:
            cached = self._hrb_cache
            if cached is not None and cached[0] == self.space.version:
                return cached[1]
        self._memo_materialize()
        total = 0
        for mapping in self._heap_mappings():
            total += measure_mapping(mapping).rss
        if self._fastpath:
            self._hrb_cache = (self.space.version, total)
        return total

    @abc.abstractmethod
    def _heap_mappings(self) -> List[Mapping]:
        """All mappings that make up the managed heap."""

    def touch_live_data(self) -> float:
        """Fault in everything an invocation actually reads: cached heap
        state, the runtime's native memory, and library code.

        On a healthy instance this is free (everything is resident).  After
        Desiccant's reclaim only discarded *free* pages and unmapped
        libraries refault (cheap minor faults, Figure 13); after the swap
        baseline, the *live* pages come back through major faults -- the
        §5.6 reason swapping is 2.4x worse.
        """
        # Fast path: if nothing has been released since the last full
        # touch, every page this would visit is still resident.
        if self._live_touch_epoch == self.space.release_epoch:
            return 0.0
        self._memo_materialize()
        seconds = self._touch_live_heap()
        if self._native is not None and self._native_touched > 0:
            counts = self.space.touch(self._native.start, self._native_touched)
            seconds += self._charge_faults(counts.minor, counts.major)
        for mapping, spec in zip(self._lib_mappings, self._mapped_specs):
            hot = int(spec.size * spec.touched_fraction)
            if hot > 0:
                counts = self.space.touch(mapping.start, hot, write=False)
                seconds += self._charge_faults(counts.minor, counts.major)
        self._live_touch_epoch = self.space.release_epoch
        return seconds

    @abc.abstractmethod
    def _touch_live_heap(self) -> float:
        """Fault in the heap regions that hold live data."""

    def _touch_object_spans(
        self, spans: Iterable[Tuple[int, int]], write: bool = True
    ) -> float:
        """Touch a batch of ``(addr, length)`` spans with range coalescing.

        Each span is page-aligned exactly as a per-span ``space.touch`` call
        would align it, then overlapping/adjacent page ranges are merged, so
        the set of pages visited is identical to touching every span
        individually -- but densely-packed live objects collapse into a few
        bulk touches instead of one VMM call each.
        """
        ranges = sorted(
            (page_floor(addr), page_ceil(addr + length)) for addr, length in spans
        )
        seconds = 0.0
        pos = 0  # ranges are half-open [lo, hi); merge while they overlap
        n = len(ranges)
        while pos < n:
            lo, hi = ranges[pos]
            pos += 1
            while pos < n and ranges[pos][0] <= hi:
                if ranges[pos][1] > hi:
                    hi = ranges[pos][1]
                pos += 1
            if hi <= lo:
                continue
            counts = self.space.touch(lo, hi - lo, write=write)
            seconds += self._charge_faults(counts.minor, counts.major)
        return seconds

    def live_bytes(self) -> int:
        """Exact live bytes (the runtime's query interface, §4.5.2)."""
        self._memo_materialize()
        return self.graph.live_bytes(include_weak=True)

    def ideal_uss(self) -> int:
        """The §3.1 *ideal* consumption: live objects plus the private
        native memory the runtime genuinely uses (its "useful contents")."""
        return self.live_bytes() + self._native_touched

    def destroy(self) -> None:
        """Tear the instance down (eviction).

        A deferred memo restore is dropped, not materialized: teardown
        only closes the address space (a live object), so the structural
        state the restore would rebuild is about to be garbage anyway.
        """
        self._memo_pending = None
        self.space.close()

    # ------------------------------------------------------------ internals

    def _record_gc(self, kind: str, seconds: float, collected: int, live: int) -> None:
        self.gc_events.append(GCEvent(kind, seconds, collected, live))
        self.total_gc_seconds += seconds
        self.invocation_gc_seconds += seconds
        self.last_gc_live_bytes = live

    def _parallel_pause(self, cpu_work_seconds: float) -> float:
        """Wall-clock pause for ``cpu_work_seconds`` of collection work
        spread over the configured GC threads (with 5% coordination
        overhead per extra thread)."""
        threads = max(1, self.config.gc_threads)
        if threads == 1:
            return cpu_work_seconds
        return cpu_work_seconds * (1 + 0.05 * (threads - 1)) / threads

    def _charge_faults(self, minor: int, major: int = 0) -> float:
        seconds = costs.fault_cost(minor, major)
        self.invocation_fault_seconds += seconds
        return seconds

    def _check_booted(self) -> None:
        # Every mutator and GC entry point passes through here, which
        # makes it the one choke point for deferred memo restores.
        if self._memo_pending is not None:
            self._memo_materialize()
        if not self.booted:
            raise RuntimeError(f"{self.name}: not booted")

    # ---------------------------------------------------------------- memo

    def memo_note(self, *values: int) -> None:
        """Fold an externally driven mutation into the memo digest."""
        if self._memo_sig is not None:
            self._memo_sig = memo_digest.fold(self._memo_sig, *values)

    def _memo_materialize(self) -> None:
        """Apply the structural half of the last memo hit, if deferred."""
        pending = self._memo_pending
        if pending is not None:
            self._memo_pending = None
            memo_effects.materialize(self, pending)
