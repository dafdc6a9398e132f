"""Unit tests for the pure check functions in repro.check.invariants.

Pattern: build a healthy object, assert the check passes; corrupt one
internal counter or structure, assert the check raises a
:class:`Violation` with the expected stable invariant name.  The names
are API -- the fuzzer shrinks against them and regression tests pin
them -- so these tests lock them down.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.check import (
    Violation,
    check_cohort_shape,
    check_file,
    check_instance,
    check_mapping,
    check_physical,
    check_platform,
    check_segment_manifest,
    check_shard_conservation,
    check_runlist,
    check_runtime,
    check_smaps,
    check_space,
)
from repro import fastpath
from repro.faas.instance import FunctionInstance, InstanceState
from repro.mem.layout import PAGE_SIZE, PROT_RX
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.runlist import RunList
from repro.mem.vmm import PageState, VirtualAddressSpace
from repro.runtime.object_model import CohortObject
from repro.workloads.model import FunctionSpec

KIB = 1024

SPEC = FunctionSpec(
    name="inv-py",
    language="python",
    description="invariant-test function",
    base_exec_seconds=0.004,
    ephemeral_bytes=192 * KIB,
    frame_bytes=96 * KIB,
    persistent_bytes=64 * KIB,
    object_size=16 * KIB,
    code_size=64 * KIB,
    warm_units=2,
)


def violation_name(check, *args, **kwargs) -> str:
    with pytest.raises(Violation) as caught:
        check(*args, **kwargs)
    return caught.value.invariant


# ---------------------------------------------------------------- run lists


class TestCheckRunlist:
    def make(self) -> RunList:
        runs = RunList()
        runs.splice(0, 16, [(0, 4, "a"), (6, 10, "b"), (12, 16, "a")])
        return runs

    def test_healthy_passes(self):
        check_runlist(self.make(), "t", 0, 16)

    def test_shape(self):
        runs = self.make()
        runs.starts.append(20)
        assert violation_name(check_runlist, runs, "t", 0, 32) == "runlist-shape"

    def test_empty_run(self):
        runs = self.make()
        runs.ends[0] = runs.starts[0]
        assert violation_name(check_runlist, runs, "t", 0, 16) == "runlist-length"

    def test_bounds(self):
        runs = self.make()
        assert violation_name(check_runlist, runs, "t", 0, 10) == "runlist-bounds"

    def test_unsorted(self):
        runs = RunList()
        runs.starts, runs.ends, runs.values = [0, 2], [4, 6], ["a", "b"]
        assert violation_name(check_runlist, runs, "t", 0, 16) == "runlist-sorted"

    def test_uncoalesced(self):
        runs = RunList()
        runs.starts, runs.ends, runs.values = [0, 4], [4, 8], ["a", "a"]
        assert violation_name(check_runlist, runs, "t", 0, 16) == "runlist-coalesced"

    def test_violation_message_carries_parts(self):
        with pytest.raises(Violation) as caught:
            check_runlist(self.make(), "subj", 0, 10)
        violation = caught.value
        assert violation.invariant == "runlist-bounds"
        assert violation.subject == "subj"
        assert "[runlist-bounds] subj:" in str(violation)


# ----------------------------------------------------------------- mappings


class TestCheckMapping:
    def make(self):
        space = VirtualAddressSpace("[inv]", PhysicalMemory())
        mapping = space.mmap(8 * PAGE_SIZE)
        space.touch(mapping.start, 4 * PAGE_SIZE, write=True)
        return space, mapping

    def test_healthy_passes(self):
        _, mapping = self.make()
        check_mapping(mapping)

    def test_counter_drift(self):
        _, mapping = self.make()
        mapping.n_anon += 1
        assert violation_name(check_mapping, mapping) == "mapping-counters"

    def test_explicit_not_present_run(self):
        _, mapping = self.make()
        mapping._runs.splice(6, 7, [(6, 7, PageState.NOT_PRESENT)])
        assert violation_name(check_mapping, mapping) == "mapping-not-present-run"

    def test_file_pages_without_file(self):
        _, mapping = self.make()
        mapping._runs.splice(0, 1, [(0, 1, PageState.FILE_CLEAN)])
        mapping.n_anon -= 1
        mapping.n_file += 1
        assert violation_name(check_mapping, mapping) == "mapping-fileless"


class TestCheckSpace:
    def make(self):
        space = VirtualAddressSpace("[inv]", PhysicalMemory())
        first = space.mmap(4 * PAGE_SIZE)
        second = space.mmap(4 * PAGE_SIZE)
        space.touch(first.start, PAGE_SIZE, write=True)
        return space, first, second

    def test_healthy_passes(self):
        space, _, _ = self.make()
        check_space(space)

    def test_closed_space_keeps_mappings(self):
        space, _, _ = self.make()
        space.close()
        space._mappings[0x1000] = object()
        assert violation_name(check_space, space) == "space-closed"

    def test_starts_unsorted(self):
        space, _, _ = self.make()
        space._starts.reverse()
        assert violation_name(check_space, space) == "space-starts-sorted"

    def test_overlapping_mappings(self):
        space, first, second = self.make()
        second.start = first.start
        assert violation_name(check_space, space) == "space-disjoint"


# --------------------------------------------------------------- page cache


class TestCheckFile:
    def make(self):
        physical = PhysicalMemory()
        file = MappedFile("/inv/lib.so", 8 * PAGE_SIZE)
        space = VirtualAddressSpace("[inv]", physical)
        one = space.mmap(8 * PAGE_SIZE, prot=PROT_RX, file=file)
        two = space.mmap(8 * PAGE_SIZE, prot=PROT_RX, file=file)
        space.touch(one.start, 6 * PAGE_SIZE, write=False)
        space.touch(two.start, 3 * PAGE_SIZE, write=False)
        return file, one, two

    def test_healthy_passes(self):
        file, _, _ = self.make()
        check_file(file)

    def test_resident_counter_drift(self):
        file, _, _ = self.make()
        file._resident += 1
        assert violation_name(check_file, file) == "file-resident"

    def test_pss_share_drift(self):
        file, one, _ = self.make()
        file._pss[one.id] += Fraction(1)
        assert violation_name(check_file, file) == "file-pss"

    def test_solo_counter_drift(self):
        file, one, _ = self.make()
        file._solo[one.id] = file._solo.get(one.id, 0) + 1
        assert violation_name(check_file, file) == "file-solo"

    def test_empty_holder_set(self):
        file, _, _ = self.make()
        file._holders.splice(7, 8, [(7, 8, frozenset())])
        assert violation_name(check_file, file) == "file-empty-holders"


# ----------------------------------------------------------------- physical


class TestCheckPhysical:
    def make(self):
        physical = PhysicalMemory()
        space = VirtualAddressSpace("[inv]", physical)
        mapping = space.mmap(8 * PAGE_SIZE)
        space.touch(mapping.start, 8 * PAGE_SIZE, write=True)
        space.swap_out_range(mapping.start, 2 * PAGE_SIZE)
        return physical, space

    def test_healthy_passes(self):
        physical, space = self.make()
        check_physical(physical, [space])

    def test_anon_frame_leak(self):
        physical, space = self.make()
        physical._anon_frames += 1
        assert violation_name(check_physical, physical, [space]) == "frames-anon"

    def test_file_frame_leak(self):
        physical, space = self.make()
        physical._file_frames += 1
        assert violation_name(check_physical, physical, [space]) == "frames-file"

    def test_swap_flow_breaks_on_phantom_out(self):
        physical, space = self.make()
        physical.swap.total_swap_outs += 1
        assert violation_name(check_physical, physical, [space]) == "swap-flow"

    def test_swap_pages_vs_mappings(self):
        physical, space = self.make()
        physical.swap.pages += 1
        assert violation_name(check_physical, physical, [space]) == "swap-pages"

    def test_negative_frames(self):
        physical, space = self.make()
        physical._anon_frames = -1
        assert violation_name(check_physical, physical, [space]) == "frames-negative"

    def test_capacity_exceeded(self):
        physical, space = self.make()
        physical.capacity_bytes = PAGE_SIZE
        assert violation_name(check_physical, physical, [space]) == "frames-capacity"


# -------------------------------------------------------------------- smaps


class TestCheckSmaps:
    def test_healthy_passes(self):
        physical = PhysicalMemory()
        file = MappedFile("/inv/lib.so", 8 * PAGE_SIZE)
        space = VirtualAddressSpace("[inv]", physical)
        anon = space.mmap(8 * PAGE_SIZE)
        shared = space.mmap(8 * PAGE_SIZE, prot=PROT_RX, file=file)
        space.touch(anon.start, 4 * PAGE_SIZE, write=True)
        space.touch(shared.start, 6 * PAGE_SIZE, write=False)
        check_smaps(space)

    def test_pss_corruption_detected(self):
        physical = PhysicalMemory()
        file = MappedFile("/inv/lib.so", 8 * PAGE_SIZE)
        space = VirtualAddressSpace("[inv]", physical)
        shared = space.mmap(8 * PAGE_SIZE, prot=PROT_RX, file=file)
        space.touch(shared.start, 6 * PAGE_SIZE, write=False)
        file._pss[shared.id] = Fraction(0)
        with pytest.raises(Violation) as caught:
            check_smaps(space)
        assert caught.value.invariant.startswith("smaps-")


# ----------------------------------------------------------------- runtimes


class TestCheckRuntime:
    def make(self):
        instance = FunctionInstance(SPEC, memory_budget=32 * 1024 * KIB)
        instance.boot(0.0)
        instance.invoke(0.1)
        return instance

    def test_healthy_passes(self):
        check_runtime(self.make().runtime)

    def test_unbooted_runtime_skipped(self):
        instance = FunctionInstance(SPEC, memory_budget=32 * 1024 * KIB)
        check_runtime(instance.runtime)  # must not raise before boot

    def test_negative_gc_seconds(self):
        runtime = self.make().runtime
        runtime.total_gc_seconds = -0.5
        assert violation_name(check_runtime, runtime) == "gc-seconds"

    def test_used_beyond_committed(self):
        runtime = self.make().runtime
        runtime.heap_stats = lambda: SimpleNamespace(
            committed=PAGE_SIZE, used=2 * PAGE_SIZE, live_estimate=0
        )
        assert violation_name(check_runtime, runtime) == "heap-used-le-committed"

    def test_live_beyond_committed(self):
        runtime = self.make().runtime
        runtime.heap_stats = lambda: SimpleNamespace(
            committed=PAGE_SIZE, used=PAGE_SIZE, live_estimate=3 * PAGE_SIZE
        )
        assert violation_name(check_runtime, runtime) == "heap-live-le-committed"

    def test_negative_heap(self):
        runtime = self.make().runtime
        runtime.heap_stats = lambda: SimpleNamespace(
            committed=-1, used=0, live_estimate=0
        )
        assert violation_name(check_runtime, runtime) == "heap-negative"

    def make_cohort(self):
        """A booted runtime holding one persistent arena cohort."""
        with fastpath.override(True):
            instance = self.make()
            runtime = instance.runtime
            runtime.begin_invocation()
            (oid,) = runtime.alloc_cohort(4, 16 * KIB, scope="persistent")
            runtime.end_invocation()
        assert isinstance(runtime.graph.objects[oid], CohortObject)
        return runtime, oid

    def test_healthy_cohort_passes(self):
        runtime, _oid = self.make_cohort()
        check_cohort_shape(runtime)

    def test_cohort_size_not_count_times_unit(self):
        runtime, oid = self.make_cohort()
        runtime.graph.objects[oid].count -= 1
        assert violation_name(check_runtime, runtime) == "cohort-shape"

    def test_cohort_overrunning_its_chunk(self):
        runtime, oid = self.make_cohort()
        size = runtime.graph.objects[oid].size
        for chunk in runtime._arenas.chunks:
            for index, (held, _offset) in enumerate(chunk.objects):
                if held == oid:
                    chunk.objects[index] = (oid, chunk.payload - size + PAGE_SIZE)
        assert violation_name(check_runtime, runtime) == "cohort-shape"


# ---------------------------------------------------------------- instances


class TestCheckInstance:
    def make(self) -> FunctionInstance:
        instance = FunctionInstance(SPEC, memory_budget=32 * 1024 * KIB)
        instance.boot(0.0)
        instance.invoke(0.1)
        return instance

    def test_lifecycle_passes(self):
        instance = self.make()
        check_instance(instance)
        instance.freeze(1.0)
        check_instance(instance)
        instance.thaw(2.0)
        check_instance(instance)
        instance.destroy(3.0)
        check_instance(instance)

    def test_frozen_without_timestamp(self):
        instance = self.make()
        instance.freeze(1.0)
        instance.frozen_since = None
        assert violation_name(check_instance, instance) == "instance-frozen-since"

    def test_stale_frozen_since(self):
        instance = self.make()
        instance.frozen_since = 1.0
        assert violation_name(check_instance, instance) == "instance-frozen-since"

    def test_dead_with_open_space(self):
        instance = self.make()
        instance.state = InstanceState.DEAD
        assert violation_name(check_instance, instance) == "instance-dead-space"

    def test_alive_with_closed_space(self):
        instance = self.make()
        instance.destroy(3.0)
        instance.state = InstanceState.IDLE
        assert violation_name(check_instance, instance) == "instance-closed-space"

    def test_illegal_transition(self):
        instance = self.make()
        instance.transitions.append((1.0, InstanceState.RUNNING))
        assert violation_name(check_instance, instance) == "instance-transition"

    def test_time_regression(self):
        instance = self.make()
        instance.freeze(5.0)
        instance.transitions[-1] = (-1.0, InstanceState.FROZEN)
        assert violation_name(check_instance, instance) == "instance-transition-time"


# ----------------------------------------------------------------- platform


def fake_platform(**overrides):
    platform = SimpleNamespace(
        node_id=0,
        used_bytes=lambda: 10 * PAGE_SIZE,
        capacity_bytes=100 * PAGE_SIZE,
        overcommits=0,
        _running=1,
        max_concurrency=4,
        _instances={},
        cpu=SimpleNamespace(busy={"exec": 1.0, "gc": 0.25}),
    )
    for key, value in overrides.items():
        setattr(platform, key, value)
    return platform


class TestCheckPlatform:
    def test_healthy_passes(self):
        check_platform(fake_platform())

    def test_unrecorded_overcommit(self):
        platform = fake_platform(used_bytes=lambda: 200 * PAGE_SIZE)
        assert violation_name(check_platform, platform) == "cgroup-capacity"

    def test_recorded_overcommit_allowed(self):
        check_platform(
            fake_platform(used_bytes=lambda: 200 * PAGE_SIZE, overcommits=1)
        )

    def test_concurrency_out_of_bounds(self):
        assert (
            violation_name(check_platform, fake_platform(_running=-1))
            == "platform-concurrency"
        )
        assert (
            violation_name(check_platform, fake_platform(_running=9))
            == "platform-concurrency"
        )

    def test_negative_cpu_charge(self):
        platform = fake_platform(cpu=SimpleNamespace(busy={"gc": -0.1}))
        assert violation_name(check_platform, platform) == "cgroup-cpu"

    def test_dead_instance_still_pooled(self):
        dead = FunctionInstance(SPEC, memory_budget=32 * 1024 * KIB)
        dead.boot(0.0)
        dead.destroy(1.0)
        platform = fake_platform(_instances={"inv-py": [dead]})
        assert violation_name(check_platform, platform) == "platform-dead-pooled"


# ------------------------------------------------------- shard conservation


def shard_report(shard=0, clock=4.0, pages=2, outs=5, ins=2, discards=1, used=64):
    return {
        "shard": shard,
        "clock": clock,
        "conservation": {
            "frames_used_bytes": used,
            "swap_pages": pages,
            "swap_outs": outs,
            "swap_ins": ins,
            "swap_discards": discards,
        },
    }


class TestShardConservation:
    def test_healthy_barrier_passes(self):
        check_shard_conservation(
            [shard_report(0), shard_report(1, clock=5.0)], horizon=5.0
        )

    def test_flow_balances_globally_not_per_shard(self):
        """Pages swapped out on one shard's books may be accounted
        resident on another's aggregate: only the global sum gates."""
        check_shard_conservation(
            [
                shard_report(0, pages=0, outs=5, ins=2, discards=1),
                shard_report(1, pages=4, outs=3, ins=1, discards=0),
            ],
            horizon=10.0,
        )

    def test_broken_global_flow_detected(self):
        reports = [shard_report(pages=99)]
        assert (
            violation_name(check_shard_conservation, reports, 5.0)
            == "shard-swap-flow"
        )

    def test_negative_counter_detected(self):
        reports = [shard_report(used=-1)]
        assert (
            violation_name(check_shard_conservation, reports, 5.0)
            == "shard-frame-nonneg"
        )

    def test_clock_past_horizon_detected(self):
        reports = [shard_report(clock=5.5)]
        assert (
            violation_name(check_shard_conservation, reports, 5.0)
            == "shard-clock-horizon"
        )

    def test_clock_at_horizon_allowed(self):
        check_shard_conservation([shard_report(clock=5.0)], horizon=5.0)

    def test_drain_epoch_skips_clock_law(self):
        check_shard_conservation([shard_report(clock=99.0)], horizon=None)


def _footer(bucket=0, node=0, events=10, t_min=1.0, t_max=9.0, **extra):
    footer = {
        "name": f"seg-b{bucket:08d}-n{node:03d}.jsonl.gz",
        "bucket": bucket,
        "node": node,
        "events": events,
        "payload_bytes": 100,
        "bucket_seconds": 10.0,
        "t_min": t_min,
        "t_max": t_max,
    }
    footer.update(extra)
    return footer


class TestSegmentManifest:
    def test_healthy_manifest_passes(self):
        footers = [_footer(0, 0), _footer(0, 1), _footer(1, 0, t_min=10.0, t_max=19.5)]
        check_segment_manifest(footers)
        check_segment_manifest(footers, composed_events=30)

    def test_duplicate_cell_detected(self):
        with pytest.raises(Violation, match="duplicate segment"):
            check_segment_manifest([_footer(0, 0), _footer(0, 0)])

    def test_nonpositive_events_detected(self):
        with pytest.raises(Violation, match="claims 0 events"):
            check_segment_manifest([_footer(events=0, t_min=None, t_max=None)])

    def test_negative_payload_detected(self):
        with pytest.raises(Violation, match="negative payload_bytes"):
            check_segment_manifest([_footer(payload_bytes=-1)])

    def test_name_address_mismatch_detected(self):
        bad = _footer(bucket=1, t_min=10.0, t_max=12.0)
        bad["name"] = "seg-b00000002-n000.jsonl.gz"
        with pytest.raises(Violation, match="footer addresses"):
            check_segment_manifest([bad])

    def test_inverted_time_range_detected(self):
        with pytest.raises(Violation, match="t_min"):
            check_segment_manifest([_footer(t_min=9.0, t_max=1.0)])

    def test_time_outside_bucket_detected(self):
        with pytest.raises(Violation, match="outside bucket"):
            check_segment_manifest([_footer(bucket=0, t_max=10.0)])

    def test_event_sum_mismatch_detected(self):
        with pytest.raises(Violation, match="composed"):
            check_segment_manifest([_footer(events=10)], composed_events=11)

    def test_violation_kind(self):
        with pytest.raises(Violation) as err:
            check_segment_manifest([_footer(events=-1, t_min=None, t_max=None)])
        assert err.value.invariant == "segment-manifest"
