"""Cohort allocation: the batched fast path vs the scalar reference.

``alloc_cohort(count, unit, scope)`` must be *semantically identical* to
``count`` scalar ``alloc(unit, scope=s)`` calls, one per member's scope
(``scope`` is one scope or a per-member sequence) -- same GC events
(trigger points, collected counts and bytes, pause seconds), same fault
attribution, same heap layout, same USS.  The differentials here replay mixed workloads
through both paths, on every runtime that batches, and compare every
observable checkpoint; the moving collectors (HotSpot, V8) must also
split runs exactly where per-member evacuation would part them.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.check import check_cohort_shape
from repro.mem.layout import KIB, MIB
from repro.runtime.base import OutOfMemory
from repro.runtime.cpython.runtime import CPythonConfig, CPythonRuntime
from repro.runtime.golang.runtime import GoConfig, GoRuntime
from repro.runtime.hotspot.runtime import HotSpotConfig, HotSpotRuntime
from repro.runtime.object_model import CohortObject, HeapObject, ObjectGraph
from repro.runtime.v8.chunks import CHUNK_PAYLOAD
from repro.runtime.v8.runtime import V8Config, V8Runtime


class TestObjectModel:
    def test_member_counts(self):
        assert HeapObject(oid=1, size=8).member_count == 1
        cohort = CohortObject(oid=2, size=96, count=12, unit=8)
        assert cohort.member_count == 12

    def test_new_cohort_size_and_validation(self):
        graph = ObjectGraph()
        oid = graph.new_cohort(5, 64)
        obj = graph.objects[oid]
        assert isinstance(obj, CohortObject)
        assert obj.size == 5 * 64 and obj.count == 5 and obj.unit == 64
        with pytest.raises(ValueError):
            graph.new_cohort(0, 64)
        with pytest.raises(ValueError):
            graph.new_cohort(5, 0)

    def test_sweep_counts_cohort_members(self):
        graph = ObjectGraph()
        kept = graph.new_object(32)
        graph.root_persistent(kept)
        graph.new_cohort(10, 16)  # unrooted: dies at the next sweep
        graph.new_object(8)
        count, volume = graph.sweep(graph.reachable())
        assert count == 11  # 10 members + 1 scalar
        assert volume == 10 * 16 + 8

    def test_split_keeps_bytes_age_and_roots(self):
        graph = ObjectGraph()
        graph.push_frame()
        oid = graph.new_cohort(10, 16)
        graph.root_in_frame(oid)
        graph.root_weak(oid)
        graph.objects[oid].age = 3
        tail = graph.split_cohort(oid, 4)
        head_obj, tail_obj = graph.objects[oid], graph.objects[tail]
        assert (head_obj.count, head_obj.size) == (4, 64)
        assert (tail_obj.count, tail_obj.size, tail_obj.unit) == (6, 96, 16)
        assert tail_obj.age == 3
        assert tail in graph.weak_roots and tail not in graph.persistent_roots
        assert graph.reachable(include_weak=False) == {oid, tail}
        assert graph.pop_frame() == {oid, tail}

    @pytest.mark.parametrize("head", (0, 10, 11))
    def test_split_rejects_empty_sides(self, head):
        graph = ObjectGraph()
        oid = graph.new_cohort(10, 16)
        with pytest.raises(ValueError):
            graph.split_cohort(oid, head)
        with pytest.raises(ValueError):
            graph.split_cohort(graph.new_object(16), 1)


#: Every runtime that places cohorts, by test id: (runtime, config,
#: config fields).
RUNTIMES = {
    "hotspot": (HotSpotRuntime, HotSpotConfig, {}),
    "v8": (V8Runtime, V8Config, {}),
    "v8-compact": (V8Runtime, V8Config, {"compact_on_reclaim": True}),
    "cpython": (CPythonRuntime, CPythonConfig, {}),
    "go": (GoRuntime, GoConfig, {}),
}


def make(name, **fields):
    runtime, config, preset = RUNTIMES[name]
    return runtime(name, config(**preset, **fields))


def _observe(runtime):
    """Every observable the two paths must agree on, at one point."""
    return (
        runtime.invocation_fault_seconds,
        runtime.invocation_gc_seconds,
        runtime.uss(),
        runtime.space.faults.minor,
        runtime.space.faults.major,
        tuple(sorted(Counter(e.kind for e in runtime.gc_events).items())),
    )


def _swap_heap(runtime):
    for mapping in runtime._heap_mappings():
        runtime.space.swap_out_range(mapping.start, mapping.length)


def _summary(runtime):
    stats = runtime.heap_stats()
    return [
        ("heap", stats.committed, stats.used, stats.live_estimate),
        ("uss", runtime.uss(), runtime.heap_resident_bytes(), runtime.live_bytes()),
        (
            "gc",
            [(e.kind, e.seconds, e.collected_bytes, e.live_bytes) for e in runtime.gc_events],
        ),
        ("faults", runtime.space.faults.minor, runtime.space.faults.major),
    ]


def _drive(runtime):
    """One mixed workload; returns every observable checkpoint."""
    log = []
    runtime.boot()
    for inv in range(3):
        runtime.begin_invocation()
        runtime.touch_live_data()
        if inv == 0:
            runtime.alloc_cohort(8, 32 * KIB, scope="persistent")
        # Crosses GC triggers repeatedly; includes unaligned unit sizes.
        runtime.alloc_cohort(150, 24 * KIB, scope="ephemeral")
        runtime.alloc_cohort(45, 40 * KIB, scope="frame")
        runtime.alloc_cohort(1, 7 * KIB, scope="ephemeral")
        runtime.alloc_cohort(17, 5000, scope="frame")
        if inv == 1:
            # Collect and release with frame runs live in the young
            # generation: they evacuate (and V8 may compact) mid-call.
            log.append(("reclaim", runtime.reclaim().released_bytes))
            runtime.alloc_cohort(30, 12 * KIB, scope="persistent")
        log.append((inv, runtime.invocation_fault_seconds, runtime.invocation_gc_seconds))
        runtime.end_invocation()
    # Swap the heap out, then allocate over the swapped free space: cohort
    # touches must bill major faults to the same members the scalar path does.
    _swap_heap(runtime)
    runtime.begin_invocation()
    runtime.touch_live_data()
    runtime.alloc_cohort(120, 16 * KIB, scope="ephemeral")
    runtime.alloc_cohort(60, 20 * KIB, scope="frame")
    log.append(("post-swap", runtime.invocation_fault_seconds))
    log.append(("reclaim-aggressive", runtime.reclaim(aggressive=True).released_bytes))
    runtime.end_invocation()
    log.append(("final-gc", runtime.collect(full=True)))
    log.extend(_summary(runtime))
    log.append(("kinds", sorted(Counter(e.kind for e in runtime.gc_events).items())))
    return log


@pytest.mark.parametrize("name", RUNTIMES)
class TestDifferential:
    def test_cohort_path_matches_scalar_path(self, name):
        with fastpath.override(False):
            scalar = _drive(make(name))
        with fastpath.override(True):
            cohort = _drive(make(name))
        assert scalar == cohort

    def test_member_total_is_exact(self, name):
        """The fast path may fuse members into fewer graph nodes, but the
        mutator-visible object count and byte volume must stay exact."""
        with fastpath.override(True):
            runtime = make(name)
            runtime.boot()
            runtime.begin_invocation()
            oids = runtime.alloc_cohort(40, 8 * KIB, scope="frame")
            assert len(oids) < 40
            members = sum(
                runtime.graph.objects[oid].member_count for oid in set(oids)
            )
            assert members == 40
            volume = sum(runtime.graph.objects[oid].size for oid in set(oids))
            assert volume == 40 * 8 * KIB
            runtime.end_invocation()


# ------------------------------------------------------------ the property

_SCOPES = ("ephemeral", "ephemeral", "frame", "frame", "persistent", "weak")

#: ``(anchor, divisor, delta)``: the unit is ``anchor // divisor + delta``
#: bytes, anchored at the to-space size (runs that overflow it) or the
#: chunk payload (runs that straddle chunk boundaries), or a plain KiB.
_UNITS = st.tuples(
    st.sampled_from(("kib", "to", "chunk")),
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=-1, max_value=1),
)

#: Per-member scope sequences for one mixed run: free draws over every
#: scope, or a short pattern repeated (two or more surviving scopes
#: interleaved, the shape that folds into many same-scope groups).
_MIXED_SCOPES = st.one_of(
    st.lists(st.sampled_from(_SCOPES), min_size=1, max_size=48),
    st.builds(
        lambda pattern, reps: pattern * reps,
        st.lists(st.sampled_from(_SCOPES), min_size=2, max_size=5),
        st.integers(min_value=1, max_value=16),
    ),
    st.builds(
        lambda pair, gap, reps: (list(pair) + ["ephemeral"] * gap) * reps,
        st.permutations(("frame", "persistent", "weak")).map(lambda p: p[:2]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=24),
    ),
)

_OPS = st.one_of(
    st.tuples(
        st.just("alloc"),
        st.integers(min_value=1, max_value=48),
        _UNITS,
        st.sampled_from(_SCOPES),
    ),
    st.tuples(st.just("mixed"), _UNITS, _MIXED_SCOPES),
    st.tuples(st.just("reclaim"), st.booleans()),
    st.tuples(st.just("full_gc"), st.booleans()),
    st.tuples(st.just("young")),
    st.tuples(st.just("swap")),
    st.tuples(st.just("next")),
)


def _unit(runtime, anchor, divisor, delta):
    if anchor == "kib":
        return divisor * KIB + delta
    survivor = getattr(runtime, "_to", None)
    if anchor == "to" and survivor is not None:
        base = survivor.committed
    else:
        base = CHUNK_PAYLOAD
    return max(1, base // divisor + delta)


def _run_ops(runtime, ops):
    """Apply ``ops`` to a booted runtime; returns the observation log."""
    log = []
    runtime.boot()
    runtime.begin_invocation()
    try:
        for index, op in enumerate(ops):
            if op[0] in ("alloc", "mixed"):
                if op[0] == "alloc":
                    _name, count, unit_spec, scope = op
                    scopes = [scope] * count
                else:
                    _name, unit_spec, scope = op
                    scopes = list(scope)
                    count = len(scopes)
                unit = _unit(runtime, *unit_spec)
                # Surviving members accumulate; keep the heap from
                # legitimately running out.
                kept = sum(s in ("persistent", "weak") for s in scopes)
                if kept and runtime.live_bytes() + kept * unit > runtime.config.max_heap // 4:
                    continue
                runtime.alloc_cohort(count, unit, scope=scope)
            elif op[0] == "reclaim":
                runtime.reclaim(aggressive=op[1])
            elif op[0] == "full_gc":
                runtime.full_gc(aggressive=op[1])
            elif op[0] == "young":
                runtime.collect(full=False)
            elif op[0] == "swap":
                _swap_heap(runtime)
            else:
                runtime.end_invocation()
                runtime.begin_invocation()
            log.append((index, _observe(runtime)))
            check_cohort_shape(runtime)
    except OutOfMemory as exc:
        log.append(("oom", str(exc).replace(runtime.name, "")))
        return log
    runtime.end_invocation()
    log.extend(_summary(runtime))
    return log


@pytest.mark.parametrize("name", RUNTIMES)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(_OPS, min_size=1, max_size=20))
# Frame and persistent members interleaved past the to-space: which of
# them the overflow promotes shows once the frame dies and the next
# scavenge copies only what is left.
@example(
    ops=[
        ("mixed", ("to", 16, 0), ["frame", "persistent"] * 24),
        ("young",),
        ("next",),
        ("young",),
    ]
)
def test_property_cohort_equals_scalar(name, ops):
    """Single-scope and mixed-scope runs (``alloc_cohort`` with one
    scope per member) against per-member scalar ``alloc``."""
    # A small heap: collections come every few ops.
    with fastpath.override(False):
        scalar = _run_ops(make(name, memory_budget=32 * MIB), ops)
    with fastpath.override(True):
        cohort = _run_ops(make(name, memory_budget=32 * MIB), ops)
    assert scalar == cohort


# ------------------------------------------------------------ split sites

#: Where a moving collector must cut a run, as (direct caller, the
#: collection phase it runs in).
SPLIT_SITES = {
    ("_young_gc", "_young_gc"),  # HotSpot: to-space overflow
    ("_scavenge", "_scavenge"),  # V8: to-space overflow
    ("_put_old", "_scavenge"),  # V8: promotion across chunks
    ("_put_old", "_full_gc"),  # V8: young evacuation across chunks
    ("_put_old", "_compact_old"),  # V8: compaction across chunks
}
_PHASES = {"_young_gc", "_scavenge", "_full_gc", "_compact_old"}


@pytest.fixture
def split_sites(monkeypatch):
    """Record the call site of every ``split_cohort``."""
    sites = set()
    split = ObjectGraph.split_cohort

    def recording(graph, oid, head):
        frame = sys._getframe(1)
        caller = frame.f_code.co_name
        while frame.f_code.co_name not in _PHASES:
            frame = frame.f_back
        sites.add((caller, frame.f_code.co_name))
        return split(graph, oid, head)

    monkeypatch.setattr(ObjectGraph, "split_cohort", recording)
    return sites


def _hotspot_survivor_overflow():
    runtime = make("hotspot", memory_budget=32 * MIB)
    runtime.boot()
    runtime.begin_invocation()
    # 640 KiB of live run against a ~276 KiB survivor space.
    runtime.alloc_cohort(40, 16 * KIB, scope="frame")
    runtime.collect(full=False)
    return runtime


def _v8_survivor_overflow():
    runtime = make("v8", memory_budget=32 * MIB)
    runtime.boot()
    runtime.begin_invocation()
    runtime.alloc_cohort(40, 16 * KIB, scope="frame")
    # V8 sizes both semispaces together, so a scavenge never overflows
    # its to-space on its own; shrink it to reach the per-member
    # overflow promotion the scalar path implements.
    runtime._set_semi_committed(runtime._to, 256 * KIB)
    runtime.collect(full=False)
    return runtime


def _v8_promotion():
    runtime = make("v8", memory_budget=32 * MIB)
    runtime.boot()
    runtime.begin_invocation()
    runtime.alloc_cohort(40, 16 * KIB, scope="frame")
    runtime.collect(full=False)
    runtime.collect(full=False)  # second survival: tenured into chunks
    return runtime


def _v8_evacuation():
    runtime = make("v8", memory_budget=32 * MIB)
    runtime.boot()
    runtime.begin_invocation()
    runtime.alloc_cohort(40, 16 * KIB, scope="frame")
    runtime.full_gc(aggressive=False)
    return runtime


def _v8_compaction():
    runtime = make("v8-compact", memory_budget=32 * MIB)
    runtime.boot()
    runtime.begin_invocation()
    # A dead scalar object ahead of the run shifts every chunk boundary
    # once compaction packs the survivors.
    doomed = runtime.alloc(100 * KIB, scope="persistent")
    runtime.alloc_cohort(40, 16 * KIB, scope="persistent")
    runtime.full_gc(aggressive=False)
    runtime.free_persistent(doomed)
    runtime.reclaim()
    return runtime


def _hotspot_mixed_overflow():
    runtime = make("hotspot", memory_budget=32 * MIB)
    runtime.boot()
    runtime.begin_invocation()
    # Frame and persistent groups of three, an ephemeral after each: 30
    # surviving members of 16 KiB against a ~276 KiB survivor space, so
    # the to-space split falls inside the sixth survivor group.
    scopes = (["frame"] * 3 + ["ephemeral"] + ["persistent"] * 3 + ["ephemeral"]) * 5
    runtime.alloc_cohort(len(scopes), 16 * KIB, scope=scopes)
    runtime.collect(full=False)
    return runtime


#: At least one scenario per entry of ``SPLIT_SITES``.
SCENARIOS = (
    _hotspot_survivor_overflow,
    _v8_survivor_overflow,
    _v8_promotion,
    _v8_evacuation,
    _v8_compaction,
    _hotspot_mixed_overflow,
)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_split_scenario_matches_scalar(scenario):
    with fastpath.override(False):
        scalar = _summary(scenario())
    with fastpath.override(True):
        runtime = scenario()
        check_cohort_shape(runtime)
        cohort = _summary(runtime)
    assert scalar == cohort


def test_every_split_site_fires(split_sites):
    with fastpath.override(True):
        for scenario in SCENARIOS:
            scenario()
    assert split_sites == SPLIT_SITES


def test_survivor_overflow_splits_inside_a_mixed_run(split_sites):
    """The to-space split of a mixed run lands inside its survivor-group
    sequence: frame and persistent members on both sides of the cut."""
    with fastpath.override(True):
        runtime = _hotspot_mixed_overflow()
    assert split_sites == {("_young_gc", "_young_gc")}
    graph = runtime.graph

    def scopes(space):
        return {
            "persistent" if oid in graph.persistent_roots else "frame"
            for oid in space.objects
        }

    assert scopes(runtime._from) == scopes(runtime._old) == {"frame", "persistent"}


@pytest.mark.parametrize("name", ("hotspot", "v8"))
class TestMixedScopeFold:
    def test_segment_folds_ephemerals_and_keeps_survivor_order(self, name):
        with fastpath.override(True):
            runtime = make(name)
            runtime.boot()
            runtime.begin_invocation()
            pattern = ["ephemeral", "frame", "persistent", "frame"]
            oids = runtime.alloc_cohort(12, 8 * KIB, scope=pattern * 3)
            objects = runtime.graph.objects
            # One ephemeral cohort, then the survivors' maximal same-scope
            # groups in allocation order: F P FF P FF P F.
            assert [objects[oid].member_count for oid in oids] == [3, 1, 1, 2, 1, 2, 1, 1]
            persistent = runtime.graph.persistent_roots
            assert [oid in persistent for oid in oids[1:]] == [
                False, True, False, True, False, True, False,
            ]
            assert oids[0] not in persistent
            assert sum(objects[oid].size for oid in oids) == 12 * 8 * KIB
            runtime.end_invocation()

    def test_scope_count_mismatch_raises(self, name):
        runtime = make(name)
        runtime.boot()
        runtime.begin_invocation()
        with pytest.raises(ValueError):
            runtime.alloc_cohort(3, 8 * KIB, scope=["frame", "ephemeral"])

    def test_unknown_scope_raises(self, name):
        with fastpath.override(True):
            runtime = make(name)
            runtime.boot()
            runtime.begin_invocation()
            with pytest.raises(ValueError):
                runtime.alloc_cohort(2, 8 * KIB, scope=["frame", "stack"])


class TestScalarFallbacks:
    def test_count_one_and_disabled_fastpath_stay_scalar(self):
        with fastpath.override(False):
            runtime = CPythonRuntime("fallback")
            runtime.boot()
            runtime.begin_invocation()
            oids = runtime.alloc_cohort(3, 4 * KIB, scope="frame")
            assert len(oids) == 3
            for oid in oids:
                assert not isinstance(runtime.graph.objects[oid], CohortObject)
            runtime.end_invocation()

    def test_large_units_stay_scalar(self):
        """Units past the large-object threshold take the scalar path even
        with the fast path on (they never share arena chunks)."""
        with fastpath.override(True):
            runtime = CPythonRuntime("large")
            threshold = runtime.config.large_object_threshold
            runtime.boot()
            runtime.begin_invocation()
            oids = runtime.alloc_cohort(2, threshold, scope="frame")
            for oid in oids:
                assert not isinstance(runtime.graph.objects[oid], CohortObject)
            runtime.end_invocation()

    def test_zero_count_returns_empty(self):
        runtime = CPythonRuntime("empty")
        runtime.boot()
        assert runtime.alloc_cohort(0, 4 * KIB) == []
