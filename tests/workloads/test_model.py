"""Unit tests for function models driving runtimes."""

import pytest

from repro import fastpath
from repro.mem.layout import KIB, MIB
from repro.runtime.hotspot import HotSpotRuntime
from repro.runtime.v8 import V8Runtime
from repro.workloads.model import FunctionDefinition, FunctionModel, FunctionSpec
from repro.workloads.registry import definitions_by_language


def make_spec(**overrides) -> FunctionSpec:
    base = dict(
        name="f",
        language="java",
        description="test function",
        base_exec_seconds=0.05,
        ephemeral_bytes=2 * MIB,
        frame_bytes=256 * KIB,
        persistent_bytes=1 * MIB,
        init_ephemeral_bytes=1 * MIB,
        jitter=0.0,
    )
    base.update(overrides)
    return FunctionSpec(**base)


def booted_jvm():
    rt = HotSpotRuntime("jvm")
    rt.boot()
    return rt


class TestSpecValidation:
    def test_rejects_zero_exec_time(self):
        with pytest.raises(ValueError):
            make_spec(base_exec_seconds=0)

    def test_rejects_negative_volumes(self):
        with pytest.raises(ValueError):
            make_spec(ephemeral_bytes=-1)

    def test_definition_rejects_language_mismatch(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            FunctionDefinition(
                name="f", language="javascript", description="x", stages=(spec,)
            )

    def test_definition_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            FunctionDefinition(name="f", language="java", description="x", stages=())


class TestInvocation:
    def test_invocation_produces_positive_cost(self):
        rt = booted_jvm()
        model = FunctionModel(make_spec())
        result = model.invoke(rt)
        assert result.cpu_seconds > 0
        assert result.cpu_seconds >= 0.05  # at least the base exec time

    def test_persistent_state_established_once(self):
        rt = booted_jvm()
        model = FunctionModel(make_spec())
        model.invoke(rt)
        live_after_first = rt.live_bytes()
        model.invoke(rt)
        assert rt.live_bytes() == live_after_first
        assert live_after_first == pytest.approx(1 * MIB, rel=0.02)

    def test_temporaries_become_garbage_after_exit(self):
        rt = booted_jvm()
        model = FunctionModel(make_spec())
        model.invoke(rt)
        assert rt.graph.total_bytes() > rt.live_bytes()

    def test_handoff_returned_and_rooted(self):
        rt = booted_jvm()
        model = FunctionModel(make_spec(handoff_bytes=2 * MIB))
        result = model.invoke(rt)
        assert result.handoff_oid is not None
        assert result.handoff_oid in rt.graph.persistent_roots
        rt.free_persistent(result.handoff_oid)
        assert rt.live_bytes() == pytest.approx(1 * MIB, rel=0.02)

    def test_jit_warms_across_invocations(self):
        rt = V8Runtime("node")
        rt.boot()
        model = FunctionModel(make_spec(language="javascript", interp_penalty=2.0))
        first = model.invoke(rt)
        for _ in range(6):
            last = model.invoke(rt)
        assert first.jit_multiplier > last.jit_multiplier
        assert last.jit_multiplier == pytest.approx(1.0)

    def test_determinism_same_seed(self):
        costs1 = []
        costs2 = []
        for costs in (costs1, costs2):
            rt = booted_jvm()
            model = FunctionModel(make_spec(jitter=0.1), seed=7)
            for _ in range(5):
                costs.append(model.invoke(rt).cpu_seconds)
        assert costs1 == costs2

    def test_different_seeds_differ(self):
        def run(seed):
            rt = booted_jvm()
            model = FunctionModel(make_spec(jitter=0.1), seed=seed)
            return [model.invoke(rt).cpu_seconds for _ in range(5)]

        assert run(1) != run(2)

    def test_gc_and_fault_seconds_reported(self):
        rt = booted_jvm()
        model = FunctionModel(make_spec(ephemeral_bytes=16 * MIB))
        for _ in range(3):
            result = model.invoke(rt)
        assert result.gc_seconds >= 0
        assert result.fault_seconds >= 0


@pytest.mark.parametrize(
    "language, runtime_class", (("java", HotSpotRuntime), ("javascript", V8Runtime))
)
def test_steady_invocation_body_is_folded(language, runtime_class):
    """A warm invocation of every Table 1 stage sends its body as a handful
    of mixed-scope ``alloc_cohort`` calls -- one per same-size stretch of
    the interleaved ephemeral and frame draws, so at most four (a full-size
    stretch and a tail per volume) -- and the bump space folds each
    GC-free segment into at most an ephemeral cohort plus a frame group.
    A body unfolded into one call per scope change fails here."""
    with fastpath.override(True):
        for definition in definitions_by_language(language):
            for stage in definition.stages:
                runtime = runtime_class(stage.name)
                runtime.boot()
                model = FunctionModel(stage, seed=1)
                for _ in range(3):
                    model.invoke(runtime)
                calls = []
                alloc_cohort = runtime.alloc_cohort

                def counting(count, unit, scope="frame"):
                    oids = alloc_cohort(count, unit, scope=scope)
                    calls.append((count, len(oids)))
                    return oids

                runtime.alloc_cohort = counting
                collections = len(runtime.gc_events)
                model.invoke(runtime)
                collections = len(runtime.gc_events) - collections
                assert 1 <= len(calls) <= 4, (stage.name, calls)
                # Per segment: an ephemeral cohort, a frame group, and the
                # scalar member that triggers the next collection.
                nodes = sum(n for _count, n in calls)
                assert nodes <= 3 * (len(calls) + collections), (stage.name, calls)
