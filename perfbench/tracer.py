"""Outside-in span tracing for the traced benchmark run.

The benchmark wraps public methods of the simulator's layers from here,
without touching ``src/``.  Each wrapped call records one span -- name,
start, end, parent span -- into flat arrays kept in memory; the run id
is the same for every span of one process and is written alongside them
when the run ends.  A span's self time is its duration minus the
durations of its direct child spans.

Wrappers are installed on the classes before any simulator object is
built, so objects that bind a method at construction bind the wrapper.
When an override calls ``super()`` into a method with the same span name,
the inner call joins the outer span instead of opening a nested one.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


#: Every span name, in report order.
SPAN_NAMES = (
    "runtime.alloc",
    "runtime.alloc_cohort",
    "runtime.touch_live_data",
    "mem.vmm.touch",
    "mem.vmm.discard",
    "mem.vmm.mmap",
    "mem.vmm.munmap",
    "mem.vmm.commit",
    "mem.vmm.uncommit",
    "faas.instance.boot",
    "faas.instance.destroy",
    "faas.instance.invoke",
    "faas.instance.freeze",
    "faas.instance.thaw",
    "faas.platform",
    "core.desiccant.step",
    "core.desiccant.reclaim",
    "workloads.invoke",
    "sim.bus.publish",
    "trace.archive.add_many",
    "trace.archive.close",
    "trace.generator.arrivals",
    "faas.keepalive.choose_victim",
    "runtime.collect",
)


class SpanRecorder:
    """Flat, append-only span storage plus per-layer counters."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        #: Counters taken from return values at the span boundary
        #: (e.g. faulted pages of each ``touch``).
        self.counters: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        counter: Optional[Callable[[tuple, object], Tuple[str, float]]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``counter(args, result)`` returns ``(counter_name, amount)`` to add
        after each outermost call.
        """
        nid = self.name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if counter is not None:
                key, amount = counter(args, result)
                counters[key] = counters.get(key, 0.0) + amount
            return result

        return wrapper

    # --------------------------------------------------------- analysis

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as columns (``start``/``end`` in perf_counter seconds)."""
        count = len(self.name_ids)
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "run_id": np.full(count, self.run_id, dtype=np.int64),
        }

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``; plus the ``_fallback``
        count of ``runtime.alloc_cohort`` spans that hold scalar
        ``runtime.alloc`` children."""
        cols = self.arrays()
        names, parents = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=self_time, minlength=width)
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        fallback = 0
        alloc = self._ids.get("runtime.alloc")
        cohort = self._ids.get("runtime.alloc_cohort")
        if alloc is not None and cohort is not None:
            scalar = (names == alloc) & has_parent
            owners = parents[scalar]
            fallback = int(np.unique(owners[names[owners] == cohort]).size)
        out["_fallback"] = {"calls": fallback, "self_s": 0.0}
        return out

    def write(self, path) -> None:
        """Write every span, with its run id, to ``path`` (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _faulted_pages(args: tuple, result) -> Tuple[str, float]:
    return "mem.vmm.touch.faulted_pages", result.minor + result.major


def _released_bytes(args: tuple, result) -> Tuple[str, float]:
    manager = args[0]
    return "core.desiccant.released_bytes", manager.reports[-1].released_bytes


def layer_targets() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, counter)`` for every wrapped boundary."""
    from repro.core.desiccant import Desiccant
    from repro.faas.cluster import ClusterShardHost
    from repro.faas.instance import FunctionInstance
    from repro.faas.keepalive import (
        GreedyDualSizeFrequency,
        HybridHistogramKeepAlive,
        LruEviction,
    )
    from repro.faas.platform import FaasPlatform
    from repro.mem.vmm import VirtualAddressSpace
    from repro.runtime.base import ManagedRuntime
    from repro.sim.bus import LinearEventBus
    from repro.trace.archive import ArchiveWriter
    from repro.trace.generator import TraceGenerator
    from repro.workloads.model import FunctionModel

    targets: List[Tuple[type, str, str, Optional[Callable]]] = [
        (ManagedRuntime, "alloc", "runtime.alloc", None),
        (ManagedRuntime, "alloc_cohort", "runtime.alloc_cohort", None),
        (ManagedRuntime, "touch_live_data", "runtime.touch_live_data", None),
        (VirtualAddressSpace, "touch", "mem.vmm.touch", _faulted_pages),
        (VirtualAddressSpace, "discard", "mem.vmm.discard", None),
        (VirtualAddressSpace, "mmap", "mem.vmm.mmap", None),
        (VirtualAddressSpace, "munmap", "mem.vmm.munmap", None),
        (VirtualAddressSpace, "commit", "mem.vmm.commit", None),
        (VirtualAddressSpace, "uncommit", "mem.vmm.uncommit", None),
        (FunctionInstance, "boot", "faas.instance.boot", None),
        (FunctionInstance, "destroy", "faas.instance.destroy", None),
        (FunctionInstance, "invoke", "faas.instance.invoke", None),
        (FunctionInstance, "freeze", "faas.instance.freeze", None),
        (FunctionInstance, "thaw", "faas.instance.thaw", None),
        (FaasPlatform, "run", "faas.platform", None),
        (ClusterShardHost, "advance", "faas.platform", None),
        (Desiccant, "step", "core.desiccant.step", None),
        (Desiccant, "reclaim", "core.desiccant.reclaim", _released_bytes),
        (FunctionModel, "invoke", "workloads.invoke", None),
        (LinearEventBus, "publish", "sim.bus.publish", None),
        (ArchiveWriter, "add_many", "trace.archive.add_many", None),
        (ArchiveWriter, "close", "trace.archive.close", None),
        (TraceGenerator, "arrivals", "trace.generator.arrivals", None),
    ]
    for policy in (LruEviction, GreedyDualSizeFrequency, HybridHistogramKeepAlive):
        targets.append(
            (policy, "choose_victim", "faas.keepalive.choose_victim", None)
        )
    # ``collect`` is abstract on the base; wrap every concrete override.
    for runtime in _subclasses(ManagedRuntime):
        if "collect" in vars(runtime):
            targets.append((runtime, "collect", "runtime.collect", None))
    return targets


def _subclasses(cls: type) -> List[type]:
    import repro.runtime.cpython.runtime  # noqa: F401  (registers subclasses)
    import repro.runtime.g1.runtime  # noqa: F401
    import repro.runtime.golang.runtime  # noqa: F401
    import repro.runtime.hotspot.runtime  # noqa: F401
    import repro.runtime.v8.runtime  # noqa: F401

    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary in ``recorder`` spans."""
    for cls, method, name, counter in layer_targets():
        setattr(cls, method, recorder.wrap(vars(cls)[method], name, counter))
