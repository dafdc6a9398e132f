"""One benchmark replay in a fresh process.

``run.py`` starts this file once per measured replay, because
``ru_maxrss`` never falls: a reused process would report an earlier
replay's peak.  It builds the workload's inputs from ``--seed`` through
the public API only (``TraceGenerator`` plus ``replay`` or
``cluster_replay``), times the replay, checks every output after the
timed region, and prints one JSON object as its last stdout line.

Modes:

* ``untraced`` -- the workload exactly as configured; the source of every
  end-to-end metric.
* ``serial``   -- ``cluster-sharded`` only: the same cluster driven
  in-process as the ``shards=1`` serial twin, untraced.  It is the
  baseline that the traced run's overhead is measured against.
* ``traced``   -- spans recorded around every layer boundary (see
  ``tracer.py``).  The cluster is driven as the serial twin, because
  spans cannot be recorded inside separate shard worker processes.

Apart from spans in ``traced`` mode, the only instrumentation is a few
one-shot markers (the first ``FaasPlatform.run`` / ``run_phase`` call,
each ``arrivals`` call, the shard pool start), each hit at most a few
times per replay.
"""

from __future__ import annotations

import time

SPAWN_CLOCK = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIB = 1 << 20

#: Workload shapes.  Windows are in simulated seconds; ``measured`` is
#: long enough that the measured window holds >= 1,000 requests for every
#: seed, so p99 has >= 10 samples beyond it.
WORKLOADS = {
    "replay-desiccant": {
        "policy": "desiccant",
        "scale": 15.0,
        "warmup": 30.0,
        "measured": 100.0,
        "capacity_mib": 1024,
    },
    "replay-vanilla": {
        "policy": "vanilla",
        "scale": 15.0,
        "warmup": 30.0,
        "measured": 100.0,
        "capacity_mib": 1024,
    },
    "cluster-sharded": {
        "policy": "desiccant",
        "scale": 40.0,
        "warmup": 45.0,
        "measured": 120.0,
        "capacity_mib": 2048,
        "nodes": 8,
        "shards": 2,
        "scheduler": "warm-affinity",
    },
}

#: Every workload replays one trace shape: each function's mean rate and
#: trigger pattern as ``TraceGenerator`` assigns them for this seed.
#: ``--seed`` draws the arrival times within that shape, so the host cost
#: per request does not swing with a re-drawn function mix.
SHAPE_SEED = 42

#: Fewest measured requests a workload may produce (the p99 rule).
MIN_MEASURED = 1000


class CheckFailed(Exception):
    """An output check failed; the message names the check."""


class Markers:
    """One-shot timestamps and counts taken at a few public call sites."""

    def __init__(self) -> None:
        self.first_event_clock = None
        self.first_event_cpu = None
        self.arrival_counts = []
        self.run_counts = []
        self.pool_start_s = 0.0

    def install(self) -> None:
        from repro.faas.cluster import ShardedClusterSession
        from repro.faas.platform import FaasPlatform
        from repro.sim.shard import ShardPool
        from repro.trace.generator import TraceGenerator

        markers = self
        platform_run = FaasPlatform.run
        run_phase = ShardedClusterSession.run_phase
        arrivals = TraceGenerator.arrivals
        pool_init = ShardPool.__init__

        def mark_first_event() -> None:
            if markers.first_event_clock is None:
                markers.first_event_cpu = _self_cpu()
                markers.first_event_clock = time.monotonic()

        def platform_run_marked(self, *args, **kwargs):
            mark_first_event()
            outcomes = platform_run(self, *args, **kwargs)
            markers.run_counts.append(len(outcomes))
            return outcomes

        def run_phase_marked(self, *args, **kwargs):
            mark_first_event()
            return run_phase(self, *args, **kwargs)

        def arrivals_marked(self, *args, **kwargs):
            events = arrivals(self, *args, **kwargs)
            markers.arrival_counts.append(len(events))
            return events

        def pool_init_marked(self, *args, **kwargs):
            started = time.perf_counter()
            pool_init(self, *args, **kwargs)
            markers.pool_start_s += time.perf_counter() - started

        FaasPlatform.run = platform_run_marked
        ShardedClusterSession.run_phase = run_phase_marked
        TraceGenerator.arrivals = arrivals_marked
        ShardPool.__init__ = pool_init_marked


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _children_usage():
    return resource.getrusage(resource.RUSAGE_CHILDREN)


def run_replay(workload: str, seed: int, mode: str, scratch: Path):
    """Run one replay; returns ``(result, call_wall_s, archive_dir)``."""
    from repro.core import Desiccant, VanillaManager
    from repro.faas.platform import PlatformConfig
    from repro.trace.generator import TraceGenerator
    from repro.trace.replay import (
        ClusterReplayConfig,
        ReplayConfig,
        cluster_replay,
        replay,
    )

    shape = WORKLOADS[workload]
    manager = {"desiccant": Desiccant, "vanilla": VanillaManager}[shape["policy"]]
    platform = PlatformConfig(capacity_bytes=shape["capacity_mib"] * MIB)
    generator = TraceGenerator(seed=seed)
    generator.specs = TraceGenerator(seed=SHAPE_SEED).specs
    if "nodes" not in shape:
        config = ReplayConfig(
            scale_factor=shape["scale"],
            warmup_seconds=shape["warmup"],
            warmup_scale_factor=shape["scale"],
            duration_seconds=shape["measured"],
            platform=platform,
            trace_seed=seed,
            digest_only=True,
        )
        started = time.perf_counter()
        result = replay(manager, config, generator)
        return result, time.perf_counter() - started, None
    archive_dir = scratch / f"archive-{os.getpid()}"
    config = ClusterReplayConfig(
        nodes=shape["nodes"],
        scheduler=shape["scheduler"],
        shards=shape["shards"] if mode == "untraced" else 1,
        scale_factor=shape["scale"],
        warmup_seconds=shape["warmup"],
        warmup_scale_factor=shape["scale"],
        duration_seconds=shape["measured"],
        platform=platform,
        trace_seed=seed,
        trace=True,
        archive_dir=str(archive_dir),
    )
    started = time.perf_counter()
    result = cluster_replay(manager, config, generator)
    return result, time.perf_counter() - started, archive_dir


def check_outputs(workload, seed, result, markers, archive_dir, expected):
    """Every output check; raises :class:`CheckFailed` on the first miss."""
    stats = result.stats
    warm, measured = markers.arrival_counts
    if stats.completed != measured:
        raise CheckFailed(
            f"conservation: {stats.completed} measured requests completed "
            f"of {measured} submitted"
        )
    if stats.completed < MIN_MEASURED:
        raise CheckFailed(
            f"p99 sample rule: {stats.completed} measured requests < {MIN_MEASURED}"
        )
    if archive_dir is None:
        from repro.check import check_instance, check_platform

        if markers.run_counts != [warm, measured]:
            raise CheckFailed(
                f"conservation: completed per window {markers.run_counts} "
                f"!= submitted {[warm, measured]}"
            )
        check_platform(result.platform)
        for instance in result.platform.all_instances():
            check_instance(instance)
    else:
        from repro.check import check_trace_archive

        if sum(result.per_node_requests) != warm + measured:
            raise CheckFailed(
                f"conservation: {sum(result.per_node_requests)} requests "
                f"routed of {warm + measured} submitted"
            )
        check_trace_archive(archive_dir, against_sha256=result.trace_sha256)
    if not result.trace_sha256:
        raise CheckFailed("the replay produced no trace digest")
    record = expected.get(workload, {}).get(str(seed))
    if record is not None:
        observed = sim_values(result)
        for key, want in record.items():
            if observed[key] != want:
                raise CheckFailed(
                    f"recorded {key} for {workload} seed {seed} is {want!r}, "
                    f"this run produced {observed[key]!r}"
                )


def sim_values(result) -> dict:
    """The simulated outputs a run is checked against: digest plus the
    paper's Fig. 9/10 metrics over the measured window."""
    stats = result.stats
    return {
        "trace_sha256": result.trace_sha256,
        "sim_cold_boot_rate": stats.cold_boot_rate,
        "sim_p50_latency_s": stats.p50_latency,
        "sim_p99_latency_s": stats.p99_latency,
        "sim_samples": stats.completed,
    }


def layer_metrics(summary: dict, counters: dict) -> dict:
    from tracer import SPAN_NAMES

    out = {}
    for name in SPAN_NAMES:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    cohorts = out["runtime.alloc_cohort.calls"]
    out["runtime.cohort_fallback_ratio"] = (
        summary["_fallback"]["calls"] / cohorts if cohorts else 0.0
    )
    out["mem.vmm.touch.faulted_pages"] = counters.get(
        "mem.vmm.touch.faulted_pages", 0.0
    )
    out["core.desiccant.released_mib"] = (
        counters.get("core.desiccant.released_bytes", 0.0) / MIB
    )
    return out


def warm_hit_ratio(result) -> float:
    if hasattr(result, "per_node"):
        warm = sum(info["warm_starts"] for info in result.per_node.values())
        cold = sum(info["cold_boots"] for info in result.per_node.values())
    else:
        warm, cold = result.platform.warm_starts, result.platform.cold_boots
    return warm / (warm + cold) if warm + cold else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("untraced", "serial", "traced"), default="untraced"
    )
    parser.add_argument("--spawned-at", type=float, default=SPAWN_CLOCK)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument(
        "--expected",
        type=Path,
        default=HERE / "expected.json",
        help="recorded digests and sim values per workload and seed",
    )
    args = parser.parse_args(argv)
    if args.mode == "serial" and "nodes" not in WORKLOADS[args.workload]:
        parser.error("serial mode applies to cluster workloads only")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.faas.cluster  # noqa: F401
    import repro.trace.replay  # noqa: F401

    import_done = time.monotonic()
    recorder = None
    if args.mode == "traced":
        import tracer

        recorder = tracer.SpanRecorder(args.run_id)
        tracer.install(recorder)
    markers = Markers()
    markers.install()
    scratch = args.out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    expected = (
        json.loads(args.expected.read_text()) if args.expected.exists() else {}
    )

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "ok": False,
        "error": None,
        "submitted": 0,
        "completed": 0,
    }
    archive_dir = None
    try:
        result, call_wall, archive_dir = run_replay(
            args.workload, args.seed, args.mode, scratch
        )
        returned = time.monotonic()
        self_cpu = _self_cpu()
        children = _children_usage()
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["submitted"] = sum(markers.arrival_counts)
        if archive_dir is None:
            out["completed"] = sum(markers.run_counts)
        else:
            # Each cluster phase drains every shard before it returns, so
            # the warmup's requests have all completed; the coordinator
            # sees only the measured window's outcomes.
            out["completed"] = markers.arrival_counts[0] + result.stats.completed
        # The timed region is over; everything below is checking.
        check_outputs(
            args.workload, args.seed, result, markers, archive_dir, expected
        )
        after_setup = returned - markers.first_event_clock
        requests = out["submitted"]
        cpu = (self_cpu - markers.first_event_cpu) + (
            children.ru_utime + children.ru_stime
        )
        out.update(
            ok=True,
            call_wall_s=call_wall,
            setup_s=markers.first_event_clock - args.spawned_at,
            requests_per_s=requests / after_setup,
            cpu_ms_per_req=1000.0 * cpu / requests,
            cpu_s=cpu,
            # ru_maxrss is KiB on Linux.
            peak_rss_mib=(self_rss + children.ru_maxrss) / 1024.0,
            sim=sim_values(result),
            import_s=import_done - args.spawned_at,
            warm_hit_ratio=warm_hit_ratio(result),
            trace_events=result.trace_events,
        )
        if archive_dir is not None:
            out["archive_mib"] = (
                sum(p.stat().st_size for p in archive_dir.rglob("*") if p.is_file())
                / MIB
            )
            out["shard"] = {
                "round_trips": result.round_trips,
                "pipe_bytes": result.pipe_bytes,
                "coordination_overhead_s": result.coordination_overhead,
                "worker_busy_s": result.worker_busy_seconds,
                "start_s": markers.pool_start_s,
            }
            per_node = result.per_node_requests
            out["request_imbalance"] = max(per_node) / (sum(per_node) / len(per_node))
        if recorder is not None:
            summary = recorder.summarize()
            out["layers"] = layer_metrics(summary, recorder.counters)
            out["attributed_s"] = sum(v["self_s"] for v in summary.values())
            recorder.write(args.out_dir / f"spans-{args.workload}.npz")
    except CheckFailed as exc:
        out["error"] = f"check failed: {exc}"
    except Exception:  # a crashed replay is a failed run, reported by name
        out["error"] = traceback.format_exc()
    finally:
        if archive_dir is not None:
            shutil.rmtree(archive_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
