"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run the real workloads (about three minutes in total), so they are
kept out of the repository's tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import WORKLOADS  # noqa: E402
from run import END_TO_END, per_layer_units  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

ALL = tuple(WORKLOADS)

#: Per-layer metrics that must be non-zero on each workload: the
#: metric -> layer -> workload table in README.md.  A fast path that binds
#: a method before the wrappers install would read zero here.
EXPECTED_NONZERO = {
    "runtime.alloc.calls": ALL,
    "runtime.alloc_cohort.calls": ALL,
    "runtime.collect.calls": ALL,
    "runtime.touch_live_data.calls": ALL,
    "mem.vmm.touch.calls": ALL,
    "mem.vmm.touch.faulted_pages": ALL,
    "mem.vmm.discard.calls": ("replay-desiccant",),
    "mem.vmm.mmap.calls": ALL,
    "mem.vmm.munmap.calls": ("replay-vanilla",),
    "mem.vmm.commit.calls": ALL,
    "mem.vmm.uncommit.calls": ("replay-desiccant",),
    "faas.instance.boot.calls": ALL,
    "faas.instance.destroy.calls": ("replay-vanilla",),
    "faas.keepalive.choose_victim.calls": ("replay-vanilla",),
    "core.desiccant.step.calls": ("replay-desiccant", "cluster-sharded"),
    "core.desiccant.reclaim.calls": ("replay-desiccant",),
    "core.desiccant.released_mib": ("replay-desiccant",),
    "workloads.invoke.calls": ALL,
    "faas.instance.invoke.calls": ALL,
    "faas.instance.freeze.calls": ALL,
    "faas.instance.thaw.calls": ALL,
    "faas.platform.self_s": ALL,
    "faas.platform.warm_hit_ratio": ALL,
    "sim.bus.publish.calls": ALL,
    "sim.trace.events": ALL,
    "trace.archive.add_many.calls": ("cluster-sharded",),
    "trace.archive.close.calls": ("cluster-sharded",),
    "trace.archive.compressed_mib": ("cluster-sharded",),
    "sim.shard.round_trips": ("cluster-sharded",),
    "sim.shard.pipe_bytes": ("cluster-sharded",),
    "sim.shard.worker_busy_s": ("cluster-sharded",),
    "sim.shard.start_s": ("cluster-sharded",),
    "faas.cluster.request_imbalance": ("cluster-sharded",),
    "trace.generator.arrivals.calls": ALL,
    "setup.import_s": ALL,
}


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def bench(tmp: Path, *args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--out-dir", str(tmp), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=clean_env() if env is None else env,
        timeout=400,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One ``--trace 1`` run per workload: ``{workload: (line, report)}``."""
    out = {}
    for workload in ALL:
        tmp = tmp_path_factory.mktemp(workload)
        proc = bench(tmp, "--workload", workload, "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(
            (tmp / f"result-{workload}-seed42-trace1.json").read_text()
        )
        out[workload] = (last_json(proc), result["reports"][workload])
    return out


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_wrapped_boundary_has_a_reported_span_name():
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import layer_targets

    assert {target[2] for target in layer_targets()} == set(SPAN_NAMES)


def test_refuses_to_run_with_a_repro_variable_set(tmp_path):
    env = dict(clean_env(), REPRO_MEMO="1")
    proc = bench(tmp_path, "--workload", "replay-vanilla", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "REPRO_MEMO" in proc.stderr


@pytest.mark.parametrize("workload", ALL)
def test_traced_digest_equals_untraced_digest(traced, workload):
    _, report = traced[workload]
    digests = {r["mode"]: r["sim"]["trace_sha256"] for r in report["records"]}
    assert "traced" in digests and "untraced" in digests
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("workload", ALL)
def test_expected_layer_metrics_are_nonzero(traced, workload):
    line, _ = traced[workload]
    assert line["correct"] and line["failed"] == 0
    metrics = line["metrics"]
    assert [name for name, _ in per_layer_units()] == list(metrics)
    zero = [
        name
        for name, workloads in EXPECTED_NONZERO.items()
        if workload in workloads and not metrics[name]["value"] > 0
    ]
    assert zero == []
    assert metrics["trace.attributed_frac"]["value"] >= 0.90


@pytest.mark.parametrize("workload", ("replay-vanilla", "cluster-sharded"))
def test_reclaim_never_runs_without_memory_pressure(traced, workload):
    line, _ = traced[workload]
    assert line["metrics"]["core.desiccant.reclaim.calls"]["value"] == 0


def test_a_wrong_recorded_digest_fails_the_run(tmp_path):
    table = json.loads((BENCH / "expected.json").read_text())
    record = dict(table["replay-desiccant"]["42"])
    record["trace_sha256"] = "0" * 64
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps({"replay-desiccant": {"42": record}}))
    proc = bench(
        tmp_path,
        "--workload", "replay-desiccant",
        "--seconds", "1",
        "--expected", str(bad),
    )
    assert proc.returncode == 1
    line = last_json(proc)
    assert line["correct"] is False
    assert line["attempted"] > 0 and line["failed"] == line["attempted"]
    assert "trace_sha256" in proc.stderr
