"""Host-time benchmark of the Azure-trace replay.

Run from the repository root::

    python3 perfbench/run.py --workload replay-desiccant --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload is one batch job: simulated arrivals follow simulated time,
and the host replays them as fast as it can.  Every replay runs in a fresh
child process (``child.py``).  A run replays the trace seeds
``trace_seed(seed, 0)``, ``trace_seed(seed, 1)``, ... in turn, one replay
each, while another replay still fits in ``--seconds``.  With ``--trace 0``
it reports the median of each end-to-end metric over those replays.  With
``--trace 1`` each trace seed gets one untraced and one traced replay
(plus the untraced serial twin on the cluster workload), and the run
reports the median of each per-layer metric.

Every replay's outputs are checked after its timed region.  Human-readable
tables go to stdout first.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.  See ``README.md`` for the metrics
and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import WORKLOADS  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

#: Distance between the trace seeds one run replays.
SEED_STRIDE = 1000

#: A whole ``run.py`` invocation must end within this many seconds.
RUN_DEADLINE_S = 170.0

#: ``(name, unit)`` of every end-to-end metric in the final JSON line.
END_TO_END = (
    ("requests_per_s", "req/s"),
    ("setup_s", "s"),
    ("cpu_ms_per_req", "ms/req"),
    ("peak_rss_mib", "MiB"),
)

#: Simulated outputs: checked exactly against the recorded values, shown
#: in the table, and left out of the JSON line (see README.md).
SIM = (
    ("sim_cold_boot_rate", "boots/req"),
    ("sim_p50_latency_s", "s(sim)"),
    ("sim_p99_latency_s", "s(sim)"),
)


def trace_seed(seed: int, index: int) -> int:
    """The trace seed of a run's ``index``-th replay.

    Host cost per request differs between trace seeds, as each draws its
    own bursts and chain mix; spreading a run over several seeds keeps its
    median steady (see README.md).  The first replay uses ``seed`` itself.
    """
    return seed + index * SEED_STRIDE


def per_layer_units():
    """``(name, unit)`` of every per-layer metric, in report order."""
    units = []
    for span in SPAN_NAMES:
        units.append((f"{span}.calls", "count"))
        units.append((f"{span}.self_s", "s"))
    units += [
        ("runtime.cohort_fallback_ratio", "fraction"),
        ("mem.vmm.touch.faulted_pages", "pages"),
        ("core.desiccant.released_mib", "MiB"),
        ("faas.platform.warm_hit_ratio", "fraction"),
        ("sim.trace.events", "count"),
        ("trace.archive.compressed_mib", "MiB"),
        ("sim.shard.round_trips", "count"),
        ("sim.shard.pipe_bytes", "bytes"),
        ("sim.shard.coordination_overhead_s", "s"),
        ("sim.shard.worker_busy_s", "s"),
        ("sim.shard.start_s", "s"),
        ("faas.cluster.request_imbalance", "ratio"),
        ("setup.import_s", "s"),
        ("trace.overhead_frac", "fraction"),
        ("trace.attributed_frac", "fraction"),
    ]
    return units


class Runner:
    """Spawns child replays and keeps the run inside its deadline."""

    def __init__(
        self, out_dir: Path, expected: Path, deadline: Optional[float]
    ) -> None:
        self.out_dir = out_dir
        self.expected = expected
        self.deadline = deadline
        self.next_run_id = 0

    def spawn(self, workload: str, seed: int, mode: str) -> dict:
        self.next_run_id += 1
        tmp = self.out_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        spawned_at = time.monotonic()
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", mode,
            "--run-id", str(self.next_run_id),
            "--out-dir", str(self.out_dir),
            "--expected", str(self.expected),
            "--spawned-at", repr(spawned_at),
        ]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        timeout = (
            None if self.deadline is None else max(1.0, self.deadline - time.monotonic())
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The child's shard workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            return self._failed(workload, seed, mode, "timed out")
        lines = stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return self._failed(
                workload, seed, mode, f"exit {proc.returncode}: {stderr[-2000:]}"
            )
        if not record["ok"]:
            sys.stderr.write(
                f"[perfbench] {workload} seed {seed} {mode}: {record['error']}\n"
            )
        return record

    @staticmethod
    def _failed(workload, seed, mode, error) -> dict:
        sys.stderr.write(f"[perfbench] {workload} seed {seed} {mode}: {error}\n")
        return {
            "workload": workload,
            "seed": seed,
            "mode": mode,
            "ok": False,
            "error": error,
            "submitted": 0,
            "completed": 0,
        }



def out_of_time(started: float, last: float, seconds: float) -> bool:
    """Whether another repeat as long as the last one (which began at
    ``last``) would end more than ``seconds`` after ``started``."""
    now = time.monotonic()
    return (now - started) + (now - last) > seconds


def account(records: list) -> tuple:
    """``(correct, attempted, failed)`` over every replay of a run.

    A replay that raised or failed a check counts all of its requests as
    failed, and so does one whose simulated outputs differ from those of
    an earlier replay of the same trace seed.  A replay that died before
    generating its arrivals counts as many requests as the largest replay
    of the run.
    """
    largest = max([r["submitted"] for r in records] + [1])
    reference = {}
    for record in records:
        if record["ok"]:
            reference.setdefault(record["seed"], record["sim"])
    attempted = failed = 0
    for record in records:
        submitted = record["submitted"] or largest
        attempted += submitted
        if record["ok"] and record["sim"] != reference[record["seed"]]:
            record["ok"] = False
            record["error"] = "simulated outputs differ between replays of one seed"
            sys.stderr.write(f"[perfbench] {record['mode']}: {record['error']}\n")
        if record["ok"]:
            failed += submitted - record["completed"]
        else:
            failed += submitted
    return failed == 0 and all(r["ok"] for r in records), attempted, failed


def summarize(records: list, samples: list, units, started: float) -> dict:
    """A run's report: its accounting plus the median of each metric in
    ``units`` over ``samples``."""
    correct, attempted, failed = account(records)
    metrics = {}
    if samples:
        for name, unit in units:
            metrics[name] = {
                "value": statistics.median(sample[name] for sample in samples),
                "unit": unit,
            }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "records": records,
        "wall_s": time.monotonic() - started,
    }


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    records = []
    while True:
        last = time.monotonic()
        records.append(
            runner.spawn(workload, trace_seed(seed, len(records)), "untraced")
        )
        if not records[-1]["ok"] or out_of_time(started, last, seconds):
            break
    good = [r for r in records if r["ok"]]
    return summarize(records, good, END_TO_END, started)


def layer_values(untraced: dict, baseline: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced set."""
    values = dict(traced["layers"])
    shard = untraced.get("shard", {})
    values.update(
        {
            "faas.platform.warm_hit_ratio": traced["warm_hit_ratio"],
            "sim.trace.events": traced["trace_events"],
            "trace.archive.compressed_mib": untraced.get("archive_mib", 0.0),
            "sim.shard.round_trips": shard.get("round_trips", 0),
            "sim.shard.pipe_bytes": shard.get("pipe_bytes", 0),
            "sim.shard.coordination_overhead_s": shard.get(
                "coordination_overhead_s", 0.0
            ),
            "sim.shard.worker_busy_s": shard.get("worker_busy_s", 0.0),
            "sim.shard.start_s": shard.get("start_s", 0.0),
            "faas.cluster.request_imbalance": untraced.get("request_imbalance", 0.0),
            "setup.import_s": untraced["import_s"],
            "trace.overhead_frac": traced["call_wall_s"] / baseline["call_wall_s"] - 1,
            "trace.attributed_frac": traced["attributed_s"] / traced["call_wall_s"],
        }
    )
    return values


def run_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    cluster = "nodes" in WORKLOADS[workload]
    records, sets = [], []
    while True:
        last = time.monotonic()
        input_seed = trace_seed(seed, len(sets))
        untraced = runner.spawn(workload, input_seed, "untraced")
        records.append(untraced)
        baseline = untraced
        if cluster and untraced["ok"]:
            baseline = runner.spawn(workload, input_seed, "serial")
            records.append(baseline)
        if baseline["ok"]:
            traced = runner.spawn(workload, input_seed, "traced")
            records.append(traced)
            if traced["ok"]:
                sets.append(layer_values(untraced, baseline, traced))
        if not all(r["ok"] for r in records) or out_of_time(
            started, last, seconds
        ):
            break
    return summarize(records, sets, per_layer_units(), started)


def stamp() -> dict:
    """Where the numbers came from."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_report(workload: str, seed: int, trace: bool, report: dict) -> None:
    records = report["records"]
    good = [r for r in records if r["ok"]]
    print(
        f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}  "
        f"({len(records)} replays, {report['wall_s']:.1f} s) =="
    )
    rows = []
    if not trace:
        for name, unit in END_TO_END:
            if name in report["metrics"]:
                value = report["metrics"][name]["value"]
                rows.append((name, f"{value:.6g}", unit, f"median of {len(good)} replays"))
    attempted = report["attempted"]
    rows.append(
        (
            "error_rate",
            f"{report['failed'] / attempted:.6g}",
            "fraction",
            f"{attempted} requests",
        )
    )
    if good:
        sim = good[0]["sim"]
        for name, unit in SIM:
            rows.append(
                (
                    name,
                    f"{sim[name]:.6g}",
                    unit,
                    f"{sim['sim_samples']} measured requests, trace seed "
                    f"{good[0]['seed']}",
                )
            )
    if trace and report["metrics"]:
        for name, unit in per_layer_units():
            value = report["metrics"][name]["value"]
            rows.append((name, f"{value:.6g}", unit, ""))
    width = max(len(row[0]) for row in rows)
    for name, value, unit, samples in rows:
        print(f"  {name:<{width}}  {value:>14}  {unit:<10}  {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time replay benchmark (see perfbench/README.md)."
    )
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=ROOT / ".perfbench_out",
        help="where results, spans and scratch files go",
    )
    parser.add_argument(
        "--expected",
        type=Path,
        default=HERE / "expected.json",
        help="recorded trace digests and sim values per workload and seed",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()

    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if overrides:
        sys.stderr.write(
            "perfbench measures the default configuration; unset "
            + ", ".join(overrides)
            + "\n"
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no simulator sources under {ROOT / 'src'}\n")
        return 2

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(args.out_dir, args.expected, started + RUN_DEADLINE_S * len(workloads))
    provenance = stamp()
    reports = {}
    for workload in workloads:
        run = run_traced if args.trace else run_untraced
        report = run(runner, workload, args.seed, args.seconds)
        reports[workload] = report
        print_report(workload, args.seed, bool(args.trace), report)
    print(
        "  stamp: "
        + "  ".join(f"{key}={value}" for key, value in provenance.items())
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result_path = args.out_dir / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result_path.write_text(
        json.dumps(
            {"stamp": provenance, "seconds": args.seconds, "reports": reports},
            indent=1,
        )
    )
    correct = all(r["correct"] for r in reports.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": (
            reports[workloads[0]]["metrics"]
            if len(workloads) == 1
            else {w: r["metrics"] for w, r in reports.items()}
        ),
    }
    print(json.dumps(line))
    return 0 if correct and line["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
