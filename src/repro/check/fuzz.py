"""Deterministic simulation fuzzer: randomized schedules under the oracle.

``repro fuzz --seed N --ops M`` generates a schedule of M concrete
operations -- VMM ops (mmap / touch / swap-out / discard / uncommit /
munmap, anonymous and file-backed) interleaved with instance lifecycle
ops (boot / invoke / freeze / thaw / reclaim / snapshot / evict / GC) --
from a :class:`~repro.sim.rng.RngStream`, then executes them against a
fresh world with an :class:`~repro.check.InvariantOracle` sweeping every
``--check-every`` ops.

Every op is a plain JSON dict whose references are *indices* (region k =
the k-th mmap op, slot k = the k-th boot op), so a schedule replays and
shrinks without any RNG: ops whose target does not exist (e.g. after the
shrinker removed its mmap) or whose precondition fails are skipped, which
keeps every subsequence of a schedule executable.  On a violation the
harness truncates to the failing prefix, shrinks it with
:func:`repro.check.shrink.shrink_ops`, and writes a replayable ``.jsonl``
case file that ``repro fuzz --replay case.jsonl`` re-executes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.check.invariants import Violation
from repro.check.oracle import InvariantOracle, OracleConfig
from repro.check.shrink import shrink_ops
from repro.faas.instance import FunctionInstance, InstanceState
from repro.mem.layout import KIB, MIB, PAGE_SIZE, PROT_RW, PROT_RX
from repro.mem.physical import MappedFile, PhysicalMemory
from repro.mem.vmm import VirtualAddressSpace
from repro.sim.rng import RngStream
from repro.workloads.model import FunctionSpec

CASE_FORMAT = "repro-fuzz-case"
CASE_VERSION = 1

#: Tiny function specs (one per supported runtime) so lifecycle ops cost
#: microseconds, not the MiB-scale volumes of the Table 1 suite.
FUZZ_SPECS: Tuple[FunctionSpec, ...] = (
    FunctionSpec(
        name="fz-py", language="python", description="fuzz python",
        base_exec_seconds=0.004, ephemeral_bytes=192 * KIB,
        frame_bytes=96 * KIB, persistent_bytes=64 * KIB,
        init_ephemeral_bytes=64 * KIB, object_size=16 * KIB,
        code_size=64 * KIB, warm_units=2,
    ),
    FunctionSpec(
        name="fz-js", language="javascript", description="fuzz js",
        base_exec_seconds=0.004, ephemeral_bytes=256 * KIB,
        frame_bytes=64 * KIB, persistent_bytes=96 * KIB,
        object_size=16 * KIB, code_size=96 * KIB, warm_units=3,
    ),
    FunctionSpec(
        name="fz-java", language="java", description="fuzz java",
        base_exec_seconds=0.005, ephemeral_bytes=384 * KIB,
        frame_bytes=128 * KIB, persistent_bytes=128 * KIB,
        init_ephemeral_bytes=128 * KIB, object_size=32 * KIB,
        code_size=128 * KIB, warm_units=3,
    ),
    FunctionSpec(
        name="fz-go", language="go", description="fuzz go",
        base_exec_seconds=0.004, ephemeral_bytes=192 * KIB,
        frame_bytes=96 * KIB, persistent_bytes=64 * KIB,
        object_size=16 * KIB, code_size=64 * KIB, warm_units=2,
    ),
)

_INSTANCE_BUDGET = 32 * MIB

#: (op name, weight).  Generation picks by weight; execution skips ops
#: whose target is gone or whose precondition fails.
_OP_WEIGHTS: Tuple[Tuple[str, int], ...] = (
    ("mmap", 8),
    ("mmap_file", 4),
    ("touch", 26),
    ("swap_out", 8),
    ("discard", 6),
    ("uncommit", 3),
    ("munmap", 4),
    ("boot", 4),
    ("invoke", 10),
    ("alloc_cohort", 5),
    ("freeze", 6),
    ("thaw", 6),
    ("reclaim", 5),
    ("snapshot", 2),
    ("evict", 3),
    ("gc", 4),
)


# ------------------------------------------------------------- generation


def generate_ops(seed: int, n_ops: int) -> List[dict]:
    """The deterministic schedule for one seed: concrete JSON-able ops."""
    rng = RngStream(seed, "fuzz")
    # Per-member cohort scopes come from a side stream: drawing them
    # leaves every other op of a seed's schedule unchanged.
    scope_rng = rng.split("cohort-scopes")
    names = [name for name, _ in _OP_WEIGHTS]
    weights = [weight for _, weight in _OP_WEIGHTS]
    ops: List[dict] = []
    region_pages: List[int] = []  # size of each region ever mmapped
    file_pages: List[int] = []  # size of each file ever created
    slots = 0  # instances ever booted
    for _ in range(n_ops):
        name = rng.choices(names, weights=weights, k=1)[0]
        op: Optional[dict] = None
        if name == "mmap":
            pages = rng.randint(1, 64) if rng.random() < 0.9 else rng.randint(65, 512)
            region_pages.append(pages)
            op = {"op": "mmap", "pages": pages}
        elif name == "mmap_file":
            if file_pages and rng.random() < 0.6:
                file_id = rng.randrange(len(file_pages))
                pages = rng.randint(1, file_pages[file_id])
            else:
                file_id = len(file_pages)
                pages = rng.randint(1, 128)
                file_pages.append(pages)
            region_pages.append(pages)
            op = {
                "op": "mmap_file",
                "file": file_id,
                "pages": pages,
                # COW-private half the time, read-only-execute otherwise.
                "writable": int(rng.random() < 0.5),
            }
        elif name in ("touch", "swap_out", "discard", "uncommit"):
            if not region_pages:
                continue
            region = rng.randrange(len(region_pages))
            pages = region_pages[region]
            lo = rng.randrange(pages)
            hi = rng.randint(lo + 1, pages)
            op = {"op": name, "region": region, "lo": lo, "hi": hi}
            if name == "touch":
                op["write"] = int(rng.random() < 0.7)
        elif name == "munmap":
            if not region_pages:
                continue
            op = {"op": "munmap", "region": rng.randrange(len(region_pages))}
        elif name == "boot":
            op = {
                "op": "boot",
                "spec": rng.randrange(len(FUZZ_SPECS)),
                "seed": rng.randrange(1 << 16),
            }
            slots += 1
        elif name == "alloc_cohort":
            if not slots:
                continue
            scopes = ("ephemeral", "ephemeral", "persistent", "weak")
            scope = scopes[rng.randrange(4)]
            if scope == "ephemeral":
                count, unit = rng.randint(2, 32), rng.randint(1, 16) * KIB
            else:
                # Surviving scopes stay small: they accumulate across ops
                # against the 32 MiB instance budget.
                count, unit = rng.randint(2, 8), rng.randint(1, 8) * KIB
            if scope_rng.random() < 0.5:
                # A mixed run: one scope per member, which the bump-space
                # runtimes fold into one ephemeral cohort plus ordered
                # survivor groups.
                scope = [scopes[scope_rng.randrange(4)] for _ in range(count)]
            op = {
                "op": "alloc_cohort",
                "slot": rng.randrange(slots),
                "count": count,
                "unit": unit,
                "scope": scope,
            }
        elif name in ("invoke", "freeze", "thaw", "snapshot", "evict"):
            if not slots:
                continue
            op = {"op": name, "slot": rng.randrange(slots)}
        elif name in ("reclaim", "gc"):
            if not slots:
                continue
            op = {
                "op": name,
                "slot": rng.randrange(slots),
                "aggressive": int(rng.random() < 0.3),
            }
        if op is not None:
            ops.append(op)
    return ops


# -------------------------------------------------------------- execution


@dataclass
class _Region:
    start: int
    pages: int
    alive: bool = True
    writable: bool = True
    file_id: Optional[int] = None
    #: Page intervals returned to PROT_NONE by uncommit; touches that
    #: intersect one are skipped (they would legitimately segfault).
    none_ranges: List[Tuple[int, int]] = field(default_factory=list)


class FuzzWorld:
    """The mutable world one schedule runs against.

    One unlimited :class:`PhysicalMemory` shared by a scratch address
    space (the VMM ops) and every booted instance (the lifecycle ops),
    with each created object registered with the oracle on the spot.
    """

    def __init__(self, oracle: InvariantOracle) -> None:
        self.oracle = oracle
        self.physical = PhysicalMemory()  # unlimited: ops never OOM mid-splice
        self.space = VirtualAddressSpace("[fuzz-scratch]", self.physical)
        self.regions: List[_Region] = []
        self.files: List[MappedFile] = []
        self.instances: List[FunctionInstance] = []
        self.clock = 0.0
        self.skipped = 0
        oracle.attach_world(spaces=[self.space], physical=self.physical)

    # Each op advances time a little so transition logs stay ordered.
    def tick(self) -> float:
        self.clock += 0.01
        return self.clock

    def apply(self, op: dict) -> None:
        handler = getattr(self, "_op_" + op["op"])
        handler(op)

    # ------------------------------------------------------------- VMM ops

    def _op_mmap(self, op: dict) -> None:
        mapping = self.space.mmap(op["pages"] * PAGE_SIZE, name="[fuzz-anon]")
        self.regions.append(_Region(mapping.start, op["pages"]))

    def _op_mmap_file(self, op: dict) -> None:
        file_id = op["file"]
        while file_id >= len(self.files):
            index = len(self.files)
            size = (op["pages"] if index == file_id else 1) * PAGE_SIZE
            file = MappedFile(f"/fuzz/lib{index}.so", size)
            self.files.append(file)
            self.oracle.register_file(file)
        file = self.files[file_id]
        pages = min(op["pages"], file.num_pages)
        writable = bool(op["writable"])
        mapping = self.space.mmap(
            pages * PAGE_SIZE,
            prot=PROT_RW if writable else PROT_RX,
            file=file,
            name=f"[fuzz-file{file_id}]",
        )
        self.regions.append(
            _Region(mapping.start, pages, writable=writable, file_id=file_id)
        )

    def _live_range(self, op: dict) -> Optional[Tuple[_Region, int, int]]:
        if op["region"] >= len(self.regions):
            return None
        region = self.regions[op["region"]]
        if not region.alive:
            return None
        lo, hi = min(op["lo"], region.pages - 1), min(op["hi"], region.pages)
        if hi <= lo:
            return None
        return region, lo, hi

    def _op_touch(self, op: dict) -> None:
        found = self._live_range(op)
        if found is None:
            return self._skip()
        region, lo, hi = found
        if any(lo < n_hi and n_lo < hi for n_lo, n_hi in region.none_ranges):
            return self._skip()
        write = bool(op["write"]) and region.writable
        self.space.touch(
            region.start + lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE, write=write
        )

    def _op_swap_out(self, op: dict) -> None:
        found = self._live_range(op)
        if found is None:
            return self._skip()
        region, lo, hi = found
        self.space.swap_out_range(
            region.start + lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE
        )

    def _op_discard(self, op: dict) -> None:
        found = self._live_range(op)
        if found is None:
            return self._skip()
        region, lo, hi = found
        self.space.discard(region.start + lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE)

    def _op_uncommit(self, op: dict) -> None:
        found = self._live_range(op)
        if found is None:
            return self._skip()
        region, lo, hi = found
        self.space.uncommit(region.start + lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE)
        region.none_ranges.append((lo, hi))

    def _op_munmap(self, op: dict) -> None:
        if op["region"] >= len(self.regions):
            return self._skip()
        region = self.regions[op["region"]]
        if not region.alive:
            return self._skip()
        self.space.munmap(region.start, region.pages * PAGE_SIZE)
        region.alive = False

    # ------------------------------------------------------- lifecycle ops

    def _op_boot(self, op: dict) -> None:
        instance = FunctionInstance(
            FUZZ_SPECS[op["spec"]],
            memory_budget=_INSTANCE_BUDGET,
            physical=self.physical,
            seed=op["seed"],
        )
        instance.boot(self.tick())
        self.instances.append(instance)
        self.oracle.register_instance(instance)

    def _slot(self, op: dict, *states: InstanceState) -> Optional[FunctionInstance]:
        if op["slot"] >= len(self.instances):
            return None
        instance = self.instances[op["slot"]]
        if states and instance.state not in states:
            return None
        return instance

    def _op_invoke(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.IDLE)
        if instance is None:
            return self._skip()
        instance.invoke(self.tick())

    def _op_alloc_cohort(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.IDLE)
        if instance is None or not instance.runtime.booted:
            return self._skip()
        runtime = instance.runtime
        scope = op["scope"]
        if isinstance(scope, str):
            kept = 0 if scope == "ephemeral" else op["count"]
        else:
            kept = sum(s != "ephemeral" for s in scope)
        if kept:
            # Persistent/weak members outlive the op; cap accumulation so
            # the schedule cannot legitimately run the tiny heap out.
            if runtime.live_bytes() + kept * op["unit"] > runtime.config.max_heap // 4:
                return self._skip()
        runtime.alloc_cohort(op["count"], op["unit"], scope=scope)

    def _op_freeze(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.IDLE)
        if instance is None:
            return self._skip()
        instance.freeze(self.tick())

    def _op_thaw(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.FROZEN)
        if instance is None:
            return self._skip()
        instance.thaw(self.tick())

    def _op_reclaim(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.FROZEN)
        if instance is None:
            return self._skip()
        instance.reclaim(aggressive=bool(op["aggressive"]))

    def _op_snapshot(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.IDLE)
        if instance is None:
            return self._skip()
        instance.snapshot(self.tick())

    def _op_evict(self, op: dict) -> None:
        instance = self._slot(op)
        if instance is None or instance.state is InstanceState.DEAD:
            return self._skip()
        instance.destroy(self.tick())

    def _op_gc(self, op: dict) -> None:
        instance = self._slot(op, InstanceState.IDLE)
        if instance is None or not instance.runtime.booted:
            return self._skip()
        instance.runtime.full_gc(aggressive=bool(op["aggressive"]))

    def _skip(self) -> None:
        self.skipped += 1


# ---------------------------------------------------------------- running


@dataclass
class FuzzFailure:
    """Why (and where) a schedule failed."""

    #: The oracle invariant name, or ``crash:<ExceptionType>`` for an
    #: unexpected exception out of the layers themselves.
    kind: str
    detail: str
    op_index: int


@dataclass
class FuzzReport:
    """Outcome of one seed."""

    seed: int
    ops_requested: int
    ops_executed: int
    checks_run: int
    failure: Optional[FuzzFailure] = None
    shrunk_ops: Optional[List[dict]] = None
    case_path: Optional[str] = None
    #: Op index of the snapshot the shrinker restarted from (``None``
    #: when shrinking replayed from scratch).
    snapshot_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_ops(
    ops: List[dict],
    check_every: int = 1,
    checkpoint_every: Optional[int] = None,
    snapshot_log: Optional[List[Tuple[int, bytes]]] = None,
    resume: Optional[bytes] = None,
    start_index: int = 0,
) -> Tuple[Optional[FuzzFailure], InvariantOracle]:
    """Execute one schedule under a fresh world + oracle.

    Returns ``(failure, oracle)``; ``failure`` is None when every op and
    every sweep (including the final one) passed.

    ``checkpoint_every=N`` snapshots the whole world+oracle pair
    (:func:`repro.sim.checkpoint.snapshot_world`) after every N executed
    ops, appending ``(next_op_index, blob)`` to ``snapshot_log`` -- the
    shrinker restarts candidates from the last snapshot before the
    failure instead of replaying the whole prefix.  ``resume`` runs
    ``ops`` against a restored snapshot blob instead of a fresh world;
    ``start_index`` only offsets the reported failure index so it still
    names a position in the *full* schedule.
    """
    if resume is not None:
        from repro.sim import checkpoint

        world = checkpoint.restore_world(resume)
        oracle = world.oracle
    else:
        oracle = InvariantOracle(OracleConfig(cadence="end", every=check_every))
        world = FuzzWorld(oracle)
    index = start_index - 1
    try:
        for offset, op in enumerate(ops):
            index = start_index + offset
            world.apply(op)
            oracle.maybe_check()
            if (
                checkpoint_every is not None
                and snapshot_log is not None
                and (offset + 1) % checkpoint_every == 0
            ):
                from repro.sim import checkpoint

                snapshot_log.append((index + 1, checkpoint.snapshot_world(world)))
        index += 1
        oracle.finish()
    except Violation as violation:
        return FuzzFailure(violation.invariant, str(violation), index), oracle
    except Exception as exc:  # noqa: BLE001 - a crash IS a finding
        kind = f"crash:{type(exc).__name__}"
        return FuzzFailure(kind, f"{type(exc).__name__}: {exc}", index), oracle
    return None, oracle


def _fails_like(ops: List[dict], kind: str, check_every: int) -> bool:
    failure, _ = run_ops(ops, check_every)
    return failure is not None and failure.kind == kind


def _fails_like_from(
    blob: bytes, suffix: List[dict], kind: str, check_every: int
) -> bool:
    """Does ``suffix``, run from a restored snapshot, fail the same way?

    Each candidate gets its own restore (the blob is immutable bytes),
    so shrink probes never contaminate one another.
    """
    failure, _ = run_ops(suffix, check_every, resume=blob)
    return failure is not None and failure.kind == kind


def fuzz_seed(
    seed: int,
    n_ops: int,
    check_every: int = 1,
    case_dir: Optional[str] = None,
    shrink: bool = True,
    max_shrink_runs: int = 600,
    checkpoint_every: Optional[int] = None,
) -> FuzzReport:
    """Fuzz one seed end to end: generate, run, shrink, write the case.

    ``checkpoint_every=N`` snapshots the world every N ops during the
    initial run; on a failure, only the suffix past the last snapshot is
    shrunk (candidates restart from the restored snapshot), and the
    stitched prefix+suffix case is re-verified *from scratch* before it
    is trusted -- the written case file stays standalone-replayable.
    """
    ops = generate_ops(seed, n_ops)
    snapshots: List[Tuple[int, bytes]] = []
    failure, oracle = run_ops(
        ops,
        check_every,
        checkpoint_every=checkpoint_every,
        snapshot_log=snapshots if checkpoint_every else None,
    )
    report = FuzzReport(
        seed=seed,
        ops_requested=n_ops,
        ops_executed=len(ops),
        checks_run=oracle.checks_run,
    )
    if failure is None:
        return report
    report.failure = failure
    # Ops past the failure point are noise; drop them before shrinking.
    prefix = ops[: failure.op_index + 1]
    shrunk = prefix
    if shrink:
        base: Optional[Tuple[int, bytes]] = None
        for snap_index, blob in snapshots:
            if snap_index <= failure.op_index:
                base = (snap_index, blob)
        shrunk = None
        if base is not None and base[0] > 0:
            # Shrink only the suffix past the snapshot: each candidate
            # restores the blob instead of re-executing the prefix.
            snap_index, blob = base
            suffix = shrink_ops(
                prefix[snap_index:],
                lambda candidate: _fails_like_from(
                    blob, candidate, failure.kind, check_every
                ),
                max_runs=max_shrink_runs,
            )
            stitched = prefix[:snap_index] + suffix
            # The case file must reproduce without any snapshot.
            if _fails_like(stitched, failure.kind, check_every):
                shrunk = stitched
                report.snapshot_index = snap_index
        if shrunk is None:
            shrunk = shrink_ops(
                prefix,
                lambda candidate: _fails_like(candidate, failure.kind, check_every),
                max_runs=max_shrink_runs,
            )
        # Re-run the shrunk schedule so the recorded detail matches it.
        final_failure, _ = run_ops(shrunk, check_every)
        if final_failure is not None:
            report.failure = final_failure
    report.shrunk_ops = shrunk
    if case_dir is not None:
        path = Path(case_dir) / f"fuzz-seed{seed}-{report.failure.kind.replace(':', '-')}.jsonl"
        write_case(path, seed, n_ops, check_every, report.failure, shrunk)
        report.case_path = str(path)
    return report


# -------------------------------------------------------------- case files


def write_case(
    path: Path,
    seed: int,
    n_ops: int,
    check_every: int,
    failure: FuzzFailure,
    ops: List[dict],
) -> None:
    """One JSONL file: a header line, then one line per op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": CASE_FORMAT,
        "version": CASE_VERSION,
        "seed": seed,
        "ops_requested": n_ops,
        "check_every": check_every,
        "kind": failure.kind,
        "detail": failure.detail,
        "op_index": failure.op_index,
    }
    with path.open("w", encoding="utf-8") as sink:
        sink.write(json.dumps(header) + "\n")
        for op in ops:
            sink.write(json.dumps(op) + "\n")


def read_case(path: "Path | str") -> Tuple[dict, List[dict]]:
    path = Path(path)
    with path.open("r", encoding="utf-8") as source:
        lines = [line for line in source if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty case file")
    header = json.loads(lines[0])
    if header.get("format") != CASE_FORMAT:
        raise ValueError(f"{path}: not a {CASE_FORMAT} file")
    return header, [json.loads(line) for line in lines[1:]]


def replay_case(path: Path) -> Tuple[Optional[FuzzFailure], dict]:
    """Re-execute a case file; returns ``(failure, header)``."""
    header, ops = read_case(path)
    failure, _ = run_ops(ops, header.get("check_every", 1))
    return failure, header


# ----------------------------------------------------------------- fan-out


def _fuzz_worker(args: Tuple[int, int, int, Optional[str], Optional[int]]) -> dict:
    """Top-level (picklable) worker for the process pool."""
    seed, n_ops, check_every, case_dir, checkpoint_every = args
    report = fuzz_seed(
        seed, n_ops, check_every, case_dir, checkpoint_every=checkpoint_every
    )
    summary = {
        "seed": report.seed,
        "ops": report.ops_executed,
        "checks": report.checks_run,
        "ok": report.ok,
    }
    if report.failure is not None:
        summary["kind"] = report.failure.kind
        summary["detail"] = report.failure.detail
        summary["op_index"] = report.failure.op_index
        summary["shrunk_len"] = len(report.shrunk_ops or [])
        summary["case_path"] = report.case_path
        summary["snapshot_index"] = report.snapshot_index
    return summary


def run_fuzz(
    seeds: List[int],
    n_ops: int,
    check_every: int = 1,
    jobs: int = 1,
    case_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> List[dict]:
    """Fan seeds across a process pool (benchmarks/runner.py style)."""
    work = [
        (seed, n_ops, check_every, case_dir, checkpoint_every) for seed in seeds
    ]
    if jobs <= 1 or len(work) <= 1:
        return [_fuzz_worker(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor

    from repro import procenv

    # Explicitly re-apply the parent's effective run flags in every
    # worker (start-method-proof; see repro.procenv).
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=procenv.initializer,
        initargs=(procenv.snapshot(),),
    ) as pool:
        return list(pool.map(_fuzz_worker, work))


def parse_seed_spec(spec: str) -> List[int]:
    """``"7"``, ``"0..63"`` (inclusive), or ``"1,5,9"``."""
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"empty seed spec {spec!r}")
    return seeds
