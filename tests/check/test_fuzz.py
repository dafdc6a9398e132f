"""Fuzz harness tests: deterministic generation, sound shrinking, case
file round-trips, seed specs, and the CLI face."""

from __future__ import annotations

import json
from pathlib import Path

from repro.check.fuzz import (
    CASE_FORMAT,
    FuzzFailure,
    generate_ops,
    parse_seed_spec,
    read_case,
    replay_case,
    run_fuzz,
    run_ops,
    write_case,
)
from repro.check.shrink import ddmin, shrink_ops
from repro.cli import main


class TestGeneration:
    def test_same_seed_same_schedule(self):
        assert generate_ops(5, 400) == generate_ops(5, 400)

    def test_different_seeds_differ(self):
        assert generate_ops(1, 400) != generate_ops(2, 400)

    def test_ops_are_json_scalars(self):
        ops = generate_ops(3, 400)
        assert ops == json.loads(json.dumps(ops))

    def test_references_are_indices(self):
        ops = generate_ops(7, 600)
        mmaps = boots = 0
        for op in ops:
            if "region" in op:
                assert 0 <= op["region"] < mmaps
            if "slot" in op:
                assert 0 <= op["slot"] < boots
            mmaps += op["op"] in ("mmap", "mmap_file")
            boots += op["op"] == "boot"


class TestRunOps:
    def test_clean_seed_runs_all_ops(self):
        ops = generate_ops(0, 300)
        failure, oracle = run_ops(ops, check_every=1)
        assert failure is None
        # One sweep per op plus the final finish() sweep.
        assert oracle.checks_run == len(ops) + 1

    def test_check_every_samples_sweeps(self):
        ops = generate_ops(0, 300)
        _, dense = run_ops(ops, check_every=1)
        _, sparse = run_ops(ops, check_every=10)
        assert sparse.checks_run < dense.checks_run
        assert sparse.checks_run >= len(ops) // 10

    def test_any_subsequence_is_executable(self):
        # Skip-on-invalid semantics: dropping arbitrary ops (here: every
        # third) must never crash -- that is what makes shrinking sound.
        ops = [op for i, op in enumerate(generate_ops(9, 300)) if i % 3]
        failure, _ = run_ops(ops, check_every=25)
        assert failure is None

    def test_cohort_ops_are_generated_and_run_clean(self):
        # The alloc_cohort op must actually appear in schedules (it is
        # weighted into the mix) and survive the oracle sweeps.
        found = []
        for seed in range(8):
            ops = generate_ops(seed, 400)
            cohorts = [op for op in ops if op["op"] == "alloc_cohort"]
            if not cohorts:
                continue
            found.extend(cohorts)
            failure, _ = run_ops(ops, check_every=50)
            assert failure is None, failure
        assert found, "no alloc_cohort ops in 8 seeds"
        scopes = {"ephemeral", "persistent", "weak"}
        mixed = []
        for op in found:
            assert op["count"] >= 2 and op["unit"] > 0
            if isinstance(op["scope"], str):
                assert op["scope"] in scopes
            else:
                assert len(op["scope"]) == op["count"]
                assert set(op["scope"]) <= scopes
                mixed.append(op["scope"])
        # Per-member scope sequences appear, some with more than one scope
        # and some interleaving the two surviving scopes.
        assert any(len(set(scope)) > 1 for scope in mixed)
        assert any(
            {a, b} == {"persistent", "weak"}
            for scope in mixed
            for a, b in zip(scope, scope[1:])
        )


class TestShrink:
    def test_ddmin_finds_minimal_pair(self):
        def fails(items):
            return 3 in items and 11 in items

        assert sorted(ddmin(list(range(20)), fails)) == [3, 11]

    def test_shrink_ops_is_one_minimal(self):
        def fails(items):
            return sum(items) >= 30

        result = shrink_ops([5] * 12, fails)
        assert sum(result) >= 30
        # 1-minimal: removing any single element breaks the predicate.
        for i in range(len(result)):
            assert not fails(result[:i] + result[i + 1:])

    def test_budget_bounds_predicate_calls(self):
        calls = []

        def fails(items):
            calls.append(1)
            return True

        ddmin(list(range(256)), fails, max_runs=20)
        assert len(calls) <= 20


class TestSnapshots:
    """Mid-run world snapshots and the suffix-only shrink they enable."""

    def test_clean_run_logs_snapshots_at_the_cadence(self):
        ops = generate_ops(0, 300)
        log = []
        failure, _ = run_ops(ops, check_every=25, checkpoint_every=50,
                             snapshot_log=log)
        assert failure is None
        assert [index for index, _ in log] == [
            n for n in range(50, len(ops) + 1, 50)
        ]
        assert all(isinstance(blob, bytes) and blob for _, blob in log)

    def test_resume_from_snapshot_finishes_clean(self):
        ops = generate_ops(0, 300)
        log = []
        run_ops(ops, check_every=25, checkpoint_every=100, snapshot_log=log)
        snap_index, blob = log[0]
        failure, _ = run_ops(ops[snap_index:], check_every=25, resume=blob,
                             start_index=snap_index)
        assert failure is None

    def test_resumed_failure_index_names_the_full_schedule_position(self):
        clean = generate_ops(0, 120)
        assert len(clean) >= 20
        ops = clean + [{"op": "explode"}]
        log = []
        failure, _ = run_ops(ops, check_every=10, checkpoint_every=20,
                             snapshot_log=log)
        assert failure is not None
        assert failure.kind == "crash:AttributeError"
        assert failure.op_index == len(clean)
        snap_index, blob = log[-1]
        resumed, _ = run_ops(ops[snap_index:], check_every=10, resume=blob,
                             start_index=snap_index)
        # The reported index is absolute, not suffix-relative.
        assert resumed.op_index == failure.op_index

    def test_suffix_shrink_restarts_from_the_last_snapshot(self, monkeypatch,
                                                           tmp_path):
        import repro.check.fuzz as fuzz_mod
        from repro.check.fuzz import fuzz_seed

        clean = generate_ops(0, 120)
        planted = clean + [{"op": "explode"}]
        monkeypatch.setattr(fuzz_mod, "generate_ops",
                            lambda seed, n_ops: planted)
        report = fuzz_seed(0, len(planted), check_every=10,
                           case_dir=str(tmp_path), checkpoint_every=20)
        assert not report.ok
        assert report.failure.kind == "crash:AttributeError"
        # The shrinker restarted from the last snapshot before the
        # failure rather than replaying the prefix for every candidate.
        assert report.snapshot_index == (len(clean) // 20) * 20
        # ...and the written case still reproduces standalone.
        replayed, _ = replay_case(Path(report.case_path))
        assert replayed is not None
        assert replayed.kind == "crash:AttributeError"


class TestCaseFiles:
    def test_round_trip(self, tmp_path):
        ops = generate_ops(2, 50)
        failure = FuzzFailure(kind="frames-anon", detail="d", op_index=7)
        path = tmp_path / "case.jsonl"
        write_case(path, 2, 50, 4, failure, ops)
        header, read_ops = read_case(path)
        assert header["format"] == CASE_FORMAT
        assert header["kind"] == "frames-anon"
        assert header["check_every"] == 4
        assert read_ops == ops

    def test_replay_clean_case(self, tmp_path):
        ops = generate_ops(0, 100)
        failure = FuzzFailure(kind="none", detail="-", op_index=0)
        path = tmp_path / "clean.jsonl"
        write_case(path, 0, 100, 5, failure, ops)
        replayed, header = replay_case(path)
        assert replayed is None
        assert header["seed"] == 0

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-case.jsonl"
        path.write_text('{"format": "something-else"}\n')
        try:
            read_case(path)
        except ValueError as exc:
            assert "not a" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestSeedSpec:
    def test_single(self):
        assert parse_seed_spec("7") == [7]

    def test_range_is_inclusive(self):
        assert parse_seed_spec("0..3") == [0, 1, 2, 3]

    def test_list_and_mixed(self):
        assert parse_seed_spec("1,5,9") == [1, 5, 9]
        assert parse_seed_spec("0..2,9") == [0, 1, 2, 9]

    def test_empty_rejected(self):
        try:
            parse_seed_spec(" ")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestFanOut:
    def test_serial_matches_requested_seeds(self):
        results = run_fuzz([0, 1], 150, check_every=25)
        assert [r["seed"] for r in results] == [0, 1]
        assert all(r["ok"] for r in results)


class TestCli:
    def test_fuzz_clean_exit_zero(self, capsys):
        assert main(["fuzz", "--seed", "0..1", "--ops", "150",
                     "--check-every", "10"]) == 0
        out = capsys.readouterr().out
        assert "2 seeds x 150 ops" in out
        assert "0 failing" in out

    def test_fuzz_accepts_checkpoint_cadence(self, capsys):
        assert main(["fuzz", "--seed", "0", "--ops", "150",
                     "--check-every", "10", "--checkpoint-every", "50"]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_replay_clean_case_exit_zero(self, tmp_path, capsys):
        ops = generate_ops(0, 80)
        failure = FuzzFailure(kind="none", detail="-", op_index=0)
        path = tmp_path / "clean.jsonl"
        write_case(path, 0, 80, 5, failure, ops)
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "no violation" in capsys.readouterr().out

    def test_benchmarks_face_delegates(self, capsys):
        from benchmarks.fuzz_smoke import main as smoke_main

        assert smoke_main(["--seed", "0", "--ops", "100",
                           "--check-every", "25"]) == 0
        assert "1 seeds x 100 ops" in capsys.readouterr().out
