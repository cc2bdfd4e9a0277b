"""End-to-end smoke tests for the ``repro sweep`` CLI subcommand."""

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def spec_path(tmp_path):
    spec = {
        "seed": 0,
        "workload": "LiR",
        "theta": [0.7, 1.0],
        "predictor": ["oracle", "constant"],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    return path


class TestParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.jobs == 1
        assert args.resume is False
        assert args.cache_dir == ".repro-sweep-cache"

    def test_sweep_defaults_bank_cache_co_located(self):
        args = build_parser().parse_args(["sweep"])
        assert args.bank_cache is None
        assert args.no_bank_cache is False

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--spec", "g.json", "--jobs", "4", "--resume", "--cache-dir", "c",
             "--bank-cache", "b"]
        )
        assert args.spec == "g.json"
        assert args.jobs == 4
        assert args.resume is True
        assert args.cache_dir == "c"
        assert args.bank_cache == "b"


class TestSweepCommand:
    def test_tiny_grid_end_to_end(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cells"
        assert (
            main(
                ["sweep", "--spec", str(spec_path), "--cache-dir", str(cache_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        # One cache file and one aggregate-table row per grid cell.
        assert len(list(cache_dir.glob("*.json"))) == 4
        table_rows = [line for line in out.splitlines() if line.startswith("LiR")]
        assert len(table_rows) == 4
        assert "executed 4 cell(s), 0 from cache" in out

    def test_resume_runs_zero_simulations(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cells"
        main(["sweep", "--spec", str(spec_path), "--cache-dir", str(cache_dir)])
        first = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("LiR")
        ]
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--cache-dir",
                    str(cache_dir),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "executed 0 cell(s), 4 from cache" in out
        resumed = [line for line in out.splitlines() if line.startswith("LiR")]
        assert resumed == first

    def test_bank_report_and_co_located_bank_cache(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cells"
        assert (
            main(["sweep", "--spec", str(spec_path), "--cache-dir", str(cache_dir)])
            == 0
        )
        out = capsys.readouterr().out
        # Oracle/constant cells never touch a trained bank.
        assert "trained 0 predictor bank(s)" in out
        assert f"banks: {cache_dir / 'banks'}" in out
        assert (cache_dir / "banks").is_dir()
        # Bank metadata never pollutes the cell-summary namespace.
        assert len(list(cache_dir.glob("*.json"))) == 4

    def test_no_bank_cache_disables_bank_persistence(
        self, tmp_path, spec_path, capsys
    ):
        cache_dir = tmp_path / "cells"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--cache-dir",
                    str(cache_dir),
                    "--no-bank-cache",
                ]
            )
            == 0
        )
        assert "banks: disabled" in capsys.readouterr().out
        assert not (cache_dir / "banks").exists()

    def test_explicit_bank_cache_location(self, tmp_path, spec_path, capsys):
        bank_dir = tmp_path / "my-banks"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--cache-dir",
                    str(tmp_path / "cells"),
                    "--bank-cache",
                    str(bank_dir),
                ]
            )
            == 0
        )
        assert f"banks: {bank_dir}" in capsys.readouterr().out
        assert bank_dir.is_dir()

    def test_no_cache_leaves_no_directory(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cells"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--cache-dir",
                    str(cache_dir),
                    "--no-cache",
                ]
            )
            == 0
        )
        assert not cache_dir.exists()
        assert "cache: disabled" in capsys.readouterr().out

    def test_missing_spec_file_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--spec", str(tmp_path / "absent.json")]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workload": "LiR", "gpu_count": [1, 2]}))
        assert main(["sweep", "--spec", str(path), "--no-cache"]) == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_typoed_policy_rejected_before_any_simulation(self, tmp_path, capsys):
        path = tmp_path / "bad-policy.json"
        path.write_text(json.dumps({"workload": "LiR", "checkpoint_policy": "hourly"}))
        assert main(["sweep", "--spec", str(path), "--no-cache"]) == 2
        assert "checkpoint policy" in capsys.readouterr().err

    def test_nonpositive_jobs_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0", "--no-cache"]) == 2
        assert "invalid sweep options" in capsys.readouterr().err

    def test_progress_line_per_cell(self, tmp_path, spec_path, capsys):
        main(["sweep", "--spec", str(spec_path), "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        progress = [line for line in out.splitlines() if line.startswith("[")]
        assert len(progress) == 4
        # Each line carries the remaining queue depth and elapsed wall
        # seconds alongside the cell outcome.
        assert progress[0].startswith("[1/4] queue=3 t=")
        assert progress[-1].startswith("[4/4] queue=0 t=")
        assert "cost=" in progress[0]

    def test_failed_cells_reported_and_completed_ones_cached(
        self, tmp_path, spec_path, capsys, monkeypatch
    ):
        from repro.sweep import runner as runner_mod

        real = runner_mod.run_scenario

        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.predictor == "constant":
                raise RuntimeError("injected failure")
            return real(scenario, context, bank_cache)

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        cache_dir = tmp_path / "cells"
        assert (
            main(["sweep", "--spec", str(spec_path), "--cache-dir", str(cache_dir)])
            == 1
        )
        err = capsys.readouterr().err
        assert "injected failure" in err
        assert "--resume" in err
        assert len(list(cache_dir.glob("*.json"))) == 2
        monkeypatch.undo()
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--cache-dir",
                    str(cache_dir),
                    "--resume",
                ]
            )
            == 0
        )
        assert "executed 2 cell(s), 2 from cache" in capsys.readouterr().out


class TestKillMidSweep:
    """A killed or interrupted sweep resumed with ``--resume``
    re-executes zero completed cells — proven against a real process,
    signalled as soon as its first progress line comes through a pipe.
    That line arriving while the sweep still runs is also the streaming
    check: unflushed progress would sit in the block-buffered pipe
    until the sweep exits."""

    SPEC = {
        "seed": 0,
        "workload": "LiR",
        "theta": [0.6, 0.7, 0.8, 0.9],
        "predictor": "oracle",
    }

    def _start_after_first_line(self, tmp_path):
        """Spawn the 4-cell sweep with stdout on a pipe and read its
        first progress line; returns (process, spec path, cache dir)."""
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(self.SPEC))
        cache_dir = tmp_path / "cells"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Piped stdout is block-buffered unless the environment says
        # otherwise; only the CLI's own flushes may stream the lines.
        env.pop("PYTHONUNBUFFERED", None)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "sweep",
                "--spec",
                str(spec_path),
                "--cache-dir",
                str(cache_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        )
        try:
            readable, _, _ = select.select([process.stdout], [], [], 120)
            assert readable, "no progress line within 120 s"
            first = process.stdout.readline().decode()
            assert first.startswith("[1/4] ")
            assert process.poll() is None, "the sweep exited before its first line came"
        except BaseException:
            self._reap(process)
            raise
        return process, spec_path, cache_dir

    @staticmethod
    def _reap(process):
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
        process.stderr.close()

    @staticmethod
    def _resume_runs_only_missing(spec_path, cache_dir, capsys):
        completed = len(list(cache_dir.glob("*.json")))
        # The sweep stopped mid-way: the first cell was on disk before
        # its line printed, and at least one cell was not.
        assert 1 <= completed < 4
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec_path),
                    "--cache-dir",
                    str(cache_dir),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"executed {4 - completed} cell(s), {completed} from cache" in out

    @pytest.mark.parametrize(
        "signum", [signal.SIGKILL, signal.SIGINT], ids=["SIGKILL", "SIGINT"]
    )
    def test_signal_loses_no_completed_cells(self, tmp_path, capsys, signum):
        process, spec_path, cache_dir = self._start_after_first_line(tmp_path)
        try:
            process.send_signal(signum)
            process.wait(timeout=30)
            err = process.stderr.read().decode()
        finally:
            self._reap(process)
        if signum == signal.SIGINT:
            assert process.returncode == 130
            assert "rerun with --resume" in err
        else:
            assert process.returncode == -signal.SIGKILL
        self._resume_runs_only_missing(spec_path, cache_dir, capsys)

    def test_closed_output_exits_141_and_resumes(self, tmp_path, capsys):
        """``repro sweep ... | head -1``: the reader closes the pipe
        after the first line, and the next progress line must end the
        sweep with 128 + SIGPIPE and the resume hint, not a
        ``BrokenPipeError`` traceback."""
        process, spec_path, cache_dir = self._start_after_first_line(tmp_path)
        try:
            process.stdout.close()
            process.wait(timeout=120)
            err = process.stderr.read().decode()
        finally:
            self._reap(process)
        assert process.returncode == 141, err
        assert "output closed" in err and "rerun with --resume" in err
        assert "Traceback" not in err
        self._resume_runs_only_missing(spec_path, cache_dir, capsys)


class TestDistributedCommand:
    """``repro sweep --distributed`` and ``repro sweep-worker`` e2e."""

    def test_parser_distributed_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--distributed", "--jobs", "0", "--queue", "q",
             "--lease-ttl", "5", "--out", "r.json"]
        )
        assert args.distributed and args.jobs == 0
        assert args.queue == "q" and args.lease_ttl == 5.0 and args.out == "r.json"

    def test_parser_worker_flags(self):
        args = build_parser().parse_args(
            ["sweep-worker", "--queue", "q", "--max-cells", "2"]
        )
        assert args.command == "sweep-worker"
        assert args.queue == "q" and args.max_cells == 2

    def test_worker_requires_queue(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-worker"])

    def test_jobs_zero_without_distributed_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "jobs must be >= 1" in err
        assert "--distributed" in err  # points at the coordinate-only mode

    def test_distributed_without_cache_rejected(self, capsys):
        assert main(["sweep", "--distributed", "--no-cache"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_broker_flags_require_distributed(self, capsys):
        assert main(["sweep", "--lease-ttl", "5", "--no-cache"]) == 2
        assert "--distributed" in capsys.readouterr().err
        assert main(["sweep", "--queue", "q", "--no-cache"]) == 2
        assert "--distributed" in capsys.readouterr().err

    def test_worker_against_missing_queue_fails_fast(self, tmp_path, capsys):
        assert main(["sweep-worker", "--queue", str(tmp_path / "nope"),
                     "--wait-manifest", "0"]) == 2
        assert "cannot join sweep" in capsys.readouterr().err

    def test_distributed_matches_serial_byte_for_byte(
        self, tmp_path, spec_path, capsys
    ):
        serial_out = tmp_path / "serial.json"
        distrib_out = tmp_path / "distrib.json"
        assert main(
            ["sweep", "--spec", str(spec_path),
             "--cache-dir", str(tmp_path / "serial-cells"),
             "--out", str(serial_out)]
        ) == 0
        assert main(
            ["sweep", "--spec", str(spec_path), "--distributed", "--jobs", "1",
             "--cache-dir", str(tmp_path / "distrib-cells"),
             "--out", str(distrib_out)]
        ) == 0
        out = capsys.readouterr().out
        assert serial_out.read_bytes() == distrib_out.read_bytes()
        assert "executed 4 cell(s), 0 from cache" in out
        assert f"queue: {tmp_path / 'distrib-cells' / 'queue'}" in out


class TestChaosFlags:
    """Retry/fault/fsync flags: parsing, gating, and the poison-cell
    contract end to end (exit 1, ledger populated, partial ``--out``
    byte-identical to a serial sweep of the surviving cells)."""

    def test_parser_chaos_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--distributed", "--max-attempts", "5",
             "--retry-backoff", "0.5", "--fail-fast", "--fault-plan", "p.json",
             "--no-fsync"]
        )
        assert args.max_attempts == 5 and args.retry_backoff == 0.5
        assert args.fail_fast and args.fault_plan == "p.json"
        assert args.no_fsync is True
        worker = build_parser().parse_args(
            ["sweep-worker", "--queue", "q", "--fault-plan", "p.json"]
        )
        assert worker.fault_plan == "p.json"

    def test_chaos_flags_require_distributed(self, capsys):
        for flags in (["--max-attempts", "2"], ["--retry-backoff", "1"],
                      ["--fail-fast"], ["--fault-plan", "p.json"]):
            assert main(["sweep", "--no-cache", *flags]) == 2
            assert "--distributed" in capsys.readouterr().err

    @pytest.mark.parametrize("backoff", ["0", "60"])
    def test_unusable_retry_backoff_rejected_before_enqueue(
        self, tmp_path, capsys, backoff
    ):
        # backoff_delay needs 0 < base <= its 30 s cap; a bad base must
        # not wait for the first failed cell to kill a worker.
        cache_dir = tmp_path / "c"
        assert main(
            ["sweep", "--distributed", "--cache-dir", str(cache_dir),
             "--retry-backoff", backoff]
        ) == 2
        err = capsys.readouterr().err
        assert "invalid sweep options: retry-backoff must be in (0, 30]" in err
        assert not cache_dir.exists()  # nothing enqueued, nothing created

    def test_unreadable_fault_plan_rejected(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        assert main(
            ["sweep", "--distributed", "--cache-dir", str(tmp_path / "c"),
             "--fault-plan", str(bad)]
        ) == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_worker_rejects_unreadable_fault_plan(self, tmp_path, capsys):
        assert main(
            ["sweep-worker", "--queue", str(tmp_path / "q"),
             "--fault-plan", str(tmp_path / "missing.json")]
        ) == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize("cache_flags", [["--no-cache"], ["--cache-dir", "c"]])
    def test_no_fsync_reaches_an_explicit_bank_cache(
        self, tmp_path, spec_path, monkeypatch, cache_flags
    ):
        from repro.sweep import runner as runner_mod

        def fake(scenario, context=None, bank_cache=None, dataset_path=None):
            # Every column of the CLI's report table.
            return dict.fromkeys(
                ("cost", "jct_hours", "free_step_fraction", "refund_fraction",
                 "overhead_fraction"),
                scenario.theta,
            )

        seen = []
        real_run = runner_mod.SweepRunner.run

        def spy(self, grid, on_cell=None):
            seen.append(self.bank_cache.fsync)
            return real_run(self, grid, on_cell)

        monkeypatch.setattr(runner_mod, "run_scenario", fake)
        monkeypatch.setattr(runner_mod.SweepRunner, "run", spy)
        monkeypatch.chdir(tmp_path)
        assert main(
            ["sweep", "--spec", str(spec_path), "--no-fsync",
             "--bank-cache", "banks", *cache_flags]
        ) == 0
        assert seen == [False]

    def test_poison_cell_exits_one_with_ledger_and_partial_out(
        self, tmp_path, capsys
    ):
        # The second task (rank 000001) is poisoned through the fault
        # plane — deterministically, inside real subprocess workers —
        # while its sibling survives.
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(
            {"seed": 0, "workload": "LiR", "theta": [0.7, 1.0],
             "predictor": "oracle"}
        ))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"rules": [{"site": "worker.cell.execute", "action": "raise",
                        "match": "000001", "times": 100}]}
        ))
        out = tmp_path / "partial.json"
        cache_dir = tmp_path / "cells"
        assert main(
            ["sweep", "--spec", str(spec), "--distributed", "--jobs", "1",
             "--cache-dir", str(cache_dir), "--max-attempts", "2",
             "--retry-backoff", "0.01", "--fault-plan", str(plan),
             "--out", str(out)]
        ) == 1
        captured = capsys.readouterr()
        assert "injected ENOSPC" in captured.err
        assert "attempts=2" in captured.err
        assert f"failure ledger: {cache_dir / 'queue' / 'failures'}" in captured.err
        assert "wrote partial" in captured.err + captured.out

        ledgered = list((cache_dir / "queue" / "failures").iterdir())
        assert len(ledgered) == 1 and ledgered[0].name.startswith("000001")

        # Byte-identical partial: a serial sweep of only the surviving
        # cell must produce the identical --out file.
        serial_spec = tmp_path / "surviving.json"
        serial_spec.write_text(json.dumps(
            {"seed": 0, "workload": "LiR", "theta": [0.7], "predictor": "oracle"}
        ))
        serial_out = tmp_path / "serial.json"
        assert main(
            ["sweep", "--spec", str(serial_spec),
             "--cache-dir", str(tmp_path / "serial-cells"),
             "--out", str(serial_out)]
        ) == 0
        assert out.read_bytes() == serial_out.read_bytes()
