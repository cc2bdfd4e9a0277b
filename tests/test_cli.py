"""Tests for the command-line interface."""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.cli as cli_module
from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert args.scale == "small"
        assert args.seed == 0

    def test_tune_arguments(self):
        args = build_parser().parse_args(
            ["--seed", "3", "tune", "--workload", "SVM", "--theta", "0.5"]
        )
        assert args.workload == "SVM"
        assert args.theta == 0.5
        assert args.seed == 3

    def test_trace_arguments(self):
        args = build_parser().parse_args(["trace", "--days", "2", "--out", "x.csv"])
        assert args.days == 2.0
        assert args.out == "x.csv"

    @pytest.mark.parametrize(
        "argv, messages",
        [
            (["tune", "--workload", "XYZ"], ["invalid choice: 'XYZ'", "LoR"]),
            (["tune", "--theta", "1.5"], ["argument --theta: must be in (0, 1]: 1.5"]),
            (["tune", "--theta", "0"], ["argument --theta: must be in (0, 1]: 0"]),
            (["tune", "--theta", "nan"], ["argument --theta: must be in (0, 1]: nan"]),
            (["trace", "--days", "0"], ["argument --days: must be a positive number of days: 0"]),
            (["trace", "--days", "0.0001"], ["argument --days: must cover at least one minute"]),
        ],
        ids=[
            "tune-workload",
            "tune-theta-1.5",
            "tune-theta-0",
            "tune-theta-nan",
            "trace-days-0",
            "trace-days-under-a-minute",
        ],
    )
    def test_tune_unknown_workload_exits_two(self, capsys, monkeypatch, argv, messages):
        # Argparse rejects the value before any context is built.
        def no_context(*args, **kwargs):
            raise AssertionError("built a context for an invalid argument")

        monkeypatch.setattr(cli_module, "build_context", no_context)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages)
        assert "Traceback" not in err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_list_is_complete(self):
        assert len(FIGURES) == 10


class TestCommands:
    def test_trace_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "prices.csv"
        assert main(["trace", "--days", "1", "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "r3.xlarge" in captured.out

    def test_trace_without_output(self, capsys):
        assert main(["trace", "--days", "1"]) == 0
        assert "records" in capsys.readouterr().out

    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_single_cheap_figure_runs(self, capsys):
        assert main(["figures", "--only", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "m4.4xlarge" in out

    def test_tune_with_oracle(self, capsys):
        assert main(["tune", "--workload", "LiR", "--predictor", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "selected top models" in out
        assert "SpotTune" in out


class TestClosedOutput:
    @pytest.mark.parametrize(
        "argv",
        [["trace", "--days", "1"], ["figures", "--only", "fig6"]],
        ids=["trace", "figures"],
    )
    def test_closed_stdout_exits_141_without_traceback(self, argv):
        """``repro trace --days 1 | head -1``: a reader that goes away
        ends the command with 128 + SIGPIPE and one line on stderr."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Closed while the child is still importing, so its first
        # write already finds no reader.
        process.stdout.close()
        try:
            _, err = process.communicate(timeout=300)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        err = err.decode()
        assert process.returncode == 141, err
        assert "output closed" in err
        assert "Traceback" not in err


class TestServeOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lease-ttl", "0"], "lease-ttl must be positive: 0.0"),
            (["--max-attempts", "0"], "max-attempts must be >= 1: 0"),
            (["--jobs", "-1"], "jobs must be >= 0: -1"),
        ],
        ids=["lease-ttl-0", "max-attempts-0", "jobs-negative"],
    )
    def test_unusable_queue_options_rejected_before_binding(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        """Options every submitted job would fail on stop ``repro
        serve`` before it binds a port or makes its cache."""
        import repro.serve

        def no_service(*args, **kwargs):
            raise AssertionError("constructed a service for unusable options")

        monkeypatch.setattr(repro.serve, "SweepService", no_service)
        cache = tmp_path / "cache"
        assert main(["serve", "--cache-dir", str(cache), "--port", "0", *argv]) == 2
        err = capsys.readouterr().err
        assert f"cannot serve: {message}" in err
        assert "Traceback" not in err
        assert not cache.exists()

    @pytest.mark.parametrize("port", ["busy", "99999"])
    def test_unbindable_port_exits_two_and_stops_adopted_jobs(
        self, tmp_path, capsys, port
    ):
        """A port ``repro serve`` cannot bind ends it with one line and
        exit 2, after it stops the runners of the jobs it adopted."""
        from repro.serve import JobRegistry

        cache = tmp_path / "cache"
        registry = JobRegistry(cache, jobs=0, fsync=False)
        spec = {"workload": "LiR", "theta": [0.7], "predictor": "oracle"}
        job_id = registry.submit(spec, jobs=0)[0]["id"]
        registry.close()
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            if port == "busy":
                port = str(holder.getsockname()[1])
            code = main(["serve", "--cache-dir", str(cache), "--port", port, "--no-fsync"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cannot serve: "), err
        assert "Traceback" not in err
        assert registry.job(job_id)["state"] == "running"
        assert not [t for t in threading.enumerate() if t.name.startswith("serve-job-")]
