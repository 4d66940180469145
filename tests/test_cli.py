"""CLI tests: every subcommand, argument validation, output contents."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.obs import counters, profiler
from repro.obs.export import validate_chrome_trace


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        )
        args = parser.parse_args(["plan", "128", "128", "128"])
        assert args.command == "plan"

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_dtype_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "1", "1", "1", "--dtype", "fp8"])

    def test_bad_gpu_raises_listing_presets(self):
        # --gpu is free-form (it also accepts spec-JSON paths), so unknown
        # names surface as ConfigurationError at resolve time, naming the
        # registered presets.
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="h100_sxm"):
            main(["plan", "1", "1", "1", "--gpu", "h100"])


class TestEntryPointErrors:
    """``python -m repro`` turns a ReproError into one line, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["plan", "128", "128", "0"],
             "extent k must be positive, got 0"),
            (["sweep"], "repro sweep needs a journal directory"),
            (["plan", "128", "128", "128", "--gpu", "/nonexistent.json"],
             "cannot read GPU spec file '/nonexistent.json'"),
        ],
    )
    def test_repro_error_is_one_line_exit_2(self, argv, message):
        env = dict(os.environ)
        env.pop("REPRO_JOURNAL_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + argv,
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("repro: error: " + message)


class TestCommands:
    def test_plan(self, capsys):
        assert main(["plan", "1280", "1536", "4096"]) == 0
        out = capsys.readouterr().out
        assert "two_tile" in out
        assert "108 CTAs" in out

    def test_plan_small_problem_uses_model(self, capsys):
        assert main(["plan", "128", "128", "16384"]) == 0
        out = capsys.readouterr().out
        assert "basic_stream_k" in out
        assert "grid size      : 8" in out  # the Figure 8c optimum

    def test_simulate_with_numerics(self, capsys):
        rc = main(
            ["simulate", "384", "384", "128", "--gpu", "hypothetical_4sm", "--numeric"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "data_parallel" in out and "two_tile_stream_k" in out
        assert "validated" in out
        assert "75.0%" in out  # the Figure 1a ceiling

    def test_model_curve(self, capsys):
        assert main(["model", "128", "128", "16384"]) == 0
        out = capsys.readouterr().out
        assert "g_best = 8" in out
        assert "<-- g_best" in out

    def test_corpus_table(self, capsys):
        assert main(["corpus", "--size", "200", "--dtype", "fp64"]) == 0
        out = capsys.readouterr().out
        assert "Average" in out and "vs cuBLAS" in out
        assert "200 shapes" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--dtype", "fp64"]) == 0
        out = capsys.readouterr().out
        assert "per MAC-loop iteration" in out

    def test_fp64_plan_on_small_gpu(self, capsys):
        rc = main(
            ["plan", "200", "200", "200", "--dtype", "fp64", "--gpu", "hypothetical_4sm"]
        )
        assert rc == 0
        assert "fp64" in capsys.readouterr().out


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        yield
        profiler.disable_profiling()
        profiler.reset_profile()
        counters.reset_counters()

    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        rc = main(
            ["trace", "384", "384", "128", "--gpu", "hypothetical_4sm",
             "--schedule", "stream_k", "--g", "4", "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        assert "makespan" in out
        with open(out_path) as fh:
            doc = json.load(fh)
        validate_chrome_trace(doc)
        assert doc["otherData"]["num_sm_slots"] == 4

    @pytest.mark.parametrize(
        "schedule", ["data_parallel", "fixed_split", "two_tile_stream_k"]
    )
    def test_trace_other_schedules(self, schedule, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        rc = main(
            ["trace", "512", "512", "256", "--gpu", "hypothetical_4sm",
             "--schedule", schedule, "--out", str(out_path)]
        )
        assert rc == 0
        assert schedule in capsys.readouterr().out
        validate_chrome_trace(json.loads(out_path.read_text()))

    def test_profile_prints_spans_and_counters(self, capsys):
        rc = main(["profile", "--size", "120", "--repeat", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile_corpus" in out
        assert "evaluate_corpus" in out
        assert "evalcache" in out  # counters report includes cache traffic

    def test_profile_flame_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        rc = main(["profile", "--size", "80", "--flame", "--out", str(out_path)])
        assert rc == 0
        assert "|" in capsys.readouterr().out  # flamegraph bars
        validate_chrome_trace(json.loads(out_path.read_text()))

    def test_repro_profile_env_reports_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert main(["plan", "1280", "1536", "4096"]) == 0
        captured = capsys.readouterr()
        assert "two_tile" in captured.out
        assert "self" in captured.err  # profiler report table header
        assert "counter" in captured.err  # counters report table header


class TestFaultsCommand:
    ARGS = ["faults", "384", "384", "128", "--gpu", "hypothetical_4sm"]

    def test_sweep_table_printed(self, capsys):
        rc = main(self.ARGS + ["--severities", "0,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault sweep" in out
        assert "invariant-checked" in out
        for name in ("data_parallel", "stream_k", "two_tile_stream_k"):
            assert name in out
        assert "sev 0.00" in out and "sev 1.00" in out
        assert "injected faults" in out

    def test_schedule_subset_and_seed(self, capsys):
        rc = main(
            self.ARGS
            + ["--severities", "0,0.5", "--schedules", "stream_k", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream_k" in out
        assert "data_parallel" not in out
        assert "seed 3" in out

    def test_drop_signals_reports_deadlock_not_hang(self, capsys):
        rc = main(
            self.ARGS
            + ["--severities", "0,1", "--schedules", "stream_k",
               "--drop-signals", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "DEADLOCK" in out
        # --drop-signals applies at every severity, baseline included.
        assert "2 deadlocked" in out

    def test_no_check_skips_invariants(self, capsys):
        rc = main(self.ARGS + ["--severities", "0", "--no-check"])
        assert rc == 0
        assert "invariant-checked" not in capsys.readouterr().out

    def test_bad_severities_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(self.ARGS + ["--severities", "0,banana"])


class TestCrossHwCommand:
    def test_table_and_winners_printed(self, capsys):
        rc = main(
            [
                "crosshw",
                "--gpus", "a100,h100_sxm,rtx3090",
                "--schedules", "data_parallel,stream_k",
                "--size", "120",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-hardware sweep" in out
        assert "<-- winner" in out
        for name in ("a100", "h100_sxm", "rtx3090"):
            assert "%s " % name in out
            assert "winner:" in out

    def test_custom_json_device(self, capsys, tmp_path):
        from repro.gpu.spec import HYPOTHETICAL_4SM

        path = tmp_path / "tiny.json"
        path.write_text(HYPOTHETICAL_4SM.to_json())
        rc = main(
            [
                "crosshw",
                "--gpus", "a100,%s" % path,
                "--schedules", "stream_k",
                "--size", "60",
            ]
        )
        assert rc == 0
        assert "hypothetical_4sm" in capsys.readouterr().out

    def test_unknown_schedule_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="supports"):
            main(["crosshw", "--schedules", "bogus", "--size", "50"])


class TestServeCommand:
    """``repro serve`` / ``repro loadgen`` (docs/SERVING.md)."""

    def test_serve_demo_is_self_terminating(self, capsys):
        rc = main(["serve", "--demo", "60", "--no-persist", "--no-warm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve demo (60 requests" in out
        assert "over the socket of a local daemon" in out
        assert "hit rate" in out and "latency p99" in out

    def test_loadgen_in_process_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "loadgen.json"
        rc = main(
            ["loadgen", "--requests", "80", "--universe", "8",
             "--clients", "2", "--no-persist", "--no-warm",
             "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        report = json.loads(out_path.read_text())
        assert report["completed"] == 80 and report["failed"] == 0
        assert report["hits"] + report["misses"] == 80

    def test_loadgen_deterministic_trace_hits(self, capsys):
        # One client, universe of 4 shapes, 50 sequential requests: each
        # shape misses exactly once, every other request is a cache hit.
        rc = main(
            ["loadgen", "--requests", "50", "--universe", "4",
             "--clients", "1", "--no-persist", "--no-warm"]
        )
        assert rc == 0
        assert "46 hits / 4 misses" in capsys.readouterr().out

    def test_loadgen_bad_connect_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            main(["loadgen", "--connect", "nonsense"])

    def test_serve_daemon_port_file_and_shutdown(self, capsys, tmp_path):
        import socket as _socket
        import threading
        import time

        port_file = tmp_path / "port"
        argv = [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--no-persist", "--no-warm",
        ]
        rcs = []
        t = threading.Thread(target=lambda: rcs.append(main(argv)))
        t.start()
        deadline = time.monotonic() + 30
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        port = int(port_file.read_text())
        with _socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            fh = s.makefile("rwb")
            fh.write(b'{"op": "plan", "m": 512, "n": 512, "k": 4096}\n')
            fh.flush()
            assert json.loads(fh.readline())["ok"]
            fh.write(b'{"op": "shutdown"}\n')
            fh.flush()
            assert json.loads(fh.readline())["bye"]
        t.join(timeout=30)
        assert not t.is_alive() and rcs == [0]
        out = capsys.readouterr().out
        assert "serving plans on 127.0.0.1:%d" % port in out
        assert "served 1 request(s)" in out


class TestAdaptCommand:
    """``repro adapt``: Stream-K++ adaptive replay (docs/ADAPTIVE.md)."""

    def test_adapt_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "adapt.json"
        rc = main(
            ["adapt", "--requests", "300", "--universe", "32",
             "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "adaptive replay: 300 requests" in out
        assert "regret vs oracle" in out
        report = json.loads(out_path.read_text())
        assert report["hits"] + report["misses"] == 300
        assert report["regret"]["adaptive_mean"] <= 0.01

    def test_adapt_analytic_evaluator(self, capsys):
        rc = main(
            ["adapt", "--requests", "200", "--universe", "16",
             "--evaluator", "analytic"]
        )
        assert rc == 0
        assert "analytic evaluator" in capsys.readouterr().out

    def test_bad_evaluator_rejected_by_parser(self):
        for argv in (
            ["adapt", "--evaluator", "psychic"],
            # Removed flags: serve has one cache, adapt has no filter.
            ["serve", "--adaptive"],
            ["adapt", "--filter-bits", "0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestSweepCommand:
    """``repro sweep``: durable journaled sweeps (docs/CHECKPOINTING.md)."""

    ARGS = [
        "sweep", "--size", "300", "--dtype", "fp64",
        "--gpu", "hypothetical_4sm", "--shard-rows", "128",
    ]

    @pytest.fixture(autouse=True)
    def _fresh(self, monkeypatch):
        from repro.harness.parallel import clear_eval_memo

        monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
        clear_eval_memo()
        counters.reset_counters()
        yield
        clear_eval_memo()
        counters.reset_counters()

    def test_requires_journal_dir(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="REPRO_JOURNAL_DIR"):
            main(self.ARGS)

    def test_sweep_then_resume_zero_evaluations(self, capsys, tmp_path):
        jdir = str(tmp_path / "journal")
        assert main(self.ARGS + ["--journal", jdir]) == 0
        out = capsys.readouterr().out
        assert jdir in out
        assert "0 skipped (journal)" in out
        assert "relative performance" in out
        counters.reset_counters()
        assert main(self.ARGS + ["--journal", jdir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 evaluated" in out  # everything came from the journal
        assert counters.get_counter("harness.shards_ok") == 0

    def test_env_var_supplies_journal_dir(self, capsys, tmp_path, monkeypatch):
        jdir = str(tmp_path / "envjournal")
        monkeypatch.setenv("REPRO_JOURNAL_DIR", jdir)
        assert main(self.ARGS) == 0
        assert jdir in capsys.readouterr().out
        import os as _os

        assert _os.path.exists(_os.path.join(jdir, "wal.bin"))

    def test_out_artifact_written(self, capsys, tmp_path):
        import numpy as np

        out_path = str(tmp_path / "timings.npz")
        rc = main(
            self.ARGS
            + ["--journal", str(tmp_path / "j"), "--out", out_path]
        )
        assert rc == 0
        with np.load(out_path, allow_pickle=False) as doc:
            assert doc["shapes"].shape == (300, 3)

    def test_chaos_kill_after_validates(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=">= 1"):
            main(
                self.ARGS
                + ["--journal", str(tmp_path / "j"), "--chaos-kill-after", "0"]
            )

    def test_join_runs_fabric_and_reports(self, capsys, tmp_path):
        jdir = str(tmp_path / "fabric-journal")
        assert main(self.ARGS + ["--join", jdir]) == 0
        out = capsys.readouterr().out
        assert "fabric" in out
        assert "claim(s)" in out
        import os as _os

        assert _os.path.exists(_os.path.join(jdir, "wal.bin"))

    def test_chaos_worker_kill_requires_fabric_mode(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--workers N or --join"):
            main(
                self.ARGS
                + ["--journal", str(tmp_path / "j"),
                   "--chaos-worker-kill", "eval:1"]
            )

    def test_bad_chaos_worker_point_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                self.ARGS
                + ["--journal", str(tmp_path / "j"), "--workers", "2",
                   "--chaos-worker-kill", "banana:1"]
            )

    def test_corpus_accepts_journal_flags(self, capsys, tmp_path):
        rc = main(
            ["corpus", "--size", "300", "--dtype", "fp64",
             "--gpu", "hypothetical_4sm",
             "--journal", str(tmp_path / "cj"), "--resume"]
        )
        assert rc == 0
        assert "Stream-K" in capsys.readouterr().out
