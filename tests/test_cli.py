"""Tests for the command-line interface (repro.cli)."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "-b", "nope"])

    def test_fig5_config_choices(self):
        args = build_parser().parse_args(["fig5", "--config", "2cr_2ncr"])
        assert args.config == "2cr_2ncr"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--config", "bogus"])

    def test_protocol_accepts_registered_names(self):
        args = build_parser().parse_args(
            ["simulate", "-b", "water", "--protocol", "pmsi"]
        )
        assert args.protocol == "pmsi"

    def test_unknown_protocol_error_enumerates_available(self, capsys):
        from repro.sim.protocols import available_protocols

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "-b", "water", "--protocol", "nosuch"]
            )
        err = capsys.readouterr().err
        assert "nosuch" in err
        for name in available_protocols():
            assert name in err

    @pytest.mark.parametrize("argv", [
        [command, flag, "2"]
        for command, flags in [
            ("table2", ["--jobs"]), ("fig7", ["--jobs"]),
            ("all", ["--jobs"]), ("headroom", ["--jobs"]),
            ("simulate", ["--jobs", "--population", "--generations"]),
            ("characterize", ["--jobs", "--population", "--generations"]),
            ("sweep", ["--jobs", "--population", "--generations"]),
        ]
        for flag in flags
    ] + [
        ["trace", "generate", "-o", "out", flag, "2"]
        for flag in ("--jobs", "--population", "--generations")
    ], ids="_".join)
    def test_commands_refuse_flags_they_would_ignore(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CoHoRT" in out and "Challenge" not in out

    def test_simulate_small(self, capsys):
        rc = main(
            ["simulate", "-b", "water", "-t", "50", "20", "20", "-1",
             "--scale", "0.3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "WCML (bound)" in out

    def test_simulate_refuses_jobs(self):
        # One simulation runs in-process: a --jobs that would be
        # accepted and ignored is an argparse error instead.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "-b", "water", "--scale", "0.3",
                  "--jobs", "2"])
        assert excinfo.value.code == 2

    def test_optimize_refuses_jobs_without_sim_fitness(self, capsys):
        # The analytic GA runs in-process: --jobs reaches only the sweep
        # runner of --sim-fitness, so without it the flag is refused.
        rc = main(["optimize", "-b", "water", "--scale", "0.3",
                   "--jobs", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--sim-fitness" in captured.err
        assert captured.out == ""

    def test_optimize_small(self, capsys):
        rc = main(
            ["optimize", "-b", "water", "--scale", "0.3",
             "--population", "6", "--generations", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimized thetas" in out

    def test_table2_small(self, capsys):
        rc = main(
            ["table2", "-b", "water", "--scale", "0.3",
             "--population", "6", "--generations", "3"]
        )
        assert rc == 0
        assert "per-mode timers" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main(["characterize", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "write-shared" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "-b", "water", "--scale", "0.3",
                   "--sweep", "1", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "guaranteed hits" in out and "co-runner WCL" in out

    def test_headroom(self, capsys):
        rc = main(["headroom", "-b", "water", "--scale", "0.3",
                   "--population", "6", "--generations", "2"])
        assert rc == 0
        assert "max tightening" in capsys.readouterr().out

    def test_trace_generate_and_inspect(self, capsys, tmp_path):
        out = str(tmp_path / "traces")
        assert main(["trace", "generate", "-b", "water", "-o", out,
                     "--scale", "0.3"]) == 0
        files = sorted(str(p) for p in (tmp_path / "traces").glob("*.npz"))
        assert len(files) == 4
        assert main(["trace", "inspect"] + files) == 0
        assert "write ratio" in capsys.readouterr().out

    def test_trace_generate_csv(self, tmp_path):
        out = str(tmp_path / "csv")
        assert main(["trace", "generate", "-b", "water", "-o", out,
                     "--format", "csv", "--scale", "0.3", "--cores", "2"]) == 0
        assert len(list((tmp_path / "csv").glob("*.csv"))) == 2

    def test_simulate_from_trace_files(self, capsys, tmp_path):
        out = str(tmp_path / "t")
        main(["trace", "generate", "-b", "water", "-o", out, "--cores", "2",
              "--scale", "0.3"])
        files = sorted(str(p) for p in (tmp_path / "t").glob("*.npz"))
        assert main(["simulate", "--trace-files"] + files +
                    ["-t", "50", "-1"]) == 0
        assert "trace files" in capsys.readouterr().out

    def test_simulate_trace_file_count_mismatch(self, tmp_path):
        out = str(tmp_path / "t")
        main(["trace", "generate", "-b", "water", "-o", out, "--cores", "2",
              "--scale", "0.3"])
        files = sorted(str(p) for p in (tmp_path / "t").glob("*.npz"))
        with pytest.raises(SystemExit):
            main(["simulate", "--trace-files"] + files + ["-t", "50"])

    def test_fig5_single_benchmark(self, capsys):
        rc = main(
            ["fig5", "-b", "water", "--scale", "0.3",
             "--population", "6", "--generations", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PENDULUM" in out and "bound ratios" in out


class TestTelemetryCommands:
    def test_simulate_trace_and_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs import classify, validate_trace_events

        trace = tmp_path / "run.trace.json"
        report = tmp_path / "run.metrics.json"
        rc = main(
            ["simulate", "-b", "water", "--scale", "0.3",
             "--trace-out", str(trace), "--metrics-out", str(report),
             "--sample-every", "100"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "WCML blame" in out
        trace_doc = json.loads(trace.read_text())
        assert validate_trace_events(trace_doc) == []
        report_doc = json.loads(report.read_text())
        assert classify(report_doc) == "run_report"
        assert report_doc["metrics"]["samples"]

    def test_metrics_summarises_run_report(self, capsys, tmp_path):
        report = tmp_path / "run.metrics.json"
        main(["simulate", "-b", "water", "--scale", "0.3",
              "--metrics-out", str(report)])
        capsys.readouterr()
        assert main(["metrics", str(report)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out and "WCML=" in out

    def test_optimize_metrics_out_round_trips(self, capsys, tmp_path):
        from repro.obs import load_jsonl

        path = tmp_path / "ga.jsonl"
        rc = main(
            ["optimize", "-b", "water", "--scale", "0.3",
             "--population", "6", "--generations", "3",
             "--metrics-out", str(path)]
        )
        assert rc == 0
        rows = load_jsonl(str(path))
        assert rows and rows[0]["generation"] == 0
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        assert "GA generation log" in capsys.readouterr().out

    def test_fig6_metrics_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        rc = main(
            ["fig6", "-b", "water", "--scale", "0.3",
             "--population", "6", "--generations", "2",
             "--metrics-out", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["label"] == "fig6:all_cr"
        assert doc["runner"]["jobs_executed"] >= 0
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        assert "sweep metrics" in capsys.readouterr().out

    def test_metrics_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "junk.bin"
        bad.write_text("not { json")
        assert main(["metrics", str(bad)]) == 1
        assert "neither JSON nor JSONL" in capsys.readouterr().err

    def test_metrics_missing_file(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 1


class TestManifestOut:
    """``--manifest-out`` on the sweep commands, reloaded from disk."""

    RUNNER_METRICS = (
        "runner_cache_hits", "runner_cache_misses", "runner_cache_hit_rate",
        "runner_jobs_executed", "runner_exec_seconds",
        "runner_lockstep_groups", "runner_lockstep_jobs",
        "runner_fast_jobs", "runner_worker_failures", "runner_job_timeouts",
    )
    GA = ["--population", "6", "--generations", "2"]

    @staticmethod
    def engine_that_ran(lockstep_jobs, fast_jobs):
        if lockstep_jobs and fast_jobs:
            return "mixed"
        return "lockstep" if lockstep_jobs else "fast"

    def manifest(self, tmp_path, monkeypatch, argv):
        from repro.qa import load_manifest

        # A private cwd keeps the sweep cache of one test from the next.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.manifest.json"
        assert main(argv + ["--manifest-out", str(path)]) == 0
        return load_manifest(str(path))

    @pytest.mark.parametrize("command", ["fig5", "fig6"])
    def test_sweep_manifest_carries_runner_metrics(
        self, tmp_path, monkeypatch, command
    ):
        manifest = self.manifest(
            tmp_path, monkeypatch,
            [command, "-b", "water", "--scale", "0.3"] + self.GA,
        )
        metrics = manifest.metrics
        for key in self.RUNNER_METRICS:
            assert isinstance(metrics[key], (int, float)), key
        assert metrics["runner_cache_misses"] > 0
        assert metrics["runner_jobs_executed"] > 0
        assert (
            metrics["runner_lockstep_jobs"] + metrics["runner_fast_jobs"]
            == metrics["runner_jobs_executed"]
        )
        assert manifest.engine == self.engine_that_ran(
            metrics["runner_lockstep_jobs"], metrics["runner_fast_jobs"]
        )
        # water at scale 0.3 is miss-heavy (8.7% predicted misses), so
        # every same-trace group runs on the fast path.
        assert (manifest.kind, manifest.engine) == (command, "fast")

    def test_optimize_sim_fitness_manifest_carries_sim_metrics(
        self, tmp_path, monkeypatch
    ):
        manifest = self.manifest(
            tmp_path, monkeypatch,
            ["optimize", "-b", "water", "--scale", "0.3", "--sim-fitness"]
            + self.GA,
        )
        metrics = manifest.metrics
        for key in ("sim_jobs_executed", "sim_cache_hits",
                    "lockstep_groups", "lockstep_jobs", "fast_jobs"):
            assert isinstance(metrics[key], int), key
        assert metrics["sim_jobs_executed"] > 0
        assert (
            metrics["lockstep_jobs"] + metrics["fast_jobs"]
            == metrics["sim_jobs_executed"]
        )
        assert manifest.engine == self.engine_that_ran(
            metrics["lockstep_jobs"], metrics["fast_jobs"]
        )
        assert (manifest.kind, manifest.engine) == ("optimize", "fast")


class TestFaultsCommand:
    def test_faults_small_campaign(self, capsys, tmp_path):
        import json

        out = tmp_path / "matrix.json"
        rc = main(
            ["faults", "-b", "water", "--campaigns", "7", "--seed", "0",
             "--scale", "0.25", "--json-out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "fault kind" in text and "silent_corruption" in text
        doc = json.loads(out.read_text())
        assert doc["totals"]["silent_corruption"] == 0
        assert len(doc["campaigns"]) == 7

    def test_faults_kind_filter(self, capsys):
        rc = main(
            ["faults", "-b", "water", "--campaigns", "2", "--scale", "0.25",
             "--kinds", "dram_jitter"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dram_jitter" in out
        assert "timer_flip" not in out

    def test_faults_rejects_unknown_kind(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--kinds", "gremlins"])

    def test_faults_nonzero_exit_on_silent_corruption(
        self, capsys, monkeypatch
    ):
        import repro.fi.campaign as campaign_mod

        monkeypatch.setattr(
            campaign_mod, "audit_system", lambda system: ["fabricated"]
        )
        rc = main(
            ["faults", "-b", "water", "--campaigns", "1", "--scale", "0.25",
             "--kinds", "dram_jitter"]
        )
        assert rc == 1
        assert "SILENT CORRUPTION" in capsys.readouterr().err


class TestSimulateDiagnostics:
    def test_coherence_violation_is_one_line_with_hint(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli_mod
        from repro.sim.oracle import CoherenceViolationError

        def exploding(config, traces, **kw):
            raise CoherenceViolationError(
                "stale value", core=1, line=64, cycle=123
            )

        monkeypatch.setattr(cli_mod, "run_simulation", exploding)
        rc = main(["simulate", "-b", "water", "--scale", "0.25"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "coherence violation" in err
        assert "stale value" in err
        assert "--trace-out" in err

    def test_simulation_limit_is_one_line_with_hint(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli_mod
        from repro.sim.kernel import SimulationLimitError

        def exploding(config, traces, **kw):
            raise SimulationLimitError("exceeded 100 cycles")

        monkeypatch.setattr(cli_mod, "run_simulation", exploding)
        rc = main(["simulate", "-b", "water", "--scale", "0.25"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "simulation limit" in err
        assert "--trace-out" in err

    def test_optimize_checkpoint_round_trip(self, capsys, tmp_path):
        ckpt = tmp_path / "ga.json"
        args = ["optimize", "-b", "water", "--scale", "0.3",
                "--population", "6", "--generations", "2",
                "--checkpoint", str(ckpt)]
        assert main(args) == 0
        assert ckpt.exists()
        first = capsys.readouterr().out
        assert main(args) == 0  # resumes (and re-reports) without error
        assert "optimized thetas" in capsys.readouterr().out
        assert "optimized thetas" in first

    def test_sim_fitness_does_not_resume_an_analytic_checkpoint(
        self, capsys, tmp_path, monkeypatch
    ):
        # Both runs share the GA config and the gene bounds; resuming the
        # analytic memo would print its objective as a measured one.
        monkeypatch.chdir(tmp_path)
        args = ["optimize", "-b", "water", "--scale", "0.3",
                "--population", "6", "--generations", "3"]
        sim = args + ["--sim-fitness"]
        assert main(sim) == 0
        fresh = capsys.readouterr().out
        assert main(args + ["--checkpoint", "ga.json"]) == 0
        capsys.readouterr()
        assert main(sim + ["--checkpoint", "ga.json"]) == 0
        after = capsys.readouterr().out

        def strip_wall_time(out):
            return re.sub(r"wall time: [0-9.]+s", "wall time", out)

        assert strip_wall_time(after) == strip_wall_time(fresh)
