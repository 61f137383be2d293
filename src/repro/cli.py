"""Command-line interface: regenerate the paper's experiments.

Installed as the ``cohort`` console script::

    cohort table1                    # related-work challenge matrix
    cohort table2                    # per-mode optimized timers (fft)
    cohort fig5 --config all_cr      # WCML comparison (one panel)
    cohort fig6 --config all_cr      # normalised execution time
    cohort fig7                      # mode-switch adaptation
    cohort optimize -b fft           # run the optimization engine
    cohort simulate -b fft -t 100 20 20 -1   # one simulation run

Every command prints the rows/series the corresponding paper artefact
reports.

Telemetry (the :mod:`repro.obs` layer) rides along on request::

    cohort simulate -b fft --trace-out run.trace.json \
                           --metrics-out run.metrics.json
    cohort fig6 --metrics-out sweep.metrics.json
    cohort optimize --metrics-out ga.jsonl
    cohort metrics run.metrics.json   # summarise any saved artefact
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.params import LatencyParams, cohort_config
from repro.analysis import build_profiles, cohort_bounds
from repro.experiments import (
    FIG5_CONFIGS,
    format_table,
    render_table_i,
    run_mode_switch_experiment,
    run_performance_experiment,
    run_wcml_experiment,
)
from repro.opt import GAConfig, OptimizationEngine
from repro.sim.system import run_simulation
from repro.workloads import benchmark_names, splash_traces


def _ga_config(args: argparse.Namespace) -> GAConfig:
    return GAConfig(
        population_size=args.population,
        generations=args.generations,
        seed=args.seed,
    )


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return jobs


def _nonneg_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _protocol_name(value: str) -> str:
    """Argparse type for ``--protocol``: any *registered* protocol name.

    Validated against the live registry (not a static choices list) so
    third-party protocols registered via ``repro.sim.protocols.register``
    are selectable; the error enumerates what exists.
    """
    from repro.sim.protocols import available_protocols

    if value not in available_protocols():
        raise argparse.ArgumentTypeError(
            f"unknown coherence protocol {value!r}; "
            f"available: {', '.join(available_protocols())}"
        )
    return value


def _add_metrics_out(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--metrics-out", metavar="FILE",
                        help=f"write {what} to FILE "
                             "(summarise with `cohort metrics`)")


def _add_manifest_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest-out", metavar="FILE",
                        help="write a run manifest (config fingerprint, "
                             "trace digests, key metrics, artifact digests) "
                             "to FILE; gate it with `cohort gate run`")


def _emit_manifest(path, kind, label, **kwargs) -> None:
    """Build and write a run manifest; prints its fingerprint."""
    from repro.qa import build_manifest, write_manifest

    manifest = build_manifest(kind, label, **kwargs)
    fingerprint = write_manifest(manifest, path)
    print(f"run manifest written to {path} (fingerprint {fingerprint[:12]})")


def _runner_metrics(runner) -> dict:
    """The sweep-runner telemetry scalars a gate can assert over."""
    tele = runner.telemetry()
    keys = ("cache_hits", "cache_misses", "cache_hit_rate", "jobs_executed",
            "exec_seconds", "lockstep_groups", "lockstep_jobs", "fast_jobs",
            "worker_failures", "job_timeouts")
    return {f"runner_{key}": tele[key] for key in keys}


def _write_sweep_metrics(args: argparse.Namespace, runner,
                         label: str) -> None:
    """Write the sweep-cache / worker-timing counters of a runner."""
    from repro.obs import SWEEP_METRICS_SCHEMA

    doc = {
        "schema": SWEEP_METRICS_SCHEMA,
        "label": label,
        "runner": runner.telemetry(),
    }
    with open(args.metrics_out, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"sweep metrics written to {args.metrics_out}")


def _add_common(
    parser: argparse.ArgumentParser, ga: bool = False, jobs: bool = False
) -> None:
    """``--scale`` and ``--seed``; the GA flags and ``--jobs`` only for
    the commands that read them."""
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier")
    parser.add_argument("--seed", type=int, default=0)
    if ga:
        parser.add_argument("--population", type=int, default=24,
                            help="GA population size")
        parser.add_argument("--generations", type=int, default=20,
                            help="GA generations")
    if jobs:
        parser.add_argument("-j", "--jobs", type=_positive_int, default=1,
                            help="worker processes (1 = serial) of the "
                                 "sweep runner's pool, which runs "
                                 "lock-step shares and fast-path jobs; "
                                 "optimize takes it with --sim-fitness "
                                 "only")


def cmd_table1(args: argparse.Namespace) -> int:
    """``cohort table1``: print the related-work challenge matrix."""
    print(render_table_i())
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    """``cohort table2``: per-mode optimized timer values (Table II)."""
    exp = run_mode_switch_experiment(
        benchmark=args.benchmark,
        scale=args.scale,
        seed=args.seed,
        ga_config=_ga_config(args),
        run_measured=False,
    )
    print(f"Table II equivalent: per-mode timers for {args.benchmark}")
    print(exp.mode_table)
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    """``cohort fig5``: one WCML comparison panel per benchmark."""
    from repro.runner import SweepRunner

    critical = FIG5_CONFIGS[args.config]
    runner = SweepRunner(jobs=args.jobs)
    ratios = {}
    for benchmark in args.benchmarks:
        exp = run_wcml_experiment(
            benchmark, critical, scale=args.scale, seed=args.seed,
            ga_config=_ga_config(args), perfect_llc=not args.non_perfect_llc,
            runner=runner,
        )
        print(exp.to_table())
        print(
            f"  bound ratios vs CoHoRT: PCC "
            f"{exp.bound_ratio('PCC', 'CoHoRT'):.2f}x, PENDULUM "
            f"{exp.bound_ratio('PENDULUM', 'CoHoRT'):.2f}x"
        )
        print()
        ratios[f"{benchmark}_pcc_over_cohort"] = \
            exp.bound_ratio("PCC", "CoHoRT")
        ratios[f"{benchmark}_pendulum_over_cohort"] = \
            exp.bound_ratio("PENDULUM", "CoHoRT")
    if args.metrics_out:
        _write_sweep_metrics(args, runner, f"fig5:{args.config}")
    if args.manifest_out:
        _emit_manifest(
            args.manifest_out, "fig5", f"{args.config}",
            metrics={**ratios, **_runner_metrics(runner)},
            engine=runner.telemetry()["engine"], seed=args.seed,
            artifact_paths=[p for p in (args.metrics_out,) if p],
            environment={"benchmarks": list(args.benchmarks),
                         "scale": args.scale},
        )
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    """``cohort fig6``: execution time normalised to MSI-FCFS."""
    from repro.runner import SweepRunner

    critical = FIG5_CONFIGS[args.config]
    runner = SweepRunner(jobs=args.jobs)
    exp = run_performance_experiment(
        args.benchmarks, critical, scale=args.scale, seed=args.seed,
        ga_config=_ga_config(args), perfect_llc=not args.non_perfect_llc,
        runner=runner, include_pmsi=args.pmsi,
    )
    print(exp.to_table())
    if args.metrics_out:
        _write_sweep_metrics(args, runner, f"fig6:{args.config}")
    if args.manifest_out:
        systems = list(exp.results[0].execution_time) if exp.results else []
        slowdowns = {
            "geomean_slowdown_" + s.lower().replace("-", "_"):
                exp.average_slowdown(s)
            for s in systems
        }
        _emit_manifest(
            args.manifest_out, "fig6", f"{args.config}",
            metrics={**slowdowns, **_runner_metrics(runner)},
            engine=runner.telemetry()["engine"], seed=args.seed,
            artifact_paths=[p for p in (args.metrics_out,) if p],
            environment={"benchmarks": list(args.benchmarks),
                         "scale": args.scale},
        )
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    """``cohort fig7``: the mode-switch adaptation experiment."""
    exp = run_mode_switch_experiment(
        benchmark=args.benchmark, scale=args.scale, seed=args.seed,
        ga_config=_ga_config(args),
    )
    print(exp.mode_table)
    print()
    print(exp.to_table())
    if exp.measured_c0_adaptive is not None:
        print(
            f"\nmeasured c0 memory latency: adaptive="
            f"{exp.measured_c0_adaptive:,} static={exp.measured_c0_static:,}"
        )
    if args.manifest_out:
        _emit_manifest(
            args.manifest_out, "fig7", args.benchmark,
            metrics={
                "measured_c0_adaptive": exp.measured_c0_adaptive,
                "measured_c0_static": exp.measured_c0_static,
            },
            seed=args.seed,
            environment={"scale": args.scale},
        )
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    """``cohort all``: the complete reproduction in one run."""
    from repro.experiments.summary import quick_sanity_table, run_everything

    report = run_everything(
        suite=args.benchmarks,
        scale=args.scale,
        seed=args.seed,
        ga_config=_ga_config(args),
    )
    print(report.render())
    print()
    print(quick_sanity_table(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.render() + "\n\n" + quick_sanity_table(report))
        print(f"\nreport written to {args.out}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """``cohort characterize``: workload characterisation table."""
    from repro.workloads import characterize_suite, suite_table

    profiles = characterize_suite(
        num_cores=4, scale=args.scale, seed=args.seed
    )
    print(suite_table(profiles))
    return 0


def cmd_headroom(args: argparse.Namespace) -> int:
    """``cohort headroom``: per-mode requirement-tightening headroom."""
    from repro.analysis import tightening_headroom
    from repro.mcs import Task, TaskSet

    criticalities = [4, 3, 2, 1]
    traces = splash_traces(args.benchmark, 4, scale=args.scale,
                           seed=args.seed)
    profiles = build_profiles(traces, cohort_config([1] * 4).l1)
    engine = OptimizationEngine(profiles, LatencyParams(), _ga_config(args))
    table = engine.optimize_modes(
        criticalities, {m: [None] * 4 for m in range(1, 5)}
    )
    tasks = TaskSet(
        tuple(
            Task(f"tau_{i}", l, traces[i])
            for i, l in enumerate(criticalities)
        )
    )
    headroom = tightening_headroom(
        tasks, table, profiles, LatencyParams(), core_id=0
    )
    print(table)
    rows = [[f"mode {m}", f"{headroom[m]:.2f}x"] for m in sorted(headroom)]
    print()
    print(format_table(
        ["mode", "max tightening of Γ_0"],
        rows,
        title=f"Requirement headroom of c0 per mode ({args.benchmark})",
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``cohort sweep``: the timer trade-off curve for one core."""
    from repro.analysis import wcl_miss

    traces = splash_traces(args.benchmark, 4, scale=args.scale,
                           seed=args.seed)
    config = cohort_config([1] * 4)
    profiles = build_profiles(traces, config.l1)
    sw = config.latencies.slot_width
    rows = []
    for theta in args.sweep:
        thetas = [theta] + [args.corunner_theta] * 3
        own_wcl = wcl_miss(thetas, 0, sw)
        counts = profiles[0].analyze(theta, own_wcl)
        wcml = counts.m_hit * config.latencies.hit + counts.m_miss * own_wcl
        rows.append(
            [theta, counts.m_hit, f"{counts.hit_rate:.0%}", wcml,
             wcl_miss(thetas, 1, sw)]
        )
    print(format_table(
        ["θ_0", "guaranteed hits", "hit rate", "c0 WCML bound",
         "co-runner WCL"],
        rows,
        title=f"Timer trade-off on {args.benchmark} "
        f"(co-runners θ={args.corunner_theta})",
    ))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """``cohort optimize``: run the GA timer optimization engine."""
    if args.jobs > 1 and not args.sim_fitness:
        print("optimize: --jobs above 1 needs --sim-fitness; the analytic "
              "GA runs in-process", file=sys.stderr)
        return 2
    traces = splash_traces(args.benchmark, 4, scale=args.scale, seed=args.seed)
    config = cohort_config([1] * 4)
    profiles = build_profiles(traces, config.l1)
    ga_log = None
    if args.metrics_out:
        from repro.obs import GAGenerationLog

        ga_log = GAGenerationLog()
    if args.sim_fitness:
        return _optimize_sim_fitness(args, config, traces, profiles, ga_log)
    engine = OptimizationEngine(profiles, LatencyParams(), _ga_config(args))
    result = engine.optimize(
        timed=[True] * 4, on_generation=ga_log,
        checkpoint_path=args.checkpoint,
    )
    if ga_log is not None:
        ga_log.write_jsonl(args.metrics_out)
        print(f"GA generation log written to {args.metrics_out}")
    print(f"optimized thetas for {args.benchmark}: {result.thetas}")
    print(f"objective (avg per-access WCML): {result.objective:.2f}")
    print(f"feasible: {result.feasible}, GA evaluations: "
          f"{result.ga.evaluations}, wall time: {result.wall_seconds:.1f}s")
    rows = [
        [f"c{b.core_id}", b.m_hit, b.m_miss, b.wcl, b.wcml]
        for b in result.bounds
    ]
    print(format_table(["core", "M_hit", "M_miss", "WCL", "WCML"], rows))
    if args.manifest_out:
        _emit_manifest(
            args.manifest_out, "optimize", args.benchmark,
            config=config, traces=traces,
            metrics={
                "objective": result.objective,
                "feasible": result.feasible,
                "ga_evaluations": result.ga.evaluations,
                "wall_seconds": result.wall_seconds,
                "thetas": ",".join(str(t) for t in result.thetas),
            },
            seed=args.seed,
            artifact_paths=[p for p in (args.metrics_out,) if p],
        )
    return 0


def _optimize_sim_fitness(args, config, traces, profiles, ga_log) -> int:
    """The measured-objective GA: fitness by simulation, one sweep batch
    per generation (constraint C1 stays analytic)."""
    import time

    from repro.opt import GeneticAlgorithm, SimulationFitness, TimerProblem
    from repro.runner import SweepRunner

    problem = TimerProblem(profiles, LatencyParams(), timed=[True] * 4)
    fit = SimulationFitness(
        problem, config, traces, SweepRunner(jobs=args.jobs, cache_dir=None)
    )
    ga = GeneticAlgorithm(
        problem.gene_bounds(), fit.fitness, _ga_config(args), map_fn=fit
    )
    started = time.perf_counter()
    result = ga.run(on_generation=ga_log, checkpoint_path=args.checkpoint)
    wall = time.perf_counter() - started
    if ga_log is not None:
        ga_log.write_jsonl(args.metrics_out)
        print(f"GA generation log written to {args.metrics_out}")
    evaluation = problem.evaluate(result.best_genes)
    print(f"optimized thetas for {args.benchmark} (simulated fitness): "
          f"{evaluation.thetas}")
    print(f"objective (avg measured latency/access): "
          f"{result.best_fitness:.2f}")
    print(f"feasible (analytic C1): {evaluation.feasible}, GA evaluations: "
          f"{result.evaluations}, wall time: {wall:.1f}s")
    tele = fit.telemetry()
    print(f"{tele['jobs_executed']} simulations "
          f"({tele['lockstep_jobs']} in {tele['lockstep_groups']} lock-step "
          f"groups, {tele['fast_jobs']} on the fast path), "
          f"{tele['cache_hits']} memoized")
    rows = [
        [f"c{b.core_id}", b.m_hit, b.m_miss, b.wcl, b.wcml]
        for b in evaluation.bounds
    ]
    print(format_table(["core", "M_hit", "M_miss", "WCL", "WCML"], rows))
    if args.manifest_out:
        _emit_manifest(
            args.manifest_out, "optimize", f"{args.benchmark} sim-fitness",
            config=config, traces=traces,
            metrics={
                "objective": result.best_fitness,
                "feasible": evaluation.feasible,
                "ga_evaluations": result.evaluations,
                "wall_seconds": wall,
                "thetas": ",".join(str(t) for t in evaluation.thetas),
                "sim_jobs_executed": tele["jobs_executed"],
                "sim_cache_hits": tele["cache_hits"],
                "lockstep_groups": tele["lockstep_groups"],
                "lockstep_jobs": tele["lockstep_jobs"],
                "fast_jobs": tele["fast_jobs"],
            },
            engine=tele["engine"], seed=args.seed,
            artifact_paths=[p for p in (args.metrics_out,) if p],
        )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """``cohort faults``: seeded fault-injection campaigns + detection matrix."""
    from repro.fi import FaultKind, run_campaigns

    kinds = None
    if args.kinds:
        kinds = [FaultKind(k) for k in args.kinds]
    traces = splash_traces(args.benchmark, len(args.thetas),
                           scale=args.scale, seed=args.seed)
    report = run_campaigns(
        cohort_config(args.thetas),
        traces,
        campaigns=args.campaigns,
        seed=args.seed,
        kinds=kinds,
        n_faults=args.faults_per_campaign,
        response=args.response,
    )
    print(f"{args.campaigns} campaigns on {args.benchmark} "
          f"(baseline {report.baseline_cycles:,} cycles, "
          f"response={report.response})")
    print()
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"\ndetection matrix written to {args.json_out}")
    silent = report.silent_corruptions()
    if silent:
        print(f"\n{len(silent)} SILENT CORRUPTION(S):", file=sys.stderr)
        for c in silent:
            print(f"  campaign {c.index} ({c.kind}, seed {c.seed}): "
                  f"{c.detail}", file=sys.stderr)
    # The exit policy itself lives in the shipped "faults" gate spec:
    # build the campaign manifest and let the one engine decide.
    from repro.qa import build_manifest, evaluate_spec, load_spec
    from repro.qa import write_manifest

    totals = report.totals()
    manifest = build_manifest(
        "faults", f"{args.benchmark} x{args.campaigns}",
        config=cohort_config(args.thetas), traces=traces,
        metrics={
            "campaigns": len(report.campaigns),
            "injections": sum(
                c.injections.get("injected", 0) for c in report.campaigns
            ),
            "detected": totals["detected"],
            "survived": totals["survived"],
            "silent_corruptions": totals["silent_corruption"],
            "baseline_cycles": report.baseline_cycles,
        },
        seed=args.seed,
        artifact_paths=[args.json_out] if args.json_out else (),
        environment={"response": report.response},
    )
    if args.manifest_out:
        fingerprint = write_manifest(manifest, args.manifest_out)
        print(f"run manifest written to {args.manifest_out} "
              f"(fingerprint {fingerprint[:12]})")
    gate = evaluate_spec(load_spec("faults"), manifest)
    if not gate.passed:
        print(file=sys.stderr)
        print(gate.render(), file=sys.stderr)
    return gate.exit_code


def _load_trace_file(path: str):
    from repro.sim.trace import Trace

    if path.endswith(".npz"):
        return Trace.load(path)
    with open(path) as fh:
        return Trace.from_csv(fh.read())


def cmd_trace_generate(args: argparse.Namespace) -> int:
    """``cohort trace generate``: write benchmark traces to disk."""
    import os

    traces = splash_traces(args.benchmark, args.cores,
                           scale=args.scale, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for core_id, trace in enumerate(traces):
        stem = os.path.join(args.out, f"{args.benchmark}_c{core_id}")
        if args.format == "npz":
            trace.save(stem + ".npz")
        else:
            with open(stem + ".csv", "w") as fh:
                fh.write(trace.to_csv())
    print(f"wrote {len(traces)} {args.format} traces to {args.out}/")
    return 0


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    """``cohort trace inspect``: summarise trace files."""
    rows = []
    for path in args.files:
        trace = _load_trace_file(path)
        rows.append(
            [
                path,
                len(trace),
                trace.unique_lines(64),
                f"{trace.write_ratio:.2f}",
                int(trace.gaps.sum()),
            ]
        )
    print(format_table(
        ["trace", "accesses", "lines", "write ratio", "compute cycles"],
        rows,
    ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """``cohort simulate``: one simulation run with bounds next to measurements."""
    if args.config:
        from repro.params import load_config

        base = load_config(args.config)
        args.thetas = base.thetas
    if args.trace_files:
        traces = [_load_trace_file(p) for p in args.trace_files]
        if len(traces) != len(args.thetas):
            raise SystemExit(
                f"{len(args.thetas)} thetas but {len(traces)} trace files"
            )
    else:
        traces = splash_traces(args.benchmark, len(args.thetas),
                               scale=args.scale, seed=args.seed)
    if args.config:
        from repro.params import load_config

        config = load_config(args.config)
    else:
        config = cohort_config(args.thetas)
    if args.protocol is not None:
        from dataclasses import replace

        config = replace(config, protocol=args.protocol)
    from repro.sim.kernel import SimulationLimitError
    from repro.sim.oracle import CoherenceViolationError

    telemetry = None
    try:
        if args.trace_out or args.metrics_out:
            from repro.obs import Telemetry
            from repro.sim.system import System

            # Telemetry needs the full event stream, which only the
            # per-event engine publishes.
            system = System(config, traces)
            telemetry = Telemetry.attach(
                system, sample_every=args.sample_every, label="simulate"
            )
            stats = system.run()
        else:
            stats = run_simulation(config, traces)
    except CoherenceViolationError as exc:
        print(f"coherence violation: {exc}", file=sys.stderr)
        if not args.trace_out:
            print("hint: rerun with --trace-out run.trace.json to capture "
                  "the event trace leading up to the violation",
                  file=sys.stderr)
        return 1
    except SimulationLimitError as exc:
        print(f"simulation limit: {exc}", file=sys.stderr)
        if not args.trace_out:
            print("hint: rerun with --trace-out run.trace.json to see "
                  "where the run stopped making progress", file=sys.stderr)
        return 1
    profiles = build_profiles(traces, config.l1)
    bounds = cohort_bounds(args.thetas, profiles, config.latencies)
    rows = []
    for core, bound in zip(stats.cores, bounds):
        rows.append([
            f"c{core.core_id}", core.hits, core.misses,
            core.total_memory_latency, bound.wcml, core.max_request_latency,
            bound.wcl,
        ])
    source = "trace files" if args.trace_files else args.benchmark
    print(format_table(
        ["core", "hits", "misses", "WCML (meas)", "WCML (bound)",
         "max lat (meas)", "WCL (bound)"],
        rows,
        title=f"{source} with Θ={args.thetas}",
    ))
    print(f"execution time: {stats.execution_time:,} cycles")
    if telemetry is not None:
        print()
        print(telemetry.render_blame())
        if args.trace_out:
            telemetry.write_trace(args.trace_out)
            print(f"trace-event JSON written to {args.trace_out} "
                  "(load in Perfetto / chrome://tracing)")
        if args.metrics_out:
            telemetry.write_report(args.metrics_out)
            print(f"run report written to {args.metrics_out}")
    if args.manifest_out:
        from repro.runner import stats_to_dict

        _emit_manifest(
            args.manifest_out, "simulate",
            f"{source} thetas={args.thetas}",
            config=config, traces=traces, stats=stats_to_dict(stats),
            engine="event" if telemetry is not None else "fast",
            seed=args.seed,
            artifact_paths=[
                p for p in (args.trace_out, args.metrics_out) if p
            ],
        )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``cohort metrics``: summarise saved telemetry artefacts."""
    from repro.obs import load_jsonl, summarise

    status = 0
    for path in args.files:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except ValueError:
            # Not one JSON document: try JSON Lines (GA generation log).
            try:
                doc = load_jsonl(path)
            except ValueError:
                print(f"{path}: neither JSON nor JSONL", file=sys.stderr)
                status = 1
                continue
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        if len(args.files) > 1:
            print(f"== {path}")
        print(summarise(doc))
    return status


def _parse_gate_params(pairs) -> dict:
    """``--param key=value`` overrides; values are parsed as JSON."""
    out = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except ValueError:
            out[key] = raw
    return out


def _run_gate(args, candidate_path: str, baseline_path) -> int:
    """Shared body of ``gate run`` and ``gate diff``."""
    from repro.qa import evaluate_spec, load_manifest, load_spec

    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError) as exc:
        print(f"cannot load gate spec: {exc}", file=sys.stderr)
        return 2
    try:
        candidate = load_manifest(candidate_path)
        baseline = (
            load_manifest(baseline_path) if baseline_path else None
        )
    except (OSError, ValueError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return 2
    try:
        report = evaluate_spec(
            spec, candidate, baseline,
            _parse_gate_params(args.param) or None,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.render())
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"verdict report written to {args.report_out}")
    return report.exit_code


def cmd_gate_run(args: argparse.Namespace) -> int:
    """``cohort gate run``: evaluate a spec over one manifest."""
    return _run_gate(args, args.manifest, args.baseline)


def cmd_gate_diff(args: argparse.Namespace) -> int:
    """``cohort gate diff``: compare candidate against baseline."""
    return _run_gate(args, args.candidate, args.baseline)


def cmd_gate_promote(args: argparse.Namespace) -> int:
    """``cohort gate promote``: diff, then install candidate on pass."""
    import shutil

    status = _run_gate(args, args.candidate, args.baseline)
    if status != 0:
        print("promotion refused: candidate failed the gate",
              file=sys.stderr)
        return status
    shutil.copyfile(args.candidate, args.baseline)
    print(f"promoted {args.candidate} -> {args.baseline}")
    return 0


def cmd_gate_list(args: argparse.Namespace) -> int:
    """``cohort gate list``: the gate specs shipped with the package."""
    from repro.qa import available_specs, load_spec

    for name in available_specs():
        spec = load_spec(name)
        pair = " [baseline+candidate pair]" if spec.requires_baseline else ""
        print(f"{name}/{spec.version}: {len(spec.questions)} questions"
              f"{pair}")
        for q in spec.questions:
            print(f"  {q.id} [{q.severity}] — {q.question}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``cohort serve``: the batched, backpressured simulation service."""
    import asyncio

    from repro.obs import OpLogger
    from repro.runner import SweepRunner
    from repro.serve import BatchingService, run_server

    runner_kwargs = dict(
        jobs=args.jobs, timeout=args.job_timeout,
        cache_budget_bytes=args.cache_budget,
    )
    if args.cache_dir is not None:
        runner_kwargs["cache_dir"] = args.cache_dir
    runner = SweepRunner(**runner_kwargs)
    service = BatchingService(
        runner,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        oplog=OpLogger(path=args.oplog) if args.oplog else None,
    )
    asyncio.run(
        run_server(
            service, args.host, args.port, metrics_out=args.metrics_out,
            trace_out=args.trace_out, manifest_out=args.manifest_out,
        )
    )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """``cohort fleet``: a supervised, self-healing shard fleet.

    Spawns N ``cohort serve`` shard subprocesses sharing one hardened
    result cache, routes jobs by consistent hash of their content key,
    journals every accepted submission to the router's write-ahead
    intake journal before acknowledging it, and restarts crashed/hung
    shards with capped exponential backoff while live shards absorb
    the failover.
    """
    import asyncio

    from repro.obs import OpLogger
    from repro.serve import ShardSupervisor, run_server

    supervisor = ShardSupervisor(
        shards=args.shards,
        host=args.host,
        fleet_dir=args.fleet_dir,
        cache_dir=args.cache_dir,
        shard_jobs=args.jobs,
        max_batch=args.max_batch,
        shard_queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        cache_budget_bytes=args.cache_budget,
        admission_limit=args.admission_limit,
        heartbeat_deadline=args.heartbeat_deadline,
        oplog=OpLogger(path=args.oplog, component="fleet")
        if args.oplog else None,
    )
    asyncio.run(
        run_server(
            supervisor, args.host, args.port, metrics_out=args.metrics_out,
        )
    )
    return 0


def cmd_obs_tail(args: argparse.Namespace) -> int:
    """``cohort obs tail``: print the last N oplog events, one per line."""
    from repro.obs.ops import format_event, read_oplog

    try:
        events = read_oplog(args.oplog)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for event in events[-args.lines:]:
        print(format_event(event))
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """``cohort obs report``: event counts and lifecycle summary."""
    from repro.obs.ops import compute_slo, read_oplog, render_slo

    try:
        events = read_oplog(args.oplog)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    counts = {}
    for event in events:
        key = (event.get("component", "?"), event.get("event", "?"))
        counts[key] = counts.get(key, 0) + 1
    rows = [
        [component, name, count]
        for (component, name), count in sorted(counts.items())
    ]
    print(format_table(
        ["component", "event", "count"], rows,
        title=f"{args.oplog}: {len(events)} events",
    ))
    print()
    print(render_slo(compute_slo(events)))
    return 0


def cmd_obs_slo(args: argparse.Namespace) -> int:
    """``cohort obs slo``: compute SLO inputs; optionally gate them.

    Writes a ``kind="slo"`` run manifest with ``--manifest-out`` (the
    shape ``cohort gate run --spec slo`` consumes) and, with
    ``--gate``, evaluates the shipped ``slo`` spec immediately — the
    exit code is then the gate verdict.
    """
    from repro.obs.ops import compute_slo, read_oplog, render_slo

    try:
        events = read_oplog(args.oplog)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    metrics = compute_slo(events)
    print(render_slo(metrics))
    manifest = None
    if args.manifest_out or args.gate:
        from repro.qa import build_manifest

        manifest = build_manifest(
            "slo", args.label or args.oplog, metrics=metrics,
            artifact_paths=[args.oplog],
        )
    if args.manifest_out:
        from repro.qa import write_manifest

        fingerprint = write_manifest(manifest, args.manifest_out)
        print(f"slo manifest written to {args.manifest_out} "
              f"(fingerprint {fingerprint[:12]})")
    if args.gate:
        from repro.qa import evaluate_spec, load_spec

        report = evaluate_spec(
            load_spec("slo"), manifest,
            params=_parse_gate_params(args.param) or None,
        )
        print()
        print(report.render())
        return report.exit_code
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """``cohort submit``: send jobs to a running ``cohort serve``."""
    from repro.serve import BackpressureError, ServeClient

    theta_sets = args.theta_set or [args.thetas]
    specs = [
        {
            "benchmark": args.benchmark,
            "thetas": thetas,
            "scale": args.scale,
            "seed": args.seed,
        }
        for thetas in theta_sets
    ]
    client = ServeClient(args.url, timeout=args.timeout)
    try:
        accepted = client.submit(specs, max_retries=args.max_retries)
    except BackpressureError as exc:
        print(
            f"rejected: queue full (server suggests retrying in "
            f"{exc.retry_after}s)",
            file=sys.stderr,
        )
        return 1
    for doc in accepted:
        print(f"accepted {doc['id']} ({doc['spec']['thetas']})")
    if args.no_wait:
        return 0
    records = client.wait(
        [doc["id"] for doc in accepted], timeout=args.timeout
    )
    status = 0
    for doc in accepted:
        record = records[doc["id"]]
        if record["status"] == "done":
            result = record["result"]
            print(
                f"{doc['id']}: done final_cycle={result['final_cycle']:,} "
                f"execution_time={result['execution_time']:,}"
            )
        else:
            print(f"{doc['id']}: FAILED — {record['error']}", file=sys.stderr)
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``cohort`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="cohort",
        description="CoHoRT (DATE 2025) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="related-work challenge matrix")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", help="per-mode optimized timer values")
    p.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    _add_common(p, ga=True)
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("fig5", help="WCML: CoHoRT vs PCC vs PENDULUM")
    p.add_argument("--config", default="all_cr", choices=sorted(FIG5_CONFIGS))
    p.add_argument("-b", "--benchmarks", nargs="+", default=["fft", "lu"],
                   choices=benchmark_names())
    p.add_argument("--non-perfect-llc", action="store_true",
                   help="use the non-perfect LLC + DRAM model (footnote 1)")
    _add_metrics_out(p, "sweep cache/timing counters")
    _add_manifest_out(p)
    _add_common(p, ga=True, jobs=True)
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("fig6", help="normalised execution time")
    p.add_argument("--config", default="all_cr", choices=sorted(FIG5_CONFIGS))
    p.add_argument("-b", "--benchmarks", nargs="+",
                   default=["fft", "lu", "radix"], choices=benchmark_names())
    p.add_argument("--non-perfect-llc", action="store_true")
    p.add_argument("--pmsi", action="store_true",
                   help="add the PMSI-style predictable baseline "
                        "(protocol registry plugin) as a fifth column")
    _add_metrics_out(p, "sweep cache/timing counters")
    _add_manifest_out(p)
    _add_common(p, ga=True, jobs=True)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("fig7", help="mode-switch adaptation")
    p.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    _add_manifest_out(p)
    _add_common(p, ga=True)
    p.set_defaults(fn=cmd_fig7)

    p = sub.add_parser("all", help="run the complete reproduction")
    p.add_argument("-b", "--benchmarks", nargs="+",
                   default=["fft", "lu", "radix", "barnes"],
                   choices=benchmark_names())
    p.add_argument("-o", "--out", help="also write the report to this file")
    _add_common(p, ga=True)
    p.set_defaults(fn=cmd_all)

    p = sub.add_parser("optimize", help="run the timer optimization engine")
    p.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    p.add_argument("--checkpoint", metavar="FILE",
                   help="save GA state to FILE each generation and resume "
                        "from it if present (schema-checked)")
    p.add_argument("--sim-fitness", action="store_true",
                   help="score timer vectors by *simulated* average memory "
                        "latency instead of the analytic WCML bound; each "
                        "GA generation is one sweep-runner batch on the "
                        "engine the runner picks (the fast path for "
                        "miss-heavy traces such as fft), spread over "
                        "--jobs workers (constraint C1 stays analytic)")
    _add_metrics_out(p, "the per-generation GA log (JSON Lines)")
    _add_manifest_out(p)
    _add_common(p, ga=True, jobs=True)
    p.set_defaults(fn=cmd_optimize)

    from repro.fi.plan import ALL_KINDS

    p = sub.add_parser(
        "faults",
        help="seeded fault-injection campaigns (detection matrix)",
    )
    p.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    p.add_argument("-t", "--thetas", nargs="+", type=int,
                   default=[100, 20, 20, 20],
                   help="per-core timers (-1 = MSI)")
    p.add_argument("--campaigns", type=_positive_int, default=14,
                   help="number of seeded campaigns to run")
    p.add_argument("--kinds", nargs="+", metavar="KIND",
                   choices=[k.value for k in ALL_KINDS],
                   help="restrict to these fault kinds (default: all)")
    p.add_argument("--faults-per-campaign", type=_positive_int, default=2,
                   help="faults injected per campaign plan")
    p.add_argument("--response", default="degrade_to_msi",
                   choices=("degrade_to_msi", "none"),
                   help="self-healing response to detected timer faults")
    p.add_argument("--json-out", metavar="FILE",
                   help="write the full detection-matrix report to FILE")
    _add_manifest_out(p)
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign master seed (trace seed rides along)")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("simulate", help="one simulation run")
    p.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    p.add_argument("-t", "--thetas", nargs="+", type=int,
                   default=[100, 20, 20, 20],
                   help="per-core timers (-1 = MSI)")
    p.add_argument("--trace-files", nargs="+",
                   help="run these trace files (.npz/.csv) instead of a "
                        "generated benchmark; one per core")
    p.add_argument("--config",
                   help="load the full system configuration from a JSON "
                        "file (see repro.params.save_config); overrides "
                        "--thetas")
    p.add_argument("--protocol", type=_protocol_name, default=None,
                   help="coherence protocol to simulate (any registered "
                        "name, e.g. timed_msi, msi, pmsi); overrides the "
                        "configuration's protocol field")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a Chrome trace-event / Perfetto JSON "
                        "trace of the run to FILE")
    _add_metrics_out(p, "the structured JSON run report")
    _add_manifest_out(p)
    p.add_argument("--sample-every", type=int, default=500, metavar="CYCLES",
                   help="time-series sampling cadence for the telemetry "
                        "counters (0 disables sampling; only active with "
                        "--trace-out/--metrics-out)")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("metrics",
                       help="summarise saved telemetry artefacts "
                            "(run reports, traces, sweep metrics, GA logs)")
    p.add_argument("files", nargs="+",
                   help="files written by --trace-out/--metrics-out")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="batched, backpressured simulation service over HTTP",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = ephemeral; the bound port is printed)")
    p.add_argument("-j", "--jobs", type=_positive_int, default=1,
                   help="worker processes of the sweep runner's pool "
                        "(1 = every job runs in this process)")
    p.add_argument("--max-batch", type=_positive_int, default=8,
                   help="largest batch dispatched to the runner; a batch "
                        "is whatever is queued when the runner is free")
    p.add_argument("--queue-limit", type=_positive_int, default=64,
                   help="admission queue bound; beyond it submissions "
                        "get 429 + Retry-After")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory shared by all clients "
                        "(default: the runner's standard cache)")
    p.add_argument("--cache-budget", type=_nonneg_int, default=0,
                   metavar="BYTES",
                   help="on-disk result-cache size budget in bytes; "
                        "oldest entries are evicted (LRU by mtime, under "
                        "a cross-process lock) to stay within it "
                        "(default: 0 = unbounded)")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-simulation wall-clock timeout in seconds, "
                        "lock-step or fast path; enforced only in the "
                        "worker pool (--jobs above 1), never on a batch "
                        "run in-process")
    p.add_argument("--metrics-out", default=None,
                   help="write a final /metrics snapshot here on drain "
                        "(atomic tmp-file + rename)")
    p.add_argument("--oplog", default=None, metavar="FILE",
                   help="append structured JSON-lines operational events "
                        "(schema repro.obs/oplog/1) to FILE; inspect with "
                        "`cohort obs tail|report|slo`")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome-trace/Perfetto JSON of per-request "
                        "service-lifecycle spans here on drain")
    p.add_argument("--manifest-out", default=None, metavar="FILE",
                   help="write a run manifest wrapping the final metrics "
                        "snapshot here on drain")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="supervised self-healing shard fleet (N serve subprocesses)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8780,
                   help="router TCP port (0 = ephemeral; shards always "
                        "bind ephemeral ports)")
    p.add_argument("--shards", type=_positive_int, default=2,
                   help="serve shard subprocesses to supervise")
    p.add_argument("--fleet-dir", default=".cohort_fleet",
                   help="state directory: the intake journal, shard "
                        "logs and oplogs (default: .cohort_fleet)")
    p.add_argument("-j", "--jobs", type=_positive_int, default=1,
                   help="worker processes per shard's sweep runner; see "
                        "`cohort serve --jobs`")
    p.add_argument("--max-batch", type=_positive_int, default=8,
                   help="largest runner batch per shard; see "
                        "`cohort serve --max-batch`")
    p.add_argument("--queue-limit", type=_positive_int, default=64,
                   help="per-shard admission queue bound; the router "
                        "leaves at most this many uncollected jobs on "
                        "a shard")
    p.add_argument("--admission-limit", type=_positive_int, default=256,
                   help="fleet-wide pending-job bound; beyond it "
                        "submissions get 429 + Retry-After")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory shared by every shard "
                        "(default: <fleet-dir>/cache)")
    p.add_argument("--cache-budget", type=_nonneg_int, default=0,
                   metavar="BYTES",
                   help="per-shard view of the shared cache's size "
                        "budget; see `cohort serve --cache-budget`")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-simulation timeout passed to every shard; "
                        "see `cohort serve --job-timeout` (it never fires "
                        "with the default --jobs 1)")
    p.add_argument("--heartbeat-deadline", type=float, default=3.0,
                   help="seconds without a healthy /healthz answer "
                        "before a shard is declared down and restarted; "
                        "the only supervision timing: shards are probed "
                        "every deadline/12 with a deadline/3 timeout, "
                        "and a restart waits 0.25 s, doubling per "
                        "consecutive crash up to 5 s (reset after 10 s "
                        "healthy)")
    p.add_argument("--metrics-out", default=None,
                   help="write a final fleet /metrics snapshot here on "
                        "drain (atomic tmp-file + rename)")
    p.add_argument("--oplog", default=None, metavar="FILE",
                   help="append fleet lifecycle events (admit, dispatch, "
                        "shard_down, failover, journal_replay, retire) "
                        "to FILE")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "obs",
        help="operational-log tooling (tail, report, SLO gating)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    t = obs_sub.add_parser("tail", help="print the last N oplog events")
    t.add_argument("oplog", help="JSON-lines oplog written by "
                                 "`cohort serve --oplog`")
    t.add_argument("-n", "--lines", type=_positive_int, default=20,
                   help="events to print (default: 20)")
    t.set_defaults(fn=cmd_obs_tail)

    rp = obs_sub.add_parser(
        "report", help="event counts + request-lifecycle summary"
    )
    rp.add_argument("oplog")
    rp.set_defaults(fn=cmd_obs_report)

    s = obs_sub.add_parser(
        "slo",
        help="compute SLO inputs from an oplog; emit a gateable manifest",
    )
    s.add_argument("oplog")
    s.add_argument("--label", default=None,
                   help="manifest label (default: the oplog path)")
    s.add_argument("--manifest-out", metavar="FILE",
                   help="write a kind=slo run manifest for "
                        "`cohort gate run --spec slo`")
    s.add_argument("--gate", action="store_true",
                   help="evaluate the shipped slo gate spec immediately; "
                        "exit code becomes the verdict")
    s.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="override an slo spec param (with --gate); "
                        "repeatable")
    s.set_defaults(fn=cmd_obs_slo)

    p = sub.add_parser("submit", help="submit jobs to a running serve")
    p.add_argument("--url", default="http://127.0.0.1:8765")
    p.add_argument("-b", "--benchmark", default="fft")
    p.add_argument("-t", "--thetas", type=int, nargs="+",
                   default=[100, 20, 20, 20])
    p.add_argument("--theta-set", type=int, nargs="+", action="append",
                   help="repeatable: one job per timer vector")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=3,
                   help="retries after a 429 before giving up")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="client-side wait timeout in seconds")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and exit without polling for results")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "gate",
        help="declarative quality gates over run manifests",
    )
    gate_sub = p.add_subparsers(dest="gate_command", required=True)

    r = gate_sub.add_parser(
        "run",
        help="evaluate a gate spec over one manifest "
             "(optionally against a baseline)",
    )
    r.add_argument("--spec", required=True,
                   help="shipped spec name (`cohort gate list`) or a "
                        "spec JSON file path")
    r.add_argument("--manifest", required=True,
                   help="candidate run manifest (written by --manifest-out)")
    r.add_argument("--baseline",
                   help="baseline run manifest for pair assertions")
    r.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="override a spec param (value parsed as JSON); "
                        "repeatable")
    r.add_argument("--report-out", metavar="FILE",
                   help="write the verdict report JSON to FILE")
    r.set_defaults(fn=cmd_gate_run)

    d = gate_sub.add_parser(
        "diff",
        help="compare a candidate manifest against a baseline "
             "(default spec: promotion)",
    )
    d.add_argument("baseline", help="baseline run manifest")
    d.add_argument("candidate", help="candidate run manifest")
    d.add_argument("--spec", default="promotion")
    d.add_argument("--param", action="append", metavar="KEY=VALUE")
    d.add_argument("--report-out", metavar="FILE")
    d.set_defaults(fn=cmd_gate_diff)

    pr = gate_sub.add_parser(
        "promote",
        help="diff, then copy the candidate manifest over the baseline "
             "path when the gate passes",
    )
    pr.add_argument("baseline", help="baseline manifest (overwritten on pass)")
    pr.add_argument("candidate", help="candidate run manifest")
    pr.add_argument("--spec", default="promotion")
    pr.add_argument("--param", action="append", metavar="KEY=VALUE")
    pr.add_argument("--report-out", metavar="FILE")
    pr.set_defaults(fn=cmd_gate_promote)

    ls = gate_sub.add_parser("list", help="list shipped gate specs")
    ls.set_defaults(fn=cmd_gate_list)

    p = sub.add_parser("characterize", help="workload characterisation")
    _add_common(p)
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("headroom", help="per-mode requirement headroom")
    p.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    _add_common(p, ga=True)
    p.set_defaults(fn=cmd_headroom)

    p = sub.add_parser("sweep", help="timer trade-off curve for core 0")
    p.add_argument("-b", "--benchmark", default="barnes",
                   choices=benchmark_names())
    p.add_argument("--sweep", nargs="+", type=int,
                   default=[1, 5, 15, 40, 100, 250, 600])
    p.add_argument("--corunner-theta", type=int, default=60)
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trace", help="trace-file tooling")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    g = trace_sub.add_parser("generate", help="write benchmark traces to disk")
    g.add_argument("-b", "--benchmark", default="fft",
                   choices=benchmark_names())
    g.add_argument("-o", "--out", required=True, help="output directory")
    g.add_argument("--cores", type=int, default=4)
    g.add_argument("--format", choices=("npz", "csv"), default="npz")
    _add_common(g)
    g.set_defaults(fn=cmd_trace_generate)

    i = trace_sub.add_parser("inspect", help="summarise trace files")
    i.add_argument("files", nargs="+")
    i.set_defaults(fn=cmd_trace_inspect)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
