"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``python -m repro list``                 -- list experiments
* ``python -m repro run fig05 [--quick]``  -- regenerate one figure
* ``python -m repro run all  [--quick]``   -- regenerate everything
* ``python -m repro run fig15 --obs [--obs-out DIR]``
                                           -- regenerate with observability
                                              (epoch time-series, trace
                                              events, manifests under DIR)
* ``python -m repro run fig05 --jobs 8 --cache-dir results/cache``
                                           -- fan simulation cells over 8
                                              worker processes and keep a
                                              persistent result/trace cache
* ``python -m repro run fig05 --jobs 8 --cache-dir results/cache \\
      --retries 3 --cell-timeout 120``
                                           -- resilient run: retry failed
                                              cells and bound each cell's
                                              wall clock; re-running the
                                              command resumes an
                                              interrupted grid from the
                                              cache
* ``python -m repro report DIR``           -- render a flushed obs directory
* ``python -m repro report html DIR``      -- self-contained HTML report
                                              (figures, KPIs, energy,
                                              resilience + cache economics)
                                              with a report-manifest JSON
* ``python -m repro dashboard``            -- cross-run KPI/perf dashboard
                                              over BENCH_*.json trajectories
                                              with regression highlighting
* ``python -m repro profile fig05``        -- run with wall-time attribution
* ``python -m repro cache stats|clear``    -- inspect / empty the on-disk
                                              result cache
* ``python -m repro serve``                -- start the in-process prefetch
                                              service, run a self-check
                                              stream through it and print
                                              the health/readiness surfaces
* ``python -m repro loadtest --shape spike``
                                           -- drive the service with a
                                              deterministic shaped load on
                                              the virtual-time loop; prints
                                              p50/p95/throughput/shed KPIs,
                                              SLO burn-rate verdicts and
                                              stamps a run manifest
                                              (``--obs-out DIR`` also writes
                                              spans.jsonl + metrics.prom)
* ``python -m repro metrics``              -- Prometheus text exposition of
                                              a deterministic quick loadtest
                                              (``--check`` lints the output
                                              with the exposition parser)
* ``python -m repro bench fig05 --quick --repeats 2``
                                           -- timed run: KPIs + wall time +
                                              throughput + fingerprint,
                                              appended to BENCH_fig05.json
* ``python -m repro compare BENCH_fig05.json``
                                           -- diff the last two trajectory
                                              records (or two files); exits
                                              non-zero when a KPI or work
                                              count moved
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

#: ``cache`` subcommand fallback when neither --cache-dir nor
#: ``REPRO_CACHE_DIR`` names a directory.
DEFAULT_CACHE_DIR = "results/cache"


def _module_summary(module) -> str:
    """First docstring line, tolerating empty/missing docstrings."""
    lines = (module.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def _resolve_experiments(name: str):
    """Experiment modules for ``name`` ('all' fans out), or None + message."""
    from repro.experiments.registry import EXPERIMENTS

    if name == "all":
        return list(EXPERIMENTS.items())
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(
            f"error: unknown experiment {name!r}; choose from: {known}",
            file=sys.stderr,
        )
        return None
    return [(name, EXPERIMENTS[name])]


def _run_experiments(names_and_modules, quick: bool) -> None:
    for name, module in names_and_modules:
        start = time.time()
        table = module.run(quick=quick)
        print(table)
        print(f"[{name} took {time.time() - start:.1f}s]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures from 'Temporal Prefetching Without "
        "the Off-Chip Metadata' (MICRO 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment name, e.g. fig05")
    run_parser.add_argument(
        "--quick", action="store_true",
        help="reduced benchmark subsets and trace lengths",
    )
    run_parser.add_argument(
        "--obs", action="store_true",
        help="enable observability (epoch time-series, trace events, "
        "manifests); writes to --obs-out",
    )
    run_parser.add_argument(
        "--obs-out", metavar="DIR", default=None,
        help="output directory for observability artifacts "
        "(default: results/obs/<experiment>; implies --obs)",
    )
    run_parser.add_argument(
        "--jobs", type=int, metavar="N", default=None,
        help="fan simulation cells over N worker processes "
        "(default: serial; also settable via REPRO_JOBS)",
    )
    run_parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent result/trace cache directory "
        "(default: off; also settable via REPRO_CACHE_DIR)",
    )
    run_parser.add_argument(
        "--retries", type=int, metavar="N", default=None,
        help="re-run a failed/timed-out simulation cell up to N times "
        "with backoff (default: 2; also settable via REPRO_RETRIES)",
    )
    run_parser.add_argument(
        "--cell-timeout", type=float, metavar="SECONDS", default=None,
        help="per-cell wall-clock budget for parallel runs; a cell over "
        "budget is abandoned and retried (default: none; also settable "
        "via REPRO_CELL_TIMEOUT)",
    )
    run_parser.add_argument(
        "--report", action="store_true",
        help="write a self-contained HTML report next to the observability "
        "artifacts after the run (implies --obs; also REPRO_REPORT=1)",
    )

    report_parser = sub.add_parser(
        "report",
        help="render a flushed observability directory (tables, or "
        "'report html DIR' for a self-contained HTML report)",
    )
    report_parser.add_argument(
        "path",
        help="run directory written by --obs-out (or an epochs.jsonl); "
        "pass 'html' first for the HTML report: report html DIR",
    )
    report_parser.add_argument(
        "html_root", nargs="?", default=None, metavar="DIR",
        help="results root for HTML mode (only with 'report html')",
    )
    report_parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="HTML mode: output directory (default: <DIR>/report)",
    )
    report_parser.add_argument(
        "--open", action="store_true", dest="open_browser",
        help="HTML mode: open the generated report in a browser",
    )
    report_parser.add_argument(
        "--columns", nargs="*", default=None,
        help="epoch columns to show (default: way split, hit rates, "
        "utilization, coverage)",
    )
    report_parser.add_argument(
        "--events-tail", type=int, metavar="N", default=8,
        help="echo the newest N trace events verbatim (0 disables; default 8)",
    )
    report_parser.add_argument(
        "--json", action="store_true",
        help="dump the loaded run directory as JSON instead of tables",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="start the prefetch service, self-check it and print the "
        "health/readiness surfaces",
    )
    serve_parser.add_argument(
        "--workers", type=int, metavar="N", default=4,
        help="backend workers / circuit breakers (default: 4)",
    )
    serve_parser.add_argument(
        "--watermark", type=int, metavar="N", default=64,
        help="request-queue admission watermark (default: 64)",
    )
    serve_parser.add_argument(
        "--requests", type=int, metavar="N", default=64,
        help="self-check requests to stream through (default: 64)",
    )
    serve_parser.add_argument(
        "--json", action="store_true",
        help="print the surfaces as JSON only",
    )

    loadtest_parser = sub.add_parser(
        "loadtest",
        help="deterministic shaped loadtest of the prefetch service "
        "(virtual time); prints serving KPIs and stamps a run manifest",
    )
    loadtest_parser.add_argument(
        "--shape", default="ramp", metavar="NAME",
        help="load shape: ramp, spike or diurnal (default: ramp)",
    )
    loadtest_parser.add_argument(
        "--duration", type=float, metavar="S", default=60.0,
        help="virtual seconds of load (default: 60)",
    )
    loadtest_parser.add_argument(
        "--rps", type=float, metavar="N", default=150.0,
        help="aggregate arrival rate at shape multiplier 1.0 (default: 150)",
    )
    loadtest_parser.add_argument(
        "--tenants", type=int, metavar="N", default=16,
        help="concurrent tenant streams (default: 16)",
    )
    loadtest_parser.add_argument(
        "--deadline", type=float, metavar="S", default=0.5,
        help="per-request deadline in virtual seconds (default: 0.5)",
    )
    loadtest_parser.add_argument(
        "--seed", type=int, default=1234,
        help="scenario seed: traces + tenant assignment (default: 1234)",
    )
    loadtest_parser.add_argument(
        "--workers", type=int, metavar="N", default=4,
        help="backend workers / circuit breakers (default: 4)",
    )
    loadtest_parser.add_argument(
        "--watermark", type=int, metavar="N", default=32,
        help="request-queue admission watermark (default: 32)",
    )
    loadtest_parser.add_argument(
        "--quick", action="store_true",
        help="short scenario: 20 virtual seconds, 8 tenants, short traces",
    )
    loadtest_parser.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON instead of a summary",
    )
    loadtest_parser.add_argument(
        "--obs-out", metavar="DIR", default=None,
        help="flush observability artifacts (spans.jsonl, metrics.prom, "
        "manifests with SLO verdicts) to DIR after the run",
    )
    loadtest_parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="seeded fault plan for the run, e.g. "
        "'serve_worker_crash:0.2,serve_slow_reply:0.1' "
        "(also settable via REPRO_FAULTS)",
    )
    loadtest_parser.add_argument(
        "--faults-seed", type=int, metavar="N", default=42,
        help="fault plan seed (default: 42)",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="Prometheus text exposition of the serving metrics surface "
        "(runs a deterministic quick loadtest and prints its scrape)",
    )
    metrics_parser.add_argument(
        "--shape", default="ramp", metavar="NAME",
        help="load shape driving the scrape (default: ramp)",
    )
    metrics_parser.add_argument(
        "--duration", type=float, metavar="S", default=5.0,
        help="virtual seconds of load before scraping (default: 5)",
    )
    metrics_parser.add_argument(
        "--seed", type=int, default=1234,
        help="scenario seed (default: 1234)",
    )
    metrics_parser.add_argument(
        "--check", action="store_true",
        help="validate the output with the exposition parser instead of "
        "trusting it (exit 2 on malformed output)",
    )

    bench_parser = sub.add_parser(
        "bench", help="timed experiment run appended to its BENCH trajectory"
    )
    bench_parser.add_argument("experiment", help="experiment name, e.g. fig05")
    bench_parser.add_argument(
        "--repeats", type=int, metavar="N", default=3,
        help="timed repeats after warmup (default: 3)",
    )
    bench_parser.add_argument(
        "--warmup", type=int, metavar="N", default=1,
        help="untimed warmup runs before measuring (default: 1)",
    )
    bench_parser.add_argument("--quick", action="store_true")
    bench_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="trajectory file to append to (default: BENCH_<experiment>.json "
        "in the current directory)",
    )
    bench_parser.add_argument(
        "--no-append", action="store_true",
        help="measure and print without touching the trajectory file",
    )
    bench_parser.add_argument(
        "--json", action="store_true",
        help="print the new record as JSON instead of a summary",
    )
    bench_parser.add_argument(
        "--trace-overhead", action="store_true",
        help="also measure span-recording overhead (tracing on vs off "
        "under the same obs session) and stamp it into the record",
    )
    bench_parser.add_argument(
        "--overhead-tol", type=float, metavar="PCT", default=2.0,
        help="fail (exit 1) when --trace-overhead exceeds this percent "
        "(default: 2.0)",
    )

    compare_parser = sub.add_parser(
        "compare", help="diff two bench records; non-zero exit on regression"
    )
    compare_parser.add_argument(
        "baseline",
        help="BENCH_*.json trajectory; with no candidate file, its last two "
        "records are compared (committed baseline vs fresh bench)",
    )
    compare_parser.add_argument(
        "candidate", nargs="?", default=None,
        help="candidate trajectory (its last record is compared against "
        "the baseline's last record)",
    )
    compare_parser.add_argument(
        "--json", action="store_true",
        help="print the comparison as JSON instead of a table",
    )

    dashboard_parser = sub.add_parser(
        "dashboard",
        help="render BENCH_*.json trajectories as one HTML dashboard with "
        "regression highlighting",
    )
    dashboard_parser.add_argument(
        "root", nargs="?", default=".",
        help="directory searched recursively for BENCH_*.json (or one "
        "trajectory file; default: current directory)",
    )
    dashboard_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="HTML file to write (default: dashboard.html under the root)",
    )
    dashboard_parser.add_argument(
        "--json", action="store_true",
        help="print the dashboard analysis as JSON as well",
    )

    profile_parser = sub.add_parser(
        "profile", help="run one experiment with wall-time phase attribution"
    )
    profile_parser.add_argument("experiment", help="experiment name, e.g. fig05")
    profile_parser.add_argument("--quick", action="store_true")

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    for cache_command, cache_help in (
        ("stats", "entry counts and sizes of a cache directory"),
        ("clear", "remove every entry (all key-schema versions)"),
    ):
        cache_cmd_parser = cache_sub.add_parser(cache_command, help=cache_help)
        cache_cmd_parser.add_argument(
            "--cache-dir", metavar="PATH", default=None,
            help=f"cache directory (default: $REPRO_CACHE_DIR or "
            f"{DEFAULT_CACHE_DIR})",
        )

    args = parser.parse_args(argv)

    if args.command == "cache":
        return _cache_command(args)

    if args.command == "list":
        from repro.experiments.registry import EXPERIMENTS

        for name, module in EXPERIMENTS.items():
            print(f"{name:<14} {_module_summary(module)}")
        return 0

    if args.command == "report":
        if args.path == "html":
            return _report_html_command(args)
        if args.html_root is not None:
            print(
                "error: a second path is only valid in HTML mode: "
                "python -m repro report html DIR",
                file=sys.stderr,
            )
            return 2
        import dataclasses
        import json

        from repro.obs.report import load, render_report

        try:
            if args.json:
                run = dataclasses.asdict(load(args.path))
                print(json.dumps(run, default=str, sort_keys=True))
            else:
                print(
                    render_report(
                        Path(args.path),
                        columns=args.columns,
                        events_tail=args.events_tail,
                    )
                )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "dashboard":
        return _dashboard_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "loadtest":
        return _loadtest_command(args)

    if args.command == "metrics":
        return _metrics_command(args)

    if args.command == "bench":
        return _bench_command(args)

    if args.command == "compare":
        return _compare_command(args)

    # "run" and "profile" both execute experiments.
    selected = _resolve_experiments(args.experiment)
    if selected is None:
        return 2

    if getattr(args, "jobs", None):
        # The harnesses (and their worker processes) read REPRO_JOBS.
        os.environ["REPRO_JOBS"] = str(max(1, args.jobs))
    if getattr(args, "cache_dir", None):
        from repro import cache

        cache.configure(args.cache_dir)
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    # Resilience knobs travel via the environment so the figure
    # harnesses (and their worker processes) pick them up uniformly.
    if getattr(args, "retries", None) is not None:
        os.environ["REPRO_RETRIES"] = str(max(0, args.retries))
    if getattr(args, "cell_timeout", None) is not None:
        os.environ["REPRO_CELL_TIMEOUT"] = str(args.cell_timeout)

    from repro import obs

    if args.command == "profile":
        from repro.obs.report import phases_table

        session = obs.enable(profile=True)
        tracer = session.tracer
        try:
            # One root span per experiment: trace_gen and every sim.run
            # attach under it, so their phase spans are recorded.
            for name, module in selected:
                with tracer.start_trace("profile", name, experiment=name):
                    _run_experiments([(name, module)], args.quick)
        finally:
            obs.disable()
        print(phases_table(tracer.records(), evicted=tracer.finished - len(tracer)))
        return 0

    want_report = args.report or os.environ.get("REPRO_REPORT", "") not in ("", "0")
    session = None
    if args.obs or args.obs_out or want_report:
        out_dir = Path(args.obs_out) if args.obs_out else (
            Path("results") / "obs" / args.experiment
        )
        session = obs.enable(out_dir=out_dir)
    try:
        _run_experiments(selected, args.quick)
    except KeyboardInterrupt:
        # Graceful shutdown: completed cells are already in the result
        # cache, when one is configured (and the sweep layer flushed
        # obs); tell the user how to pick the grid back up, then exit
        # with the conventional code.
        print(
            "interrupted: re-run the same command to continue "
            "(with a --cache-dir, finished cells are served from it)",
            file=sys.stderr,
        )
        return 130
    finally:
        if session is not None:
            paths = session.flush()
            obs.disable()
            print(
                "observability artifacts: "
                + ", ".join(str(p) for p in sorted(paths.values()))
            )
            print(f"render with: python -m repro report {session.out_dir}")
            if want_report:
                from repro.obs.reporting import ReportError, generate_report

                try:
                    written = generate_report(session.out_dir)
                    print(f"HTML report: {written['html']}")
                except (ReportError, FileNotFoundError) as exc:
                    print(f"warning: report generation failed: {exc}",
                          file=sys.stderr)
    return 0


def _report_html_command(args) -> int:
    """``python -m repro report html DIR``: one self-contained HTML file."""
    from repro.obs.reporting import ReportError, generate_report

    if args.html_root is None:
        print(
            "error: HTML mode needs a results root: "
            "python -m repro report html DIR",
            file=sys.stderr,
        )
        return 2
    try:
        paths = generate_report(args.html_root, out_dir=args.out)
    except (ReportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"HTML report:     {paths['html']}")
    print(f"report manifest: {paths['manifest']}")
    if args.open_browser:
        import webbrowser

        try:  # decoration only: a headless host without a browser is fine
            webbrowser.open(paths["html"].resolve().as_uri())
        except Exception as exc:
            print(f"warning: could not open a browser: {exc}", file=sys.stderr)
    return 0


def _dashboard_command(args) -> int:
    """``python -m repro dashboard``: 0 ok, 1 regression, 2 nothing found."""
    import json

    from repro.obs.reporting import generate_dashboard

    try:
        data = generate_dashboard(args.root, out=args.out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(data, indent=1, sort_keys=True))
    for entry in data["experiments"]:
        status = "ok" if entry["ok"] else (
            "REGRESSED: " + ", ".join(entry["regressed_kpis"])
            if entry["regressed_kpis"]
            else "REGRESSED"
        )
        print(f"{entry['experiment']:<14} {entry['records']:>3} record(s)  {status}")
    print(f"dashboard: {data['html']}")
    return 0 if data["ok"] else 1


def _serve_command(args) -> int:
    """``python -m repro serve``: self-check + health/readiness surfaces."""
    import json

    from repro.serve import PrefetchService, ServiceConfig, run_virtual
    from repro.workloads import irregular

    config = ServiceConfig(
        n_workers=max(1, args.workers),
        queue_watermark=max(1, args.watermark),
    )
    trace = irregular.chain_trace(
        "serve-check", max(1, args.requests) * 8, seed=1,
        hot_lines=2_000, cold_lines=8_000, hot_chains=4, cold_chains=8,
        pcs=4,
    )
    stream = [(pc, addr >> 6) for pc, addr, _ in trace]

    async def check():
        service = PrefetchService(config=config)
        ready_before = service.ready()
        await service.start()
        served = 0
        for i in range(max(1, args.requests)):
            batch = stream[i * 8:(i + 1) * 8]
            response = await service.submit(f"check-{i % 4}", batch)
            served += len(response.prefetch_lines)
        surfaces = {
            "ready_before_start": ready_before,
            "ready": service.ready(),
            "health": service.health(),
            "self_check": {
                "requests": max(1, args.requests),
                "prefetch_lines": served,
            },
        }
        await service.stop()
        surfaces["ready_after_stop"] = service.ready()
        return surfaces

    surfaces = run_virtual(check())
    if args.json:
        print(json.dumps(surfaces, indent=1, sort_keys=True, default=str))
        return 0
    health = surfaces["health"]
    print("== repro serve: self-check ==")
    print(
        f"status {health['status']}  tier {health['tier']}  "
        f"queue {health['queue_depth']}/{health['queue_watermark']}  "
        f"p95 {health['p95_s'] * 1e3:.2f}ms"
    )
    print(
        f"ready: {surfaces['ready']['ready']}  "
        f"(before start: {surfaces['ready_before_start']['ready']}, "
        f"after stop: {surfaces['ready_after_stop']['ready']})"
    )
    print(
        f"self-check: {surfaces['self_check']['requests']} requests, "
        f"{surfaces['self_check']['prefetch_lines']} prefetch lines, "
        f"{health['counters']['served']} served / "
        f"{health['counters']['submitted']} submitted"
    )
    for breaker in health["breakers"]:
        print(
            f"  {breaker['worker']:<10} {breaker['state']:<9} "
            f"trips {breaker['trips']}"
        )
    return 0 if health["counters"]["served"] else 1


def _loadtest_command(args) -> int:
    """``python -m repro loadtest``: shaped scenario -> KPIs + manifest."""
    import json

    from repro import faults, obs
    from repro.obs.manifest import build_manifest
    from repro.serve import LoadgenConfig, ServiceConfig, run_loadtest

    try:
        loadgen = LoadgenConfig(
            shape=args.shape,
            duration_s=20.0 if args.quick else args.duration,
            base_rps=args.rps,
            n_tenants=8 if args.quick else args.tenants,
            deadline_s=args.deadline,
            seed=args.seed,
            trace_accesses=1024 if args.quick else 4096,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service_config = ServiceConfig(
        n_workers=max(1, args.workers),
        queue_watermark=max(1, args.watermark),
    )
    session = None
    if args.obs_out:
        session = obs.enable(out_dir=args.obs_out)
    saved_plan = faults._PLAN
    try:
        if args.faults:
            try:
                faults.configure(args.faults, seed=args.faults_seed)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        start = time.time()
        report = run_loadtest(loadgen, service_config)
        wall = time.time() - start
    finally:
        faults._PLAN = saved_plan
    kpis = report.kpis()
    manifest = build_manifest(
        kind="serve",
        workloads=[f"loadgen:{loadgen.shape}"],
        prefetcher="serve-ladder",
        config={
            "shape": loadgen.shape,
            "duration_s": loadgen.duration_s,
            "base_rps": loadgen.base_rps,
            "n_tenants": loadgen.n_tenants,
            "deadline_s": loadgen.deadline_s,
            "seed": loadgen.seed,
            "n_workers": service_config.n_workers,
            "queue_watermark": service_config.queue_watermark,
        },
        seeds=[loadgen.seed],
        trace_length=report.requests * loadgen.batch_size,
        warmup=0,
        instructions=0.0,
        cycles=0.0,
        wall_time_s=wall,
        extra={"kpis": kpis, "serving": report.summary(), "slo": report.slo},
    )
    if session is not None:
        session.manifests.append(manifest)
        paths = session.flush()
        prom_path = Path(args.obs_out) / "metrics.prom"
        prom_path.write_text(report.exposition)
        paths["prom"] = prom_path
        obs.disable()
    if args.json:
        print(json.dumps(report.summary(), indent=1, sort_keys=True, default=str))
    else:
        print(f"== repro loadtest: {loadgen.shape} ==")
        print(
            f"{report.requests} requests over {report.duration_s:.1f} virtual "
            f"seconds ({wall:.1f}s wall): {report.served} served, "
            f"{report.shed_overload} shed (overload), "
            f"{report.shed_deadline} shed (deadline), "
            f"{report.errors_unhandled} unhandled"
        )
        for name, value in sorted(kpis.items()):
            print(f"  {name:<22} {value:.6g}")
        tiers = ", ".join(
            f"{tier}:{count}"
            for tier, count in sorted(report.served_by_tier.items())
        )
        print(f"  served_by_tier         {tiers or '-'}")
        for name, verdict in sorted(report.slo.items()):
            burns = ", ".join(
                f"{w['seconds']:.3g}s burn {w['burn']:.6g} {w['verdict']}"
                for w in verdict["windows"]
            )
            print(f"  slo {name:<20} {verdict['verdict']:<7} ({burns})")
    if session is not None:
        print(
            "observability artifacts: "
            + ", ".join(str(p) for p in sorted(paths.values()))
        )
    if report.errors_unhandled:
        print(
            f"error: {report.errors_unhandled} request(s) died with "
            "unhandled exceptions",
            file=sys.stderr,
        )
        return 1
    return 0


def _metrics_command(args) -> int:
    """``python -m repro metrics``: Prometheus scrape of the service.

    Runs a short deterministic loadtest (virtual time, seeded) and prints
    the text exposition the service's ``metrics()`` surface returned at
    the end of it; ``--check`` lints the output with the strict parser.
    """
    from repro.serve import LoadgenConfig, ServiceConfig, run_loadtest

    try:
        loadgen = LoadgenConfig(
            shape=args.shape,
            duration_s=max(1.0, args.duration),
            base_rps=120.0,
            n_tenants=8,
            deadline_s=0.5,
            seed=args.seed,
            trace_accesses=1024,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_loadtest(
        loadgen, ServiceConfig(n_workers=4, queue_watermark=32)
    )
    text = report.exposition
    if args.check:
        from repro.obs import exposition

        try:
            families = exposition.parse_text(text)
        except exposition.ExpositionError as exc:
            print(f"error: malformed exposition: {exc}", file=sys.stderr)
            return 2
        print(text, end="")
        print(f"# exposition ok: {len(families)} families", file=sys.stderr)
        return 0
    print(text, end="")
    return 0


def _bench_command(args) -> int:
    """``python -m repro bench <exp>``: timed run -> trajectory record."""
    import json

    from repro.obs import bench

    try:
        record = bench.bench_experiment(
            args.experiment,
            repeats=args.repeats,
            warmup=args.warmup,
            quick=args.quick,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overhead = None
    if args.trace_overhead:
        overhead = bench.tracing_overhead_pct(
            args.experiment, quick=args.quick
        )
        record["tracing_overhead_pct"] = overhead
    path = Path(args.out) if args.out else bench.default_trajectory_path(
        args.experiment
    )
    if not args.no_append:
        bench.append_record(path, record)
    if args.json:
        print(json.dumps(record, indent=1, sort_keys=True))
    else:
        kpis = record["kpis"]
        print(f"== Bench: {record['experiment']} ==")
        print(
            f"wall {record['wall_time_mean_s']:.3f}s mean "
            f"(min {record['wall_time_min_s']:.3f}s over "
            f"{record['repeats']} repeats), "
            f"{record['throughput_accesses_per_s']:,.0f} accesses/s, "
            f"peak RSS {record['peak_rss_kb']} KB"
        )
        cache_counts = record["cache"]
        if cache_counts["enabled"]:
            print(
                f"result cache: {cache_counts['hits']} hits, "
                f"{cache_counts['misses']} misses"
            )
        for name, value in sorted(kpis.items()):
            print(f"  {name:<40} {value:.6g}")
        if overhead is not None:
            print(
                f"tracing overhead: {overhead:+.3f}% "
                f"(tolerance {args.overhead_tol:.3g}%)"
            )
        if not args.no_append:
            print(f"appended record #{len(bench.load_trajectory(path))} to {path}")
    if overhead is not None and overhead > args.overhead_tol:
        print(
            f"error: tracing overhead {overhead:.3f}% exceeds "
            f"tolerance {args.overhead_tol:.3g}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _compare_command(args) -> int:
    """``python -m repro compare``: 0 ok, 1 regression, 2 schema/usage."""
    import json

    from repro.obs import bench

    try:
        base_records = bench.load_trajectory(args.baseline)
        if args.candidate is None:
            if len(base_records) < 2:
                print(
                    f"error: {args.baseline} holds {len(base_records)} "
                    "record(s); need two to compare (or pass a candidate file)",
                    file=sys.stderr,
                )
                return 2
            baseline, candidate = base_records[-2], base_records[-1]
        else:
            cand_records = bench.load_trajectory(args.candidate)
            if not base_records or not cand_records:
                print(
                    "error: both trajectories need at least one record",
                    file=sys.stderr,
                )
                return 2
            baseline, candidate = base_records[-1], cand_records[-1]
        comparison = bench.compare_records(baseline, candidate)
    except bench.BenchSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=1, sort_keys=True))
    else:
        print(bench.render_comparison(comparison))
    return 0 if comparison.ok else 1


def _cache_command(args) -> int:
    """``python -m repro cache stats|clear``."""
    from repro.cache import ResultCache

    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    store = ResultCache(root)
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"cache directory: {stats['root']} (key schema v{stats['schema']})")
        for kind in ("results", "traces"):
            entry = stats[kind]
            print(f"  {kind:<8} {entry['count']:>6} entries  {entry['bytes']:>12} bytes")
        if stats["stale_versions"]:
            print(
                "  stale schema versions present: "
                + ", ".join(stats["stale_versions"])
                + "  (run 'cache clear' to reclaim)"
            )
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached file(s) from {store.root}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
