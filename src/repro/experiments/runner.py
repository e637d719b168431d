"""Command-line runner over all experiment harnesses.

.. code-block:: console

   $ stretch-repro --list
   $ stretch-repro fig01 fig02
   $ stretch-repro run fig09 --jobs auto      # parallel simulation engine
   $ stretch-repro all --fidelity full --seed 7
   $ stretch-repro gc                         # evict stale cache versions
   $ stretch-repro run fig06 --trace out.trace.json --metrics out.jsonl
   $ stretch-repro run fig06 --check          # per-cycle invariant checking
   $ stretch-repro check --configs 200        # differential oracle sweep
   $ stretch-repro inspect                    # store + job telemetry
   $ stretch-repro inspect 3fb2               # jobs whose key starts 3fb2
   $ stretch-repro serve --servers 10000 --feed web_search --metrics out.jsonl
   $ stretch-repro serve --listen 9100 --dashboard --slo "qos:violation_rate<0.05"
   $ stretch-repro top http://127.0.0.1:9100  # attach a live dashboard
   $ stretch-repro postmortem postmortem.jsonl  # attribute an SLO alert

With ``--jobs N`` (or ``auto``) each experiment's simulation grid is first
executed on a process pool through :mod:`repro.engine`, populating the
content-addressed result store; the harness then assembles its figures from
pure cache hits.  Parallel results are bit-identical to serial runs because
every job derives all randomness from its embedded seed.

The observability flags surface :mod:`repro.obs`:

* ``--trace FILE`` writes Chrome trace-event JSON (open in
  https://ui.perfetto.dev) covering the engine job lifecycle and one span
  per experiment;
* ``--metrics FILE`` streams per-window core samples (JSONL, one
  ``core_window`` object per line) from every simulated core — including
  pool workers, which inherit the setting via the environment;
* ``--profile`` prints a self-time table over the simulator's hot loops
  and the engine phases.

The correctness harness (:mod:`repro.check`) surfaces in two places:
``--check`` attaches a per-cycle :class:`InvariantChecker` to every core —
including those built inside pool workers, via ``REPRO_CHECK=1`` in the
inherited environment — and the ``check`` subcommand sweeps seeded random
configurations through the ``FastCore`` vs ``ReferenceCore`` differential
oracle (optionally plus the metamorphic relation suite).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys
import time
from pathlib import Path

from repro.cpu.surrogate import UipcFitJob
from repro.engine import EngineConfig, ExecutionEngine, default_store
from repro.engine.executor import parse_workers
from repro.experiments.common import Fidelity, fidelity_names
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.profiler import active_profiler, disable_profiling, enable_profiling
from repro.obs.sampler import CHECK_ENV, METRICS_ENV
from repro.obs.tracer import SpanTracer
from repro.util.progress import ProgressPrinter, format_duration, format_rate
from repro.util.tables import format_table

__all__ = [
    "EXPERIMENTS",
    "expand_experiment_names",
    "main",
    "resolve_fidelity",
    "run_experiment",
]

#: Experiment id -> module implementing ``run(fidelity)`` (and, for the
#: simulation-grid figures, ``jobs(fidelity)`` for the execution engine).
EXPERIMENTS: dict[str, str] = {
    "tables": "repro.experiments.tables",
    "fig01": "repro.experiments.fig01_latency_vs_load",
    "fig02": "repro.experiments.fig02_slack",
    "fig03": "repro.experiments.fig03_colocation_slowdown",
    "fig04": "repro.experiments.fig04_resource_contention",
    "fig05": "repro.experiments.fig05_resource_contention_all",
    "fig06": "repro.experiments.fig06_rob_sensitivity",
    "fig07": "repro.experiments.fig07_mlp",
    "fig09": "repro.experiments.fig09_stretch_modes",
    "fig10": "repro.experiments.fig10_bmode_speedup",
    "fig11": "repro.experiments.fig11_dynamic_sharing",
    "fig12": "repro.experiments.fig12_fetch_throttling",
    "fig13": "repro.experiments.fig13_software_scheduling",
    "fig14": "repro.experiments.fig14_case_studies",
    # Extensions beyond the paper's evaluation (its §IV-D discussion points).
    "ext_two_services": "repro.experiments.ext_two_services",
    "ext_sensitivity": "repro.experiments.ext_sensitivity",
    "ext_adaptive": "repro.experiments.ext_adaptive",
    "ext_energy": "repro.experiments.ext_energy",
    "ext_fleet": "repro.experiments.ext_fleet",
    "ext_placement": "repro.experiments.ext_placement",
    "ext_autotune": "repro.experiments.ext_autotune",
    "characterize": "repro.experiments.characterization",
}


def run_experiment(name: str, fidelity: Fidelity):
    """Run one experiment by id and return its result object."""
    try:
        module_name = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    module = importlib.import_module(module_name)
    return module.run(fidelity)


def expand_experiment_names(tokens: list[str]) -> list[str]:
    """Expand ``all`` (anywhere in the list) and deduplicate, keeping order."""
    names: list[str] = []
    for token in tokens:
        if token == "all":
            names.extend(EXPERIMENTS)
        else:
            names.append(token)
    return list(dict.fromkeys(names))


def resolve_fidelity(choice: str | None, seed: int) -> Fidelity:
    """``--fidelity`` wins; otherwise honor ``REPRO_FIDELITY``.

    Both paths go through the :func:`~repro.experiments.common.register_fidelity`
    registry, so third-party tiers registered before CLI parsing resolve here
    too.
    """
    if choice is not None:
        return Fidelity.resolve(choice, seed)
    return Fidelity.from_env(seed)


def result_to_jsonable(result) -> object:
    """Convert an experiment result into JSON-serializable data.

    Dataclasses flatten recursively; enums and other exotic values fall back
    to ``str``.  Intended for piping results into external plotting tools.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return {
            field.name: result_to_jsonable(getattr(result, field.name))
            for field in dataclasses.fields(result)
        }
    if isinstance(result, dict):
        return {str(k): result_to_jsonable(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [result_to_jsonable(v) for v in result]
    if isinstance(result, (str, int, float, bool)) or result is None:
        return result
    return str(result)


def _warm_store(name: str, jobs: list, workers: int,
                tracer: SpanTracer | None = None, profiler=None):
    """Pre-execute an experiment's simulation grid (its module's
    ``jobs(fidelity)``) through the engine.

    With one worker the grid executes serially (same work, now with engine
    telemetry and tracing); with more it lands on the process pool.  The
    subsequent ``module.run()`` then assembles figures from cache hits.
    """
    if not jobs:
        return None
    engine = ExecutionEngine(EngineConfig(workers=workers))
    printer = ProgressPrinter(f"engine:{name}")
    report = engine.run_jobs(
        jobs,
        store=default_store(),
        progress=lambda stats: printer.update(
            f"{stats.done}/{stats.unique} done, {stats.running} running, "
            f"{stats.cache_hits} cached, "
            f"{format_rate(stats.done, stats.wall_time)}"
        ),
        tracer=tracer,
        profiler=profiler,
    )
    printer.close(report.stats.summary())
    return report


def _point_counts(registry) -> dict[str, int]:
    """The ``sampling.points_built``/``points_reused`` counts so far."""
    return {
        f"points_{kind}": registry.counter(f"sampling.points_{kind}").value
        for kind in ("built", "reused")
    }


def _jobs_arg(value: str) -> int:
    try:
        return parse_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _inspect_main(argv: list[str]) -> int:
    """``stretch-repro inspect``: result store + per-job telemetry."""
    parser = argparse.ArgumentParser(
        prog="stretch-repro inspect",
        description="Inspect the content-addressed result store: cumulative "
                    "cache statistics and the per-job telemetry records the "
                    "engine leaves in the manifest.",
    )
    parser.add_argument(
        "key", nargs="?", default=None,
        help="job key prefix: show matching telemetry records and stored "
             "result values",
    )
    parser.add_argument(
        "--limit", type=int, default=15, metavar="N",
        help="recent jobs to list in the summary view (default: 15)",
    )
    args = parser.parse_args(argv)

    store = default_store()
    manifest = store.read_manifest()
    jobs = manifest.get("jobs")
    if not isinstance(jobs, dict):
        jobs = {}

    if args.key:
        matches = sorted(
            ((k, v) for k, v in jobs.items() if k.startswith(args.key)),
            key=lambda kv: -kv[1].get("ts", 0),
        )
        if not matches:
            print(f"no job telemetry matching key prefix {args.key!r}")
            return 1
        for key, record in matches:
            print(key)
            print(
                f"  mode={record.get('mode')}  tries={record.get('tries')}  "
                f"seconds={record.get('seconds')}"
            )
            values = store.get(key)
            if values is not None:
                shown = ", ".join(f"{v:g}" for v in values[:8])
                more = f", … ({len(values)} values)" if len(values) > 8 else ""
                print(f"  values=({shown}{more})")
        return 0

    print(f"cache dir:     {store.directory or '(memory only)'}")
    print(
        f"cache version: v{manifest.get('cache_version', store.version)}, "
        f"{manifest.get('entries', 0)} entries on disk"
    )
    print(
        f"lifetime:      {manifest.get('hits', 0)} hits, "
        f"{manifest.get('misses', 0)} misses, "
        f"{manifest.get('writes', 0)} writes, "
        f"{manifest.get('corrupt_entries', 0)} corrupt"
    )
    if jobs:
        recent = sorted(jobs.items(), key=lambda kv: -kv[1].get("ts", 0))
        rows = [
            [key[:16] + "…", record.get("mode", "?"),
             record.get("tries", 0), f"{record.get('seconds', 0.0):.3f}s"]
            for key, record in recent[: args.limit]
        ]
        print()
        print(format_table(
            ["job key", "mode", "tries", "seconds"], rows,
            title=f"Recent jobs ({min(len(recent), args.limit)} of {len(recent)})",
        ))
    else:
        print("no per-job telemetry recorded yet (run an experiment first)")
    return 0


def _surrogate_gate_main(args) -> int:
    """``stretch-repro check --surrogate``: held-out accuracy gate."""
    from repro.check import surrogate_accuracy_sweep

    start = time.time()
    printer = ProgressPrinter("check:surrogate")
    done = 0

    def progress(result) -> None:
        nonlocal done
        done += 1
        printer.update(f"{done}/{args.surrogate_configs} held-out configs, "
                       f"{format_rate(done, time.time() - start)}")

    report = surrogate_accuracy_sweep(
        n_configs=args.surrogate_configs, seed=args.seed, progress=progress
    )
    printer.close(report.summary())
    for result in report.failures:
        print(f"  FAIL {result.summary()}")
    print(f"check --surrogate: {'FAILED' if not report.ok else 'ok'} "
          f"({format_duration(time.time() - start)})")
    return 0 if report.ok else 1


def _check_main(argv: list[str]) -> int:
    """``stretch-repro check``: differential oracle + metamorphic relations."""
    parser = argparse.ArgumentParser(
        prog="stretch-repro check",
        description="Validate FastCore against the unoptimized "
                    "ReferenceCore on seeded random configurations plus "
                    "targeted stress cases (bit-identical results "
                    "required), with per-cycle invariant checking attached "
                    "to every run.",
    )
    parser.add_argument(
        "--configs", type=int, default=200, metavar="N",
        help="number of seeded random configurations to sweep (default: 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="root seed for configuration generation (default: 0)",
    )
    parser.add_argument(
        "--no-invariants", action="store_true",
        help="skip attaching the per-cycle invariant checker (faster)",
    )
    parser.add_argument(
        "--no-stress", action="store_true",
        help="skip the targeted stress cases (mode-switch storms, zero-idle "
             "pairs, cycle-0 completions, MSHR-saturated windows)",
    )
    parser.add_argument(
        "--metamorphic", action="store_true",
        help="also run the metamorphic relation suite (ROB monotonicity, "
             "co-runner direction, mode ordering)",
    )
    parser.add_argument(
        "--surrogate", action="store_true",
        help="run the surrogate-tier accuracy gate instead: fresh held-out "
             "configurations (fresh seeds) must land within each fitted "
             "UIPC surrogate's reported error bound",
    )
    parser.add_argument(
        "--surrogate-configs", type=int, default=50, metavar="N",
        help="held-out configurations for the --surrogate gate (default: 50)",
    )
    args = parser.parse_args(argv)

    if args.surrogate:
        return _surrogate_gate_main(args)

    from repro.check import (
        build_cases,
        build_stress_cases,
        differential_sweep,
        run_metamorphic_suite,
    )

    start = time.time()
    printer = ProgressPrinter("check:differential")
    cases = build_cases(args.configs, seed=args.seed)
    if not args.no_stress:
        cases = cases + build_stress_cases(seed=args.seed)
    done = 0

    def progress(case, diffs) -> None:
        nonlocal done
        done += 1
        printer.update(f"{done}/{len(cases)} cases, "
                       f"{format_rate(done, time.time() - start)}")

    report = differential_sweep(
        cases, check_invariants=not args.no_invariants, progress=progress
    )
    printer.close(report.summary())
    for line in report.mismatches + report.errors:
        print(f"  FAIL {line}")

    failed = not report.ok
    if args.metamorphic:
        for relation in run_metamorphic_suite(seed=args.seed or 7):
            print(relation.summary())
            if not relation.holds:
                failed = True
    print(f"check: {'FAILED' if failed else 'ok'} "
          f"({format_duration(time.time() - start)})")
    return 1 if failed else 0


def _serve_main(argv: list[str]) -> int:
    """``stretch-repro serve``: the live fleet service loop.

    Streams one LDJSON line per completed window (with ``--metrics``),
    answers control commands from stdin (``status`` / ``whatif`` /
    ``checkpoint`` / ``reconfigure`` / ``dump`` / ``stop`` — see
    :mod:`repro.service.control`), and shuts down cleanly on SIGINT with
    a final summary line on stdout.  ``--listen`` adds the OpenMetrics
    scrape endpoint, ``--dashboard`` a live terminal panel on stderr;
    SLO scoring and the violation flight recorder are on by default
    (``--slo none`` / ``--no-recorder`` to disable).
    """
    parser = argparse.ArgumentParser(
        prog="stretch-repro serve",
        description="Run a colocated server fleet as a live service: "
                    "ingest a load feed window by window, stream fleet.* "
                    "metrics, answer what-if/checkpoint/reconfigure "
                    "queries over a line-delimited JSON control plane.",
    )
    parser.add_argument(
        "--ls", default="web_search", metavar="WORKLOAD",
        help="latency-sensitive workload (default: web_search)",
    )
    parser.add_argument(
        "--batch", default="zeusmp", metavar="WORKLOAD",
        help="batch co-runner (default: zeusmp)",
    )
    parser.add_argument(
        "--servers", type=int, default=1000, metavar="N",
        help="fleet size (default: 1000)",
    )
    parser.add_argument(
        "--feed", default="web_search", metavar="SPEC",
        help="load feed: curve name, flat:<x>, phases:<spec>, or "
             "replay:<path.jsonl> (default: web_search)",
    )
    parser.add_argument(
        "--windows", type=int, default=None, metavar="N",
        help="serve at most N windows (default: the rest of the day)",
    )
    parser.add_argument(
        "--window-minutes", type=float, default=10.0, metavar="MIN",
        help="monitoring window length (default: 10)",
    )
    parser.add_argument(
        "--requests-per-window", type=int, default=2000, metavar="N",
        help="request samples per window (default: 2000)",
    )
    parser.add_argument(
        "--policy", default="jittered", metavar="NAME",
        help="load-balancing policy (default: jittered)",
    )
    parser.add_argument(
        "--scenario", metavar="SPEC", default=None,
        help="attach an adversarial scenario: a preset name from "
             "repro.scenarios.SCENARIO_NAMES, or an inline JSON spec "
             "dict (default: none)",
    )
    parser.add_argument(
        "--tail", choices=("surrogate", "exact"), default="surrogate",
        help="tail evaluator (default: surrogate)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="fleet seed (default: 0)",
    )
    parser.add_argument(
        "--fidelity", choices=fidelity_names(), default="quick",
        help="sampling effort for the on-the-fly performance measurement "
             "(default: quick; memoized via the result store)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="stream one fleet_window JSONL record per window to FILE",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write Chrome trace-event JSON over the "
             "ingest->advance->publish loop",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="persist a content-addressed checkpoint every N windows "
             "(plus one final checkpoint at shutdown)",
    )
    parser.add_argument(
        "--resume", metavar="KEY", default=None,
        help="resume from a checkpoint key (bit-identical to never "
             "having stopped)",
    )
    parser.add_argument(
        "--max-gap", type=int, default=6, metavar="N",
        help="tolerated consecutive feed gaps (hold-last fill) before a "
             "clean feed_stalled shutdown (default: 6)",
    )
    parser.add_argument(
        "--chunk", type=int, default=None, metavar="N",
        help="servers advanced per chunk (default: "
             "$REPRO_FLEET_CHUNK or 65536)",
    )
    parser.add_argument(
        "--pace", type=float, default=0.0, metavar="SECONDS",
        help="real seconds per simulated window (0 = flat out)",
    )
    parser.add_argument(
        "--no-control", action="store_true",
        help="do not read control commands from stdin",
    )
    parser.add_argument(
        "--slo", action="append", metavar="SPEC", default=None,
        help="SLO spec NAME:violation_rate<FRACTION or NAME:tail<MSms, "
             "each optionally @FAST/SLOWxTHRESHOLD[,...]; repeatable; "
             "'none' disables scoring "
             "(default: qos:violation_rate<0.05)",
    )
    parser.add_argument(
        "--no-recorder", action="store_true",
        help="disable the violation flight recorder",
    )
    parser.add_argument(
        "--postmortem", metavar="FILE", default="postmortem.jsonl",
        help="flight-recorder bundle path, written by the control "
             "plane's dump verb and automatically on feed_stalled/SIGINT "
             "stops (default: postmortem.jsonl)",
    )
    parser.add_argument(
        "--listen", metavar="[HOST:]PORT", default=None,
        help="serve /metrics (OpenMetrics), /status and /healthz from a "
             "background HTTP thread; port 0 binds an ephemeral port — "
             "the bound address is announced as a 'listen' record on "
             "stdout",
    )
    parser.add_argument(
        "--dashboard", action="store_true",
        help="repaint a live status panel on stderr every window",
    )
    args = parser.parse_args(argv)

    import signal
    import time

    from repro.api import serve
    from repro.obs.export import DashboardPrinter, ObservabilityServer
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampler import JsonlSink
    from repro.service.control import ControlPlane, respond

    slo_specs = args.slo if args.slo else ["qos:violation_rate<0.05"]
    if any(spec.strip().lower() == "none" for spec in slo_specs):
        slo_specs = None
    use_recorder = not args.no_recorder
    scenario = args.scenario
    if scenario is not None:
        scenario = scenario.strip()
        if scenario.startswith("{"):
            scenario = json.loads(scenario)
    sink = JsonlSink(args.metrics) if args.metrics else None
    tracer = SpanTracer(process_name="stretch-repro serve") if args.trace else None
    service = serve(
        args.ls,
        args.batch,
        feed=args.feed,
        tail=args.tail,
        n_servers=args.servers,
        policy=args.policy,
        window_minutes=args.window_minutes,
        requests_per_window=args.requests_per_window,
        seed=args.seed,
        fidelity=args.fidelity,
        scenario=scenario,
        resume=args.resume,
        max_gap_windows=args.max_gap,
        chunk_size=args.chunk,
        registry=MetricsRegistry(),
        sink=sink,
        tracer=tracer,
        slos=slo_specs,
        recorder=use_recorder,
        postmortem_path=args.postmortem if use_recorder else None,
    )
    obs_server = None
    if args.listen is not None:
        host, _, port = args.listen.rpartition(":")
        obs_server = ObservabilityServer(
            service.registry,
            host=host or "127.0.0.1",
            port=int(port),
            status_fn=service.status,
        ).start()
        respond(sys.stdout, {
            "type": "listen", "url": obs_server.url,
            "host": obs_server.host, "port": obs_server.port,
        })
    printer = (
        DashboardPrinter(sys.stderr) if args.dashboard else None
    )
    progress = {"windows": 0, "t0": time.monotonic()}

    def on_window(svc, record) -> None:
        progress["windows"] += 1
        if printer is not None:
            elapsed = time.monotonic() - progress["t0"]
            printer.update(
                svc.status(), svc.registry,
                windows_per_s=(
                    progress["windows"] / elapsed if elapsed > 0 else None
                ),
            )

    control = None if args.no_control else ControlPlane(sys.stdin)
    previous = signal.signal(
        signal.SIGINT, lambda signum, frame: service.stop("sigint")
    )
    try:
        summary = service.run(
            n_windows=args.windows,
            control=control,
            out=sys.stdout,
            checkpoint_every=args.checkpoint_every,
            pace_seconds=args.pace,
            on_window=on_window,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
        if obs_server is not None:
            obs_server.stop()
    if printer is not None:
        printer.update(service.status(), service.registry)
    if args.checkpoint_every and service.window > 0:
        summary["checkpoint"] = service.checkpoint()
    respond(sys.stdout, summary)
    if sink is not None:
        sink.flush()
    if tracer is not None:
        tracer.write(args.trace)
    return 0


def _top_main(argv: list[str]) -> int:
    """``stretch-repro top``: live dashboard over a serve ``--listen`` URL."""
    parser = argparse.ArgumentParser(
        prog="stretch-repro top",
        description="Attach a terminal dashboard to a running "
                    "'stretch-repro serve --listen' endpoint by polling "
                    "its /status route.",
    )
    parser.add_argument(
        "url", nargs="?", default="http://127.0.0.1:9100",
        help="base URL from the serve 'listen' record "
             "(default: http://127.0.0.1:9100)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval (default: 2.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one panel and exit (scripting/smoke-test mode)",
    )
    args = parser.parse_args(argv)

    import json as _json
    import time
    import urllib.error
    import urllib.request

    from repro.obs.export import DashboardPrinter

    base = args.url.rstrip("/")
    printer = DashboardPrinter(sys.stdout)
    while True:
        try:
            with urllib.request.urlopen(base + "/status", timeout=10) as rsp:
                status = _json.loads(rsp.read().decode())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"top: cannot read {base}/status: {exc}", file=sys.stderr)
            return 1
        printer.update(status)
        if args.once or status.get("stopped") or status.get("done"):
            return 0
        try:
            time.sleep(max(args.interval, 0.1))
        except KeyboardInterrupt:
            return 0


def _postmortem_main(argv: list[str]) -> int:
    """``stretch-repro postmortem``: analyze a flight-recorder bundle."""
    parser = argparse.ArgumentParser(
        prog="stretch-repro postmortem",
        description="Analyze a postmortem JSONL bundle written by the "
                    "serve loop's flight recorder: summarize the window "
                    "history and attribute each SLO-alert capture to "
                    "load_spike / mode_switch_lag / straggler.",
    )
    parser.add_argument("bundle", help="postmortem bundle path (.jsonl)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full analysis as JSON instead of a report",
    )
    args = parser.parse_args(argv)

    import json as _json

    from repro.obs.recorder import analyze_bundle

    try:
        report = analyze_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"postmortem: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(report, indent=2))
        return 0
    meta = report["meta"]
    summary = report["summary"]
    service = meta.get("service", {})
    print(f"postmortem: {args.bundle}")
    print(
        f"  service   {service.get('ls_profile', '?')} fleet, "
        f"{service.get('n_servers', '?')} servers, feed "
        f"{service.get('feed', '?')}, policy {service.get('policy', '?')}"
        f" (dump reason: {meta.get('reason', '?')})"
    )
    windows = summary.get("windows")
    span = f"{windows[0]}..{windows[1]}" if windows else "none"
    print(
        f"  recorded  {summary['frames']} windows ({span}), "
        f"violation_rate {summary['violation_rate']:.4f}, "
        f"load median {summary['median_load']:.2f} / "
        f"peak {summary['peak_load']:.2f}"
    )
    print(
        f"  alerts    {summary['alerts']} fired, "
        f"{summary['captures']} captures"
    )
    for i, capture in enumerate(report["captures"]):
        evidence = capture["evidence"]
        scores = capture["scores"]
        score_txt = ", ".join(
            f"{name}={value:.2f}" for name, value in sorted(scores.items())
        )
        print(
            f"  capture {i}: windows {capture.get('lo_window')}.."
            f"{capture.get('hi_window')}, alert at "
            f"{evidence.get('alert_window')} "
            f"({evidence.get('slo')}/{evidence.get('policy')})"
        )
        print(f"    primary: {capture['primary']}  [{score_txt}]")
        if evidence.get("repeat_servers"):
            print(f"    repeat violators: {evidence['repeat_servers']}")
    if not report["captures"]:
        print("  no captures (no SLO alert fired while recording)")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "inspect":
        return _inspect_main(argv[1:])
    if argv and argv[0] == "check":
        return _check_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "postmortem":
        return _postmortem_main(argv[1:])
    if argv and argv[0] == "run":
        # Explicit subcommand form: ``stretch-repro run fig06 …``.
        argv = argv[1:]

    parser = argparse.ArgumentParser(
        prog="stretch-repro",
        description="Regenerate the tables and figures of the Stretch paper "
                    "(HPCA'19) from the simulation substrate.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (e.g. fig09), 'all', or 'gc' to evict stale "
             "cache versions",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--fidelity", choices=fidelity_names(), default=None,
        help="simulation effort (default: $REPRO_FIDELITY, else quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, metavar="N",
        help="root seed for all sampled simulations (default: 42)",
    )
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N|auto",
        help="worker processes for the simulation engine (default: 1 = "
             "serial; 'auto' = usable cores); results are bit-identical to "
             "serial runs",
    )
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="also write each result as DIR/<experiment>.json",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write Chrome trace-event JSON (engine job lifecycle + one "
             "span per experiment); view at https://ui.perfetto.dev",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="stream per-window core samples to FILE as JSONL "
             "(one core_window object per line; workers append too)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile simulator hot loops and engine phases; prints a "
             "self-time table at exit",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="attach the per-cycle invariant checker to every simulated "
             "core (including pool workers); violations raise immediately",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, module in EXPERIMENTS.items():
            doc = importlib.import_module(module).__doc__ or ""
            first = doc.strip().splitlines()[0] if doc.strip() else ""
            print(f"{name:8s} {first}")
        return 0

    store = default_store()
    if "gc" in args.experiments:
        evicted = store.gc()
        manifest = store.read_manifest()
        print(
            f"cache gc: evicted {evicted} stale entries; "
            f"{manifest.get('entries', 0)} live entries at "
            f"version {manifest.get('cache_version')}"
        )
        args.experiments = [n for n in args.experiments if n != "gc"]
        if not args.experiments:
            return 0

    names = expand_experiment_names(args.experiments)
    fidelity = resolve_fidelity(args.fidelity, args.seed)
    json_dir = Path(args.json) if args.json else None
    if json_dir:
        json_dir.mkdir(parents=True, exist_ok=True)

    # Observability setup.  The metrics sink and profiler flag travel via
    # the environment so pool workers inherit them; both are restored on
    # exit so library callers of main() do not leak state.
    tracer = SpanTracer() if args.trace else None
    saved_metrics_env = os.environ.get(METRICS_ENV)
    saved_check_env = os.environ.get(CHECK_ENV)
    profiling_was_on = active_profiler() is not None
    if args.metrics:
        metrics_path = Path(args.metrics).resolve()
        metrics_path.write_text("")  # truncate; runs append line-by-line
        os.environ[METRICS_ENV] = str(metrics_path)
    if args.check:
        os.environ[CHECK_ENV] = "1"
    profiler = enable_profiling() if args.profile else active_profiler()
    # A registry to count sampling points in, here and (shipped back with
    # each job) in pool workers; restored on exit like the environment.
    saved_registry = get_registry()
    registry = (
        saved_registry if saved_registry.enabled
        else set_registry(MetricsRegistry())
    )

    try:
        for name in names:
            if name not in EXPERIMENTS:
                raise KeyError(
                    f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
                )
            module = importlib.import_module(EXPERIMENTS[name])
            start = time.time()
            span_start = tracer.now_us() if tracer is not None else 0.0
            grid = list(module.jobs(fidelity)) if hasattr(module, "jobs") else []
            points = _point_counts(registry)
            report = _warm_store(name, grid, args.jobs,
                                 tracer=tracer, profiler=profiler)
            misses = store.stats.misses
            result = module.run(fidelity)
            run_store_misses = store.stats.misses - misses
            elapsed = time.time() - start
            if tracer is not None:
                tracer.complete(
                    f"experiment:{name}", span_start,
                    tracer.now_us() - span_start, cat="experiment",
                    args={"fidelity": fidelity.name, "seed": args.seed},
                )
            print(f"==== {name} ({format_duration(elapsed)}) ====")
            print(result.format())
            print()
            if json_dir:
                fits = sum(isinstance(job, UipcFitJob) for job in grid)
                payload = {
                    "experiment": name,
                    "fidelity": fidelity.name,
                    "seed": args.seed,
                    "jobs": args.jobs,
                    "elapsed_seconds": round(elapsed, 3),
                    "engine": report.stats.as_dict() if report else None,
                    # At a surrogate tier the exact jobs are the queries
                    # no fit answers: families a lookup asks only anchor
                    # values, and configs no fit covers.  After a
                    # prefetch, a store miss in run() is a job the grid
                    # lacked.
                    "grid_fit_jobs": fits,
                    "grid_exact_jobs": len(grid) - fits,
                    "run_store_misses": run_store_misses,
                    # Sampling points built and reused by the prefetch
                    # (summed over pool workers) and run().
                    "sampling": {
                        key: value - points[key]
                        for key, value in _point_counts(registry).items()
                    },
                    "result": result_to_jsonable(result),
                }
                (json_dir / f"{name}.json").write_text(json.dumps(payload, indent=2))
    finally:
        set_registry(saved_registry)
        if args.metrics:
            if saved_metrics_env is None:
                os.environ.pop(METRICS_ENV, None)
            else:
                os.environ[METRICS_ENV] = saved_metrics_env
        if args.check:
            if saved_check_env is None:
                os.environ.pop(CHECK_ENV, None)
            else:
                os.environ[CHECK_ENV] = saved_check_env
        if args.profile and not profiling_was_on:
            table = profiler.self_time_table() if profiler else ""
            disable_profiling()
            if table:
                print(table)
        if tracer is not None:
            count = tracer.write(args.trace)
            print(
                f"trace: {count} events -> {args.trace} "
                f"(open in https://ui.perfetto.dev)"
            )

    store.flush_manifest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
