"""Command-line interface: the tool face of the library.

Subcommands operate on XMI files written by :mod:`repro.xmi`::

    python -m repro info      model.xmi
    python -m repro validate  model.xmi
    python -m repro generate  model.xmi --backend vhdl -o build/
    python -m repro transform model.xmi --platform hw -o psm.xmi
    python -m repro simulate  model.xmi --top design::Top --until 100
    python -m repro simulate  model.xmi --top design::Top \
                              --faults campaign.json --seed 7
    python -m repro simulate  model.xmi --top design::Top \
                              --trace out.jsonl
    python -m repro simulate  model.xmi --top design::Top \
                              --coverage cov.json --profile out.folded \
                              --flight-recorder 256 --metrics perf.json
    python -m repro campaign  model.xmi --top design::Top \
                              --faults campaign.json --runs 16 \
                              --parallel 4 --journal sweep.jsonl --resume
    python -m repro simulate  model.xmi --top design::Top \
                              --store ~/.cache/repro
    python -m repro campaign  model.xmi --top design::Top \
                              --faults campaign.json --store build/store
    python -m repro store ls --store build/store --name Top
    python -m repro store gc --store build/store --max-age-s 86400
    python -m repro serve    state/ --workers 4 --store build/store
    python -m repro submit   model.xmi --top design::Top \
                              --faults campaign.json --runs 16 \
                              --socket state/service.sock --wait
    python -m repro status   --socket state/service.sock
    python -m repro result   job-000001 --socket state/service.sock
    python -m repro cancel   job-000001 --socket state/service.sock
    python -m repro stats perf.json --format prom
    python -m repro trace-to-sequence out.jsonl --name observed
    python -m repro diagram   model.xmi --kind class --scope design

Every command exits non-zero on failure, so the CLI slots into build
scripts (the "integration with a design process" of the paper's MDA
section).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import metamodel as mm
from . import xmi
from .engine import ENGINE_MODES
from .errors import ReproError, SimulationError

# ---------------------------------------------------------------------------
# Exit codes.  Distinct and documented so the CLI slots into build
# scripts: anything above 2 is a *successful run with a bad verdict*,
# ordered by precedence (the highest applicable code wins).
# ---------------------------------------------------------------------------

#: Clean run, clean verdicts.
EXIT_OK = 0
#: Invalid input / infrastructure error (also argparse's usage code).
EXIT_ERROR = 2
#: The run survived but quarantined at least one part.
EXIT_QUARANTINED = 3
#: An incident hook fired (kernel incident post-mortem) without
#: quarantine or property violation.
EXIT_INCIDENT = 4
#: The online property checker recorded at least one temporal-property
#: violation — the system ran, but it ran *incorrectly*.  Highest
#: precedence: a violated property outranks quarantine and incidents.
EXIT_PROPERTY_VIOLATED = 5

# Literal copies of repro.faults.PART_ERROR_POLICIES and
# repro.properties.VIOLATION_POLICIES: importing either package here
# would load the simulator into every CLI process.  test_cli_run_flags
# pins them to the library's tuples.
PART_ERROR_POLICIES = ("raise", "quarantine", "restart", "restore")
VIOLATION_POLICIES = ("record", "incident", "supervise")


def _load(path: str):
    document = xmi.read_file(path)
    if document.model is None:
        raise ReproError(f"{path} contains no model")
    return document


def _activate_store(args: argparse.Namespace):
    """Honor ``--store DIR``: activate the artifact store.

    Forked pool workers inherit the active store.  Without ``--store``
    the active store (possibly auto-activated from ``$REPRO_STORE``)
    is returned unchanged — None when persistence is off.
    """
    from .store import get_active_store, set_active_store

    path = getattr(args, "store_dir", "")
    if path:
        from .store import ArtifactStore  # loads the store's modules

        store = ArtifactStore(path)
        set_active_store(store)
        return store
    return get_active_store()


def _register_model(store, document) -> None:
    """Index a loaded model in the store's registry (best effort)."""
    if store is None:
        return
    from .store import ModelRegistry
    ModelRegistry(store).register(document.model,
                                  profiles=document.profiles)


def cmd_info(args: argparse.Namespace) -> int:
    document = _load(args.model)
    model = document.model
    print(f"model: {model.name} ({model.element_count()} elements)")
    if document.profiles:
        print(f"profiles: {[p.name for p in document.profiles]}")
    for kind, count in sorted(model.summary().items()):
        print(f"  {kind:28} {count}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate_model

    document = _load(args.model)
    report = validate_model(document.model)
    for finding in report.findings:
        print(finding)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_generate(args: argparse.Namespace) -> int:
    from .codegen import BACKENDS, VALIDATORS, generate_all
    from .codegen.testbench import (
        generate_verilog_testbench,
        generate_vhdl_testbench,
    )

    document = _load(args.model)
    per_backend = generate_all(
        document.model,
        BACKENDS if args.backend == "all" else (args.backend,))
    if args.testbench:
        from .codegen.base import hardware_components

        for backend in per_backend:
            if backend not in ("vhdl", "verilog"):
                continue
            bench_generator = (generate_vhdl_testbench
                               if backend == "vhdl"
                               else generate_verilog_testbench)
            suffix = ".vhd" if backend == "vhdl" else ".v"
            for component in hardware_components(document.model):
                bench_name = f"{component.name.lower()}_tb{suffix}"
                per_backend[backend][bench_name] = \
                    bench_generator(component)
    total = 0
    failures = 0
    for backend, files in per_backend.items():
        directory = (args.output if len(per_backend) == 1
                     else os.path.join(args.output, backend))
        os.makedirs(directory, exist_ok=True)
        for filename, text in sorted(files.items()):
            issues = VALIDATORS[backend](text)
            target = os.path.join(directory, filename)
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
            status = "ok" if not issues else f"INVALID: {issues}"
            if issues:
                failures += 1
            total += 1
            print(f"  {target}  ({len(text.splitlines())} lines)  "
                  f"{status}")
    print(f"{total} file(s) generated, {failures} invalid")
    return 0 if not failures else 1


def cmd_transform(args: argparse.Namespace) -> int:
    from .mda import hardware_transformation, software_transformation

    store = _activate_store(args)
    document = _load(args.model)
    _register_model(store, document)
    transformation = (hardware_transformation() if args.platform == "hw"
                      else software_transformation())
    # with a store, a warm PSM artifact is deserialized instead of
    # re-running the rule sweep
    result = transformation.transform_cached(document.model,
                                             profiles=document.profiles)
    print(f"applied {result.rules_applied} rule application(s); "
          f"completeness {result.completeness():.0%}")
    xmi.write_file(args.output, result.psm, profiles=document.profiles)
    print(f"PSM written to {args.output}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .engine import (
        JsonlTraceWriter,
        TraceBus,
        attach_perf_counters,
    )
    from .faults import FaultCampaign
    from .simulation import SystemSimulation

    store = _activate_store(args)
    document = _load(args.model)
    _register_model(store, document)
    top = document.model.resolve(args.top, mm.Component)
    campaign = None
    if args.faults:
        campaign = FaultCampaign.from_file(args.faults)
    suite = None
    if args.properties_file:
        from .properties import PropertySuite

        suite = PropertySuite.load(args.properties_file)
    # Subscribers attach to a pre-made bus so events fired during
    # construction (a part's initial run-to-completion step may already
    # send) land in the stream too.
    bus = TraceBus()
    trace_stream = None
    writer = None
    # ``--trace -`` streams the JSONL onto stdout; every informational
    # print then moves to stderr so the stream stays machine-parseable
    # (pipe it straight into trace-to-sequence or jq).
    stream_trace = args.trace_file == "-"
    out = sys.stderr if stream_trace else sys.stdout
    if args.trace_file:
        trace_stream = (sys.stdout if stream_trace
                        else open(args.trace_file, "w", encoding="utf-8"))
        writer = JsonlTraceWriter(trace_stream, bus=bus)
    if args.stats:
        # the PERF cosim counters are just one more subscriber
        attach_perf_counters(bus, prefix="trace")
    flight_capacity = args.flight_recorder
    flight_dump = args.flight_dump
    if flight_capacity and not flight_dump:
        flight_dump = "postmortem.jsonl"
    incidents: List[str] = []
    try:
        with SystemSimulation(top, quantum=args.quantum,
                              engine=args.engine,
                              faults=campaign, fault_seed=args.seed,
                              on_part_error=args.on_part_error,
                              checkpoint_interval=args.checkpoint_interval,
                              bus=bus,
                              coverage=bool(args.coverage_file),
                              profile=bool(args.profile_file),
                              flight_recorder=flight_capacity,
                              flight_dump=flight_dump,
                              causality=bool(args.spans_file
                                             or args.perfetto_file),
                              properties=suite,
                              on_violation=args.on_violation) as simulation:
            simulation.incident_hooks.append(
                lambda reason, detail: incidents.append(reason))
            try:
                simulation.run(until=args.until, timeout=args.timeout)
            except SimulationError as error:
                # kernel incident (watchdog, deadlock, overflow, …):
                # fall through to the post-mortem prints and the
                # distinct exit code instead of the generic error exit
                print(f"kernel incident: {type(error).__name__}: {error}",
                      file=sys.stderr)
            print(f"simulated {args.until} time units: "
                  f"{simulation.messages_delivered} message(s) delivered, "
                  f"{simulation.messages_dropped} dropped", file=out)
            for name, states in simulation.state_snapshot().items():
                print(f"  {name:20} {', '.join(states) or '(no behavior)'}",
                      file=out)
            if args.engine == "compiled":
                # the only mode in which a part can fall back
                for name, verdict in sorted(
                        simulation.compile_report.items()):
                    print(f"  {name:20} [{verdict}]", file=out)
            if campaign is not None or simulation.resilience.part_failures \
                    or simulation.resilience.kernel_incidents:
                print("resilience report:", file=out)
                print(simulation.resilience.to_json(), file=out)
            _write_observability(args, simulation, out)
            _write_causality(args, simulation, out)
            property_report = simulation.property_report()
            if property_report is not None:
                for name, entry in sorted(
                        property_report.properties.items()):
                    mark = ("VIOLATED" if entry["verdict"] == "violated"
                            else "pass")
                    print(f"  property {name:24} [{mark}]"
                          + (f" ({len(entry['violations'])} violation(s), "
                             f"first at t="
                             f"{entry['time_to_violation']})"
                             if entry["violations"] else ""), file=out)
                if args.property_report_file:
                    with open(args.property_report_file, "w",
                              encoding="utf-8") as handle:
                        handle.write(property_report.to_json() + "\n")
                    print(f"properties: {property_report.verdict} -> "
                          f"{args.property_report_file}", file=out)
    finally:
        if trace_stream is not None and not stream_trace:
            trace_stream.close()
        elif stream_trace:
            sys.stdout.flush()
    if writer is not None:
        print(f"trace: {writer.lines_written} event(s) -> "
              f"{'stdout' if stream_trace else args.trace_file}",
              file=out)
    # Distinct exit codes make degraded runs scriptable, ordered by
    # precedence: a violated temporal property (the run was *wrong*)
    # outranks a survived-but-wounded simulation (quarantined part),
    # which outranks a fired incident hook; a clean run exits 0.
    if property_report is not None \
            and property_report.verdict == "violated":
        print(f"exit {EXIT_PROPERTY_VIOLATED}: "
              f"{property_report.total_violations} property "
              f"violation(s)", file=sys.stderr)
        return EXIT_PROPERTY_VIOLATED
    if simulation.quarantined_parts:
        print(f"exit {EXIT_QUARANTINED}: part(s) quarantined: "
              f"{', '.join(simulation.quarantined_parts)}",
              file=sys.stderr)
        return EXIT_QUARANTINED
    if incidents:
        print(f"exit {EXIT_INCIDENT}: incident hook(s) fired: "
              f"{', '.join(sorted(set(incidents)))}", file=sys.stderr)
        return EXIT_INCIDENT
    return EXIT_OK


def _write_observability(args: argparse.Namespace, simulation,
                         out=None) -> None:
    """Write the coverage / profile / metrics artifacts after a run."""
    out = out if out is not None else sys.stdout
    suite = simulation.observability
    if args.coverage_file:
        report = suite.coverage_report()
        with open(args.coverage_file, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(indent=2) + "\n")
        print(f"coverage: {report.total_percent():.2f}% of "
              f"{report.total_bins()} bin(s) -> {args.coverage_file}",
              file=out)
    if args.profile_file:
        lines = suite.profile_lines(metric=args.profile_metric)
        with open(args.profile_file, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"profile: {len(lines)} stack(s) -> {args.profile_file}",
              file=out)
    if args.flight_recorder and suite is not None:
        recorder = suite.recorder
        print(f"flight recorder: {len(recorder.events)}/"
              f"{recorder.capacity} event(s) buffered, "
              f"{recorder.dumps_written} dump(s) written", file=out)
    if args.metrics_file:
        from .observability import to_json as metrics_to_json
        from .perf import PERF

        coverage = (suite.coverage.report()
                    if suite is not None and suite.coverage is not None
                    else None)
        with open(args.metrics_file, "w", encoding="utf-8") as handle:
            handle.write(metrics_to_json(PERF.snapshot(),
                                         coverage=coverage) + "\n")
        print(f"metrics: snapshot -> {args.metrics_file}", file=out)


def _write_causality(args: argparse.Namespace, simulation,
                     out=None) -> None:
    """Write the span / Perfetto exports after a run (PR 9)."""
    if not (args.spans_file or args.perfetto_file):
        return
    out = out if out is not None else sys.stdout
    causal = simulation.observability.causal
    if args.spans_file:
        with open(args.spans_file, "w", encoding="utf-8") as handle:
            handle.write(causal.to_span_jsonl())
        print(f"spans: {len(causal.events)} record(s), "
              f"{len(causal.roots())} causal root(s) -> "
              f"{args.spans_file}", file=out)
    if args.perfetto_file:
        with open(args.perfetto_file, "w", encoding="utf-8") as handle:
            handle.write(causal.to_perfetto() + "\n")
        print(f"perfetto: trace -> {args.perfetto_file} "
              f"(open in ui.perfetto.dev)", file=out)


def _campaign_spec(args: argparse.Namespace, name: str = "",
                   **options):
    """The :class:`~repro.faults.CampaignSpec` of ``campaign`` and
    ``submit``: the shared run flags, the seeds (``--seeds``, else
    ``--runs`` counted up from the fault campaign's base seed) and the
    name (``name``, else the fault campaign's, else ``"campaign"``).
    """
    from .faults import CampaignSpec, FaultCampaign

    campaign = FaultCampaign.from_file(args.faults) if args.faults \
        else None
    if args.seeds:
        try:
            seeds = [int(token) for token in
                     args.seeds.replace(",", " ").split()]
        except ValueError:
            raise ReproError(
                f"--seeds wants comma-separated integers, "
                f"got {args.seeds!r}")
    else:
        base = campaign.seed if campaign is not None else 0
        seeds = [base + offset for offset in range(args.runs)]
    if not name:
        name = campaign.name if campaign is not None else "campaign"
    return CampaignSpec(seeds=seeds, model=args.model, top=args.top,
                        campaign=args.faults or None,
                        until=args.until, quantum=args.quantum,
                        engine=args.engine,
                        on_part_error=args.on_part_error,
                        name=name,
                        properties=args.properties_file or None,
                        on_violation=args.on_violation, **options)


def cmd_campaign(args: argparse.Namespace) -> int:
    from .faults import run_campaign

    store = _activate_store(args)
    if store is not None:
        _register_model(store, _load(args.model))
    obs = bool(args.obs_report_file or args.obs_html_file)
    spec = _campaign_spec(args,
                          checkpoint_interval=args.checkpoint_interval,
                          coverage=bool(args.coverage_file), obs=obs)
    result = run_campaign(spec, workers=args.parallel,
                          journal=args.journal or None,
                          resume=args.resume,
                          run_timeout=args.run_timeout,
                          max_retries=args.retries,
                          progress=True if args.progress else None)
    resilience = result.resilience()
    print(f"campaign {result.name!r}: "
          f"{len(result.rows)}/{len(spec.seeds)} "
          f"seed(s) completed ({result.mode}, "
          f"{result.workers_used} worker(s))")
    if result.resumed_seeds:
        print(f"  resumed from journal: "
              f"{len(result.resumed_seeds)} seed(s) skipped")
    print(f"  injections: {resilience.total_injections}, "
          f"part failures: {len(resilience.part_failures)}, "
          f"quarantined: {len(resilience.quarantined)}")
    for failure in result.failures:
        print(f"  FAILED seed {failure['seed']} after "
              f"{failure['attempts']} attempt(s): {failure['error']}",
              file=sys.stderr)
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"report: merged campaign result -> {args.report_file}")
    if args.coverage_file:
        merged = result.coverage()
        if merged is not None:
            with open(args.coverage_file, "w",
                      encoding="utf-8") as handle:
                handle.write(merged.to_json(indent=2) + "\n")
            print(f"coverage: {merged.total_percent():.2f}% of "
                  f"{merged.total_bins()} bin(s) -> "
                  f"{args.coverage_file}")
    if obs:
        from .observability import (
            ObservabilityReport,
            campaign_fingerprint,
        )

        obs_report = ObservabilityReport.from_result(result)
        if args.obs_report_file:
            with open(args.obs_report_file, "w",
                      encoding="utf-8") as handle:
                handle.write(obs_report.to_json() + "\n")
            print(f"observability: {len(obs_report.seeds)} seed(s), "
                  f"{len(obs_report.hot_frames)} hot frame(s) -> "
                  f"{args.obs_report_file}")
        if args.obs_html_file:
            with open(args.obs_html_file, "w",
                      encoding="utf-8") as handle:
                handle.write(obs_report.to_html() + "\n")
            print(f"observability: HTML -> {args.obs_html_file}")
        if store is not None:
            key = campaign_fingerprint(spec)
            store.save("report", key, obs_report.to_dict(),
                       meta={"campaign": result.name,
                             "seeds": len(obs_report.seeds)},
                       label=f"obs-report {result.name}")
            print(f"observability: stored as report/{key}")
    aggregated = result.properties()
    if aggregated is not None:
        import json as json_module

        for name_, entry in sorted(aggregated["properties"].items()):
            print(f"  property {name_:24} pass rate "
                  f"{entry['pass_rate']:6.2f}% "
                  f"({entry['checked'] - len(entry['violated_seeds'])}"
                  f"/{entry['checked']} seed(s), "
                  f"{entry['violations']} violation(s))")
        if args.property_report_file:
            with open(args.property_report_file, "w",
                      encoding="utf-8") as handle:
                handle.write(json_module.dumps(aggregated, indent=2,
                                               sort_keys=True) + "\n")
            print(f"properties: {aggregated['verdict']} -> "
                  f"{args.property_report_file}")
    # Infrastructure failure outranks verdicts (the sweep is incomplete);
    # a completed sweep with violated properties exits 5, like simulate.
    if not result.ok:
        return 1
    if aggregated is not None and aggregated["verdict"] == "violated":
        print(f"exit {EXIT_PROPERTY_VIOLATED}: "
              f"{aggregated['total_violations']} property violation(s) "
              f"across {len(aggregated['seeds'])} seed(s)",
              file=sys.stderr)
        return EXIT_PROPERTY_VIOLATED
    return EXIT_OK


def _default_socket(args: argparse.Namespace) -> str:
    """Resolve the service socket: --socket, then $REPRO_SOCKET."""
    path = getattr(args, "socket_path", "")
    if path:
        return path
    path = os.environ.get("REPRO_SOCKET", "")
    if path:
        return path
    raise ReproError(
        "no service socket: pass --socket PATH or set REPRO_SOCKET "
        "(the daemon prints its socket path on startup)")


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the simulation service daemon."""
    import signal as signal_module

    from .service import ServiceServer, SimulationService

    store = _activate_store(args)
    socket_path = args.socket_path \
        or os.path.join(args.state_dir, "service.sock")
    service = SimulationService(
        args.state_dir,
        workers=args.workers,
        lease_duration=args.lease_duration,
        job_timeout=args.job_timeout,
        max_depth=args.max_depth,
        admission=args.admission,
        budget=args.budget,
        retry_backoff=args.retry_backoff,
        store=store)
    server = ServiceServer(service, socket_path)
    recovered = service.last_recovery
    if any(recovered.values()):
        print(f"recovered: {recovered['requeued']} requeued, "
              f"{recovered['republished']} republished, "
              f"{recovered['quarantined']} quarantined")
    server.bind()

    def _drain_handler(signum, frame):  # noqa: ARG001
        server.request_stop()

    previous = {}
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        previous[signum] = signal_module.signal(signum, _drain_handler)
    print(f"serving on {socket_path} "
          f"({service.workers} worker(s), "
          f"queue depth <= {service.max_depth}, "
          f"admission {service.admission})")
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal_module.signal(signum, handler)
    print("drained; queued jobs stay in the journal")
    return EXIT_OK


def _client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(_default_socket(args))


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: enqueue a campaign on the running daemon."""
    spec = _campaign_spec(args, name=args.name)
    client = _client(args)
    row = client.submit(spec.to_dict())
    verb = "coalesced into" if row.get("coalesced") else "submitted as"
    print(f"{verb} {row['job_id']} "
          f"(state {row['state']}, fingerprint {row['fingerprint']})")
    if not args.wait:
        return EXIT_OK
    row = client.wait(row["job_id"], timeout=args.timeout)
    return _print_job_outcome(client, row)


def _print_job_outcome(client, row) -> int:
    """Render a terminal job row (+ payload for done jobs)."""
    job_id = row["job_id"]
    if row["state"] != "done":
        print(f"{job_id}: {row['state']} after {row['attempts']} "
              f"attempt(s)"
              + (f": {row['error']}" if row.get("error") else ""),
              file=sys.stderr)
        return EXIT_QUARANTINED if row["state"] == "quarantined" \
            else 1
    payload = client.result(job_id)
    origin = "cache" if row.get("cached") else "simulation"
    result = payload.get("result", {})
    completed = result.get("completed", [])
    failures = result.get("failures", [])
    print(f"{job_id}: done ({origin}), "
          f"{len(completed)} seed(s) completed, "
          f"{len(failures)} failed")
    return EXIT_OK if payload.get("ok") else 1


def cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: one job's row, or the whole queue."""
    import json as json_module

    client = _client(args)
    if args.job_id:
        row = client.status(args.job_id)
        print(json_module.dumps(row, indent=2, sort_keys=True))
        return EXIT_OK
    status = client.status()
    for row in status["jobs"]:
        cached = " (cached)" if row.get("cached") else ""
        error = f"  {row['error']}" if row.get("error") else ""
        print(f"  {row['job_id']}  {row['state']:12} "
              f"attempts={row['attempts']} name={row['name']}"
              f"{cached}{error}")
    print(f"{len(status['jobs'])} job(s), depth {status['queue_depth']},"
          f" {status['leases']} lease(s)"
          + (", draining" if status["draining"] else ""))
    return EXIT_OK


def cmd_result(args: argparse.Namespace) -> int:
    """``repro result``: print (or save) a finished job's payload."""
    import json as json_module

    client = _client(args)
    if args.wait:
        row = client.wait(args.job_id, timeout=args.timeout)
        if row["state"] != "done":
            return _print_job_outcome(client, row)
    payload = client.result(args.job_id)
    text = json_module.dumps(payload, sort_keys=True,
                             separators=(",", ":"))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"result: {args.job_id} -> {args.output}")
    else:
        print(text)
    return EXIT_OK if payload.get("ok") else 1


def cmd_cancel(args: argparse.Namespace) -> int:
    """``repro cancel``: cancel a queued or running job."""
    client = _client(args)
    row = client.cancel(args.job_id)
    print(f"{row['job_id']}: {row['state']}")
    return EXIT_OK


def cmd_store(args: argparse.Namespace) -> int:
    """``repro store ls|info|gc``: inspect the artifact store."""
    import json as json_module

    from .store import ArtifactStore, ModelRegistry

    store = ArtifactStore(args.store_dir or None)
    if args.action == "info":
        print(json_module.dumps(store.info(), indent=2, sort_keys=True))
        return 0
    if args.action == "gc":
        removed = store.gc(max_age_s=args.max_age_s, kind=args.kind,
                           dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        for kind, key in removed:
            print(f"  {verb} {kind}/{key}")
        print(f"{verb} {len(removed)} artifact(s) from {store.root}")
        return 0
    # ls — either a registry query or a raw artifact listing
    if args.name or args.stereotype or args.profile_query:
        registry = ModelRegistry(store)
        records = registry.search(name=args.name or None,
                                  stereotype=args.stereotype or None,
                                  profile=args.profile_query or None)
        for record in records:
            print(f"  {record['name']:24} fp={record['fingerprint']} "
                  f"machines={len(record['machines'])} "
                  f"stereotypes={record['stereotypes']} "
                  f"profiles={record['profiles']}")
        print(f"{len(records)} model(s) matched in {store.root}")
        return 0
    entries = store.ls(args.kind)
    for entry in entries:
        flag = "  CORRUPT" if entry.get("corrupt") else ""
        meta = entry.get("meta", {})
        label = meta.get("machine") or meta.get("component") \
            or meta.get("name") or meta.get("transformation") or ""
        label = f" {label}" if label else ""
        print(f"  {entry['kind']:10} {entry['key']} "
              f"{entry['bytes']:>8}B age={entry['age_s']:.0f}s"
              f"{label}{flag}")
    print(f"{len(entries)} artifact(s) in {store.root}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .observability import to_json as metrics_to_json, to_prometheus

    coverage = None
    if args.snapshot:
        try:
            with open(args.snapshot, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except ValueError as error:
            raise ReproError(
                f"{args.snapshot}: not a JSON metrics snapshot: "
                f"{error}") from error
        if isinstance(payload, dict) and "perf" in payload:
            # a simulate --metrics file: snapshot under "perf",
            # coverage (when recorded) alongside it
            snapshot = payload["perf"]
            coverage = payload.get("coverage")
        else:
            snapshot = payload
    else:
        from .perf import PERF

        snapshot = PERF.snapshot()
    if args.coverage_file:
        try:
            with open(args.coverage_file, "r", encoding="utf-8") as handle:
                coverage = json.load(handle)
        except ValueError as error:
            raise ReproError(
                f"{args.coverage_file}: not a JSON coverage report: "
                f"{error}") from error
    if args.format == "prom":
        sys.stdout.write(to_prometheus(snapshot, coverage=coverage))
    else:
        print(metrics_to_json(snapshot, coverage=coverage))
    return 0


def cmd_trace_to_sequence(args: argparse.Namespace) -> int:
    import json
    from contextlib import nullcontext

    from .diagrams import render_interaction
    from .interactions import interaction_from_trace

    source = ("stdin" if args.trace == "-" else args.trace)
    opener = (nullcontext(sys.stdin) if args.trace == "-"
              else open(args.trace, "r", encoding="utf-8"))
    events = []
    with opener as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise ReproError(
                    f"{source}:{line_number}: not a JSON trace "
                    f"record: {error}") from error
            if args.part and record.get("part") not in args.part \
                    and record.get("sender") not in args.part:
                continue
            if args.signal and record.get("signal") not in args.signal:
                continue
            events.append(record)
    if not events:
        raise ReproError(
            f"{source}: no trace events"
            + (" matched the --part/--signal filters"
               if args.part or args.signal else
               " — is this a JSONL trace written by simulate --trace?"))
    interaction = interaction_from_trace(args.name, events,
                                         include_env=args.include_env,
                                         limit=args.limit)
    print(render_interaction(interaction))
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    from . import statemachines as st
    from .diagrams import (
        class_diagram,
        component_diagram,
        render,
        render_state_machine,
    )

    document = _load(args.model)
    scope = document.model
    if args.scope:
        scope = document.model.resolve(args.scope, mm.Package)
    if args.kind == "class":
        print(render(class_diagram(scope)))
    elif args.kind == "component":
        print(render(component_diagram(scope)))
    elif args.kind == "statemachine":
        machines = scope.descendants_of_type(st.StateMachine)
        if not machines:
            raise ReproError(f"no state machines under {scope.name!r}")
        for machine in machines:
            print(render_state_machine(machine))
    return 0


def _add_run_arguments(command: argparse.ArgumentParser) -> None:
    """Declare the run flags ``simulate``, ``campaign`` and ``submit``
    share, with one destination and default each."""
    command.add_argument("model")
    command.add_argument("--top", required=True,
                         help="qualified name, e.g. design::Top")
    command.add_argument("--faults", default="",
                         help="fault campaign JSON file to inject "
                              "(campaign and submit sweep it per "
                              "seed; see docs/FAULTS.md)")
    command.add_argument("--until", type=float, default=100.0)
    command.add_argument("--quantum", type=float, default=1.0)
    command.add_argument("--engine", default="compiled",
                         choices=ENGINE_MODES,
                         help="execution engine (default compiled; "
                              "interpreted is the reference); compiled "
                              "falls back to the interpreter per part "
                              "outside the compilable subset")
    command.add_argument("--on-part-error", default="raise",
                         choices=PART_ERROR_POLICIES,
                         dest="on_part_error",
                         help="policy when a part's behavior raises "
                              "(restore rolls back to the last "
                              "checkpoint)")
    command.add_argument("--properties", default="",
                         dest="properties_file", metavar="PATH",
                         help="check a temporal-property suite "
                              "(props.json) online on every run; "
                              "simulate and campaign exit 5 on a "
                              "violation (see docs/PROPERTIES.md)")
    command.add_argument("--on-violation", default="incident",
                         choices=VIOLATION_POLICIES, dest="on_violation",
                         help="what a property violation triggers "
                              "beyond the report: incident hooks "
                              "(flight-recorder post-mortem; default) "
                              "or supervisor escalation of the "
                              "witnessing part")


def _add_seed_arguments(command: argparse.ArgumentParser) -> None:
    """Declare the seed-list flags ``campaign`` and ``submit`` share."""
    command.add_argument("--seeds", default="",
                         help="explicit comma-separated seed list "
                              "(overrides --runs)")
    command.add_argument("--runs", type=int, default=1,
                         help="number of seeds, counted up from the "
                              "campaign's base seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UML 2.0 / SoC model toolchain (validate, "
                    "transform, generate, simulate)")
    parser.add_argument("--stats", action="store_true",
                        help="print perf counters (compile times, cache "
                             "hits, per-backend wall time) after the "
                             "command")
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="summarize a model file")
    info.add_argument("model")
    info.set_defaults(handler=cmd_info)

    validate = commands.add_parser("validate",
                                   help="run well-formedness rules")
    validate.add_argument("model")
    validate.set_defaults(handler=cmd_validate)

    generate = commands.add_parser("generate", help="generate code")
    generate.add_argument("model")
    generate.add_argument("--backend", default="vhdl",
                          choices=("vhdl", "verilog", "systemc",
                                   "python", "all"))
    generate.add_argument("--testbench", action="store_true",
                          help="also emit a testbench per component "
                               "(vhdl/verilog)")
    generate.add_argument("-o", "--output", default="generated")
    generate.set_defaults(handler=cmd_generate)

    transform = commands.add_parser("transform",
                                    help="PIM -> PSM (MDA mapping)")
    transform.add_argument("model")
    transform.add_argument("--platform", default="hw",
                           choices=("hw", "sw"))
    transform.add_argument("-o", "--output", default="psm.xmi")
    transform.add_argument("--store", default="", dest="store_dir",
                           metavar="DIR",
                           help="artifact store for warm PSM artifacts "
                                "(default: $REPRO_STORE when set)")
    transform.set_defaults(handler=cmd_transform)

    simulate = commands.add_parser("simulate",
                                   help="cosimulate a top component")
    _add_run_arguments(simulate)
    simulate.add_argument("--seed", type=int, default=None,
                          help="override the campaign's RNG seed")
    simulate.add_argument("--checkpoint-interval", type=float,
                          default=None, dest="checkpoint_interval",
                          metavar="T",
                          help="take per-part recovery snapshots every "
                               "T simulated time units")
    simulate.add_argument("--timeout", type=float, default=None,
                          help="wall-clock watchdog in seconds")
    simulate.add_argument("--trace", default="", dest="trace_file",
                          metavar="PATH",
                          help="stream every TraceEvent as JSON Lines "
                               "into PATH, or '-' for stdout (see "
                               "docs/TRACING.md)")
    simulate.add_argument("--spans", default="", dest="spans_file",
                          metavar="PATH",
                          help="causal span tracing: write the "
                               "provenance forest as JSONL span "
                               "records (see docs/OBSERVABILITY.md)")
    simulate.add_argument("--perfetto", default="", dest="perfetto_file",
                          metavar="PATH",
                          help="causal span tracing: write a "
                               "Chrome/Perfetto trace_event JSON (one "
                               "track per part, flow arrows for "
                               "cross-part causality)")
    simulate.add_argument("--coverage", default="", dest="coverage_file",
                          metavar="PATH",
                          help="collect functional coverage and write "
                               "the report JSON to PATH (see "
                               "docs/OBSERVABILITY.md)")
    simulate.add_argument("--profile", default="", dest="profile_file",
                          metavar="PATH",
                          help="profile simulated time per part/state "
                               "and write collapsed stacks (flamegraph "
                               "input) to PATH")
    simulate.add_argument("--profile-metric", default="time",
                          choices=("time", "steps"),
                          dest="profile_metric",
                          help="what --profile attributes: simulated "
                               "time or step counts")
    simulate.add_argument("--flight-recorder", type=int, default=0,
                          dest="flight_recorder", metavar="N",
                          help="keep the last N trace events in a ring "
                               "and auto-dump a JSONL post-mortem on "
                               "kernel errors / quarantines")
    simulate.add_argument("--flight-dump", default="", dest="flight_dump",
                          metavar="PATH",
                          help="where the post-mortem goes (default: "
                               "postmortem.jsonl)")
    simulate.add_argument("--metrics", default="", dest="metrics_file",
                          metavar="PATH",
                          help="write the perf snapshot (+ coverage, if "
                               "collected) as JSON for 'repro stats'")
    simulate.add_argument("--property-report", default="",
                          dest="property_report_file", metavar="PATH",
                          help="write the per-run PropertyReport JSON")
    simulate.add_argument("--store", default="", dest="store_dir",
                          metavar="DIR",
                          help="artifact store that registers the "
                               "model (default: $REPRO_STORE when "
                               "set)")
    simulate.set_defaults(handler=cmd_simulate)

    campaign = commands.add_parser(
        "campaign",
        help="sweep a fault campaign over many seeds (crash-tolerant, "
             "resumable)")
    _add_run_arguments(campaign)
    _add_seed_arguments(campaign)
    campaign.add_argument("--checkpoint-interval", type=float,
                          default=None, dest="checkpoint_interval",
                          metavar="T",
                          help="per-part recovery snapshot period "
                               "(simulated time)")
    campaign.add_argument("--parallel", type=int, default=0, metavar="N",
                          help="fan seeds over N worker processes "
                               "(0/1: serial in-process)")
    campaign.add_argument("--journal", default="", metavar="PATH",
                          help="append a JSONL row per completed seed "
                               "(enables --resume)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip seeds already completed in the "
                               "--journal file")
    campaign.add_argument("--run-timeout", type=float, default=None,
                          dest="run_timeout", metavar="S",
                          help="wall-clock budget per seed; hung "
                               "workers are killed and retried (runs "
                               "seeds in worker processes even "
                               "without --parallel)")
    campaign.add_argument("--retries", type=int, default=2,
                          help="infrastructure retries per seed "
                               "(crashes/timeouts; sim errors are "
                               "results, not retried)")
    campaign.add_argument("--report", default="", dest="report_file",
                          metavar="PATH",
                          help="write the merged campaign result JSON")
    campaign.add_argument("--obs-report", default="",
                          dest="obs_report_file", metavar="PATH",
                          help="collect full observability on every "
                               "seed (coverage + profiler + causal "
                               "index) and write the merged cross-seed "
                               "report JSON; stored as a 'report' "
                               "artifact when a store is active")
    campaign.add_argument("--obs-html", default="",
                          dest="obs_html_file", metavar="PATH",
                          help="also render the observability report "
                               "as a self-contained HTML page")
    campaign.add_argument("--progress", action="store_true",
                          help="live progress line on stderr (seeds "
                               "done/running/failed, events/s, ETA) "
                               "fed by the worker pool's heartbeats")
    campaign.add_argument("--coverage", default="", dest="coverage_file",
                          metavar="PATH",
                          help="collect per-seed functional coverage "
                               "and write the merged report JSON")
    campaign.add_argument("--property-report", default="",
                          dest="property_report_file", metavar="PATH",
                          help="write the aggregated per-property pass "
                               "rates / time-to-violation JSON")
    campaign.add_argument("--store", default="", dest="store_dir",
                          metavar="DIR",
                          help="artifact store that registers the "
                               "model and keeps the --obs-report "
                               "(default: $REPRO_STORE when set)")
    campaign.set_defaults(handler=cmd_campaign)

    serve = commands.add_parser(
        "serve",
        help="run the simulation service daemon (durable job queue "
             "over a local socket)")
    serve.add_argument("state_dir",
                       help="service state directory (journal, "
                            "result files)")
    serve.add_argument("--socket", default="", dest="socket_path",
                       metavar="PATH",
                       help="Unix socket to serve on (default: "
                            "STATE_DIR/service.sock)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent campaign leases")
    serve.add_argument("--lease", type=float, default=10.0,
                       dest="lease_duration", metavar="S",
                       help="seconds a lease survives without a "
                            "heartbeat before the job is requeued")
    serve.add_argument("--job-timeout", type=float, default=None,
                       dest="job_timeout", metavar="S",
                       help="wall-clock budget per lease; a hung "
                            "worker is killed and the job retried")
    serve.add_argument("--max-depth", type=int, default=64,
                       dest="max_depth",
                       help="bound on queued+running jobs "
                            "(admission control)")
    serve.add_argument("--admission", default="reject",
                       choices=("reject", "shed"),
                       help="policy at the depth bound: refuse the new "
                            "job, or shed the oldest queued one")
    serve.add_argument("--budget", type=int, default=3,
                       help="failed leases before a job is "
                            "quarantined as poison")
    serve.add_argument("--retry-backoff", type=float, default=0.25,
                       dest="retry_backoff", metavar="S",
                       help="base of the deterministic-jitter "
                            "exponential retry delay")
    serve.add_argument("--store", default="", dest="store_dir",
                       metavar="DIR",
                       help="artifact store for result dedupe "
                            "(default: $REPRO_STORE when set)")
    serve.set_defaults(handler=cmd_serve)

    submit = commands.add_parser(
        "submit",
        help="enqueue a campaign on a running service daemon")
    _add_run_arguments(submit)
    _add_seed_arguments(submit)
    submit.add_argument("--name", default="",
                        help="job display name (default: the fault "
                             "campaign's name); never part of the "
                             "dedupe fingerprint")
    submit.add_argument("--socket", default="", dest="socket_path",
                        metavar="PATH",
                        help="service socket (default: $REPRO_SOCKET)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal and "
                             "print its outcome")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait budget in seconds")
    submit.set_defaults(handler=cmd_submit)

    status = commands.add_parser(
        "status",
        help="show the service queue, or one job's status row")
    status.add_argument("job_id", nargs="?", default="",
                        help="job id (omit for the whole queue)")
    status.add_argument("--socket", default="", dest="socket_path",
                        metavar="PATH",
                        help="service socket (default: $REPRO_SOCKET)")
    status.set_defaults(handler=cmd_status)

    result = commands.add_parser(
        "result",
        help="fetch a finished job's result payload")
    result.add_argument("job_id")
    result.add_argument("--socket", default="", dest="socket_path",
                        metavar="PATH",
                        help="service socket (default: $REPRO_SOCKET)")
    result.add_argument("-o", "--output", default="",
                        help="write the payload here instead of stdout")
    result.add_argument("--wait", action="store_true",
                        help="block until the job is terminal first")
    result.add_argument("--timeout", type=float, default=300.0,
                        help="--wait budget in seconds")
    result.set_defaults(handler=cmd_result)

    cancel = commands.add_parser(
        "cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id")
    cancel.add_argument("--socket", default="", dest="socket_path",
                        metavar="PATH",
                        help="service socket (default: $REPRO_SOCKET)")
    cancel.set_defaults(handler=cmd_cancel)

    store = commands.add_parser(
        "store",
        help="inspect the content-addressed artifact store")
    store.add_argument("action", choices=("ls", "info", "gc"),
                       help="ls: list artifacts or query the model "
                            "registry; info: store-wide summary; gc: "
                            "evict artifacts")
    store.add_argument("--store", default="", dest="store_dir",
                       metavar="DIR",
                       help="store root (default: $REPRO_STORE or "
                            "~/.cache/repro)")
    store.add_argument("--kind", default=None,
                       help="restrict ls/gc to one artifact kind")
    store.add_argument("--name", default="",
                       help="registry query: model name substring")
    store.add_argument("--stereotype", default="",
                       help="registry query: applied stereotype name")
    store.add_argument("--profile", default="", dest="profile_query",
                       help="registry query: profile name")
    store.add_argument("--max-age-s", type=float, default=None,
                       help="gc: evict only artifacts idle longer than "
                            "this (default: evict everything)")
    store.add_argument("--dry-run", action="store_true",
                       help="gc: report what would be evicted")
    store.set_defaults(handler=cmd_store)

    stats = commands.add_parser(
        "stats",
        help="render a metrics snapshot as Prometheus text or JSON")
    stats.add_argument("snapshot", nargs="?", default="",
                       help="JSON file written by simulate --metrics "
                            "(default: this process's live counters)")
    stats.add_argument("--format", default="prom",
                       choices=("prom", "json"),
                       help="output format (Prometheus text exposition "
                            "or JSON)")
    stats.add_argument("--coverage", default="", dest="coverage_file",
                       metavar="PATH",
                       help="also export a coverage report JSON written "
                            "by simulate --coverage")
    stats.set_defaults(handler=cmd_stats)

    trace_to_sequence = commands.add_parser(
        "trace-to-sequence",
        help="turn a simulate --trace file into a PlantUML sequence "
             "diagram")
    trace_to_sequence.add_argument("trace",
                                   help="JSON Lines trace file written "
                                        "by simulate --trace, or '-' "
                                        "for stdin")
    trace_to_sequence.add_argument("--name", default="observed",
                                   help="interaction name (diagram title)")
    trace_to_sequence.add_argument("--part", action="append", default=[],
                                   metavar="NAME",
                                   help="keep only messages sent or "
                                        "received by this part "
                                        "(repeatable)")
    trace_to_sequence.add_argument("--signal", action="append",
                                   default=[], metavar="NAME",
                                   help="keep only messages carrying "
                                        "this signal (repeatable)")
    trace_to_sequence.add_argument("--include-env", action="store_true",
                                   dest="include_env",
                                   help="keep external stimuli (sender "
                                        "'env') in the diagram")
    trace_to_sequence.add_argument("--limit", type=int, default=None,
                                   help="stop after N messages")
    trace_to_sequence.set_defaults(handler=cmd_trace_to_sequence)

    diagram = commands.add_parser("diagram",
                                  help="export PlantUML diagrams")
    diagram.add_argument("model")
    diagram.add_argument("--kind", default="class",
                         choices=("class", "component", "statemachine"))
    diagram.add_argument("--scope", default="",
                         help="qualified package name (default: model)")
    diagram.set_defaults(handler=cmd_diagram)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        if args.stats:
            from .perf import PERF

            print(PERF.report())
        return status
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
