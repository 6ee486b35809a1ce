"""Command-line interface for the DOSAS reproduction.

Regenerate any paper artefact, run custom experiments, calibrate
kernels, and record/replay workload traces without writing code:

.. code-block:: console

    $ python -m repro figure 7                 # DOSAS vs AS vs TS, 128 MB
    $ python -m repro figure 7 --chart         # as a terminal line chart
    $ python -m repro table 4                  # decision accuracy
    $ python -m repro run --kernel sum --requests 16 --mb 512
    $ python -m repro run --faults degraded-node   # same, under failures
    $ python -m repro run --scheme dosas --trace t.json  # record a trace
    $ python -m repro trace validate t.json        # …and check it
    $ python -m repro trace critical-path t.json   # per-request breakdown
    $ python -m repro calibrate                # Table III on this host
    $ python -m repro sweep --kernel gaussian2d --mb 256
    $ python -m repro sweep --jobs 4 --cache .sweep-cache  # parallel + memoised
    $ python -m repro headline                 # the 40 % / 21 % claims
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.cluster.config import GB, MB
from repro.core import Scheme, WorkloadSpec, run_scheme
from repro.analysis import (
    bandwidth_figure,
    figure_series,
    format_table,
    headline_improvements,
    render_series,
    table3_rows,
)
from repro.analysis.charts import render_chart
from repro.analysis.figures import table4_accuracy, table4_rows
from repro.kernels.registry import list_kernels

#: figure id → (description, driver kwargs)
FIGURES: Dict[int, dict] = {
    2: dict(kernel="gaussian2d", size=128 * MB, schemes=(Scheme.TS, Scheme.AS),
            title="Figure 2 — Gaussian TS vs AS, 128 MB (motivation)"),
    4: dict(kernel="gaussian2d", size=128 * MB, schemes=(Scheme.TS, Scheme.AS),
            title="Figure 4 — Gaussian TS vs AS, 128 MB"),
    5: dict(kernel="gaussian2d", size=512 * MB, schemes=(Scheme.TS, Scheme.AS),
            title="Figure 5 — Gaussian TS vs AS, 512 MB"),
    6: dict(kernel="sum", size=128 * MB, schemes=(Scheme.TS, Scheme.AS),
            title="Figure 6 — SUM TS vs AS, 128 MB"),
    7: dict(kernel="gaussian2d", size=128 * MB,
            schemes=(Scheme.TS, Scheme.AS, Scheme.DOSAS),
            title="Figure 7 — DOSAS vs AS vs TS, 128 MB"),
    8: dict(kernel="gaussian2d", size=256 * MB,
            schemes=(Scheme.TS, Scheme.AS, Scheme.DOSAS),
            title="Figure 8 — DOSAS vs AS vs TS, 256 MB"),
    9: dict(kernel="gaussian2d", size=512 * MB,
            schemes=(Scheme.TS, Scheme.AS, Scheme.DOSAS),
            title="Figure 9 — DOSAS vs AS vs TS, 512 MB"),
    10: dict(kernel="gaussian2d", size=1 * GB,
             schemes=(Scheme.TS, Scheme.AS, Scheme.DOSAS),
             title="Figure 10 — DOSAS vs AS vs TS, 1 GB"),
    11: dict(bandwidth=True, size=256 * MB,
             title="Figure 11 — achieved bandwidth, 256 MB"),
    12: dict(bandwidth=True, size=512 * MB,
             title="Figure 12 — achieved bandwidth, 512 MB"),
}


def _emit_series(title: str, series: dict, chart: bool, out,
                 as_json: bool = False) -> None:
    if as_json:
        import json

        print(json.dumps({"title": title, "series": series}), file=out)
    elif chart:
        print(render_chart(title, series), file=out)
    else:
        print(render_series(title, "n_requests", series), file=out)


def cmd_figure(args, out=None) -> int:
    """Regenerate one of the paper's figures."""
    out = out if out is not None else sys.stdout
    spec = FIGURES.get(args.number)
    if spec is None:
        print(f"error: no figure {args.number}; choose from "
              f"{sorted(FIGURES)}", file=sys.stderr)
        return 2
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache", None)
    if spec.get("bandwidth"):
        series = bandwidth_figure(spec["size"], jobs=jobs, cache_dir=cache_dir)
    else:
        series = figure_series(spec["kernel"], spec["size"],
                               list(spec["schemes"]),
                               jobs=jobs, cache_dir=cache_dir)
    _emit_series(spec["title"], series, args.chart, out,
                 as_json=getattr(args, "json", False))
    return 0


def cmd_table(args, out=None) -> int:
    """Regenerate Table III or Table IV."""
    out = out if out is not None else sys.stdout
    if args.number == 3:
        rows = table3_rows()
        print(format_table(
            ["kernel", "measured MB/s", "paper MB/s"],
            [[r["kernel"], r["measured_mb_s"], r["paper_mb_s"] or "-"]
             for r in rows],
        ), file=out)
        return 0
    if args.number == 4:
        rows = table4_rows(jitter=True)
        print(format_table(
            ["#", "situation", "algorithm", "practice", "judgment"],
            [[r.situation, r.label, r.algorithm, r.practice,
              "TRUE" if r.judgment else "FALSE"] for r in rows],
        ), file=out)
        print(f"accuracy: {table4_accuracy(rows):.1%} (paper: 95%)", file=out)
        return 0
    print("error: only tables 3 and 4 exist in the paper", file=sys.stderr)
    return 2


def _fresh_tracer():
    """A Tracer for one scheme's run, with request ids rebased.

    Restarting the rid/parent counters before each run keeps exported
    traces deterministic (same seed ⇒ byte-identical file) and makes
    rids comparable across schemes in a multi-run export.
    """
    from repro.obs import Tracer
    from repro.pvfs.client import reset_parent_ids
    from repro.pvfs.requests import reset_request_ids

    reset_request_ids()
    reset_parent_ids()
    return Tracer()


def _write_trace(path: str, tracers, out) -> None:
    from repro.obs import write_chrome_trace

    write_chrome_trace(path, tracers)
    n = sum(len(t.events) for t in tracers.values())
    print(f"wrote {n} span events to {path}", file=out)


def _parse_tenants(specs: Sequence[str]):
    """``NAME:REQUESTS[:RATE_MB[:SLO_S]]`` strings → TenantSpec tuple.

    A missing rate leaves the tenant unpoliced (depth/intake checks
    only); a missing SLO disables attainment accounting.
    """
    from repro.qos import TenantSpec

    tenants = []
    for text in specs:
        parts = text.split(":")
        if len(parts) not in (2, 3, 4):
            raise ValueError(
                f"tenant spec {text!r} is not NAME:REQUESTS[:RATE_MB[:SLO_S]]"
            )
        name, requests = parts[0], int(parts[1])
        rate = float(parts[2]) * MB if len(parts) >= 3 else None
        slo = float(parts[3]) if len(parts) == 4 else None
        tenants.append(
            TenantSpec(name=name, requests=requests, rate=rate, slo_latency=slo)
        )
    return tuple(tenants)


def _tenant_rows(r) -> List[list]:
    rows = []
    for name, t in r.qos_stats["tenants"]["per_tenant"].items():
        ledger = t.get("ledger", {})
        att = t["slo_attainment"]
        rows.append([
            name, t["requests"], f"{t['goodput'] / MB:.1f}",
            "-" if att is None else f"{att:.0%}",
            f"{t['latency_max']:.2f}" if t["latency_max"] is not None else "-",
            f"{ledger.get('borrowed_bytes', 0.0) / MB:.1f}",
            f"{ledger.get('lent_bytes', 0.0) / MB:.1f}",
            int(ledger.get("denied", 0)),
        ])
    return rows


def cmd_run(args, out=None) -> int:
    """Run one custom workload point under all three schemes.

    With ``--faults <scenario>`` the point runs under that failure
    schedule (see ``repro.faults``) and the table switches to the
    fault metrics: goodput, retries, recovery latency, wasted work.
    With ``--trace FILE`` each scheme's run is recorded and the merged
    Chrome-trace export written to FILE (``--scheme`` restricts the
    run to one scheme).  With ``--tenants`` the workload becomes a
    multi-tenant mix, per-tenant policing with token borrowing is
    armed (``--no-borrow`` pins the static partition) and a per-tenant
    table follows each scheme's row.
    """
    out = out if out is not None else sys.stdout
    if args.kernel not in list_kernels():
        print(f"error: unknown kernel {args.kernel!r}; known: "
              f"{list_kernels()}", file=sys.stderr)
        return 2
    if args.replicas > args.storage_nodes:
        print("error: --replicas cannot exceed --storage-nodes",
              file=sys.stderr)
        return 2
    tenants = ()
    if getattr(args, "tenants", None):
        if getattr(args, "faults", None):
            print("error: --tenants and --faults cannot be combined "
                  "(run 'repro scenario run kitchen-sink-chaos' for "
                  "tenants under faults)",
                  file=sys.stderr)
            return 2
        try:
            tenants = _parse_tenants(args.tenants)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    spec = WorkloadSpec(
        kernel=args.kernel,
        n_requests=args.requests,
        request_bytes=args.mb * MB,
        n_storage=args.storage_nodes,
        jitter=args.jitter,
        seed=args.seed,
        kernel_slots=args.kernel_slots,
        straggler_scheduler=args.straggler,
        n_replicas=args.replicas,
        tenants=tenants,
    )
    if getattr(args, "faults", None):
        return _run_with_faults(args, spec, out)
    qos = retry = None
    if tenants:
        # Tenant-denied work recovers through the retry machinery, so
        # policed runs always arm a patient policy and an effectively
        # boundless budget — fairness, not fault tolerance, is shown.
        from repro.qos import QoSConfig
        from repro.scenario.compile import PATIENT_RETRY

        qos = QoSConfig(
            max_queue_depth=8 * max(1, spec.total_requests // spec.n_storage),
            breaker_threshold=10_000,
            retry_budget=None,
            tenant_borrow=not args.no_borrow,
        )
        retry = PATIENT_RETRY
    schemes = [Scheme(args.scheme)] if getattr(args, "scheme", None) \
        else list(Scheme)
    trace_path = getattr(args, "trace", None)
    tracers = {}
    rows = []
    tenant_tables = []
    for scheme in schemes:
        tracer = _fresh_tracer() if trace_path else None
        r = run_scheme(scheme, spec, tracer=tracer, qos=qos,
                       retry_policy=retry,
                       sim_scheduler=getattr(args, "sim_scheduler", "calendar"))
        if tracer is not None:
            tracers[scheme.value] = tracer
        rows.append([scheme.value, r.makespan, r.bandwidth / MB,
                     r.served_active, r.demoted, r.interrupted])
        if tenants:
            tenant_tables.append((scheme.value, _tenant_rows(r)))
    print(format_table(
        ["scheme", "makespan (s)", "bandwidth (MB/s)",
         "offloaded", "demoted", "migrated"],
        rows,
    ), file=out)
    for scheme_name, t_rows in tenant_tables:
        print(f"\ntenants under {scheme_name} "
              f"(borrowing {'off' if args.no_borrow else 'on'}):", file=out)
        print(format_table(
            ["tenant", "requests", "goodput (MB/s)", "SLO att",
             "max lat (s)", "borrowed (MB)", "lent (MB)", "denied"],
            t_rows,
        ), file=out)
    if trace_path:
        _write_trace(trace_path, tracers, out)
    return 0


def _run_with_faults(args, spec: WorkloadSpec, out) -> int:
    from repro.analysis.faults import summarize_fault_run
    from repro.faults import SCENARIOS, scenario

    if args.faults not in SCENARIOS:
        print(f"error: unknown fault scenario {args.faults!r}; known: "
              f"{sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    overrides = {}
    if args.fault_at is not None:
        overrides["at"] = args.fault_at
    if args.faults == "chaos":
        overrides.setdefault("seed", args.seed if args.seed is not None else 0)
        overrides["n_targets"] = spec.n_storage
    elif args.faults == "stragglers":
        overrides.setdefault("seed", args.seed if args.seed is not None else 0)
        overrides["n_servers"] = spec.n_storage
    sched = scenario(args.faults, **overrides)
    print(f"scenario: {sched.name}  "
          f"(events={len(sched.timeline())}, horizon={sched.horizon}s, "
          f"retry timeout={sched.retry.timeout}s "
          f"x{sched.retry.max_retries})", file=out)
    schemes = [Scheme(args.scheme)] if getattr(args, "scheme", None) \
        else list(Scheme)
    trace_path = getattr(args, "trace", None)
    tracers = {}
    rows = []
    sim_scheduler = getattr(args, "sim_scheduler", "calendar")
    for scheme in schemes:
        healthy = run_scheme(scheme, spec, sim_scheduler=sim_scheduler)
        tracer = _fresh_tracer() if trace_path else None
        faulty = run_scheme(scheme, spec, fault_schedule=sched,
                            tracer=tracer, sim_scheduler=sim_scheduler)
        if tracer is not None:
            tracers[scheme.value] = tracer
        m = summarize_fault_run(faulty, baseline=healthy)
        rows.append([
            scheme.value, f"{m.makespan:.3f}", f"{m.goodput_mb_s:.1f}",
            f"{m.goodput_retention:.1%}", m.retries, m.recovered_requests,
            f"{m.mean_recovery_latency:.3f}", f"{m.wasted_mb:.1f}",
        ])
    print(format_table(
        ["scheme", "makespan (s)", "goodput (MB/s)", "retention",
         "retries", "recovered", "mean recovery (s)", "wasted (MB)"],
        rows,
    ), file=out)
    if trace_path:
        _write_trace(trace_path, tracers, out)
    return 0


def cmd_sweep(args, out=None) -> int:
    """Sweep request counts for one kernel/size (a custom figure).

    ``--jobs N`` fans the grid's independent simulations across N
    worker processes; ``--cache DIR`` memoises completed points so a
    re-run only simulates what changed.  Results are identical to the
    serial, uncached run.
    """
    out = out if out is not None else sys.stdout
    series = figure_series(
        args.kernel, args.mb * MB,
        [Scheme.TS, Scheme.AS, Scheme.DOSAS],
        counts=tuple(args.counts),
        jobs=args.jobs,
        cache_dir=args.cache,
    )
    _emit_series(
        f"{args.kernel} exec time (s), {args.mb} MB/request",
        series, args.chart, out, as_json=getattr(args, "json", False),
    )
    return 0


def cmd_calibrate(args, out=None) -> int:
    """Measure this host's kernel rates (Table III methodology)."""
    out = out if out is not None else sys.stdout
    from repro.kernels.calibrate import calibration_table
    from repro.kernels.registry import default_registry

    kernels = None
    if args.all:
        kernels = [default_registry.get(n) for n in default_registry.names()]
    rows = calibration_table(kernels=kernels, nbytes=args.mb * MB)
    print(format_table(
        ["kernel", "measured MB/s", "paper MB/s"],
        [[r["kernel"], r["measured_mb_s"], r["paper_mb_s"] or "-"]
         for r in rows],
    ), file=out)
    return 0


def cmd_gantt(args, out=None) -> int:
    """Run one workload point and draw its per-request timeline."""
    out = out if out is not None else sys.stdout
    from repro.analysis import records_from_scheme_result, render_gantt

    if args.kernel not in list_kernels():
        print(f"error: unknown kernel {args.kernel!r}", file=sys.stderr)
        return 2
    spec = WorkloadSpec(
        kernel=args.kernel,
        n_requests=args.requests,
        request_bytes=args.mb * MB,
        arrival_spacing=args.spacing,
        probe_period=0.25,
    )
    scheme = Scheme(args.scheme)
    result = run_scheme(scheme, spec)
    records = records_from_scheme_result(result)
    print(render_gantt(
        records,
        title=(f"{scheme.value.upper()} — {args.requests} x {args.mb} MB "
               f"{args.kernel}, spacing {args.spacing}s"),
    ), file=out)
    return 0


def cmd_trace(args, out=None) -> int:
    """Generate, inspect or replay workload traces (JSON lines)."""
    out = out if out is not None else sys.stdout
    from repro.core import run_plan
    from repro.workload import (
        ArrivalPattern,
        BatchApplication,
        WorkloadGenerator,
        load_trace,
        save_trace,
    )

    if args.trace_command == "generate":
        apps = []
        for spec_str in args.apps:
            parts = spec_str.split(":")
            if len(parts) not in (3, 4):
                print(f"error: app spec {spec_str!r} is not "
                      "name:processes:mb[:operation]", file=sys.stderr)
                return 2
            name, nproc, mb = parts[0], int(parts[1]), int(parts[2])
            operation = parts[3] if len(parts) == 4 else None
            if operation is not None and operation not in list_kernels():
                print(f"error: unknown kernel {operation!r}", file=sys.stderr)
                return 2
            apps.append(BatchApplication(name, nproc, mb * MB,
                                         operation=operation))
        plan = WorkloadGenerator(args.seed).plan(
            apps, ArrivalPattern.POISSON if args.poisson else
            ArrivalPattern.BATCH, rate=args.rate,
        )
        n = save_trace(plan, args.out)
        print(f"wrote {n} requests to {args.out}", file=out)
        return 0

    if args.trace_command == "show":
        plan = load_trace(args.file)
        print(format_table(
            ["app", "proc", "seq", "arrival (s)", "MB", "kind", "operation"],
            [[r.app, r.process_index, r.sequence, r.arrival_time,
              r.size // MB, "active" if r.active else "normal",
              r.operation or "-"] for r in plan],
        ), file=out)
        return 0

    if args.trace_command == "run":
        plan = load_trace(args.file)
        spec = WorkloadSpec(n_storage=args.storage_nodes, probe_period=0.25)
        trace_path = getattr(args, "trace", None)
        tracers = {}
        rows = []
        schemes = [Scheme(args.scheme)] if args.scheme else list(Scheme)
        for scheme in schemes:
            tracer = _fresh_tracer() if trace_path else None
            r = run_plan(scheme, plan, spec, tracer=tracer)
            if tracer is not None:
                tracers[scheme.value] = tracer
            rows.append([scheme.value, r.makespan, r.mean_latency,
                         r.served_active, r.demoted, r.interrupted])
        print(format_table(
            ["scheme", "makespan (s)", "mean latency (s)",
             "offloaded", "demoted", "migrated"],
            rows,
        ), file=out)
        if trace_path:
            _write_trace(trace_path, tracers, out)
        return 0

    if args.trace_command == "validate":
        return _trace_validate(args, out)

    if args.trace_command == "critical-path":
        return _trace_critical_path(args, out)

    print("error: unknown trace subcommand", file=sys.stderr)
    return 2


def _trace_validate(args, out) -> int:
    """Check a trace export's structure and span accounting."""
    import json

    from repro.obs import events_from_file, validate_chrome_trace
    from repro.analysis.critical_path import unclosed_requests

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_chrome_trace(doc)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    events = events_from_file(args.file)
    open_rids = unclosed_requests(events)
    if open_rids:
        print(f"error: {len(open_rids)} request span(s) never closed: "
              f"rids {open_rids[:10]}", file=sys.stderr)
        return 1
    print(f"{args.file}: OK ({len(doc['traceEvents'])} trace events, "
          f"{len(events)} spans, all request spans closed)", file=out)
    return 0


def _trace_critical_path(args, out) -> int:
    """Per-request latency breakdown of a trace export."""
    import json

    from repro.obs import SpanEvent, validate_chrome_trace
    from repro.analysis.critical_path import (
        critical_paths,
        format_critical_path_table,
    )

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_chrome_trace(doc)
    if errors:
        print(f"error: invalid trace file: {errors[0]}", file=sys.stderr)
        return 1
    raw = doc["spans"]
    run = getattr(args, "run", None)
    if run:
        # Multi-run exports label each raw span with its run (scheme).
        raw = [d for d in raw if d.get("run") == run]
        if not raw:
            runs = sorted({d.get("run") for d in doc["spans"]})
            print(f"error: no events for run {run!r} in {args.file}; "
                  f"runs: {runs}", file=sys.stderr)
            return 2
    paths = critical_paths(SpanEvent.from_dict(d) for d in raw)
    if not paths:
        print("no request spans in trace", file=out)
        return 0
    print(format_critical_path_table(paths), file=out)
    return 0


def cmd_headline(args, out=None) -> int:
    """The paper's Sec. IV-B.3 improvement claims."""
    out = out if out is not None else sys.stdout
    h = headline_improvements()
    print(format_table(
        ["contention", "vs", "measured", "paper"],
        [
            ["low (n=1)", "TS", f"{h['low_vs_ts']:.1%}", "~40%"],
            ["low (n=1)", "AS", f"{h['low_vs_as']:.1%}", "~0%"],
            ["high (n=32)", "AS", f"{h['high_vs_as']:.1%}", "~21%"],
            ["high (n=32)", "TS", f"{h['high_vs_ts']:.1%}", "~0%"],
        ],
    ), file=out)
    return 0


def _resolve_scenario(ref: str):
    """A scenario from a file path or a built-in library name."""
    import os

    from repro.scenario import BUILTIN, get_scenario, load_scenario

    if os.path.exists(ref) or ref.endswith((".yaml", ".yml", ".json")):
        return load_scenario(ref)
    if ref in BUILTIN:
        return get_scenario(ref)
    raise ValueError(
        f"unknown scenario {ref!r}: not a file, not a built-in "
        f"(built-ins: {sorted(BUILTIN)})"
    )


def _scenario_run_table(report) -> str:
    """Human rendering of one scenario report."""
    rows = []
    for sr in report.seeds:
        for run in sr.runs:
            att = ", ".join(
                f"{k}={v:.0%}" for k, v in sorted(run.attainment.items())
            )
            rows.append([
                sr.seed, f"{run.scheme}/{run.mode}",
                "-" if run.failed else f"{run.goodput / MB:.1f}",
                "-" if run.failed else f"{run.makespan:.2f}",
                "-" if run.failed else f"{run.latency['p99']:.3f}",
                run.retries, run.hedges_issued, att or "-",
                len(run.violations),
            ])
    return format_table(
        ["seed", "run", "goodput (MB/s)", "makespan (s)", "p99 (s)",
         "retries", "hedges", "SLO attainment", "violations"],
        rows,
    )


def _scenario_report(report, args, out) -> int:
    violations = report.violations()
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if getattr(args, "json", False):
        print(report.to_json(), file=out)
    else:
        print(f"scenario: {report.scenario}  "
              f"(baseline: {report.baseline}, "
              f"tags: {', '.join(report.tags) or '-'})", file=out)
        print(_scenario_run_table(report), file=out)
        for v in violations:
            print(f"VIOLATION: {v}", file=out)
        if not violations:
            print("all invariants hold", file=out)
    return 1 if violations else 0


def cmd_scenario(args, out=None) -> int:
    """Declarative scenarios: list, validate, run, dump, smoke."""
    out = out if out is not None else sys.stdout
    from repro.scenario import (
        BUILTIN,
        ScenarioError,
        dumps_scenario,
        get_scenario,
        list_scenarios,
        run_scenario,
        smoke_scenarios,
        validate_scenario,
    )

    if args.scenario_command == "list":
        rows = []
        for name in list_scenarios():
            data = BUILTIN[name]
            rows.append([
                name,
                ", ".join(data.get("tags", [])) or "-",
                data.get("description", "")[:64],
            ])
        print(format_table(["scenario", "tags", "description"], rows),
              file=out)
        return 0

    if args.scenario_command == "validate":
        failures = 0
        for ref in args.scenarios:
            try:
                sc = _resolve_scenario(ref)
                validate_scenario(sc)
            except (ScenarioError, ValueError) as err:
                print(f"error: {err}", file=sys.stderr)
                failures += 1
                continue
            print(f"{ref}: OK ({sc.name}, "
                  f"{sc.total_requests} requests, "
                  f"{len(sc.run.seeds)} seeds)", file=out)
        return 2 if failures else 0

    if args.scenario_command == "dump":
        try:
            sc = get_scenario(args.name)
        except KeyError as err:
            print(f"error: {err.args[0]}", file=sys.stderr)
            return 2
        try:
            text = dumps_scenario(sc, fmt=args.format)
        except ScenarioError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {sc.name} to {args.out}", file=out)
        else:
            print(text, end="", file=out)
        return 0

    if args.scenario_command == "run":
        try:
            sc = _resolve_scenario(args.scenario)
            validate_scenario(sc)
        except (ScenarioError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        seeds = tuple(args.seed) if args.seed else None
        report = run_scenario(sc, seeds=seeds)
        return _scenario_report(report, args, out)

    if args.scenario_command == "smoke":
        import json as _json

        names = list_scenarios() if args.all else smoke_scenarios()
        seeds = tuple(args.seed) if args.seed else None
        failures = 0
        combined = {}
        for name in names:
            sc = get_scenario(name)
            validate_scenario(sc)
            report = run_scenario(sc, seeds=seeds)
            violations = report.violations()
            combined[name] = _json.loads(report.to_json())
            status = "OK" if not violations else "FAIL"
            print(f"{name}: {status} "
                  f"({len(report.seeds)} seeds)", file=out)
            for v in violations:
                print(f"  VIOLATION: {v}", file=out)
            failures += bool(violations)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_json.dumps(combined, sort_keys=True, indent=2)
                         + "\n")
        print(f"{len(names) - failures}/{len(names)} scenarios clean",
              file=out)
        return 1 if failures else 0

    print("error: unknown scenario subcommand", file=sys.stderr)
    return 2


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``scenario run`` and its ``soak`` alias share."""
    p.add_argument("--seed", type=int, nargs="+", default=None,
                   help="override the scenario's seed list")
    p.add_argument("--json", action="store_true",
                   help="print the deterministic JSON report")
    p.add_argument("--out", metavar="FILE",
                   help="also write the JSON report to FILE")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DOSAS (CLUSTER 2012) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the figure's sweep")
    p.add_argument("--cache", metavar="DIR",
                   help="memoise completed sweep points in DIR")
    p.add_argument("--chart", action="store_true",
                   help="draw a terminal line chart instead of a table")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of a table")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("table", help="regenerate a paper table (3 or 4)")
    p.add_argument("number", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("run", help="run one custom workload point")
    p.add_argument("--kernel", default="gaussian2d")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--mb", type=int, default=128)
    p.add_argument("--storage-nodes", type=int, default=1)
    p.add_argument("--kernel-slots", type=int, default=1)
    p.add_argument("--jitter", action="store_true")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the library's fixed "
                        "default seed; 0 is a real seed, not the default)")
    p.add_argument("--faults", metavar="SCENARIO",
                   help="inject a failure scenario (degraded-node, "
                        "crash-restart, partition, kernel-stall, "
                        "probe-loss, chaos, slowdown, stragglers)")
    p.add_argument("--straggler", action="store_true",
                   help="arm the straggler-aware dispatcher (latency "
                        "board, replica routing, hedged reads)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replicas per stripe unit (chained declustering); "
                        ">1 gives the straggler dispatcher real choices")
    p.add_argument("--fault-at", type=float, default=None,
                   help="override the scenario's first-fault time (s)")
    p.add_argument("--scheme", choices=[s.value for s in Scheme],
                   help="run only one scheme instead of all three")
    p.add_argument("--trace", metavar="FILE",
                   help="record the run(s) and write a Chrome trace "
                        "export to FILE (open in chrome://tracing)")
    p.add_argument("--tenants", nargs="+",
                   metavar="NAME:REQUESTS[:RATE_MB[:SLO_S]]",
                   help="multi-tenant mix: per-tenant demand (active "
                        "reads per storage node), rate guarantee in "
                        "MB/s per server, and SLO latency in seconds; "
                        "replaces --requests and arms per-tenant "
                        "policing with token borrowing")
    p.add_argument("--no-borrow", action="store_true",
                   help="with --tenants: static partition (disable the "
                        "decentralized token borrowing)")
    p.add_argument("--sim-scheduler", choices=["calendar", "heap"],
                   default="calendar",
                   help="engine event scheduler (result-identical per "
                        "seed; calendar, which batches events per "
                        "timestamp, is the default, heap the reference)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep request counts")
    p.add_argument("--kernel", default="gaussian2d")
    p.add_argument("--mb", type=int, default=128)
    p.add_argument("--counts", type=int, nargs="+",
                   default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep (1 = in-process)")
    p.add_argument("--cache", metavar="DIR",
                   help="memoise completed sweep points in DIR")
    p.add_argument("--chart", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    p = sub.add_parser("calibrate", help="measure kernel rates on this host")
    p.add_argument("--mb", type=int, default=8)
    p.add_argument("--all", action="store_true",
                   help="include extension kernels")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("headline", help="the 40%%/21%% improvement claims")
    p.set_defaults(func=cmd_headline)

    p = sub.add_parser(
        "scenario",
        help="declarative scenarios: list / validate / run / dump / smoke")
    scen_sub = p.add_subparsers(dest="scenario_command", required=True)
    sl = scen_sub.add_parser("list", help="the built-in scenario library")
    sl.set_defaults(func=cmd_scenario)
    sv = scen_sub.add_parser(
        "validate", help="strict-validate scenario files or built-ins")
    sv.add_argument("scenarios", nargs="+", metavar="FILE_OR_NAME")
    sv.set_defaults(func=cmd_scenario)
    sr = scen_sub.add_parser(
        "run", help="run one scenario through the invariant engine")
    sr.add_argument("scenario", metavar="FILE_OR_NAME")
    _add_run_flags(sr)
    sr.set_defaults(func=cmd_scenario)
    sd = scen_sub.add_parser(
        "dump", help="render a built-in scenario as YAML/JSON")
    sd.add_argument("name")
    sd.add_argument("--format", choices=["json", "yaml"], default="json")
    sd.add_argument("--out", metavar="FILE")
    sd.set_defaults(func=cmd_scenario)
    ss = scen_sub.add_parser(
        "smoke", help="run the smoke-tagged subset; exit 1 on violations")
    ss.add_argument("--all", action="store_true",
                    help="run the whole library, not just the smoke tags")
    ss.add_argument("--seed", type=int, nargs="+", default=None,
                    help="override every scenario's seed list")
    ss.add_argument("--out", metavar="FILE",
                    help="write the combined JSON report to FILE")
    ss.set_defaults(func=cmd_scenario)

    p = sub.add_parser(
        "soak", help="alias of 'scenario run', defaulting to chaos-soak")
    p.add_argument("scenario", nargs="?", default="chaos-soak",
                   metavar="FILE_OR_NAME",
                   help="a YAML/JSON scenario file or a built-in name "
                        "(default: chaos-soak)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_scenario, scenario_command="run")

    p = sub.add_parser("gantt", help="per-request timeline of one run")
    p.add_argument("--scheme", default="dosas", choices=[s.value for s in Scheme])
    p.add_argument("--kernel", default="gaussian2d")
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--mb", type=int, default=128)
    p.add_argument("--spacing", type=float, default=0.0)
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser("trace", help="generate / show / replay traces")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    g = trace_sub.add_parser("generate", help="build a trace from app specs")
    g.add_argument("--apps", nargs="+", required=True,
                   metavar="name:processes:mb[:operation]")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--poisson", action="store_true")
    g.add_argument("--rate", type=float, default=1.0)
    g.set_defaults(func=cmd_trace)
    s = trace_sub.add_parser("show", help="print a trace")
    s.add_argument("file")
    s.set_defaults(func=cmd_trace)
    r = trace_sub.add_parser("run", help="replay a trace")
    r.add_argument("file")
    r.add_argument("--scheme", choices=[sv.value for sv in Scheme])
    r.add_argument("--storage-nodes", type=int, default=1)
    r.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace export of the replay")
    r.set_defaults(func=cmd_trace)
    v = trace_sub.add_parser(
        "validate", help="check a trace export's structure and spans")
    v.add_argument("file")
    v.set_defaults(func=cmd_trace)
    c = trace_sub.add_parser(
        "critical-path", help="per-request latency breakdown of an export")
    c.add_argument("file")
    c.add_argument("--run", help="restrict to one run label (scheme)")
    c.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except (OSError, ValueError):
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
