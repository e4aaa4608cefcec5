"""Command-line interface.

``repro-lumos`` exposes the core workflow of the paper's Figure 2:

* ``emulate``  — run the cluster emulator and save Kineto-style traces
  (the substitute for profiling a real training job); with
  ``--workload serving`` it emulates an LLM inference episode
  (prefill + autoregressive decode) instead of a training iteration;
* ``replay``   — build the execution graph from saved traces and replay it;
* ``breakdown`` — print the execution-time breakdown of saved traces;
* ``predict``  — manipulate the graph of a base trace to estimate a new
  ``--target`` (a TPxPPxDP parallelism label, a model name, serving
  knobs ``batch=/prompt=/tp=``, or a hardware retarget ``gpu=H200-SXM``
  — composable with one workload axis, ``"tp=8,gpu=H200-SXM"`` — the
  kind is auto-detected, or forced with a ``parallelism:`` / ``model:``
  / ``serving:`` / ``hardware:`` prefix); for continuous-batching
  traces the report includes TTFT, latency percentiles, tokens/s and
  SLO goodput at ``--slo-ms``;
* ``sweep``    — evaluate a whole grid of what-if scenarios from one base
  trace, with a process pool and an on-disk result cache; repeatable
  ``--target`` flags populate the axes the same way;
* ``export-timeline`` — render a trace's profiled, replayed and predicted
  schedules as chrome-trace JSON for Perfetto / ``chrome://tracing``;
  continuous-batching episodes add one per-request Gantt track block;
* ``serve``    — run the sweep service (:mod:`repro.service`): an HTTP
  API + worker queue over the shared on-disk sweep cache, with
  server-registered trace bundles (``--trace NAME=DIR``, repeatable);
* ``work``     — run a dedicated worker fleet (one process, ``--workers
  N`` threads) draining a *shared* service ``--root`` alongside any
  servers and other fleets on it; claims are heartbeated leases, so a
  SIGKILLed fleet's jobs are requeued and re-run by the survivors, and
  SIGTERM drains gracefully (finish the in-flight job, release its
  lease, exit 0);
* ``submit``   — submit a sweep (or ``--predict`` single prediction) to
  a running service, long-poll to completion and print the ranked
  table — the same unified ``--target`` flags as ``predict``/``sweep``;
  ``--webhook URL`` asks the server to POST the terminal job record
  (the server must opt in: ``serve --allow-webhooks`` / ``--webhook-host``);
* ``cache``    — operate a long-lived shared sweep cache: ``stats``
  prints entry/bundle counts and bytes, ``prune --max-size-mb`` evicts
  oldest-first down to a size budget.

``emulate --workload serving --arrival poisson:rate=100,n=16,seed=3``
emulates a continuous-batching *stream* (Poisson / bursty / trace
arrivals) instead of one fixed batch.

Every subcommand accepts ``--profile out.json`` to collect the pipeline's
own spans and metrics (:mod:`repro.observability`) and write the
structured run report next to the command's normal output.

``predict``, ``sweep`` and ``export-timeline`` take each base flag left
out from the trace, then the defaults (:func:`repro.api.study.
resolve_base`).  ``sweep`` has one path: a ``--spec`` file, or the JSON
spec its ``--target``/``--whatif`` flags make, fills its omitted base
keys from those flags first, and runs on the study
:func:`~repro.sweep.runner.open_study` opens for it.

Every subcommand is a thin presentation layer over :class:`repro.api.Study`
— the library owns replay, calibration, manipulation and memoization; the
CLI parses arguments, formats tables and maps typed errors (e.g.
:class:`repro.api.PredictError` for unsupported targets) to exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.analysis.reporting import breakdown_headers, format_breakdown_row, format_table
from repro.api import Study, StudyError
from repro.api.study import BASE_DEFAULTS
from repro.baselines.dpro import dpro_replay
from repro.core.breakdown import compute_breakdown
from repro.emulator.api import emulate
from repro.observability import export_timeline
from repro.observability import tracing as observability
from repro.sweep import SweepSpec, SweepSpecError
from repro.sweep.analysis import format_report
from repro.sweep.runner import open_study
from repro.sweep.spec import inline_spec
from repro.trace.kineto import TraceBundle
from repro.version import __version__
from repro.workload.arrivals import parse_arrival
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


def _add_workload_arguments(parser: argparse.ArgumentParser, *,
                            from_trace: bool = False) -> None:
    """The four base flags (left out on a ``from_trace`` command: the
    trace's value, then the default)."""
    for flag, kind, text in (("--model", str, "model name (Table 1/2)"),
                             ("--parallelism", str, "TPxPPxDP label"),
                             ("--micro-batch-size", int, "samples per micro-batch"),
                             ("--num-microbatches", int, "micro-batches per iteration")):
        default = BASE_DEFAULTS[flag[2:].replace("-", "_")]
        source = "the trace's, else " if from_trace else ""
        parser.add_argument(flag, type=kind, default=None if from_trace else default,
                            help=f"{text} (default: {source}{default})")


def _named_base(args: argparse.Namespace) -> dict[str, Any]:
    """The base keys a trace command's flags name; ``None`` applies the rule."""
    return {key: getattr(args, key) for key in BASE_DEFAULTS}


def _inference_from_args(args: argparse.Namespace) -> InferenceConfig:
    arrival = parse_arrival(args.arrival) if getattr(args, "arrival", None) else None
    return InferenceConfig(batch_size=args.requests,
                           prompt_length=args.prompt_length,
                           decode_length=args.decode_length,
                           kv_dtype=args.kv_dtype,
                           arrival=arrival)


def _target_parent() -> argparse.ArgumentParser:
    """Shared ``--target`` options for predict / sweep / export-timeline."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--target", action="append", default=[],
                        metavar="[KIND:]TARGET",
                        help="prediction target (repeatable): a TPxPPxDP "
                             "label, a model name, serving knobs "
                             "'batch=N,prompt=N,tp=N', or a GPU retarget "
                             "'gpu=H200-SXM' (composable with one workload "
                             "axis, e.g. 'tp=8,gpu=H200-SXM' or "
                             "'parallelism=2x2x8,gpu=B200'); the kind is "
                             "auto-detected, or forced with a "
                             "'parallelism:'/'model:'/'serving:'/"
                             "'hardware:' prefix")
    return parent


def _serving_metrics_lines(rows: list[tuple[str, object]]) -> list[str]:
    lines = []
    for label, m in rows:
        lines.append(f"  {label}: ttft p50/p99 {m.ttft_p50_ms:.2f}/"
                     f"{m.ttft_p99_ms:.2f} ms, latency p50/p99 "
                     f"{m.latency_p50_ms:.2f}/{m.latency_p99_ms:.2f} ms, "
                     f"{m.tokens_per_s:.0f} tokens/s, goodput "
                     f"{m.goodput_rps:.1f} req/s "
                     f"({m.slo_attainment:.0%} within SLO)")
    return lines


def _cmd_emulate(args: argparse.Namespace) -> int:
    model = gpt3_model(args.model)
    parallel = ParallelismConfig.parse(args.parallelism)
    if args.workload == "serving":
        # The builder itself validates too (TP divisibility, cluster
        # size); every configuration error maps to exit 2, not a traceback.
        try:
            parallel.validate_for_inference()
            inference = _inference_from_args(args)
            result = emulate(model, parallel, iterations=args.iterations,
                             seed=args.seed, inference=inference)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if inference.arrival is not None:
            label = (f"serving stream ({inference.arrival.label()}, "
                     f"batch cap {inference.batch_size}, "
                     f"{inference.prompt_length}+{inference.decode_length} tokens)")
        else:
            label = (f"serving episode ({inference.batch_size} requests, "
                     f"{inference.prompt_length}+{inference.decode_length} tokens)")
    else:
        training = TrainingConfig(micro_batch_size=args.micro_batch_size,
                                  num_microbatches=args.num_microbatches)
        result = emulate(model, parallel, training, iterations=args.iterations,
                         seed=args.seed)
        label = "training job"
    result.profiled.save(args.output)
    print(f"saved profiled trace of {model.name} {parallel.label()} "
          f"{label} to {args.output}")
    for index in range(args.iterations):
        print(f"iteration {index}: {result.iteration_time(index) / 1000:.1f} ms")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    bundle = TraceBundle.load(args.trace)
    result = dpro_replay(bundle) if args.baseline == "dpro" \
        else Study.from_trace(bundle).replay()
    print(f"replayed iteration time: {result.iteration_time_ms:.1f} ms")
    rows = [format_breakdown_row("replayed", result.breakdown())]
    print(format_table(breakdown_headers(), rows))
    return 0


def _cmd_breakdown(args: argparse.Namespace) -> int:
    bundle = TraceBundle.load(args.trace)
    rows = [format_breakdown_row("measured", compute_breakdown(bundle))]
    print(f"iteration time: {bundle.iteration_time() / 1000:.1f} ms")
    print(format_table(breakdown_headers(), rows))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if len(args.target) != 1:
        print("predict requires a single --target", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return 2
    if args.slo_ms is not None and not 0 < args.slo_ms < math.inf:
        print("error: slo_ms must be a positive finite number", file=sys.stderr)
        return 2
    try:
        study = Study.from_trace(args.trace, **_named_base(args))
        prediction = study.predict(args.target[0])
        metrics = prediction.serving_metrics(deadline_ms=args.slo_ms)
        base_metrics = (study.base_serving_metrics(deadline_ms=args.slo_ms)
                        if metrics is not None else None)
    except StudyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"base replay: {study.base_time_ms:.1f} ms")
    print(f"predicted {prediction.label}: {prediction.iteration_time_ms:.1f} ms")
    rows = [
        format_breakdown_row("base", study.breakdown()),
        format_breakdown_row(prediction.label, prediction.breakdown()),
    ]
    print(format_table(breakdown_headers(), rows))
    if metrics is not None:
        print(f"serving metrics (SLO {metrics.deadline_ms:g} ms):")
        serving_rows = [(prediction.label, metrics)]
        if base_metrics is not None:
            serving_rows.insert(0, ("base", base_metrics))
        for line in _serving_metrics_lines(serving_rows):
            print(line)
    return 0


def _cmd_export_timeline(args: argparse.Namespace) -> int:
    try:
        study = Study.from_trace(args.trace, **_named_base(args))
        sections = [("profiled", study.trace), ("replayed", study.replay())]
        serving_tracks = []
        base_metrics = study.base_serving_metrics()
        if base_metrics is not None:
            serving_tracks.append(("replayed", base_metrics))
        for target in args.target:
            prediction = study.predict(target)
            sections.append((prediction.label, prediction))
            metrics = prediction.serving_metrics()
            if metrics is not None:
                serving_tracks.append((prediction.label, metrics))
        payload = export_timeline(sections, args.output, serving=serving_tracks)
    except (StudyError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    labels = ", ".join(payload["otherData"]["sections"])
    print(f"wrote {len(payload['traceEvents'])} chrome-trace events "
          f"({labels}) to {args.output}")
    if payload["otherData"].get("request_tracks"):
        print(f"per-request tracks: "
              f"{', '.join(payload['otherData']['request_tracks'])}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not (args.spec or args.target):
        print("sweep requires --spec or --target", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return 2
    try:
        bundle = TraceBundle.load(args.trace)
        spec = SweepSpec.coerce(args.spec or inline_spec(args.target, args.whatif),
                                bundle.metadata, _named_base(args))
        if args.slo_ms is not None:
            spec = replace(spec, slo_ms=args.slo_ms)
        result = open_study(bundle, spec).sweep(spec, workers=args.workers,
                                                cache_dir=args.cache_dir,
                                                force=args.force)
    except (SweepSpecError, StudyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_report(result, top=args.top))
    return 0


def _parse_trace_registrations(entries: list[str]) -> dict[str, str]:
    """Parse repeated ``--trace NAME=DIR`` registrations."""
    traces: dict[str, str] = {}
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"bad --trace '{entry}' (expected NAME=DIR)")
        traces[name] = path
    return traces


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceApp

    if args.allow_webhooks:
        webhook_hosts: tuple[str, ...] | None = ("*",)
    elif args.webhook_host:
        webhook_hosts = tuple(args.webhook_host)
    else:
        webhook_hosts = None
    try:
        traces = _parse_trace_registrations(args.trace)
        app = ServiceApp(args.root, host=args.host, port=args.port,
                         workers=args.workers, traces=traces,
                         cache_root=args.cache_dir,
                         poll_interval=args.poll_interval,
                         lease_seconds=args.lease_seconds,
                         max_attempts=args.max_attempts,
                         webhook_hosts=webhook_hosts)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    host, port = app.address
    print(f"sweep service listening on http://{host}:{port} "
          f"(workers={args.workers}, traces={', '.join(traces) or 'none'}, "
          f"root={args.root})", flush=True)
    return app.serve_forever()


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service.worker import WorkerFleet

    try:
        traces = _parse_trace_registrations(args.trace)
        fleet = WorkerFleet(args.root, traces=traces,
                            cache_root=args.cache_dir, workers=args.workers,
                            lease_seconds=args.lease_seconds,
                            max_attempts=args.max_attempts,
                            poll_interval=args.poll_interval)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    worker_ids = ", ".join(worker.worker_id for worker in fleet.workers)
    print(f"worker fleet draining {args.root} "
          f"(workers={len(fleet.workers)} [{worker_ids}], "
          f"lease={args.lease_seconds:g}s)", flush=True)
    status = fleet.run(install_signals=True)
    print(f"fleet drained: {fleet.jobs_processed} jobs processed", flush=True)
    return status


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.protocol import bundle_to_json
    from repro.sweep.runner import ScenarioResult
    from repro.sweep.analysis import format_ranked_table

    body: dict[str, object] = {
        "kind": "predict" if args.predict else "sweep",
        "reuse": args.reuse,
    }
    base: dict[str, object] = {}
    for key, value in (("model", args.base_model),
                       ("parallelism", args.base_parallelism),
                       ("micro_batch_size", args.micro_batch_size),
                       ("num_microbatches", args.num_microbatches)):
        if value is not None:
            base[key] = value
    if base:
        body["base"] = base
    if args.slo_ms is not None:
        body["slo_ms"] = args.slo_ms
    if args.webhook:
        body["webhook"] = args.webhook
    if args.predict:
        if len(args.target) != 1:
            print("submit --predict requires exactly one --target", file=sys.stderr)
            return 2
        body["target"] = args.target[0]
    else:
        if args.spec:
            # Sent as written: the server fills its omitted base keys.
            try:
                body["spec"] = json.loads(Path(args.spec).read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                print(f"error: cannot read spec file {args.spec}: {error}",
                      file=sys.stderr)
                return 2
        if args.target:
            body["targets"] = args.target
        if args.whatif:
            body["whatif"] = list(args.whatif)
        if not (args.spec or args.target or args.whatif):
            print("submit requires --spec, --target or --whatif (or --predict)",
                  file=sys.stderr)
            return 2
    if args.trace_path:
        try:
            body["bundle"] = bundle_to_json(TraceBundle.load(args.trace_path))
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load trace bundle {args.trace_path}: {error}",
                  file=sys.stderr)
            return 2
    elif args.trace:
        body["trace"] = args.trace
    else:
        print("submit requires --trace NAME (server-registered) or "
              "--trace-path DIR (inline upload)", file=sys.stderr)
        return 2

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        submitted = client.submit(body)
        job = submitted["job"]
        print(f"job {job['job_id']}: {job['state']}"
              + (" (deduped)" if submitted["deduped"] else ""))
        if args.no_wait:
            return 0
        job = client.wait(job["job_id"], timeout=args.timeout,
                          poll_interval=args.poll_interval)
        if job["state"] != "done":
            error = job.get("error") or {}
            print(f"error: job {job['job_id']} {job['state']} "
                  f"[{error.get('code', 'unknown')}]: {error.get('message', '')}",
                  file=sys.stderr)
            return 2
        result = client.result(job["job_id"])["result"]
    except ServiceError as error:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return 2
    if result["kind"] == "predict":
        print(f"base: {result['base_time_us'] / 1000.0:.1f} ms")
        print(f"predicted {result['label']}: "
              f"{result['iteration_time_us'] / 1000.0:.1f} ms "
              f"(speedup {result['speedup_vs_base']:.2f}x)")
        return 0
    cache = result["cache"]
    rows = [ScenarioResult.from_json(row, from_cache=bool(row["from_cache"]))
            for row in result["scenarios"]]
    print(f"evaluated {len(rows)} scenarios "
          f"(cache hits={cache['hits']} misses={cache['misses']} "
          f"hit-rate={cache['hit_rate']:.0%})")
    print(format_ranked_table(rows, top=args.top))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sweep.cache import SweepCache

    cache = SweepCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"cache {stats['root']}: {stats['entries']} entries across "
              f"{stats['bundles']} bundles, "
              f"{stats['total_bytes'] / 1e6:.2f} MB")
        return 0
    # prune
    budget = int(args.max_size_mb * 1e6)
    summary = cache.prune(budget)
    print(f"pruned {summary['removed']} entries "
          f"({summary['freed_bytes'] / 1e6:.2f} MB freed); "
          f"{summary['remaining_entries']} entries "
          f"({summary['remaining_bytes'] / 1e6:.2f} MB) remain")
    return 0


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", metavar="PATH",
                        help="collect pipeline spans/metrics during this "
                             "command and write the JSON run report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-lumos",
                                     description="Lumos reproduction command-line interface")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    emulate_parser = subparsers.add_parser(
        "emulate", help="emulate a training job or serving episode and save traces")
    _add_workload_arguments(emulate_parser)
    emulate_parser.add_argument("--seed", type=int, default=0,
                                help="emulator noise seed (default: 0)")
    emulate_parser.add_argument("--iterations", type=int, default=2)
    emulate_parser.add_argument("--output", required=True, help="directory for the trace bundle")
    emulate_parser.add_argument("--workload", choices=["training", "serving"],
                                default="training",
                                help="emulate a training iteration (default) or an "
                                     "LLM inference episode (prefill + decode)")
    emulate_parser.add_argument("--requests", type=int, default=8,
                                help="serving: concurrent requests per decode batch")
    emulate_parser.add_argument("--prompt-length", type=int, default=512,
                                help="serving: prompt tokens per request")
    emulate_parser.add_argument("--decode-length", type=int, default=64,
                                help="serving: generated tokens per request")
    emulate_parser.add_argument("--kv-dtype", default="bf16",
                                choices=["bf16", "fp16", "fp32", "fp8"],
                                help="serving: KV-cache storage datatype")
    emulate_parser.add_argument("--arrival", metavar="KIND:KNOBS",
                                help="serving: request-arrival process for a "
                                     "continuous-batching stream, e.g. "
                                     "'poisson:rate=100,n=16,seed=3', "
                                     "'bursty:rate=100,cv=4,n=16' or "
                                     "'trace:0,2.5,7.25' (offsets in ms); "
                                     "--requests caps the decode batch")
    emulate_parser.set_defaults(func=_cmd_emulate)

    replay_parser = subparsers.add_parser("replay", help="replay a saved trace bundle")
    replay_parser.add_argument("--trace", required=True, help="trace bundle directory")
    replay_parser.add_argument("--baseline", choices=["lumos", "dpro"], default="lumos")
    replay_parser.set_defaults(func=_cmd_replay)

    breakdown_parser = subparsers.add_parser(
        "breakdown", help="print a trace's execution breakdown")
    breakdown_parser.add_argument("--trace", required=True, help="trace bundle directory")
    breakdown_parser.set_defaults(func=_cmd_breakdown)

    target_parent = _target_parent()

    predict_parser = subparsers.add_parser(
        "predict", parents=[target_parent],
        help="estimate a new configuration from a base trace")
    _add_workload_arguments(predict_parser, from_trace=True)
    predict_parser.add_argument("--trace", required=True, help="base trace bundle directory")
    predict_parser.add_argument("--slo-ms", type=float, default=None,
                                help="per-request latency deadline for SLO "
                                     "attainment / goodput (continuous-"
                                     "batching traces; default 500 ms)")
    predict_parser.set_defaults(func=_cmd_predict, parser=predict_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", parents=[target_parent],
        help="evaluate a grid of what-if scenarios from a base trace")
    _add_workload_arguments(sweep_parser, from_trace=True)
    sweep_parser.add_argument("--trace", required=True, help="base trace bundle directory")
    sweep_parser.add_argument("--spec", help="sweep spec JSON file (overrides inline axes)")
    sweep_parser.add_argument("--whatif", action="append", default=[],
                              help="what-if scenario: 'launch', 'comm[:group]:S' or "
                                   "'CLASS:S' (repeatable)")
    sweep_parser.add_argument("--slo-ms", type=float, default=None,
                              help="per-request latency deadline for serving "
                                   "axes (ranked by goodput; default 500 ms)")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="process count for scenario evaluation")
    sweep_parser.add_argument("--cache-dir", help="on-disk result cache directory")
    sweep_parser.add_argument("--force", action="store_true",
                              help="re-evaluate scenarios even when cached")
    sweep_parser.add_argument("--top", type=int, default=None,
                              help="only print the best N scenarios")
    sweep_parser.set_defaults(func=_cmd_sweep, parser=sweep_parser)

    timeline_parser = subparsers.add_parser(
        "export-timeline", parents=[target_parent],
        help="export profiled/replayed/predicted schedules as chrome-trace JSON")
    _add_workload_arguments(timeline_parser, from_trace=True)
    timeline_parser.add_argument("--trace", required=True,
                                 help="trace bundle directory")
    timeline_parser.add_argument("--output", required=True,
                                 help="chrome-trace JSON output path")
    timeline_parser.set_defaults(func=_cmd_export_timeline)

    serve_parser = subparsers.add_parser(
        "serve", help="run the sweep service (HTTP API + worker queue)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8321,
                              help="listen port (0 picks a free one)")
    serve_parser.add_argument("--root", required=True,
                              help="service state directory (job store, "
                                   "uploaded bundles, default cache)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="shared sweep-cache directory "
                                   "(default: <root>/sweep-cache)")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="in-process worker threads draining the queue")
    serve_parser.add_argument("--trace", action="append", default=[],
                              metavar="NAME=DIR",
                              help="register a saved trace bundle under NAME "
                                   "(repeatable)")
    serve_parser.add_argument("--poll-interval", type=float, default=0.05,
                              help="longest an idle worker waits before "
                                   "rescanning the root (submits to this "
                                   "server wake it at once)")
    serve_parser.add_argument("--lease-seconds", type=float, default=30.0,
                              help="claim-lease lifetime without a heartbeat; "
                                   "an expired lease requeues the job")
    serve_parser.add_argument("--max-attempts", type=int, default=3,
                              help="attempts (initial + lease-expiry requeues) "
                                   "before a job fails as worker-lost")
    serve_parser.add_argument("--allow-webhooks", action="store_true",
                              help="accept submission 'webhook' URLs for any "
                                   "host (off by default: webhook POSTs "
                                   "originate from the service's network)")
    serve_parser.add_argument("--webhook-host", action="append", default=[],
                              metavar="HOST",
                              help="accept webhooks only for HOST "
                                   "(repeatable; implies webhooks are on)")
    serve_parser.set_defaults(func=_cmd_serve)

    work_parser = subparsers.add_parser(
        "work", help="run a dedicated worker fleet draining a shared "
                     "service root")
    work_parser.add_argument("--root", required=True,
                             help="shared service state directory (the same "
                                  "--root a server was given)")
    work_parser.add_argument("--cache-dir", default=None,
                             help="shared sweep-cache directory "
                                  "(default: <root>/sweep-cache)")
    work_parser.add_argument("--workers", type=int, default=1,
                             help="worker threads in this fleet process")
    work_parser.add_argument("--trace", action="append", default=[],
                             metavar="NAME=DIR",
                             help="register a saved trace bundle under NAME "
                                  "(repeatable); uploads spooled by a server "
                                  "on the shared root resolve automatically")
    work_parser.add_argument("--poll-interval", type=float, default=0.05,
                             help="idle-poll interval in seconds (how "
                                  "soon jobs queued by other processes on "
                                  "the root are found)")
    work_parser.add_argument("--lease-seconds", type=float, default=30.0,
                             help="claim-lease lifetime without a heartbeat")
    work_parser.add_argument("--max-attempts", type=int, default=3,
                             help="attempts before a job fails as worker-lost")
    work_parser.set_defaults(func=_cmd_work)

    submit_parser = subparsers.add_parser(
        "submit", parents=[target_parent],
        help="submit a sweep or prediction job to a running sweep service")
    submit_parser.add_argument("--url", default="http://127.0.0.1:8321",
                               help="service base URL")
    submit_parser.add_argument("--trace", help="server-registered trace name")
    submit_parser.add_argument("--trace-path",
                               help="local trace bundle directory to upload inline")
    submit_parser.add_argument("--spec", help="sweep spec JSON file")
    submit_parser.add_argument("--whatif", action="append", default=[],
                               help="what-if scenario: 'launch', 'comm[:group]:S' "
                                    "or 'CLASS:S' (repeatable)")
    submit_parser.add_argument("--predict", action="store_true",
                               help="submit a single-prediction job for the one "
                                    "--target instead of a sweep")
    submit_parser.add_argument("--slo-ms", type=float, default=None,
                               help="per-request latency deadline for serving "
                                    "metrics / goodput ranking")
    submit_parser.add_argument("--base-model", default=None,
                               help="override the base model recorded in the "
                                    "trace metadata")
    submit_parser.add_argument("--base-parallelism", default=None,
                               help="override the base TPxPPxDP label")
    submit_parser.add_argument("--micro-batch-size", type=int, default=None,
                               help="override the base micro-batch size "
                                    "(recorded in traces the emulator saves "
                                    "now; older ones need it named)")
    submit_parser.add_argument("--num-microbatches", type=int, default=None,
                               help="override the base microbatch count")
    submit_parser.add_argument("--reuse", action="store_true",
                               help="reuse an identical completed job instead "
                                    "of re-running it")
    submit_parser.add_argument("--webhook", default=None, metavar="URL",
                               help="http(s) URL the server POSTs the "
                                    "terminal job record to")
    submit_parser.add_argument("--no-wait", action="store_true",
                               help="submit and print the job id without polling")
    submit_parser.add_argument("--timeout", type=float, default=300.0,
                               help="overall polling deadline in seconds")
    submit_parser.add_argument("--poll-interval", type=float, default=0.2)
    submit_parser.add_argument("--top", type=int, default=None,
                               help="only print the best N scenarios")
    submit_parser.set_defaults(func=_cmd_submit, parser=submit_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune a shared on-disk sweep cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="print entry counts and bytes")
    cache_stats.add_argument("--cache-dir", required=True)
    cache_stats.set_defaults(func=_cmd_cache)
    cache_prune = cache_sub.add_parser(
        "prune", help="evict oldest entries down to a size budget")
    cache_prune.add_argument("--cache-dir", required=True)
    cache_prune.add_argument("--max-size-mb", type=float, required=True,
                             help="keep at most this many MB of cached results")
    cache_prune.set_defaults(func=_cmd_cache)

    for subparser in subparsers.choices.values():
        _add_profile_argument(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-lumos`` console script."""
    try:
        status = _run(build_parser().parse_args(argv))
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout went away (``| head``): exit quietly, as in
        # the Python docs' SIGPIPE recipe, with stdout on devnull so the
        # interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args: argparse.Namespace) -> int:
    if not getattr(args, "profile", None):
        return args.func(args)
    with observability.profile(label=args.command) as collecting:
        status = args.func(args)
    try:
        with open(args.profile, "w", encoding="utf-8") as sink:
            json.dump(collecting.report(), sink, indent=2, sort_keys=True)
    except OSError as error:
        print(f"error: cannot write pipeline profile: {error}", file=sys.stderr)
        return status or 2
    print(f"wrote pipeline profile to {args.profile}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
