"""Command-line interface to the analytic experiment harness.

Usage::

    python -m repro.cli profile                     # Table I
    python -m repro.cli flops [--mode paper]        # Table II
    python -m repro.cli curve --model vit-base --budget-mb 180  # Fig. 4 b/c
    python -m repro.cli communication               # Section V-D
    python -m repro.cli schedule --model vit-base --devices 5 --budget-mb 180
    python -m repro.cli plan --workers 3 --codec auto --out plan.json
    python -m repro.cli plan --train-fusion --store ./artifacts --out plan.json
    python -m repro.cli serve --workers 2 --requests 200 --rps 200
    python -m repro.cli serve --transport inprocess --codec q8
    python -m repro.cli serve --plan plan.json --kill-after 0.3
    python -m repro.cli serve --plan plan.json --store ./artifacts --swap-after 0.3
    python -m repro.cli serve --backend blocked --workers 2
    python -m repro.cli plan --quant auto --memory-headroom 0.5 --store ./artifacts
    python -m repro.cli quantize --plan plan.json --store ./artifacts --out plan-int8.json
    python -m repro.cli loadgen --rates 50,100,200 --compare-batching
    python -m repro.cli serve --trace trace.json --transport inprocess
    python -m repro.cli loadgen --rates 100 --trace trace.json --metrics
    python -m repro.cli capacity --traffic burst --slo-p95-ms 8000
    python -m repro.cli capacity --trace-file arrivals.jsonl --json
    python -m repro.cli artifacts ls --store ./artifacts
    python -m repro.cli artifacts gc --store ./artifacts --max-mb 64
    python -m repro.cli check --strict                  # static analysis
    python -m repro.cli check --json --rules lock-discipline,hygiene

``plan`` runs the deployment planner (:mod:`repro.planning`) over a small
heterogeneous demo fleet and emits the scored
:class:`~repro.planning.DeploymentPlan` as JSON.  ``serve`` stands up a
fleet behind the asynchronous serving layer (:mod:`repro.serving`) —
either a demo fleet or, with ``--plan``, a fleet booted from a plan file
with online replanning enabled — drives Poisson traffic at it (optionally
killing a worker mid-run to demonstrate degraded fusion and replan
recovery, or rolling-swapping one with ``--swap-after``), and prints the
telemetry report (``--json`` for machine-readable output).  ``loadgen``
sweeps offered load and prints the latency-vs-offered-load curve, plus an
optional dynamic-batching-on/off throughput comparison.

``--store DIR`` on ``plan``/``serve`` points at a
:class:`repro.store.ArtifactStore`: the first (cold) boot trains and
populates it, every later boot warm-loads the checkpoints instead of
retraining.  ``artifacts ls``/``artifacts gc`` inspect and bound the
store.

Trained experiments (accuracy panels, baselines) are intentionally not
wrapped here — run the benches: ``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import sys

from .core.experiments import (
    PAPER_BUDGETS_MB,
    communication_rows,
    latency_memory_curve,
    plan_split,
    table1_rows,
    table2_rows,
)
from .core.metrics import format_table
from .models.vit import STANDARD_CONFIGS

_FULL_SIZE_MODELS = ("vit-small", "vit-base", "vit-large")


def _model_config(name: str, in_channels: int = 3):
    if name not in _FULL_SIZE_MODELS:
        raise SystemExit(f"unknown model {name!r}; choose from {_FULL_SIZE_MODELS}")
    return STANDARD_CONFIGS[name](num_classes=10, in_channels=in_channels)


def cmd_profile(_args) -> None:
    print(format_table(table1_rows()))


def cmd_flops(args) -> None:
    print(format_table(table2_rows(schedule_mode=args.mode)))


def cmd_curve(args) -> None:
    budget = args.budget_mb
    if budget is None:
        budget = PAPER_BUDGETS_MB[args.model]
    rows = latency_memory_curve(_model_config(args.model, args.channels),
                                budget_mb=budget,
                                schedule_mode=args.mode)
    print(format_table(rows))


def _artifact_store(args):
    path = getattr(args, "store", None)
    if not path:
        return None
    from .store import ArtifactStore

    return ArtifactStore(path)


def cmd_plan(args) -> None:
    from .planning import plan_demo_system

    throughputs = None
    if args.throughputs:
        throughputs = [float(t) for t in args.throughputs.split(",") if t]
    system = plan_demo_system(num_workers=args.workers,
                              model_kind=args.model_kind,
                              seed=args.seed,
                              throughputs=throughputs,
                              train_fusion=args.train_fusion,
                              fusion_epochs=args.fusion_epochs,
                              codec=args.codec,
                              store=_artifact_store(args),
                              quant=args.quant,
                              memory_headroom=args.memory_headroom)
    plan = system.plan
    if args.store:
        boot = "warm-booted from" if system.warm_booted else "populated"
        print(f"# artifact store {args.store}: {boot} "
              f"{len(plan.artifacts)} artifacts", file=sys.stderr)
    if args.out:
        path = plan.save(args.out)
        rows = [{
            "sub-model": m.model_id,
            "classes": ",".join(str(c) for c in m.classes),
            "device": plan.mapping[m.model_id],
            "quant": m.quant,
            "size_kb": round(m.size_bytes / 1024, 1),
            "mflops": round(m.flops_per_sample / 1e6, 3),
        } for m in plan.submodels]
        print(format_table(rows))
        prediction = plan.prediction
        print(f"codec {plan.codec}: predicted latency "
              f"{prediction.latency_s * 1e3:.3f} ms, "
              f"energy {prediction.energy_j:.3g} J"
              + (f", accuracy {prediction.accuracy:.3f}"
                 if prediction.accuracy is not None else ""))
        print(f"plan written to {path}")
    else:
        print(plan.to_json())


def cmd_communication(_args) -> None:
    print(format_table(communication_rows()))


def cmd_schedule(args) -> None:
    budget = args.budget_mb or PAPER_BUDGETS_MB[args.model]
    point = plan_split(_model_config(args.model, args.channels),
                       args.devices, num_classes=10, budget_mb=budget,
                       schedule_mode=args.mode)
    rows = [{
        "sub-model": f.index,
        "hp": f.hp,
        "kept_heads": f.config.num_heads - f.hp if args.mode == "paper"
        else f.config.num_heads - point.hps[f.index],
        "embed_dim": f.config.embed_dim,
        "size_mb": f.size_bytes / 2 ** 20,
        "gmacs": f.flops_per_sample / 1e9,
    } for f in point.footprints]
    print(format_table(rows))
    print(f"total: {point.total_size_mb:.2f} MB across "
          f"{point.num_devices} devices (budget {budget} MB)")


def _apply_backend(args) -> None:
    """Activate ``--backend`` in-process and for spawned workers."""
    backend = getattr(args, "backend", None)
    if not backend:
        return
    import os

    from . import nn

    try:
        nn.set_backend(backend)
    except ValueError as exc:
        raise SystemExit(str(exc))
    # Worker processes re-import repro.nn fresh; the env var is how the
    # selection crosses the process boundary.
    os.environ["REPRO_BACKEND"] = backend


def _make_server(args):
    from .serving import (BatchingConfig, InferenceServer, ServerConfig,
                          build_demo_system)

    _apply_backend(args)
    config = ServerConfig(
        batching=BatchingConfig(max_batch_samples=args.batch,
                                max_wait_s=args.max_wait_ms / 1e3),
        worker_timeout_s=args.worker_timeout_s)
    store = _artifact_store(args)
    plan_path = getattr(args, "plan", None)
    if plan_path:
        from .planning import DeploymentPlan, PlannedSystem

        # The plan file carries the codec; only the transport (and the
        # artifact store to warm-boot from) is a runtime choice.
        system = PlannedSystem.from_plan(DeploymentPlan.load(plan_path),
                                         time_scale=args.time_scale,
                                         transport=args.transport,
                                         store=store)
        return system, system.make_server(
            config, replan=not getattr(args, "no_replan", False))
    system = build_demo_system(num_workers=args.workers,
                               model_kind=args.model_kind,
                               seed=args.seed, time_scale=args.time_scale,
                               transport=args.transport, codec=args.codec,
                               train_fusion=getattr(args, "train_fusion",
                                                    False),
                               store=store)
    return system, InferenceServer(system.make_cluster(), system.fusion,
                                   config)


def _maybe_enable_tracing(args) -> bool:
    """Turn on span collection when a trace export was requested."""
    if not (getattr(args, "trace", None)
            or getattr(args, "trace_jsonl", None)):
        return False
    from . import obs

    obs.enable_tracing()
    return True


def _export_observability(args) -> None:
    """Write requested trace exports; progress notes go to stderr."""
    trace_path = getattr(args, "trace", None)
    jsonl_path = getattr(args, "trace_jsonl", None)
    if not trace_path and not jsonl_path:
        return
    from . import obs

    spans = obs.get_tracer().spans()
    if trace_path:
        count = obs.write_chrome_trace(spans, trace_path)
        print(f"# wrote {count} spans to {trace_path} "
              f"(open at https://ui.perfetto.dev)", file=sys.stderr)
    if jsonl_path:
        count = obs.write_jsonl(spans, jsonl_path)
        print(f"# wrote {count} JSONL span lines to {jsonl_path}",
              file=sys.stderr)


def cmd_serve(args) -> None:
    import json
    import threading

    from .serving import LoadgenConfig, run_load

    # Validate before _make_server: building (and possibly training) the
    # whole fleet only to exit with a usage error would waste minutes.
    if args.swap_after is not None and not (args.plan and args.store):
        raise SystemExit("--swap-after needs --plan and --store "
                         "(the replacement worker boots from the "
                         "plan's store artifact)")
    _maybe_enable_tracing(args)
    system, server = _make_server(args)
    kill_timer = None
    swap_timer = None
    swap_result: dict = {}
    with server:
        if args.kill_after is not None:
            victim = server.slots[0]
            kill_timer = threading.Timer(args.kill_after,
                                         server.cluster.kill_worker, (victim,))
            kill_timer.start()
            # Progress notes go to stderr so `--json` stdout stays
            # machine-parseable on its own.
            print(f"(will kill worker {victim} after {args.kill_after}s)",
                  file=sys.stderr)
        if args.swap_after is not None:
            slot = server.slots[0]

            def do_swap() -> None:
                try:
                    swap_result["worker"] = system.swap_from_store(
                        server, slot, _artifact_store(args),
                        quant=args.swap_quant)
                except Exception as exc:
                    swap_result["error"] = f"{type(exc).__name__}: {exc}"
            swap_timer = threading.Timer(args.swap_after, do_swap)
            swap_timer.start()
            print(f"(will rolling-swap slot {slot} after "
                  f"{args.swap_after}s)", file=sys.stderr)
        result = run_load(server, system.input_shape,
                          LoadgenConfig(num_requests=args.requests,
                                        mode="open", offered_rps=args.rps,
                                        seed=args.seed))
        report = server.stats(include_metrics=args.json or args.metrics)
        hosting = server.hosting()
        for timer in (kill_timer, swap_timer):
            if timer is not None:
                timer.cancel()         # the run may finish before it fires
        if swap_timer is not None:
            # cancel() does not stop an already-running swap; let it
            # finish before the cluster shuts down underneath it.
            swap_timer.join(timeout=60)
    _export_observability(args)
    if args.json:
        print(json.dumps({"loadgen": result.row(),
                          "report": report.to_dict(),
                          "hosting": hosting,
                          "swap": swap_result or None},
                         indent=2, allow_nan=False))
        return
    print(format_table([result.row()]))
    print(format_table([report.row()]))
    for worker_id, health in report.worker_health.items():
        print(f"  worker {worker_id}: {health}")
    rehosted = {slot: worker for slot, worker in hosting.items()
                if slot != worker}
    for slot, worker in rehosted.items():
        print(f"  slot {slot}: re-hosted on {worker}")
    if swap_result:
        print(f"  rolling swap: {swap_result}")
    if args.metrics:
        from . import obs

        print(obs.get_registry().render_text())


def cmd_check(args) -> None:
    """``repro check``: static invariant analysis over the package.

    Exit codes: 0 clean, 1 new findings (with ``--strict`` also stale
    baseline entries), 2 usage error.  ``--json`` keeps stdout pure JSON
    with notes on stderr, matching the other machine-readable commands.
    """
    import json
    from pathlib import Path

    from . import analysis

    if args.list_rules:
        for name, cls in analysis.rule_classes().items():
            print(f"{name}  [{', '.join(cls.finding_ids)}]")
            print(f"    {cls.description}")
        return

    rule_names = [r for r in args.rules.split(",") if r] if args.rules \
        else None
    root = Path(args.path).resolve() if args.path else analysis.default_root()
    if not root.is_dir():
        print(f"repro check: scan root {root} is not a directory",
              file=sys.stderr)
        raise SystemExit(2)
    baseline_path = Path(args.baseline) if args.baseline \
        else analysis.default_baseline_path(root)
    try:
        findings = analysis.run_check(root=root, rule_names=rule_names)
        previous = analysis.load_baseline(baseline_path)
    except (ValueError, OSError) as exc:
        # Unknown rule, unreadable root, malformed baseline: usage errors.
        print(f"repro check: {exc}", file=sys.stderr)
        raise SystemExit(2)

    if args.update_baseline:
        analysis.save_baseline(baseline_path, findings, previous)
        print(f"# baseline rewritten: {len(findings)} entries -> "
              f"{baseline_path}", file=sys.stderr)
        return

    comparison = analysis.compare(findings, previous)
    failed = bool(comparison.new) \
        or (args.strict and bool(comparison.stale))
    if args.json:
        print(json.dumps({
            "root": str(root),
            "baseline": str(baseline_path),
            "new": [f.to_dict() for f in comparison.new],
            "baselined": [f.to_dict() for f in comparison.baselined],
            "stale": [e.to_dict() for e in comparison.stale],
            "ok": not failed,
        }, indent=2, sort_keys=True, allow_nan=False))
    else:
        for finding in comparison.new:
            print(finding.render(str(root)))
        for entry in comparison.stale:
            print(f"stale baseline entry {entry.fingerprint} "
                  f"({entry.rule_id} {entry.file}): no longer found"
                  + (" [--strict fails on this]" if args.strict else ""))
        print(f"# {len(comparison.new)} new, "
              f"{len(comparison.baselined)} baselined, "
              f"{len(comparison.stale)} stale "
              f"({baseline_path.name})", file=sys.stderr)
    if failed:
        raise SystemExit(1)


def cmd_quantize(args) -> None:
    import dataclasses as _dc

    from .planning import DeploymentPlan, quantize_plan_artifacts
    from .store import ArtifactStore

    plan = DeploymentPlan.load(args.plan)
    store = ArtifactStore(args.store)
    rows = quantize_plan_artifacts(plan, store, scheme=args.scheme)
    print(format_table([{
        "sub-model": row["model_id"],
        "fp32_kb": round(row["fp32_bytes"] / 1024, 1),
        f"{args.scheme}_kb": round(row["quant_bytes"] / 1024, 1),
        "ratio": round(row["fp32_bytes"] / max(1, row["quant_bytes"]), 2),
        "digest": row["quant_digest"][:12],
    } for row in rows]))
    total_fp32 = sum(row["fp32_bytes"] for row in rows)
    total_q = sum(row["quant_bytes"] for row in rows)
    print(f"total: {total_fp32 / 1024:.1f} KiB fp32 -> "
          f"{total_q / 1024:.1f} KiB {args.scheme} "
          f"({total_fp32 / max(1, total_q):.2f}x smaller)")
    if args.out:
        # Retarget the plan to serve the quantized variants; the fusion
        # ref is scheme-independent and stays put.
        sizes = {row["model_id"]: row["quant_bytes"] for row in rows}
        digests = {row["model_id"]: row["quant_digest"] for row in rows}
        plan.submodels = [_dc.replace(sub, quant=args.scheme,
                                      size_bytes=sizes[sub.model_id])
                          for sub in plan.submodels]
        plan.artifacts.update(digests)
        path = plan.save(args.out)
        print(f"{args.scheme} plan written to {path}")


def cmd_artifacts(args) -> None:
    import time as _time

    from .store import ArtifactStore

    store = ArtifactStore(args.store)

    def when(stamp: float) -> str:
        return _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(stamp))

    if args.action == "ls":
        rows = [{"digest": info.digest[:12],
                 "kind": info.kind,
                 "model": info.meta.get("model_id", "-"),
                 "quant": info.meta.get("quant", "fp32"),
                 "size_kb": round(info.nbytes / 1024, 1),
                 "created": when(info.created_at),
                 "last_used": when(info.last_used_at)}
                for info in store.ls()]
        if rows:
            print(format_table(rows))
        print(f"{len(store)} artifacts, "
              f"{store.total_bytes / 2 ** 20:.2f} MiB in {store.root}")
    else:                              # gc
        if args.max_mb is None and args.max_artifacts is None:
            raise SystemExit("artifacts gc: pass --max-mb and/or "
                             "--max-artifacts (without a bound there is "
                             "nothing to evict)")
        max_bytes = None if args.max_mb is None \
            else int(args.max_mb * 2 ** 20)
        evicted = store.gc(max_bytes=max_bytes,
                           max_artifacts=args.max_artifacts)
        for digest in evicted:
            print(f"evicted {digest}")
        print(f"{len(evicted)} evicted; {len(store)} artifacts, "
              f"{store.total_bytes / 2 ** 20:.2f} MiB remain")


def cmd_loadgen(args) -> None:
    from .serving import LoadgenConfig, run_load

    _maybe_enable_tracing(args)
    system, server = _make_server(args)
    results = []
    with server:
        rates = [float(r) for r in args.rates.split(",") if r]
        for rate in rates:
            # Per-rate progress on stderr: the stdout table stays the
            # only thing machine consumers have to parse.
            print(f"# offered load {rate:g} rps "
                  f"({args.requests} requests)...", file=sys.stderr)
            results.append(run_load(
                server, system.input_shape,
                LoadgenConfig(num_requests=args.requests, mode="open",
                              offered_rps=rate, seed=args.seed)))
    _export_observability(args)
    print(format_table([r.row() for r in results]))
    if args.metrics:
        from . import obs

        print(obs.get_registry().render_text())

    if args.compare_batching:
        rows = []
        for label, batch, wait_ms in (("batch=1", 1, 0.0),
                                      ("dynamic", args.batch,
                                       args.max_wait_ms)):
            compare_args = argparse.Namespace(**vars(args))
            compare_args.batch, compare_args.max_wait_ms = batch, wait_ms
            system, server = _make_server(compare_args)
            with server:
                result = run_load(server, system.input_shape,
                                  LoadgenConfig(num_requests=args.requests,
                                                mode="closed",
                                                concurrency=args.concurrency,
                                                seed=args.seed))
            rows.append({"batching": label, **result.row()})
        print(format_table(rows))


def _capacity_trace(args):
    """Build or load the arrival trace a capacity sweep scores against."""
    from .serving import traffic

    if args.trace_file:
        return traffic.ArrivalTrace.from_jsonl(args.trace_file)
    rps, peak = args.rps, args.peak_rps
    duration, seed = args.duration, args.seed
    if args.traffic == "poisson":
        return traffic.poisson_trace(rps, duration, seed)
    if args.traffic == "burst":
        return traffic.burst_trace(
            base_rps=rps, burst_rps=peak, burst_every_s=args.burst_every,
            burst_duration_s=args.burst_len, duration_s=duration, seed=seed)
    if args.traffic == "diurnal":
        return traffic.diurnal_trace(base_rps=rps, peak_rps=peak,
                                     period_s=duration, duration_s=duration,
                                     seed=seed)
    if args.traffic == "mmpp":
        return traffic.mmpp_trace([rps, peak], mean_dwell_s=duration / 6,
                                  duration_s=duration, seed=seed)
    if args.traffic == "flash":
        return traffic.flash_crowd_trace(
            base_rps=rps, peak_rps=peak, onset_s=duration / 3,
            decay_s=duration / 6, duration_s=duration, seed=seed)
    raise SystemExit(f"unknown traffic shape {args.traffic!r}")


def cmd_capacity(args) -> None:
    """``repro capacity``: trace-driven fleet sizing over the fast DES."""
    import json

    from .planning.capacity import cheapest_within_slo, plan_capacity

    trace = _capacity_trace(args)
    if args.save_trace:
        trace.to_jsonl(args.save_trace)
        print(f"# trace saved to {args.save_trace}", file=sys.stderr)
    report = plan_capacity(
        trace,
        device_classes=[c for c in args.classes.split(",") if c],
        fleet_sizes=[int(n) for n in args.fleet_sizes.split(",") if n],
        group_counts=[int(n) for n in args.groups.split(",") if n],
        codecs=[c for c in args.codecs.split(",") if c],
    )
    slo_s = None if args.slo_p95_ms is None else args.slo_p95_ms / 1e3
    best = None if slo_s is None else cheapest_within_slo(report, slo_s)

    if args.json:
        payload = report.to_json()
        if slo_s is not None:
            payload["slo"] = {"p95_ms": args.slo_p95_ms,
                              "cheapest": best.row() if best else None}
        print(json.dumps(payload, indent=2, allow_nan=False))
        return
    print(f"# trace: {report.trace_requests} requests over "
          f"{report.trace_duration_s:.1f}s "
          f"(mean {report.trace_mean_rps:.1f} rps)", file=sys.stderr)
    rows = [p.row() for p in (report.points if args.all else report.frontier)]
    if rows:
        print(format_table(rows))
    else:
        print("no feasible configuration", file=sys.stderr)
    if slo_s is not None:
        if best is None:
            print(f"no configuration meets p95 <= {args.slo_p95_ms:g} ms")
        else:
            print(f"cheapest within p95 <= {args.slo_p95_ms:g} ms: "
                  f"{best.devices_used}x {best.device_class} "
                  f"({best.replicas} replicas of {best.group_count}+1, "
                  f"codec {best.codec}, {best.quant}) "
                  f"at ${best.cost_usd:,.0f} — p95 {best.p95_s * 1e3:.0f} ms")


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    from .edge.transport import TRANSPORTS

    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--model-kind", choices=("vit", "vgg", "snn"),
                        default="vit")
    parser.add_argument("--transport", choices=sorted(TRANSPORTS),
                        default="multiprocess",
                        help="worker substrate: OS processes, threads, or "
                             "TCP-connected processes")
    parser.add_argument("--codec", default="raw32",
                        help="feature wire codec (raw32, f16, q8; any base "
                             "+zlib). Ignored with --plan (the plan carries "
                             "its codec)")
    parser.add_argument("--store", default=None,
                        help="artifact-store directory: warm-boot weights "
                             "from it when populated, populate it on a "
                             "cold boot")
    parser.add_argument("--backend", default=None,
                        help="nn array backend for this process and all "
                             "spawned workers (numpy, blocked); default: "
                             "REPRO_BACKEND or numpy")
    parser.add_argument("--train-fusion", action="store_true",
                        help="train the demo fleet (the expensive step an "
                             "artifact store amortizes). Ignored with "
                             "--plan (the plan's build recipe decides)")
    parser.add_argument("--batch", type=int, default=16,
                        help="dynamic batcher max samples per dispatch")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="dynamic batcher flush deadline")
    parser.add_argument("--worker-timeout-s", type=float, default=5.0)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--time-scale", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="enable tracing and write a Chrome trace-"
                             "event/Perfetto JSON timeline here (open at "
                             "https://ui.perfetto.dev)")
    parser.add_argument("--trace-jsonl", default=None, metavar="FILE",
                        help="enable tracing and write the span log as "
                             "JSONL here (one schema-versioned span per "
                             "line)")
    parser.add_argument("--metrics", action="store_true",
                        help="include the metrics-registry snapshot in "
                             "the report (text dump on stdout; always "
                             "embedded in --json output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ED-ViT reproduction — analytic harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profile", help="Table I model profiles").set_defaults(
        func=cmd_profile)

    p_flops = sub.add_parser("flops", help="Table II sub-model FLOPs")
    p_flops.add_argument("--mode", choices=("paper", "algorithm1"),
                         default="paper")
    p_flops.set_defaults(func=cmd_flops)

    p_curve = sub.add_parser("curve", help="latency/memory curve (Figs. 4-6)")
    p_curve.add_argument("--model", choices=_FULL_SIZE_MODELS,
                         default="vit-base")
    p_curve.add_argument("--budget-mb", type=float, default=None)
    p_curve.add_argument("--channels", type=int, default=3)
    p_curve.add_argument("--mode", choices=("paper", "algorithm1"),
                         default="paper")
    p_curve.set_defaults(func=cmd_curve)

    p_plan = sub.add_parser(
        "plan", help="plan a demo fleet and emit the DeploymentPlan JSON")
    p_plan.add_argument("--workers", type=int, default=2)
    p_plan.add_argument("--model-kind", choices=("vit", "vgg", "snn"),
                        default="vit")
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--throughputs", default=None,
                        help="comma-separated per-device throughput "
                             "multipliers (heterogeneous fleet)")
    p_plan.add_argument("--train-fusion", action="store_true",
                        help="train the demo system so the plan carries a "
                             "real accuracy prediction")
    p_plan.add_argument("--fusion-epochs", type=int, default=8)
    p_plan.add_argument("--codec", default="raw32",
                        help="feature wire codec recorded in the plan "
                             "(raw32, f16, q8, any base +zlib), or 'auto' "
                             "to DES-score candidates and keep the fastest "
                             "within the accuracy-drop bound")
    p_plan.add_argument("--store", default=None,
                        help="artifact-store directory: warm-boot the "
                             "planned weights when populated, populate it "
                             "cold; refs are recorded in the plan JSON")
    p_plan.add_argument("--quant", choices=("fp32", "int8", "auto"),
                        default="fp32",
                        help="served weight scheme: int8 = per-channel "
                             "post-training quantization (~3-4x smaller "
                             "artifacts); auto falls back to int8 only "
                             "when fp32 overflows the memory budget")
    p_plan.add_argument("--memory-headroom", type=float, default=3.0,
                        help="per-device memory budget in units of the "
                             "largest fp32 sub-model (below ~1.0, "
                             "--quant auto selects int8)")
    p_plan.add_argument("--out", default=None,
                        help="write the plan JSON here (default: stdout)")
    p_plan.set_defaults(func=cmd_plan)

    p_quant = sub.add_parser(
        "quantize", help="derive quantized store artifacts from a plan's "
                         "fp32 artifacts")
    p_quant.add_argument("--plan", required=True,
                         help="DeploymentPlan JSON file")
    p_quant.add_argument("--store", required=True,
                         help="artifact-store directory holding the fp32 "
                              "artifacts; quantized variants are written "
                              "back under their own digests")
    p_quant.add_argument("--scheme", choices=("int8",), default="int8")
    p_quant.add_argument("--out", default=None,
                         help="write a copy of the plan retargeted to the "
                              "quantized artifacts here")
    p_quant.set_defaults(func=cmd_quantize)

    p_check = sub.add_parser(
        "check", help="static invariant analysis (locks, wire protocol, "
                      "backend conformance, naming, hygiene)")
    p_check.add_argument("--path", default=None, metavar="DIR",
                         help="package tree to scan (default: the "
                              "installed repro package)")
    p_check.add_argument("--baseline", default=None, metavar="FILE",
                         help="baseline file of accepted findings "
                              "(default: analysis-baseline.json at the "
                              "repo root)")
    p_check.add_argument("--rules", default=None,
                         help="comma-separated rule names to run "
                              "(default: all; see --list-rules)")
    p_check.add_argument("--strict", action="store_true",
                         help="also fail (exit 1) on stale baseline "
                              "entries, so the baseline can only shrink "
                              "via --update-baseline")
    p_check.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline to the current scan, "
                              "keeping existing entries' reasons")
    p_check.add_argument("--list-rules", action="store_true",
                         help="list registered rules and exit")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout "
                              "(notes stay on stderr)")
    p_check.set_defaults(func=cmd_check)

    sub.add_parser("communication",
                   help="Section V-D feature/transfer sizes").set_defaults(
        func=cmd_communication)

    p_sched = sub.add_parser("schedule",
                             help="per-sub-model footprints for one N")
    p_sched.add_argument("--model", choices=_FULL_SIZE_MODELS,
                         default="vit-base")
    p_sched.add_argument("--devices", type=int, default=5)
    p_sched.add_argument("--budget-mb", type=float, default=None)
    p_sched.add_argument("--channels", type=int, default=3)
    p_sched.add_argument("--mode", choices=("paper", "algorithm1"),
                         default="paper")
    p_sched.set_defaults(func=cmd_schedule)

    p_serve = sub.add_parser(
        "serve", help="run the async serving layer under Poisson traffic")
    _add_serving_options(p_serve)
    p_serve.add_argument("--rps", type=float, default=200.0,
                         help="offered arrival rate (Poisson)")
    p_serve.add_argument("--kill-after", type=float, default=None,
                         help="kill one worker after this many seconds to "
                              "demonstrate degraded fusion")
    p_serve.add_argument("--plan", default=None,
                         help="boot the fleet from a DeploymentPlan JSON "
                              "file (enables online replanning)")
    p_serve.add_argument("--no-replan", action="store_true",
                         help="with --plan: disable replanning (zero-fill "
                              "degraded mode only)")
    p_serve.add_argument("--swap-after", type=float, default=None,
                         help="rolling-swap the first fusion slot's worker "
                              "from its store artifact after this many "
                              "seconds (needs --plan and --store); zero "
                              "requests are dropped")
    p_serve.add_argument("--swap-quant", choices=("fp32", "int8"),
                         default=None,
                         help="with --swap-after: retarget the swapped "
                              "slot to this weight scheme (live fp32 -> "
                              "int8 rollout); a missing quantized "
                              "artifact is derived on demand")
    p_serve.add_argument("--json", action="store_true",
                         help="emit the run report as JSON (machine-"
                              "readable; empty-window stats are null)")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="latency-vs-offered-load sweep over the serving layer")
    _add_serving_options(p_load)
    p_load.add_argument("--rates", default="50,100,200",
                        help="comma-separated offered rates (requests/s)")
    p_load.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop clients for --compare-batching")
    p_load.add_argument("--compare-batching", action="store_true",
                        help="also run closed-loop batch=1 vs dynamic "
                             "batching")
    p_load.set_defaults(func=cmd_loadgen)

    p_cap = sub.add_parser(
        "capacity",
        help="trace-driven capacity planning: sweep fleet size x device "
             "class x codec through the vectorized simulator and print "
             "the cost/latency frontier")
    p_cap.add_argument("--trace-file", default=None, metavar="FILE",
                       help="replay an arrival trace (repro.arrivals.v1 "
                            "JSONL) instead of generating traffic")
    p_cap.add_argument("--traffic", default="burst",
                       choices=("poisson", "burst", "diurnal", "mmpp",
                                "flash"),
                       help="generated traffic shape (ignored with "
                            "--trace-file)")
    p_cap.add_argument("--rps", type=float, default=20.0,
                       help="base offered rate")
    p_cap.add_argument("--peak-rps", type=float, default=200.0,
                       help="peak rate for bursty/diurnal/mmpp/flash shapes")
    p_cap.add_argument("--duration", type=float, default=30.0,
                       help="trace length in seconds")
    p_cap.add_argument("--burst-every", type=float, default=10.0,
                       help="burst period (traffic=burst)")
    p_cap.add_argument("--burst-len", type=float, default=2.0,
                       help="burst duration (traffic=burst)")
    p_cap.add_argument("--seed", type=int, default=0)
    p_cap.add_argument("--classes", default="pi4b,pi5",
                       help="comma-separated device classes (see "
                            "repro.planning.capacity.DEVICE_CLASSES)")
    p_cap.add_argument("--fleet-sizes", default="12,60,300,1000",
                       help="comma-separated total device budgets")
    p_cap.add_argument("--groups", default="2,3,5",
                       help="comma-separated workers-per-replica counts")
    p_cap.add_argument("--codecs", default="raw32,q8",
                       help="comma-separated feature wire codecs")
    p_cap.add_argument("--slo-p95-ms", type=float, default=None,
                       help="also report the cheapest point meeting this "
                            "p95 target")
    p_cap.add_argument("--all", action="store_true",
                       help="print every scored point, not just the "
                            "frontier")
    p_cap.add_argument("--save-trace", default=None, metavar="FILE",
                       help="write the (generated) trace as JSONL for "
                            "replay against the real server")
    p_cap.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    p_cap.set_defaults(func=cmd_capacity)

    p_art = sub.add_parser(
        "artifacts", help="inspect or garbage-collect a model artifact store")
    art_sub = p_art.add_subparsers(dest="action", required=True)
    p_ls = art_sub.add_parser("ls", help="list artifacts, most recent first")
    p_ls.add_argument("--store", required=True,
                      help="artifact-store directory")
    p_ls.set_defaults(func=cmd_artifacts)
    p_gc = art_sub.add_parser(
        "gc", help="evict least-recently-used artifacts to fit the bounds")
    p_gc.add_argument("--store", required=True,
                      help="artifact-store directory")
    p_gc.add_argument("--max-mb", type=float, default=None,
                      help="keep the store under this many MiB")
    p_gc.add_argument("--max-artifacts", type=int, default=None,
                      help="keep at most this many artifacts")
    p_gc.set_defaults(func=cmd_artifacts)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
