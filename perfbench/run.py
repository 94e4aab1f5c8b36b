"""Serving benchmark: drives the real InferenceServer over a 2-worker fleet.

Usage (from the repository root)::

    python3 perfbench/run.py --workload overhead --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds the workload's system (timed as set-up, several times), then
measures for ``--seconds``:

* ``--trace 0``: a paced open-loop phase (latency) and a saturation phase
  (throughput ceiling), tracing off; prints the end-to-end metrics.
* ``--trace 1``: an untraced paced phase, the same traffic traced, and an
  uncontended kernel replay; prints the per-layer metrics.

``--workload all`` runs every workload in both modes.  Metric names and
units come from ``BENCHMARK.json``.  Every served label is checked against
an in-process reference.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3                     # set-ups per run; setup_s is their median
WARMUP_S = 1.0                 # paced traffic before any measurement
PACED_SHARE = 0.65             # --trace 0: paced phase, rest saturation
SATURATION_ROUNDS = 8          # saturation sub-phases; max_rps is the best round
CALM_RANK = 1                  # p50_ms: the second-calmest latency window
MIN_WINDOWS = 3                # paced phase length, in latency windows
DRIFT_WARN_X = 1.25            # warn when the later half runs this much slower
ACCOUNTING_WARN_PCT = 25.0     # warn when the residual or the gap passes this
PLAIN_SHARE, TRACED_SHARE = 0.35, 0.55   # --trace 1 phases; rest replay
WATCHDOG_SLACK_S = 120.0      # a run may take --seconds plus this


def _stop_processes() -> None:
    """Kill any worker still running, then stop multiprocessing's resource
    tracker, waiting for each to exit.

    Spawning the workers starts the tracker, and multiprocessing leaves it
    to outlive the benchmark; a run must leave no process behind.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(5)
    resource_tracker._resource_tracker._stop()


def _watchdog(limit_s: float) -> threading.Timer:
    """Kill the fleet and exit if a run hangs past ``limit_s``."""
    def abort():
        print(f"perfbench: run exceeded {limit_s:g} s, aborting",
              file=sys.stderr, flush=True)
        _stop_processes()
        os._exit(3)

    timer = threading.Timer(limit_s, abort)
    timer.daemon = True
    timer.start()
    return timer


def _seeds(seed: int, n: int) -> list[int]:
    import numpy as np

    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


def _wire_bytes(direction: str) -> float:
    from repro.obs import get_registry

    prefix = f"wire.bytes_{direction}_total"
    return sum(snap["value"]
               for snap in get_registry().snapshot(prefix).values())


def _slowdown_x(early: list[float], late: list[float]) -> float:
    """How much slower the later half of a phase ran: median ratio."""
    return float(statistics.median(late) / statistics.median(early))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns its metrics, counts and the environment stamp."""
    import numpy as np

    from harness import (Inputs, environment, model_mb, paced, saturate,
                        set_up, worker_peak_rss_mb)

    env = environment()
    traffic_seeds = _seeds(seed, 3)
    setups = []
    for _ in range(SETUPS):
        if setups:
            setups[-1].server.stop()
        setups.append(set_up(workload))
    live = setups[-1]
    server = live.server
    phases = []
    try:
        inputs = Inputs(live.system, workload.images_per_request,
                        workload.pool_size, seed)
        traffic = lambda share, s: workload.traffic(share * seconds,
                                                    s).arrivals
        phases.append(paced(server, inputs,
                            workload.traffic(WARMUP_S, seed).arrivals))
        if not trace:
            phases.append(paced(server, inputs,
                                traffic(PACED_SHARE, traffic_seeds[0])))
            rounds = [saturate(server, inputs,
                               (1 - PACED_SHARE) * seconds / SATURATION_ROUNDS,
                               workload.saturation_window)
                      for _ in range(SATURATION_ROUNDS)]
            phases.extend(rounds)
        else:
            from repro import obs

            phases.append(paced(server, inputs,
                                traffic(PLAIN_SHARE, traffic_seeds[1])))
            wire_before = _wire_bytes("out"), _wire_bytes("in")
            tracer = obs.enable_tracing(capacity=1 << 21)
            try:
                phases.append(paced(server, inputs,
                                    traffic(TRACED_SHARE, traffic_seeds[2])))
            finally:
                obs.disable_tracing()
            wire = (_wire_bytes("out") - wire_before[0],
                    _wire_bytes("in") - wire_before[1])
            spans = tracer.spans()
            if tracer.dropped:
                raise RuntimeError(f"tracer dropped {tracer.dropped} spans")
        peak_rss = worker_peak_rss_mb()
    finally:
        server.stop()

    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    if len(peak_rss) != len(live.system.specs):
        raise RuntimeError(f"read the peak RSS of {len(peak_rss)} workers, "
                           f"expected {len(live.system.specs)}")
    median = lambda values: float(np.median(values))
    counts = {"attempted": attempted, "failed": failed, "wrong": wrong,
              "fail_ratio": failed / attempted}
    if not trace:
        measured, rounds = phases[1], phases[2:]
        latencies = measured.latencies_ms()
        windows = measured.window_latencies_ms(workload.window_s)
        p50s = [float(np.percentile(w, 50)) for w in windows]
        p99s = [float(np.percentile(w, 99)) for w in windows]
        round_rps = [len(r.served) / r.span_s for r in rounds]
        # Interference from other tenants of the host only ever slows a
        # window down, so a calm window measures the program itself.  The
        # second-calmest one is used so that a single lucky window cannot
        # hide a slowdown of the others; the drift ratios below flag costs
        # that grow over the run, which a calm-window estimate can miss.
        half, rounds_half = len(p50s) // 2, len(round_rps) // 2
        metrics = {
            "p50_ms": sorted(p50s)[CALM_RANK],
            "setup_s": median([s.total_s for s in setups]),
            "worker_rss_mb": max(peak_rss),
            "model_mb": model_mb(live.system),
        }
        counts.update(paced_served=len(latencies),
                      min_window_served=min(len(w) for w in windows),
                      window_p50_ms=p50s, window_p99_ms=p99s,
                      saturation_served=sum(len(r.served) for r in rounds),
                      round_rps=round_rps)
        ungated = {
            "p99_ms": (median(p99s), "ms"),
            "max_rps": (max(round_rps), "req/s"),
            "p50_drift_x": (_slowdown_x(p50s[:half], p50s[half:]), "x"),
            "rps_drift_x": (_slowdown_x(round_rps[rounds_half:],
                                        round_rps[:rounds_half]), "x"),
        }
        return {"metrics": metrics, "ungated": ungated, "counts": counts,
                "env": env}

    from replay import replay
    from spans import TraceIndex, account, batch_mix, served_forward_s

    plain, traced = phases[1], phases[2]
    index = TraceIndex(spans)
    metrics, accounting = account(index, traced)
    replayed = replay(live.system.models[0], inputs.pool, batch_mix(index),
                      budget_s=(1 - PLAIN_SHARE - TRACED_SHARE) * seconds)
    plain_p50 = float(np.median(plain.latencies_ms()))
    requests = len(traced.outcomes)
    metrics.update({
        "serving.batcher.depth_max": traced.depth_max,
        "edge.wire.bytes_out_per_req": wire[0] / requests,
        "edge.wire.bytes_in_per_req": wire[1] / requests,
        "core.inference.contention_x":
            served_forward_s(index) / replayed.pop("replay_forward_s"),
        "setup.build_s": median([s.build_s for s in setups]),
        "setup.spawn_s": median([s.spawn_s for s in setups]),
        "setup.first_request_ms":
            1e3 * median([s.first_request_s for s in setups]),
        "obs.trace_overhead_pct":
            100.0 * (accounting["p50_ms"] - plain_p50) / plain_p50,
        "loadgen.lag_p99_ms": float(np.percentile(traced.lags_ms(), 99)),
    })
    metrics.update(replayed)
    residual_pct = (100.0 * metrics["serving.server.residual_ms"]
                    / accounting["p50_ms"])
    counts.update(traced_served=len(traced.served), spans=len(spans),
                  untraced_p50_ms=plain_p50,
                  residual_pct_of_p50=residual_pct,
                  accounting_ok=(residual_pct <= ACCOUNTING_WARN_PCT and
                                 abs(accounting["gap_pct"])
                                 <= ACCOUNTING_WARN_PCT))
    return {"metrics": metrics, "counts": counts, "env": env,
            "accounting": accounting}


def _report(name: str, result: dict, units: dict[str, str]) -> None:
    """Human-readable block for one run (stdout, before the JSON line)."""
    print(f"== {name}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:40s} {value:14.4f} {units[metric]}")
    for metric, (value, unit) in result.get("ungated", {}).items():
        print(f"  {metric:40s} {value:14.4f} {unit} (not gated, see README)")
    accounting = result.get("accounting")
    if accounting:
        print("  accounting of traced p50, ms: stage medians | stage means "
              "of the p45-p55 latency band")
        for stage, ms in accounting["stages_ms"].items():
            print(f"    {stage:38s} {ms:10.4f} | "
                  f"{accounting['band_ms'][stage]:10.4f}")
        band_sum = sum(accounting["band_ms"].values())
        print(f"    {'sum':38s} {accounting['sum_ms']:10.4f} | "
              f"{band_sum:10.4f}")
        print(f"    traced p50 {accounting['p50_ms']:.4f} (medians' gap "
              f"{accounting['gap_pct']:+.1f}%); band mean latency "
              f"{accounting['band_latency_ms']:.4f}")
    counts = result["counts"]
    print("  counts:", json.dumps(counts))
    drifts = {m: v for m, (v, _) in result.get("ungated", {}).items()
              if m.endswith("_drift_x") and v > DRIFT_WARN_X}
    for metric, value in drifts.items():
        print(f"  WARNING: {metric} {value:.2f}: the later half of the phase "
              "ran slower; a cost that grows over the run passes the "
              "calm-window gate")
    if not counts.get("accounting_ok", True):
        print(f"  WARNING: the stages leave {counts['residual_pct_of_p50']:.1f}"
              f"% of the traced p50 as residual, or their medians miss it by "
              f"more than {ACCOUNTING_WARN_PCT:g}%; the accounting is not "
              "trustworthy")
    print("  env:", json.dumps(result["env"]))
    if result["env"]["host_busy"]:
        print(f"  WARNING: host was busy before the run "
              f"({result['env']['cpu_busy_before']:.0%} of all cores)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "repro").is_dir():
        print(f"perfbench: {ROOT} is not a checkout of this repository "
              "(needs BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload == "all":
        names, modes = list(WORKLOADS), (False, True)
    elif args.workload in WORKLOADS:
        names, modes = [args.workload], (bool(args.trace),)
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")
    for name in names:
        if args.seconds * PACED_SHARE < MIN_WINDOWS * WORKLOADS[name].window_s:
            parser.error(f"--seconds {args.seconds:g} leaves {name} fewer "
                         f"than {MIN_WINDOWS} {WORKLOADS[name].window_s:g}-s "
                         "latency windows")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    expected = {False: [m["name"] for m in spec["end_to_end"]],
                True: [m["name"] for m in spec["per_layer"]]}

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            for trace in modes:
                timer = _watchdog(args.seconds + WATCHDOG_SLACK_S)
                try:
                    result = run_workload(WORKLOADS[name], args.seed,
                                          args.seconds, trace)
                finally:
                    timer.cancel()
                missing = set(expected[trace]) - set(result["metrics"])
                if missing:
                    raise RuntimeError(
                        f"{name}: no value for {sorted(missing)}")
                result["metrics"] = {m: result["metrics"][m]
                                     for m in expected[trace]}
                _report(f"{name} trace={int(trace)} "
                        f"({WORKLOADS[name].rate_label})", result, units)
                summary["correct"] &= result["counts"]["wrong"] == 0
                summary["attempted"] += result["counts"]["attempted"]
                summary["failed"] += result["counts"]["failed"]
                prefix = "" if len(names) * len(modes) == 1 else f"{name}."
                summary["metrics"].update(
                    {prefix + m: {"value": v, "unit": units[m]}
                     for m, v in result["metrics"].items()})
    finally:
        _stop_processes()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
