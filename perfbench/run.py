"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload kv-live --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` measures the same pass untraced and then traced, each
for half the time, and reports the per-layer metrics of the traced
pass plus the tracing overhead. Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the names and units declared in BENCHMARK.json).
Human-readable lines, the correctness checks and the output digest
come before it, and the run's record (manifest, checks, layer table,
spans) is written under ``perfbench/out/``. The exit code is 1 when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics taken in host time, and the power of the host
#: slowdown that scales them (throughput up, durations down).
HOST_METRICS = {"ops_per_s": 1, "op_host_p50_ms": -1, "op_host_p90_ms": -1,
                "setup_s": -1}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(name: str, seed: int, seconds: float, tracer=None):
    """Set up, run whole rounds for ``seconds``, then check the outputs."""
    from perfbench.tracing import install_layers
    from perfbench.workloads import (WORKLOADS, Outcome, Recorder,
                                     RoundStats, SpeedProbe)

    if tracer is not None:
        install_layers(tracer)
    probe = SpeedProbe()
    rec = Recorder(probe)
    rec.install()
    rec.tracer = tracer
    clock = time.perf_counter
    try:
        wl = WORKLOADS[name](seed, rec)
        setup_times = []

        def set_up() -> float:
            probe.sample()
            t0, spent = clock(), probe.spent
            wl.setup(len(setup_times))
            took = clock() - t0
            setup_times.append(took - (probe.spent - spent))
            return took

        if wl.setups_up_front:
            while len(setup_times) < wl.setups:
                set_up()
        rec.take_topology_changes()
        rounds = []
        began, setting_up = clock(), 0.0
        while not rounds or clock() - began - setting_up < seconds:
            # Set-up k runs at the first round boundary past k/setups of
            # the measuring time.
            while (len(setup_times) < wl.setups and len(setup_times)
                   <= wl.setups * (clock() - began - setting_up) / seconds):
                setting_up += set_up()
            probe.sample()
            t0, spent = clock(), probe.spent
            wl.run_round(len(rounds))
            rounds.append(RoundStats(
                ops=wl.round_ops, host=clock() - t0 - (probe.spent - spent)))
            wl.after_round()
        while len(setup_times) < wl.setups:
            set_up()
        # Unwrap before the checks, in the reverse order of wrapping, so
        # the checks' own calls into the program are neither recorded
        # nor traced.
        rec.uninstall()
        if tracer is not None:
            tracer.uninstall()
        outcome = Outcome(setup_times=setup_times, rounds=rounds,
                          attempted=sum(r.ops for r in rounds), failed=0,
                          checks=[], metrics={})
        wl.finish(outcome)
    finally:
        rec.uninstall()
        if tracer is not None:
            tracer.uninstall()
    outcome.metrics["setup_s"] = statistics.median(setup_times)
    outcome.raw_metrics = dict(outcome.metrics)
    outcome.slowdown = probe.slowdown
    for metric, power in HOST_METRICS.items():
        outcome.metrics[metric] *= probe.slowdown ** power
    outcome.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    outcome.layer_counts["simnet.topology_changes"] = wl.topology_changes
    return outcome


def layer_metrics(tracer, outcome, overhead_pct: float) -> dict:
    """The per-layer table of a traced pass."""
    self_s = tracer.self_times()
    counts = tracer.counts
    inclusive = tracer.inclusive_times()
    table = {}

    def spanned(metric: str, span: str) -> None:
        table[metric + ".self_s"] = self_s.get(span, 0.0)
        table[metric + ".calls"] = counts.get(span + ".calls", 0.0)

    spanned("simnet.route", "simnet.route")
    table["simnet.route.discoveries"] = counts.get(
        "simnet.route.discoveries", 0.0)
    table["core.access_engine.tree.calls"] = counts.get(
        "core.access_engine.tree.calls", 0.0)
    table["core.access_engine.tree.builds"] = counts.get(
        "core.access_engine.bfs_tree.calls", 0.0)
    spanned("core.access", "core.access")
    table["core.access.attempts"] = counts.get("core.access.attempts", 0.0)
    spanned("membership.sample", "membership.sample")
    spanned("membership.refresh", "membership.refresh")
    spanned("geometry.neighbor_tables", "geometry.neighbor_tables")
    spanned("randomwalk.walk", "randomwalk.walk")
    spanned("randomwalk.reply", "randomwalk.reply")
    spanned("sim.run_until", "sim.run_until")
    spanned("core.leases.visible", "core.leases.visible")
    spanned("core.leases.store", "core.leases.store")
    for op in ("get", "put", "cas"):
        spanned(f"services.kvstore.{op}", f"services.kvstore.{op}")
    spanned("services.consistency.record", "services.consistency.record")
    table["services.consistency.check_kv_batch_s"] = inclusive.get(
        "services.consistency.check_kv_batch", 0.0)
    table["services.consistency.check_kv_batch.calls"] = counts.get(
        "services.consistency.check_kv_batch.calls", 0.0)
    table["obs.trace.events"] = counts.get("obs.trace.events", 0.0)
    spanned("obs.watch", "obs.watch")
    spanned("obs.slo", "obs.slo")
    spanned("faults.campaign", "faults.campaign")
    table["experiments.workload.generate_s"] = inclusive.get(
        "experiments.workload.generate", 0.0)
    table["experiments.workload.kernel_s"] = self_s.get(
        "experiments.workload.kernel", 0.0)
    table["experiments.montecarlo.replica_build_s"] = tracer.time_under(
        ("simnet.build", "simnet.finish_init", "geometry.neighbor_tables"),
        within="experiments.montecarlo.run",
        outside=("sim.run_until", "core.access"))
    for name in ("simnet.topology_changes", "simnet.routing_messages_per_op",
                 "core.leases.reclaimed", "faults.campaign.injections",
                 "experiments.workload.issue_lag_p99_s"):
        table[name] = float(outcome.layer_counts.get(name, 0.0))
    table["bench.trace_overhead_pct"] = overhead_pct
    return table


def _report(name: str, outcome, declared: dict, values: dict) -> None:
    print(f"workload {name}")
    for metric, unit in declared.items():
        print(f"  {metric:44s} {values[metric]:>14.6g} {unit}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    for check in outcome.checks:
        print(check.line())
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  digest {outcome.digest} (outputs of round 0)")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.tracing import SpanTracer
    from perfbench.workloads import WORKLOADS
    from repro.obs.manifest import collect_manifest

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    manifest = collect_manifest("perfbench", params=vars(args),
                                seed=args.seed, jobs=1)
    wall = time.perf_counter()
    # A traced run splits its time between the untraced and the traced
    # pass, so it takes no longer than an untraced run.
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    plain = measure(args.workload, args.seed, seconds)
    outcomes = [plain]
    layer = "end_to_end"
    values = dict(plain.metrics)
    tracer = None
    if args.trace:
        tracer = SpanTracer()
        traced = measure(args.workload, args.seed, seconds, tracer)
        outcomes.append(traced)
        overhead = (plain.metrics["ops_per_s"]
                    / traced.metrics["ops_per_s"] - 1.0) * 100.0
        values = layer_metrics(tracer, traced, overhead)
        layer = "per_layer"
    declared = {m["name"]: m["unit"] for m in spec[layer]}
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    correct = all(c.ok for o in outcomes for c in o.checks)
    result = {
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {m: {"value": values[m], "unit": u}
                    for m, u in declared.items()},
    }
    _report(args.workload, outcomes[-1], declared, values)
    print(f"  host slowdown {plain.slowdown:.4f} (host metrics above are "
          f"scaled by it; unscaled ops_per_s "
          f"{plain.raw_metrics['ops_per_s']:.6g})")
    if args.trace:
        print(f"  untraced ops_per_s {plain.metrics['ops_per_s']:.6g}, "
              f"traced {outcomes[-1].metrics['ops_per_s']:.6g}")
    manifest.wall_time_s = time.perf_counter() - wall
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "manifest": manifest.to_dict(),
        "result": result,
        "end_to_end": plain.metrics,
        "digest": plain.digest,
        "checks": [vars(c) for o in outcomes for c in o.checks],
        "notes": plain.notes,
        "setup_times_s": plain.setup_times,
        "host_slowdown": plain.slowdown,
        "unscaled_host_metrics": {m: plain.raw_metrics[m]
                                  for m in HOST_METRICS},
        "rounds": len(plain.rounds),
    }
    if tracer is not None:
        record["per_layer"] = values
        tracer.save(str(run_dir / "spans.npz"))
        with open(run_dir / "layers.txt", "w") as handle:
            for metric in sorted(values):
                handle.write(f"{metric:48s} {values[metric]:.6g}\n")
    with open(run_dir / "record.json", "w") as handle:
        json.dump(record, handle, indent=2, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
