#!/usr/bin/env python3
"""Service benchmark: four traffic mixes against the sharded DSM service.

Run from the repository root:

    python3 perfbench/run.py --workload kv_mixed_uniform --seed 1 \
        --seconds 15 --trace 0

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs the driver's
phases, each in its own process:

  --trace 0  an untraced nominal-rate phase (simulated latency metrics,
             host time per op repeated until the time budget is spent,
             set-up time, peak memory) and an untraced overload-rate phase
             (capacity). Prints every end-to-end metric.
  --trace 1  an untraced and a traced nominal-rate phase, and an overload
             phase for the elastic counters. Prints every per-layer metric,
             and marks the run incorrect unless every simulated metric of
             the traced phase equals the untraced one.

Human-readable detail goes to stdout first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exit status is
0 when a result was printed, 1 when the build or a phase failed to produce
one, 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("kv_mixed_uniform", "read_mostly_leased", "txn_contended",
             "hotspot_shift")

# name -> unit. Simulated (sim) metrics repeat exactly for a seed; host
# metrics are wall-clock measurements of this process tree.
END_TO_END = {
    "goodput_rps": "req/s",      # sim, nominal rate
    "sat_goodput_rps": "req/s",  # sim, overload rate
    "mean_us": "us",             # sim, all ops, nominal
    "p99_us": "us",
    "p999_us": "us",
    "read_p99_us": "us",
    "update_p99_us": "us",
    "slo_miss_frac": "ratio",
    "peak_rss_mb": "MB",         # host, untraced nominal process
    "setup_s": "s",              # host, median of repeated set-ups
}

BUCKETS = ("queue_wait", "wire", "root_sequencing", "coalesce", "retransmit",
           "rollback", "compute", "backlog", "backoff", "other")

PER_LAYER = {
    "load.plan_s": "s",
    "shard.backlog_p99_us": "us",
    "shard.read_service_p99_us": "us",
    "shard.update_service_p99_us": "us",
    "shard.forwarded_per_op": "1/op",
    "shard.client_redirects_per_kop": "1/kop",
    "shard.lease.hit_rate": "ratio",
    "shard.lease.grants_per_kread": "1/kread",
    "shard.lease.invalidations_per_write": "1/write",
    "txn.commit_ratio": "ratio",
    "txn.aborts_per_op": "1/op",
    "txn.retries_per_op": "1/op",
    "txn.fallbacks_per_kop": "1/kop",
    "txn.abort_clobber_share": "ratio",
    "txn.abort_validation_share": "ratio",
    "core.lock_acquire_p50_us": "us",
    "core.lock_acquire_p99_us": "us",
    "core.lock_hold_p50_us": "us",
    "core.spec_commit_ratio": "ratio",
    "core.rollbacks_per_kop": "1/kop",
    "core.history_veto_share": "ratio",
    "dsm.sequenced_per_op": "1/op",
    "dsm.writes_per_frame": "1/frame",
    "dsm.spec_drops_per_kop": "1/kop",
    "net.msgs_per_op": "1/op",
    "net.bytes_per_op": "B/op",
    "net.hop_bytes_per_op": "B/op",
    "net.retransmits_per_kmsg": "1/kmsg",
    "net.acks_per_msg": "1/msg",
    "net.ack_piggyback_share": "ratio",
    "simkern.events_per_op": "1/op",
    "simkern.host_us_per_op": "us",
    "simkern.host_ns_per_event": "ns",
    "elastic.actions": "count",
    "elastic.promotions": "count",
    "elastic.splits": "count",
    "elastic.migrations": "count",
    "elastic.quiesce_us": "us",
    **{f"telemetry.path.{b}_share": "ratio" for b in BUCKETS},
    "telemetry.trace_host_overhead": "ratio",
    "telemetry.trace_rss_overhead": "ratio",
    "host.setup_s": "s",
    "host.loop_s": "s",
    "host.report_s": "s",
}

# Share of --seconds the nominal phase spends repeating its event loop, by
# --trace value (the traced run needs the rest).
NOMINAL_BUDGET_SHARE = {0: 0.55, 1: 0.3}
PHASE_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to print."""


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "perfbench_driver", "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise BenchError("build failed (see " + str(log_path) + ")")
    return out / "perfbench_driver"


def run_phase(driver, workload, seed, phase, budget_s=0.0):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--phase", phase, "--budget-s", repr(budget_s)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PHASE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} phase timed out") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode in (0, 1) and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    sys.stderr.write(proc.stderr)
    raise BenchError(f"{phase} phase failed (exit {proc.returncode})")


def describe(result):
    sim = result["sim"]
    host = result["host"]
    gates = result["gate_failures"] or "all gates passed"
    return (f"  {result['phase']:8s} seed {result['seed']}: "
            f"{result['completed']}/{result['issued']} completed "
            f"(fail_frac {sim['fail_frac']:.6g}); goodput "
            f"{sim['goodput_rps']:.6g} req/s; p50 {sim['p50_us']:.6g} us, "
            f"p{100 * sim['p999_quantile']:.6g} {sim['p999_us']:.6g} us "
            f"({int(sim['p999_beyond'])} of {int(sim['samples'])} samples "
            f"beyond); {int(host['reps'])} rep(s), "
            f"{host['us_per_op']:.6g} host us/op; "
            f"{'deterministic' if result['deterministic'] else 'NOT DETERMINISTIC'}; "
            f"{gates}")


def end_to_end(driver, workload, seed, seconds):
    nominal = run_phase(driver, workload, seed, "nominal",
                        NOMINAL_BUDGET_SHARE[0] * seconds)
    overload = run_phase(driver, workload, seed, "overload")
    sim, host = nominal["sim"], nominal["host"]
    values = {
        "goodput_rps": sim["goodput_rps"],
        "sat_goodput_rps": overload["sim"]["goodput_rps"],
        "mean_us": sim["mean_us"],
        "p99_us": sim["p99_us"],
        "p999_us": sim["p999_us"],
        "read_p99_us": sim["read_p99_us"],
        "update_p99_us": sim["update_p99_us"],
        "slo_miss_frac": sim["slo_miss_frac"],
        "peak_rss_mb": host["peak_rss_mb"],
        "setup_s": host["setup_s"],
    }
    return [nominal, overload], values, True


def per_layer(driver, workload, seed, seconds):
    untraced = run_phase(driver, workload, seed, "nominal",
                         NOMINAL_BUDGET_SHARE[1] * seconds)
    traced = run_phase(driver, workload, seed, "traced")
    # The elastic controller acts at the overload rate; at the nominal
    # rate the fabric is below its knee and the controller stays idle.
    overload = run_phase(driver, workload, seed, "overload")
    # Tracer parity: the tracer may observe the model, never perturb it.
    parity = (traced["sim"] == untraced["sim"] and
              traced["fingerprint"] == untraced["fingerprint"])
    if not parity:
        print("  TRACER PARITY VIOLATION: traced simulation differs from the "
              "untraced one")
    layers, host = traced["layers"], untraced["host"]
    values = {name: layers[name] for name in PER_LAYER if name in layers}
    values.update({name: value for name, value in overload["layers"].items()
                   if name.startswith("elastic.")})
    values.update({
        "load.plan_s": host["plan_s"],
        "simkern.host_us_per_op": host["us_per_op"],
        "simkern.host_ns_per_event": host["ns_per_event"],
        # Both first runs of their process: equally cold.
        "telemetry.trace_host_overhead":
            traced["host"]["loop_s"] / host["first_loop_s"],
        "telemetry.trace_rss_overhead":
            traced["host"]["peak_rss_mb"] / host["peak_rss_mb"],
        "host.setup_s": host["setup_s"],
        "host.loop_s": host["loop_s"],
        "host.report_s": host["report_s"],
    })
    return [untraced, traced, overload], values, parity


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        driver = build()
        started = time.monotonic()
        measure = per_layer if args.trace else end_to_end
        phases, values, parity = measure(driver, args.workload, args.seed,
                                         args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        sys.stderr.write(f"perfbench: metrics missing: {missing}\n")
        return 1

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace} "
          f"({time.monotonic() - started:.1f} s)")
    for phase in phases:
        print(describe(phase))
    correct = parity and all(p["ok"] for p in phases)
    attempted = sum(p["issued"] for p in phases)
    failed = sum(p["issued"] - p["completed"] for p in phases)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
