#!/usr/bin/env python3
"""Simulator cost benchmark for ActYP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the measuring
program (perfbench/CMakeLists.txt) into .bench_build/; later runs only
check that it is up to date. The workload's inputs are generated here
from --seed and handed to the program as a configuration file; the
program reports raw observations, and this script turns them into the
metrics named in BENCHMARK.json, checks the outputs (checks.py), prints
every metric with its unit, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span file named in the output). The exit code is 0 when
every check held, 1 when a check failed, 2 when the run could not be
made at all.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "actyp_perfbench")

# A run must end within 180 s once the program is built.
PROGRAM_TIMEOUT_S = 170

# Deployment keys are ScenarioConfig fields (see the README for what each
# workload is for); warmup_s / window_s are simulated seconds.
WORKLOADS = {
    "lan_scan": dict(
        machines=12800, clusters=4, policy="linear-least-load", clients=64,
        hold_s=0.01, hold_jitter=1.0, warmup_s=5, window_s=150, chunks=5,
        saturation_check=True),
    "lan_fanout": dict(
        machines=12800, clusters=8, pool_segments=2, qos_fanout=2,
        query_managers=2, pool_managers=2, policy="least-load", clients=32,
        hold_s=0.015, hold_jitter=1.0, warmup_s=2, window_s=15, chunks=4),
    "wan_churn": dict(
        machines=6400, clusters=4, pool_replicas=2, directory_replicas=2,
        query_managers=2, pool_managers=2, wan=True, policy="least-load",
        clients=64, hold_s=0.2, retry_max=2, request_timeout_s=10,
        churn_rate=4, churn_downtime_s=5, warmup_s=10, window_s=50,
        chunks=4),
    "wan_lp": dict(
        machines=40000, clusters=32, wan_sites=8, query_managers=2,
        pool_managers=2, policy="linear-least-load", clients=96,
        cell_jobs=1, warmup_s=3, window_s=20, chunks=3),
}

# Keys that steer this script, not the deployment.
LOCAL_KEYS = {"saturation_check"}

END_TO_END = [
    ("setup_s", "s"),
    ("host_req_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_req", "count"),
    ("resp_p50_s", "sim_s"),
    ("resp_p99_s", "sim_s"),
    ("sim_throughput_rps", "req/sim_s"),
]

PER_LAYER = [
    ("actyp.build_us_per_machine", "us"),
    ("actyp.build_allocs_per_machine", "count"),
    ("actyp.rss_kb_per_machine", "KB"),
    ("simnet.events_per_req", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.lp_speedup", "ratio"),
    ("simnet.lp_busy_cores", "cores"),
    ("sched.examined_per_alloc", "entries"),
    ("sched.select_ns", "ns"),
    ("net.codec_ns", "ns"),
    ("net.codec_allocs", "count"),
    ("query.parse_ns", "ns"),
    ("pipeline.qm_admit_p50_s", "sim_s"),
    ("pipeline.pm_delegate_p50_s", "sim_s"),
    ("pipeline.pool_select_p50_s", "sim_s"),
    ("pipeline.reintegrate_p50_s", "sim_s"),
    ("pipeline.reply_p50_s", "sim_s"),
    ("pipeline.refreshed_per_tick", "entries"),
    ("db.foreach_ms", "ms"),
    ("fault.churn_host_s", "s"),
    ("replica.host_s", "s"),
    ("replica.sync_bytes", "bytes"),
    ("profile.overhead_pct", "%"),
    ("obs.flight_overhead_pct", "%"),
]


class BenchError(Exception):
    """The run could not be made (bad checkout, build or program failure)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "actyp", "scenario.cpp")):
        raise BenchError(f"no ActYP sources under {ROOT}/src; run from the "
                         "root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")


def derive_seed(workload, seed):
    """The workload seed, fixed by the workload name and --seed (63-bit,
    so it survives the config's int parsing). The program draws each
    replication's simulation seed from it."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def config_text(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    lines = [f"# generated by perfbench/run.py: {name}, seed {seed}"]
    for key, value in workload.items():
        if key in LOCAL_KEYS:
            continue
        if trace and key == "window_s":
            # The traced run builds 31 deployments; half windows keep it
            # near 40 s.
            value = value / 2
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    lines.append(f"seed = {derive_seed(name, seed)}")
    if not trace:
        lines.append(f"host_seconds = {seconds}")
    else:
        lines.append("span_out = " + os.path.join(
            BUILD, "perfbench", f"spans-{name}-{seed}.json"))
    return "\n".join(lines) + "\n"


def run_program(mode, config_path, timeout_s):
    try:
        proc = subprocess.run([BINARY, mode, config_path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"measuring program exceeded {timeout_s:.0f}s") from e
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"measuring program exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("measuring program printed nothing")
    return json.loads(lines[-1])


def end_to_end_metrics(result):
    rounds = result["rounds"]
    rates = [c / t for c, t in zip(rounds["completed"], rounds["cpu_s"])]
    pooled = result["pooled"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "host_req_per_s": statistics.median(rates),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "allocs_per_req": sum(rounds["allocs"]) / sum(rounds["completed"]),
        "resp_p50_s": pooled["p50_s"],
        "resp_p99_s": pooled["p99_s"],
        "sim_throughput_rps": pooled["completed"] / pooled["window_s"],
    }


def per_layer_metrics(result):
    build_ = result["build"]
    window = result["window"]
    modeled = result["modeled"]
    pool = result["pool"]
    layers = result["layers"]
    stages = result["stages"]
    variants = result["variants"]

    # Each repetition runs every variant back to back, so a variant is
    # compared with the base run of its own repetition and the median
    # over repetitions is taken: the machine's speed drifts between
    # repetitions more than within one. The one-thread differentials
    # compare process CPU time, which other tenants' time slices do not
    # inflate; the LP speedup needs wall time. Every workload's base runs
    # at 1 LP worker, "lp_jobs" at 4.
    def paired(fn, name, clock="cpu_s"):
        return statistics.median(
            fn(b, v) for b, v in zip(variants["base"][clock],
                                     variants[name][clock]))

    def minus(b, v):
        return b - v

    def ratio(b, v):
        return b / v

    busy = [c / h for c, h in zip(variants["lp_jobs"]["cpu_s"],
                                  variants["lp_jobs"]["host_s"])]
    machines = build_["machines"]
    return {
        "actyp.build_us_per_machine": build_["host_s"] * 1e6 / machines,
        "actyp.build_allocs_per_machine": build_["allocs"] / machines,
        "actyp.rss_kb_per_machine": build_["rss_kb"] / machines,
        "simnet.events_per_req": window["events"] / modeled["completed"],
        "simnet.ns_per_event": window["host_s"] * 1e9 / window["events"],
        "simnet.lp_speedup": paired(ratio, "lp_jobs", "host_s"),
        "simnet.lp_busy_cores": statistics.median(busy),
        "sched.examined_per_alloc": pool["examined"] / pool["allocations"],
        "sched.select_ns": layers["select_ns"],
        "net.codec_ns": layers["codec_ns"],
        "net.codec_allocs": layers["codec_allocs"],
        "query.parse_ns": layers["parse_ns"],
        "pipeline.qm_admit_p50_s": stages["qm_admit"]["p50_s"],
        "pipeline.pm_delegate_p50_s": stages["pm_delegate"]["p50_s"],
        "pipeline.pool_select_p50_s": stages["pool_select"]["p50_s"],
        "pipeline.reintegrate_p50_s": stages["reintegrate"]["p50_s"],
        "pipeline.reply_p50_s": stages["reply"]["p50_s"],
        "pipeline.refreshed_per_tick":
            pool["refreshed"] / max(1, pool["refresh_ticks"]),
        "db.foreach_ms": layers["foreach_ms"],
        "fault.churn_host_s": paired(minus, "no_churn"),
        "replica.host_s": paired(minus, "one_replica"),
        "replica.sync_bytes": pool["sync_bytes"],
        "profile.overhead_pct": (paired(ratio, "no_profile") - 1) * 100,
        "obs.flight_overhead_pct":
            (1 / paired(ratio, "flight") - 1) * 100,
    }


def measure(name, seed, seconds, trace):
    os.makedirs(os.path.join(BUILD, "perfbench"), exist_ok=True)
    config_path = os.path.join(
        BUILD, "perfbench", f"{name}-{seed}-{'trace' if trace else 'run'}.conf")
    with open(config_path, "w") as f:
        f.write(config_text(name, seed, seconds, trace))
    result = run_program("trace" if trace else "run", config_path,
                         PROGRAM_TIMEOUT_S)
    workload = WORKLOADS[name]
    if trace:
        failures = checks.trace_checks(result, workload)
        metrics = per_layer_metrics(result)
        units = dict(PER_LAYER)
        windows = [result["modeled"]]
        log(f"spans: {result['spans']['count']} written to "
            f"{result['spans']['file']}")
    else:
        failures = checks.run_checks(result, workload)
        metrics = end_to_end_metrics(result)
        units = dict(END_TO_END)
        windows = result["replications"]
    attempted = sum(w["completed"] + w["failed"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    return failures, attempted, failed, {
        key: {"value": value, "unit": units[key]}
        for key, value in metrics.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start = time.monotonic()
    try:
        build()
        failures, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    for key, metric in metrics.items():
        print(f"{args.workload:<11} {key:<32} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:<11} attempted {attempted}, failed {failed}, "
          f"checks {'passed' if not failures else 'FAILED'}, "
          f"{time.monotonic() - start:.1f}s")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
