"""Correctness checks for the simulator cost benchmark.

Each check compares what the program reported against a value the
benchmark computes itself, from the workload it generated and from the
program's public cost model, or against a property the modeled system
must have. None compares against a stored copy of earlier output. Every
check returns a list of failure messages; an empty list means it held.
"""

import math

# Little's law tolerance: edge effects (one partial cycle per client at
# each end of the window) stay well inside this on every workload (the
# largest deviation seen was under 1%).
LITTLE_TOLERANCE = 0.02


def little(rep, clients, window_s, hold_s, hold_jitter):
    """Closed-loop identity: a closed loop of `clients` clients, each
    cycling response + hold, completes clients * window / cycle requests.
    A random hold adds its own sampling error, allowed for at 4 sigma."""
    completed = rep["completed"]
    cycle = rep["mean_s"] + hold_s
    if cycle <= 0 or completed <= 0:
        return ["little: no completed requests in the window"]
    expected = clients * window_s / cycle
    hold_sd = hold_s * hold_jitter / math.sqrt(3)
    tolerance = LITTLE_TOLERANCE + 4 * hold_sd / cycle / math.sqrt(completed)
    error = abs(completed - expected) / expected
    if error > tolerance:
        return [f"little: completed {completed} vs clients*window/cycle "
                f"{expected:.1f} (off by {error:.2%}, tolerance "
                f"{tolerance:.2%})"]
    return []


def conservation(rep, fanout, segments):
    """Every request the clients issued is completed, failed, or still in
    flight; each query holds at most one machine per fragment copy, and
    every completed request was granted at least one machine."""
    failures = []
    finished = rep["completed"] + rep["failed"]
    issued = rep["sent"] + rep["inflight_start"] - rep["inflight_end"]
    if finished != issued:
        failures.append(f"conservation: completed+failed {finished} != "
                        f"sent+inflight_start-inflight_end {issued}")
    ceiling = fanout * segments * (rep["sent"] + rep["inflight_start"])
    if rep["pool_allocations"] > ceiling:
        failures.append(f"conservation: {rep['pool_allocations']} pool "
                        f"allocations > fanout*segments*queries {ceiling}")
    floor = rep["completed"] - rep["inflight_start"]
    if rep["pool_allocations"] < floor:
        failures.append(f"conservation: {rep['pool_allocations']} pool "
                        f"allocations < completed-inflight_start {floor}")
    return failures


def saturation(rep, deployment):
    """lan_scan's linear scan: a pool serves one query per pool_fixed +
    pool size * pool_per_machine, so throughput cannot beat that across
    the pools, and no response can be faster than the stages' fixed
    costs plus one full scan."""
    costs = deployment["costs"]
    pools = deployment["clusters"] * deployment["pool_segments"]
    pool_size = deployment["machines"] / pools
    scan = costs["pool_fixed_s"] + pool_size * costs["pool_per_machine_s"]
    failures = []
    throughput = rep["completed"] / rep["window_s"]
    bound = pools / scan
    if throughput > bound * (1 + 1e-9):
        failures.append(f"saturation: throughput {throughput:.3f}/s > "
                        f"pools/scan {bound:.3f}/s")
    floor = costs["qm_translate_s"] + costs["pm_map_s"] + scan
    if rep["min_s"] < floor - 1e-9:
        failures.append(f"saturation: fastest response {rep['min_s']:.6f}s "
                        f"< stage floor {floor:.6f}s")
    return failures


def wan_floor(p50_s, deployment):
    """A WAN request crosses the link at least twice, so the median
    response is at least two one-way latencies less their jitter."""
    floor = 2 * (deployment["wan_one_way_s"] - deployment["wan_jitter_s"])
    if p50_s < floor:
        return [f"wan floor: p50 {p50_s:.6f}s < 2*(one_way-jitter) "
                f"{floor:.6f}s"]
    return []


def deployment_matches(deployment, workload):
    """The program built the deployment the benchmark generated (and the
    LP engine ran it when sites were asked for)."""
    failures = []
    for key in ("machines", "clusters", "clients", "qos_fanout",
                "pool_segments", "pool_replicas", "directory_replicas"):
        want = workload.get(key)
        if want is not None and deployment[key] != want:
            failures.append(f"deployment: {key} {deployment[key]} != {want}")
    want_lp = workload.get("wan_sites", 0) >= 2
    if deployment["lp_mode"] != want_lp:
        failures.append(f"deployment: lp_mode {deployment['lp_mode']} != "
                        f"{want_lp}")
    return failures


def window_checks(rep, deployment, workload):
    """Every check that applies to one measured window of the workload."""
    failures = little(rep, workload["clients"], rep["window_s"],
                      workload.get("hold_s", 0.0),
                      workload.get("hold_jitter", 0.0))
    failures += conservation(rep, deployment["qos_fanout"],
                             deployment["pool_segments"])
    if workload.get("saturation_check"):
        failures += saturation(rep, deployment)
    if workload.get("wan") or workload.get("wan_sites", 0) >= 2:
        failures += wan_floor(rep["p50_s"], deployment)
    return failures


def run_checks(result, workload):
    """Checks for an end-to-end run: every replication's window, and the
    pooled median against the WAN floor."""
    deployment = result["deployment"]
    failures = deployment_matches(deployment, workload)
    for rep in result["replications"]:
        failures += window_checks(rep, deployment, workload)
    if workload.get("wan") or workload.get("wan_sites", 0) >= 2:
        failures += wan_floor(result["pooled"]["p50_s"], deployment)
    return failures


# Variants that change only how the run is observed or executed; their
# modeled outcome must equal the base run's exactly.
SAME_OUTCOME_VARIANTS = ("no_profile", "flight", "lp_jobs")


def determinism(variants):
    """Same seed, same modeled outcome: every repetition of a variant,
    and the base run against the profiler off, the flight recorder armed
    and 4 LP workers."""
    failures = []
    for name, variant in variants.items():
        prints = variant["fingerprints"]
        if any(p != prints[0] for p in prints[1:]):
            failures.append(f"determinism: repetitions of {name} differ")
    base = variants["base"]["fingerprints"][0]
    for name in SAME_OUTCOME_VARIANTS:
        other = variants[name]["fingerprints"][0]
        if other != base:
            diff = sorted(k for k in base if base[k] != other.get(k))
            failures.append(f"determinism: {name} differs from base in "
                            f"{', '.join(diff)}")
    return failures


def trace_checks(result, workload):
    """Checks for a traced run: the instrumented window and determinism."""
    deployment = result["deployment"]
    failures = deployment_matches(deployment, workload)
    failures += window_checks(result["modeled"], deployment, workload)
    failures += determinism(result["variants"])
    return failures
