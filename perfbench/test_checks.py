"""Tests for the benchmark's own checks and metric plumbing.

    python3 perfbench/test_checks.py

Every check is shown to pass on a consistent input and to reject a
deliberately wrong one, so none of them can pass vacuously.
"""

import copy
import json
import os
import unittest

import checks
import run

HERE = os.path.dirname(os.path.abspath(__file__))

# A lan_scan-shaped deployment and one of its windows: 64 clients, four
# 3,200-machine pools, a 10 ms mean hold uniform in [0, 20 ms].
DEPLOYMENT = {
    "machines": 12800, "clusters": 4, "pool_segments": 1, "pool_replicas": 1,
    "qos_fanout": 1, "clients": 64, "lp_mode": False,
    "directory_replicas": 1, "wan_one_way_s": 0.03, "wan_jitter_s": 0.005,
    "costs": {"qm_translate_s": 0.0004, "pm_map_s": 0.0003,
              "pool_fixed_s": 0.00025, "pool_per_machine_s": 6e-06},
}
WORKLOAD = dict(run.WORKLOADS["lan_scan"])
# 29,900 completions in 150 s at a 0.311 s mean response: Little's law
# expects 64 * 150 / 0.321 = 29,907.
WINDOW = {
    "window_s": 150, "completed": 29900, "failed": 0, "mean_s": 0.311,
    "min_s": 0.020597, "p50_s": 0.26, "p99_s": 0.95, "sent": 29900,
    "inflight_start": 60, "inflight_end": 60, "pool_allocations": 29900,
}


def tampered(base, **changes):
    out = copy.deepcopy(base)
    out.update(changes)
    return out


class LittleTest(unittest.TestCase):
    def test_holds_on_consistent_window(self):
        self.assertEqual(checks.little(WINDOW, 64, 150, 0.01, 1.0), [])

    def test_rejects_tampered_completed_count(self):
        bad = tampered(WINDOW, completed=int(WINDOW["completed"] * 1.05))
        self.assertTrue(checks.little(bad, 64, 150, 0.01, 1.0))

    def test_rejects_wrong_hold_time(self):
        self.assertTrue(checks.little(WINDOW, 64, 150, 0.05, 0.0))

    def test_rejects_empty_window(self):
        self.assertTrue(checks.little(tampered(WINDOW, completed=0),
                                      64, 150, 0.01, 1.0))


class ConservationTest(unittest.TestCase):
    def test_holds_on_consistent_window(self):
        self.assertEqual(checks.conservation(WINDOW, 1, 1), [])

    def test_rejects_lost_request(self):
        self.assertTrue(checks.conservation(
            tampered(WINDOW, completed=WINDOW["completed"] - 1), 1, 1))

    def test_rejects_too_many_pool_allocations(self):
        self.assertTrue(checks.conservation(
            tampered(WINDOW, pool_allocations=WINDOW["sent"] + 61), 1, 1))

    def test_fanout_and_segments_raise_the_ceiling(self):
        four_copies = tampered(WINDOW, pool_allocations=4 * WINDOW["sent"])
        self.assertTrue(checks.conservation(four_copies, 1, 1))
        self.assertEqual(checks.conservation(four_copies, 2, 2), [])

    def test_rejects_completions_without_allocations(self):
        self.assertTrue(checks.conservation(
            tampered(WINDOW, pool_allocations=100), 1, 1))


class SaturationTest(unittest.TestCase):
    def test_holds_on_consistent_window(self):
        self.assertEqual(checks.saturation(WINDOW, DEPLOYMENT), [])

    def test_rejects_throughput_above_scan_bound(self):
        # Four pools at 19.45 ms a query serve at most 205.66 queries/s.
        self.assertTrue(checks.saturation(
            tampered(WINDOW, completed=31000), DEPLOYMENT))

    def test_rejects_response_below_stage_floor(self):
        self.assertTrue(checks.saturation(
            tampered(WINDOW, min_s=0.0200), DEPLOYMENT))

    def test_floor_follows_the_cost_model(self):
        cheaper = copy.deepcopy(DEPLOYMENT)
        cheaper["costs"]["pool_per_machine_s"] = 5e-06
        self.assertEqual(checks.saturation(
            tampered(WINDOW, min_s=0.0200), cheaper), [])


class WanFloorTest(unittest.TestCase):
    def test_holds_above_floor(self):
        self.assertEqual(checks.wan_floor(0.0666, DEPLOYMENT), [])

    def test_rejects_median_below_two_crossings(self):
        self.assertTrue(checks.wan_floor(0.0499, DEPLOYMENT))


class DeploymentTest(unittest.TestCase):
    def test_matches(self):
        self.assertEqual(checks.deployment_matches(DEPLOYMENT, WORKLOAD), [])

    def test_rejects_wrong_fleet(self):
        self.assertTrue(checks.deployment_matches(
            tampered(DEPLOYMENT, machines=6400), WORKLOAD))

    def test_rejects_serial_fallback_of_lp_workload(self):
        lp = dict(run.WORKLOADS["wan_lp"])
        deployment = tampered(DEPLOYMENT, machines=40000, clusters=32,
                              clients=96, lp_mode=False)
        self.assertTrue(any("lp_mode" in f for f in
                            checks.deployment_matches(deployment, lp)))


def variants(**overrides):
    fingerprint = {"completed": 8333, "failed": 0, "mean_s": 0.0192,
                   "p50_s": 0.0192, "p99_s": 0.0192, "events": 300069,
                   "pool_allocations": 33334}
    out = {}
    for name in ("base", "no_profile", "flight", "no_churn", "one_replica",
                 "lp_jobs"):
        prints = [dict(fingerprint) for _ in range(3)]
        out[name] = {"host_s": [1.0] * 3, "cpu_s": [1.0] * 3,
                     "fingerprints": prints}
    for name, fingerprint in overrides.items():
        out[name]["fingerprints"][-1] = fingerprint
    return out


class DeterminismTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        self.assertEqual(checks.determinism(variants()), [])

    def test_rejects_repetition_that_differs(self):
        v = variants()
        v["no_churn"]["fingerprints"][2]["events"] += 1
        self.assertTrue(checks.determinism(v))

    def test_rejects_observer_that_changes_outcome(self):
        for name in checks.SAME_OUTCOME_VARIANTS:
            v = variants()
            for p in v[name]["fingerprints"]:
                p["p99_s"] = 0.0193
            self.assertTrue(checks.determinism(v), name)

    def test_model_changing_variants_may_differ(self):
        v = variants()
        for name in ("no_churn", "one_replica"):
            for p in v[name]["fingerprints"]:
                p["completed"] = 9000
        self.assertEqual(checks.determinism(v), [])


class RunChecksTest(unittest.TestCase):
    def result(self, **window_changes):
        return {"deployment": DEPLOYMENT,
                "replications": [WINDOW, tampered(WINDOW, **window_changes)],
                "pooled": {"p50_s": 0.26}}

    def test_every_replication_is_checked(self):
        self.assertEqual(checks.run_checks(self.result(), WORKLOAD), [])
        self.assertTrue(checks.run_checks(self.result(min_s=0.01), WORKLOAD))


class PlumbingTest(unittest.TestCase):
    def test_seed_is_fixed_by_workload_and_seed(self):
        self.assertEqual(run.derive_seed("lan_scan", 3),
                         run.derive_seed("lan_scan", 3))
        self.assertNotEqual(run.derive_seed("lan_scan", 3),
                            run.derive_seed("lan_scan", 4))
        self.assertNotEqual(run.derive_seed("lan_scan", 3),
                            run.derive_seed("wan_lp", 3))
        self.assertTrue(all(0 <= run.derive_seed("wan_lp", n) < 2**63
                            for n in range(20)))

    def test_config_carries_the_workload_and_its_seed(self):
        def keys(text):
            return {line.split(" = ")[0] for line in text.splitlines()
                    if not line.startswith("#")}
        end_to_end = keys(run.config_text("lan_scan", 1, 20, False))
        traced = keys(run.config_text("lan_scan", 1, 20, True))
        workload = set(run.WORKLOADS["lan_scan"]) - run.LOCAL_KEYS
        self.assertEqual(end_to_end, workload | {"seed", "host_seconds"})
        self.assertEqual(traced, workload | {"seed", "span_out"})

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
