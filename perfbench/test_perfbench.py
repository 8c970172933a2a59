"""Tests of the benchmark's own code: percentile selection, spec generation,
and the metric names run.py prints against BENCHMARK.json.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import report  # noqa: E402
import specgen  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(report.percentile(values, 50), 50)
        self.assertEqual(report.percentile(values, 90), 90)
        self.assertEqual(report.percentile(values, 99), 99)
        self.assertEqual(report.percentile([7.0], 99), 7.0)
        self.assertEqual(report.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(report.beyond(100, 90), 10)
        self.assertEqual(report.beyond(99, 90), 9)
        self.assertEqual(report.beyond(1000, 99), 10)
        self.assertEqual(report.beyond(999, 99), 9)

    def test_ten_beyond_rule(self):
        self.assertEqual(report.supported_level(10000), 99.9)
        self.assertEqual(report.supported_level(9999), 99.0)
        self.assertEqual(report.supported_level(1000), 99.0)
        self.assertEqual(report.supported_level(999), 90.0)
        self.assertEqual(report.supported_level(100), 90.0)
        self.assertEqual(report.supported_level(99), 50.0)
        self.assertEqual(report.supported_level(20), 50.0)
        self.assertIsNone(report.supported_level(19))
        self.assertIsNone(report.supported_level(0))

    def test_tail_reports_level_and_count(self):
        values = [float(i) for i in range(1, 1001)]
        self.assertEqual(report.tail(values, 99), (990.0, 99.0, 1000))
        # Asking for p99 of 500 samples falls back to p90, and says so.
        self.assertEqual(report.tail(values[:500], 99), (450.0, 90.0, 500))
        # Never above the level asked for.
        self.assertEqual(report.tail(values, 90), (900.0, 90.0, 1000))
        # Too few samples for any level: the median, with no level.
        self.assertEqual(report.tail([1.0, 2.0, 3.0], 90), (2.0, None, 3))


class SpecgenTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for (sa, ma), (sb, mb) in zip(specgen.write_specs(42, a), specgen.write_specs(42, b)):
                for x, y in ((sa, sb), (ma, mb)):
                    with open(x, "rb") as fx, open(y, "rb") as fy:
                        self.assertEqual(fx.read(), fy.read())

    def test_seeds_differ_but_shape_does_not(self):
        spec1, manifest1 = specgen.make_spec(1, 0)
        spec2, manifest2 = specgen.make_spec(2, 0)
        self.assertNotEqual(json.dumps(spec1, sort_keys=True), json.dumps(spec2, sort_keys=True))
        for key in ("ranks", "iterations"):
            self.assertEqual(spec1[key], spec2[key])
        self.assertEqual(len(spec1["body"]), len(spec2["body"]))

    def test_manifest_names_resources_of_the_spec(self):
        for index in range(specgen.SPECS_PER_SEED):
            spec, manifest = specgen.make_spec(7, index)
            ranks = spec["ranks"]
            self.assertGreaterEqual(ranks, 20)
            functions = {step.get("function") for step in spec["body"]}
            self.assertGreaterEqual(len(functions), 24)
            modules = {step.get("module") for step in spec["body"]}
            kinds = [inj["kind"] for inj in manifest["injected"]]
            self.assertEqual(kinds[:3], ["hot_function", "sync_imbalance", "periodic_io"])
            self.assertIn("slow_node", kinds)
            for inj in manifest["injected"]:
                code = inj["focus"][1:-1].split(",")[0]
                if code != "/Code":
                    self.assertIn(code.split("/")[2], modules)
            slow = [i for i, s in enumerate(spec["machine"]["speeds"]) if s < 1.0]
            hot = spec["body"][n_filler(spec)]["factors"]
            for r in slow:
                self.assertLess(hot[r], 1.0, "slow nodes stay off the critical path")


def n_filler(spec):
    return sum(1 for step in spec["body"] if step.get("function", "").startswith("kern"))


def fake_raw(workload, trace):
    ops = [[10.0 + i % 7, trace and i % 2 == 1] for i in range(200)]
    raw = {
        "workload": workload, "seed": 1, "trace": trace,
        "setup_seconds": [0.2, 0.3, 0.25], "ops": ops, "attempted": 200, "failed": 0,
        "failure_notes": [], "find_virtual_s": [100.0, 200.0, 150.0],
        "recall_found": 9, "recall_expected": 9, "peak_rss_mb": 50.0, "build": "x",
        "compiler": "gcc", "counters": {"ops.traced": 100, "serve.requests": 200},
        "extra": {},
    }
    if workload == "serve_mixed":
        raw["extra"]["ladder"] = [
            {"rate": rate, "scheduled": 1200, "sent": 1200,
             "latency_ms": [1.0 + (i % 50) / 10.0 for i in range(1200)],
             "lateness_ms": [0.1] * 1200}
            for rate in (100.0, 200.0, 400.0)]
        raw["extra"]["saturation_rps"] = 512.5
        raw["extra"]["saturation_requests"] = 3075
        raw["extra"]["queue_ms"] = [0.5, 0.6]
        raw["extra"]["search_ms"] = [2.0, 3.0]
    return raw


FAKE_SPANS = [
    ["op", 0.0, 1000.0, -1, 1],
    ["core.session", 0.0, 600.0, 0, 1],
    ["apps.build", 0.0, 100.0, 1, 1],
    ["simmpi.key", 100.0, 550.0, 1, 1],
    ["pc.search", 600.0, 990.0, 0, 1],
]


class NamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_end_to_end_names_and_units(self):
        declared = {(m["name"], m["unit"]) for m in self.bench["end_to_end"]}
        self.assertEqual(declared, set(report.END_TO_END))
        for w in self.bench["workloads"]:
            values, _, floor_ok = report.end_to_end(fake_raw(w["name"], False))
            self.assertEqual(set(values), {n for n, _ in declared})
            self.assertTrue(floor_ok)
            self.assertTrue(all(v > 0 for v in values.values()), w["name"])

    def test_per_layer_names_and_units(self):
        declared = {(m["name"], m["unit"]) for m in self.bench["per_layer"]}
        self.assertEqual(declared, set(report.per_layer_names()))
        for w in self.bench["workloads"]:
            values = report.per_layer(fake_raw(w["name"], True), FAKE_SPANS)
            self.assertEqual(set(values), {n for n, _ in declared})

    def test_workloads_match_run_py(self):
        import run  # noqa: E402 (imported here: it is also the entry point)
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)

    def test_span_attribution(self):
        values = report.per_layer(fake_raw("tuning_loop", True), FAKE_SPANS)
        self.assertAlmostEqual(values["core.unattributed_p50_ms"], 0.05)
        self.assertAlmostEqual(values["simmpi.key_p50_ms"], 0.45)
        self.assertAlmostEqual(values["trace.coverage"], 0.99)


class ServeLimitTest(unittest.TestCase):
    def test_rate_meets_limit_only_with_p99_and_no_backlog(self):
        point = {"rate": 100.0, "scheduled": 1000, "sent": 1000,
                 "latency_ms": [1.0] * 985 + [60.0] * 15, "lateness_ms": [0.0] * 1000}
        self.assertFalse(report.rung_summary(point)["passed"])  # p99 = 60 ms
        point["latency_ms"] = [1.0] * 995 + [60.0] * 5
        self.assertTrue(report.rung_summary(point)["passed"])
        point["sent"] = 900
        point["latency_ms"] = point["latency_ms"][:900]
        self.assertFalse(report.rung_summary(point)["passed"])  # abandoned: backlog
        point = {"rate": 100.0, "scheduled": 500, "sent": 500,
                 "latency_ms": [1.0] * 500, "lateness_ms": [0.0] * 500}
        self.assertFalse(report.rung_summary(point)["passed"])  # 500 samples cannot show a p99


if __name__ == "__main__":
    unittest.main()
