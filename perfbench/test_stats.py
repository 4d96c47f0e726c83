"""Tests of the benchmark's statistics code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import stats

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def raw_record(**overrides):
    raw = {"checks": {"a": {"attempted": 3, "failed": 0},
                      "b": {"attempted": 2, "failed": 0}},
           "failures": [], "samples": {}, "values": {}, "outputs": {}}
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.9), 90)
        self.assertEqual(stats.percentile(xs, 1.0), 100)
        self.assertEqual(stats.percentile([7.0], 0.5), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 0.5), 2)

    def test_empty_sample_is_refused(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(109, 0.9), 10)
        self.assertEqual(stats.samples_beyond(99, 0.9), 9)
        self.assertEqual(stats.samples_beyond(1, 0.5), 0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(99)), 0.9)


class CheckCountTest(unittest.TestCase):
    def test_sums_over_names(self):
        checks = {"x": {"attempted": 5, "failed": 1},
                  "y": {"attempted": 7, "failed": 0}}
        self.assertEqual(stats.count_checks(checks), (12, 1))

    def test_failure_makes_result_incorrect(self):
        spec = {"end_to_end": [{"name": "v", "unit": "s"}]}
        raw = raw_record(values={"v": 1.0},
                         checks={"x": {"attempted": 4, "failed": 1}})
        result = stats.assemble(raw, spec, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))

    def test_run_without_checks_is_refused(self):
        spec = {"end_to_end": [{"name": "v", "unit": "s"}]}
        with self.assertRaises(ValueError):
            stats.assemble(raw_record(values={"v": 1.0}, checks={}), spec,
                           trace=False)


class MergeTest(unittest.TestCase):
    def test_pools_samples_adds_checks_averages_values(self):
        a = raw_record(samples={"t": [1.0, 2.0]}, values={"rss": 5.0},
                       outputs={"x": 1.0})
        b = raw_record(samples={"t": [3.0]}, values={"rss": 7.0},
                       outputs={"x": 2.0})
        c = raw_record(samples={"t": [4.0]}, values={"rss": 9.0},
                       outputs={"x": 6.0})
        m = stats.merge_records([a, b, c])
        self.assertEqual(m["samples"]["t"], [1.0, 2.0, 3.0, 4.0])
        self.assertEqual(m["values"]["rss"], 7.0)
        self.assertEqual(m["outputs"]["x"], 3.0)
        self.assertEqual(m["checks"]["a"], {"attempted": 9, "failed": 0})
        self.assertEqual(stats.count_checks(m["checks"]), (15, 0))

    def test_shared_fingerprints_are_checked(self):
        a = raw_record(fingerprints={"s.0": "aa", "s.4": "bb"})
        b = raw_record(fingerprints={"s.4": "bb", "s.8": "cc"})
        c = raw_record(fingerprints={"s.8": "cc", "s.0": "aa"})
        m = stats.merge_records([a, b, c])
        self.assertEqual(m["checks"]["shared_sims_identical_across_processes"],
                         {"attempted": 3, "failed": 0})
        self.assertEqual(stats.count_checks(m["checks"]), (18, 0))

    def test_differing_fingerprints_fail_a_check(self):
        a = raw_record(fingerprints={"batch": "aa"})
        b = raw_record(fingerprints={"batch": "ab"})
        m = stats.merge_records([a, b])
        self.assertEqual(stats.count_checks(m["checks"]), (11, 1))
        self.assertTrue(m["failures"])

    def test_unshared_fingerprints_add_no_check(self):
        m = stats.merge_records([raw_record(fingerprints={"s.0": "aa"})])
        self.assertEqual(stats.count_checks(m["checks"]), (5, 0))


class MetricValueTest(unittest.TestCase):
    def test_value_wins_over_samples(self):
        raw = raw_record(values={"m": 2.0}, samples={"m": [5.0]})
        self.assertEqual(stats.metric_value("m", raw), 2.0)

    def test_plain_name_is_median(self):
        raw = raw_record(samples={"m": [1.0, 9.0, 3.0, 4.0]})
        self.assertEqual(stats.metric_value("m", raw), 3.5)

    def test_percentile_suffix(self):
        raw = raw_record(samples={"t": [float(i) for i in range(1, 201)]})
        self.assertEqual(stats.metric_value("t.p50", raw), 100.0)
        self.assertEqual(stats.metric_value("t.p90", raw), 180.0)

    def test_mean_suffix(self):
        raw = raw_record(samples={"t": [1.0, 2.0, 9.0]})
        self.assertEqual(stats.metric_value("t.mean", raw), 4.0)

    def test_top_mean_suffix(self):
        # 100 samples 1..100: the top tenth is 90 (the p90) to 100.
        raw = raw_record(samples={"t": [float(i) for i in range(1, 101)]})
        self.assertEqual(stats.metric_value("t.top10_mean", raw), 95.0)
        with self.assertRaises(ValueError):
            stats.metric_value("t.top10_mean",
                               raw_record(samples={"t": [1.0] * 99}))

    def test_whole_run_rates(self):
        # Reps of equal work: 2 ms and 6 ms of host time per simulated ms
        # are 8 ms per 2 simulated ms; rates 1/s and 3/s over equal
        # evaluation counts are 2 evaluations in 4/3 s.
        raw = raw_record(samples={"host_ms_per_sim_ms": [2.0, 6.0],
                                  "evals_per_s": [1.0, 3.0]})
        self.assertEqual(stats.metric_value("host_ms_per_sim_ms", raw), 4.0)
        self.assertAlmostEqual(stats.metric_value("evals_per_s", raw), 1.5)

    def test_missing_metric(self):
        with self.assertRaises(KeyError):
            stats.metric_value("nope", raw_record())


class EmittedNamesTest(unittest.TestCase):
    """assemble() emits exactly the metrics BENCHMARK.json names."""

    def fake_raw(self, names):
        samples = {}
        values = {}
        for n in names:
            base, _, pct = n.rpartition(".p")
            if pct.isdigit():
                samples[base] = [float(i) for i in range(200)]
            elif n.endswith("mean"):  # .mean and .topNN_mean
                samples[n.rpartition(".")[0]] = [float(i) for i in range(200)]
            else:
                values[n] = 1.0
        return raw_record(samples=samples, values=values)

    def check_mode(self, key, trace):
        spec = load_spec()
        names = [m["name"] for m in spec[key]]
        result = stats.assemble(self.fake_raw(names), spec, trace)
        self.assertEqual(list(result["metrics"]), names)
        units = {m["name"]: m["unit"] for m in spec[key]}
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})

    def test_end_to_end(self):
        self.check_mode("end_to_end", trace=False)

    def test_per_layer(self):
        self.check_mode("per_layer", trace=True)

    def test_setup_metric_present(self):
        e2e = {m["name"]: m for m in load_spec()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in e2e.values()),
                         e2e["setup_s"]["bound"])


if __name__ == "__main__":
    unittest.main()
