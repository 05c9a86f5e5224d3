"""Tests of the benchmark's own math: the percentile rule, medians and
quartiles, window statistics, the compare verdicts and the ledger
reconciliation.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))
        # 1000 samples: rank 990, exactly 10 beyond.
        self.assertEqual(stats.tail_percentile(values, 0.99), 990)
        with self.assertRaises(stats.InsufficientSamples):
            stats.tail_percentile(values[:999], 0.99)

    def test_nearest_rank(self):
        self.assertEqual(stats.nearest_rank([1, 2, 3, 4], 0.5), 2)
        self.assertEqual(stats.nearest_rank([1, 2, 3, 4], 0.51), 3)
        self.assertEqual(stats.nearest_rank([7], 0.99), 7)
        with self.assertRaises(stats.InsufficientSamples):
            stats.nearest_rank([], 0.5)

    def test_tail_ignores_input_order(self):
        values = list(range(2000, 0, -1))
        self.assertEqual(stats.tail_percentile(values, 0.99), 1980)


class MediansAndQuartiles(unittest.TestCase):
    def test_quartiles_match_the_statistics_module(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertEqual(stats.median(values), statistics.median(values))

    def test_degenerate_samples(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.median([]), 0.0)
        self.assertEqual(stats.relative_spread([2.0, 2.0, 2.0]), 0.0)

    def test_relative_spread(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)

    def test_window_statistics(self):
        end_ns = [0.1e9, 0.5e9, 1.2e9, 2.5e9, 2.6e9, 2.7e9, 3.4e9]
        # Three blocks of two completions: 2 jobs in 0.5 s, 2.0 s, 0.2 s.
        self.assertAlmostEqual(stats.window_rate(end_ns, 3.5), 4.0)
        values = [10, 30, 50, 1, 2, 3, 1000]
        # Window medians 20, 50, 2; the partial window is dropped.
        self.assertEqual(stats.window_median(end_ns, 3.5, values), 20)
        # Too short for two blocks: fall back to the whole phase.
        self.assertEqual(stats.window_rate([0.1e9, 0.2e9], 0.5), 4.0)


class Verdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_unchanged_within_bound(self):
        change = [v * 1.03 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, 0.1, "lower"), "unchanged")

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        change[0] = 90.0  # one lucky run keeps it from being all-worse
        self.assertEqual(stats.verdict(self.parent, change, 0.1, "lower"), "worse")

    def test_better_beyond_bound_in_either_direction(self):
        faster = [v * 0.8 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, faster, 0.1, "lower"), "better")
        self.assertEqual(stats.verdict(self.parent, faster, 0.1, "higher"), "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 100.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, 0.1, "lower"), "unresolved")

    def test_every_run_better_resolves_a_noisy_metric(self):
        noisy = [100.0, 130.0, 160.0, 190.0, 120.0, 150.0, 180.0, 110.0, 140.0, 170.0]
        change = [v - 100.0 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, 0.1, "lower"), "better")

    def test_claim_rule(self):
        pairs = [(100.0 + i, 80.0 + i) for i in range(10)]
        self.assertEqual(stats.pair_wins(pairs, "lower"), 10)
        self.assertTrue(stats.claim_met(pairs, "lower"))
        # Eight wins out of ten is short of nine tenths.
        mixed = pairs[:8] + [(100.0, 120.0), (100.0, 100.0)]
        self.assertEqual(stats.pair_wins(mixed, "lower"), 8)
        self.assertFalse(stats.claim_met(mixed, "lower"))
        # Winning every pair by less than the parent's quartile distance.
        close = [(100.0 + 10 * i, 99.0 + 10 * i) for i in range(10)]
        self.assertEqual(stats.pair_wins(close, "lower"), 10)
        self.assertFalse(stats.claim_met(close, "lower"))
        self.assertFalse(stats.claim_met([], "lower"))


def socket_phase(**overrides):
    phase = {
        "ledger": {"submitted": 10, "completed": 9, "failed": 0, "rejected": 1},
        "wrong": 0,
        "stats": {
            "router": {"submitted": 10, "completed": 9, "failed": 0, "rejected": 1, "dropped": 0},
            "engine": {"jobs": 9, "failures": 0, "rejected": 1, "verification_failures": 0},
            "server": {"reports": 9, "error_replies": 1, "bad_frames": 0, "timeouts": 0},
        },
    }
    for path, value in overrides.items():
        section, key = path.split(".")
        target = phase[section] if section == "ledger" else phase["stats"][section]
        target[key] = value
    return phase


class Ledger(unittest.TestCase):
    def test_consistent_socket_ledgers_reconcile(self):
        phase = socket_phase()
        self.assertEqual(stats.reconcile(phase), [])
        self.assertEqual(stats.failures(phase), 1)

    def test_every_disagreement_counts_as_failures(self):
        phase = socket_phase(**{"server.reports": 7, "router.dropped": 1})
        checks = [c for c, _, _ in stats.reconcile(phase)]
        self.assertIn("server reports == client completed", checks)
        self.assertIn("router dropped == 0", checks)
        self.assertEqual(stats.failures(phase), 1 + 2 + 1)

    def test_client_ledger_must_add_up(self):
        phase = socket_phase(**{"ledger.submitted": 12, "router.submitted": 12})
        self.assertEqual(
            stats.reconcile(phase),
            [("client: completed + failed + rejected == submitted", 10, 12)],
        )

    def test_in_process_ledger(self):
        phase = {
            "ledger": {"submitted": 5, "completed": 4, "failed": 1, "rejected": 0},
            "wrong": 2,
            "stats": {
                "engine": {"jobs": 4, "failures": 0, "rejected": 0, "verification_failures": 1},
            },
        }
        self.assertEqual(stats.reconcile(phase), [])
        self.assertEqual(stats.failures(phase), 1 + 2)
        phase["stats"]["engine"]["jobs"] = 3
        self.assertEqual(stats.failures(phase), 1 + 2 + 1)


class EndToEnd(unittest.TestCase):
    def raw(self, failed=0):
        n = 2000
        return {
            "setup_s": [0.3, 0.1, 0.2],
            "phases": [
                {
                    "wall_s": 2.0,
                    "ledger": {"submitted": n + failed, "completed": n, "failed": failed, "rejected": 0},
                    "wrong": 0,
                    "peak_rss_kb": 2048,
                    "stats": {
                        "engine": {"jobs": n, "failures": failed, "rejected": 0, "verification_failures": 0},
                    },
                    "jobs": {
                        "latency_ns": [1000 * (i + 1) for i in range(n)],
                        "end_ns": [i * 1_000_000 for i in range(n)],
                        "ops": [3] * n,
                    },
                }
            ],
        }

    def test_metrics_of_a_clean_run(self):
        m = stats.end_to_end(self.raw())
        self.assertEqual(m["setup_s"], 0.2)
        # Blocks of 1000 completions in 0.999 s and 1.000 s.
        self.assertAlmostEqual(m["jobs_per_s"], (1000 / 0.999 + 1000) / 2)
        self.assertEqual(m["latency_p99_us"], 1980.0)
        self.assertEqual(m["ok_frac"], 1.0)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["ops_per_job"], 3.0)

    def test_failures_miss_every_latency_limit(self):
        m = stats.end_to_end(self.raw(failed=40))
        self.assertEqual(m["latency_p99_us"], math.inf)
        self.assertAlmostEqual(m["ok_frac"], 1.0 - 40 / 2040)


if __name__ == "__main__":
    unittest.main()
