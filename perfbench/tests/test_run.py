"""Checks of run.py that need no build: the host-stanza refusal and the
direction of the regression arithmetic."""

import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location("run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)


def result(host, throughput, p99):
    return {
        "workload": "serve_certified",
        "trace": 0,
        "host": host,
        "result": {"metrics": {
            "commit_txn_per_s": {"value": throughput, "unit": "1/s"},
            "txn_p99_us": {"value": p99, "unit": "us"},
        }},
    }


class CompareTest(unittest.TestCase):
    HOST = {"hardware_threads": 2, "cpu_model": "x", "rustc": "rustc 1", "profile": "release"}

    def test_refuses_results_from_different_hosts(self):
        other = dict(self.HOST, hardware_threads=4)
        with self.assertRaises(ValueError):
            run.compare(result(self.HOST, 100.0, 10.0), result(other, 100.0, 10.0))

    def test_worse_is_positive_in_both_directions(self):
        rows = {r[0]: r for r in run.compare(result(self.HOST, 100.0, 10.0),
                                              result(self.HOST, 50.0, 20.0))}
        self.assertAlmostEqual(rows["commit_txn_per_s"][3], 0.5)
        self.assertAlmostEqual(rows["txn_p99_us"][3], 1.0)
        self.assertTrue(rows["commit_txn_per_s"][4] and rows["txn_p99_us"][4])

    def test_host_stanza_names_what_results_depend_on(self):
        stanza = run.host_stanza()
        self.assertEqual(set(stanza), {"hardware_threads", "cpu_model", "rustc", "profile"})


if __name__ == "__main__":
    unittest.main()
