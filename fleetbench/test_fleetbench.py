#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny shape.

Run from the repository root (builds the package on first use):

    python3 fleetbench/test_fleetbench.py

Checks that each workload prints every metric BENCHMARK.json names, with its
unit, in both the untraced and the traced run; that the traced run writes a
span file whose self times fit inside the traced wall time; and that the
correctness gate trips when the reference input is perturbed.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Every workload the driver has, including fleet-drift, which BENCHMARK.json
# does not list (see README.md).
WORKLOADS = ("fleet-steady", "fleet-drift", "replay-refit")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        proc, lines, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {m.group(1): m.group(2) for m in
                   (re.match(r"metric (\S+) \S+ (\S+)$", l) for l in lines)
                   if m}
        for metric in expected:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, result["metrics"], workload)
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertEqual(printed.get(name), unit, name)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        return lines

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines = self.check_metrics(w, 0, SPEC["end_to_end"])
                self.assertTrue(any(l.startswith("failed_ops_ratio 0 ratio")
                                    for l in lines))

    def test_traced_metrics_and_span_file(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines = self.check_metrics(w, 1, SPEC["per_layer"])
                total = next(re.search(r"sum ([\d.]+) ms of ([\d.]+) ms", l)
                             for l in lines if l.startswith("trace:") and
                             " sum " in l)
                self.assertLessEqual(float(total.group(1)),
                                     float(total.group(2)))
                path = next(l.split("span file ", 1)[1] for l in lines
                            if "span file" in l)
                events = json.load(open(os.path.join(ROOT, path)))
                names = {e["name"] for e in events["traceEvents"]}
                for span in ("replay.open", "net.frame_read", "core.ingest",
                             "core.drain", "stats.drift_score"):
                    self.assertIn(span, names)

    def test_gate_trips_on_perturbed_reference(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, _, result = run(w, 0, "--perturb-reference")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("MISMATCH", proc.stderr)


if __name__ == "__main__":
    unittest.main()
