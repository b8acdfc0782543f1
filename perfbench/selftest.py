"""Self-test of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

1. Runs tiny versions of all three workloads, untraced and traced, and
   checks that each prints exactly the metrics BENCHMARK.json names, each
   with its unit, and a passing gate.
2. Checks that the gate rejects tampered outputs: a report value shifted
   by 1e-3, a sweep cell shifted by 1e-3, a truncated user-score CSV and
   a dropped edge-list line.
"""
from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from worker import Context, run_operation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def benchmark_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class TinyRuns(unittest.TestCase):
    def run_benchmark(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout.splitlines()

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = self.run_benchmark(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = benchmark_metrics(kind)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertTrue(any(line.split()[:1] == [name] and f" {unit} " in line
                                            for line in lines[:-1]), name)


class Tampering(unittest.TestCase):
    """One tiny operation per workload, then its outputs are altered."""

    def operate(self, name):
        workload = WORKLOADS[name](tiny=True)
        data = run.prepare(workload, SEED, tiny=True)
        work = ROOT / ".bench_out" / f"selftest-{name}"
        work.mkdir(parents=True, exist_ok=True)
        ctx = Context(seed=SEED, data=data, work=work)
        ref = json.loads((data / "reference.json").read_text())
        op = run_operation(workload, ctx, ref, None)
        self.assertEqual(op["problems"], [])
        return workload, ctx, ref

    def test_shifted_report_value(self):
        workload, ctx, ref = self.operate("score_planted")
        path = ctx.work / "report.json"
        payload = json.loads(path.read_text())
        for m in payload["measures"]:
            if m["name"] == "rwc_rwr":
                m["value"] += 1e-3
        path.write_text(json.dumps(payload))
        problems = workload.check(ref, ctx)
        self.assertTrue(any(p.startswith("rwc_rwr") for p in problems), problems)

    def test_shifted_sweep_cell(self):
        workload, ctx, ref = self.operate("sweep_planted")
        path = ctx.work / "sweep.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) + 1e-3)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        self.assertNotEqual(workload.check(ref, ctx), [])

    def test_truncated_user_scores_and_edge_list(self):
        workload, ctx, ref = self.operate("ingest_users")
        for name in ("users.csv", "edges.tsv"):
            path = ctx.work / name
            original = path.read_text()
            path.write_text("\n".join(original.splitlines()[:-1]) + "\n")
            self.assertNotEqual(workload.check(ref, ctx), [], name)
            path.write_text(original)
        self.assertEqual(workload.check(ref, ctx), [])


if __name__ == "__main__":
    unittest.main()
