"""Self-tests of the benchmark: its checks must be able to fail.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They take about a minute: every workload runs its golden pass a few times.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracegen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def bench(*args: str, env: dict | None = None) -> tuple[dict, dict]:
    """Run the benchmark command; return its report and result lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=run.ROOT,
        capture_output=True, text=True, timeout=300, env=env, check=True)
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def golden_pass_only(name: str, golden: dict) -> dict:
    """Run just the golden pass of ``name`` against ``golden``."""
    _report, result = run.run(name, seed=1, seconds=0, trace=False, golden=golden)
    return result


class NegativeControls(unittest.TestCase):
    def test_tampered_digest_fails(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                golden = copy.deepcopy(GOLDEN)
                entry = next(iter(golden[name].values()))
                entry["digest"] = "0" * 64
                result = golden_pass_only(name, golden)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_wrong_expected_verdict_fails(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                golden = copy.deepcopy(GOLDEN)
                entry = next(iter(golden[name].values()))
                verdict = "winning_round" if name == "game-m8" else "atomic_from"
                entry[verdict] += 1
                result = golden_pass_only(name, golden)
                self.assertEqual(result["failed"], 1)

    def test_generator_cut_is_checked(self):
        sr = run.load_stabreg()
        workload = workloads.make("checker-late", run.OUT)
        item = workloads.Item("unit", {"seed": 3, "violation": 0.5})
        item.data = tracegen.generate(3, 200, 0.5)
        out = workload.run(sr, item)
        self.assertEqual(workload.check(sr, item, out, {}), [])
        item.data.expected_atomic_from += 1
        self.assertNotEqual(workload.check(sr, item, out, {}), [])


class Generator(unittest.TestCase):
    def test_expected_cut_matches_checker(self):
        sr = run.load_stabreg()
        for seed in range(40):
            for violation in (None, 0.0, 0.05, 0.5, 0.9):
                trace = tracegen.generate(seed, 120, violation)
                self.assertEqual(trace.operations, 120)
                verdict = sr.checker.find_stabilization(sr.checker.parse_trace(trace.lines))
                self.assertEqual(verdict.atomic_from, trace.expected_atomic_from,
                                 (seed, violation))

    def test_same_seed_same_trace(self):
        self.assertEqual(tracegen.generate(5, 300, 0.5), tracegen.generate(5, 300, 0.5))


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        sr = run.load_stabreg()
        before = {layer: dict(vars(module)) for layer, module in vars(sr).items()}
        methods = dict(vars(sr.protocol.QuorumProcessor))
        tracer = Tracer()
        tracer.install(vars(sr))
        self.assertIsNot(sr.protocol.next_label, before["protocol"]["next_label"])
        self.assertIsNot(sr.timestamps.precedes_b, before["timestamps"]["precedes_b"])
        tracer.uninstall()
        for layer, module in vars(sr).items():
            self.assertEqual(dict(vars(module)), before[layer], layer)
        self.assertEqual(dict(vars(sr.protocol.QuorumProcessor)), methods)

    def test_self_times_partition_root_spans(self):
        sr = run.load_stabreg()
        tracer = Tracer()
        tracer.install(vars(sr))
        try:
            workload = workloads.make("churn-faults-n5", run.OUT)
            item = next(workload.passes(0))[0]
            workload.prepare(sr, item)
            workload.run(sr, item)
        finally:
            tracer.uninstall()
        spans = tracer.summary()
        roots = sum(tracer.span_end[i] - tracer.span_start[i]
                    for i, parent in enumerate(tracer.span_parent) if parent < 0)
        self.assertAlmostEqual(sum(row["self_s"] for row in spans.values()), roots)
        run_s = spans["sim.run"]
        self.assertLess(run_s["self_s"], run_s["total_s"])
        self.assertEqual(spans["labels.next_label"]["calls"], len(tracer.next_label_inputs))


class Output(unittest.TestCase):
    def test_reduced_runs_print_every_metric(self):
        applies = {
            "clean-n5": ("ops_per_s", "steps_per_s", "msgs_per_op", "write_steps_p50",
                         "write_steps_p99", "read_steps_p50", "read_steps_p99"),
            "churn-faults-n5": ("ops_per_s", "steps_per_s", "msgs_per_op"),
            "checker-late": ("ops_per_s",),
            "game-m8": ("rounds_per_s", "item_s_tail"),
        }
        wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                report, result = bench("--workload", name, "--seed", "3",
                                       "--seconds", "1", "--trace", "0")
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, wanted)
                for metric in ("failed_frac", *wanted, *applies[name]):
                    self.assertIn(metric, report["metrics"])

    def test_traced_run_prints_every_layer_metric(self):
        report, result = bench("--workload", "game-m8", "--seed", "3",
                               "--seconds", "2", "--trace", "1")
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(result["metrics"]["game.play.calls"]["value"], 0)
        self.assertTrue(result["correct"])

    def test_digests_ignore_hash_seed(self):
        for hash_seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            for name in ("churn-faults-n5", "game-m8"):
                with self.subTest(workload=name, hash_seed=hash_seed):
                    _report, result = bench("--workload", name, "--seed", "3",
                                            "--seconds", "0", "--trace", "0", env=env)
                    self.assertTrue(result["correct"])

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "game-m8",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
