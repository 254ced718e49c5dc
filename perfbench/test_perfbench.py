#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py [-v]

Unit tests of the seeded operation streams, the tail percentile, the
host-speed scaling and span self time, plus end-to-end smokes at tiny
size: every metric named in BENCHMARK.json is printed with its unit on
every workload, traced and untraced; a wrong reference digest is counted as a failed operation; a
Debug or sanitizer build and a missing source tree are refused without
a result. The smokes build the program on first use (a few minutes).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import build as buildmod  # noqa: E402
import measure  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

ROOT = buildmod.ROOT
RUN = [sys.executable, str(buildmod.HERE / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_out" / "tests"


def run_bench(*args, cwd=ROOT, timeout=600):
    """(exit code, parsed last stdout line or None, stdout, stderr)."""
    done = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, done.stdout, done.stderr


class Streams(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for workload in ops.WORKLOADS:
            a = ops.Rounds(workload, 7)
            b = ops.Rounds(workload, 7)
            for _ in range(3):
                self.assertEqual(a.next_round(), b.next_round())

    def test_seed_changes_the_operations(self):
        for workload in ops.WORKLOADS:
            rounds = [ops.Rounds(workload, s).next_round() for s in range(8)]
            self.assertGreater(len({tuple(r) for r in rounds}), 1, workload)

    def test_every_operation_has_a_reference(self):
        refs = ops.load_reference()
        self.assertEqual(set(refs), {op.ref_key for op in ops.universe()})
        for workload in ops.WORKLOADS:
            stream = ops.Rounds(workload, 3)
            for _ in range(40):
                for op in stream.next_round():
                    self.assertIn(op.ref_key, refs)

    def test_storm_round_runs_each_kernel_on_its_own_core(self):
        cells = ops.Rounds("storm", 11).next_round()
        self.assertEqual(sorted(c.kernel for c in cells),
                         sorted(ops.STORM_KERNELS))
        self.assertEqual(len({c.core for c in cells}), len(cells))

    def test_requests_repeat_only_earlier_jobs(self):
        stream = ops.Rounds("requests", 5)
        fresh = 0
        for _ in range(60):
            batch = stream.next_round()
            if stream.fresh_cache:
                fresh += 1
                seen = set()
            for op in batch:
                if op.kind == "hit":
                    self.assertIn(op.ref_key, seen)
                elif op.is_job:
                    self.assertNotIn(op.ref_key, seen)
                    seen.add(op.ref_key)
        self.assertGreater(fresh, 1)  # 60 rounds outrun one cache's keys

    def test_requests_rounds_have_equal_shares(self):
        stream = ops.Rounds("requests", 5)
        stream.next_round()  # the first round turns early hits into misses
        kinds = [op.kind for op in stream.next_round()]
        for kind in ("run", "miss", "periodic", "hit"):
            self.assertEqual(kinds.count(kind), ops.REQUESTS_PER_KIND, kind)


class Statistics(unittest.TestCase):
    def test_output_totals_count_only_simulated_work(self):
        # Points simulate 14, 7 and 0 of the 14 workloads; the baseline
        # is 0.5 * 1400 cycles.
        sweep = "\n".join(
            '{"cycles": 1400, "speedup": 0.5, "simulated": %d}' % n
            for n in (14, 7, 0))
        self.assertEqual(ops.output_totals(sweep), (1400 + 700 + 700, 0))
        storm = ('{"cycles": 50, "deliveries": 5, "pruned": false}\n'
                 '{"cycles": 60, "deliveries": 6, "pruned": true}')
        self.assertEqual(ops.output_totals(storm), (50, 5))

    def test_tail_has_ten_samples_beyond_it(self):
        self.assertIsNone(measure.tail(list(range(10))))
        value, percentile, n = measure.tail(list(range(100)))
        self.assertEqual((value, n), (89, 100))
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(sum(1 for v in range(100) if v > value), 10)

    def test_a_slower_host_leaves_the_scaled_figures_alone(self):
        # The same round three times; the host ran at half speed during
        # the second and third, so the calibration loop took twice as long.
        ref = measure.CAL_REF_S
        op = ops.Op("sweep", core="ruu")
        record = measure.Record(op=op, op_id="a1", ok=True, why="",
                                latency=1.0, out="", cycles=1000)
        phase = measure.Phase(
            rounds=[[record]] * 3, round_walls=[1.0, 2.0, 2.0],
            round_cpu=[(0.6, 0.4), (1.2, 0.8), (1.2, 0.8)],
            round_cal=[ref, 2 * ref, 2 * ref])
        gated, extra = measure.end_to_end(phase, [(0.1, ref),
                                                  (0.2, 2 * ref)])
        self.assertAlmostEqual(gated["norm_wall_s"], 1.0)
        self.assertAlmostEqual(gated["norm_cpu_s"], 1.0)
        self.assertAlmostEqual(gated["norm_sys_s"], 0.4)
        self.assertAlmostEqual(gated["norm_sim_cycles_per_s"], 1000.0)
        self.assertAlmostEqual(gated["setup_s"], 0.1)
        self.assertAlmostEqual(extra["wall_s"][0], 2.0)
        self.assertAlmostEqual(extra["setup_raw_s"][0], 0.15)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            {"id": 1, "parent": 0, "start_ns": 0, "end_ns": 100},
            {"id": 2, "parent": 1, "start_ns": 10, "end_ns": 40},
            {"id": 3, "parent": 1, "start_ns": 30, "end_ns": 50},
            {"id": 4, "parent": 1, "start_ns": 90, "end_ns": 120},
            {"id": 5, "parent": 2, "start_ns": 10, "end_ns": 20},
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[3], 20)


class Smoke(unittest.TestCase):
    """Tiny-size runs of the real benchmark."""

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in ops.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out, err = run_bench(
                        "--workload", workload, "--seed", "3", "--seconds",
                        "1", "--size", "tiny", "--trace", trace)
                    self.assertEqual(code, 0, out + err)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = BENCHMARK["per_layer" if trace == "1"
                                         else "end_to_end"]
                    self.check_metrics(result, declared)
                    if trace == "0":
                        for name, value in result["metrics"].items():
                            self.assertGreater(value["value"], 0, name)
                        self.assertIn("error_rate", out)

    def test_wrong_reference_digest_is_an_error(self):
        refs = json.loads(ops.REFERENCE.read_text())
        for key in refs["digests"]:
            if key.startswith("sweep:"):
                refs["digests"][key] = "0" * 16
        wrong = SCRATCH / "wrong-reference.json"
        wrong.write_text(json.dumps(refs))
        code, result, out, _ = run_bench(
            "--workload", "tables", "--seconds", "1", "--size", "tiny",
            "--reference", str(wrong))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        error_rate = [line.split()[1] for line in out.splitlines()
                      if line.split()[:1] == ["error_rate"]]
        self.assertEqual(error_rate, ["1"])

    def test_debug_and_sanitizer_builds_are_refused(self):
        for entry in ("CMAKE_BUILD_TYPE:STRING=Debug",
                      "CMAKE_BUILD_TYPE:STRING=RelWithDebInfo\n"
                      "RUU_SANITIZE:STRING=ON"):
            build_dir = SCRATCH / "refused-build"
            shutil.rmtree(build_dir, ignore_errors=True)
            build_dir.mkdir()
            (build_dir / "CMakeCache.txt").write_text(entry + "\n")
            code, result, _, err = run_bench(
                "--workload", "tables", "--seconds", "1", "--build-dir",
                str(build_dir))
            self.assertEqual(code, 2)
            self.assertIsNone(result)
            self.assertIn("refusing to measure", err)

    def test_without_the_source_tree_there_is_no_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(buildmod.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "storm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(done.stdout.strip().endswith("}"))


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
