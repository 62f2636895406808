"""Self-tests of the benchmark (not of semilie).

    python3 -m pytest perfbench        # or: python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PINNED_CHECKS, QUERY_KINDS, make_queries, score_suite  # noqa: E402


class QueryStreamTest(unittest.TestCase):
    def test_same_seed_same_argv_other_seed_other_argv(self):
        def argv(seed):
            return [q[2] for q in make_queries(seed, 120)]

        self.assertEqual(argv(7), argv(7))
        self.assertNotEqual(argv(7), argv(8))

    def test_kinds_are_balanced(self):
        kinds = [q[0] for q in make_queries(3, 60)]
        self.assertEqual({k: kinds.count(k) for k in QUERY_KINDS}, dict.fromkeys(QUERY_KINDS, 10))


class ScoringTest(unittest.TestCase):
    def test_pinned_counts_pass(self):
        for name, pinned in PINNED_CHECKS.items():
            self.assertEqual(score_suite(name, pinned, 0), (pinned, 0))

    def test_drift_and_empty_suites_fail(self):
        self.assertEqual(score_suite("satake", 49, 0), (50, 1))
        self.assertEqual(score_suite("satake", 51, 0), (51, 1))
        self.assertEqual(score_suite("quaternion", 0, 0), (120, 120))
        self.assertEqual(score_suite("miracle", 3_696, 2), (3_696, 2))

    def test_grid_pass_counts_drift_as_failed(self):
        bench = run.Run("grid_orbital", seed=1)

        def drifting(name, config):
            (res,) = bench.verify.run_suite("satake", config)
            res.checked = PINNED_CHECKS[name] - 1 if name == "kernel" else PINNED_CHECKS[name]
            return [res]

        bench._suite_runners = dict.fromkeys(run.GRID_SUITES["grid_orbital"], drifting)
        bench.grid_pass()
        self.assertEqual(bench.failed, 1)
        self.assertEqual(bench.attempted, sum(PINNED_CHECKS[n] for n in run.GRID_SUITES["grid_orbital"]))


class AnswerCheckTest(unittest.TestCase):
    def test_calc_answers_pass(self):
        bench = run.Run("calc_wide", seed=5)
        for i, q in enumerate(make_queries(5, 24)):
            bench.query(i, *q)
        self.assertEqual((bench.attempted, bench.failed), (24, 0))

    def test_planted_wrong_answer_fails(self):
        bench = run.Run("calc_wide", seed=5)
        cli = bench.cli
        original = cli.derivative_closed_form
        cli.derivative_closed_form = lambda p: original(p).shift(1)
        try:
            queries = [q for q in make_queries(5, 60) if q[0] in ("derivative", "bc_s3")]
            for i, q in enumerate(queries):
                bench.query(i, *q)
        finally:
            cli.derivative_closed_form = original
        self.assertEqual(bench.failed, sum(q[0] == "derivative" for q in queries))
        self.assertGreater(bench.failed, 0)
        self.assertFalse(bench.checker.check("orbital", {}, 0, '{"t_terms": []}\noracle: MISMATCH\n'))
        self.assertFalse(bench.checker.check("orbital", {}, 1, '{"t_terms": []}\noracle: match\n'))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        t = Tracer()
        inner = t.wrap("inner", lambda: sum(range(20_000)))
        outer = t.wrap("outer", lambda: inner() + inner())
        t.active = True
        outer()
        calls, incl, self_s = t.stats[("outer", None)]
        self.assertEqual((calls, t.calls("inner", "outer")), (1, 2))
        self.assertAlmostEqual(incl - self_s, t.inclusive("inner"), places=9)

    def test_patch_reaches_every_namespace_and_unpatch_restores(self):
        import semilie.kernel
        import semilie.orbital
        import semilie.verify

        original = semilie.orbital.derivative_closed_form
        t = Tracer()
        t.patch("orbital.derivative", "semilie.orbital", "derivative_closed_form")
        try:
            self.assertIsNot(semilie.kernel.derivative_closed_form, original)
            self.assertIs(semilie.verify.derivative_closed_form, semilie.kernel.derivative_closed_form)
            t.active = True
            m = semilie.kernel.build_matrix(3, 1, 2)
            self.assertEqual(t.calls("orbital.derivative"), m.rows * m.cols)
        finally:
            t.unpatch()
        self.assertIs(semilie.kernel.derivative_closed_form, original)


class HostClockTest(unittest.TestCase):
    def test_work_is_scaled_by_the_reference_time_at_its_ends(self):
        ref = hostspeed.REF_S
        t = hostspeed.Timing()
        # 10 ms of work at full speed, then 20 ms at half speed.
        t.close([(0.0, ref), (ref + 0.010, 2 * ref + 0.010), (2 * ref + 0.030, 4 * ref + 0.030)])
        self.assertAlmostEqual(t.wall, 0.030)
        self.assertAlmostEqual(t.scaled, 0.010 + 0.020 * 0.5 * (1 + 0.5))
        self.assertEqual(t.samples, 3)

    def test_samples_inside_the_region_and_restores_the_alarm(self):
        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.HostClock(sample_s=0.002).timed() as t:
            end = hostspeed.clock() + 0.05
            while hostspeed.clock() < end:
                pass
        self.assertGreater(t.samples, 3)
        self.assertGreater(t.scaled, 0.0)
        self.assertLess(t.wall, 0.05)  # the reference loop's time is left out
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        bench = run.Run("calc_wide", seed=2)
        untraced = bench.measure(0.001)
        bench.tracer = Tracer()
        traced = bench._layer_metrics(1, dict.fromkeys(run.SUITES, 0))
        traced["trace.pass_s"] = (0.0, "s")
        for section, metrics in (("end_to_end", untraced), ("per_layer", traced)):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in spec[section]],
                [(k, unit) for k, (_, unit) in metrics.items()],
            )

    def test_fails_without_sources(self):
        bare = BENCH_DIR / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "calc_wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
