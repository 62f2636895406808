"""semilie benchmark: the default-grid sweeps and a calculator query stream.

    python3 perfbench/run.py --workload grid_orbital --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/semilie``; only the standard library
is needed.  One process, one thread, one caller in a closed loop: the next
suite or query starts when the previous one has returned.  The package is
driven through its public entry points only, ``semilie.verify.run_suite``
and ``semilie.cli.main(argv)`` with stdout captured.  Every answer is
checked outside the timed region.

Untraced runs time on the host clock of hostspeed.py: wall time scaled by
the host's speed, measured all through each timed region with a fixed
reference loop, so that a slow spell of a shared host does not read as a
slower program.  Every timing is a median over the passes or set-ups of a
run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries per-layer metrics from spans around the
public functions of each module (see tracing.py), per pass of the workload,
and the spans are written to ``perfbench/out/``.  Traced runs time on the
wall clock, so the reference loop stays out of the spans; ``trace.pass_s``
against the wall pass time an untraced run prints to stderr is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostClock, Timing
from tracing import Tracer
from workloads import GRID_SUITES, PINNED_CHECKS, AnswerChecker, make_queries, score_suite

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = (*GRID_SUITES, "calc_wide")
SETUP_REPEATS = 5  # then one more after each suite or query pass
clock = time.perf_counter

# (span name, module, attribute) for each traced boundary.  Several entries
# may share a span name; their calls and times add up.
SPANS = (
    ("exactpoly.at_one", "semilie.exactpoly", "LaurentSeries.at_one"),
    ("exactpoly.log_derivative", "semilie.exactpoly", "LaurentSeries.log_derivative_at_zero"),
    ("exactpoly.series_eq", "semilie.exactpoly", "LaurentSeries.__eq__"),
    ("exactpoly.to_json", "semilie.exactpoly", "LaurentSeries.to_json"),
    ("exactpoly.to_json", "semilie.exactpoly", "QPolynomial.to_json"),
    ("orbital.closed_form", "semilie.orbital", "orbital_closed_form"),
    ("orbital.support_sum", "semilie.orbital", "orbital_support_sum"),
    ("orbital.derivative", "semilie.orbital", "derivative_closed_form"),
    ("orbital.combo", "semilie.orbital", "derivative_combo"),
    ("intersection.int_total", "semilie.intersection", "int_total"),
    ("intersection.miracle", "semilie.intersection", "verify_miracle"),
    ("intersection.kr_closed", "semilie.intersection", "int_circ_kr_closed"),
    ("intersection.gross_keating", "semilie.intersection", "gross_keating"),
    ("kernel.build_matrix", "semilie.kernel", "build_matrix"),
    ("kernel.row_reduce", "semilie.kernel", "row_reduce"),
    ("kernel.certify", "semilie.kernel", "certify_full_rank"),
    ("kernel.vanishing", "semilie.kernel", "test_large_r_vanishing"),
    ("kernel.vanishing", "semilie.kernel", "test_phi_sequence"),
    ("satake.bc_s3_table", "semilie.satake", "bc_s3_table"),
    ("padiclab.count", "semilie.padiclab", "count_one_disk"),
    ("padiclab.count", "semilie.padiclab", "count_two_disk"),
    ("padiclab.formula", "semilie.padiclab", "formula_one_disk"),
    ("padiclab.formula", "semilie.padiclab", "formula_two_disk"),
    ("padiclab.quaternion", "semilie.padiclab", "quaternion_invariants"),
    ("padiclab.histogram", "semilie.padiclab", "DiskCounter.histogram"),
    ("padiclab.histogram", "semilie.padiclab", "DiskCounter.pair_histogram"),
    ("cli.build_parser", "semilie.cli", "build_parser"),
    ("cli.main", "semilie.cli", "main"),
)
# Spans reported as <name>_s (self time) and <name>_calls; the other two
# are reported under the names in _layer_metrics().
TIMED_SPANS = tuple(dict.fromkeys(
    s for s, _, _ in SPANS if s not in ("cli.main", "padiclab.histogram")
))
# The per-tuple table of the orbital suite: (metric, span), in µs per call.
TUPLE_TABLE = (
    ("table.closed_form_us", "orbital.closed_form"),
    ("table.support_sum_us", "orbital.support_sum"),
    ("table.derivative_us", "orbital.derivative"),
    ("table.at_one_us", "exactpoly.at_one"),
    ("table.log_derivative_us", "exactpoly.log_derivative"),
)
SUITES = tuple(PINNED_CHECKS)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (0 <= q <= 1), defined for one value."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _package_modules() -> dict:
    return {m: sys.modules.pop(m) for m in list(sys.modules) if m == "semilie" or m.startswith("semilie.")}


def setup(workload: str, seed: int, host: HostClock):
    """Import the package afresh and build the workload's inputs:
    (inputs, scaled seconds).  The heap is collected first, as in a fresh
    process, so a collection the previous work left due is not charged here."""
    _package_modules()
    gc.collect()
    with host.timed() as t:
        cli = importlib.import_module("semilie.cli")
        inputs = make_queries(seed) if workload == "calc_wide" else cli.SweepConfig()
    return inputs, t.scaled


def time_setup(workload: str, seed: int, host: HostClock) -> float:
    """Seconds of another set-up; the modules in use stay in place."""
    in_use = _package_modules()
    try:
        return setup(workload, seed, host)[1]
    finally:
        _package_modules()
        sys.modules.update(in_use)


class Run:
    """One benchmark process: the counters every workload shares."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.tracer: Tracer | None = None  # set once the spans are installed
        self.host = HostClock()
        self.inputs, first = setup(workload, seed, self.host)
        self.setup_samples = [first] + [time_setup(workload, seed, self.host) for _ in range(SETUP_REPEATS - 1)]
        import semilie.cli
        import semilie.verify

        self.cli, self.verify = semilie.cli, semilie.verify
        self.checker = AnswerChecker()
        self.attempted = 0
        self.failed = 0
        self.suite_checks = dict.fromkeys(SUITES, 0)
        self._suite_runners = {}
        self.latencies: list[list[float]] = [[] for _ in self.inputs] if workload == "calc_wide" else []
        self._verified: dict[int, str] = {}

    # ------------------------------------------------------------- passes
    @contextlib.contextmanager
    def _timed(self):
        """The timed region, yielding its Timing.  Spans are recorded only
        inside it; a traced run times it on the wall clock alone."""
        if not self.tracer:
            with self.host.timed() as timing:
                yield timing
            return
        timing = Timing()
        self.tracer.active = True
        t0 = clock()
        try:
            yield timing
        finally:
            timing.wall = timing.scaled = clock() - t0
            self.tracer.active = False

    def sample_setup(self) -> None:
        """Time one more set-up, between timed requests of an untraced run."""
        if not self.tracer:
            self.setup_samples.append(time_setup(self.workload, self.seed, self.host))

    def grid_pass(self) -> tuple[Timing, int]:
        """One pass over the workload's suites: (its timing, checks made)."""
        results = []
        total = Timing()
        for name in GRID_SUITES[self.workload]:
            run = self._suite_runners.get(name, self.verify.run_suite)
            with self._timed() as t:
                try:
                    (res,) = run(name, self.inputs)
                    results.append((name, res.checked, len(res.failures)))
                except Exception as exc:  # a crashed suite fails every pinned check
                    print(f"suite {name} raised {exc!r}", file=sys.stderr)
                    results.append((name, 0, 0))
            total.wall += t.wall
            total.scaled += t.scaled
            self.sample_setup()
        for name, checked, failures in results:
            attempted, failed = score_suite(name, checked, failures)
            self.attempted += attempted
            self.failed += failed
            self.suite_checks[name] += checked
            if failed:
                print(f"suite {name}: {checked} checks (pinned {PINNED_CHECKS[name]}), "
                      f"{failures} failures", file=sys.stderr)
        return total, sum(c for _, c, _ in results)

    def query(self, index: int, kind: str, params: dict, argv: list[str]) -> Timing:
        """Run query ``index`` of the list, check its answer and return its
        latency, timed from argv to captured output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self._timed() as timing:
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # reported as a failed query
                rc = repr(exc)
        text = out.getvalue()
        if self.tracer:
            self.tracer.counts["cli.output_bytes"] += len(text.encode())
        self.attempted += 1
        # A later pass must print exactly the answer an earlier pass verified.
        if rc != 0 or self._verified.get(index) != text:
            if self.checker.check(kind, params, rc, text):
                self._verified[index] = text
            else:
                self.failed += 1
                print(f"wrong answer (exit {rc}) for semilie {' '.join(argv)}: "
                      f"{err.getvalue()[-300:]}", file=sys.stderr)
        return timing

    def calc_pass(self) -> tuple[Timing, int]:
        """One pass over the query list: (sum of latencies, queries)."""
        total = Timing()
        for i, q in enumerate(self.inputs):
            t = self.query(i, *q)
            self.latencies[i].append(t.scaled)
            total.wall += t.wall
            total.scaled += t.scaled
        self.sample_setup()
        return total, len(self.inputs)

    def passes(self, seconds: float) -> list[tuple[Timing, int]]:
        """Closed-loop passes for ``seconds``, at least one; a pass is not
        started when it would end more than half a pass past the deadline."""
        run_pass = self.calc_pass if self.workload == "calc_wide" else self.grid_pass
        done: list[tuple[Timing, int]] = []
        start = clock()
        wall = 0.0
        while not done or clock() - start + 0.5 * wall < seconds:
            t0 = clock()
            done.append(run_pass())
            wall = clock() - t0
        return done

    # ------------------------------------------------------------ measure
    def measure(self, seconds: float) -> dict:
        """End-to-end metrics of an untraced run, in scaled seconds.

        Each request is timed as the median over the passes (a query on
        calc_wide, the whole pass on grid_*), and set-up as the median of
        the set-ups spread over the run.  The percentiles are over the
        distinct requests, so on grid_* both equal the pass time."""
        done = self.passes(seconds)
        if self.workload == "calc_wide":
            lat = [statistics.median(s) for s in self.latencies]
            rate = len(lat) / sum(lat)
        else:
            dt = statistics.median(t.scaled for t, _ in done)
            lat = [dt]
            rate = done[0][1] / dt
        wall = statistics.median(t.wall for t, _ in done)
        print(f"{len(done)} passes, median {wall:.3f} s of wall time "
              f"and {sum(lat):.3f} s scaled", file=sys.stderr)
        return {
            "checks_per_s": (rate, "1/s"),
            "query_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "query_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics, per pass, of a traced run."""
        self.tracer = Tracer()
        self._install_spans()
        done = self.passes(seconds)
        n = len(done)
        out = self._layer_metrics(n, {s: c / n for s, c in self.suite_checks.items()})
        out["trace.pass_s"] = (statistics.median(t.wall for t, _ in done), "s")
        self.tracer.dump(BENCH_DIR / "out" / f"trace-{self.workload}-seed{self.seed}.json")
        return out

    def _install_spans(self) -> None:
        tracer = self.tracer

        def count_q_terms(args):
            tracer.counts["exactpoly.series_q_terms"] += sum(map(len, args[0]._terms.values()))

        def probe_memo(fn):
            def probed(counter, *args):
                before = len(counter._memo)
                out = fn(counter, *args)
                tracer.counts["padiclab.histograms_built"] += len(counter._memo) - before
                return out
            return probed

        for span, module, attr in SPANS:
            pre = count_q_terms if attr.startswith("LaurentSeries.") else None
            inner = probe_memo if span == "padiclab.histogram" else None
            tracer.patch(span, module, attr, pre=pre, inner=inner)
        for name in SUITES:
            self._suite_runners[name] = tracer.wrap(f"verify.{name}", self.verify.run_suite)

    def _layer_metrics(self, passes: int, checks: dict) -> dict:
        t = self.tracer
        out = {}
        for span in TIMED_SPANS:
            out[f"{span}_s"] = (t.self_time(span) / passes, "s")
            out[f"{span}_calls"] = (t.calls(span) / passes, "count")
        lookups = t.calls("padiclab.histogram")
        built = t.counts["padiclab.histograms_built"]
        out["padiclab.histogram_s"] = (t.self_time("padiclab.histogram") / passes, "s")
        out["padiclab.histogram_lookups"] = (lookups / passes, "count")
        out["padiclab.histograms_built"] = (built / passes, "count")
        out["padiclab.memo_hit_ratio"] = ((lookups - built) / lookups if lookups else 0.0, "ratio")
        out["exactpoly.series_q_terms"] = (t.counts["exactpoly.series_q_terms"] / passes, "count")
        out["cli.self_s"] = (t.self_time("cli.main") / passes, "s")
        out["cli.main_calls"] = (t.calls("cli.main") / passes, "count")
        out["cli.output_bytes"] = (t.counts["cli.output_bytes"] / passes, "bytes")
        for name in SUITES:
            out[f"verify.{name}_s"] = (t.inclusive(f"verify.{name}") / passes, "s")
            out[f"verify.{name}_checks"] = (checks[name], "count")
        out["verify.self_s"] = (sum(t.self_time(f"verify.{n}") for n in SUITES) / passes, "s")
        tuples = t.calls("orbital.closed_form", "verify.orbital")
        for metric, span in TUPLE_TABLE:
            calls = t.calls(span, "verify.orbital")
            out[metric] = (1e6 * t.inclusive(span, "verify.orbital") / calls if calls else 0.0, "us")
        out["table.tuples"] = (tuples / passes, "count")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "semilie" / "__init__.py").is_file():
        print(f"error: no semilie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Compiled modules go inside the checkout, so every setup but the first
    # in a fresh checkout imports bytecode, whatever the environment says.
    sys.pycache_prefix = str(BENCH_DIR / "out" / "pycache")
    sys.dont_write_bytecode = False

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics = run.measure_traced(args.seconds)
        report_tuple_table(metrics)
    else:
        metrics = run.measure(args.seconds)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def report_tuple_table(metrics: dict) -> None:
    """Print the per-tuple table of the orbital suite to stderr."""
    tuples = metrics["table.tuples"][0]
    if not tuples:
        return
    print(f"orbital suite, µs per call over {tuples:.0f} tuples (traced):", file=sys.stderr)
    for metric, span in TUPLE_TABLE:
        print(f"  {span:26s} {metrics[metric][0]:8.1f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
