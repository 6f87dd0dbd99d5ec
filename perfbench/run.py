"""Benchmark of the gradedpoisson CLI, end to end and per layer.

    python3 perfbench/run.py --workload suite-curved --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The program is imported from ``src`` of
that checkout and driven in-process through ``gradedpoisson.cli.main``:
one caller, one thread, each call timed from outside with stdout and stderr
captured and checked byte for byte against ``golden/``.

``--trace 0`` repeats whole passes of the workload until the next pass
would end after ``--seconds``, and reports the end-to-end metrics. Every
time in them is CPU time, scaled to a fixed host speed by a reference
probe timed around each call (``harness.Reference``); the run also prints
the plain wall and CPU times.
``--trace 1`` makes one untraced and one traced pass of a fixed size, and
reports the per-layer metrics of ``tracer.METRICS``; its counts repeat
exactly for a seed. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness
import tracer
import workloads as W

SETUP_PROBES = 5
# reference probes before and after each import probe; the parent is idle
# while the child imports, so the sampler cannot probe during it
SETUP_GAP_PROBES = 3
# run in a fresh interpreter; prints the CPU seconds spent importing the CLI
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.process_time()\n"
    "import gradedpoisson.cli\n"
    "print(time.process_time() - t)\n"
)
# bracket-cold passes in a traced run: this many untraced, then as many traced
TRACE_BRACKET_PASSES = 5


def measure_setup(reference: harness.Reference) -> float:
    """Median over fresh interpreters of the time to import the CLI and sympy."""
    spans = []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_GAP_PROBES):
            reference.probe()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, harness.SRC],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall = time.perf_counter() - start
        spans.append((start, wall, float(done.stdout.strip().splitlines()[-1])))
    for _ in range(SETUP_GAP_PROBES):
        reference.probe()
    return statistics.median(s * reference.scale(t, t + w) for t, w, s in spans)


class Runner:
    """Issues a workload's calls and checks each against its golden digest."""

    def __init__(self, workload: str, seed: int, workdir: str, reference: harness.Reference):
        self.cli = harness.load_cli()
        self.reference = reference
        self.workload = workload
        digests = harness.load_digests()
        if workload == "bracket-cold":
            calls = W.bracket_stream(seed)
            expected = digests["bracket"][str(W.variant(seed))]
            argvs = harness.write_manifests(calls, workdir)
            self.shares = W.distinct_shares(calls)
            items = list(zip(argvs, expected))
            self.passes = [items[i : i + W.BRACKET_PASS] for i in range(0, len(items), W.BRACKET_PASS)]
        else:
            calls = W.suite_pass(workload)
            self.passes = [[(c.argv, digests["check"][c.key]) for c in calls]]
            self.shares = None
        self.calls = []  # per pass: (call, start, wall and CPU seconds) of each call
        self.wall_pass_times = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []

    def next_pass(self, index: int):
        """The index-th pass; suite passes repeat, bracket passes never do."""
        if self.workload == "bracket-cold":
            return self.passes[index] if index < len(self.passes) else None
        return self.passes[0]

    def run_pass(self, items) -> None:
        start = time.perf_counter()
        calls = []
        for argv, expected in items:
            probed = self.reference.spent
            outcome = harness.invoke(self.cli.main, argv)
            cpu = outcome.cpu - (self.reference.spent - probed)
            calls.append((tuple(argv), outcome.start, outcome.seconds, cpu))
            self.attempted += 1
            self.digests.append(outcome.digest())
            if outcome.error or self.digests[-1] != expected:
                self.failed += 1
                self.failures.append(
                    f"{' '.join(argv)}: exit {outcome.code}, "
                    f"{outcome.error or outcome.stderr.strip() or 'output differs from golden'}"
                )
        self.calls.append(calls)
        self.wall_pass_times.append(time.perf_counter() - start)

    def scaled(self):
        """Pass times and per-call latencies, in reference seconds."""
        pass_times, latencies = [], {}
        for calls in self.calls:
            total = 0.0
            for call, start, wall, cpu in calls:
                seconds = cpu * self.reference.scale(start, start + wall)
                latencies.setdefault(call, []).append(seconds)
                total += seconds
            pass_times.append(total)
        return pass_times, latencies


def run_timed(runner: Runner, seconds: float):
    """Whole passes until the next one, at the median pass time, would overrun."""
    begin = time.perf_counter()
    index = 0
    with runner.reference.sampling():
        while True:
            items = runner.next_pass(index)
            if items is None:
                break
            runner.run_pass(items)
            index += 1
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(runner.wall_pass_times) > seconds:
                break


END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """The end-to-end metrics, all times in reference seconds."""
    pass_times, latencies = runner.scaled()
    # one latency per distinct call (its median), so that a suite run's
    # percentiles cover its three charts alike whatever the number of passes
    latencies_ms = [statistics.median(t) * 1000.0 for t in latencies.values()]
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(pass_times),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def run_traced(runner: Runner) -> tracer.Tracer:
    """An untraced then a traced stretch of fixed work; returns the trace.

    The reference sampler stays off, since its probes would land in the
    self time of whatever traced call they interrupt, so the overhead is a
    ratio of plain CPU times.
    """
    if runner.workload == "bracket-cold":
        plain = [runner.next_pass(i) for i in range(TRACE_BRACKET_PASSES)]
        traced = [runner.next_pass(i) for i in range(TRACE_BRACKET_PASSES, 2 * TRACE_BRACKET_PASSES)]
    else:
        plain = traced = [runner.next_pass(0)]
    for items in plain:
        runner.run_pass(items)
    with tracer.Tracer() as trace:
        for items in traced:
            runner.run_pass(items)
    cpu = [sum(c[3] for c in calls) for calls in runner.calls]
    trace.overhead_frac = sum(cpu[len(plain):]) / sum(cpu[: len(plain)]) - 1.0
    return trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.load_cli()
    except harness.MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    harness.pin_to_one_cpu()
    reference = harness.Reference()
    setup_s = measure_setup(reference) if args.trace == 0 else None

    os.makedirs(harness.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK) as workdir:
        runner = Runner(args.workload, args.seed, workdir, reference)
        if args.trace:
            span_path = os.path.join(harness.WORK, f"spans-{args.workload}-seed{args.seed}.json")
            trace = run_traced(runner)
            trace.write_spans(span_path)
            metrics, absent = trace.metrics()
            if absent:
                print(f"absent (traced names missing): {', '.join(absent)}")
            print(f"spans: {len(trace.spans)} written to {os.path.relpath(span_path, harness.ROOT)}")
        else:
            run_timed(runner, args.seconds)
            metrics = end_to_end(runner, setup_s)
            pass_times = runner.scaled()[0]
            print(f"passes: {len(pass_times)} ({', '.join(f'{t:.3f}' for t in pass_times)} s scaled)")
            cpu_pass_times = [sum(c[3] for c in calls) for calls in runner.calls]
            print(
                f"unscaled pass_s: wall {statistics.median(runner.wall_pass_times):.3f} s, "
                f"CPU {statistics.median(cpu_pass_times):.3f} s; reference probe median "
                f"{statistics.median(reference.probes) * 1000:.3f} ms CPU "
                f"(scaled times assume {reference.PROBE_S * 1000:.0f} ms)"
            )

    for line in runner.failures[:10]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed} (bracket-cold variant {W.variant(args.seed)})")
    if runner.shares:
        print(
            "distinct share: manifests {manifests:.3f}, calls {calls:.3f}".format(**runner.shares)
        )
    print(f"ops: {runner.attempted}, failed_op_frac: {runner.failed / runner.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
