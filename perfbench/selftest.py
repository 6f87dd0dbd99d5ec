"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They are not collected by a plain ``pytest`` run of the repository (the
file name does not match ``test_*.py``) because they spend about a minute
running the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness
import run
import tracer
import workloads as W

# Runs a traced slice of a workload in a fresh interpreter and prints its
# counters, output digests and failure count.
CHILD = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import harness, run, tracer
workload, seed, count = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
    runner = run.Runner(workload, seed, tmp, harness.Reference())
    items = runner.next_pass(0)[:count]
    runner.run_pass(items)
    with tracer.Tracer() as trace:
        runner.run_pass(items)
print(json.dumps({"counters": trace.counters(), "digests": runner.digests,
                  "failed": runner.failed, "absent": trace.absent}))
"""


def _child(workload, seed, count, hashseed):
    os.makedirs(harness.WORK, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, HERE, workload, str(seed), str(count)],
        cwd=harness.ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stream_digest(seed):
    blob = json.dumps([(c.key, c.argv, c.manifest) for c in W.bracket_stream(seed)])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_generator_is_deterministic_per_seed():
    digests = [_stream_digest(seed) for seed in range(W.VARIANTS)]
    assert digests == [_stream_digest(seed) for seed in range(W.VARIANTS)]
    assert len(set(digests)) == W.VARIANTS
    # a seed only selects its variant, and another interpreter agrees
    assert _stream_digest(3) == _stream_digest(3 + W.VARIANTS)
    code = f"import sys; sys.path.insert(0, {HERE!r}); import selftest; print(selftest._stream_digest(3))"
    env = dict(os.environ, PYTHONHASHSEED="123")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == digests[3]


def test_generated_charts_build():
    harness.load_cli()
    from gradedpoisson.manifest import parse_manifest

    for seed in range(W.VARIANTS):
        for call in W.bracket_stream(seed, W.BRACKET_PASS):
            assert parse_manifest(call.manifest).dim == 2
            assert call.argv[2].startswith("--alpha=") and call.argv[3].startswith("--beta=")


def test_operands_are_mostly_distinct():
    for seed in range(W.VARIANTS):
        shares = W.distinct_shares(W.bracket_stream(seed))
        assert shares["calls"] == 1.0
        assert shares["manifests"] > 0.95


def test_traced_outputs_match_untraced_and_counters_repeat():
    for workload, count in (("bracket-cold", W.BRACKET_PASS), ("suite-flat", 1)):
        first = _child(workload, 4, count, hashseed=1)
        second = _child(workload, 4, count, hashseed=2)
        assert first["failed"] == 0 and second["failed"] == 0
        assert first["absent"] == []
        half = len(first["digests"]) // 2
        # traced calls print exactly what the untraced calls printed
        assert first["digests"][:half] == first["digests"][half:]
        assert first["digests"] == second["digests"]
        assert first["counters"] == second["counters"]
        assert first["counters"]["cli.op"][0] == count


def test_tracer_restores_the_program():
    harness.load_cli()
    import gradedpoisson.scalars as scalars
    import gradedpoisson.suites as suites

    before = (scalars.RationalFunction.__mul__, suites.solve_hamiltonian, suites.CHECKS[0].fn)
    with tracer.Tracer() as trace:
        assert scalars.RationalFunction.__rmul__ is scalars.RationalFunction.__mul__
        assert scalars.RationalFunction.__mul__ is not before[0]
        assert suites.solve_hamiltonian is not before[1]
        assert trace.absent == []
    after = (scalars.RationalFunction.__mul__, suites.solve_hamiltonian, suites.CHECKS[0].fn)
    assert after == before


def test_missing_name_is_reported_absent():
    harness.load_cli()
    saved = tracer.TRACED
    tracer.TRACED = saved + (("brackets", "no_such_solver", "brackets", tracer.SPAN, "brackets.gone"),)
    try:
        with tracer.Tracer() as trace:
            pass
    finally:
        tracer.TRACED = saved
    assert trace.absent == ["brackets.no_such_solver"]


def test_reference_probes_inside_calls_and_is_taken_out():
    reference = harness.Reference()

    def busy(argv):
        # spins for 0.6 s of its own CPU time, not counting the probes
        start, probed = time.thread_time(), reference.spent
        while time.thread_time() - start - (reference.spent - probed) < 0.6:
            pass
        return 0

    with reference.sampling():
        spent = reference.spent
        outcome = harness.invoke(busy, [])
        inside = reference.spent - spent
    assert len(reference.probes) >= 2 and inside > 0
    # the call's own CPU time, with the probes taken out, is the 0.6 s it spun
    assert 0.6 <= outcome.cpu - inside < 0.65
    assert reference.scale(outcome.start, outcome.start + outcome.seconds) > 0


def test_golden_files_agree_with_digests():
    digests = harness.load_digests()
    for chart in W.SUITE_CHARTS["suite-curved"] + W.SUITE_CHARTS["suite-flat"]:
        key = f"{chart}@{W.SUITE_SEED}"
        with open(os.path.join(harness.GOLDEN, f"check-{chart}-seed{W.SUITE_SEED}.txt")) as f:
            assert harness.output_digest(0, f.read(), "") == digests["check"][key]
    with open(os.path.join(harness.GOLDEN, "bracket-cold-v0.txt")) as f:
        lines = f.read().splitlines(keepends=True)
    assert [harness.output_digest(0, line, "") for line in lines] == digests["bracket"]["0"]
    assert all(len(digests["bracket"][str(v)]) == W.BRACKET_STREAM for v in range(W.VARIANTS))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, *_rest) in tracer.METRICS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
