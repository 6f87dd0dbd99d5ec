"""Regenerate the golden outputs the benchmark checks every call against.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/make_golden.py

It writes ``perfbench/golden/digests.json`` (a digest of exit code, stdout
and stderr for every call the benchmark makes: the six ``check`` calls and
every bracket-cold call of every variant), the six ``check`` text reports
and the printed results of variant 0's bracket-cold stream. Any call that
fails aborts the run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness
import workloads as W


def _run(main, argvs):
    for argv in argvs:
        outcome = harness.invoke(main, argv)
        if outcome.error or outcome.code != 0 or outcome.stderr:
            raise SystemExit(f"call failed: {argv}: {outcome.error or outcome.stderr}")
        yield outcome


def main() -> int:
    cli = harness.load_cli()
    os.makedirs(harness.GOLDEN, exist_ok=True)
    digests = {"check": {}, "bracket": {}}
    for workload in W.SUITE_CHARTS:
        calls = W.suite_pass(workload)
        for call, outcome in zip(calls, _run(cli.main, [c.argv for c in calls])):
            digests["check"][call.key] = outcome.digest()
            chart = call.key.split("@")[0]
            path = os.path.join(harness.GOLDEN, f"check-{chart}-seed{W.SUITE_SEED}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(outcome.stdout)
    for v in range(W.VARIANTS):
        calls = W.bracket_stream(v)
        os.makedirs(harness.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
            outcomes = list(_run(cli.main, harness.write_manifests(calls, tmp)))
        digests["bracket"][str(v)] = [o.digest() for o in outcomes]
        if v == 0:
            with open(os.path.join(harness.GOLDEN, "bracket-cold-v0.txt"), "w", encoding="utf-8") as handle:
                handle.writelines(o.stdout for o in outcomes)
        print(f"variant {v} done", file=sys.stderr, flush=True)
    with open(os.path.join(harness.GOLDEN, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
