"""Loading the program from the checkout and calling its CLI in-process."""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
WORK = os.path.join(ROOT, ".perfbench")

class MissingProgram(RuntimeError):
    pass


def load_cli():
    """Import ``gradedpoisson.cli`` from this checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gradedpoisson", "cli.py")):
        raise MissingProgram(f"no gradedpoisson sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gradedpoisson.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"gradedpoisson imported from {cli.__file__}, not {SRC}")
    return cli


class Outcome:
    """What one CLI call returned: exit code, captured streams, and when it
    started, how long it took and how much of that it ran on the CPU."""

    __slots__ = ("code", "stdout", "stderr", "start", "seconds", "cpu", "error")

    def __init__(self, code, stdout, stderr, start, seconds, cpu, error):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.start = start
        self.seconds = seconds
        self.cpu = cpu
        self.error = error

    def digest(self) -> str:
        return output_digest(self.code, self.stdout, self.stderr)


def output_digest(code, stdout: str, stderr: str) -> str:
    blob = f"{code}\n{stdout}\0{stderr}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def invoke(main, argv) -> Outcome:
    """Run ``main(argv)`` with stdout and stderr captured, timed from outside."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            error = f"{type(exc).__name__}: {exc}"
        cpu = time.thread_time() - cpu_start
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), start, seconds, cpu, error)


class Reference:
    """A fixed loop that gauges how fast the host runs right now.

    On a shared host a CPU runs slower for seconds to minutes at a time,
    by up to 2x, even where the program gets all of its CPU time (time the
    host gives to others is already left out, since calls are timed in CPU
    time). While ``sampling``, a CPU-time timer runs this probe every
    ``EVERY_S`` seconds of CPU, inside the timed calls and between them,
    and ``spent`` adds up the CPU seconds the probes took so that callers
    can take them out of a call's time. ``scale`` turns CPU seconds into
    seconds at the speed where one probe takes ``PROBE_S`` of CPU time:
    the median of the probes within ``WINDOW_S`` of a call gauges the
    speed during it. The probe is plain interpreted integer arithmetic; it
    calls nothing of the program or of sympy, so a change to the program
    cannot change it, and it allocates nothing the garbage collector
    tracks. It tracked the program's calls more closely than sympy
    polynomial arithmetic did (see README.md).
    """

    PROBE_S = 0.010
    LOOPS = 125_000
    EVERY_S = 0.2
    WINDOW_S = 1.0

    def __init__(self):
        self.times = []  # middle of each probe, perf_counter seconds
        self.probes = []  # CPU seconds each probe took
        self.spent = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        total = 0
        for i in range(self.LOOPS):
            total += i * i % 7
        cpu = time.thread_time() - cpu_start
        self.times.append((start + time.perf_counter()) / 2)
        self.probes.append(cpu)
        self.spent += cpu

    def _on_timer(self, signum, frame):
        self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe every EVERY_S seconds of this process's CPU time."""
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.EVERY_S, self.EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from CPU seconds spent in ``[start, end]`` (perf_counter
        times) to reference seconds."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        return self.PROBE_S / statistics.median(self.probes[lo:hi])


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so that
    the reference probes run where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_digests() -> dict:
    with open(os.path.join(GOLDEN, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def write_manifests(calls, directory: str) -> list:
    """Write each bracket call's manifest to its own file; return the argvs."""
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for index, call in enumerate(calls):
        path = None
        if call.manifest is not None:
            path = os.path.join(directory, f"m{index:04d}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(call.manifest)
        argvs.append(call.resolved_argv(path))
    return argvs
