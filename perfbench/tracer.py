"""Outside-in tracing of the program's layers, for the traced benchmark run.

The tracer replaces selected public functions of ``gradedpoisson`` with
timing wrappers, from the benchmark's own files; the program is not edited.
Every name it wraps is in ``TRACED``. Coarse calls (CLI operations, suite
checks, geometry, graded tabulation, brackets, manifest and expression
parsing) each record a span; the very frequent scalar and form calls are
only folded into counters and self time, because one curved suite makes
tens of thousands of them.

A call's self time is its duration minus the time of the traced calls
nested in it. Spans are kept in memory and written out once, at the end.
A name that no longer exists in the program is recorded as absent, and the
metrics that depend only on absent names are left out of the report.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "gradedpoisson"
SPAN, COUNT, CHECKS = "span", "count", "checks"

# (module, qualified name, layer, kind, stem). Calls are aggregated per stem;
# several names may share one stem (both solvers count as brackets.solve).
TRACED = (
    ("cli", "main", "cli", SPAN, "cli.op"),
    ("suites", "run_suite", "suites", SPAN, "suites.report"),
    ("suites", "CHECKS", "suites", CHECKS, "suites.check"),
    ("manifest", "parse_manifest", "manifest", SPAN, "manifest"),
    ("exprparse", "parse_form_expr", "exprparse", SPAN, "exprparse"),
    ("exprparse", "parse_scalar_expr", "exprparse", SPAN, "exprparse"),
    ("geometry", "ChartGeometry.__init__", "geometry", SPAN, "geometry.chart_init"),
    ("geometry", "matrix_inverse", "geometry", SPAN, "geometry.matrix_inverse"),
    ("geometry", "ChartGeometry.dnabla", "geometry", SPAN, "geometry.dnabla"),
    ("graded", "theta_even", "graded", SPAN, "graded.tabulate"),
    ("graded", "theta_ks", "graded", SPAN, "graded.tabulate"),
    ("graded", "convert_two", "graded", SPAN, "graded.tabulate"),
    ("graded", "dG_one", "graded", SPAN, "graded.structure"),
    ("graded", "lieG_two", "graded", SPAN, "graded.structure"),
    ("graded", "dG_two_eval", "graded", SPAN, "graded.structure"),
    ("graded", "iota", "graded", SPAN, "graded.iota"),
    ("graded", "eval_two", "graded", SPAN, "graded.eval_two"),
    ("brackets", "solve_hamiltonian", "brackets", SPAN, "brackets.solve"),
    ("brackets", "solve_hamiltonian_ks", "brackets", SPAN, "brackets.solve"),
    ("brackets", "_verify", "brackets", SPAN, "brackets.verify"),
    ("brackets", "bracket_fastpath", "brackets", SPAN, "brackets.fastpath"),
    ("brackets", "even_bracket", "brackets", SPAN, "brackets.even"),
    ("brackets", "ks_bracket", "brackets", SPAN, "brackets.odd"),
    ("forms", "Form.wedge", "forms", COUNT, "forms.wedge"),
    ("forms", "Form.d", "forms", COUNT, "forms.d"),
    ("forms", "Form.__add__", "forms", COUNT, "forms.arith"),
    ("forms", "Form.__sub__", "forms", COUNT, "forms.arith"),
    ("forms", "Form.__mul__", "forms", COUNT, "forms.arith"),
    ("forms", "Derivation.__call__", "forms", COUNT, "forms.derivation_apply"),
    ("scalars", "RationalFunction.__mul__", "scalars", COUNT, "scalars.mul"),
    ("scalars", "RationalFunction.__add__", "scalars", COUNT, "scalars.add"),
    ("scalars", "RationalFunction.__sub__", "scalars", COUNT, "scalars.add"),
    ("scalars", "RationalFunction.__rsub__", "scalars", COUNT, "scalars.add"),
    ("scalars", "RationalFunction.__neg__", "scalars", COUNT, "scalars.neg"),
    ("scalars", "RationalFunction.__truediv__", "scalars", COUNT, "scalars.div"),
    ("scalars", "RationalFunction.__rtruediv__", "scalars", COUNT, "scalars.div"),
    ("scalars", "RationalFunction.__pow__", "scalars", COUNT, "scalars.pow"),
    ("scalars", "RationalFunction.partial", "scalars", COUNT, "scalars.partial"),
)

# Stems whose calls are also counted by distinct arguments, within one CLI call.
DISTINCT = ("brackets.solve", "geometry.matrix_inverse")

LAYERS = ("cli", "suites", "manifest", "exprparse", "geometry", "graded", "brackets", "forms", "scalars")

# Charts and checks whose times are reported one by one.
CHARTS = ("flat2", "flat4", "halfplane", "sphere2", "tlift1", "tlift1q")
CHECK_IDS = (
    "even-bilinearity", "even-degree", "even-commutativity", "even-leibniz", "even-jacobi",
    "odd-bilinearity", "odd-degree", "odd-commutativity", "odd-leibniz", "odd-jacobi",
    "poisson-extension", "exterior-insertion", "exterior-lie", "metric-potential-on-d",
    "tensor-insertion-characterization", "defect-identity", "omega-hamiltonian",
    "metric-potential-pairing", "nabla-j-symmetry", "locally-hamiltonian",
    "construction-consistency", "theta-determinant", "ks-cross-oracle",
    "ks-poisson-differential", "solution-parity", "even-chain", "odd-chain",
    "sign-outcome", "fastpath", "kahler-seed", "kahler-chain", "j-compatibility",
    "j-square", "para-hermitian", "nabla-j",
)

# Reported per-layer metrics: name -> (unit, better, stem, value). ``value``
# reads the metric from a finished Tracer; a metric whose stem traces no
# existing name is reported absent.
METRICS = {}


def _metric(name, unit, better, stem, value):
    METRICS[name] = (unit, better, stem, value)


for _name, _stem in (
    ("brackets.solves", "brackets.solve"),
    ("brackets.verify.calls", "brackets.verify"),
    ("brackets.fastpath.calls", "brackets.fastpath"),
    ("geometry.matrix_inverse.calls", "geometry.matrix_inverse"),
    ("geometry.chart_init.calls", "geometry.chart_init"),
    ("geometry.dnabla.calls", "geometry.dnabla"),
    ("graded.iota.calls", "graded.iota"),
    ("graded.eval_two.calls", "graded.eval_two"),
    ("forms.wedge.calls", "forms.wedge"),
    ("forms.d.calls", "forms.d"),
    ("forms.derivation_apply.calls", "forms.derivation_apply"),
    ("scalars.mul.calls", "scalars.mul"),
    ("scalars.add.calls", "scalars.add"),
    ("scalars.div.calls", "scalars.div"),
    ("scalars.partial.calls", "scalars.partial"),
    ("manifest.calls", "manifest"),
    ("exprparse.calls", "exprparse"),
    ("cli.ops", "cli.op"),
):
    _metric(_name, "count", "lower", _stem, lambda t, s=_stem: t.stat(s).calls)
_metric("brackets.distinct_solves", "count", "lower", "brackets.solve",
        lambda t: t.distinct.get("brackets.solve", 0))
_metric("brackets.solve_reuse", "ratio", "higher", "brackets.solve",
        lambda t: t.distinct.get("brackets.solve", 0) / max(1, t.stat("brackets.solve").calls))
_metric("geometry.matrix_inverse.distinct", "count", "lower", "geometry.matrix_inverse",
        lambda t: t.distinct.get("geometry.matrix_inverse", 0))
for _stem in (
    "brackets.solve", "brackets.verify", "geometry.chart_init",
    "graded.tabulate", "graded.structure", *LAYERS,
):
    _metric(f"{_stem}.self_s", "s", "lower", _stem, lambda t, s=_stem: t.stat(s).self_s)
for _stem, _names in (("suites.check", CHECK_IDS), ("suites.report", CHARTS)):
    for _key in (f"{_stem}_s.{n}" for n in _names):
        _metric(_key, "s", "lower", _stem, lambda t, k=_key: t.keyed.get(k, 0.0))
for _layer in LAYERS:
    _metric(f"{_layer}.raised", "count", "lower", _layer, lambda t, s=_layer: t.stat(s).raised)
_metric("trace.overhead_frac", "ratio", "lower", None, lambda t: t.overhead_frac)


def _by_value(obj):
    """A hashable key equal for equal values; lists and tuples alike."""
    if isinstance(obj, dict):
        obj = sorted(obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_by_value(item) for item in obj)
    return repr(obj)


class Stat:
    __slots__ = ("calls", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    """Wraps the ``TRACED`` names of an imported ``gradedpoisson`` package.

    Use as a context manager: the wrappers are installed on entry and the
    original functions restored on exit.
    """

    def __init__(self):
        self.stats = {}
        self.keyed = {}  # "suites.check_s.<id>" / "suites.report_s.<chart>" -> seconds
        self.spans = []  # (id, name, start, end, parent, op)
        self.absent = []
        self.present_stems = set()
        self._frames = [[0.0]]  # child time of each open traced call; [0] is the root
        self._span_ids = [None]
        self._op = None
        self._seen = {}  # stem -> argument keys seen in the current CLI call
        self._keepalive = []
        self.distinct = {}  # stem -> distinct calls, summed over CLI calls
        self._restore = []
        self.overhead_frac = None  # traced against untraced CPU time, set by the caller

    # -- installation ---------------------------------------------------------------

    def __enter__(self):
        for module_name, qualname, layer, kind, stem in TRACED:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                self._install(module, qualname, layer, kind, stem)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            self.present_stems.update((stem, layer))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()
        return False

    def _namespaces(self):
        """Every module of the package and every class defined in one."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value

    def _replace_everywhere(self, original, wrapper):
        # also catches aliases such as __radd__ = __add__ and from-imports
        for namespace in self._namespaces():
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def _install(self, module, qualname, layer, kind, stem):
        if kind == CHECKS:
            for check in getattr(module, qualname):
                wrapper = self._wrap(check.fn, layer, stem, SPAN, f"suites.check_s.{check.id}")
                self._restore.append((check, "fn", check.fn))
                check.fn = wrapper
            return
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        key = None
        if stem == "suites.report":
            key = lambda args, kwargs: f"suites.report_s.{(args[0] if args else kwargs['chart']).name}"
        wrapper = self._wrap(original, layer, stem, kind, key)
        self._replace_everywhere(original, wrapper)

    # -- the wrapper ----------------------------------------------------------------

    def stat(self, key):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _wrap(self, fn, layer, stem, kind, keyed):
        # a stem that names a whole layer ("manifest") is counted once
        stats = (self.stat(stem),) if stem == layer else (self.stat(stem), self.stat(layer))
        frames = self._frames
        span_ids = self._span_ids
        clock = time.perf_counter
        tracer = self
        is_op = stem == "cli.op"
        distinct = stem in DISTINCT
        name = f"{layer}:{fn.__qualname__}"

        def wrapper(*args, **kwargs):
            if distinct:
                tracer._note_distinct(stem, fn, args, kwargs)
            if is_op:
                tracer._begin_op()
            frame = [0.0]
            frames.append(frame)
            span = None
            if kind == SPAN:
                span = len(tracer.spans)
                tracer.spans.append(None)
                span_ids.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                for stat in stats:
                    stat.raised += 1
                raise
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                frames[-1][0] += elapsed
                for stat in stats:
                    stat.calls += 1
                    stat.self_s += own
                if keyed is not None:
                    key = keyed if isinstance(keyed, str) else keyed(args, kwargs)
                    tracer.keyed[key] = tracer.keyed.get(key, 0.0) + elapsed
                if span is not None:
                    span_ids.pop()
                    tracer.spans[span] = (span, name, start, end, span_ids[-1], tracer._op)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- distinct-work bookkeeping, per CLI call ------------------------------------

    def _begin_op(self):
        self._op = 0 if self._op is None else self._op + 1
        self._seen.clear()
        self._keepalive.clear()

    def _note_distinct(self, stem, fn, args, kwargs):
        if stem == "brackets.solve":
            # the form by identity (kept alive for the call so that its id is
            # not reused), the operand by value
            self._keepalive.append(args[:1])
            key = (fn.__name__, tuple(map(id, args[:1])), _by_value(args[1:]), _by_value(kwargs))
        else:
            key = (_by_value(args), _by_value(kwargs))
        seen = self._seen.setdefault(stem, set())
        if key not in seen:
            seen.add(key)
            self.distinct[stem] = self.distinct.get(stem, 0) + 1

    # -- report ---------------------------------------------------------------------

    def metrics(self):
        """(values, absent): per-layer metric values with units, and names left out."""
        values, absent = {}, []
        for name, (unit, _better, stem, value) in METRICS.items():
            if stem is not None and stem not in self.present_stems:
                absent.append(name)
            else:
                values[name] = (value(self), unit)
        return values, absent

    def counters(self) -> dict:
        """Every call count the trace made, for exact-repeat checks."""
        out = {key: (s.calls, s.raised) for key, s in sorted(self.stats.items())}
        out.update((f"{stem}.distinct", n) for stem, n in sorted(self.distinct.items()))
        return out

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
