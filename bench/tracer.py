"""Outside-in span tracing for the ultrafrac layers.

The package is not modified: :class:`Tracer` replaces the public functions
at every module binding that calls them with wrappers that record a span
(name, start, end, parent span, top-level call id) and a few work counters
computed from the arguments or the result.  Spans are kept in flat arrays
in memory and written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
child spans.  ``qpow`` is deliberately not wrapped: it runs millions of
times per pass and a span per call would swamp the measurement.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, function name, modules whose binding is replaced).  A binding
# a later refactor removes is skipped, so the tracer keeps working.
BINDINGS = (
    ("grid.weighted_tail_sum", "weighted_tail_sum",
     ("grid", "fracint", "vladimirov", "solver")),
    ("fracint.apply_ialpha", "apply_ialpha", ("fracint", "solver", "cli")),
    ("vladimirov.apply_dalpha", "apply_dalpha", ("vladimirov", "solver", "cli")),
    ("fracint.bound_constant", "bound_constant", ("fracint", "solver")),
    ("solver.picard_solve", "picard_solve", ("solver", "cli")),
    ("solver.continue_solution", "continue_solution", ("solver", "cli")),
    ("solver.mild_residuals", "mild_residuals", ("solver", "cli")),
    ("solver.verify_strict", "verify_strict", ("solver", "cli")),
    ("expr.parse", "parse_expression", ("solver", "cli")),
    ("cli.main", "main", ("cli",)),
    ("cli.load_config", "load_config", ("cli",)),
)
EVAL_SPAN = "expr.eval"
_HORIZON = re.compile(r"(?:shell|frontier) (-?\d+)")


def window_terms(f, w, side, k0, index_power=0):
    """Explicit (non closed-form) terms one weighted_tail_sum call adds up."""
    lo, hi = f.grid.k_min, f.grid.k_max
    if side == "lower":
        return max(0, min(k0, hi) - lo + 1) + max(0, k0 - hi)
    return max(0, lo - k0) + max(0, hi - max(k0, lo) + 1)


class Tracer:
    """Span recorder; :meth:`install` swaps the bindings, :meth:`remove` restores them."""

    def __init__(self, package):
        self.pkg = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.call_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before``/``after`` update counters."""
        nid = self._nid(name)
        name_id, parent, call, start, end = (
            self.name_id, self.parent, self.call, self.start, self.end)
        stack = self.stack

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            call.append(self.call_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            if before is not None:
                before(args, kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def root(self, call_id, fn, *args):
        """Run one top-level benchmark call under a root span."""
        self.call_id = call_id
        return self.wrap("bench.call", fn)(*args)

    # -- counters ----------------------------------------------------------

    def _hooks(self, span):
        c = self.counts
        if span == "grid.weighted_tail_sum":
            def before(args, kwargs):
                c[span + ".terms"] += window_terms(*args, **kwargs)
            return before, None
        if span in ("fracint.apply_ialpha", "vladimirov.apply_dalpha"):
            def after(args, kwargs, out):
                c[span + ".shells"] += out.grid.size
            return None, after
        if span == "solver.picard_solve":
            def after(args, kwargs, sol):
                c[span + ".iterations"] += sol.picard_iterations
                c["solver.solved_shells"] += sol.grid.size
            return None, after
        if span == "solver.continue_solution":
            def after(args, kwargs, sol):
                old = args[0].frontier
                new = range(old + 1, sol.frontier + 1)
                c[span + ".shells"] += len(new)
                c[span + ".fp_iterations"] += sum(sol.fp_iterations[k] for k in new)
                c["solver.solved_shells"] += len(new)
            return None, after
        if span == "solver.verify_strict":
            def after(args, kwargs, report):
                for entry in report.checks:
                    if entry.name == "evaluation horizon":
                        m = _HORIZON.search(entry.detail)
                        if m:
                            c[span + ".horizon_shells"] += int(m.group(1)) - report.window[1]
            return None, after
        return None, None

    # -- bindings ----------------------------------------------------------

    def install(self):
        for span, attr, modules in BINDINGS:
            mods = [getattr(self.pkg, m) for m in modules if hasattr(getattr(self.pkg, m), attr)]
            if not mods:
                continue
            wrapped = self.wrap(span, getattr(mods[0], attr), *self._hooks(span))
            for mod in mods:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        for m in ("solver", "cli"):
            mod = getattr(self.pkg, m)
            if hasattr(mod, "make_callable"):
                self._saved.append((mod, "make_callable", mod.make_callable))
                mod.make_callable = self._traced_make_callable(mod.make_callable)

    def _traced_make_callable(self, make_callable):
        def traced_make_callable(*args, **kwargs):
            return self.wrap(EVAL_SPAN, make_callable(*args, **kwargs))
        return traced_make_callable

    def remove(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-name span counts and self times, plus the work counters."""
        start, end, parent = self.start, self.end, self.parent
        child = array("d", [0.0]) * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        out = dict(self.counts)
        for name in calls:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        return out

    def snapshot(self):
        return (self.name_id[:], self.parent[:], self.call[:], self.start[:], self.end[:])

    def clear(self):
        for arr in (self.name_id, self.parent, self.call, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def write(self, path, snapshots):
        """Write spans as CSV: id, name, parent id, call id, start, end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,call,start_s,end_s\n")
            base = 0
            for name_id, parent, call, start, end in snapshots:
                for i in range(len(start)):
                    p = parent[i] + base if parent[i] >= 0 else -1
                    fh.write(f"{base + i},{self.names[name_id[i]]},{p},{call[i]},"
                             f"{start[i]!r},{end[i]!r}\n")
                base += len(start)
