#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ultrafrac.

Usage, from the repository root:

    python3 bench/run.py --workload {ops-wide,solve-far,verify-mix}
                         --seed N --seconds S --trace {0,1}

One process, one thread, a closed loop with one caller: each top-level call
(an operator call or one CLI run) starts when the previous one has ended.
The seeded case list is run in whole passes until ``--seconds`` are used.
Every call's output is checked (oracles, goldens, residual bounds; repeats
must reproduce the first output bit for bit), outside the timed region.
The workload's probes of known failures run once, untimed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, checks that both produce identical outputs,
and prints the per-layer metrics of one set-up, the golden gate and one
pass of the case list (self times averaged over the traced passes).  Spans
are written to ``.bench_out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``).  A fixed pure-Python reference loop
runs between the timed calls and set-ups, and every timed wall time is
scaled to the speed at which that loop takes ``REF_NOMINAL_S``, taking the
host's speed from the loop runs around the call (see ``HostSpeed``): the
shared host runs the same code up to 2x slower for seconds or minutes at a
time, and the scaled time follows the program, not the host.  The log
prints the unscaled figures too.  A case's time is the median of its
scaled call times over the run's passes.

* ``setup_s``: import of the package plus filling the kernel-constant
  caches for the workload's (alpha, q) set; median of the set-ups timed
  before each pass.
* ``call_p50_ms``: median over cases of the case time.
* ``call_tail_ms``: the highest percentile of all scaled call times that
  has at least 10 calls beyond it (printed with its percentile and count).
* ``calls_per_s``: cases / sum of case times.
* ``failed_frac``: cases and probes that failed at least once, over all
  cases and probes (the golden gate counts as cases).
* ``scaling_slope``: least-squares slope of log case time against log
  size over all cases (window width W, frontier K, or report-window width
  on ``verify-mix``).
* ``peak_rss_mb``: peak resident memory of this process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = ROOT / ".bench_out"
TAIL_BEYOND = 10
#: terms of the reference loop, and the time its run is defined to take
REF_TERMS = 2000
REF_NOMINAL_S = 2e-3
#: least share of a measured interval spent on reference loops right after it
REF_SHARE = 0.1
#: set-ups timed before each pass
SETUPS_PER_PASS = 3

PER_LAYER = (
    ("grid.weighted_tail_sum.calls", "count"),
    ("grid.weighted_tail_sum.terms", "count"),
    ("grid.weighted_tail_sum.self_s", "s"),
    ("grid.terms_per_output_shell", "ratio"),
    ("vladimirov.apply_dalpha.calls", "count"),
    ("vladimirov.apply_dalpha.shells", "count"),
    ("vladimirov.apply_dalpha.self_s", "s"),
    ("fracint.apply_ialpha.calls", "count"),
    ("fracint.apply_ialpha.shells", "count"),
    ("fracint.apply_ialpha.self_s", "s"),
    ("fracint.bound_constant.self_s", "s"),
    ("solver.picard_solve.self_s", "s"),
    ("solver.picard_solve.iterations", "count"),
    ("solver.continue_solution.self_s", "s"),
    ("solver.continue_solution.shells", "count"),
    ("solver.continue_solution.fp_iterations", "count"),
    ("solver.mild_residuals.self_s", "s"),
    ("solver.verify_strict.self_s", "s"),
    ("solver.verify_strict.horizon_shells", "count"),
    ("expr.eval.calls", "count"),
    ("expr.eval.self_s", "s"),
    ("expr.parse.self_s", "s"),
    ("expr.evals_per_solved_shell", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def _package_modules():
    return {m: mod for m, mod in sys.modules.items()
            if m == "ultrafrac" or m.startswith("ultrafrac.")}


def import_fresh():
    """Import the package as a new process would, with empty caches."""
    for name in _package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("ultrafrac")
    importlib.import_module("ultrafrac.cli")
    return pkg


def fill_caches(pkg, workload):
    for a, q in workloads.alpha_q_set(workload):
        pkg.fracint.bound_constant(a, pkg.grid.RadialGrid(q, 0, 0))


class _Compensated:
    """Kahan accumulator, for the reference loop."""

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _power(q, x):
    return math.exp(x * math.log(q))


_REF_VALUES = [float(k % 7) - 3.0 for k in range(REF_TERMS)]


def reference_time():
    """Wall time of a fixed pure-Python loop that uses no package code.

    The host is shared: its speed for the same code swings by up to 2x,
    in phases from milliseconds to minutes.  Timing this loop next to every
    measured call and set-up tracks those swings, so that a time can be
    given at a fixed reference speed as well as measured.  The loop has two
    halves, each the yardstick that best followed one kind of call on a
    shared 2-vCPU host: a float loop on locals (CLI solves), and compensated
    sums of q**x terms through calls and attribute access (operator calls).
    """
    t0 = perf_counter()
    s = c = 0.0
    step = -1e-3 * math.log(3.0)
    for k in range(2 * REF_TERMS):
        y = math.exp(step * k) * (k % 7) - c
        t = s + y
        c = (t - s) - y
        s = t
    acc = _Compensated()
    for k, v in enumerate(_REF_VALUES):
        acc.add(_power(3.0, -1e-3 * k) * v)
    return perf_counter() - t0


class HostSpeed:
    """Reference-loop timings taken between measured intervals."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, dt):
        """Run the reference loop at least once, and for REF_SHARE of ``dt``."""
        spent = 0.0
        while not spent or spent < REF_SHARE * dt:
            self.starts.append(perf_counter())
            self.times.append(reference_time())
            spent += self.times[-1]

    def scaled(self, t0, dt):
        """The interval ``[t0, t0 + dt]`` at the speed where the loop takes REF_NOMINAL_S.

        The host's speed is the mean loop time over ``[t0 - dt, t0 + 2 dt]``,
        and at least the runs right before and after the interval: a long
        call outlasts the host's phases (its speed correlates with itself
        over tens of milliseconds only), a short one does not.
        """
        i = bisect_left(self.starts, t0)
        lo = min(bisect_left(self.starts, t0 - dt), i - 1)
        hi = max(bisect_right(self.starts, t0 + 2.0 * dt), i + 1)
        return dt * REF_NOMINAL_S / statistics.fmean(self.times[lo:hi])


def setup_time(workload):
    """Time one more set-up at the reference speed, then put back the package in use.

    Set-ups are timed before every pass, so that the median spans the run.
    """
    in_use = _package_modules()
    speed = HostSpeed()
    speed.sample(0.0)
    t0 = perf_counter()
    fill_caches(import_fresh(), workload)
    dt = perf_counter() - t0
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    speed.sample(dt)
    return speed.scaled(t0, dt)


class Ledger:
    """Call outcomes: timings, first-output digests and failures per case."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_cases: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.raw: dict[str, list[float]] = {}
        self.times: dict[str, list[float]] = {}  # at the reference speed
        self.sizes: dict[str, int | None] = {}

    def call(self, case, tracer=None, call_id=0):
        """Run and check one call; return its wall time, or None if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            res = case.run() if tracer is None else tracer.root(call_id, case.run)
        except Exception as exc:  # any raise is a failed call
            self._fail(case, type(exc).__name__, str(exc))
            return None
        dt = perf_counter() - t0
        digest = hashlib.sha256(case.output(res)).hexdigest()
        first = self.digests.get(case.key)
        if first is None:
            self.digests[case.key] = digest
            try:
                case.check(res)
            except workloads.CheckFailed as exc:
                self._fail(case, exc.kind, str(exc))
        elif first != digest:
            self._fail(case, "TraceMismatch" if tracer else "Nondeterministic",
                       "output differs from the first run of this case")
        return dt

    def record(self, case, dt, scaled):
        self.raw.setdefault(case.key, []).append(dt)
        self.times.setdefault(case.key, []).append(scaled)
        self.sizes[case.key] = case.size

    def _fail(self, case, kind, detail):
        self.failed += 1
        if case.key not in self.failed_cases:
            self.failed_cases[case.key] = kind
            print(f"FAILED {case.key}: {kind}: {detail}", file=sys.stderr)


def run_pass(ledger, cases, tracer=None):
    """Run every case once; return the time of its calls at the reference speed.

    Reference loops run between the calls, and each call is recorded both
    as measured and at the reference speed.
    """
    speed = HostSpeed()
    speed.sample(0.0)
    calls = []
    for i, case in enumerate(cases):
        t0 = perf_counter()
        dt = ledger.call(case, tracer, i)
        speed.sample(dt or 0.0)
        if dt is not None:
            calls.append((case, t0, dt))
    total = 0.0
    for case, t0, dt in calls:
        scaled = speed.scaled(t0, dt)
        ledger.record(case, dt, scaled)
        total += scaled
    return total


def slope(points):
    """Least-squares slope of log(time) against log(size) over all cases.

    Every workload balances its other factors across sizes, so this is the
    slope of the geometric-mean case time; a median per size would sit on
    the gap between two clusters (solve and verify, say) and jump.
    """
    pts = [(math.log(size), math.log(t)) for size, t in points if size is not None]
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(ledger, setup_times, n_cases, probe_failures):
    """The end-to-end metrics, defined in the module docstring."""
    case_time = {key: statistics.median(ts) for key, ts in ledger.times.items()}
    measured = {key: statistics.median(ts) for key, ts in ledger.raw.items()}
    times = sorted(dt for ts in ledger.times.values() for dt in ts)
    n = len(times)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1  # too few calls: the maximum
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    print(f"call_tail_ms is the p{pct:.2f} call time of {n} calls "
          f"({n - 1 - k} calls beyond it)")
    print(f"as measured: call_p50_ms {1e3 * statistics.median(measured.values()):.4f}, "
          f"calls_per_s {len(measured) / sum(measured.values()):.4f}")
    for key in sorted(case_time):
        if key.startswith("catalog-"):
            print(f"{key}: {1e3 * case_time[key]:.3f} ms at the reference speed, "
                  f"{1e3 * measured[key]:.3f} ms as measured, median of "
                  f"{len(ledger.times[key])} calls")
    failed = len(ledger.failed_cases) + len(probe_failures)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "call_p50_ms": (1e3 * statistics.median(case_time.values()), "ms"),
        "call_tail_ms": (1e3 * times[k], "ms"),
        "calls_per_s": (len(case_time) / sum(case_time.values()), "1/s"),
        "failed_frac": (failed / n_cases, "frac"),
        "scaling_slope": (slope((ledger.sizes[key], t) for key, t in case_time.items()),
                          "log/log"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(once, passes, overhead):
    keys = set(once).union(*passes)
    m = {k: once.get(k, 0.0) + statistics.fmean(p.get(k, 0.0) for p in passes)
         for k in keys}

    def ratio(a, b):
        return a / b if b else 0.0

    out_shells = (m.get("fracint.apply_ialpha.shells", 0.0)
                  + m.get("vladimirov.apply_dalpha.shells", 0.0)
                  + m.get("solver.continue_solution.shells", 0.0))
    m["grid.terms_per_output_shell"] = ratio(m.get("grid.weighted_tail_sum.terms", 0.0),
                                             out_shells)
    m["expr.evals_per_solved_shell"] = ratio(m.get("expr.eval.calls", 0.0),
                                             m.get("solver.solved_shells", 0.0))
    m["trace.overhead_frac"] = overhead
    return {name: (m.get(name, 0.0), unit) for name, unit in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "ultrafrac" / "__init__.py",
                           *(DATA / g for _, _, g in workloads.CATALOG)) if not p.is_file()]
    if missing:
        print(f"error: {missing[0]} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec_list = workloads.specs(args.workload, args.seed)
    probe_list = workloads.probe_specs(args.workload, args.seed)
    blob = json.dumps([spec_list, probe_list], sort_keys=True).encode()
    print(f"case_list_sha256 {hashlib.sha256(blob).hexdigest()} "
          f"({len(spec_list)} cases, {len(probe_list)} probes)")

    pkg = import_fresh()
    tracer = Tracer(pkg) if args.trace else None
    if tracer:
        tracer.install()
    fill_caches(pkg, args.workload)
    setup_times = []

    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cases = [workloads.materialize(pkg, s, work, DATA) for s in spec_list]
        gate = [] if args.workload == "verify-mix" else [
            workloads.materialize(pkg, s, work, DATA) for s in workloads.catalog_specs()]
        ledger = Ledger()
        for case in gate:
            ledger.call(case, tracer, -1)
        snapshots = []
        once = {}
        if tracer:
            once = tracer.summary()
            snapshots.append(tracer.snapshot())
            tracer.clear()
            tracer.remove()

        probe_failures = {}
        for s in probe_list:
            t0 = perf_counter()
            kind = workloads.run_probe(pkg, workloads.materialize(pkg, s, work, DATA))
            print(f"probe {s['key']}: {'FAIL ' + kind if kind else 'pass'} "
                  f"({perf_counter() - t0:.3f} s)")
            if kind:
                probe_failures[s["key"]] = kind

        deadline = perf_counter() + args.seconds
        last = 0.0
        plain, traced, pass_stats = [], [], []
        while not plain or perf_counter() + last <= deadline:
            t0 = perf_counter()
            if not tracer:
                setup_times += [setup_time(args.workload) for _ in range(SETUPS_PER_PASS)]
            plain.append(run_pass(ledger, cases))
            if tracer:
                tracer.install()
                traced.append(run_pass(ledger, cases, tracer))
                tracer.remove()
                pass_stats.append(tracer.summary())
                if len(snapshots) < 2:
                    snapshots.append(tracer.snapshot())
                tracer.clear()
            last = perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(plain)} untraced and {len(traced)} traced passes of {len(cases)} cases")
    tally = Counter([*ledger.failed_cases.values(), *probe_failures.values()])
    print(f"failures by type: {json.dumps(tally, sort_keys=True)}")

    if tracer:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = per_layer(once, pass_stats, overhead)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(path, snapshots)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        n_cases = len(cases) + len(gate) + len(probe_list)
        metrics = end_to_end(ledger, setup_times, n_cases, probe_failures)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
