"""Seeded case lists, probes and correctness checks for the three workloads.

``specs`` and ``probe_specs`` are plain data made from the seed alone, so
the case list (and its hash) is fixed before the package is imported.
``materialize`` turns a spec into a :class:`Case`: the package receives
only these generated inputs, either as operator arguments or as config
files for the command line.

Workloads and why they were chosen:

* ``ops-wide``: ``apply_ialpha``/``apply_dalpha`` on wide windows.  The
  ``grid`` window sums do nearly all the work (O(W^2) at the seed), while
  ``expr`` and ``solver`` do none, so it is the bypass workload for
  expression or solver changes.
* ``solve-far``: CLI ``solve`` with N = 0 and continuation to frontiers
  100..400.  The window grows by one shell per step and each step makes one
  output, a different load on ``grid`` than ``ops-wide``; each step also
  rebuilds f(., u) on every solved shell, which loads ``expr``.
* ``verify-mix``: many small CLI ``solve``/``verify`` runs plus the two
  catalog configs.  Short windows, so expression evaluation, Picard and
  CLI overhead dominate; a faster shell-series engine moves it least.

The seed draws window values, tail models, rhs coefficients and initial
values, but no quantity that sets the amount of work (sizes, report
windows, the order of magnitude of f and hence the certified depth), so
runs with different seeds measure the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("ops-wide", "solve-far", "verify-mix")

#: relative tolerance of operator outputs against the oracles; the seed
#: code's worst observed error over 40 seeds of this case mix is 1.2e-11
ORACLE_RTOL = 1e-8
#: bound on every strict residual of a ``verify`` run; the seed code's worst
#: observed residual on this mix is 6.8e-12
VERIFY_BOUND = 1e-8
#: largest |log| of a scale factor the oracles may form and stay a normal float
_LOG_NORMAL = 700.0

OPS_WIDTHS = (100, 200, 400)
OPS_Q = (2, 3)
OPS_ALPHA = (0.5, 1.0, 1.7)
OPS_TAILS = ("zero", "constant", "power")
SOLVE_PAIRS = ((2, 0.5), (3, 1.0), (5, 0.7), (2, 1.7))
SOLVE_FRONTIERS = (100, 200, 400)
MIX_Q = (2, 3, 5)
MIX_ALPHA = (0.5, 1.0, 1.7)
MIX_WIDTHS = (4, 8, 16)
MIX_FAMILIES = {
    # name: (rhs template, M / c, F / c); every family decays like r^-2
    "tanh": ("{c!r}*tanh(x)*min(1, r^-2)", 1.0, 1.0),
    "sin": ("{c!r}*sin(x + {p!r})*min(1, r^-2)", 1.0, 1.0),
    "rational": ("{c!r}*x/(1 + x^2)*min(1, r^-2)", 0.5, 1.0),
}
CATALOG = (("solve", "catalog_solve.cfg", "golden_solve.csv"),
           ("verify", "catalog_verify.cfg", "golden_verify.csv"))


def alpha_q_set(workload):
    """The (alpha, q) pairs whose kernel constants set-up fills."""
    if workload == "ops-wide":
        pairs = {(a, q) for q in OPS_Q for a in OPS_ALPHA}
    elif workload == "solve-far":
        pairs = {(a, q) for q, a in SOLVE_PAIRS}
    else:
        pairs = {(a, q) for q in MIX_Q for a in MIX_ALPHA}
    return sorted(pairs | {(0.5, 2)})  # the catalog gate's pair


# -- specs ----------------------------------------------------------------

def _ops_specs(rng):
    out = []
    for W in OPS_WIDTHS:
        for q in OPS_Q:
            for a in OPS_ALPHA:
                for tail in OPS_TAILS:
                    for op in ("ialpha", "dalpha"):
                        k_min = -60 + rng.randint(-5, 5)
                        values = [rng.uniform(-1.0, 1.0) for _ in range(W)]
                        lower = upper = ["zero", 0.0, 0.0]
                        if tail == "constant":
                            lower = ["constant", rng.uniform(-1, 1), 0.0]
                            upper = ["constant", rng.uniform(-1, 1), 0.0]
                        elif tail == "power":
                            # decaying below (needs e > 0 with u(0) = 0) and
                            # exponent < alpha above, so both operators apply
                            lower = ["power_law", rng.uniform(-1, 1), rng.uniform(0.2, 0.9)]
                            upper = ["power_law", rng.uniform(-1, 1), rng.uniform(-0.5, 0.3)]
                        # oracle sample shells where its scale factors stay normal floats
                        lim = _LOG_NORMAL / ((max(a, 1.0) + 1.0) * math.log(q))
                        ok = [n for n in range(k_min, k_min + W) if abs(n) <= lim]
                        samples = sorted(rng.sample(ok, 4)) if tail == "zero" else []
                        out.append({"key": f"{op}-W{W}-q{q}-a{a}-{tail}", "kind": op,
                                    "size": W, "q": q, "alpha": a, "k_min": k_min,
                                    "values": values, "lower": lower, "upper": upper,
                                    "samples": samples})
    return out


def _solve_config(q, a, c, b, u0, k_min, k_max):
    return {"q": q, "alpha": a, "u0": u0, "rhs": f"{c!r}*tanh(x)*min(1, r^-{b!r})",
            "M": c, "F": c, "F_l": f"min({c!r}, {c!r}*q^(-{b!r}*l))", "N": 0,
            "k_min": k_min, "k_max": k_max, "tol": 1e-9, "max_iter": 200}


def _far_specs(rng):
    out = []
    for q, a in SOLVE_PAIRS:
        for K in SOLVE_FRONTIERS:
            cfg = _solve_config(q, a, 0.05 * rng.uniform(0.9, 1.1), rng.uniform(2.0, 3.0),
                                rng.uniform(0.5, 1.0), -2, K)
            out.append({"key": f"solve-q{q}-a{a}-K{K}", "kind": "cli", "size": K,
                        "command": "solve", "config": cfg})
    return out


def _mix_specs(rng):
    out = []
    for iq, q in enumerate(MIX_Q):
        for ia, a in enumerate(MIX_ALPHA):
            for jf, (fam, (tmpl, m, f)) in enumerate(MIX_FAMILIES.items()):
                for jn, N in enumerate((0, 2)):
                    for jc, cmd in enumerate(("solve", "verify")):
                        # widths are balanced over every other factor, so the
                        # width groups of the scaling fit have the same mix
                        width = MIX_WIDTHS[(iq + ia + jf + jn + jc) % 3]
                        c = 0.05 * rng.uniform(0.9, 1.1) * q ** (-a * N)
                        k_min = -1 - (iq + jf) % 3
                        rhs = tmpl.format(c=c, p=rng.uniform(0.0, 3.0))
                        cfg = {"q": q, "alpha": a, "u0": rng.uniform(0.5, 1.0),
                               "rhs": rhs, "M": c * m, "F": c * f,
                               "F_l": f"min({c * f!r}, {c * f!r}*q^(-2*l))",
                               "beta": 1.9, "N": N, "k_min": k_min,
                               "k_max": k_min + width - 1, "tol": 1e-9, "max_iter": 200}
                        out.append({"key": f"{cmd}-q{q}-a{a}-{fam}-N{N}", "kind": "cli",
                                    "size": width, "command": cmd, "config": cfg})
    return out + catalog_specs()


def catalog_specs():
    return [{"key": f"catalog-{cmd}", "kind": "cli", "size": None, "command": cmd,
             "config_file": cfg, "golden": golden} for cmd, cfg, golden in CATALOG]


def specs(workload, seed):
    """The workload's case list for ``seed``, in the order the passes run it."""
    rng = random.Random(f"{workload}:{seed}")
    build = {"ops-wide": _ops_specs, "solve-far": _far_specs, "verify-mix": _mix_specs}
    out = build[workload](rng)
    rng.shuffle(out)
    return out


def probe_specs(workload, seed):
    """Known failures (ROADMAP item 4), run once per run and kept out of the timings.

    A probe passes when the call ends in a correct result or in a typed
    error with a documented exit code; raw exceptions and silently wrong
    results fail it.
    """
    rng = random.Random(f"{workload}:{seed}:probes")
    picard = {"q": 2, "alpha": 0.5, "u0": 1.0, "rhs": "0.1*tanh(x)", "M": 0.1,
              "F": 0.1, "k_min": 0, "tol": 1e-9, "max_iter": 200}
    if workload == "ops-wide":
        return [
            # qpow(3, -(a+1)n) overflows at n = -400 although D^a u is representable
            {"key": "probe-apply-d-q3-overflow", "kind": "cli", "command": "apply-d",
             "config": {"q": 3, "alpha": 0.8, "rhs": "min(1, r)",
                        "k_min": -400, "k_max": 399}},
            # the same factor underflows near the top of a window anchored at
            # -60: outputs lose all accuracy with no error (checked against the
            # exact shift covariance of the operator)
            {"key": "probe-apply-d-q3-underflow", "kind": "shift", "q": 3, "alpha": 1.7,
             "k_min": -60, "shift": 150,
             "values": [rng.uniform(-1.0, 1.0) for _ in range(400)]},
        ]
    if workload == "solve-far":
        # the envelope diagnostic overflows after the solve has converged
        return [{"key": "probe-picard-N60-overflow", "kind": "cli", "command": "solve",
                 "config": dict(picard, N=60, k_max=60)}]
    # exits 0 with mild residuals near 1.4e-6, far above tol = 1e-9
    return [{"key": "probe-picard-N40-residual", "kind": "cli", "command": "solve",
             "config": dict(picard, N=40, k_max=40)}]


# -- materialized cases -----------------------------------------------------

class CheckFailed(Exception):
    """An output missed its correctness check."""

    def __init__(self, reason, kind="CheckFailed"):
        super().__init__(reason)
        self.kind = kind


@dataclass
class Case:
    key: str
    size: int | None
    run: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[object], None]


def _tail(pkg, spec):
    kind, c, e = spec
    T = pkg.grid.TailSpec
    return {"zero": T.zero, "constant": lambda: T.constant(c),
            "power_law": lambda: T.power_law(c, e)}[kind]()


def _radial(pkg, q, k_min, values, lower=("zero", 0.0, 0.0), upper=("zero", 0.0, 0.0)):
    grid = pkg.grid.RadialGrid(q, k_min, k_min + len(values) - 1)
    return pkg.grid.RadialFunction(grid, tuple(values), 0.0,
                                   _tail(pkg, lower), _tail(pkg, upper))


def _pack(values):
    return struct.pack(f"<{len(values)}d", *values)


def _finite_values(values):
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise CheckFailed(f"{len(bad)} non-finite output values", "NonFinite")


def _op_case(pkg, spec):
    u = _radial(pkg, spec["q"], spec["k_min"], spec["values"], spec["lower"], spec["upper"])
    a = spec["alpha"]
    if spec["kind"] == "ialpha":
        mod, op, oracle = pkg.fracint, "apply_ialpha", pkg.fracint.ialpha_oracle
    else:
        mod, op, oracle = pkg.vladimirov, "apply_dalpha", pkg.vladimirov.dalpha_oracle

    def check(out):
        _finite_values(out.values)
        for n in spec["samples"]:
            got, ref = out.values[n - out.grid.k_min], oracle(u, a, n)
            err = abs(got - ref) / max(abs(got), abs(ref), 1e-300)
            if err > ORACLE_RTOL:
                raise CheckFailed(f"shell {n}: {got!r} vs oracle {ref!r} "
                                  f"(relative error {err:.3g})", "OracleMismatch")

    # the operator is looked up at call time, so a traced binding is used
    return Case(spec["key"], spec["size"], lambda: getattr(mod, op)(u, a),
                lambda out: _pack(out.values), check)


def _shift_case(pkg, spec):
    """D^a commutes with dilation: (D^a u)(q^n) = q^(-a s) (D^a u(q^s .))(q^(n-s))."""
    q, a, k_min, s, values = spec["q"], spec["alpha"], spec["k_min"], spec["shift"], spec["values"]
    u = _radial(pkg, q, k_min, values)
    dilated = _radial(pkg, q, k_min - s, values)

    def run():
        return (pkg.vladimirov.apply_dalpha(u, a),
                pkg.vladimirov.apply_dalpha(dilated, a))

    def check(out):
        direct, shifted = out
        _finite_values(direct.values)
        for i in range(len(values)):
            got = direct.values[i]
            ref = pkg.grid.qpow(q, -a * s) * shifted.values[i]
            if abs(got - ref) > ORACLE_RTOL * max(abs(got), abs(ref), 1e-300):
                raise CheckFailed(f"shell {k_min + i}: {got!r} vs shift reference "
                                  f"{ref!r}", "AccuracyLoss")

    return Case(spec["key"], None, run, lambda out: _pack(out[0].values), check)


def _config_text(cfg):
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in cfg.items())


def _csv_check(spec, csv_bytes):
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    cfg = spec.get("config")
    if cfg and spec["command"] in ("solve", "verify"):
        want = cfg["k_max"] - cfg["k_min"] + 1
        if len(rows) != want:
            raise CheckFailed(f"{len(rows)} rows, expected {want}")
    for row in rows:
        for col, text in row.items():
            if col != "k" and not math.isfinite(float(text)):
                raise CheckFailed(f"non-finite {col} at k = {row['k']}", "NonFinite")
        if spec["command"] == "solve" and cfg is not None:
            if float(row["mild_residual"]) > cfg["tol"]:
                raise CheckFailed(f"mild residual {row['mild_residual']} above tol "
                                  f"{cfg['tol']} at k = {row['k']}", "ResidualAboveTol")
        if spec["command"] == "verify":
            if float(row["strict_residual"]) > VERIFY_BOUND:
                raise CheckFailed(f"strict residual {row['strict_residual']} above "
                                  f"{VERIFY_BOUND} at k = {row['k']}", "ResidualAboveBound")


def _cli_case(pkg, spec, workdir: Path, data: Path):
    if "config_file" in spec:
        cfg_path = data / spec["config_file"]
        golden = (data / spec["golden"]).read_bytes()
    else:
        cfg_path = workdir / f"{spec['key']}.cfg"
        cfg_path.write_text(_config_text(spec["config"]), encoding="utf-8")
        golden = None
    out_path = workdir / f"{spec['key']}.csv"
    argv = [spec["command"], "--config", str(cfg_path), "--out", str(out_path)]

    def run():
        if out_path.exists():
            out_path.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = pkg.cli.main(argv)
        return rc, err.getvalue()

    def output(res):
        rc, _ = res
        body = out_path.read_bytes() if rc == 0 else b""
        return b"%d\n" % rc + body

    def check(res):
        rc, err = res
        if rc != 0:
            head = err.strip().split("]", 1)[0]
            kind = head[len("error["):] if head.startswith("error[") else f"exit{rc}"
            raise CheckFailed(f"exit {rc}: {err.strip()}", kind)
        body = out_path.read_bytes()
        if golden is not None and body != golden:
            raise CheckFailed(f"output differs from {spec['golden']}", "GoldenMismatch")
        _csv_check(spec, body)

    return Case(spec["key"], spec.get("size"), run, output, check)


def materialize(pkg, spec, workdir: Path, data: Path) -> Case:
    if spec["kind"] == "cli":
        return _cli_case(pkg, spec, workdir, data)
    if spec["kind"] == "shift":
        return _shift_case(pkg, spec)
    return _op_case(pkg, spec)


#: exit codes the command line documents for typed errors
DOCUMENTED_EXITS = range(2, 11)


def run_probe(pkg, case: Case):
    """Run a probe once; return None when it passes, else the failure kind."""
    try:
        res = case.run()
    except pkg.errors.UltrafracError:
        return None
    except Exception as exc:  # a raw exception is the failure being probed
        return type(exc).__name__
    if isinstance(res, tuple) and isinstance(res[0], int) and res[0] in DOCUMENTED_EXITS:
        return None
    try:
        case.check(res)
    except CheckFailed as exc:
        return exc.kind
    return None
