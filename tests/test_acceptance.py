"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, nothing is calibrated
at runtime.
"""

from __future__ import annotations

import random
import time
from decimal import Decimal
from pathlib import Path

from ultrafrac import (
    RadialFunction,
    RadialGrid,
    RhsSpec,
    TailSpec,
    apply_dalpha,
    apply_ialpha,
    bound_constant,
    continue_solution,
    dalpha_oracle,
    ialpha_oracle,
    kernel_constant,
    mild_residuals,
    picard_solve,
    qpow,
    verify_strict,
)
from ultrafrac.cli import main as cli_main
import reference
from helpers import (
    catalog_rhs,
    constant_function,
    derivative_of_integral,
    integral_of_derivative,
    picard_rates_hold,
    picard_restart,
    random_compact,
    two_exponent_family,
)

DATA = Path(__file__).parent / "data"
QS = (2, 3, 5)
ALPHAS = (0.3, 0.5, 1.0, 1.7, 2.5)

EPS = 2.220446049250313e-16


def _criterion(number: int, name: str, ok: bool, elapsed: float,
               limit: float, detail: str) -> None:
    line = (f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): "
            f"{detail} [{elapsed:.2f}s / limit {limit:.0f}s]")
    print(line, flush=True)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_annihilation():
    t0 = time.time()
    worst = 0.0
    for q in QS:
        one = constant_function(q, 1.0)
        for alpha in ALPHAS:
            out = apply_ialpha(one, alpha, (-20, 20))
            for n, v in zip(range(-20, 21), out.values):
                worst = max(worst, abs(v) / qpow(q, alpha * n))
    _criterion(1, "annihilation identity", worst <= 1e-12, time.time() - t0,
               1.0, f"max |I 1| / q^(a n) = {worst:.3e} <= 1e-12")


def test_criterion_2_right_inverse():
    t0 = time.time()
    worst = 0.0
    for q in QS:
        for alpha in ALPHAS:
            rnd = random.Random(10_000 + 100 * q + int(10 * alpha))
            for _ in range(50):
                v = random_compact(rnd, q, max_width=12)
                out = derivative_of_integral(v, alpha)
                scale = 1.0 + max(abs(x) for x in v.values)
                err = max(abs(a - b) for a, b in zip(out.values, v.values)) / scale
                worst = max(worst, err)
    _criterion(2, "right inverse", worst <= 1e-9, time.time() - t0,
               10.0, f"max scaled error over 50 x {len(QS) * len(ALPHAS)} "
                     f"cases = {worst:.3e} <= 1e-9")


def test_criterion_3_left_inverse():
    t0 = time.time()
    worst = 0.0
    worst_hard = 0.0
    worst_shift = 0.0
    for q in QS:
        for alpha in ALPHAS:
            # reconstructing u at shell +12 needs the weighted partial sums
            # of the derivative to cancel to q^(-(a-1) 12) relative, so the
            # achievable accuracy degrades by that conditioning factor
            amplification = qpow(q, max(0.0, alpha - 1.0) * 12)
            feasible = 1e3 * EPS * amplification <= 1e-8
            for dd in (0.3, 0.8):
                for hh in (0.0, 0.45):
                    d = max(0.0, alpha - 1.0) + dd
                    h = hh * ((alpha - 1.0) if alpha > 1.0 else alpha)
                    u = two_exponent_family(q, d, h)
                    out = integral_of_derivative(u, alpha, (-12, 12))
                    err = max(abs(g - u.eval(n)) / abs(u.eval(n))
                              for n, g in zip(range(-12, 13), out.values))
                    if feasible:
                        worst = max(worst, err)
                    else:
                        worst_hard = max(worst_hard, err / (1e3 * EPS * amplification))
            # constant-shift variant: v = v0 + u, the stored zero value carries the
            # constant and is split off exactly before differentiating
            d = max(0.0, alpha - 1.0) + 0.4
            h = 0.3 * ((alpha - 1.0) if alpha > 1.0 else alpha)
            u = two_exponent_family(q, d, h)
            v0 = 2.5
            v = RadialFunction(u.grid, tuple(x + v0 for x in u.values), v0,
                               TailSpec.constant(v0), TailSpec.constant(v0))
            g = RadialFunction(v.grid, tuple(x - v0 for x in v.values), 0.0,
                               TailSpec.constant(v.lower_tail.c - v0),
                               TailSpec.constant(v.upper_tail.c - v0))
            out = integral_of_derivative(g, alpha, (-12, 12))
            if feasible:
                err = max(abs(gv - (v.eval(n) - v0)) / abs(v.eval(n) - v0)
                          for n, gv in zip(range(-12, 13), out.values))
                worst_shift = max(worst_shift, err)
    ok = worst <= 1e-8 and worst_shift <= 1e-8 and worst_hard <= 1.0
    _criterion(3, "left inverse", ok, time.time() - t0, 10.0,
               f"max relative error {worst:.3e} <= 1e-8 (constant shift "
               f"{worst_shift:.3e}; ill-conditioned pairs within "
               f"{worst_hard:.3f} of the float64 conditioning bound)")


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    worst_d = 0.0
    worst_i = 0.0
    cases = 0
    for q in QS:
        for alpha in (0.5, 1.0, 1.7):
            rnd = random.Random(40_000 + 100 * q + int(10 * alpha))
            for _ in range(12):
                u = random_compact(rnd, q, max_width=12)
                cases += 1
                a, b = u.grid.k_min, u.grid.k_max
                series_d = apply_dalpha(u, alpha, (a - 5, b + 5))
                series_i = apply_ialpha(u, alpha, (a - 5, b + 5))
                for n in range(a - 5, b + 6):
                    od = dalpha_oracle(u, alpha, n)
                    oi = ialpha_oracle(u, alpha, n)
                    worst_d = max(worst_d, abs(series_d.eval(n) - od) / (1 + abs(od)))
                    worst_i = max(worst_i, abs(series_i.eval(n) - oi) / (1 + abs(oi)))
    ok = worst_d <= 1e-10 and worst_i <= 1e-10 and cases >= 100
    _criterion(4, "oracle equivalence", ok, time.time() - t0, 30.0,
               f"{cases} cases per operator: derivative {worst_d:.3e}, "
               f"integral {worst_i:.3e} <= 1e-10")


def test_criterion_5_kernel_constants():
    # homogeneity: d q^(a(m+1)n) against the decimal reference's moment
    # summed at shells n = 4 and 5 themselves
    t0 = time.time()
    worst_ratio = 0.0
    decay_ok = True
    for q in QS:
        grid = RadialGrid(q, 0, 0)
        for alpha in ALPHAS:
            scaled = []
            for m in range(41):
                d = kernel_constant(alpha, m, grid)
                scaled.append(d * qpow(q, alpha * m))
                for n in (4, 5):
                    moment = reference.kernel_moment(alpha, m, q, n)
                    ratio = reference.power(q, alpha, (m + 1) * n) * Decimal(d) / moment
                    worst_ratio = max(worst_ratio, float(abs(ratio - 1)))
            if any(v > 1.1 * max(scaled[:6]) for v in scaled):
                decay_ok = False
    ok = worst_ratio <= 1e-10 and decay_ok
    _criterion(5, "kernel constants", ok, time.time() - t0, 1.0,
               f"homogeneity ratio error {worst_ratio:.3e} <= 1e-10; "
               f"d q^(a m) within 1.1 x early maximum for all m <= 40")


def _catalog_frontier(rhs, q, alpha, target=0.5):
    C = bound_constant(alpha, RadialGrid(q, 0, 0))
    N = 0
    while C * rhs.F * qpow(q, alpha * (N + 1)) <= target:
        N += 1
    while C * rhs.F * qpow(q, alpha * N) > target:
        N -= 1
    return N


def test_criterion_6_picard_convergence():
    t0 = time.time()
    q, alpha, u0 = 2, 0.5, 1.0
    rhs = catalog_rhs(q, alpha)
    N = _catalog_frontier(rhs, q, alpha)
    sol = picard_solve(rhs, u0, alpha, q, N, tol=1e-12, max_iter=60)
    rho = sol.predicted_rho
    first_ok, ratios_ok = picard_rates_hold(sol)
    restart_gap = max(abs(a - b) for a, b in zip(sol.values, picard_restart(sol, 1.0)))
    ok = (rho <= 0.5 and sol.picard_iterations <= 60
          and sol.picard_history[-1] <= 1e-12 and first_ok and ratios_ok
          and restart_gap <= 1e-10)
    _criterion(6, "Picard convergence", ok, time.time() - t0, 5.0,
               f"rho = {rho:.3f} <= 1/2, {sol.picard_iterations} iterations, "
               f"first difference within C M q^(a N), ratios within rho, "
               f"restart gap {restart_gap:.2e} <= 1e-10")


def test_criterion_7_continuation():
    t0 = time.time()
    q, alpha, u0 = 2, 0.5, 1.0
    rhs = catalog_rhs(q, alpha)
    N = _catalog_frontier(rhs, q, alpha)
    sol = picard_solve(rhs, u0, alpha, q, N, tol=1e-12, max_iter=60)
    ext = continue_solution(sol, 8, tol=1e-12, max_iter=60)
    factors = max(ext.contraction_factors.values())
    mild = mild_residuals(ext).max_residual
    c = 0.07
    rhs_c = RhsSpec(lambda r, x: c, M=c, F=1e-12)
    sol_c = picard_solve(rhs_c, u0, alpha, q, N, tol=1e-13, max_iter=5)
    ext_c = continue_solution(sol_c, 8, tol=1e-14, max_iter=30)
    const_gap = max(abs(v - u0) for v in ext_c.values)
    ok = (ext.frontier == 8 and factors <= 0.5 and mild <= 1e-9
          and const_gap <= 1e-12)
    _criterion(7, "continuation", ok, time.time() - t0, 5.0,
               f"factors <= {factors:.3f}, mild residual {mild:.2e} <= 1e-9, "
               f"constant-rhs gap {const_gap:.2e} <= 1e-12")


def test_criterion_8_strict_solution():
    t0 = time.time()
    q, alpha, u0 = 2, 0.5, 1.0
    rhs = catalog_rhs(q, alpha)          # beta = alpha + 1
    N = _catalog_frontier(rhs, q, alpha)
    sol = picard_solve(rhs, u0, alpha, q, N, k_min=-16, tol=1e-12, max_iter=60)
    sol = continue_solution(sol, 14, tol=1e-13, max_iter=60)
    report = verify_strict(sol, (-6, 4))
    residual_ok = report.max_residual <= 1e-8 * (1.0 + rhs.M)
    c = 0.07
    # a constant f does not decay: the declared beta is false, the declared
    # checks pass on the finite window, and the residual exposes it
    rhs_c = RhsSpec(lambda r, x: c, M=c, F=1e-12, beta=alpha + 1.0)
    sol_c = picard_solve(rhs_c, u0, alpha, q, N, k_min=-16, tol=1e-13, max_iter=5)
    sol_c = continue_solution(sol_c, 14, tol=1e-14, max_iter=30)
    counter = verify_strict(sol_c, (-6, 4))
    counter_ok = counter.ok and all(abs(r - c) <= 1e-10 for _, r in counter.residuals)
    ok = residual_ok and report.ok and counter_ok
    _criterion(8, "strict solution", ok, time.time() - t0, 10.0,
               f"max residual {report.max_residual:.3e} <= 1.1e-8; constant-rhs "
               f"counterexample with a false beta passes its declared checks "
               f"and reports |c| to 1e-10")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    cfg = str(DATA / "catalog_solve.cfg")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = cli_main(["solve", "--config", cfg, "--out", str(a)]) == 0
    ok &= cli_main(["solve", "--config", cfg, "--out", str(b)]) == 0
    ok &= a.read_bytes() == b.read_bytes()
    out = tmp_path / "golden_check.csv"
    ok &= cli_main(["solve", "--config", cfg, "--out", str(out)]) == 0
    ok &= out.read_bytes() == (DATA / "golden_solve.csv").read_bytes()
    ok &= cli_main(["verify", "--config", str(DATA / "catalog_verify.cfg"),
                    "--out", str(out)]) == 0
    ok &= out.read_bytes() == (DATA / "golden_verify.csv").read_bytes()
    malformed = ["", "(", ")", "sin(x", "1++2", "2^", "x y", "1.2.3",
                 "foo(x)", "min(1)", "max(1,2,3)", "pow(x 2)", "log()",
                 "*x", "x+", "sin", "0..5", "r $ x", "1e", "q(2)"]
    rejected = 0
    for i, bad in enumerate(malformed):
        path = tmp_path / f"bad{i}.cfg"
        path.write_text("q = 2\nalpha = 0.5\nu0 = 1\n"
                        f"rhs = {bad}\n"
                        "M = 0.1\nF = 0.1\nN = 0\nk_min = -2\nk_max = 2\n",
                        encoding="utf-8")
        rc = cli_main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        if rc != 0 and "Traceback" not in err and err.count("\n") == 1:
            rejected += 1
    ok &= rejected == len(malformed)
    _criterion(9, "CLI determinism", bool(ok), time.time() - t0, 2.0,
               f"byte-identical reruns, golden files match, "
               f"{rejected}/20 malformed inputs rejected cleanly")
