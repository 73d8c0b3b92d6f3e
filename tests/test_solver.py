"""Picard iteration, shell continuation, strict verification, rhs checks."""

from __future__ import annotations

import math

import pytest

from ultrafrac import (
    ContractionFailure,
    FrontierTooLow,
    MarginTooSmall,
    MildSolution,
    MissingBeta,
    NoContraction,
    RadialFunction,
    RadialGrid,
    RhsSpec,
    ToleranceNotReached,
    bound_constant,
    check_rhs_conditions,
    continue_solution,
    mild_residuals,
    picard_solve,
    qpow,
    v0_constant,
    verify_strict,
)
from ultrafrac.solver import _far_decay_constant, _v0_split_checks
from helpers import bits, catalog_rhs, continue_by_rebuild, v0_split_checks_by_rescan

Q, ALPHA, U0 = 2, 0.5, 1.0


def pick_frontier(rhs, q=Q, alpha=ALPHA, target=0.5):
    """Largest N with C * F * q^(alpha N) <= target."""
    C = bound_constant(alpha, RadialGrid(q, 0, 0))
    N = 0
    while C * rhs.F * qpow(q, alpha * (N + 1)) <= target:
        N += 1
    while C * rhs.F * qpow(q, alpha * N) > target:
        N -= 1
    return N


@pytest.fixture(scope="module")
def catalog_solution():
    rhs = catalog_rhs(Q, ALPHA)
    N = pick_frontier(rhs)
    sol = picard_solve(rhs, U0, ALPHA, Q, N, tol=1e-12, max_iter=60)
    return rhs, sol


def test_zero_rhs_gives_constant_solution():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-12, max_iter=5)
    assert all(v == 1.0 for v in sol.values)
    assert sol.picard_iterations == 1


def test_state_independent_rhs_converges_in_one_iteration():
    # I^a annihilates constants, so u == u0 exactly for any constant f
    rhs = RhsSpec(lambda r, x: 0.37, M=0.37, F=1e-12)
    sol = picard_solve(rhs, 2.0, ALPHA, Q, 1, tol=1e-12, max_iter=5)
    assert sol.picard_iterations == 1
    assert max(abs(v - 2.0) for v in sol.values) <= 5e-15


def test_catalog_picard_converges_with_predicted_rate(catalog_solution):
    rhs, sol = catalog_solution
    assert sol.predicted_rho <= 0.5
    assert sol.picard_iterations <= 60
    assert sol.picard_history[-1] <= 1e-12
    assert sol.envelope_ok
    floor = 1e-13 * (abs(U0) + rhs.M)
    hist = sol.picard_history
    for a, b in zip(hist, hist[1:]):
        if b > floor:
            assert b <= sol.predicted_rho * (1.0 + 1e-6) * a


def test_catalog_fixed_point_property(catalog_solution):
    rhs, sol = catalog_solution
    assert max(mild_residuals(sol, rhs)) <= 2e-12


def test_uniqueness_under_restart(catalog_solution):
    rhs, sol = catalog_solution
    shifted = picard_solve(rhs, U0, ALPHA, Q, sol.picard_frontier,
                           tol=1e-12, max_iter=60, start_offset=1.0)
    assert max(abs(a - b) for a, b in zip(sol.values, shifted.values)) <= 1e-10


def test_solution_is_exactly_constant_inside_unit_ball(catalog_solution):
    # the catalog f does not depend on r for r <= 1, and the integral ignores
    # shells above, so the local solution is u0 on every shell k <= 0
    rhs, sol = catalog_solution
    for k in range(sol.k_min, 1):
        assert sol.value(k) == pytest.approx(U0, abs=1e-13)


def _steep_rhs(**kw):
    # r-dependence kicks the iteration off the constant start; the steep
    # x-slope then keeps the bounded iterates from settling
    f = lambda r, x: 0.9 * math.sin(5.0 * x) * (0.5 + 0.5 * min(1.0, r))
    return RhsSpec(f, M=0.9, F=4.5, **kw)


def test_no_contraction_error():
    with pytest.raises(NoContraction):
        picard_solve(_steep_rhs(), 0.3, ALPHA, Q, 2, tol=1e-12, max_iter=40)


def test_tolerance_not_reached_error():
    rhs = catalog_rhs(Q, ALPHA)
    N = pick_frontier(rhs)
    with pytest.raises(ToleranceNotReached):
        picard_solve(rhs, U0, ALPHA, Q, N, tol=1e-12, max_iter=3)


def test_deepening_honours_requested_window():
    rhs = catalog_rhs(Q, ALPHA)
    sol = picard_solve(rhs, U0, ALPHA, Q, 0, k_min=-120, tol=1e-6, max_iter=40)
    assert sol.k_min <= -120


def test_understated_lipschitz_constant_breaks_envelope():
    # the iterate moves faster than C^it M F^(it-1) q^(it a N) allows for F = 1e-6
    text = "0.1*tanh(x)*min(1, r^-2)"
    honest = picard_solve(RhsSpec.from_expressions(text, 0.1, 0.1, Q), U0, ALPHA, Q, 3,
                          tol=1e-12, max_iter=60)
    low = picard_solve(RhsSpec.from_expressions(text, 0.1, 1e-6, Q), U0, ALPHA, Q, 3,
                       tol=1e-12, max_iter=60)
    assert low.picard_iterations > 1
    assert honest.envelope_ok is True
    assert low.envelope_ok is False


# --- v0 -----------------------------------------------------------------------

def test_v0_zero_rhs(catalog_solution):
    rhs0 = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12)
    sol = picard_solve(rhs0, 1.0, ALPHA, Q, 0, tol=1e-12, max_iter=5)
    assert v0_constant(sol, rhs0, ALPHA, 0) == 0.0


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 1.0), (2, 1.7)])
def test_v0_constant_rhs_closed_form(q, alpha):
    c = 0.61
    rhs = RhsSpec(lambda r, x: c, M=c, F=1e-12)
    N = 2
    sol = picard_solve(rhs, 0.5, alpha, q, N, tol=1e-13, max_iter=5)
    got = v0_constant(sol, rhs, alpha, N)
    assert got == pytest.approx(-c * qpow(q, alpha * N), rel=1e-12)


def test_v0_matches_brute_force_extended_sum(catalog_solution):
    rhs, sol = catalog_solution
    N = sol.picard_frontier
    got = v0_constant(sol, rhs, ALPHA, N)
    # brute force: explicit shell sum with 200 extra shells below the cutoff,
    # the constant tail model extended by hand
    q = sol.q
    one = 1.0 - 1.0 / q
    front = 1.0  # (1 - q^-a)/(1 - q^(a-1)) = 1 at q = 2, alpha = 0.5
    phi = {k: rhs.f(qpow(q, k), sol.value(k)) for k in range(sol.k_min, N + 1)}
    base = phi[sol.k_min]
    total = 0.0
    for j in range(sol.k_min - 200, N + 1):
        pj = phi.get(j, base)
        kern = qpow(q, (ALPHA - 1.0) * (N + 1)) - qpow(q, (ALPHA - 1.0) * j)
        total += front * one * qpow(q, j) * kern * pj
    assert got == pytest.approx(total, rel=1e-11)


def test_v0_requires_solved_frontier(catalog_solution):
    rhs, sol = catalog_solution
    with pytest.raises(FrontierTooLow):
        v0_constant(sol, rhs, ALPHA, sol.frontier + 1)


# --- continuation ---------------------------------------------------------------

def test_continuation_zero_rhs():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-12, max_iter=5)
    ext = continue_solution(sol, rhs, ALPHA, 8, tol=1e-13, max_iter=20)
    assert ext.frontier == 8
    assert all(v == 1.0 for v in ext.values)


def test_continuation_constant_rhs_cancels_exactly():
    # v0 cancels the diagonal term, so u stays at u0 while both terms grow
    c = 0.07
    rhs = RhsSpec(lambda r, x: c, M=c, F=1e-12)
    sol = picard_solve(rhs, U0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, rhs, ALPHA, 8, tol=1e-14, max_iter=30)
    assert max(abs(v - U0) for v in ext.values) <= 1e-12


def test_continuation_catalog_contracts_and_solves_mild_equation(catalog_solution):
    rhs, sol = catalog_solution
    ext = continue_solution(sol, rhs, ALPHA, 8, tol=1e-12, max_iter=60)
    assert ext.frontier == 8
    assert ext.contraction_factors
    assert max(ext.contraction_factors.values()) <= 0.5
    assert max(mild_residuals(ext, rhs)) <= 1e-9
    # earlier shells untouched by the extension
    assert ext.values[: len(sol.values)] == sol.values


@pytest.mark.parametrize("q,alpha,N", [(2, 0.5, 0), (2, 0.5, 3), (3, 1.0, 0),
                                        (2, 1.7, 0), (5, 0.3, 1)])
def test_continuation_matches_per_step_rebuild(q, alpha, N):
    # running lower sums against a rebuild of f(., u) at every step: same bits
    rhs = catalog_rhs(q, alpha)
    sol = picard_solve(rhs, U0, alpha, q, N, k_min=-6, tol=1e-10, max_iter=80)
    want, want_iters = continue_by_rebuild(sol, rhs, alpha, N + 30, tol=1e-12)
    ext = continue_solution(sol, rhs, alpha, N + 30, tol=1e-12)
    assert bits(ext.values) == bits(want)
    assert ext.fp_iterations == want_iters
    # resuming from a partly continued solution restarts the sums from its values
    staged = continue_solution(continue_solution(sol, rhs, alpha, N + 12, tol=1e-12),
                               rhs, alpha, N + 30, tol=1e-12)
    assert bits(staged.values) == bits(want)


def test_continuation_failure_reports_shell():
    rhs = _steep_rhs(F_l=lambda l: 4.5)
    sol = picard_solve(rhs, 0.3, ALPHA, Q, -6, tol=1e-11, max_iter=60)
    with pytest.raises(ContractionFailure) as err:
        continue_solution(sol, rhs, ALPHA, 6, tol=1e-11, max_iter=80)
    assert err.value.shell is not None
    assert err.value.factor >= 1.0


# --- strict verification ---------------------------------------------------------

def test_strict_residual_zero_rhs():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12, beta=2.0)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, rhs, ALPHA, 12, tol=1e-13, max_iter=20)
    report = verify_strict(ext, rhs, ALPHA, (-4, 2))
    assert report.max_residual == 0.0
    assert report.ok


def test_strict_residual_catalog(catalog_solution):
    rhs, sol = catalog_solution
    ext = continue_solution(sol, rhs, ALPHA, 14, tol=1e-13, max_iter=60)
    report = verify_strict(ext, rhs, ALPHA, (-6, 4))
    assert report.max_residual <= 1e-8 * (1.0 + rhs.M)
    assert report.ok
    assert all(r >= 0.0 for _, r in report.residuals)
    assert report.max_residual == max(r for _, r in report.residuals)


def test_strict_counterexample_constant_rhs():
    # without decay the mild solution stays u0, whose derivative vanishes:
    # forcing the check exposes a residual of exactly |c|
    c = 0.07
    rhs = RhsSpec(lambda r, x: c, M=c, F=1e-12)
    sol = picard_solve(rhs, U0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, rhs, ALPHA, 12, tol=1e-14, max_iter=30)
    with pytest.raises(MissingBeta):
        verify_strict(ext, rhs, ALPHA, (-2, 2))
    report = verify_strict(ext, rhs, ALPHA, (-2, 2), force=True)
    assert not report.ok
    assert report.max_residual == pytest.approx(c, abs=1e-10)
    assert min(r for _, r in report.residuals) == pytest.approx(c, abs=1e-10)


def test_strict_requires_margins(catalog_solution):
    rhs, sol = catalog_solution
    with pytest.raises(MarginTooSmall):
        verify_strict(sol, rhs, ALPHA, (sol.frontier - 2, sol.frontier))


def test_strict_rejects_beta_not_exceeding_alpha():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12, beta=0.4)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, rhs, ALPHA, 12, tol=1e-13, max_iter=20)
    with pytest.raises(MissingBeta):
        verify_strict(ext, rhs, ALPHA, (-2, 2))


def test_full_pipeline_above_order_one():
    # for alpha > 1 the continued solution genuinely grows like q^((a-1)l);
    # the strict check must track it through the fitted growth tail
    q, alpha, u0 = 2, 1.7, 0.5
    rhs = RhsSpec(lambda r, x: 0.05 * math.tanh(x) * min(1.0, r ** -3.0),
                  M=0.05, F=0.05,
                  F_l=lambda l: min(0.05, qpow(q, -alpha * l) / 2.0),
                  beta=2.7)
    N = pick_frontier(rhs, q=q, alpha=alpha)
    sol = picard_solve(rhs, u0, alpha, q, N, k_min=-14, tol=1e-12, max_iter=60)
    ext = continue_solution(sol, rhs, alpha, 14, tol=1e-13, max_iter=80)
    assert abs(ext.value(14)) > 10.0        # growth is real
    assert max(ext.contraction_factors.values()) < 1.0
    assert max(mild_residuals(ext, rhs)) <= 1e-9
    report = verify_strict(ext, rhs, alpha, (-4, 4))
    assert report.ok
    assert report.max_residual <= 1e-8 * (1.0 + rhs.M)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.7])
@pytest.mark.parametrize("beta_gap", [None, 0.5, 1.0])
def test_v0_split_checks_match_rescan(q, alpha, beta_gap):
    # running partial sums against sums over shells 1..l recomputed at every l
    beta = None if beta_gap is None else alpha + beta_gap
    rhs = RhsSpec(lambda r, x: 0.1 * math.tanh(x) * min(1.0, r ** -2.0),
                  M=0.1, F=0.1, beta=beta)
    window = (-2, 20)
    sol = picard_solve(rhs, U0, alpha, q, 0, k_min=window[0] - 10, tol=1e-12, max_iter=60)
    # solved past the verify horizon (margin <= 60 shells here), so that
    # verify_strict checks this very solution
    ext = continue_solution(sol, rhs, alpha, window[1] + 64, tol=1e-13, max_iter=400)
    report = verify_strict(ext, rhs, alpha, window, force=True)
    horizon = int(report.checks[1].detail.rsplit(" ", 1)[1])
    assert horizon <= ext.frontier
    want = v0_split_checks_by_rescan(ext, rhs, alpha, window[1])
    assert len(want) == (1 if beta is None else 2)
    assert list(report.checks[2:]) == want


def _shells_from_one(q, vals):
    return RadialFunction.from_values(q, 1, vals)


def test_far_decay_constant_products_then_logs():
    q, beta = 5, 2.7                     # q^(beta l) overflows from shell 164 on
    # while every q^(beta l) is finite, the maximum is the old product maximum
    phi = _shells_from_one(q, [math.sin(j) * qpow(q, -2.0 * j) for j in range(1, 164)])
    want = max(abs(phi.eval(j)) * qpow(q, beta * j) for j in range(1, 164))
    c, j = _far_decay_constant(phi, q, beta, 163)
    assert bits([c]) == bits([want])
    assert abs(phi.eval(j)) * qpow(q, beta * j) == want
    # past shell 163 the terms are compared in logs; here the last one wins
    phi = _shells_from_one(q, [qpow(q, -2.0 * j) for j in range(1, 201)])
    c, j = _far_decay_constant(phi, q, beta, 200)
    assert j == 200
    assert c == pytest.approx(qpow(q, 0.7 * 200), rel=1e-12)
    # zero values past the cut contribute 0
    phi = _shells_from_one(q, [0.5 * qpow(q, -beta * j) if j <= 10 else 0.0
                               for j in range(1, 201)])
    want = max(abs(phi.eval(j)) * qpow(q, beta * j) for j in range(1, 11))
    assert _far_decay_constant(phi, q, beta, 200)[0] == want
    # a maximum above the largest float is inf, with the shell of its term
    phi = _shells_from_one(q, [0.1] * 200)
    assert _far_decay_constant(phi, q, beta, 200) == (math.inf, 200)


def test_v0_far_split_entry_fails_when_its_constant_overflows():
    q, alpha = 5, 1.7
    rhs = RhsSpec(lambda r, x: 0.1, M=0.1, F=0.1, beta=2.7)
    grid = RadialGrid(q, -3, 200)
    work = MildSolution(grid, alpha, U0, (U0,) * grid.size, (0.0,), 1, 0, 0.0, True)
    near, far = _v0_split_checks(work, rhs, alpha, 3)
    assert near.passed
    assert not far.passed
    assert "not a finite float" in far.detail and "shell 200" in far.detail


def test_strict_log_branch_runs():
    rhs = catalog_rhs(3, 1.0)
    N = pick_frontier(rhs, q=3, alpha=1.0)
    sol = picard_solve(rhs, 0.5, 1.0, 3, N, tol=1e-12, max_iter=60)
    ext = continue_solution(sol, rhs, 1.0, 8, tol=1e-12, max_iter=60)
    report = verify_strict(ext, rhs, 1.0, (-4, -2))
    assert report.max_residual <= 1e-8 * (1.0 + rhs.M)


# --- declared-constant checks -----------------------------------------------------

def test_rhs_conditions_pass_for_honest_declaration():
    rhs = RhsSpec(lambda r, x: 0.5 * math.sin(x), M=0.5, F=0.5)
    report = check_rhs_conditions(rhs, RadialGrid(2, -5, 5), samples=150)
    assert report.ok


def test_rhs_conditions_catch_unbounded_f():
    rhs = RhsSpec(lambda r, x: x, M=1.0, F=1.0)
    report = check_rhs_conditions(rhs, RadialGrid(2, -3, 3), samples=150)
    bad = [e for e in report.entries if not e.passed]
    assert bad and "bound" in bad[0].name
    assert "x =" in bad[0].detail


def test_rhs_conditions_decay_declaration():
    rhs = RhsSpec(lambda r, x: math.cos(x) * r ** -2.0 if r >= 1 else math.cos(x),
                  M=1.0, F=1.0, beta=2.0)
    report = check_rhs_conditions(rhs, RadialGrid(2, 1, 8), samples=120)
    assert report.ok
    over = RhsSpec(rhs.f, M=1.0, F=1.0, beta=3.0)
    report2 = check_rhs_conditions(over, RadialGrid(2, 1, 8), samples=120)
    assert not report2.ok


def test_rhs_conditions_per_shell_lipschitz():
    rhs = catalog_rhs(Q, ALPHA)
    report = check_rhs_conditions(rhs, RadialGrid(Q, -4, 6), samples=150, u0=U0)
    assert report.ok
    tight = RhsSpec(rhs.f, M=0.1, F=0.1, F_l=lambda l: 1e-6)
    report2 = check_rhs_conditions(tight, RadialGrid(Q, -4, 0), samples=150, u0=U0)
    assert not report2.ok


def test_rhs_conditions_need_enough_samples():
    rhs = catalog_rhs()
    with pytest.raises(ValueError):
        check_rhs_conditions(rhs, RadialGrid(2, -2, 2), samples=50)


def test_rhs_spec_validation():
    with pytest.raises(ValueError):
        RhsSpec(lambda r, x: 0.0, M=0.0, F=1.0)
    with pytest.raises(ValueError):
        RhsSpec(lambda r, x: 0.0, M=1.0, F=-1.0)


@pytest.mark.parametrize("key", ["M", "F", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rhs_spec_rejects_non_finite_constants(key, value):
    kw = {"M": 1.0, "F": 1.0, "beta": 1.5, key: value}
    with pytest.raises(ValueError, match=key):
        RhsSpec(lambda r, x: 0.0, **kw)
