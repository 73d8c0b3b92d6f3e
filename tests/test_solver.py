"""Picard iteration, shell continuation, strict verification, rhs checks."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace

import pytest

from ultrafrac import (
    ContractionFailure,
    MarginTooSmall,
    MildSolution,
    MissingBeta,
    NoContraction,
    RadialFunction,
    RadialGrid,
    RhsSpec,
    ToleranceNotReached,
    bound_constant,
    continue_solution,
    fit_upper_tail,
    mild_residuals,
    picard_solve,
    qpow,
    verify_strict,
)
from ultrafrac.solver import _declared_constant_checks, _far_overflow_shell, _phi_function
from helpers import bits, catalog_rhs, check_rhs_conditions, continue_by_rebuild, v0_at

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
    assert mild_residuals(sol).max_residual <= 2e-12


@pytest.mark.parametrize("M,ok", [(0.1, True), (0.001, False)])
def test_mild_residuals_check_M_on_their_own_values_of_f(catalog_solution, M, ok):
    # one call of f per solved shell gives both the residuals and the entry
    rhs, sol = catalog_solution
    calls = []

    def f(r, x):
        calls.append(r)
        return rhs.f(r, x)

    counted = replace(sol, rhs=replace(rhs, f=f, M=M))
    report = mild_residuals(counted)
    assert len(calls) == sol.grid.size
    assert report.window == (sol.k_min, sol.frontier)
    assert [k for k, _ in report.residuals] == list(sol.grid.shells)
    assert report.residuals == mild_residuals(sol).residuals
    assert [(c.name, c.passed) for c in report.checks] == [("uniform bound M", ok)]
    assert report.ok is ok


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
    assert v0_at(sol, rhs0, ALPHA, 0) == 0.0


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 1.0), (2, 1.7)])
def test_v0_constant_rhs_closed_form(q, alpha):
    c = 0.61
    rhs = RhsSpec(lambda r, x: c, M=c, F=1e-12)
    N = 2
    sol = picard_solve(rhs, 0.5, alpha, q, N, tol=1e-13, max_iter=5)
    got = v0_at(sol, rhs, alpha, N)
    assert got == pytest.approx(-c * qpow(q, alpha * N), rel=1e-12)


def test_v0_matches_brute_force_extended_sum(catalog_solution):
    rhs, sol = catalog_solution
    N = sol.picard_frontier
    got = v0_at(sol, rhs, ALPHA, N)
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


# --- continuation ---------------------------------------------------------------

def test_continuation_zero_rhs():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-12, max_iter=5)
    ext = continue_solution(sol, 8, tol=1e-13, max_iter=20)
    assert ext.frontier == 8
    assert all(v == 1.0 for v in ext.values)


def test_continuation_constant_rhs_cancels_exactly():
    # v0 cancels the diagonal term, so u stays at u0 while both terms grow
    c = 0.07
    rhs = RhsSpec(lambda r, x: c, M=c, F=1e-12)
    sol = picard_solve(rhs, U0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, 8, tol=1e-14, max_iter=30)
    assert max(abs(v - U0) for v in ext.values) <= 1e-12


def test_continuation_catalog_contracts_and_solves_mild_equation(catalog_solution):
    rhs, sol = catalog_solution
    ext = continue_solution(sol, 8, tol=1e-12, max_iter=60)
    assert ext.frontier == 8
    assert ext.contraction_factors
    assert max(ext.contraction_factors.values()) <= 0.5
    assert mild_residuals(ext).max_residual <= 1e-9
    # earlier shells untouched by the extension
    assert ext.values[: len(sol.values)] == sol.values


@pytest.mark.parametrize("q,alpha,N", [(2, 0.5, 0), (2, 0.5, 3), (3, 1.0, 0),
                                        (2, 1.7, 0), (5, 0.3, 1)])
def test_continuation_matches_per_step_rebuild(q, alpha, N):
    # running lower sums against a rebuild of f(., u) at every step: same bits
    rhs = catalog_rhs(q, alpha)
    sol = picard_solve(rhs, U0, alpha, q, N, k_min=-6, tol=1e-10, max_iter=80)
    want, want_iters = continue_by_rebuild(sol, rhs, alpha, N + 30, tol=1e-12)
    ext = continue_solution(sol, N + 30, tol=1e-12)
    assert bits(ext.values) == bits(want)
    assert ext.fp_iterations == want_iters
    # resuming from a partly continued solution restarts the sums from its values
    staged = continue_solution(continue_solution(sol, N + 12, tol=1e-12),
                               N + 30, tol=1e-12)
    assert bits(staged.values) == bits(want)


def test_continuation_and_verification_read_the_problem_from_the_solution(catalog_solution):
    rhs, sol = catalog_solution
    ext = continue_solution(sol, 14, tol=1e-13, max_iter=60)
    assert ext.rhs is rhs and (ext.alpha, ext.u0) == (ALPHA, U0)
    # the Picard diagnostics survive continuation
    assert ext.picard_iterations == sol.picard_iterations == len(sol.picard_history)
    assert ext.picard_frontier == sol.picard_frontier == sol.frontier
    assert sorted(ext.fp_iterations) == list(range(sol.frontier + 1, 15))
    # the same values carrying another problem continue as that problem:
    # with f = 0 each new shell is u0 and its factor is q^(a l) F
    zero = RhsSpec(lambda r, x: 0.0, M=0.1, F=0.1)
    other = continue_solution(replace(sol, rhs=zero, alpha=1.7, u0=0.25), 14)
    assert other.values[sol.grid.size:] == (0.25,) * (14 - sol.frontier)
    assert other.contraction_factors == {
        l + 1: qpow(Q, 1.7 * l) * 0.1 for l in range(sol.frontier, 14)}
    assert verify_strict(ext, (-4, 2)).ok
    with pytest.raises(MissingBeta, match="alpha = 2.5"):
        verify_strict(replace(ext, alpha=2.5), (-4, 2))
    with pytest.raises(MissingBeta, match="no decay exponent"):
        verify_strict(replace(ext, rhs=zero), (-4, 2))
    assert verify_strict(replace(ext, u0=U0 + 0.25), (-4, 2)).max_residual > 1e-4


def _assert_fresh_phi(sol):
    """The carried f(., u) has the bits of a fresh build from the values."""
    fresh = _phi_function(sol.q, sol.k_min, sol.values, sol.rhs)
    assert sol.phi.grid == fresh.grid
    assert bits(sol.phi.values) == bits(fresh.values)
    assert (sol.phi.value_at_zero, sol.phi.lower_tail, sol.phi.upper_tail) == (
        fresh.value_at_zero, fresh.lower_tail, fresh.upper_tail)


def test_carried_phi_matches_a_fresh_build(catalog_solution):
    rhs, sol = catalog_solution
    ext = continue_solution(sol, 14, tol=1e-13, max_iter=60)
    _assert_fresh_phi(ext)
    _assert_fresh_phi(continue_solution(ext, 30, tol=1e-13, max_iter=60))
    for seed in range(6):
        rnd = random.Random(seed)
        q, alpha = rnd.choice((2, 3, 5)), rnd.choice((0.3, 0.5, 1.0, 1.7))
        rhs = catalog_rhs(q, alpha)
        N = pick_frontier(rhs, q, alpha)
        start = picard_solve(rhs, rnd.uniform(-1.0, 1.0), alpha, q, N,
                             k_min=N - rnd.randint(1, 8), tol=1e-10, max_iter=80)
        _assert_fresh_phi(start)
        staged = continue_solution(start, N + rnd.randint(1, 12), tol=1e-12)
        _assert_fresh_phi(staged)
        _assert_fresh_phi(continue_solution(staged, staged.frontier + 15, tol=1e-12))


def test_replaced_solution_forms_its_own_phi(catalog_solution):
    # replace() gives an empty cache: another rhs is never read through the
    # f(., u) of the solution it was copied from
    _, sol = catalog_solution
    ext = continue_solution(sol, 8, tol=1e-13, max_iter=60)
    cached = ext.phi
    other = RhsSpec(lambda r, x: 0.5 * x, M=1.0, F=0.5)
    swapped = replace(ext, rhs=other)
    assert swapped.phi.values == tuple(0.5 * v for v in ext.values)
    assert swapped.phi.lower_tail.c == 0.5 * ext.values[0]
    assert ext.phi is cached and cached.values != swapped.phi.values


def test_continuation_failure_reports_shell():
    rhs = _steep_rhs(F_l=lambda l: 4.5)
    sol = picard_solve(rhs, 0.3, ALPHA, Q, -6, tol=1e-11, max_iter=60)
    with pytest.raises(ContractionFailure) as err:
        continue_solution(sol, 6, tol=1e-11, max_iter=80)
    assert err.value.shell is not None
    assert err.value.factor >= 1.0


# --- strict verification ---------------------------------------------------------

def test_strict_residual_zero_rhs():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12, beta=2.0)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, 12, tol=1e-13, max_iter=20)
    report = verify_strict(ext, (-4, 2))
    assert report.max_residual == 0.0
    assert report.ok


def test_strict_residual_catalog(catalog_solution):
    rhs, sol = catalog_solution
    ext = continue_solution(sol, 14, tol=1e-13, max_iter=60)
    report = verify_strict(ext, (-6, 4))
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
    ext = continue_solution(sol, 12, tol=1e-14, max_iter=30)
    with pytest.raises(MissingBeta):
        verify_strict(ext, (-2, 2))
    report = verify_strict(ext, (-2, 2), force=True)
    assert not report.ok
    assert report.max_residual == pytest.approx(c, abs=1e-10)
    assert min(r for _, r in report.residuals) == pytest.approx(c, abs=1e-10)


def test_strict_requires_margins(catalog_solution):
    rhs, sol = catalog_solution
    with pytest.raises(MarginTooSmall):
        verify_strict(sol, (sol.frontier - 2, sol.frontier))


def test_strict_rejects_beta_not_exceeding_alpha():
    rhs = RhsSpec(lambda r, x: 0.0, M=1e-12, F=1e-12, beta=0.4)
    sol = picard_solve(rhs, 1.0, ALPHA, Q, 0, tol=1e-13, max_iter=5)
    ext = continue_solution(sol, 12, tol=1e-13, max_iter=20)
    with pytest.raises(MissingBeta):
        verify_strict(ext, (-2, 2))


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
    ext = continue_solution(sol, 14, tol=1e-13, max_iter=80)
    assert abs(ext.value(14)) > 10.0        # growth is real
    assert max(ext.contraction_factors.values()) < 1.0
    assert mild_residuals(ext).max_residual <= 1e-9
    report = verify_strict(ext, (-4, 4))
    assert report.ok
    assert report.max_residual <= 1e-8 * (1.0 + rhs.M)


def _shells_from_one(q, vals):
    return RadialFunction.from_values(q, 1, vals)


def test_far_overflow_shell_compares_logs():
    q, beta = 5, 2.7                     # q^(beta l) overflows from shell 164 on
    # a maximum that is a finite float gives no shell
    phi = _shells_from_one(q, [math.sin(j) * qpow(q, -2.0 * j) for j in range(1, 164)])
    assert _far_overflow_shell(phi, q, beta, 163) is None
    # past shell 163 the terms are compared in logs: q^(0.7 l) stays finite,
    # q^(4 l) does not, and its largest term is the last one
    phi = _shells_from_one(q, [qpow(q, -2.0 * j) for j in range(1, 201)])
    assert _far_overflow_shell(phi, q, beta, 200) is None
    assert _far_overflow_shell(phi, q, beta + 3.3, 200) == 200
    # zero values contribute nothing, even where q^(beta l) is far out of range
    phi = _shells_from_one(q, [0.5 * qpow(q, -beta * j) if j <= 10 else 0.0
                               for j in range(1, 201)])
    assert _far_overflow_shell(phi, q, 30.0, 200) is None
    assert _far_overflow_shell(phi, q, 50.0, 200) == 10
    # a maximum above the largest float gives the shell of its term
    phi = _shells_from_one(q, [0.1] * 200)
    assert _far_overflow_shell(phi, q, beta, 200) == 200


def test_decay_constant_entry_fails_when_the_constant_overflows():
    q, alpha = 5, 1.7
    rhs = RhsSpec(lambda r, x: 0.1, M=0.1, F=0.1, beta=2.7)
    grid = RadialGrid(q, -3, 200)
    work = MildSolution(grid, rhs, alpha, U0, (U0,) * grid.size, (0.0,), 0.0, True)
    bound, decay = _declared_constant_checks(work)
    assert bound.name == "uniform bound M" and bound.passed
    assert decay.name == "decay constant" and not decay.passed
    assert "not a finite float" in decay.detail and "shell 200" in decay.detail
    # without a declared beta there is no decay entry
    assert _declared_constant_checks(replace(work, rhs=replace(rhs, beta=None))) == [bound]


@pytest.mark.parametrize("excess,ok", [(0.9e-9, True), (1.1e-9, False)])
def test_uniform_bound_entry_has_a_relative_slack_of_1e9(excess, ok):
    # max |f(q^k, u_k)| = 1 at shell 7 against M = 1 / (1 + excess)
    rhs = RhsSpec(lambda r, x: x, M=1.0 / (1.0 + excess), F=1.0)
    grid = RadialGrid(3, -4, 12)
    values = tuple(1.0 if k == 7 else 0.5 for k in grid.shells)
    work = MildSolution(grid, rhs, 0.5, 0.0, values, (0.0,), 0.0, True)
    (bound,) = _declared_constant_checks(work)
    assert bound.passed is ok
    assert bound.detail.startswith("max |f(q^k, u_k)| = 1 at shell 7; declared M = ")


def test_log_branch_checks_the_declared_constants():
    # at alpha = 1 the declared constants are checked as at any other alpha
    rhs = replace(catalog_rhs(3, 1.0), M=0.01)
    N = pick_frontier(rhs, q=3, alpha=1.0)
    sol = picard_solve(rhs, 0.5, 1.0, 3, N, tol=1e-12, max_iter=60)
    ext = continue_solution(sol, 8, tol=1e-12, max_iter=60)
    report = verify_strict(ext, (-4, -2))
    assert not report.ok
    assert [(c.name, c.passed) for c in report.checks[2:]] == [
        ("uniform bound M", False), ("decay constant", True)]


def _verify_pipeline(q, alpha, u0, window, N, tol, text, M, F, beta):
    """The solution the verify command checks: solved 10 shells past the window."""
    rhs = RhsSpec.from_expressions(text, M, F, q, None, beta)
    sol = picard_solve(rhs, u0, alpha, q, N, k_min=window[0] - 10, tol=tol, max_iter=200)
    return continue_solution(sol, window[1] + 10, tol=tol, max_iter=200)


# verify cases for branches that no other test reaches; each report is pinned
# by the sha256 of its residual bits and by the name and outcome of each check
FALLBACK = (2, 1.0, 0.5, (-2, 0), 1, 1e-12, "0.05*x", 1.0, 0.05, 1.1)
PASSING_CHECKS = [("decay exponent beta", True), ("evaluation horizon", True),
                  ("uniform bound M", True), ("decay constant", True)]
PINNED_REPORTS = {
    # the extension diverges at shell 12: evaluated at the frontier 10
    "extension-fallback": (
        FALLBACK, PASSING_CHECKS,
        "3bd9a831e4770943ee60f3fd392575bbdc757d2d8c16a063825d0da812cea0c3"),
    # the fitted upper exponent 4.68 is >= alpha: the tail becomes a constant
    "exponent-cap": (
        (2, 1.7, -0.5, (-7, -3), 0, 1e-12, "0.05*sin(x + 1.3)", 0.1, 0.1, 3.2),
        PASSING_CHECKS,
        "786c6c409512db74315598bb99d8e73aea87fee9344bd915ccb59070b6c10d14"),
    # M = 0.001 understates max |f|: the uniform bound entry fails
    "near-split-fails": (
        (5, 1.7, -2.0, (-6, 3), 1, 1e-9, "0.1*tanh(x)*min(1, r^-2)", 0.001, 0.05, 1.8),
        [("decay exponent beta", True), ("evaluation horizon", True),
         ("uniform bound M", False), ("decay constant", True)],
        "6e9b6fc91562c9bd65098818e110d49ca10d1a4885e9cd9b0e98c4855c2fd82a"),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_verify_branches_keep_their_reports(case):
    args, checks, digest = PINNED_REPORTS[case]
    sol = _verify_pipeline(*args)
    report = verify_strict(sol, args[3])
    assert [(c.name, c.passed) for c in report.checks] == checks
    residual_bits = bits([r for _, r in report.residuals])
    assert hashlib.sha256(residual_bits).hexdigest() == digest
    detail = {c.name: c.detail for c in report.checks}
    if case == "extension-fallback":
        assert detail["evaluation horizon"].startswith(
            "extension unavailable (iterate diverged at shell 12 ")
        assert detail["evaluation horizon"].endswith("evaluating at frontier 10")
    elif case == "exponent-cap":
        g = RadialFunction(sol.grid, tuple(v - sol.u0 for v in sol.values))
        assert fit_upper_tail(g).upper_tail.e >= sol.alpha
    else:
        assert detail["uniform bound M"] == (
            "max |f(q^k, u_k)| = 0.0964028 at shell 0; declared M = 0.001")


def test_continuation_stops_at_a_diverging_iterate():
    sol = _verify_pipeline(*FALLBACK)
    assert sol.frontier == 10
    with pytest.raises(ContractionFailure, match="iterate diverged at shell 12 ") as err:
        continue_solution(sol, 12, tol=1e-13, max_iter=400)
    assert err.value.shell == 12


def test_strict_log_branch_runs():
    rhs = catalog_rhs(3, 1.0)
    N = pick_frontier(rhs, q=3, alpha=1.0)
    sol = picard_solve(rhs, 0.5, 1.0, 3, N, tol=1e-12, max_iter=60)
    ext = continue_solution(sol, 8, tol=1e-12, max_iter=60)
    report = verify_strict(ext, (-4, -2))
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
