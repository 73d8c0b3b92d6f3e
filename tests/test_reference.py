"""Forward error against the decimal reference: the integral, its kernel
constants and the Picard cutoff bound, at alpha = 1 and next to it, the
derivative, and the solver on right-hand sides that do not read x."""

from __future__ import annotations

import math
import random
from decimal import Decimal

import pytest

import reference
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
    picard_solve,
)
from ultrafrac.cli import RunConfig, _render
from ultrafrac.solver import _truncation_bound

EPS = 2.0 ** -52


def _inputs(q: int, seed: int, width: int = 24):
    """One input per lower-tail kind (zero, constant, power law c q^(k/2))
    with uniform random values on a window of ``width`` shells."""
    rnd = random.Random(seed)
    for kind in ("zero", "constant", "power"):
        k_min = rnd.randint(-20, -10)
        values = [rnd.uniform(-1.0, 1.0) for _ in range(width)]
        c = rnd.uniform(-1.0, 1.0)
        tail = {"zero": TailSpec.zero(), "constant": TailSpec.constant(c),
                "power": TailSpec.power_law(c, 0.5)}[kind]
        yield RadialFunction.from_values(q, k_min, values,
                                         value_at_zero=tail.c if tail.e == 0.0 else 0.0,
                                         lower_tail=tail)


def _errors(u: RadialFunction, alpha: float):
    """(error, |reference|, sum of |terms|) per shell of [k_min - 3, k_max]."""
    lo, hi = u.grid.k_min - 3, u.grid.k_max
    out = apply_ialpha(u, alpha, (lo, hi))
    for n, got in zip(range(lo, hi + 1), out.values):
        ref, size = reference.ialpha(u, alpha, n)
        yield abs(Decimal(got) - ref), abs(ref), size


def test_reference_checks_its_own_error():
    # every reference value moves by less than 1e-30 at 80 digits; next to
    # alpha = 1 the defining kernel cancels up to 13 of the 50 digits
    u = next(_inputs(3, 11))
    power = list(_inputs(2, 12))[2]
    checks = [
        lambda p: reference.ialpha(u, 1.0, 4, p)[0],
        lambda p: reference.ialpha(u, 1.0 + 1e-13, 4, p)[0],
        lambda p: reference.ialpha(power, 0.7, -12, p)[0],
        lambda p: reference.ialpha(power, 1.0, 3, p)[0],
        lambda p: reference.kernel_constant(1.0 - 1e-11, 7, 3, p),
        lambda p: reference.kernel_constant(1.0, 40, 7, p),
        lambda p: reference.bound_constant(2.5, 2, p),
        lambda p: reference.truncation_response(1.0 + 1e-9, 2, 0.2, -30, 4, p),
    ]
    for compute in checks:
        assert reference.self_error(compute) <= Decimal("1e-30")


@pytest.mark.parametrize("alpha", [1.0 + s * 10.0 ** -k for k in range(3, 14) for s in (1, -1)])
def test_apply_ialpha_next_to_one(alpha):
    # one kernel for every alpha: no cancellation on either side of 1
    for q in (2, 3):
        for u in _inputs(q, 7 * q):
            for err, ref, size in _errors(u, alpha):
                assert err <= Decimal(1e-12) * size
                if ref >= Decimal(1e-3) * size:  # a value that is not a cancellation
                    assert err <= Decimal(1e-12) * ref


@pytest.mark.parametrize("alpha", [1.0 + s * 10.0 ** -k for k in (6, 9, 12) for s in (1, -1)])
def test_ialpha_oracle_next_to_one(alpha):
    # the direct double sum with expm1 kernel differences: no cancellation
    # next to 1, where the former differences erred by up to 2.7e-3
    for q in (2, 3):
        for seed in range(4):
            u = next(_inputs(q, 31 * q + seed, width=12))  # the zero-tail input
            for n in range(u.grid.k_min - 3, u.grid.k_max + 1):
                ref, size = reference.ialpha(u, alpha, n)
                assert abs(Decimal(ialpha_oracle(u, alpha, n)) - ref) <= Decimal(1e-12) * size


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.5])
def test_apply_ialpha_error_scaled_by_its_terms(alpha):
    # at most 80 eps sum |terms|: 1.25x the 62 eps the former two-kernel
    # code reached on these alphas (q = 2, 3, 5, 40-shell windows)
    for q in (2, 3, 5):
        for u in _inputs(q, 100 * q + int(10 * alpha)):
            for err, _, size in _errors(u, alpha):
                assert err <= Decimal(80 * EPS) * size


_ALPHAS = (0.3, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-11, 1.0 + 1e-7, 1.0 + 1e-3, 1.7, 2.5)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_kernel_constants_match_the_reference(q):
    grid = RadialGrid(q, 0, 0)
    for alpha in _ALPHAS:
        for m in range(41):
            ref = reference.kernel_constant(alpha, m, q)
            assert abs(Decimal(kernel_constant(alpha, m, grid)) - ref) <= Decimal(1e-13) * ref
        ref = reference.bound_constant(alpha, q)
        assert abs(Decimal(bound_constant(alpha, grid)) - ref) <= Decimal(4 * EPS) * ref


#: every (q, alpha, m) with m <= 7 at a large alpha whose d_{a,m} is at
#: least 1e-300: 56 cases
_LARGE_ALPHA_CASES = [(q, alpha, m) for q in (2, 3, 5, 7, 11)
                      for alpha in (100.0, 300.0, 600.0, 1030.0, 2000.0) for m in range(8)
                      if reference.kernel_constant(alpha, m, q) >= Decimal("1e-300")]


@pytest.mark.parametrize("q,alpha,m", _LARGE_ALPHA_CASES)
def test_kernel_constants_at_large_alpha(q, alpha, m):
    # the lead |expm1((a-1) L)| enters as a power of q, so no factor of
    # q^(a-1) overflows on its own, and no quotient underflows to 0
    ref = reference.kernel_constant(alpha, m, q)
    assert abs(Decimal(kernel_constant(alpha, m, RadialGrid(q, 0, 0))) - ref) <= Decimal(1e-13) * ref


_COLUMN_RND = random.Random(7)
#: alpha from 1e-3 to 2000: fixed points, and two seeded log-uniform ones per
#: decade, whose products a m are not exact
_COLUMN_ALPHAS = (1e-3, 0.3, 1.0 - 1e-6, 1.0, 1.0 + 1e-7, 1.7, 2.5, 10.0, 100.0,
                  300.0, 600.0, 2000.0) + tuple(
    10.0 ** _COLUMN_RND.uniform(e, min(e + 1.0, math.log10(2000.0)))
    for e in range(-3, 4) for _ in range(2))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_constants_scaled_column_matches_the_reference(q):
    # d_{a,m} q^(a m) comes from one closed form whose power of q is -1 or
    # -a: it stays a float where q^(a m) is none, and a m is never rounded
    for alpha in _COLUMN_ALPHAS:
        _, rows = _render(RunConfig(q=q, alpha=alpha, m_max=20), "constants")
        assert [row[0] for row in rows] == list(range(21))
        for m, _, scaled in rows:
            ref = reference.kernel_constant(alpha, m, q) * reference.power(q, alpha, m)
            assert abs(Decimal(scaled) - ref) <= Decimal(1e-13) * ref


@pytest.mark.parametrize("q", [2, 3, 5])
def test_truncation_bound_is_the_supremum(q):
    # at or above the largest response over the shells it covers, up to
    # rounding, and no more than rounding above it
    for alpha in _ALPHAS:
        for k0, n_hi in ((-5, 0), (-40, 3), (-60, -60), (-20, 30), (-3, -1)):
            ref = max(reference.truncation_response(alpha, q, 0.2, k0, n)
                      for n in range(k0, n_hi + 1))
            bound = Decimal(_truncation_bound(alpha, q, 0.2, k0, n_hi))
            assert ref * (1 - Decimal(128 * EPS)) <= bound <= ref * (1 + Decimal(1e-12))


@pytest.mark.parametrize("q", [2, 3])
def test_truncation_bound_is_continuous_through_one(q):
    at_one = _truncation_bound(1.0, q, 0.2, -40, 5)
    for k in range(3, 14):
        for delta in (10.0 ** -k, -(10.0 ** -k)):
            near = _truncation_bound(1.0 + delta, q, 0.2, -40, 5)
            assert abs(near / at_one - 1.0) <= 50.0 * abs(delta)


def _dalpha_cases(seed: int, count: int):
    """(alpha, u) with random q, alpha, window and values, and each tail
    zero, constant or a power law inside the derivative's domain."""
    rnd = random.Random(seed)
    for _ in range(count):
        q, alpha = rnd.choice((2, 3, 5)), rnd.choice((0.3, 0.5, 1.0, 1.7, 2.5))
        width, k_min = rnd.randint(4, 30), rnd.randint(-15, 5)
        values = [rnd.uniform(-1.0, 1.0) for _ in range(width)]
        tails = []
        for kind, e_range in ((rnd.choice(("zero", "constant", "power")), (-0.9, 1.5)),
                              (rnd.choice(("zero", "constant", "power")), (-1.5, alpha - 0.1))):
            c = rnd.uniform(-1.0, 1.0)
            tails.append({"zero": TailSpec.zero(), "constant": TailSpec.constant(c),
                          "power": TailSpec.power_law(c, rnd.uniform(*e_range))}[kind])
        lower, upper = tails
        yield alpha, RadialFunction.from_values(
            q, k_min, values, lower.c if lower.e == 0.0 else 0.0, lower, upper)


def test_dalpha_reference_checks_its_own_error():
    for alpha, u in _dalpha_cases(5, 12):
        for n in (u.grid.k_min - 2, u.grid.k_min + 1, u.grid.k_max + 2):
            assert reference.self_error(lambda p: reference.dalpha(u, alpha, n, p)[0]) \
                <= Decimal("1e-30")


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.5])
def test_dalpha_reference_agrees_with_the_oracle(alpha):
    # two routes through the hypersingular integral, one of them in floats;
    # the oracle's error, at most 36 eps sum |terms| here, is mostly qpow's
    # exponent error at (a+1)|n| ln q up to 130
    for q in (2, 3, 5):
        u = next(_inputs(q, 40 * q + int(10 * alpha), width=12))  # the zero-tail input
        for n in range(u.grid.k_min - 3, u.grid.k_max + 4):
            ref, size = reference.dalpha(u, alpha, n)
            assert abs(Decimal(dalpha_oracle(u, alpha, n)) - ref) <= Decimal(64 * EPS) * size


def test_apply_dalpha_error_scaled_by_window_and_terms():
    # W is the window width in shells.  200 seeded cases, 4,394 shells: the
    # error reaches 5.4 W eps sum |terms|, where qpow's exponent error at
    # shells far from 0 outweighs the W sums
    worst = Decimal(0)
    for alpha, u in _dalpha_cases(1, 200):
        lo, hi = u.grid.k_min - 3, u.grid.k_max + 3
        for n, got in zip(range(lo, hi + 1), apply_dalpha(u, alpha, (lo, hi)).values):
            ref, size = reference.dalpha(u, alpha, n)
            worst = max(worst, abs(Decimal(got) - ref) / (u.grid.size * Decimal(EPS) * size))
    assert worst <= 10


def _state_free_cases(q: int, seed: int):
    """(alpha, N, u0, rhs) for every alpha and N in {0, 2}, with a seeded
    rhs c min(1, r^-b), c tanh(r) or c r / (1 + r^2) that does not read x."""
    rnd = random.Random(seed)
    for alpha in (0.3, 0.5, 1.0, 1.7, 2.5):
        for N in (0, 2):
            kind = rnd.choice(("min", "tanh", "rational"))
            c = rnd.choice((-1.0, 1.0)) * rnd.uniform(0.01, 0.2)
            u0 = rnd.uniform(-1.0, 1.0)
            if kind == "min":
                b = rnd.uniform(0.5, 3.0)
                f, M = (lambda r, x, c=c, b=b: c * min(1.0, r ** -b)), abs(c)
            elif kind == "tanh":
                f, M = (lambda r, x, c=c: c * math.tanh(r)), abs(c)
            else:
                f, M = (lambda r, x, c=c: c * r / (1.0 + r * r)), abs(c) / 2.0
            yield alpha, N, u0, RhsSpec(f, M=M, F=M)


#: K in err <= K eps (|u0| + sum |terms|), per solver stage: over the 40
#: cases below the worst is 0.76 on the Picard shells and 29.6 on the
#: continued ones, where the gain q^(a l) carries the exponent error of
#: exp(l a ln q)
_SOLVE_K = {"picard": 1.0, "continued": 32.0}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_state_free_solve_matches_the_reference(q):
    # an rhs that does not read x makes the mild equation explicit: the
    # discrete solution is u0 + I^a phi on every solved shell, with phi =
    # sol.phi and its constant lower tail, on both stages
    for alpha, N, u0, rhs in _state_free_cases(q, 100 + q):
        sol = picard_solve(rhs, u0, alpha, q, N, tol=1e-10, max_iter=50)
        sol = continue_solution(sol, N + 30, tol=1e-10, max_iter=50)
        phi = sol.phi
        for n, u in zip(sol.grid.shells, sol.values):
            ref, size = reference.ialpha(phi, alpha, n)
            k = _SOLVE_K["picard" if n <= N else "continued"]
            err = abs(Decimal(u) - (Decimal(u0) + ref))
            assert err <= Decimal(k * EPS) * (abs(Decimal(u0)) + size)
        # the values cancel down to 1e-60 of sum |terms| where phi is
        # constant, so the reference's own error is bounded against its terms
        for n in (sol.k_min, N, sol.frontier):
            ref, size = reference.ialpha(phi, alpha, n)
            check = reference.ialpha(phi, alpha, n, reference.CHECK_PREC)[0]
            assert abs(ref - check) <= Decimal("1e-30") * size
