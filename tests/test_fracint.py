"""Regularized integral: oracle agreement, inverses, kernel constants."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrafrac import (
    DivergentTail,
    DomainViolation,
    RadialFunction,
    RadialGrid,
    RhsSpec,
    TailSpec,
    apply_dalpha,
    apply_ialpha,
    dalpha_oracle,
    bound_constant,
    ialpha_domain,
    ialpha_oracle,
    kernel_constant,
    picard_solve,
    qpow,
)
from ultrafrac.fracint import KernelSum
from helpers import (
    bits,
    compact,
    constant_function,
    derivative_of_integral,
    integral_of_derivative,
    random_compact,
    shell_measure,
    two_exponent_family,
)

GRID5 = RadialGrid(5, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.5])
def test_annihilates_constants(q, alpha):
    out = apply_ialpha(constant_function(q, 1.0), alpha, (-20, 20))
    for n, v in zip(range(-20, 21), out.values):
        assert abs(v) <= 1e-12 * qpow(q, alpha * n)


def test_annihilation_degrades_gracefully_near_branch_window():
    # next to alpha = 1 the kernel recurrence cancels nothing, so constants
    # are annihilated as sharply as at any other alpha
    for q in (2, 5):
        for alpha in (1.0 + 1e-9, 1.0 - 1e-9):
            out = apply_ialpha(constant_function(q, 1.0), alpha, (-8, 8))
            for n, v in zip(range(-8, 9), out.values):
                assert math.isfinite(v)
                assert abs(v) <= 1e-12 * qpow(q, alpha * n)


def test_large_residue_field_cardinality():
    for q in (11, 101):
        out = apply_ialpha(constant_function(q, 1.0), 0.7, (-6, 6))
        for n, v in zip(range(-6, 7), out.values):
            assert abs(v) <= 1e-12 * qpow(q, 0.7 * n)
        u = compact(q, -2, [0.4, -0.9, 0.2, 0.7, -0.3, 0.5])
        for n in range(-4, 6):
            want = dalpha_oracle(u, 0.7, n)
            got = apply_dalpha(u, 0.7, (n, n)).values[0]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_zero_maps_to_zero():
    z = compact(2, -3, [0.0] * 6)
    assert all(v == 0.0 for v in apply_ialpha(z, 0.5).values)
    assert ialpha_oracle(z, 0.5, 1) == 0.0


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 0.5), (2, 1.0), (5, 1.7)])
def test_oracle_equivalence_random_compact(q, alpha):
    rnd = random.Random(hash((q, int(alpha * 10), 77)) & 0xFFFF)
    for _ in range(12):
        u = random_compact(rnd, q)
        a, b = u.grid.k_min, u.grid.k_max
        series = apply_ialpha(u, alpha, (a - 5, b + 5))
        for n in range(a - 5, b + 6):
            want = ialpha_oracle(u, alpha, n)
            assert abs(series.eval(n) - want) <= 1e-10 * (1.0 + abs(want))


def test_single_shell_bump_example():
    q, alpha = 2, 0.5
    bump = compact(q, 0, [1.0])
    series = apply_ialpha(bump, alpha, (2, 2)).values[0]
    assert series == pytest.approx(ialpha_oracle(bump, alpha, 2), rel=1e-13)


def test_truncated_indicator_matches_oracle():
    q, alpha = 3, 0.5
    ind = compact(q, -12, [1.0] * 13)    # 1 on shells -12..0, truncated below
    series = apply_ialpha(ind, alpha, (2, 2)).values[0]
    assert series == pytest.approx(ialpha_oracle(ind, alpha, 2), rel=1e-12)


def test_oracle_truncated_constant_tends_to_zero():
    # ones on [-L, 2] approximate the constant; the oracle value at n = 2
    # must shrink as the window grows (the identity I^a 1 = 0 in the limit)
    q, alpha = 3, 0.5
    vals = {}
    for L in (10, 25, 40):
        ones = compact(q, -L, [1.0] * (L + 3))
        vals[L] = abs(ialpha_oracle(ones, alpha, 2))
    assert vals[25] < vals[10]
    assert vals[40] < vals[25]
    assert vals[40] < 1e-8


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from([2, 3, 5]),
       alpha=st.sampled_from([0.5, 1.0, 1.7]),
       k_min=st.integers(-5, 2),
       vals=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12),
       offset=st.integers(-4, 4))
def test_series_matches_oracle_property(q, alpha, k_min, vals, offset):
    u = compact(q, k_min, vals)
    n = k_min + offset
    want = ialpha_oracle(u, alpha, n)
    got = apply_ialpha(u, alpha, (n, n)).values[0]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7]),
       alpha=st.sampled_from([0.3, 0.5, 1.0, 1.0 + 5e-13, 1.7, 2.5]),
       k_min=st.integers(-6, 3),
       vals=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       c=st.floats(-1.0, 1.0),
       tail=st.sampled_from(["zero", "constant"]),
       lo=st.integers(-10, 16), span=st.integers(0, 10))
def test_series_matches_per_shell_sums_bitwise(q, alpha, k_min, vals, c, tail, lo, span):
    # one pass over the window against a pass of its own per output shell
    lower = TailSpec.constant(c) if tail == "constant" else TailSpec.zero()
    u = RadialFunction.from_values(q, k_min, vals, value_at_zero=lower.c,
                                   lower_tail=lower)
    n_lo = k_min - 4 + lo
    out = apply_ialpha(u, alpha, (n_lo, n_lo + span))
    want = [apply_ialpha(u, alpha, (n, n)).values[0] for n in range(n_lo, n_lo + span + 1)]
    assert bits(out.values) == bits(want)


def test_oracle_rejects_tails():
    with pytest.raises(DomainViolation):
        ialpha_oracle(constant_function(2, 1.0), 0.5, 0)


def test_domain_violation_on_steep_lower_tail():
    bad = RadialFunction.from_values(
        2, 0, [1.0], value_at_zero=0.0, lower_tail=TailSpec.power_law(1.0, -0.9))
    with pytest.raises(DomainViolation):
        apply_ialpha(bad, 0.5)
    # the same tail is fine when alpha allows it
    ok = apply_ialpha(bad, 2.0, (0, 0))
    assert math.isfinite(ok.values[0])


def test_result_is_zero_at_origin():
    u = compact(2, -2, [1.0, 2.0, 3.0])
    assert apply_ialpha(u, 0.5).value_at_zero == 0.0


# --- kernel constants -------------------------------------------------------

def test_kernel_constant_positive_and_shell_independent():
    for q in (2, 3, 5):
        grid = RadialGrid(q, 0, 0)
        for alpha in (0.5, 1.0, 1.7, 2.5):
            for m in (0, 1, 5, 17):
                d = kernel_constant(alpha, m, grid)
                assert d > 0.0
                n = 4
                direct = _kernel_moment_brute(alpha, m, q, n, depth=300)
                assert d * qpow(q, alpha * (m + 1) * n) == pytest.approx(
                    direct, rel=1e-11)


def _kernel_moment_brute(alpha, m, q, n, depth):
    grid = RadialGrid(q, 0, 0)
    total = 0.0
    for j in range(n - depth, n):
        if alpha == 1.0:
            k = (n - j) * math.log(q)
        else:
            k = abs(qpow(q, (alpha - 1.0) * n) - qpow(q, (alpha - 1.0) * j))
        total += shell_measure(grid, j) * k * qpow(q, alpha * m * j)
    return total


def test_kernel_constant_log_branch_brute_force():
    d = kernel_constant(1.0, 0, RadialGrid(3, 0, 0))
    brute = _kernel_moment_brute(1.0, 0, 3, 0, depth=300)
    assert d == pytest.approx(brute, rel=1e-12)


def test_kernel_constant_rejects_alpha_with_q_power_one():
    # q^-alpha rounds to 1.0, where the kernel moments would divide by zero
    grid = RadialGrid(2, 0, 0)
    with pytest.raises(ValueError, match="too small"):
        kernel_constant(1e-17, 0, grid)
    with pytest.raises(ValueError, match="too small"):
        bound_constant(1e-17, grid)
    rhs = RhsSpec(lambda r, x: 0.0, M=0.1, F=0.1)
    with pytest.raises(ValueError, match="too small"):
        picard_solve(rhs, 1.0, 1e-17, 2, 0)


def test_kernel_homogeneity_ratio():
    # d q^(a(m+1)n) against the moment summed shell by shell at n = 5 and 6
    for q, alpha, m in ((2, 0.5, 0), (3, 1.0, 3), (5, 1.7, 7)):
        d = kernel_constant(alpha, m, RadialGrid(q, 0, 0))
        for n in (5, 6):
            direct = _kernel_moment_brute(alpha, m, q, n, depth=300)
            assert d * qpow(q, alpha * (m + 1) * n) == pytest.approx(direct, rel=1e-10)


def test_kernel_decay_uniform_in_m():
    for q in (2, 3, 5):
        grid = RadialGrid(q, 0, 0)
        for alpha in (0.3, 0.5, 1.0, 1.7, 2.5):
            vals = [kernel_constant(alpha, m, grid) * qpow(q, alpha * m)
                    for m in range(41)]
            cap = 1.1 * max(vals[:6])
            assert all(v <= cap for v in vals)


def test_specific_decay_example():
    grid = RadialGrid(2, 0, 0)
    d0 = kernel_constant(0.5, 0, grid)
    d10 = kernel_constant(0.5, 10, grid)
    assert d10 * qpow(2, 5) <= 1.1 * d0


# --- operator bound ---------------------------------------------------------

def test_bound_constant_dominates_diagonal():
    for q in (2, 3, 5):
        for alpha in (0.3, 1.0, 2.5):
            assert bound_constant(alpha, RadialGrid(q, 0, 0)) >= qpow(q, -alpha)


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 1.0)])
def test_bound_constant_dominates_integral_of_bounded_inputs(q, alpha):
    C = bound_constant(alpha, RadialGrid(q, 0, 0))
    rnd = random.Random(q * 31 + 5)
    for _ in range(50):
        u = random_compact(rnd, q, lo_range=(-5, 2))
        mu = max(abs(v) for v in u.values)
        out = apply_ialpha(u, alpha, (-10, 10))
        for n, v in zip(range(-10, 11), out.values):
            assert abs(v) <= C * mu * qpow(q, alpha * n) * (1.0 + 1e-9)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_growth_bound_over_power_families(m):
    # |phi| <= mu q^(a m j) implies |I^a phi| <= C mu q^(a(m+1) n)
    q, alpha = 2, 0.5
    C = bound_constant(alpha, RadialGrid(q, 0, 0))
    rnd = random.Random(17 + m)
    mu = 0.8
    vals = [mu * qpow(q, alpha * m * j) * rnd.uniform(-1.0, 1.0)
            for j in range(-12, 9)]
    phi = compact(q, -12, vals)
    out = apply_ialpha(phi, alpha, (-8, 8))
    for n, v in zip(range(-8, 9), out.values):
        assert abs(v) <= C * mu * qpow(q, alpha * (m + 1) * n) * (1.0 + 1e-9)


# --- inverse properties ------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
def test_right_inverse_on_random_compact(q, alpha):
    rnd = random.Random(hash((q, int(10 * alpha), 3)) & 0xFFFF)
    for _ in range(10):
        v = random_compact(rnd, q)
        out = derivative_of_integral(v, alpha)
        scale = 1.0 + max(abs(x) for x in v.values)
        for got, want in zip(out.values, v.values):
            assert abs(got - want) <= 1e-9 * scale


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 1.0), (2, 2.5), (5, 1.7)])
def test_left_inverse_on_two_exponent_family(q, alpha):
    d = max(0.0, alpha - 1.0) + 0.4
    h = 0.3 * ((alpha - 1.0) if alpha > 1.0 else alpha)
    u = two_exponent_family(q, d, h)
    out = integral_of_derivative(u, alpha, (-12, 12))
    for n, got in zip(range(-12, 13), out.values):
        want = u.eval(n)
        assert abs(got - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 1.0), (2, 1.7)])
def test_constant_shift_recovers_function_minus_constant(q, alpha):
    d = max(0.0, alpha - 1.0) + 0.4
    h = 0.3 * ((alpha - 1.0) if alpha > 1.0 else alpha)
    u = two_exponent_family(q, d, h)
    v0 = 2.5
    v = RadialFunction(u.grid, tuple(x + v0 for x in u.values), v0,
                       TailSpec.constant(v0), TailSpec.constant(v0))
    # the stored value at 0 carries the constant; split it off exactly,
    # differentiate, integrate back
    g = RadialFunction(v.grid, tuple(x - v0 for x in v.values), 0.0,
                       TailSpec.constant(v.lower_tail.c - v0),
                       TailSpec.constant(v.upper_tail.c - v0))
    out = integral_of_derivative(g, alpha, (-12, 12))
    for n, got in zip(range(-12, 13), out.values):
        want = v.eval(n) - v0
        assert abs(got - want) <= 1e-8 * abs(want)


_U = compact(2, -1, [1.0, -0.5, 2.0])


@pytest.mark.parametrize("call,exc,message", [
    (lambda: kernel_constant(0.0, 0, GRID5), ValueError, r"alpha must be positive, got 0\.0"),
    (lambda: bound_constant(0.0, GRID5), ValueError, r"alpha must be positive, got 0\.0"),
    (lambda: ialpha_domain(_U, -0.5), ValueError, r"alpha must be positive, got -0\.5"),
    (lambda: ialpha_oracle(_U, 0.0, 0), ValueError, r"alpha must be positive, got 0\.0"),
    (lambda: kernel_constant(0.5, -1, GRID5), ValueError,
     r"m must be a nonnegative integer, got -1"),
    (lambda: apply_ialpha(_U, 0.5, (3, 2)), ValueError, r"empty output window \[3, 2\]"),
    # the sum S converges (alpha + e > 0) but G does not (1 + e <= 0)
    (lambda: KernelSum(TailSpec.power_law(1.0, -1.2), 2, 1.5, 0), DivergentTail,
     r"lower tail sum diverges: ratio q\^-\(1\+e\) = 1\.14\d* >= 1 \(tail exponent -1\.2\)"),
], ids=["kernel_constant-alpha", "bound_constant-alpha", "ialpha_domain", "ialpha_oracle",
        "kernel_constant-m", "apply_ialpha-window", "KernelSum-divergent"])
def test_raises_name_their_cause(call, exc, message):
    with pytest.raises(exc, match=f"^{message}$"):
        call()
