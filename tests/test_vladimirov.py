"""Shell-series derivative vs the hypersingular-integral oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrafrac import (
    DomainViolation,
    RadialFunction,
    RadialGrid,
    TailSpec,
    apply_dalpha,
    apply_ialpha,
    dalpha_domain,
    dalpha_oracle,
    diag_coeff,
    fit_upper_tail,
    qpow,
    theta,
)
from helpers import (
    bits,
    compact,
    constant_function,
    dalpha_by_shell,
    fit_power_tails,
    indicator_unit_ball,
    left_inverse_conditions,
    random_compact,
    right_inverse_conditions,
)


def test_theta_printed_values():
    assert theta(1.0, 2) == pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert theta(2.0, 3) == pytest.approx(-108.0 / 13.0, rel=1e-14)


def test_theta_vanishes_as_alpha_goes_to_zero():
    for q in (2, 3, 5):
        bound = 1e-7 * math.log(q) * q / (q - 1.0) * 2.0
        assert abs(theta(1e-8, q)) < bound


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(1e-6, 10.0), q=st.sampled_from([2, 3, 5, 7, 11]))
def test_coefficient_signs(alpha, q):
    assert theta(alpha, q) < 0.0
    assert diag_coeff(alpha, q) > 0.0


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.5])
def test_annihilates_constants(q, alpha):
    c = -2.75
    out = apply_dalpha(constant_function(q, c), alpha, (-15, 15))
    th = abs(theta(alpha, q))
    for n, v in zip(range(-15, 16), out.values):
        assert abs(v) <= 1e-12 * abs(c) * th * qpow(q, -alpha * n)


def test_zero_function_maps_to_zero():
    z = compact(3, -2, [0.0] * 5)
    out = apply_dalpha(z, 0.7)
    assert all(v == 0.0 for v in out.values)
    assert all(dalpha_oracle(z, 0.7, n) == 0.0 for n in range(-4, 5))


@pytest.mark.parametrize("q,alpha", [(2, 0.5), (3, 0.5), (2, 1.7), (5, 1.0)])
def test_indicator_of_unit_ball(q, alpha):
    # above the support only the lower series survives and the measure
    # factor cancels: value is theta * q^(-(alpha+1) n)
    out = apply_dalpha(indicator_unit_ball(q), alpha, (1, 6))
    th = (1.0 - q ** alpha) / (1.0 - q ** (-alpha - 1.0))
    for n, v in zip(range(1, 7), out.values):
        assert v == pytest.approx(th * q ** (-(alpha + 1.0) * n), rel=1e-12)


def test_single_shell_bump_reproduces_diagonal_coefficient():
    # oracle evaluated on the bump's own shell must produce the series'
    # middle factor, computed here from first principles
    q, alpha = 5, 1.0
    bump = compact(q, 0, [1.0])
    want = q ** (-1.0) * (q ** alpha + q - 2.0) / (1.0 - q ** (-alpha - 1.0))
    assert dalpha_oracle(bump, alpha, 0) == pytest.approx(want, rel=1e-13)
    assert apply_dalpha(bump, alpha, (0, 0)).values[0] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
def test_oracle_equivalence_random_compact(q, alpha):
    rnd = random.Random(hash((q, int(alpha * 10))) & 0xFFFF)
    for _ in range(12):
        u = random_compact(rnd, q)
        a, b = u.grid.k_min, u.grid.k_max
        series = apply_dalpha(u, alpha, (a - 5, b + 5))
        for n in range(a - 5, b + 6):
            want = dalpha_oracle(u, alpha, n)
            assert abs(series.eval(n) - want) <= 1e-10 * (1.0 + abs(want))


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from([2, 3, 5]),
       alpha=st.sampled_from([0.5, 1.0, 1.7]),
       k_min=st.integers(-5, 2),
       vals=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12),
       offset=st.integers(-4, 4))
def test_series_matches_oracle_property(q, alpha, k_min, vals, offset):
    u = compact(q, k_min, vals)
    n = k_min + offset
    want = dalpha_oracle(u, alpha, n)
    got = apply_dalpha(u, alpha, (n, n)).values[0]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


_TAIL_C = st.sampled_from([0.0]) | st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 5]),
       alpha=st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.5]),
       c_lo=_TAIL_C, e_lo=st.sampled_from([0.0]) | st.floats(-0.9, 2.0),
       c_up=_TAIL_C, e_up=st.sampled_from([0.0]) | st.floats(-2.0, 0.25),
       vals=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       k_min=st.integers(-8, 5),
       where=st.sampled_from(["below", "across", "above"]),
       offset=st.integers(0, 6), span=st.integers(0, 10))
def test_dalpha_matches_per_shell_reference_bitwise(q, alpha, c_lo, e_lo, c_up, e_up,
                                                    vals, k_min, where, offset, span):
    # the derivative against per-shell qpow runs of both sums and a qpow call
    # per power, on output windows below, across and above the input
    u = RadialFunction.from_values(q, k_min, vals, lower_tail=TailSpec(c_lo, e_lo),
                                   upper_tail=TailSpec(c_up, e_up))
    k_max = u.grid.k_max
    n_lo, n_hi = {"below": (k_min - 1 - offset - span, k_min - 1 - offset),
                  "across": (k_min - offset, k_max + offset + span),
                  "above": (k_max + 1 + offset, k_max + 1 + offset + span)}[where]
    got = apply_dalpha(u, alpha, (n_lo, n_hi)).values
    assert bits(got) == bits(dalpha_by_shell(u, alpha, (n_lo, n_hi)))


@pytest.mark.parametrize("op", [apply_dalpha, apply_ialpha])
def test_operators_cost_linear_in_the_width(op, monkeypatch):
    # counts, not timings: at 4x the width a linear operator makes about 4x
    # the exp calls (one per power, inlined or through qpow) and a quadratic
    # one about 16x; at least one per output shell, or the count misses them
    calls = 0
    exp = math.exp

    def counting_exp(x):
        nonlocal calls
        calls += 1
        return exp(x)

    monkeypatch.setattr(math, "exp", counting_exp)
    rnd = random.Random(5)
    cost = {}
    for width in (100, 400):
        u = compact(2, -width // 2, [rnd.uniform(-1.0, 1.0) for _ in range(width)])
        calls = 0
        op(u, 0.5)
        cost[width] = calls
    assert cost[100] >= 100
    assert cost[400] <= 4.5 * cost[100]


def test_wide_window_matches_oracle():
    q, alpha = 2, 0.5
    rnd = random.Random(8)
    u = compact(q, -400, [rnd.uniform(-1.0, 1.0) for _ in range(800)])
    out = apply_dalpha(u, alpha)
    for n in (-400, -137, 126, 399):
        want = dalpha_oracle(u, alpha, n)
        assert out.eval(n) == pytest.approx(want, rel=1e-8)


def _dilate(u, s):
    """u(q^s .): the same shell values on the window moved down by s shells."""
    grid = RadialGrid(u.grid.q, u.grid.k_min - s, u.grid.k_max - s)
    return RadialFunction(grid, u.values, u.value_at_zero, u.lower_tail, u.upper_tail)


def test_lower_scale_factor_overflow_wide_window():
    # at q = 3, a = 0.8 the factor q^(-(a+1)n) alone overflows at n = -400
    # although D^a u is representable; checked by the exact dilation
    # covariance (D^a u)(q^n) = q^(-a s) (D^a u(q^s .))(q^(n-s)), with a
    # shift that keeps every factor of the reference in range
    q, a, s = 3, 0.8, -300
    vals = [min(1.0, qpow(q, k)) for k in range(-400, 400)]
    u = RadialFunction.from_values(q, -400, vals, value_at_zero=vals[0],
                                   lower_tail=TailSpec.constant(vals[0]),
                                   upper_tail=TailSpec.constant(vals[-1]))
    out = apply_dalpha(u, a)
    assert all(math.isfinite(v) for v in out.values)
    ref = apply_dalpha(_dilate(u, s), a, (-400 - s, -380 - s))
    for n, r in zip(range(-400, -379), ref.values):
        assert out.eval(n) == pytest.approx(qpow(q, -a * s) * r, rel=1e-10)


def test_lower_scale_factor_underflow_keeps_shift_covariance():
    # at q = 3, a = 1.7 the same factor underflows near the top of a window
    # anchored at -60; every shell must still obey the dilation covariance
    q, a, s = 3, 1.7, 150
    rnd = random.Random(3)
    u = compact(q, -60, [rnd.uniform(-1.0, 1.0) for _ in range(400)])
    out = apply_dalpha(u, a)
    ref = apply_dalpha(_dilate(u, s), a)
    scale = qpow(q, -a * s)
    for got, r in zip(out.values, ref.values):
        want = scale * r
        assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1e-300)


def test_oracle_rejects_functions_with_tails():
    with pytest.raises(DomainViolation):
        dalpha_oracle(constant_function(2, 1.0), 0.5, 0)


def test_domain_violation_raised():
    grow = RadialFunction.from_values(
        2, 0, [1.0], value_at_zero=0.0, upper_tail=TailSpec.power_law(1.0, 2.0))
    with pytest.raises(DomainViolation):
        apply_dalpha(grow, 0.5)
    steep = RadialFunction.from_values(
        2, 0, [1.0], value_at_zero=0.0, lower_tail=TailSpec.power_law(1.0, -1.5))
    with pytest.raises(DomainViolation):
        apply_dalpha(steep, 0.5)


def test_linearity_on_compact_functions():
    rnd = random.Random(42)
    for q, alpha in ((2, 0.5), (3, 1.0), (5, 1.7)):
        u = random_compact(rnd, q, lo_range=(-4, 0))
        v = random_compact(rnd, q, lo_range=(-4, 0))
        a, b = 1.3, -0.7
        lo = min(u.grid.k_min, v.grid.k_min)
        hi = max(u.grid.k_max, v.grid.k_max)
        combo_vals = [a * u.eval(k) + b * v.eval(k) for k in range(lo, hi + 1)]
        combo = compact(q, lo, combo_vals)
        out = apply_dalpha(combo, alpha, (lo - 3, hi + 3))
        du = apply_dalpha(u, alpha, (lo - 3, hi + 3))
        dv = apply_dalpha(v, alpha, (lo - 3, hi + 3))
        for x, y, z in zip(out.values, du.values, dv.values):
            want = a * y + b * z
            assert abs(x - want) <= 1e-12 * (1.0 + abs(want))


def test_default_window_matches_input():
    u = compact(2, -2, [1.0, 2.0, 3.0])
    out = apply_dalpha(u, 0.5)
    assert (out.grid.k_min, out.grid.k_max) == (-2, 0)
    assert out.lower_tail.is_null() and out.upper_tail.is_null()
    assert out.value_at_zero == 0.0


def test_fit_power_tails_recovers_exact_power_laws():
    q = 3
    vals = [2.0 * qpow(q, 0.8 * k) for k in range(-4, 5)]
    f = RadialFunction.from_values(q, -4, vals, value_at_zero=0.0)
    fitted = fit_power_tails(f)
    assert fitted.lower_tail.e == pytest.approx(0.8, abs=1e-12)
    assert fitted.lower_tail.c == pytest.approx(2.0, rel=1e-12)
    assert fitted.upper_tail.e == pytest.approx(0.8, abs=1e-12)
    # zero edge gives a zero tail; constant data gives a flat tail
    z = RadialFunction.from_values(q, 0, [0.0, 1.0])
    assert fit_power_tails(z).lower_tail.is_null()
    c = RadialFunction.from_values(q, 0, [4.0, 4.0], value_at_zero=4.0)
    assert fit_power_tails(c).upper_tail.eval(q, 9) == 4.0


@pytest.mark.parametrize("alpha,d,h", [
    (0.5, 0.3, 0.2), (0.5, 0.8, 0.0), (1.0, 0.4, 0.5),
    (1.7, 0.9, 0.3), (2.5, 1.8, 1.2),
])
def test_derivative_decay_matches_left_inverse_hypotheses(alpha, d, h):
    # with admissible (d, h) tails the derivative's fitted tails satisfy the
    # right-inverse summability conditions
    q = 3
    u = RadialFunction.from_values(
        q, -15, [qpow(q, d * k) if k <= 0 else qpow(q, h * k)
                 for k in range(-15, 16)],
        value_at_zero=0.0,
        lower_tail=TailSpec.power_law(1.0, d),
        upper_tail=TailSpec.power_law(1.0, h))
    assert left_inverse_conditions(u, alpha).ok
    w = apply_dalpha(u, alpha, (-15, 15))
    w_fit = fit_power_tails(w)
    assert right_inverse_conditions(w_fit, alpha).ok


_U = compact(2, -1, [1.0, -0.5, 2.0])


@pytest.mark.parametrize("call,message", [
    (lambda: theta(0.0, 2), r"alpha must be positive, got 0\.0"),
    (lambda: diag_coeff(-1.0, 3), r"alpha must be positive, got -1\.0"),
    (lambda: dalpha_domain(_U, 0.0), r"alpha must be positive, got 0\.0"),
    (lambda: dalpha_oracle(_U, -0.5, 0), r"alpha must be positive, got -0\.5"),
    (lambda: apply_dalpha(_U, 0.5, (3, 2)), r"empty output window \[3, 2\]"),
    (lambda: fit_upper_tail(compact(2, 0, [1.0])),
     r"tail fitting needs at least two window values"),
], ids=["theta", "diag_coeff", "dalpha_domain", "dalpha_oracle", "apply_dalpha-window",
        "fit_upper_tail-one-shell"])
def test_raises_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("edge", [0.0, -0.0])
def test_fit_upper_tail_of_a_zero_edge_is_zero(edge):
    fitted = fit_upper_tail(compact(3, -2, [1.0, 2.0, edge]).replace(
        upper_tail=TailSpec.constant(5.0)))
    assert fitted.upper_tail == TailSpec.zero()
    assert fitted.values == (1.0, 2.0, edge)
