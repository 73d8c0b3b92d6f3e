"""Forward error against the decimal reference: the integral, its kernel
constants and the Picard cutoff bound, at alpha = 1 and next to it."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

import reference
from ultrafrac import (
    RadialFunction,
    RadialGrid,
    TailSpec,
    apply_ialpha,
    bound_constant,
    ialpha_oracle,
    kernel_constant,
)
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
