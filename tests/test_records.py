"""Value semantics of the records and expression nodes, and a light import."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ultrafrac import (
    ConditionEntry,
    ConditionReport,
    MildSolution,
    RadialFunction,
    RadialGrid,
    ResidualReport,
    RhsSpec,
    TailSpec,
    bound_constant,
    parse_expression,
)
from ultrafrac.cli import RunConfig
from ultrafrac.expr import BinOp, Call, Neg, Num, Var

SRC = Path(__file__).resolve().parent.parent / "src"


def _rhs() -> RhsSpec:
    return RhsSpec(abs, M=0.1, F=0.1, beta=1.5)  # a builtin f pickles


def frozen_records():
    grid = RadialGrid(2, -1, 1)
    entry = ConditionEntry("bound", True, "ok")
    return [
        grid,
        TailSpec(1.0, -0.5),
        RadialFunction(grid, (1.0, 2.0, 3.0), 0.0, TailSpec.constant(1.0)),
        entry,
        ConditionReport("checks", (entry,)),
        _rhs(),
        MildSolution(grid, _rhs(), 0.5, 1.0, (1.0, 1.0, 1.0), (0.0,), 0.1),
        ResidualReport((-1, 1), ((0, 0.0),), (entry,)),
        Num(1.5),
        Var("x"),
        Neg(Var("r")),
        BinOp("+", Num(1.0), Var("x")),
        Call("sin", (Var("x"),)),
    ]


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_setattr_and_delattr(record):
    before = repr(record)
    for name in record._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_equal_records_compare_and_hash_equal():
    pairs = [
        (RadialGrid(2, 0, 0), RadialGrid(2, 0, 0)),
        (TailSpec(), TailSpec.zero()),
        (TailSpec.power_law(2.0, -1.0), TailSpec(2.0, -1.0)),
        (parse_expression("-x*sin(r)^2 + max(1, q)"), parse_expression("-x*sin(r)^2 + max(1, q)")),
        (Num(1.0), Num(1.0)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)


def test_records_of_other_fields_or_types_differ():
    assert RadialGrid(2, 0, 0) != RadialGrid(3, 0, 0)
    assert TailSpec(1.0) != TailSpec(1.0, 1.0)
    assert Var("x") != Var("r") and Num(1.0) != Var("x") and Num(1.0) != 1.0
    assert parse_expression("x - 1") != parse_expression("x + 1")


def test_bound_constant_cache_is_keyed_by_grid_value():
    bound_constant.cache_clear()
    values = [bound_constant(0.5, RadialGrid(2, 0, 0)) for _ in range(3)]
    info = bound_constant.cache_info()
    assert info.currsize == 1 and info.hits == 2
    assert values[0] == values[1] == values[2]


def test_repr_names_the_fields():
    assert repr(RadialGrid(2, 0, 1)) == "RadialGrid(q=2, k_min=0, k_max=1)"
    assert repr(Neg(Num(2.0))) == "Neg(operand=Num(value=2.0))"


def test_replace_copies_through_init():
    rhs = _rhs()
    lower = rhs.replace(M=0.01)
    assert (lower.M, lower.F, lower.f) == (0.01, rhs.F, rhs.f) and rhs.M == 0.1
    with pytest.raises(ValueError, match="M must be positive"):
        rhs.replace(M=0.0)
    with pytest.raises(TypeError, match="no field"):
        rhs.replace(gamma=1.0)
    with pytest.raises(ValueError):  # the fields are set in order, all of them
        BinOp("+", Num(1.0))
    assert RadialGrid(2, 0, 1).replace(k_max=3) == RadialGrid(2, 0, 3)


def test_solution_dicts_default_to_new_ones():
    grid = RadialGrid(2, 0, 0)
    a = MildSolution(grid, _rhs(), 0.5, 1.0, (1.0,), (0.0,), 0.1)
    b = MildSolution(grid, _rhs(), 0.5, 1.0, (1.0,), (0.0,), 0.1)
    assert a.fp_iterations == {} and a.fp_iterations is not b.fp_iterations
    assert a.replace().fp_residuals is not a.fp_residuals
    with pytest.raises(TypeError):
        hash(a)  # its dicts are unhashable, as they were


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_pickle_and_copy_round_trip(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record


def test_run_config_is_an_immutable_record():
    cfg = RunConfig(q=2, alpha=0.5)
    assert (cfg.u0, cfg.tol, cfg.m_max, cfg.lower_tail) == (0.0, 1e-10, 20, "extend")
    with pytest.raises(AttributeError, match="immutable"):
        cfg.tol = 1e-6
    with pytest.raises(AttributeError, match="immutable"):
        del cfg.tol
    tighter = cfg.replace(tol=1e-6)
    assert tighter == RunConfig(2, 0.5, tol=1e-6) and tighter != cfg
    assert cfg.tol == 1e-10 and tighter.replace(tol=1e-10) == cfg
    assert hash(tighter.replace(tol=1e-10)) == hash(cfg)
    with pytest.raises(TypeError):
        RunConfig(q=2, alpha=0.5, gamma=1.0)


def test_importing_the_cli_loads_no_dataclasses():
    heavy = ("dataclasses", "inspect", "ast", "dis", "typing")
    code = f"import sys, ultrafrac.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
