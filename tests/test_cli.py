"""Config parsing, CSV determinism, golden files, exit codes."""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultrafrac.cli as cli
import ultrafrac.solver as solver
from ultrafrac.cli import _EXIT_TABLE, _csv_text, exit_code_for, load_config, main
from ultrafrac.errors import ConfigError, MissingBeta, NoContraction
from ultrafrac.expr import MAX_DEPTH
from helpers import NESTINGS, continue_by_rebuild, csv_text_by_value, picard_frontier

DATA = Path(__file__).parent / "data"

MALFORMED = [
    "",
    "(",
    ")",
    "sin(x",
    "1++2",
    "2^",
    "x y",
    "1.2.3",
    "foo(x)",
    "min(1)",
    "max(1,2,3)",
    "pow(x 2)",
    "log()",
    "*x",
    "x+",
    "sin",
    "0..5",
    "r $ x",
    "1e",
    "q(2)",
]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """q = 2
alpha = 0.5
u0 = 1
rhs = 0.1*tanh(x)*min(1, r^-2)
M = 0.1
F = 0.1
F_l = min(0.1, q^(-0.5*l)/2)
beta = 1.5
N = 0
k_min = -3
k_max = 4
tol = 1e-9
max_iter = 80
"""


def test_config_parsing(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE + "# trailing comment\n"))
    assert cfg.q == 2 and cfg.alpha == 0.5 and cfg.N == 0
    assert cfg.F_l == "min(0.1, q^(-0.5*l)/2)"
    assert cfg.m_max == 20  # documented default


@pytest.mark.parametrize("line,msg", [
    ("nonsense", "expected key"),
    ("unknown_key = 3", "unknown key"),
    ("m_max = two", "integer"),
    ("tol = fast", "number"),
    ("q = 3", "duplicate"),
    ("tol =", "empty value"),
])
def test_config_errors(tmp_path, line, msg):
    with pytest.raises(ConfigError, match=msg):
        load_config(write_cfg(tmp_path, "q = 2\nalpha = 0.5\n" + line + "\n"))


@pytest.mark.parametrize("key", ["alpha", "u0", "tol", "M", "F", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, key, value):
    lines = [line for line in BASE.splitlines() if not line.startswith(key + " ")]
    cfg = write_cfg(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]") and "finite" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_config_requires_q_and_alpha(tmp_path):
    with pytest.raises(ConfigError, match="missing required"):
        load_config(write_cfg(tmp_path, "alpha = 0.5\n"))


def test_solve_zero_rhs_writes_constant_column(tmp_path):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nu0 = 1\nrhs = 0*x\n"
                              "M = 1e-9\nF = 1e-9\nN = 0\nk_min = -3\nk_max = 3\n")
    out = tmp_path / "out.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,radius,u,mild_residual,picard_or_fp_iterations,contraction_factor"
    assert len(lines) == 8
    for line in lines[1:]:
        assert line.split(",")[2] == "1"


def test_apply_i_annihilates_one(tmp_path):
    cfg = write_cfg(tmp_path, "q = 3\nalpha = 0.5\nk_min = -6\nk_max = 6\nrhs = 1\n")
    out = tmp_path / "ai.csv"
    assert main(["apply-i", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,radius,input,output"
    for line in lines[1:]:
        assert abs(float(line.split(",")[3])) <= 1e-12


def test_apply_d_with_explicit_tails(tmp_path):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nk_min = -2\nk_max = 2\n"
                              "rhs = min(1, 1/r)\nlower_tail = constant:1\n"
                              "upper_tail = powerlaw:1,-1\n")
    out = tmp_path / "ad.csv"
    assert main(["apply-d", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_golden_solve(tmp_path):
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(DATA / "catalog_solve.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_solve.csv").read_bytes()


def test_golden_verify(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", str(DATA / "catalog_verify.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_verify.csv").read_bytes()


def test_golden_solve_n3(tmp_path):
    # N = 3: five Picard iterations that actually move the iterate
    out = tmp_path / "solve_n3.csv"
    assert main(["solve", "--config", str(DATA / "catalog_solve_n3.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_solve_n3.csv").read_bytes()


@pytest.mark.parametrize("command,golden", [("apply-d", "golden_apply_d.csv"),
                                            ("apply-i", "golden_apply_i.csv")])
def test_golden_operators(tmp_path, command, golden):
    # a constant lower tail and a decaying power-law upper one: both tail
    # closed forms and both sides of the shell sweep reach the output
    out = tmp_path / "apply.csv"
    assert main([command, "--config", str(DATA / "catalog_apply.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


CSV_ROWS = [
    (0, 0.0, -0.0, 5e-324, 7),
    (-12, 1e308, -1e308, 2.2250738585072014e-308 / 3, 10 ** 20),
    (3, math.inf, -math.inf, math.nan, -1),
    (7, 7.9999999999999982, 0.1, -1.5e-300, 0),
]


@pytest.mark.parametrize("rows", [CSV_ROWS, CSV_ROWS[:1], []])
def test_csv_rows_match_the_per_value_format(rows):
    # one format string per table against str() / %.17g value by value,
    # the header-only table included
    header = ["k", "a", "b", "c", "n"]
    assert _csv_text(header, rows).encode() == csv_text_by_value(header, rows).encode()


@pytest.mark.parametrize("command,config", [
    ("solve", "catalog_solve.cfg"), ("solve", "catalog_solve_n3.cfg"),
    ("verify", "catalog_verify.cfg")])
def test_f_is_formed_once_per_solved_shell(tmp_path, monkeypatch, command, config):
    # Picard forms f on its shells once per iteration and the continuation
    # once per fixed-point step; beyond that, each solved shell's value of f
    # is formed once and read by every later stage, except on a continued
    # shell whose last step repeated its iterate: the step formed it there
    calls = [0]
    solutions = []
    continuations = []
    make_callable = solver.make_callable

    def counting_make_callable(node, q, variables):
        fn = make_callable(node, q, variables)
        if tuple(variables) != ("r", "x"):
            return fn

        def f(r, x):
            calls[0] += 1
            return fn(r, x)
        return f

    def recording(continue_solution):
        def wrapped(*args, **kwargs):
            continuations.append((args, kwargs))
            solutions.append(continue_solution(*args, **kwargs))
            return solutions[-1]
        return wrapped

    monkeypatch.setattr(solver, "make_callable", counting_make_callable)
    monkeypatch.setattr(cli, "continue_solution", recording(cli.continue_solution))
    monkeypatch.setattr(solver, "continue_solution", recording(solver.continue_solution))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(DATA / config), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / config.replace("catalog", "golden")
                                .replace(".cfg", ".csv")).read_bytes()
    formed = calls[0]
    sol = solutions[-1]
    picard_shells = picard_frontier(sol) - sol.k_min + 1
    # the shells whose last step repeated its iterate, counted by a rebuilt
    # continuation of each stage
    repeats = 0
    for (start, k_max), kwargs in continuations:
        repeats += len(continue_by_rebuild(start, start.rhs, start.alpha, k_max, **kwargs)[2])
    assert formed == (sol.picard_iterations * picard_shells
                      + sum(sol.fp_iterations.values()) + sol.grid.size - repeats)
    if command == "verify":
        assert repeats > 0


def test_picard_at_n60_exits_0_within_tol(tmp_path, capsys):
    # rho = C F q^(a N) is about 1.6e8 here: the iterates wander for some 40
    # steps before they settle, and the converged solve still exits 0
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nu0 = 1\nrhs = 0.1*tanh(x)\n"
                              "M = 0.1\nF = 0.1\nN = 60\nk_min = 0\nk_max = 60\n"
                              "tol = 1e-9\nmax_iter = 200\n")
    out = tmp_path / "n60.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 61
    assert max(float(row[3]) for row in rows) <= 1e-9


def test_solve_residual_above_tol_exits_6(tmp_path, capsys):
    # I^a of the constant f cancels like q^(a n): the mild residual at shell
    # 40 is about 1.4e-6 although the Picard difference is exactly 0
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nu0 = 1\nrhs = 0.1*tanh(x)\n"
                              "M = 0.1\nF = 0.1\nN = 40\nk_min = 0\nk_max = 40\n"
                              "tol = 1e-9\nmax_iter = 200\n")
    out = tmp_path / "n40.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error[ToleranceNotReached]: mild residual ")
    assert "at shell 40" in err and "tol = 1e-09" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_far_decay_constant_does_not_overflow(tmp_path, capsys):
    # q^(beta l) overflows a float from shell 164 on, below the horizon 174
    cfg = write_cfg(tmp_path, "q = 5\nalpha = 1.7\nu0 = 1\n"
                              "rhs = 0.1*tanh(x)*min(1, r^-2)\nM = 0.1\nF = 0.1\n"
                              "beta = 2.7\nN = 0\nk_min = -3\nk_max = 150\n")
    out = tmp_path / "far.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 154
    assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


RANGE_CASES = {
    # the radius q^(l+1) of shell 1025 in the continuation
    "radius": ("solve", BASE.replace("k_max = 4", "k_max = 2000"), 11, "RangeExceeded"),
    # the weight q^(a k) of the running lower sums at shell 604
    "weight": ("solve", BASE.replace("alpha = 0.5", "alpha = 1.7")
               .replace("r^-2)", "r^-2.5)").replace("q^(-0.5*l)", "q^(-1.7*l)")
               .replace("beta = 1.5", "beta = 2.5").replace("k_max = 4", "k_max = 700"),
               11, "RangeExceeded"),
    # both halves of the derivative's split factor q^(-(a+1)n) at n = -800
    "dalpha-scale": ("apply-d", "q = 3\nalpha = 0.8\nrhs = min(1, r)\n"
                                "k_min = -800\nk_max = 600\n", 11, "RangeExceeded"),
    # q^-alpha rounds to 1: the kernel moments would divide by zero
    "alpha-1e-17-solve": ("solve", BASE.replace("alpha = 0.5", "alpha = 1e-17"),
                          2, "ConfigError"),
    "alpha-1e-17-constants": ("constants", "q = 2\nalpha = 1e-17\n", 2, "ConfigError"),
    # the certified cutoff lies near shell -3e13, past the float range of
    # the first Picard map's kernel factor
    "alpha-1e-12": ("solve", BASE.replace("alpha = 0.5", "alpha = 1e-12"),
                    11, "RangeExceeded"),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_out_of_range_inputs_end_in_typed_errors(tmp_path, capsys, case):
    command, text, code, name = RANGE_CASES[case]
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error[{name}]: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


OPERATOR_RANGE_CASES = {
    # D^a of the constant 1e300 is 0, but s1 and s2 overflow, to -inf and +inf
    "apply-d-nan": ("apply-d", "q = 2\nalpha = 0.5\nrhs = 1e300\nk_min = -1000\nk_max = -995\n",
                    "D^alpha u is nan at shell -1000: "),
    # the weight q^(a k) of the running lower sum at shell 513
    "apply-i-weight": ("apply-i", "q = 2\nalpha = 2\nrhs = min(1, r)\nk_min = 500\nk_max = 600\n",
                       "q^x overflows a float: q = 2, x = 1026.0"),
}


@pytest.mark.parametrize("case", sorted(OPERATOR_RANGE_CASES))
def test_operator_overflows_exit_11_with_one_line(tmp_path, capsys, case):
    command, text, message = OPERATOR_RANGE_CASES[case]
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 11
    err = capsys.readouterr().err
    assert err.startswith(f"error[RangeExceeded]: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["apply-d", "apply-i"])
@pytest.mark.parametrize("spec", ["constant:nan", "constant:inf",
                                  "powerlaw:-inf,0.5", "powerlaw:1,inf"])
@pytest.mark.parametrize("side", ["lower_tail", "upper_tail"])
def test_non_finite_tail_specs_are_config_errors(tmp_path, capsys, command, spec, side):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nrhs = min(1, r)\n"
                              f"k_min = -3\nk_max = 3\n{side} = {spec}\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[ConfigError]: bad {side} spec ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_falls_back_to_the_frontier(tmp_path, capsys):
    # the extension to the horizon diverges at shell 12; the residuals are
    # evaluated at the frontier 10 instead
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 1\nu0 = 0.5\nrhs = 0.05*x\nM = 1\n"
                              "F = 0.05\nbeta = 1.1\nN = 1\nk_min = -2\nk_max = 0\n"
                              "tol = 1e-12\n")
    out = tmp_path / "fallback.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 4


def test_non_ascii_digit_is_an_expression_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nrhs = min(1, r)*\u00b2\n"
                              "k_min = -3\nk_max = 3\n")
    out = tmp_path / "out.csv"
    assert main(["apply-d", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error[ExprSyntaxError]: malformed number literal at byte 10 (expected digit)\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["integrate", "--config", "run.cfg"], ["solve"]])
def test_bad_command_lines_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "usage: ultrafrac" in capsys.readouterr().err


APPLY = "q = 2\nalpha = 0.5\nrhs = min(1, r)\nk_min = -3\nk_max = 3\n"
HUGE_Q = "q = 1" + "0" * 400

CONFIG_ERRORS = {
    "q-1": ("solve", BASE.replace("q = 2", "q = 1")),
    "alpha-0": ("solve", BASE.replace("alpha = 0.5", "alpha = 0")),
    "tol-0": ("solve", BASE.replace("tol = 1e-9", "tol = 0")),
    "max_iter-0": ("solve", BASE.replace("max_iter = 80", "max_iter = 0")),
    "apply-d-without-rhs": ("apply-d", APPLY.replace("rhs = min(1, r)\n", "")),
    "tail-one-number": ("apply-d", APPLY + "lower_tail = powerlaw:1\n"),
    "tail-unknown": ("apply-d", APPLY + "upper_tail = foo\n"),
    "tail-not-numbers": ("apply-d", APPLY + "lower_tail = powerlaw:a,b\n"),
    "apply-d-empty-window": ("apply-d", APPLY.replace("k_min = -3", "k_min = 4")),
    "solve-empty-window": ("solve", BASE.replace("k_min = -3", "k_min = 5")),
    "m_max-negative": ("constants", "q = 2\nalpha = 0.5\nm_max = -1\n"),
    # q = 10^400: float(q) would overflow in the compiled rhs and in 1/q
    "q-beyond-float-apply-d": ("apply-d", APPLY.replace("q = 2", HUGE_Q)),
    "q-beyond-float-solve": ("solve", BASE.replace("q = 2", HUGE_Q)),
    "q-beyond-float-constants": ("constants", HUGE_Q + "\nalpha = 0.5\n"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_branches_exit_2(tmp_path, capsys, case):
    command, text = CONFIG_ERRORS[case]
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 comment: the byte 0xe9 of "caf\u00e9" at position 5 is not UTF-8
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\u00e9\nq = 2\nalpha = 0.5\n".encode("latin-1"))
    out = tmp_path / "out.csv"
    assert main(["constants", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error[ConfigError]: config {path} is not UTF-8: 'utf-8' codec can't "
                   "decode byte 0xe9 in position 5: invalid continuation byte\n")
    assert not out.exists()


def test_largest_float_q_passes_the_config_check(tmp_path):
    cfg = write_cfg(tmp_path, f"q = {int(sys.float_info.max)}\nalpha = 0.5\n")
    assert load_config(cfg).q == int(sys.float_info.max)


def test_deep_cutoff_inside_float_range_still_solves(tmp_path, capsys):
    # tol = 1e-300 puts the certified cutoff at shell -1997, where the kernel
    # factor q^((a-1) k) is still a finite float
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nu0 = 1\nrhs = 0.1*tanh(x)\n"
                              "M = 0.1\nF = 0.1\nN = 0\nk_min = -3\nk_max = 3\n"
                              "tol = 1e-300\n")
    out = tmp_path / "deep.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 8


def test_apply_d_wide_window_q3(tmp_path):
    # the lower-sum scale factor q^(-(a+1)n) alone overflows at n = -400
    cfg = write_cfg(tmp_path, "q = 3\nalpha = 0.8\nrhs = min(1, r)\n"
                              "k_min = -400\nk_max = 399\n")
    out = tmp_path / "ad.csv"
    assert main(["apply-d", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 800
    assert all(math.isfinite(float(row.split(",")[3])) for row in rows)


def test_verify_reproduces_solve_u_column(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    s, v = tmp_path / "s.csv", tmp_path / "v.csv"
    assert main(["solve", "--config", cfg, "--out", str(s)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(v)]) == 0
    u_solve = [line.split(",")[2] for line in s.read_text().splitlines()[1:]]
    u_verify = [line.split(",")[2] for line in v.read_text().splitlines()[1:]]
    assert u_solve == u_verify


def test_constants_command(tmp_path):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nm_max = 20\n")
    out = tmp_path / "c.csv"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,d_alpha_m,d_alpha_m_times_q_alpha_m"
    assert len(lines) == 22
    scaled = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(v <= 1.1 * max(scaled[:6]) for v in scaled)
    assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])


def test_constants_at_large_alpha(tmp_path):
    # at q = 2 and large a, d_{a,m} is 2^-(2 + a m) up to rounding for m >= 1
    # (2^-902 at a = 300, m = 3), and 0.5 at m = 0
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 300\nm_max = 3\n")
    out = tmp_path / "c.csv"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    m, d, scaled = out.read_text().splitlines()[-1].split(",")
    assert m == "3"
    assert float(d) == pytest.approx(2.0 ** -902, rel=1e-12)
    assert float(scaled) == pytest.approx(0.25, rel=1e-12)
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 2000\nm_max = 0\n")
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == "m,d_alpha_m,d_alpha_m_times_q_alpha_m\n0,0.5,0.5\n"


def test_constants_scaled_column_past_the_float_range_of_q_alpha_m(tmp_path):
    # q^(a m) = 2^1200 is no float, but d_{a,m} q^(a m) = 0.25 is
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 600\nm_max = 2\n")
    out = tmp_path / "c.csv"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [float(line.split(",")[2]) for line in lines[1:]] == pytest.approx(
        [0.5, 0.25, 0.25], rel=1e-12)


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_expressions_exit_3(tmp_path, bad, capsys):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nu0 = 1\n"
                              f"rhs = {bad}\n"
                              "M = 0.1\nF = 0.1\nN = 0\nk_min = -2\nk_max = 2\n")
    rc = main(["solve", "--config", cfg])
    captured = capsys.readouterr()
    if bad == "":
        # an empty value is a config error, still nonzero and crash free
        assert rc == 2
    else:
        assert rc == 3
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_rhs_nesting_limit(tmp_path, capsys, kind, command):
    # the catalog form 0.1*tanh(X)*min(1, r^-2) is three levels above X
    def config(depth):
        rhs = f"0.1*tanh({NESTINGS[kind][0](depth - 3)})*min(1, r^-2)"
        return write_cfg(tmp_path, BASE.replace("0.1*tanh(x)*min(1, r^-2)", rhs),
                         name=f"depth{depth}.cfg")

    out = tmp_path / "out.csv"
    assert main([command, "--config", config(MAX_DEPTH), "--out", str(out)]) == 0
    assert out.exists() and capsys.readouterr().err == ""
    out.unlink()
    assert main([command, "--config", config(MAX_DEPTH + 1), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[ExprSyntaxError]: expression nested deeper than {MAX_DEPTH} "
                          "levels at byte ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_exit_codes_map(tmp_path, capsys):
    # missing beta -> verification precondition code
    cfg = write_cfg(tmp_path, BASE.replace("beta = 1.5\n", ""))
    assert main(["verify", "--config", cfg]) == 8
    assert "MissingBeta" in capsys.readouterr().err
    # no contraction at a too-large frontier
    cfg2 = write_cfg(tmp_path, BASE.replace("F = 0.1", "F = 4.5").replace(
        "rhs = 0.1*tanh(x)*min(1, r^-2)",
        "rhs = 0.9*sin(5*x)*(0.5 + 0.5*min(1, r))").replace("N = 0", "N = 2"),
        name="nc.cfg")
    assert main(["solve", "--config", cfg2]) == 6
    err = capsys.readouterr().err
    assert "NoContraction" in err
    # missing config file
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()
    assert exit_code_for(MissingBeta("x")) == 8
    assert exit_code_for(NoContraction("x")) == 6
    assert exit_code_for(OSError()) == 10
    assert exit_code_for(RuntimeError()) == 1


def test_exit_code_table_matches_readme():
    # every code the CLI can return has a row in the README, and no row is stale
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| ")][1:]
    documented = {int(line.split("|")[1]) for line in rows}
    assert documented == {0, 1, 10} | {code for _, code in _EXIT_TABLE}


def test_verify_exits_12_when_a_declared_constant_fails(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert main(["verify", "--config", str(DATA / "understated_m.cfg"),
                 "--out", str(out)]) == 12
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[DeclarationViolated]: uniform bound M fails: ")
    assert "at shell 0; declared M = 0.001" in err
    assert not out.exists()


def test_solve_exits_12_when_M_is_understated(tmp_path, capsys):
    # the Picard cutoff is sized from M, so solve checks it too
    out = tmp_path / "s.csv"
    assert main(["solve", "--config", str(DATA / "understated_m.cfg"),
                 "--out", str(out)]) == 12
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[DeclarationViolated]: uniform bound M fails: ")
    assert "at shell 0; declared M = 0.001" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1.0001", "1.000000001"])
def test_catalog_solve_next_to_alpha_one(tmp_path, capsys, alpha):
    # one kernel for every alpha: no kernel-constant failure next to 1, and
    # the solution moves with alpha by no more than |alpha - 1|
    text = (DATA / "catalog_solve.cfg").read_text(encoding="utf-8")
    rows = {}
    for a in ("1", alpha):
        cfg = write_cfg(tmp_path, text.replace("alpha = 0.5", f"alpha = {a}"))
        out = tmp_path / f"a{a}.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows[a] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert capsys.readouterr().err == ""
    assert len(rows[alpha]) == 8
    for near, at_one in zip(rows[alpha], rows["1"]):
        assert float(near[3]) <= 1e-9
        assert abs(float(near[2]) - float(at_one[2])) <= abs(float(alpha) - 1.0)


def test_nonpositive_constants_are_config_errors(tmp_path, capsys):
    for line in ("M = 0", "M = -1", "F = 0"):
        key = line.split()[0]
        text = "".join(f"{line}\n" if row.startswith(key + " =") else row + "\n"
                       for row in BASE.splitlines())
        cfg = write_cfg(tmp_path, text)
        for command in ("solve", "verify"):
            assert main([command, "--config", cfg]) == 2, line
            err = capsys.readouterr().err
            assert err.startswith(f"error[ConfigError]: {key} must be positive"), err


def test_domain_violation_exit_code(tmp_path, capsys):
    # upper tail grows faster than the derivative's domain allows
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nk_min = -2\nk_max = 2\n"
                              "rhs = r\nupper_tail = powerlaw:1,2\n"
                              "lower_tail = zero\n")
    assert main(["apply-d", "--config", cfg]) == 4
    assert "DomainViolation" in capsys.readouterr().err


# full stderr lines of the two operators' domain failures; the report text
# is the operator's own domain check, whitespace-joined onto one line
DOMAIN_ERRORS = {
    "apply-d": ("upper_tail = powerlaw:1,2\nlower_tail = zero\n",
                "error[DomainViolation]: input is outside the derivative's domain: "
                "[dalpha_domain] FAILED pass lower sum q^k |u|: tail vanishes "
                "FAIL upper sum q^(-a l) |u|: exponent < 0.5; tail exponent is 2\n"),
    "apply-i": ("lower_tail = powerlaw:1,-0.9\n",
                "error[DomainViolation]: input is outside the integral's domain: "
                "[ialpha_domain] FAILED FAIL lower sum max(q^k, q^(a k)) |u|: "
                "exponent > -0.5; tail exponent is -0.9\n"),
}


@pytest.mark.parametrize("command", sorted(DOMAIN_ERRORS))
def test_domain_violation_messages_are_kept(tmp_path, capsys, command):
    tails, line = DOMAIN_ERRORS[command]
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nk_min = -2\nk_max = 2\nrhs = r\n" + tails)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("bad\nvalue")],
                         ids=["RuntimeError", "ValueError"])
def test_unexpected_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "run", fail)
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\n")
    assert main(["constants", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error[") == 1
    assert err == f"error[{type(exc).__name__}]: {' '.join(str(exc).split())}\n"


def test_contraction_failure_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nu0 = 0.3\n"
                              "rhs = 0.9*sin(5*x)*(0.5 + 0.5*min(1, r))\n"
                              "M = 0.9\nF = 4.5\nF_l = 4.5\n"
                              "N = -6\nk_min = -8\nk_max = 6\ntol = 1e-11\n")
    assert main(["solve", "--config", cfg]) == 7
    assert "ContractionFailure" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path):
    import os
    import subprocess
    import sys

    import ultrafrac

    # the child imports the package from where this process found it
    src = str(Path(ultrafrac.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nm_max = 3\n")
    proc = subprocess.run([sys.executable, "-m", "ultrafrac", "constants",
                           "--config", cfg], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("m,d_alpha_m")


def test_stdout_when_no_out_given(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nm_max = 2\n")
    assert main(["constants", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("m,d_alpha_m")
    assert out.endswith("\n")


def test_out_key_in_config(tmp_path):
    dest = tmp_path / "via_config.csv"
    cfg = write_cfg(tmp_path, f"q = 2\nalpha = 0.5\nm_max = 2\nout = {dest}\n")
    assert main(["constants", "--config", cfg]) == 0
    assert dest.exists()


FUZZ_APPLY = ["min(1, r)", "0.5*min(1, r^-1.5)", "sin(r)*min(r, r^-2)", "1 - min(1, r)"]
FUZZ_RHS = (["0.1*tanh(x)*min(1, r^-2)", "0.05*x", "0.1*sin(x + 1.3)", "min(1, r)"],
            ["log(x)", "1/(x - 1)", "r^-2", "exp(r)", "(0-x)^0.5", "min(1, r)*\u00b2",
             "2\u00b2*x", "1e999*x", "x +", "sqrt(x)"])
FUZZ_TAILS = (["extend", "zero", "constant:0.5", "powerlaw:1,-0.5", "powerlaw:1,0.5",
               "powerlaw:-2,1.5"],
              ["constant:nan", "powerlaw:1,inf", "powerlaw:1", "foo"])


def _mostly(pools):
    """Mostly a draw from the first pool, sometimes from the second."""
    good, bad = pools
    return st.sampled_from(good * 3 + bad)


def _rarely_nonpositive(good):
    """Mostly a draw from ``good``, sometimes zero or a negative value."""
    return st.integers(0, 7).flatmap(
        lambda i: good if i else st.sampled_from([0.0, -1.0]))


@st.composite
def fuzz_configs(draw):
    command = draw(st.sampled_from(["apply-d", "apply-i", "solve", "verify", "constants"]))
    k_min = draw(st.one_of(st.integers(-12, 6), st.integers(-3000, 3000)))
    # the Picard stage runs up to N: near the window, so the work stays bounded
    near = st.integers(-3, 1) if -40 <= k_min <= 0 else st.just(k_min)
    alpha = draw(st.one_of(st.sampled_from([1e-8, 0.5, 1.0, 1.0 + 1e-11, 1.7]),
                           st.floats(0.05, 4.0)))
    cfg = {
        "q": draw(st.sampled_from([2, 3, 5, 7, 11])),
        "alpha": alpha,
        "u0": draw(st.floats(-2.0, 2.0)),
        "k_min": k_min,
        "k_max": k_min + draw(st.integers(-1, 39)),
        "N": draw(near) + draw(st.integers(-2, 2)),
        "tol": draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3])),
        "max_iter": draw(st.integers(1, 300)),
        "rhs": draw(_mostly((FUZZ_APPLY, FUZZ_RHS[1]) if command.startswith("apply")
                            else FUZZ_RHS)),
        "M": draw(_rarely_nonpositive(st.floats(1e-3, 1.0))),
        "F": draw(_rarely_nonpositive(st.floats(1e-3, 0.3))),
        "beta": draw(st.one_of(st.none(), st.floats(-0.5, 2.0).map(lambda d: alpha + d))),
        "F_l": draw(st.sampled_from([None, "min(0.1, q^(-0.5*l)/2)", "1e-6", "log(l)"])),
        "lower_tail": draw(_mostly(FUZZ_TAILS)),
        "upper_tail": draw(_mostly(FUZZ_TAILS)),
        "m_max": draw(st.integers(0, 40)),
    }
    if command in ("solve", "verify") and draw(st.booleans()):
        del cfg["k_max"]                 # solve and verify report up to N
    return command, {k: v for k, v in cfg.items() if v is not None}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzz_configs())
def test_every_accepted_config_ends_in_a_result_or_a_documented_exit(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                                for k, v in cfg.items()), encoding="utf-8")
        out = Path(tmp) / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main([command, "--config", str(path), "--out", str(out)])
        err = stderr.getvalue()
        if rc != 0:
            assert rc in {code for _, code in _EXIT_TABLE}, err
            assert err.count("\n") == 1 and err.startswith("error[")
            assert "Traceback" not in err
            assert not out.exists()
            return
        assert err == ""
        rows = out.read_text().splitlines()[1:]
        if command == "constants":
            want = cfg.get("m_max", 20) + 1
        else:
            want = cfg.get("k_max", cfg["N"]) - cfg["k_min"] + 1
        assert len(rows) == want


def test_run_rejects_an_unknown_command(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    with pytest.raises(ConfigError) as info:
        cli.run(cfg, "integrate", str(tmp_path / "out.csv"))
    assert str(info.value) == ("unknown command 'integrate'; expected one of "
                               "('apply-d', 'apply-i', 'solve', 'verify', 'constants')")
    assert not (tmp_path / "out.csv").exists()
