"""Config parsing, CSV determinism, golden files, exit codes."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from ultrafrac.cli import exit_code_for, load_config, main
from ultrafrac.errors import ConfigError, MissingBeta, NoContraction

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


def test_picard_envelope_at_n60_does_not_abort(tmp_path, capsys):
    # C^it q^(it a N) overflows a float here; the envelope is compared in logs
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


def test_domain_violation_exit_code(tmp_path, capsys):
    # upper tail grows faster than the derivative's domain allows
    cfg = write_cfg(tmp_path, "q = 2\nalpha = 0.5\nk_min = -2\nk_max = 2\n"
                              "rhs = r\nupper_tail = powerlaw:1,2\n"
                              "lower_tail = zero\n")
    assert main(["apply-d", "--config", cfg]) == 4
    assert "DomainViolation" in capsys.readouterr().err


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
