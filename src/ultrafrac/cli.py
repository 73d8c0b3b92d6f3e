"""Command-line front end: flat key=value configs in, CSV reports out.

Commands: apply-d, apply-i, solve, verify, constants.  Output is
deterministic (fixed 17-significant-digit float formatting, LF endings),
so identical configs produce byte-identical files.  Every module error
maps to a documented nonzero exit code with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    ConfigError,
    ContractionFailure,
    DeclarationViolated,
    DivergentTail,
    DomainViolation,
    ExpressionError,
    MarginTooSmall,
    MissingBeta,
    NoContraction,
    RangeExceeded,
    ToleranceNotReached,
)
from .expr import make_callable, parse_expression
from .fracint import apply_ialpha, kernel_constant
from .grid import RadialFunction, RadialGrid, TailSpec, qpow
from .record import Record
from .solver import (
    _VERIFY_MARGIN,
    MildSolution,
    ResidualReport,
    RhsSpec,
    continue_solution,
    mild_residuals,
    picard_solve,
    verify_strict,
)
from .vladimirov import apply_dalpha

__all__ = ["RunConfig", "load_config", "run", "main", "main_entry", "exit_code_for"]

_COMMANDS = ("apply-d", "apply-i", "solve", "verify", "constants")

_INT_KEYS = ("q", "k_min", "k_max", "N", "max_iter", "m_max")
_FLOAT_KEYS = ("alpha", "u0", "tol", "M", "F", "beta")
_STR_KEYS = ("rhs", "F_l", "out", "lower_tail", "upper_tail")


class RunConfig(Record):
    """One run's parameters; unset optionals fall back to defaults."""

    __slots__ = ("q", "alpha", "u0", "k_min", "k_max", "N", "tol", "max_iter", "rhs",
                 "M", "F", "F_l", "beta", "out", "lower_tail", "upper_tail", "m_max")

    def __init__(self, q: int, alpha: float, u0: float = 0.0, k_min: int | None = None,
                 k_max: int | None = None, N: int | None = None, tol: float = 1e-10,
                 max_iter: int = 200, rhs: str | None = None, M: float | None = None,
                 F: float | None = None, F_l: str | None = None, beta: float | None = None,
                 out: str | None = None, lower_tail: str = "extend",
                 upper_tail: str = "extend", m_max: int = 20) -> None:
        Record.__init__(self, q, alpha, u0, k_min, k_max, N, tol, max_iter, rhs, M, F,
                        F_l, beta, out, lower_tail, upper_tail, m_max)


def load_config(path: str) -> RunConfig:
    """Parse a flat key = value config file (UTF-8, # comments)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _INT_KEYS + _FLOAT_KEYS + _STR_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        seen[key] = value

    kwargs: dict[str, object] = {}
    for key, value in seen.items():
        if key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"key {key!r} needs an integer, got {value!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"key {key!r} needs a number, got {value!r}") from None
            if not math.isfinite(number):
                raise ConfigError(f"key {key!r} needs a finite number, got {value!r}")
            kwargs[key] = number
        else:
            kwargs[key] = value
    for required in ("q", "alpha"):
        if required not in kwargs:
            raise ConfigError(f"config {path} is missing required key {required!r}")
    cfg = RunConfig(**kwargs)  # type: ignore[arg-type]
    if cfg.q < 2:
        raise ConfigError(f"q must be an integer >= 2, got {cfg.q}")
    if cfg.q > sys.float_info.max:
        raise ConfigError(f"q must fit in a float, got an integer of {len(str(cfg.q))} digits")
    if cfg.alpha <= 0.0:
        raise ConfigError(f"alpha must be positive, got {cfg.alpha}")
    if qpow(cfg.q, -cfg.alpha) == 1.0:
        raise ConfigError(f"alpha = {cfg.alpha!r} is too small: q^-alpha rounds to 1")
    if cfg.tol <= 0.0:
        raise ConfigError("tol must be positive")
    if cfg.max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    if cfg.m_max < 0:
        raise ConfigError(f"m_max must be >= 0, got {cfg.m_max}")
    return cfg


def _require(cfg: RunConfig, command: str, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"command {command} needs config key {name!r}")


def _parse_tail(text: str, edge_value: float, which: str) -> TailSpec:
    t = text.strip()
    if t == "extend":
        return TailSpec.constant(edge_value)
    if t == "zero":
        return TailSpec.zero()
    if t.startswith("constant:"):  # constant:c is powerlaw:c,0
        parts = [t.split(":", 1)[1], "0"]
    elif t.startswith("powerlaw:"):
        parts = t.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad {which} spec {text!r}: need powerlaw:c,e")
    else:
        raise ConfigError(
            f"bad {which} spec {text!r}: use extend, zero, constant:c or powerlaw:c,e")
    try:
        return TailSpec.power_law(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad {which} spec {text!r}: {exc}") from None


def _input_function(cfg: RunConfig, command: str) -> RadialFunction:
    _require(cfg, command, "k_min", "k_max", "rhs")
    if cfg.k_min > cfg.k_max:
        raise ConfigError(f"k_min = {cfg.k_min} exceeds k_max = {cfg.k_max}")
    node = parse_expression(cfg.rhs, ("r",))
    fn = make_callable(node, cfg.q, ("r",))
    values = [fn(qpow(cfg.q, k)) for k in range(cfg.k_min, cfg.k_max + 1)]
    lower = _parse_tail(cfg.lower_tail, values[0], "lower_tail")
    upper = _parse_tail(cfg.upper_tail, values[-1], "upper_tail")
    grid = RadialGrid(cfg.q, cfg.k_min, cfg.k_max)
    return RadialFunction(grid, tuple(values), lower_tail=lower, upper_tail=upper)


def _build_rhs(cfg: RunConfig, command: str) -> RhsSpec:
    _require(cfg, command, "rhs", "M", "F")
    try:
        return RhsSpec.from_expressions(cfg.rhs, cfg.M, cfg.F, cfg.q,
                                        cfg.F_l, cfg.beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _solve_pipeline(cfg: RunConfig, command: str, extend_to: int) -> MildSolution:
    sol = picard_solve(_build_rhs(cfg, command), cfg.u0, cfg.alpha, cfg.q, cfg.N,
                       k_min=cfg.k_min - _VERIFY_MARGIN,
                       tol=cfg.tol, max_iter=cfg.max_iter)
    return continue_solution(sol, extend_to, tol=cfg.tol, max_iter=cfg.max_iter)


def _failed_checks(report: ResidualReport) -> str:
    return "; ".join(f"{c.name} fails: {c.detail}" for c in report.checks if not c.passed)


def _report_window(cfg: RunConfig) -> tuple[int, int]:
    k_max = cfg.k_max if cfg.k_max is not None else cfg.N
    if cfg.k_min > k_max:
        raise ConfigError(f"k_min = {cfg.k_min} exceeds k_max = {k_max}")
    return cfg.k_min, k_max


def _render(cfg: RunConfig, command: str) -> tuple[list[str], list[tuple]]:
    if command in ("apply-d", "apply-i"):
        u = _input_function(cfg, command)
        window = (cfg.k_min, cfg.k_max)
        op = apply_dalpha if command == "apply-d" else apply_ialpha
        w = op(u, cfg.alpha, window)
        rows = [(k, qpow(cfg.q, k), u.values[i], w.values[i])
                for i, k in enumerate(range(window[0], window[1] + 1))]
        return ["k", "radius", "input", "output"], rows

    if command == "solve":
        _require(cfg, command, "N", "k_min")
        k_lo, k_hi = _report_window(cfg)
        sol = _solve_pipeline(cfg, command, k_hi)
        report = mild_residuals(sol)
        if not report.ok:
            raise DeclarationViolated(_failed_checks(report))
        lo, hi = k_lo - sol.k_min, k_hi - sol.k_min + 1
        mild = report.residuals[lo:hi]
        worst, shell = max((r, k) for k, r in mild)
        if worst > cfg.tol:
            raise ToleranceNotReached(
                f"mild residual {worst:.3g} at shell {shell} exceeds tol = {cfg.tol:g}")
        its, picard_its = sol.fp_iterations.get, sol.picard_iterations
        factor, rho = sol.contraction_factors.get, sol.predicted_rho
        rows = [(k, qpow(cfg.q, k), u, r, its(k, picard_its), factor(k, rho))
                for (k, r), u in zip(mild, sol.values[lo:hi])]
        return ["k", "radius", "u", "mild_residual",
                "picard_or_fp_iterations", "contraction_factor"], rows

    if command == "verify":
        _require(cfg, command, "N", "k_min")
        k_lo, k_hi = _report_window(cfg)
        sol = _solve_pipeline(cfg, command, k_hi + _VERIFY_MARGIN)
        report = verify_strict(sol, (k_lo, k_hi))
        if not report.ok:
            raise DeclarationViolated(_failed_checks(report))
        lo, hi = k_lo - sol.k_min, k_hi - sol.k_min + 1
        rows = [(k, qpow(cfg.q, k), u, r)
                for (k, r), u in zip(report.residuals, sol.values[lo:hi])]
        return ["k", "radius", "u", "strict_residual"], rows

    if command == "constants":
        grid = RadialGrid(cfg.q, 0, 0)
        rows = [(m, kernel_constant(cfg.alpha, m, grid),
                 kernel_constant(cfg.alpha, m, grid, scaled=True))
                for m in range(cfg.m_max + 1)]
        return ["m", "d_alpha_m", "d_alpha_m_times_q_alpha_m"], rows

    raise ConfigError(f"unknown command {command!r}; expected one of {_COMMANDS}")


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    """One %-format per table, from the first row's column types: %d for
    int, %.17g for float; every row is then formatted in one step."""
    fmt = ",".join("%d" if isinstance(v, int) else "%.17g" for v in rows[0]) + "\n" if rows else ""
    return ",".join(header) + "\n" + "".join([fmt % row for row in rows])


def run(config: RunConfig, command: str, out: str | None = None) -> int:
    """Execute one command, write its CSV (file or stdout), return 0.

    Module errors propagate as typed exceptions; :func:`main` maps them to
    exit codes.
    """
    header, rows = _render(config, command)
    text = _csv_text(header, rows)
    dest = out or config.out
    if dest:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_EXIT_TABLE: tuple[tuple[type, int], ...] = (
    (ConfigError, 2),
    (ExpressionError, 3),
    (DomainViolation, 4),
    (DivergentTail, 5),
    (NoContraction, 6),
    (ToleranceNotReached, 6),
    (ContractionFailure, 7),
    (MissingBeta, 8),
    (MarginTooSmall, 8),
    (RangeExceeded, 11),
    (DeclarationViolated, 12),
)


def exit_code_for(exc: BaseException) -> int:
    for typ, code in _EXIT_TABLE:
        if isinstance(exc, typ):
            return code
    if isinstance(exc, OSError):
        return 10
    return 1


def _error_line(exc: BaseException) -> str:
    msg = " ".join(str(exc).split())
    return f"error[{type(exc).__name__}]: {msg}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="ultrafrac",
        description="Fractional calculus on the ultrametric shell lattice: "
                    "operator application, Cauchy-problem solving and "
                    "verification, kernel constants.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=None, help="CSV output path (default: config 'out' key or stdout)")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return run(load_config(args.config), args.command, args.out)
    except Exception as exc:
        print(_error_line(exc), file=sys.stderr)
        return exit_code_for(exc)


def main_entry() -> None:
    raise SystemExit(main())
