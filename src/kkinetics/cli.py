"""Command-line front end.

    kkinetics eval {ml|omega|kgamma|kpoch|foxwright|hm-baseline} [flags]
    kkinetics solve --config job.json --out out.csv [--svg out.svg]
    kkinetics verify --config job.json [--grid-step H]
    kkinetics figures (--fig N | --all) [--out-dir DIR]

Exit codes: 0 success, 1 computation or verification failure, 2 usage or
configuration failure.  The environment variable KKINETICS_MAX_TERMS
overrides the default series term budget; an explicit ``max_terms`` in a
job config takes precedence over both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fracoracle
from .figures import FIGURES, GRID_POINTS, LAMBDAS, figure_grid, figure_problem
from .kinetics import KineticProblem, Theorem, solve_grid
from .series import EvaluationError, SeriesControl, SeriesResult
from .specfun import (
    FoxWrightSpec,
    KBesselParams,
    MLParams,
    fox_wright,
    gen_k_bessel,
    k_gamma,
    k_pochhammer,
    mittag_leffler,
)
from .svgchart import render_line_chart

DEFAULT_GRID_STEP = 1.0 / 2048.0
VERIFY_THRESHOLD = 1e-3


class ConfigError(Exception):
    """Invalid job configuration or environment override."""


def _env_max_terms() -> int | None:
    raw = os.environ.get("KKINETICS_MAX_TERMS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"KKINETICS_MAX_TERMS must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(f"KKINETICS_MAX_TERMS must be >= 1, got {value}")
    return value


def _default_control() -> SeriesControl:
    env = _env_max_terms()
    if env is not None:
        return SeriesControl(max_terms=env)
    return SeriesControl()


_REQUIRED_KEYS = {
    "theorem", "n0", "d", "nu", "k", "gamma", "lambda", "mu", "b", "c",
    "t_end", "n_points",
}
_OPTIONAL_KEYS = {"a", "max_terms", "rel_tol"}


@dataclass(frozen=True)
class JobConfig:
    """A validated flat job description (see the JSON schema in the README)."""

    problem: KineticProblem
    t_end: float
    n_points: int
    control: SeriesControl


def _as_number(cfg: dict, key: str) -> float:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config field {key!r}: expected a number, got {v!r}")
    # json.loads accepts NaN and Infinity, and integers beyond the double range
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"config field {key!r}: expected a finite number, got {x}")
    return x


def _as_int(cfg: dict, key: str) -> int:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config field {key!r}: expected an integer, got {v!r}")
    return v


def load_config(path: str | Path) -> JobConfig:
    """Parse and validate a job config; unknown keys are hard errors."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    theorem = _as_int(cfg, "theorem")
    if theorem not in (1, 2, 3):
        raise ConfigError(f"config field 'theorem': must be 1, 2 or 3, got {theorem}")
    t_end = _as_number(cfg, "t_end")
    if not t_end > 0.0:
        raise ConfigError(f"config field 't_end': must be > 0, got {t_end}")
    n_points = _as_int(cfg, "n_points")
    if n_points < 1:
        raise ConfigError(f"config field 'n_points': must be >= 1, got {n_points}")

    control = _default_control()
    if "max_terms" in cfg:
        mt = _as_int(cfg, "max_terms")
        if mt < 1:
            raise ConfigError(f"config field 'max_terms': must be >= 1, got {mt}")
        control = replace(control, max_terms=mt)
    if "rel_tol" in cfg:
        rt = _as_number(cfg, "rel_tol")
        if not 0.0 < rt < 1.0:
            raise ConfigError(f"config field 'rel_tol': must be in (0, 1), got {rt}")
        control = replace(control, rel_tol=rt)

    try:
        params = KBesselParams(
            k=_as_number(cfg, "k"),
            gamma=_as_number(cfg, "gamma"),
            lam=_as_number(cfg, "lambda"),
            mu=_as_number(cfg, "mu"),
            b=_as_number(cfg, "b"),
            c=_as_number(cfg, "c"),
        )
        variant = Theorem(theorem)
        a = _as_number(cfg, "a") if ("a" in cfg and variant == Theorem.T3) else None
        problem = KineticProblem(
            n0=_as_number(cfg, "n0"),
            d=_as_number(cfg, "d"),
            nu=_as_number(cfg, "nu"),
            variant=variant,
            params=params,
            a=a,
        )
    except EvaluationError as exc:
        raise ConfigError(f"invalid problem parameters: {exc}")
    return JobConfig(problem=problem, t_end=t_end, n_points=n_points, control=control)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(x))


def _print_result(res: SeriesResult) -> None:
    print(_fmt(res.value))
    print(f"terms: {res.terms}")
    print(f"tail: {res.tail:.6g}")


# ---------------------------------------------------------------- eval


def _eval_ml(args: argparse.Namespace) -> int:
    _print_result(mittag_leffler(MLParams(args.alpha, args.beta), args.x, _default_control()))
    return 0


def _eval_omega(args: argparse.Namespace) -> int:
    params = KBesselParams(k=args.k, gamma=args.gamma, lam=args.lam, mu=args.mu,
                           b=args.b, c=args.c)
    _print_result(gen_k_bessel(params, args.z, _default_control()))
    return 0


def _eval_kgamma(args: argparse.Namespace) -> int:
    print(_fmt(k_gamma(args.gamma, args.k)))
    return 0


def _eval_kpoch(args: argparse.Namespace) -> int:
    print(_fmt(k_pochhammer(args.gamma, args.n, args.k)))
    return 0


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'value,weight', got {text!r}")
    return float(parts[0]), float(parts[1])


def _eval_foxwright(args: argparse.Namespace) -> int:
    spec = FoxWrightSpec(upper=tuple(args.upper or ()), lower=tuple(args.lower or ()))
    _print_result(fox_wright(spec, args.z, _default_control()))
    return 0


def _eval_hm(args: argparse.Namespace) -> int:
    _print_result(fracoracle.haubold_mathai(args.n0, args.c, args.nu, args.t,
                                            _default_control()))
    return 0


# ---------------------------------------------------------------- solve


def _solution_csv(times, values) -> str:
    lines = ["t,N"]
    lines.extend(f"{_fmt(t)},{_fmt(v)}" for t, v in zip(times, values))
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    job = load_config(args.config)
    grid = np.linspace(0.0, job.t_end, job.n_points)
    table = solve_grid(job.problem, grid, job.control)
    _atomic_write(Path(args.out), _solution_csv(table.times, table.values))
    if args.svg:
        svg = render_line_chart(
            f"variant {int(job.problem.variant)} solution",
            "t", "N(t)",
            [("N(t)", list(table.times), list(table.values))],
        )
        _atomic_write(Path(args.svg), svg)
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    job = load_config(args.config)
    h = args.grid_step
    if not h > 0.0:
        raise ConfigError(f"--grid-step must be > 0, got {h}")
    steps_exact = job.t_end / h
    n_steps = int(round(steps_exact))
    if abs(steps_exact - n_steps) > 1e-9 or n_steps < 1:
        n_steps = max(1, math.ceil(steps_exact))
    grid = fracoracle.QuadratureGrid(job.t_end, n_steps, job.problem.nu)
    table = solve_grid(job.problem, grid.times, job.control)
    oracle = fracoracle.solve_volterra(
        job.problem.n0, lambda t: job.problem.source(t, job.control),
        job.problem.rate, grid,
    )
    series = np.asarray(table.values)
    diff = float(np.max(np.abs(series - oracle.values)))
    scale = max(1.0, float(np.max(np.abs(oracle.values))))
    rel_diff = diff / scale
    res = fracoracle.residual(table, oracle)
    print(f"residual: {res:.6e}")
    print(f"max-rel-diff: {rel_diff:.6e}")
    failures = []
    if not res <= VERIFY_THRESHOLD:
        failures.append(f"residual {res:.3e} > {VERIFY_THRESHOLD:.0e}")
    if not rel_diff <= VERIFY_THRESHOLD:
        failures.append(f"max-rel-diff {rel_diff:.3e} > {VERIFY_THRESHOLD:.0e}")
    if failures:
        print(f"verification: FAIL ({'; '.join(failures)})")
        return 1
    print("verification: PASS")
    return 0


# ---------------------------------------------------------------- figures


def _write_figure(
    fig_id: int, out_dir: Path, control: SeriesControl
) -> tuple[Path, Path, list[str]]:
    spec = FIGURES[fig_id]
    grid = figure_grid(spec)
    columns = []
    violations: list[str] = []
    for lam in LAMBDAS:
        prob = figure_problem(spec, lam)
        table = solve_grid(prob, grid, control)
        for t, v in zip(table.times, table.values):
            if t > 0.0 and not v > 0.0:
                violations.append(
                    f"positivity violated: figure {fig_id}, lambda {lam:.2f}, "
                    f"t {_fmt(t)} gives N = {_fmt(v)}"
                )
                break
        columns.append(table.values)
    header = "t," + ",".join(f"N_lambda_{lam:.2f}" for lam in LAMBDAS)
    lines = [header]
    for i, t in enumerate(grid):
        lines.append(",".join([_fmt(t)] + [_fmt(col[i]) for col in columns]))
    csv_path = out_dir / f"fig{fig_id}.csv"
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    svg = render_line_chart(
        f"figure {fig_id} (variant {int(spec.variant)}, t in [0, {spec.t_end:g}])",
        "t", "N(t)",
        [
            (f"lambda = {lam:.2f}", list(grid), list(col))
            for lam, col in zip(LAMBDAS, columns)
        ],
    )
    svg_path = out_dir / f"fig{fig_id}.svg"
    _atomic_write(svg_path, svg)
    return csv_path, svg_path, violations


def cmd_figures(args: argparse.Namespace) -> int:
    if args.all:
        fig_ids = sorted(FIGURES)
    elif args.fig is not None:
        if args.fig not in FIGURES:
            raise ConfigError(f"--fig must be one of {sorted(FIGURES)}, got {args.fig}")
        fig_ids = [args.fig]
    else:
        raise ConfigError("one of --fig or --all is required")
    out_dir = Path(args.out_dir)
    control = _default_control()
    all_violations: list[str] = []
    for fig_id in fig_ids:
        csv_path, svg_path, violations = _write_figure(fig_id, out_dir, control)
        print(f"wrote {csv_path} and {svg_path} ({GRID_POINTS} rows per column)")
        all_violations.extend(violations)
    if all_violations:
        for msg in all_violations:
            print(msg, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkinetics",
        description="fractional kinetic equation series solutions and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a single special-function value")
    ev_sub = ev.add_subparsers(dest="function", required=True)

    p = ev_sub.add_parser("ml", help="two-parameter Mittag-Leffler E_{alpha,beta}(x)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_eval_ml)

    p = ev_sub.add_parser("omega", help="generalized k-Bessel omega(z)")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(func=_eval_omega)

    p = ev_sub.add_parser("kgamma", help="k-gamma function")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_eval_kgamma)

    p = ev_sub.add_parser("kpoch", help="k-Pochhammer symbol")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_eval_kpoch)

    p = ev_sub.add_parser("foxwright", help="Fox-Wright series")
    p.add_argument("--upper", type=_pair, action="append",
                   help="numerator pair 'a,alpha' (repeatable)")
    p.add_argument("--lower", type=_pair, action="append",
                   help="denominator pair 'b,beta' (repeatable)")
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(func=_eval_foxwright)

    p = ev_sub.add_parser("hm-baseline", help="constant-source relaxation baseline")
    p.add_argument("--n0", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_eval_hm)

    p = sub.add_parser("solve", help="solve a job config onto a CSV grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a job against the Volterra oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figures", help="reproduce the built-in parameter sweeps")
    p.add_argument("--fig", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--out-dir", default="figures")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
