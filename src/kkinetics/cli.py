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
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fracoracle
from .figures import (FIGURES, GRID_POINTS, LAMBDAS, figure_grid, figure_params,
                      figure_problem)
from .kinetics import KineticProblem, Theorem, solve_grid, source_grid
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
# The most points (solve) or steps (verify) one command takes; a larger grid
# is refused before any is allocated.  Every grid sums its times in batches
# of at most 4096 (kinetics._CHUNK_MAX), on either kind of coefficient
# table, so only the grid's columns grow with it: one verify of a 29-term
# job at 2**20 steps peaks near 232 MiB, and one variant-1 solve at
# nu = 0.5 and 2**20 points near 235 MiB (see README).
MAX_GRID_SIZE = 2 ** 20


class ConfigError(Exception):
    """Invalid job configuration or environment override."""


def _default_control() -> SeriesControl:
    raw = os.environ.get("KKINETICS_MAX_TERMS")
    if raw is None:
        return SeriesControl()
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"KKINETICS_MAX_TERMS must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(f"KKINETICS_MAX_TERMS must be >= 1, got {value}")
    return SeriesControl(max_terms=value)


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
    if not 1 <= n_points <= MAX_GRID_SIZE:
        raise ConfigError(f"config field 'n_points': must be in [1, 2**20], got {n_points}")

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


def _atomic_write(*outputs: tuple[Path, str]) -> None:
    """Write each ``(path, text)`` through a temporary file beside its path,
    all or none: every temporary file is written before any path is
    replaced.  Each file gets mode 0o666 less the umask, as open() gives a
    new file.  A write that fails is a :class:`ConfigError` (exit 2), and
    leaves every path as it was and no temporary file."""
    tmps = []
    path = None
    try:
        made = set()  # each directory is made once
        for path, text in outputs:
            if path.parent not in made:
                path.parent.mkdir(parents=True, exist_ok=True)
                made.add(path.parent)
            # the kernel applies the umask to 0o666 (mkstemp's 0o600 would survive the replace)
            tmp = str(path.parent / f"{path.name}{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append(tmp)
            try:
                data = memoryview(text.encode("utf-8"))
                while data:  # os.write may write less than it was given
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        # os.replace refuses a directory: find one before any path is replaced
        for path, _ in outputs:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for (path, _), tmp in zip(outputs, tmps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from None
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


def _csv(header: str, *columns) -> str:
    """One CSV row per entry of the float columns (arrays or sequences), each
    cell the repr of a Python float (see _fmt)."""
    cells = np.column_stack(columns)
    row = ",".join(["%r"] * len(columns)) + "\n"
    return f"{header}\n" + (row * len(cells)) % tuple(cells.ravel().tolist())


def cmd_solve(args: argparse.Namespace) -> int:
    job = load_config(args.config)
    grid = np.linspace(0.0, job.t_end, job.n_points)
    table = solve_grid(job.problem, grid, job.control)
    outputs = [(Path(args.out), _csv("t,N", table.times, table.values))]
    if args.svg:
        svg = render_line_chart(
            f"variant {int(job.problem.variant)} solution",
            "t", "N(t)",
            [("N(t)", table.times, table.values)],
        )
        outputs.append((Path(args.svg), svg))
    _atomic_write(*outputs)
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    job = load_config(args.config)
    h = args.grid_step
    if not 0.0 < h < math.inf:
        raise ConfigError(f"--grid-step must be finite and > 0, got {h}")
    steps_exact = job.t_end / h
    if not steps_exact <= MAX_GRID_SIZE:
        raise ConfigError(f"--grid-step {h!r} needs {steps_exact:.6g} steps over t_end = "
                          f"{job.t_end!r}; at most 2**20 are allowed")
    n_steps = int(round(steps_exact))
    if abs(steps_exact - n_steps) > 1e-9 or n_steps < 1:
        n_steps = max(1, math.ceil(steps_exact))
    grid = fracoracle.QuadratureGrid(job.t_end, n_steps, job.problem.nu)
    table = solve_grid(job.problem, grid.times, job.control)
    # The source is summed once over the grid, and the oracle solves on that array.
    samples = source_grid(job.problem, grid.times, job.control)
    oracle = fracoracle._solve_forcing(job.problem.n0 * samples, job.problem.rate, grid)
    diff = float(np.max(np.abs(table.values - oracle.values)))
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


def _write_figure(fig_id: int, out_dir: Path, control: SeriesControl,
                  params: dict[float, KBesselParams]) -> tuple[Path, Path, list[str]]:
    """Write one figure's CSV and SVG; ``params`` holds :func:`figures.figure_params`
    of each lambda."""
    spec = FIGURES[fig_id]
    grid = figure_grid(spec)
    columns = []
    violations: list[str] = []
    for lam in LAMBDAS:
        table = solve_grid(figure_problem(spec, lam, params[lam]), grid, control)
        # the first t > 0 whose N is not positive (nan included)
        bad = np.flatnonzero((table.times > 0.0) & ~(table.values > 0.0))
        if bad.size:
            violations.append(
                f"positivity violated: figure {fig_id}, lambda {lam:.2f}, "
                f"t {_fmt(table.times[bad[0]])} gives N = {_fmt(table.values[bad[0]])}"
            )
        columns.append(table.values)
    header = "t," + ",".join(f"N_lambda_{lam:.2f}" for lam in LAMBDAS)
    csv_path = out_dir / f"fig{fig_id}.csv"
    svg = render_line_chart(
        f"figure {fig_id} (variant {int(spec.variant)}, t in [0, {spec.t_end:g}])",
        "t", "N(t)",
        [(f"lambda = {lam:.2f}", grid, col) for lam, col in zip(LAMBDAS, columns)],
    )
    svg_path = out_dir / f"fig{fig_id}.svg"
    _atomic_write((csv_path, _csv(header, grid, *columns)), (svg_path, svg))
    return csv_path, svg_path, violations


def cmd_figures(args: argparse.Namespace) -> int:
    fig_ids = sorted(FIGURES) if args.all else [args.fig]
    out_dir = Path(args.out_dir)
    control = _default_control()
    params = {lam: figure_params(lam) for lam in LAMBDAS}
    all_violations: list[str] = []
    for fig_id in fig_ids:
        csv_path, svg_path, violations = _write_figure(fig_id, out_dir, control, params)
        print(f"wrote {csv_path} and {svg_path} ({GRID_POINTS} rows per column)")
        all_violations.extend(violations)
    if all_violations:
        for msg in all_violations:
            print(msg, file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not change it)."""
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
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--fig", type=int, choices=sorted(FIGURES))
    which.add_argument("--all", action="store_true")
    p.add_argument("--out-dir", default="figures")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
