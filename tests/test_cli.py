"""Command-line contract: flags, exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from kkinetics import (
    QuadratureGrid,
    SeriesControl,
    cli,
    kinetics,
    residual,
    solve_grid,
    solve_volterra,
)
from kkinetics import fracoracle
from kkinetics.figures import FIGURES, LAMBDAS, figure_grid, figure_problem
from kkinetics.kinetics import SolutionTable

SRC = Path(__file__).resolve().parents[1] / "src"

FIG1_CONFIG = {
    "theorem": 1, "n0": 2, "d": 3, "nu": 1, "k": 2, "gamma": 1, "lambda": 1,
    "mu": 1, "b": 3, "c": 2, "t_end": 1.0, "n_points": 101,
}


def write_config(tmp_path, name="job.json", **overrides):
    cfg = dict(FIG1_CONFIG)
    cfg.update(overrides)
    for key, value in list(cfg.items()):
        if value is None:
            del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------- eval


def test_eval_ml_prints_value_terms_tail(capsys):
    rc = cli.main(["eval", "ml", "--alpha", "1", "--beta", "1", "--x", "1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert float(out[0]) == pytest.approx(math.e, rel=1e-14)
    assert out[1].startswith("terms: ")
    assert out[2].startswith("tail: ")


def test_eval_kgamma(capsys):
    rc = cli.main(["eval", "kgamma", "--gamma", "2", "--k", "2"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, rel=1e-14)


def test_eval_kpoch(capsys):
    rc = cli.main(["eval", "kpoch", "--gamma", "1", "--n", "3", "--k", "2"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 15.0


def test_eval_omega_finite_with_small_tail(capsys):
    rc = cli.main([
        "eval", "omega", "--k", "2", "--gamma", "1", "--lambda", "1",
        "--mu", "1", "--b", "3", "--c", "2", "--z", "0.5",
    ])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert float(out[0]) > 0.0
    assert float(out[2].split(":")[1]) <= 1e-12


def test_eval_omega_at_subnormal_z(capsys):
    # used to end in a traceback: log(z/2) saw z/2 round to 0
    rc = cli.main([
        "eval", "omega", "--k", "2", "--gamma", "1", "--lambda", "1",
        "--mu", "0.25", "--b", "3", "--c", "2", "--z", "5e-324",
    ])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert float(out[0]) > 0.0


def test_eval_foxwright(capsys):
    rc = cli.main(["eval", "foxwright", "--upper", "1,1", "--lower", "1,1", "--z", "1"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0]) == pytest.approx(math.e, rel=1e-14)


def test_eval_hm_baseline(capsys):
    rc = cli.main(["eval", "hm-baseline", "--n0", "2", "--c", "1", "--nu", "1", "--t", "1"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0]) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)


@pytest.mark.parametrize("n0", ["inf", "nan"])
def test_eval_hm_baseline_refuses_a_non_finite_n0(n0, capsys):
    # inf used to print inf with exit 0
    rc = cli.main(["eval", "hm-baseline", "--n0", n0, "--c", "1", "--nu", "0.5", "--t", "1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: n0 must be finite, got {n0}\n"


def test_eval_domain_error_exits_one(capsys):
    rc = cli.main(["eval", "kgamma", "--gamma", "-1", "--k", "2"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ml", "--alpha", "1", "--beta", "1e306", "--x", "0"],
    ["omega", "--k", "inf", "--gamma", "1", "--lambda", "1", "--mu", "1",
     "--b", "3", "--c", "2", "--z", "0.5"],
    ["ml", "--alpha", "1e306", "--beta", "1", "--x", "1"],
    ["kgamma", "--gamma", "inf", "--k", "1"],
    ["kgamma", "--gamma", "1", "--k", "inf"],
    ["kgamma", "--gamma", "1e300", "--k", "1e-10"],
    ["kgamma", "--gamma", "1", "--k", "1e-320"],
    ["hm-baseline", "--n0", "1", "--c", "10", "--nu", "400", "--t", "1"],
    ["omega", "--k", "2", "--gamma", "1", "--lambda", "1", "--mu", "1e306",
     "--b", "3", "--c", "2", "--z", "0.8"],
    ["omega", "--k", "1", "--gamma", "1e306", "--lambda", "1", "--mu", "1",
     "--b", "3", "--c", "2", "--z", "0.8"],
    ["omega", "--k", "2", "--gamma", "1", "--lambda", "1", "--mu", "1e305",
     "--b", "3", "--c", "2", "--z", "0.8"],
], ids=["ml_beta_1e306", "omega_k_inf", "ml_alpha_1e306", "kgamma_gamma_inf", "kgamma_k_inf",
        "kgamma_ratio_inf", "kgamma_k_subnormal", "hm_baseline_power", "omega_mu_1e306",
        "omega_gamma_1e306", "omega_mu_1e305"])
def test_eval_out_of_range_parameter_exits_one(argv, capsys):
    # each used to end in a traceback (OverflowError, math domain error),
    # except kgamma_gamma_inf, kgamma_ratio_inf and kgamma_k_subnormal,
    # which printed nan with exit 0, and omega_mu_1e305, which printed
    # 0.0 with a nan tail
    rc = cli.main(["eval", *argv])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_omega_at_zero_c_prints_a_finite_tail(capsys):
    # the exact zero terms used to make the tail nan, printed with exit 0
    rc = cli.main(["eval", "omega", "--k", "2", "--gamma", "1", "--lambda", "1", "--mu", "1",
                   "--b", "3", "--c", "0", "--z", "0.8"])
    assert rc == 0
    value, terms, tail = capsys.readouterr().out.splitlines()
    assert value == "0.31915382432114625"
    assert math.isfinite(float(tail.removeprefix("tail: ")))


@pytest.mark.parametrize("command, overrides, code", [
    ("solve", {"mu": 2e305}, 1),
    ("solve", {"theorem": 2, "mu": 1e305}, 1),
    ("verify", {"mu": 2e305}, 1),
    ("verify", {"theorem": 3, "nu": 0.5, "a": 2, "mu": 2e305}, 1),
    ("solve", {"k": 1, "gamma": 1e306}, 2),
], ids=["solve_v1_mu_2e305", "solve_v2_mu_1e305", "verify_v1_mu_2e305",
        "verify_v3_half_order_mu_2e305", "solve_gamma_over_k_1e306"])
def test_extreme_k_bessel_parameters_exit_with_a_message(tmp_path, capsys, command, overrides,
                                                         code):
    # each printed a traceback (ZeroDivisionError, or OverflowError from the
    # power table or from lgamma(gamma/k))
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x.csv"
    argv = ["--config", str(cfg)] + (["--out", str(out)] if command == "solve" else [])
    assert cli.main([command, *argv]) == code
    assert capsys.readouterr().err.startswith("error: " if code == 1 else "config error: ")
    assert not out.exists()


def test_eval_unknown_function_exits_two():
    assert cli.main(["eval", "nope", "--x", "1"]) == 2


def test_eval_missing_flag_exits_two():
    assert cli.main(["eval", "ml", "--alpha", "1", "--beta", "1"]) == 2


def test_env_budget_override(monkeypatch, capsys):
    monkeypatch.setenv("KKINETICS_MAX_TERMS", "3")
    rc = cli.main(["eval", "ml", "--alpha", "1", "--beta", "1", "--x", "5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_env_budget_invalid_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("KKINETICS_MAX_TERMS", "many")
    rc = cli.main(["eval", "ml", "--alpha", "1", "--beta", "1", "--x", "1"])
    assert rc == 2


# ---------------------------------------------------------------- solve


def test_solve_writes_csv_with_header_and_rows(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,N"
    assert len(lines) == 102
    t0, n0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(n0) == 0.0


def test_solve_csv_cells_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        for cell in line.split(","):
            assert repr(float(cell)) == cell


def test_solve_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["solve", "--config", str(cfg), "--out", str(a)])
    cli.main(["solve", "--config", str(cfg), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # variant 1 at nu = 0.5 sums its two-dimensional table; the CSV is the
    # same with one BLAS/OpenMP thread and with the library's default
    cfg = write_config(tmp_path, nu=0.5, t_end=3.0, n_points=1001)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(SRC)
    outs = []
    for name, threads in (("one.csv", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                          ("default.csv", {})):
        subprocess.run([sys.executable, "-m", "kkinetics.cli", "solve", "--config", str(cfg),
                        "--out", str(tmp_path / name)], env={**base, **threads}, check=True,
                       timeout=120)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0].count(b"\n") == 1002
    assert outs[0] == outs[1]


def test_solve_svg_is_standalone(tmp_path):
    cfg = write_config(tmp_path)
    out, svg = tmp_path / "o.csv", tmp_path / "o.svg"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert "href" not in svg.read_text()


def test_solve_rejects_zero_points(tmp_path):
    cfg = write_config(tmp_path, n_points=0)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_solve_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, lambda_typo=1.5)
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "lambda_typo" in capsys.readouterr().err


def test_solve_rejects_missing_keys(tmp_path):
    cfg = write_config(tmp_path, d=None)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_solve_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "{blocked}/x.csv"],
    ["solve", "--out", "{tmp}/o.csv", "--svg", "{blocked}/x.svg"],
    ["figures", "--fig", "1", "--out-dir", "{blocked}"],
    ["figures", "--fig", "1", "--out-dir", "{blocked}/sub"],
    ["figures", "--fig", "1", "--out-dir", "{tmp}"],
], ids=["out", "svg", "out_dir", "out_dir_below", "svg_is_a_directory"])
def test_write_failure_exits_two(tmp_path, capsys, argv):
    # an output path below a regular file used to end in a FileExistsError
    # or NotADirectoryError traceback; a pair whose second path failed used
    # to leave its first path written
    blocked = tmp_path / "plain"
    blocked.write_text("")
    earlier = tmp_path / "fig1.csv"
    earlier.write_text("an earlier run\n")
    if argv[-1] == "{tmp}":
        blocked = tmp_path / "fig1.svg"
        blocked.mkdir()
    args = [a.format(blocked=blocked, tmp=tmp_path) for a in argv]
    if args[0] == "solve":
        args[1:1] = ["--config", str(write_config(tmp_path))]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write {blocked}"), err
    assert not list(tmp_path.glob("**/*.tmp"))
    assert not (tmp_path / "o.csv").exists()
    assert earlier.read_text() == "an earlier run\n"


def test_atomic_write_finishes_short_writes(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given: every byte still lands
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    texts = [["t,N\n", "0.1,\u00e9\n" * 50, "0.2,\u00e9\n" * 3], ["<svg>\u2013</svg>\n"]]
    paths = [tmp_path / "sub" / "a.csv", tmp_path / "sub" / "b.svg"]
    cli._atomic_write(*zip(paths, texts))
    monkeypatch.undo()
    assert [path.read_bytes() for path in paths] == ["".join(text).encode() for text in texts]
    assert not list(tmp_path.glob("**/*.tmp"))


def test_atomic_write_removes_its_temporary_files_on_any_error(tmp_path):
    # a lone surrogate cannot be encoded: the error is not an OSError, so it
    # is raised as it is, after every temporary file is gone
    paths = [tmp_path / "a.csv", tmp_path / "b.svg"]
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write((paths[0], ["t,N\n"]), (paths[1], ["<svg>\ud800</svg>\n"]))
    assert not any(tmp_path.iterdir())


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    # each file kept the 0600 of its temporary file through the rename
    out, svg, fig_dir = tmp_path / "o.csv", tmp_path / "o.svg", tmp_path / "figs"
    old = os.umask(0o022)
    try:
        assert cli.main(["solve", "--config", str(write_config(tmp_path)), "--out", str(out),
                         "--svg", str(svg)]) == 0
        assert cli.main(["figures", "--fig", "4", "--out-dir", str(fig_dir)]) == 0
    finally:
        os.umask(old)
    written = [out, svg, *fig_dir.iterdir()]
    assert len(written) == 4
    assert {oct(path.stat().st_mode & 0o777) for path in written} == {oct(0o644)}


def test_solve_rejects_equal_rates_for_variant_three(tmp_path):
    cfg = write_config(tmp_path, theorem=3, a=3)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command,key,value", [
    ("solve", "k", math.inf),
    ("solve", "n0", math.inf),
    ("solve", "mu", math.nan),
    ("solve", "d", 10 ** 400),
    ("verify", "t_end", math.inf),
], ids=["k_inf", "n0_inf", "mu_nan", "d_huge_int", "t_end_inf"])
def test_config_rejects_non_finite_numbers(tmp_path, capsys, command, key, value):
    # json.loads reads NaN and Infinity; these used to fail with a traceback
    # (k, t_end) or to write inf cells with exit 0 (n0)
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "x.csv"
    if command == "verify":
        rc = cli.main(["verify", "--config", str(cfg)])
    else:
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"config field {key!r}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_solve_large_order_exits_one(tmp_path, capsys):
    # d**nu = 3**700 used to end in a bare OverflowError traceback
    cfg = write_config(tmp_path, theorem=2, nu=700)
    out = tmp_path / "x.csv"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_verify_large_order_exits_one(tmp_path, capsys):
    # math.gamma(700) in the quadrature weights used to end in a bare OverflowError
    cfg = write_config(tmp_path, theorem=2, nu=700)
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_overflowing_weights_exit_one(tmp_path, capsys):
    # at h = 1/2048, nu = 150 used to print "residual: nan" and PASS with exit 0
    cfg = write_config(tmp_path, theorem=1, nu=150)
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("t_end, nu, step", [
    (100.0, 160, "100"),  # 100**160 used to end in a bare OverflowError
    (1e-3, 150, "0.00025"),  # (2.5e-4)**150 is 0.0 and the drift check divided 0/0
])
def test_verify_weight_scale_out_of_range_exits_one(tmp_path, capsys, t_end, nu, step):
    cfg = write_config(tmp_path, t_end=t_end, nu=nu)
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", step]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "PASS" not in captured.out


def test_solve_missing_config_file(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------- verify


def test_verify_passes_on_fig1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["verify", "--config", str(cfg), "--grid-step", "0.00390625"])
    out = capsys.readouterr().out
    assert rc == 0
    metrics = dict(
        line.split(": ") for line in out.splitlines() if ": " in line and "verification" not in line
    )
    assert float(metrics["residual"]) <= 1e-3
    assert float(metrics["max-rel-diff"]) <= 1e-3
    assert "PASS" in out


def test_main_gives_the_same_output_on_every_call_in_one_process(tmp_path, capsys):
    # main keeps one parser per process; no command may leave state in it
    cfg = write_config(tmp_path)
    verify = ["verify", "--config", str(cfg), "--grid-step", "0.0078125"]
    assert cli.main(verify) == 0
    first = capsys.readouterr().out
    assert cli.main(["eval", "ml", "--alpha", "0.5", "--beta", "1", "--x", "-0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == repr(
        cli.mittag_leffler(cli.MLParams(0.5, 1.0), -0.5).value)
    assert cli.main(["verify", "--config", str(cfg), "--no-such-flag"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(verify) == 0
    assert capsys.readouterr().out == first
    assert "verification: PASS" in first


def test_verify_evaluates_the_source_once_per_node(tmp_path, capsys, monkeypatch):
    # verify sums the source over all nodes in one source_grid call under the
    # job's series control, and the oracle and the residual read those
    # samples; no scalar source call is made while no node fails
    monkeypatch.delenv("KKINETICS_MAX_TERMS", raising=False)
    grid_calls = []
    scalar_calls = []
    real_grid = cli.source_grid
    real_scalar = kinetics.gen_k_bessel

    def recording_grid(prob, times, ctl=None):
        grid_calls.append((len(times), ctl))
        return real_grid(prob, times, ctl)

    def recording_scalar(params, z, ctl=None):
        scalar_calls.append(z)
        return real_scalar(params, z, ctl)

    monkeypatch.setattr(cli, "source_grid", recording_grid)
    monkeypatch.setattr(kinetics, "gen_k_bessel", recording_scalar)
    cfg = write_config(tmp_path, rel_tol=1e-12)
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", "0.015625"]) == 0
    assert grid_calls == [(65, SeriesControl(rel_tol=1e-12))]  # n + 1 nodes, n = 64
    assert scalar_calls == []


@pytest.mark.parametrize("lam", LAMBDAS)
def test_verify_prints_the_lines_of_the_scalar_source(tmp_path, capsys, monkeypatch, lam):
    # the figure-1 jobs print what an oracle fed one gen_k_bessel call per
    # node gives
    monkeypatch.delenv("KKINETICS_MAX_TERMS", raising=False)
    cfg = write_config(tmp_path, **{"lambda": lam})
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", "0.00390625"]) == 0
    out = capsys.readouterr().out.splitlines()
    job = cli.load_config(cfg)
    prob, ctl = job.problem, job.control
    grid = QuadratureGrid(1.0, 256, prob.nu)
    table = solve_grid(prob, grid.times, ctl)
    oracle = solve_volterra(prob.n0, lambda t: prob.source(t, ctl), prob.rate, grid)
    diff = float(np.max(np.abs(np.asarray(table.values) - oracle.values)))
    rel_diff = diff / max(1.0, float(np.max(np.abs(oracle.values))))
    assert out[:2] == [f"residual: {residual(table, oracle):.6e}",
                       f"max-rel-diff: {rel_diff:.6e}"]


def test_verify_fails_when_series_budget_is_crippled(tmp_path, capsys):
    # max_terms too small for stagnation: the solver errors out, exit 1
    cfg = write_config(tmp_path, max_terms=2)
    rc = cli.main(["verify", "--config", str(cfg), "--grid-step", "0.0078125"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_verify_fails_on_metric_breach(tmp_path, capsys, monkeypatch):
    # corrupt the series values so the comparison against the oracle breaks
    real = cli.solve_grid

    def corrupted(prob, grid, ctl=None):
        table = real(prob, grid, ctl)
        values = tuple(v + 0.01 for v in table.values)
        return SolutionTable(times=table.times, values=values, terms=table.terms,
                             tails=table.tails, problem=table.problem)

    monkeypatch.setattr(cli, "solve_grid", corrupted)
    cfg = write_config(tmp_path)
    rc = cli.main(["verify", "--config", str(cfg), "--grid-step", "0.0078125"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "max-rel-diff" in out


def test_verify_fails_on_nan_metrics(tmp_path, capsys, monkeypatch):
    # NaN compares false against the threshold, so it used to pass as PASS
    real = cli.solve_grid

    def poisoned(prob, grid, ctl=None):
        table = real(prob, grid, ctl)
        return SolutionTable(times=table.times, values=(math.nan,) * len(table),
                             terms=table.terms, tails=table.tails, problem=table.problem)

    monkeypatch.setattr(cli, "solve_grid", poisoned)
    cfg = write_config(tmp_path)
    rc = cli.main(["verify", "--config", str(cfg), "--grid-step", "0.0078125"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL (residual nan > 1e-03; max-rel-diff nan > 1e-03)" in out


@pytest.mark.parametrize("overrides, message", [
    ({"k": "two"}, "config field 'k': expected a number, got 'two'"),
    ({"n_points": 10.5}, "config field 'n_points': expected an integer, got 10.5"),
    ({"theorem": 4}, "config field 'theorem': must be 1, 2 or 3, got 4"),
    ({"t_end": 0}, "config field 't_end': must be > 0, got 0.0"),
    ({"max_terms": 0}, "config field 'max_terms': must be >= 1, got 0"),
    ({"rel_tol": 1.5}, "config field 'rel_tol': must be in (0, 1), got 1.5"),
    # a theorem-1 job does not use a, but every number in a config is checked
    ({"a": math.nan}, "config field 'a': expected a finite number, got nan"),
    ({"a": "not a number"}, "config field 'a': expected a number, got 'not a number'"),
], ids=["non_number", "non_integer", "theorem_4", "t_end_0", "max_terms_0", "rel_tol_1.5",
        "a_nan_theorem_1", "a_non_number_theorem_1"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_config_field_errors_exit_two(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    argv = ["--out", str(tmp_path / "x.csv")] if command == "solve" else []
    assert cli.main([command, "--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_that_is_a_json_list_exits_two(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps([FIG1_CONFIG]))
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_env_budget_of_zero_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KKINETICS_MAX_TERMS", "0")
    assert cli.main(["eval", "ml", "--alpha", "1", "--beta", "1", "--x", "1"]) == 2
    assert cli.main(["verify", "--config", str(write_config(tmp_path))]) == 2
    assert "KKINETICS_MAX_TERMS must be >= 1, got 0" in capsys.readouterr().err


def test_foxwright_pair_without_a_weight_exits_two(capsys):
    assert cli.main(["eval", "foxwright", "--upper", "1", "--z", "0.5"]) == 2
    assert "expected 'value,weight', got '1'" in capsys.readouterr().err


def test_verify_rounds_a_step_that_does_not_divide_t_end_up_to_whole_steps(tmp_path, capsys):
    # t_end / 0.3 = 3.33 steps: verify runs ceil(3.33) = 4 steps of 0.25,
    # and prints what --grid-step 0.25 prints (a FAIL, on a grid this coarse)
    cfg = write_config(tmp_path)
    outputs = []
    for step in ("0.3", "0.25", str(1 / 3)):
        code = cli.main(["verify", "--config", str(cfg), "--grid-step", step])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] != outputs[2]


def test_verify_rejects_bad_grid_step(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", "-1"]) == 2


class _Reached(Exception):
    """A grid-building call was reached (see the oversized-grid tests)."""


def _unreachable(*args, **kwargs):
    raise _Reached(*args)


@pytest.mark.parametrize("argv, overrides", [
    (["verify", "--grid-step", "1e-9"], {}),  # 10**9 steps
    (["verify", "--grid-step", "5e-324"], {}),  # t_end / h is inf
    (["verify"], {"n_points": 10 ** 9}),
    (["solve", "--out", "x.csv"], {"n_points": 10 ** 9}),
    (["solve", "--out", "x.csv"], {"n_points": 2 ** 20 + 1}),
], ids=["verify_step", "verify_step_inf", "verify_points", "solve_points", "solve_limit"])
def test_oversized_grids_exit_two_before_anything_is_allocated(
        tmp_path, capsys, monkeypatch, argv, overrides):
    # each of these grids takes 8 GB a column: the calls that would build
    # one fail the test instead of allocating it
    for owner, name in ((fracoracle, "QuadratureGrid"), (cli, "solve_grid"), (np, "linspace")):
        monkeypatch.setattr(owner, name, _unreachable)
    cfg = write_config(tmp_path, **overrides)
    argv = [argv[0], "--config", str(cfg)] + [str(tmp_path / a) if a == "x.csv" else a
                                              for a in argv[1:]]
    assert cli.main(argv) == 2
    assert "2**20" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_grids_of_2_to_the_20_are_accepted(tmp_path, monkeypatch):
    assert cli.load_config(write_config(tmp_path, n_points=2 ** 20)).n_points == 2 ** 20
    monkeypatch.setattr(fracoracle, "QuadratureGrid", _unreachable)
    cfg = write_config(tmp_path)
    with pytest.raises(_Reached) as reached:
        cli.main(["verify", "--config", str(cfg), "--grid-step", repr(2.0 ** -20)])
    assert reached.value.args[1] == 2 ** 20


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_verify_refuses_a_non_finite_grid_step(tmp_path, capsys, monkeypatch, step):
    # --grid-step inf used to build a one-step oracle (h = t_end) and fail
    # its residual with exit 1, with nothing to say what h had become
    monkeypatch.setattr(fracoracle, "QuadratureGrid", _unreachable)
    cfg = write_config(tmp_path)
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", step]) == 2
    assert "--grid-step must be finite and > 0" in capsys.readouterr().err


# ---------------------------------------------------------------- figures


def test_figures_fig1_writes_csv_and_svg(tmp_path):
    rc = cli.main(["figures", "--fig", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert len(lines) == 202
    assert lines[0] == "t,N_lambda_1.00,N_lambda_1.25,N_lambda_1.50,N_lambda_1.75,N_lambda_2.00"
    for line in lines[2:]:  # skip t=0 row where N=0
        cells = [float(c) for c in line.split(",")]
        assert all(v > 0.0 for v in cells[1:])
    assert (tmp_path / "fig1.svg").exists()


def test_figures_fig2_violates_positivity_loudly(tmp_path, capsys):
    # the variant-1 solution genuinely crosses zero near t ~ 1.85, so the
    # positivity assertion must fail and name the spot; the CSV is still
    # written for inspection
    rc = cli.main(["figures", "--fig", "2", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "figure 2" in err and "lambda 1.00" in err and "t 1.8" in err
    assert (tmp_path / "fig2.csv").exists()


def test_figures_four_and_six_differ(tmp_path):
    assert cli.main(["figures", "--fig", "4", "--out-dir", str(tmp_path)]) == 0
    assert cli.main(["figures", "--fig", "6", "--out-dir", str(tmp_path)]) == 0
    a = (tmp_path / "fig4.csv").read_text()
    b = (tmp_path / "fig6.csv").read_text()
    assert a != b


def _csv_by_rows(header, *columns):
    """The CSV text as the writer formed it from tuples of Python floats, row by row."""
    columns = [np.asarray(column, dtype=float).tolist() for column in columns]
    rows = (",".join(map(repr, row)) for row in zip(*columns))
    return "\n".join([header, *rows]) + "\n"


def test_csv_of_array_columns_matches_the_row_formatter():
    # numpy 2 writes repr of an array element as np.float64(...): the writer
    # must print every cell as the repr of a Python float
    for fig_id, spec in FIGURES.items():
        grid = figure_grid(spec)
        tables = [solve_grid(figure_problem(spec, lam), grid) for lam in LAMBDAS]
        columns = [table.values for table in tables]
        assert ("".join(cli._csv("t,N...", grid, *columns))
                == _csv_by_rows("t,N...", grid, *columns)), fig_id
        for table in tables:
            assert ("".join(cli._csv("t,N", table.times, table.values))
                    == _csv_by_rows("t,N", table.times, table.values)), fig_id
    assert list(cli._csv("t,N", np.zeros(0), ())) == ["t,N\n"]
    # a longer CSV comes as the header and then blocks of at most _CSV_BLOCK rows
    columns = np.random.default_rng(41).standard_normal((2, 2 * cli._CSV_BLOCK + 1))
    blocks = list(cli._csv("a,b", *columns))
    assert [block.count("\n") for block in blocks] == [1, cli._CSV_BLOCK, cli._CSV_BLOCK, 1]
    assert "".join(blocks) == _csv_by_rows("a,b", *columns)


def test_figures_all_reports_the_nine_sign_changes(tmp_path, capsys):
    # figures 2 and 3 cross zero; each line names the first t > 0 with N <= 0
    assert cli.main(["figures", "--all", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "positivity violated: figure 2, lambda 1.00, t 1.85 gives N = -0.0008846427952695691",
        "positivity violated: figure 2, lambda 1.25, t 1.87 gives N = -0.0007623124657397463",
        "positivity violated: figure 2, lambda 1.50, t 1.9100000000000001 "
        "gives N = -0.0008622339790897538",
        "positivity violated: figure 2, lambda 1.75, t 1.97 gives N = -0.0008608218711383109",
        "positivity violated: figure 3, lambda 1.00, t 1.845 gives N = -0.000366513481877887",
        "positivity violated: figure 3, lambda 1.25, t 1.875 gives N = -0.0013883212708602072",
        "positivity violated: figure 3, lambda 1.50, t 1.905 gives N = -0.00012509880704181963",
        "positivity violated: figure 3, lambda 1.75, t 1.9649999999999999 "
        "gives N = -3.6490730732424146e-05",
        "positivity violated: figure 3, lambda 2.00, t 2.0549999999999997 "
        "gives N = -0.0014289722557937964",
    ]


def test_figures_bytes_do_not_depend_on_warm_tables(tmp_path, capsys, empty_registries):
    # figures --all in a fresh interpreter, then twice in this process with
    # the table registries emptied first: the second run reads warm tables
    fresh = tmp_path / "fresh"
    proc = subprocess.run([sys.executable, "-m", "kkinetics.cli", "figures", "--all",
                           "--out-dir", str(fresh)], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, timeout=300)
    runs = [(fresh, proc.returncode, proc.stderr)]
    for name in ("cold", "warm"):
        rc = cli.main(["figures", "--all", "--out-dir", str(tmp_path / name)])
        runs.append((tmp_path / name, rc, capsys.readouterr().err.encode()))
    names = sorted(path.name for path in fresh.iterdir())
    assert len(names) == 2 * len(FIGURES)
    for out_dir, rc, err in runs:
        assert (rc, err) == (1, runs[0][2]), out_dir
        assert sorted(path.name for path in out_dir.iterdir()) == names, out_dir
        for name in names:
            assert (out_dir / name).read_bytes() == (fresh / name).read_bytes(), (out_dir, name)


def test_figures_requires_selection(tmp_path):
    assert cli.main(["figures", "--out-dir", str(tmp_path)]) == 2


def test_figures_rejects_unknown_id(tmp_path):
    assert cli.main(["figures", "--fig", "9", "--out-dir", str(tmp_path)]) == 2


def test_figures_refuses_fig_and_all_together(tmp_path, capsys):
    assert cli.main(["figures", "--fig", "2", "--all", "--out-dir", str(tmp_path)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------- misc


def test_no_command_exits_two():
    assert cli.main([]) == 2


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_readme_job_config_solves_and_verifies(tmp_path, capsys):
    # the documented schema must load as cli.load_config reads it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```json\n")[1:]
    assert len(blocks) == 1
    config = tmp_path / "job.json"
    config.write_text(blocks[0].split("```")[0])
    assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert (tmp_path / "out.csv").read_text().count("\n") == json.loads(config.read_text())["n_points"] + 1
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verification: PASS"
