"""Command-line contract: flags, exit codes, file formats, determinism."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from kkinetics import SeriesControl, cli, kinetics
from kkinetics.kinetics import SolutionTable

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
], ids=["ml_beta_1e306", "omega_k_inf", "ml_alpha_1e306", "kgamma_gamma_inf", "kgamma_k_inf"])
def test_eval_out_of_range_parameter_exits_one(argv, capsys):
    # each used to end in a traceback (OverflowError, math domain error),
    # except kgamma_gamma_inf, which printed nan with exit 0
    rc = cli.main(["eval", *argv])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_verify_evaluates_the_source_once_per_node(tmp_path, capsys, monkeypatch):
    # the residual reads the forcing the oracle sampled, so verify makes one
    # source call per node, each under the job's series control
    monkeypatch.delenv("KKINETICS_MAX_TERMS", raising=False)
    controls = []
    real = kinetics.gen_k_bessel

    def recording(params, z, ctl=None):
        controls.append(ctl)
        return real(params, z, ctl)

    monkeypatch.setattr(kinetics, "gen_k_bessel", recording)
    cfg = write_config(tmp_path, rel_tol=1e-12)
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", "0.015625"]) == 0
    assert controls == [SeriesControl(rel_tol=1e-12)] * 65  # n + 1 nodes, n = 64


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


def test_verify_rejects_bad_grid_step(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["verify", "--config", str(cfg), "--grid-step", "-1"]) == 2


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


def test_figures_requires_selection(tmp_path):
    assert cli.main(["figures", "--out-dir", str(tmp_path)]) == 2


def test_figures_rejects_unknown_id(tmp_path):
    assert cli.main(["figures", "--fig", "9", "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------- misc


def test_no_command_exits_two():
    assert cli.main([]) == 2


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0
