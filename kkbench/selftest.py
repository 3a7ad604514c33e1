"""Self-test of the benchmark (not of kkinetics).

    python3 kkbench/selftest.py

Checks, in about a minute:

* the mpmath references against closed forms they must reproduce;
* every workload, run at a tiny size with and without tracing, prints every
  metric of BENCHMARK.json with its unit and a well-formed result line;
* two traced runs of the same seed give identical counts;
* a deliberately perturbed output of each workload is counted as failed;
* the benchmark exits non-zero without a result when the sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "kkbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


class ReferenceTest(unittest.TestCase):
    def test_mittag_leffler_closed_forms(self):
        for x in (-4.5, -1.0, 0.3, 1.7):
            self.assertAlmostEqual(reference.mittag_leffler(1.0, 1.0, x)[0], math.exp(x),
                                   delta=1e-15 * math.exp(abs(x)))
            self.assertAlmostEqual(reference.mittag_leffler(1.0, 2.0, x)[0],
                                   math.expm1(x) / x, delta=1e-15 * math.exp(abs(x)))
            self.assertAlmostEqual(reference.mittag_leffler(2.0, 1.0, -x * x)[0],
                                   math.cos(x), delta=1e-15)
        for x in (0.5, 2.0, 4.0):
            exact = float(mp.exp(x * x) * mp.erfc(x))
            self.assertAlmostEqual(reference.mittag_leffler(0.5, 1.0, -x)[0], exact,
                                   delta=1e-15)
            self.assertAlmostEqual(reference.relaxation(x * x, 1.0), 2.0 * exact, delta=1e-14)

    def test_k_bessel_reduces_to_bessel_j(self):
        # k = gamma = lam = 1, b = c = 1: omega(z) = J_mu(z)
        for mu in (0.5, 1.0, 2.5):
            for z in (0.3, 2.0, 5.5):
                self.assertAlmostEqual(reference.k_bessel(1, 1, 1, mu, 1, 1, z)[0],
                                       float(mp.besselj(mu, z)), delta=1e-15)

    def test_kinetic_matches_integrating_factor(self):
        # For nu = 1 the equation is N' + rate N = n0 f', N(0) = n0 f(0) = 0:
        # N(t) = n0 (f(t) - rate * int_0^t exp(-rate (t - s)) f(s) ds).
        cases = ((1, 2.0, 3.0, 1.0), (1, 1.5, 3.0, 1.85), (2, 1.0, 3.0, 0.05),
                 (3, 1.25, 1.0, 0.06))
        for variant, lam, rate, t in cases:
            def f(s):
                z = s if variant == 1 else 3.0 * s
                return reference.k_bessel(2, 1, lam, 1, 3, 2, float(z))[0]

            integral = mp.quad(lambda s: mp.exp(-rate * (t - s)) * f(s), [0, t])
            exact = 2.0 * (f(t) - rate * float(integral))
            got = reference.kinetic(variant, 2, 3, rate, 2, 1, lam, 1, 3, 2, t)[0]
            self.assertAlmostEqual(got, exact, delta=1e-13)


class OutputTest(unittest.TestCase):
    def check_output(self, workload, trace, expected):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout)
        self.assertEqual(result["failed"], 0, proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(line.startswith(m["name"] + " ") and f" {m['unit']}" in line
                                for line in lines[:-1]), f"{m['name']} not printed")
        return result

    def test_end_to_end_metrics(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                result = self.check_output(workload, 0, BENCHMARK["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_counts_repeat(self):
        counts = [m["name"] for m in BENCHMARK["per_layer"]
                  if m["unit"] in ("count", "flop", "B")]
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                first = self.check_output(workload, 1, BENCHMARK["per_layer"])["metrics"]
                second = self.check_output(workload, 1, BENCHMARK["per_layer"])["metrics"]
                for name in counts:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_missing_sources_fail_without_result(self):
        tmp = Path(tempfile.mkdtemp(prefix=".kkbench-selftest-", dir=ROOT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "kkbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("figures", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class PerturbationTest(unittest.TestCase):
    """A wrong output must be counted in failed, and only then."""

    @classmethod
    def setUpClass(cls):
        import run
        from tracer import entry_points
        from workloads import WORKLOADS

        cls.kk = run.load_program()
        cls.api = entry_points(cls.kk, None)
        cls.workloads = WORKLOADS
        cls.tmp = Path(tempfile.mkdtemp(prefix=".kkbench-selftest-", dir=ROOT))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def workload(self, name):
        work_dir = self.tmp / name
        work_dir.mkdir()
        return self.workloads[name](self.kk, 5, work_dir, True)

    def assert_counts(self, outcome, failed):
        self.assertEqual(outcome.failed, failed, outcome.notes)
        self.assertEqual(outcome.wrong, failed, outcome.notes)

    def test_figures(self):
        wl = self.workload("figures")
        rc, err, sweep_s, wall = wl.execute(0, self.api)
        self.assert_counts(wl.check((rc, err, sweep_s, wall)), 0)
        lines = err.splitlines()
        self.assert_counts(wl.check((rc, "\n".join(lines[1:]), sweep_s, wall)), 1)
        self.assert_counts(wl.check((0, err, sweep_s, wall)), len(sweep_s))
        csv_path = wl.work_dir / "figures" / "fig2.csv"
        rows = csv_path.read_text().split("\n")
        cells = rows[50].split(",")
        cells[3] = repr(float(cells[3]) * (1.0 + 1e-9))
        rows[50] = ",".join(cells)
        csv_path.write_text("\n".join(rows))
        self.assert_counts(wl.check((rc, err, sweep_s, wall)), 1)

    def test_verify(self):
        wl = self.workload("verify")
        rc, out, err, wall = wl.execute(0, self.api)
        self.assert_counts(wl.check((rc, out, err, wall)), 0)
        bad = "\n".join("residual: 1.000000e-02" if line.startswith("residual") else line
                        for line in out.splitlines())
        self.assert_counts(wl.check((rc, bad, err, wall)), 1)

    def test_relaxation(self):
        wl = self.workload("relaxation")
        c, values, wall = wl.execute(0, self.api)
        self.assert_counts(wl.check((c, values, wall)), 0)
        bad = values.copy()
        bad[7] *= 1.0 + 1e-2
        self.assert_counts(wl.check((c, bad, wall)), 1)

    def test_points(self):
        wl = self.workload("points")
        calls, results, op_s, wall = wl.execute(0, self.api)
        self.assert_counts(wl.check((calls, results, op_s, wall)), 0)
        bad = list(results)
        r = bad[0]
        bad[0] = type(r)(r.value * (1.0 + 1e-6) + 1e-9, r.terms, r.tail)
        self.assert_counts(wl.check((calls, bad, op_s, wall)), 1)
        bad[0] = self.kk.CancellationError("perturbed")
        outcome = wl.check((calls, bad, op_s, wall))
        self.assertEqual((outcome.failed, outcome.refused, outcome.wrong), (1, 1, 0))


if __name__ == "__main__":
    unittest.main(verbosity=2)
