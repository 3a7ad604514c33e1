"""Validating the closed-form solutions without trusting the series code.

The oracle machinery solves the same kinetic equation by direct
product-integration marching, measures the defining-equation residual of a
candidate solution against the source samples the march kept (the source
is evaluated once per node), and checks the transform-domain relation
Ntilde(p) (1 + rate^nu p^-nu) = N0 Ftilde(p) by numeric quadrature.

Run:  python demos/oracle_validation.py
"""

import math

import numpy as np

from kkinetics import (
    KBesselParams,
    KineticProblem,
    MLParams,
    QuadratureGrid,
    Theorem,
    haubold_mathai,
    laplace_check,
    mittag_leffler,
    residual,
    solve_grid,
    solve_point,
    solve_volterra,
)

params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)
prob = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T1, params=params)

print("=== series vs direct Volterra marching (h = 1/2048) ===")
grid = QuadratureGrid(1.0, 2048, prob.nu)
series = solve_grid(prob, grid.times)
oracle = solve_volterra(prob.n0, prob.source, prob.rate, grid)
diff = np.max(np.abs(np.asarray(series.values) - oracle.values))
print(f"max |series - oracle| over 2049 nodes: {diff:.3e}")

print()
print("=== defining-equation residual of the series solution ===")
print(f"normalized residual: {residual(series, oracle):.3e}")

print()
print("=== constant-source relaxation baseline ===")
g = QuadratureGrid(2.0, 2048, 0.5)
sol = solve_volterra(2.0, lambda t: 1.0, 1.0, g)
t_probe = 1.0
j = int(round(t_probe / g.h))
closed = haubold_mathai(2.0, 1.0, 0.5, t_probe).value
print(f"half-order relaxation at t=1: marching {sol.values[j]:.10f}, "
      f"Mittag-Leffler closed form {closed:.10f}")

print()
print("convergence under step halving (error on common nodes):")
for nu in (0.5, 1.0):
    errs = []
    for n in (1024, 2048):
        gq = QuadratureGrid(2.0, n, nu)
        s = solve_volterra(2.0, lambda t: 1.0, 1.0, gq)
        ref = np.array([
            2.0 * mittag_leffler(MLParams(nu, 1.0), -(t ** nu)).value
            for t in gq.times
        ])
        rel = np.abs(s.values - ref) / np.abs(ref)
        errs.append(rel[:: n // 1024].max())
    print(f"  nu={nu}: {errs[0]:.3e} -> {errs[1]:.3e}  (gain {errs[0]/errs[1]:.2f}x)")

print()
print("=== transform-domain identity ===")
for p in (5.0, 10.0):
    defect = laplace_check(prob, lambda t: solve_point(prob, t).value, p)
    print(f"relative defect at p={p:g}: {defect:.3e}")

print()
print("closed-form cross-check of the quadrature (nu=1, constant source):")
n0, d, p = 2.0, 3.0, 10.0
from kkinetics import laplace_transform
n_tilde = laplace_transform(lambda t: n0 * math.exp(-d * t), p)
f_tilde = laplace_transform(lambda t: 1.0, p)
print(f"  Ntilde vs n0/(p+d): {n_tilde:.10f} vs {n0/(p+d):.10f}")
print(f"  identity defect:    {abs(n_tilde*(1+d/p) - n0*f_tilde)/(n0*f_tilde):.3e}")
