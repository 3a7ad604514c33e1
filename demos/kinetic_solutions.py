"""Solving the three fractional kinetic equation variants.

Each variant is a linear Volterra equation driven by a generalized
k-Bessel source:

    variant 1:  N(t) - N0 w(t)             = -d^nu I^nu N(t)
    variant 2:  N(t) - N0 w(d^nu t^nu)     = -d^nu I^nu N(t)
    variant 3:  N(t) - N0 w(d^nu t^nu)     = -a^nu I^nu N(t),  a != d

Run:  python demos/kinetic_solutions.py
"""

import numpy as np

from kkinetics import (
    KBesselParams,
    KineticProblem,
    Theorem,
    solve_grid,
    solve_point,
)

params = KBesselParams(k=2.0, gamma=1.0, lam=1.0, mu=1.0, b=3.0, c=2.0)

print("=== variant 1 on t in [0, 1] ===")
prob1 = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T1, params=params)
table = solve_grid(prob1, np.linspace(0.0, 1.0, 11))
print(f"{'t':>6} {'N(t)':>18} {'terms':>6} {'tail':>10}")
for t, v, n, tail in zip(table.times, table.values, table.terms, table.tails):
    print(f"{t:6.2f} {v:18.12f} {n:6d} {tail:10.2e}")

print()
print("=== fractional order: same problem at nu = 0.7 ===")
prob_frac = KineticProblem(n0=2.0, d=3.0, nu=0.7, variant=Theorem.T1, params=params)
table = solve_grid(prob_frac, np.linspace(0.0, 1.0, 6))
for t, v in zip(table.times, table.values):
    print(f"  N({t:4.2f}) = {v:.12f}")

print()
print("=== variants 2 and 3 on t in [0, 0.05] ===")
prob2 = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T2, params=params)
prob3 = KineticProblem(n0=2.0, d=3.0, nu=1.0, variant=Theorem.T3, params=params, a=1.0)
grid = np.linspace(0.0, 0.05, 6)
t2 = solve_grid(prob2, grid)
t3 = solve_grid(prob3, grid)
print(f"{'t':>7} {'variant 2 (rate d=3)':>22} {'variant 3 (rate a=1)':>22}")
for t, v2, v3 in zip(grid, t2.values, t3.values):
    print(f"{t:7.3f} {v2:22.15f} {v3:22.15f}")

print()
print("variant 3 evaluated at a = d reproduces variant 2 bit for bit:")
t = 0.04
# KineticProblem refuses a = d for variant 3; set it past the check on purpose
prob3_at_d = KineticProblem(
    n0=2.0, d=3.0, nu=1.0, variant=Theorem.T3, params=params, a=2.0 * prob2.d
)
object.__setattr__(prob3_at_d, "a", prob2.d)
v2 = solve_point(prob2, t).value
v3_at_d = solve_point(prob3_at_d, t).value
print(f"  variant 2:        {v2!r}")
print(f"  variant 3 at a=d: {v3_at_d!r}")
print(f"  identical: {v2 == v3_at_d}")
