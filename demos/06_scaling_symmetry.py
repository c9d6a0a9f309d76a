"""Scaling symmetry of the critical equation.

For gamma = 1, theta(Ct, Cx) solves the same equation from the rescaled
initial data theta0(Cx).  The oracle runs both sides on genuinely
different grids: the full box to time C*t (then subsampled), and the
box shrunk by C to time t.  Agreement is limited only by solver error,
so it is a sharp end-to-end consistency check of the advection assembly,
the dissipation factor, and the time stepper at once.
"""

import sqglab as sq
import math

grid = sq.Grid(128, 2 * math.pi)
theta0 = sq.band_limited_random(grid, seed=3, max_mode=grid.n // 6, amplitude=0.5)
print(f"band-limited data: max|m| <= {grid.n // 6}, sup norm 0.5")

print("== full nonlinear dynamics, C = 2, t = 0.5 ==")
report = sq.scaling_consistency(theta0, 2, 0.5)
print(f"  relative L2 discrepancy: {report.max_rel_error:.3e} "
      f"(tolerance {report.tolerance:g}) -> {'pass' if report.passed else 'FAIL'}")

print("== dissipation only (advection off): exact semigroup algebra ==")
report = sq.scaling_consistency(theta0, 2, 0.5, nonlinear=False)
print(f"  relative L2 discrepancy: {report.max_rel_error:.3e} "
      f"(tolerance {report.tolerance:g}) -> {'pass' if report.passed else 'FAIL'}")

print("== C = 1 degenerates to comparing a run with itself ==")
report = sq.scaling_consistency(theta0, 1, 0.25)
print(f"  relative L2 discrepancy: {report.max_rel_error:.3e}")
