"""Structural properties of the discretization.

With the dissipation switched off, dealiased pseudo-spectral advection is
skew-symmetric, so the L2 norm is conserved up to time-integration error.
With dissipation on, both the L2 norm and the grid sup norm must be
non-increasing (the sup norm up to a small resolution-dependent wiggle,
since the grid maximum can move between lattice points).
"""

import math

import numpy as np

import sqglab as sq

grid = sq.Grid(128, 2 * math.pi)
theta0 = sq.make_initial("cmt", grid)

print("== inviscid run (kappa = 0): L2 conservation ==")
config = sq.SolverConfig(gamma=1.0, kappa=0.0, cfl=0.5, dt_max=0.05)
l2_0 = sq.sobolev_norm(theta0, 0.0)
state = sq.initial_state(theta0, config)
for t_end in (0.25, 0.5, 1.0):
    state = sq.run_until(state, t_end)
    drift = abs(sq.sobolev_norm(state.theta, 0.0) - l2_0) / l2_0
    print(f"  t = {t_end:4.2f}: relative L2 drift {drift:.3e}")

print("== dissipative run (kappa = 1): monotone norms ==")
config = sq.SolverConfig(gamma=1.0, kappa=1.0, cfl=0.5, dt_max=0.05)
series = sq.NormSeries()
state = sq.initial_state(theta0, config)
sq.record_norms(state, series)
sq.run_until(state, 5.0, callbacks=[lambda st: sq.record_norms(st, series)],
             callback_times=[0.25 * i for i in range(1, 21)])
linf = series.column("linf")
l2 = series.column("l2")
print(f"  samples: {len(series)}")
print(f"  worst Linf rise between samples: {np.max(np.diff(linf)):.3e}"
      f"  (tolerance 1e-4 at this resolution)")
print(f"  worst L2 rise between samples:   {np.max(np.diff(l2)):.3e}")
print(f"  Linf path: {linf[0]:.4f} -> {linf[8]:.4f} -> {linf[-1]:.4f}")

print("== advection term is orthogonal to theta (skew symmetry) ==")
theta = sq.dealias(sq.make_initial("gaussian_bump", grid))
term = sq.nonlinear_term(theta)
inner = grid.length ** 2 * float(
    np.sum(grid.weights * np.conj(theta.coeffs) * term.coeffs).real)
print(f"  <theta, u . grad theta> = {inner:.3e}")
print(f"  mean of the advection term  = {abs(term.coeffs[0, 0]):.3e}")
