"""Full-width references for the tests: the tables that ``Grid`` keeps on
the packed 2/3-rule block only, on the whole half lattice."""

import numpy as np


def kmag(grid):
    """|k| on the (n, n/2+1) half lattice."""
    return np.hypot(grid.k1, grid.k2)


def dealias_mask(grid):
    """True on the modes the 2/3 rule keeps, max(|m1|, |m2|) <= cutoff."""
    return (np.abs(grid.m1) <= grid.cutoff) & (np.abs(grid.m2) <= grid.cutoff)


def full_multipliers(grid):
    """The (4, n, n/2+1) stack of the Riesz velocity u1 = -i k2/|k|,
    u2 = i k1/|k| and the gradient i k1, i k2, from ``k1``, ``k2`` and
    ``kmag``.  The velocity vanishes at k = 0 and on both Nyquist lines, each
    gradient component on its own axis' Nyquist line."""
    n = grid.n
    off1, off2 = np.abs(grid.m1) < n // 2, np.abs(grid.m2) < n // 2
    k = kmag(grid)
    inv_k = np.zeros_like(k)
    np.divide(1.0, k, out=inv_k, where=(k > 0.0) & off1 & off2)
    return 1j * np.stack(np.broadcast_arrays(
        -grid.k2 * inv_k, grid.k1 * inv_k, grid.k1 * off1, grid.k2 * off2))
