"""Property tests that pin the half-spectrum layout and its invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import (
    Grid,
    RealField,
    SolverConfig,
    SolverState,
    SpectralField,
    adapt_dt,
    dealias,
    forward_transform,
    initial_state,
    inverse_transform,
    make_initial,
    nonlinear_term,
    sobolev_norm,
    step,
)
from sqglab.spectral import _forward, _inverse, _pack, _unpack

from full_width import full_multipliers

SETTINGS = settings(max_examples=30, deadline=None)

grids = st.builds(Grid, st.sampled_from([8, 10, 12, 16, 24, 32]),
                  st.floats(min_value=0.5, max_value=20.0))
even_grids = st.builds(Grid, st.integers(min_value=4, max_value=32).map(lambda h: 2 * h),
                       st.floats(min_value=0.5, max_value=20.0))  # n even in 8-64
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
scales = st.floats(min_value=1e-3, max_value=1e3)


def random_field(grid, seed, scale):
    rng = np.random.default_rng(seed)
    return RealField(grid, scale * rng.standard_normal((grid.n, grid.n)))


@SETTINGS
@given(grids, seeds, scales)
def test_round_trip(grid, seed, scale):
    f = random_field(grid, seed, scale)
    F = forward_transform(f)
    assert F.coeffs.shape == grid.spectral_shape == (grid.n, grid.n // 2 + 1)
    back = inverse_transform(F)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    again = forward_transform(back)
    assert np.max(np.abs(again.coeffs - F.coeffs)) <= 1e-12 * np.max(np.abs(F.coeffs))


@SETTINGS
@given(grids, seeds, scales)
def test_half_spectrum_is_the_full_transform(grid, seed, scale):
    f = random_field(grid, seed, scale)
    full = np.fft.fft2(f.values) / grid.n ** 2
    F = forward_transform(f).coeffs
    assert np.max(np.abs(F - full[:, : grid.n // 2 + 1])) <= 1e-13 * np.max(np.abs(full))


@SETTINGS
@given(grids, seeds, scales)
def test_parseval(grid, seed, scale):
    F = forward_transform(random_field(grid, seed, scale))
    quad = math.sqrt(np.sum(inverse_transform(F).values ** 2)) * grid.dx
    assert math.isclose(sobolev_norm(F, 0.0), quad, rel_tol=1e-12)


@SETTINGS
@given(grids, seeds, scales)
def test_riesz_velocity_is_divergence_free(grid, seed, scale):
    theta = forward_transform(random_field(grid, seed, scale))
    u1, u2 = full_multipliers(grid)[:2] * theta.coeffs
    div = grid.k1 * u1 + grid.k2 * u2
    bound = 1e-14 * np.max(grid.kmag) * np.max(np.abs(theta.coeffs))
    assert np.max(np.abs(div)) <= bound


@SETTINGS
@given(grids, seeds, scales)
def test_dealias_is_idempotent(grid, seed, scale):
    once = dealias(forward_transform(random_field(grid, seed, scale)))
    assert np.array_equal(dealias(once).coeffs, once.coeffs)
    assert np.all(once.coeffs[~grid.dealias_mask] == 0)


@SETTINGS
@given(grids, seeds, scales)
def test_nonlinear_term_has_zero_mean(grid, seed, scale):
    theta = forward_transform(random_field(grid, seed, scale))
    out = nonlinear_term(theta)
    # |u| <= sum |u_hat| and |grad theta| <= sum |k| |theta_hat|
    weighted = grid.weights * np.abs(theta.coeffs)
    bound = np.sum(weighted) * np.sum(grid.kmag * weighted)
    assert abs(out.coeffs[0, 0]) <= 1e-13 * bound


@SETTINGS
@given(st.integers(min_value=4, max_value=32), st.integers(min_value=0, max_value=4),
       seeds)
def test_split_passes_match_numpy_2d_transforms(half_n, batch, seed):
    # batch 0 is a single unbatched field; the passes must repeat irfftn's and
    # rfft2's bit for bit, so that trajectories do not change, and the pruned
    # passes must repeat them on the 2/3-rule truncation, packed, for the sum
    # of two fields
    n = 2 * half_n
    grid = Grid(n, 1.0)
    mask = grid.dealias_mask
    lead = (batch,) if batch else ()
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(lead + (n, n))
    spec = np.empty(lead + grid.spectral_shape, dtype=complex)
    more = rng.standard_normal(values.shape)
    summed = np.fft.rfft2(values + more, norm="forward")
    packed = np.empty(lead + grid.packed_shape, dtype=complex)
    _forward(grid, values, more, spec, packed)
    assert np.array_equal(packed, _pack(grid, summed))
    assert np.array_equal(_unpack(grid, packed), summed * mask)

    spec = (rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    out = np.empty(lead + (n, n))
    for dealiased, kept in ((False, spec), (True, spec * mask)):
        expected = np.fft.irfftn(kept, s=(n, n), axes=(-2, -1), norm="forward")
        scratch = spec.copy()
        if dealiased:  # nothing past column n//3 may reach the pruned inverse
            scratch[..., n // 3 + 1:] = np.nan
        assert np.array_equal(_inverse(grid, scratch, out, dealiased), expected)


def _rhs_of(theta, dealiased_state):
    """The advection term the stepper starts from and sup|u|, from a state
    built as ``initial_state`` builds it or from theta as given."""
    config = SolverConfig(gamma=1.0)
    if dealiased_state:
        return initial_state(theta, config).stage1
    return SolverState(t=0.0, theta=theta, config=config).stage1


@SETTINGS
@given(even_grids, seeds, scales)
def test_rhs_of_dealiased_theta_matches_full_width_reference(grid, seed, scale):
    theta = dealias(forward_transform(random_field(grid, seed, scale)))
    rhs, _ = _rhs_of(theta, True)
    n = grid.n
    u1, u2, d1, d2 = np.fft.irfftn(full_multipliers(grid) * theta.coeffs, s=(n, n),
                                   axes=(-2, -1), norm="forward")
    product = np.fft.rfft2(d1 * u1 + d2 * u2, norm="forward")
    assert np.array_equal(_unpack(grid, rhs), dealias(SpectralField(grid, product)).coeffs)


@SETTINGS
@given(even_grids, seeds, scales)
def test_rhs_reads_only_the_retained_modes(grid, seed, scale):
    theta = forward_transform(random_field(grid, seed, scale))
    rhs, umax = _rhs_of(theta, False)
    rhs_kept, umax_kept = _rhs_of(theta, True)
    assert np.array_equal(rhs, rhs_kept)
    assert umax == umax_kept
    term = nonlinear_term(theta).coeffs
    assert np.array_equal(_pack(grid, term), rhs)
    assert np.all(term[~grid.dealias_mask] == 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=128).map(lambda h: 2 * h), seeds)
def test_packing_keeps_the_live_block_and_steps_leave_positive_zeros(n, seed):
    # n even in 8-256; the noise has nonzero modes everywhere, so dealias
    # leaves signed zeros outside the mask
    grid = Grid(n, 2.0 * math.pi)
    theta = dealias(forward_transform(random_field(grid, seed, 1.0)))
    packed = _pack(grid, theta.coeffs)
    assert packed.shape == grid.packed_shape == (2 * grid.cutoff + 1, grid.cutoff + 1)
    back = _unpack(grid, packed)
    mask = grid.dealias_mask
    bits, back_bits = theta.coeffs.view(np.uint64), back.view(np.uint64)
    live = np.repeat(mask, 2, axis=-1)  # real and imaginary parts
    assert np.array_equal(bits[live], back_bits[live])
    assert np.all(back_bits[~live] == 0)  # +0.0
    assert np.array_equal(_pack(grid, back), packed)
    # a stepped state holds +0.0 outside the mask, from smooth data or noise
    config = SolverConfig(gamma=1.0)
    for theta0 in (make_initial("random_h1", grid, seed=seed), theta):
        state = initial_state(theta0, config)
        state = step(state, adapt_dt(state))
        assert np.all(state.theta.coeffs.view(np.uint64)[~live] == 0)
