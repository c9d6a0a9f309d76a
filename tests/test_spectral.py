"""Tests for the spectral core: transforms, multipliers, norms."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqglab import (
    Grid,
    NormSeries,
    ParameterError,
    RealField,
    SolverConfig,
    SolverState,
    SpectralField,
    dealias,
    forward_transform,
    initial_state,
    inverse_transform,
    record_norms,
    sobolev_norm,
    sup_and_gradient_sup,
)
from sqglab import diagnostics, spectral
from sqglab.initial import PRESETS, band_limited_random, make_initial
from sqglab.spectral import _inverse, _pack, _unpack, sobolev_norms

from full_width import full_multipliers

TWO_PI = 2.0 * math.pi


def grid(n=64, length=TWO_PI):
    return Grid(n, length)


def random_field(g, seed=0):
    rng = np.random.default_rng(seed)
    return RealField(g, rng.standard_normal((g.n, g.n)))


def direct_dft(values, n):
    """O(n^4) reference transform under the package convention, full lattice."""
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return w @ values @ w.T / n ** 2


def half(coeffs):
    """The stored half lattice m2 = 0 .. n/2 of a full-lattice array."""
    return coeffs[:, : coeffs.shape[0] // 2 + 1]


def velocity(f):
    """Grid values of (u1, u2) = (-R2 f, R1 f), by the full-width multipliers."""
    u = full_multipliers(f.grid)[:2] * forward_transform(f).coeffs
    return [inverse_transform(SpectralField(f.grid, c)).values for c in u]


class TestGrid:
    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ParameterError):
            Grid(7, 1.0)
        with pytest.raises(ParameterError):
            Grid(4, 1.0)
        with pytest.raises(ParameterError):
            Grid(8, -1.0)
        with pytest.raises(ParameterError, match="box length"):
            Grid(8, 5e-324)  # 2 pi / L overflows
        with pytest.raises(ParameterError, match="largest wavenumber"):
            Grid(16, 1e-307)  # 2 pi / L is finite, (2 pi / L) n / sqrt 2 is not

    @pytest.mark.parametrize("n, length, match", [
        (16, np.float64(5e-324), "box length"),
        (16, np.float64(1e-307), "largest wavenumber"),
        (np.int64(16), np.float64(1e-307), "largest wavenumber"),
    ])
    def test_numpy_scalar_length_refused_without_a_warning(self, n, length, match):
        # the rules compute with float(L), which overflows to inf silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=match):
                Grid(n, length)

    @pytest.mark.parametrize("n", [8.7, 16.0, np.float64(16.0), "16"],
                             ids=["8.7", "float", "numpy float", "str"])
    def test_non_integer_size_refused(self, n):
        with pytest.raises(ParameterError) as err:
            Grid(n, 1.0)
        assert str(err.value) == f"grid size must be even and >= 8, got {n!r}"

    @pytest.mark.parametrize("n", [np.int64(16), np.uint16(16)])
    def test_numpy_integer_sizes_accepted(self, n):
        g = Grid(n, 1.0)
        assert g.n == 16 and type(g.n) is int

    def test_repr(self):
        assert repr(Grid(8, 4.0)) == "Grid(n=8, length=4.0)"

    def test_wavenumber_lattice(self):
        g = grid(8, 4.0)
        m = np.fft.fftfreq(8, d=1 / 8)
        assert np.allclose(g.k1[:, 0], 2 * np.pi / 4.0 * m)
        # symmetric under negation except Nyquist
        for i in range(1, 4):
            assert g.k1[i, 0] == -g.k1[-i, 0]
        assert np.allclose(g.kmag, np.hypot(g.k1, g.k2))

    def test_half_lattice_layout(self):
        g = grid(8, 4.0)
        assert g.spectral_shape == (8, 5)
        assert np.array_equal(g.m2[0], [0, 1, 2, 3, 4])
        assert g.kmag.shape == g.dealias_mask.shape == (8, 5)
        assert g.multipliers.shape == (4,) + g.packed_shape == (4, 5, 3)
        assert np.array_equal(g.weights[0], [1, 2, 2, 2, 1])

    @pytest.mark.parametrize("n", [8, 12, 98, 128, 192, 196, 206, 214, 256, 322, 1018])
    def test_frequencies_are_the_integers_and_the_mask_is_the_cutoff_block(self, n):
        # numpy's fftfreq(n, d=1/n) gives 32.00000000000001 for 32 at n = 98,
        # where the mask then left out the outermost row and column of the
        # block that cutoff, and the advection term, keep.  The cutoff is the
        # largest c with 3 c < n: at 3 c = n, (c, c) would alias onto -c
        g = grid(n, 1.0)
        assert 3 * g.cutoff < n <= 3 * (g.cutoff + 1)
        half = n // 2
        assert np.array_equal(g.m1[:, 0], np.r_[0:half, -half:0])
        assert np.array_equal(g.m2[0], np.arange(half + 1))
        rows = np.r_[0:g.cutoff + 1, n - g.cutoff:n]
        block = np.zeros(g.spectral_shape, dtype=bool)
        block[np.ix_(rows, np.arange(g.cutoff + 1))] = True
        assert np.array_equal(g.dealias_mask, block)

    @pytest.mark.parametrize("length", [TWO_PI, 1.0, 1e-11, 4e6])
    @pytest.mark.parametrize("n", [8, 10, 98, 128, 196, 206, 208, 256, 322])
    def test_packed_tables_are_the_live_block_of_the_full_width_ones(self, n, length):
        # bit for bit, signed zeros included: the stepper's trajectories are
        # those of the full-width tables
        g = grid(n, length)
        assert np.array_equal(g.multipliers.view(np.int64),
                              _pack(g, full_multipliers(g)).view(np.int64))
        for gamma in (0.5, 1.0, 1.7):
            assert np.array_equal(g._kmag_pow(gamma, packed=True).view(np.int64),
                                  _pack(g, g.kmag_pow(gamma)).view(np.int64))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [8, 12, 64, 96, 98])
    def test_packing_restricts_a_finer_spectrum_to_the_coarse_block(self, n, k):
        # live_rows counts the negative rows from the end, so the coarse
        # grid's pair reads the coarse block out of a k n half spectrum:
        # data band-limited to the coarse cutoff has the same coefficients
        # as its values at every k-th point
        coarse, fine = grid(n), grid(k * n)
        F = band_limited_random(fine, seed=n + k, max_mode=coarse.cutoff)
        restricted = _unpack(coarse, _pack(coarse, F.coeffs))
        sub = RealField(coarse, inverse_transform(F).values[::k, ::k])
        expected = forward_transform(sub).coeffs
        assert np.max(np.abs(restricted - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_grid_256_holds_and_builds_within_its_budget(self):
        # a full-width (4, n, n/2+1) multiplier stack alone is 2,113,536 bytes
        tracemalloc.start()
        try:
            g = grid(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for value in vars(g).values()
                   for a in (value if isinstance(value, tuple) else (value,))
                   if isinstance(a, np.ndarray))
        assert held <= 1.3e6
        assert peak <= 2.4e6


class TestTransforms:
    def test_zero_field(self):
        g = grid()
        F = forward_transform(RealField(g, np.zeros((g.n, g.n))))
        assert np.all(F.coeffs == 0)
        assert np.all(inverse_transform(F).values == 0)

    def test_single_cosine_mode(self):
        g = grid()
        x1, _ = g.points()
        F = forward_transform(RealField(g, np.cos(x1)))
        expected = np.zeros(g.spectral_shape, dtype=complex)
        expected[1, 0] = 0.5
        expected[-1, 0] = 0.5
        assert np.max(np.abs(F.coeffs - expected)) < 1e-15

    def test_single_mode_inverse(self):
        g = grid()
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[1, 0] = 0.5
        coeffs[-1, 0] = 0.5
        f = inverse_transform(SpectralField(g, coeffs))
        x1, _ = g.points()
        assert np.max(np.abs(f.values - np.cos(x1))) < 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_forward_matches_direct_dft_n8(self, seed):
        g = grid(8)
        f = random_field(g, seed)
        F = forward_transform(f)
        ref = half(direct_dft(f.values, 8))
        assert np.max(np.abs(F.coeffs - ref)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_inverse_recovers_direct_dft_data(self, seed):
        g = grid(8)
        f = random_field(g, seed)
        F = SpectralField(g, half(direct_dft(f.values, 8)))
        back = inverse_transform(F)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_round_trip(self, n):
        g = grid(n)
        f = random_field(g, n)
        back = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale

    def test_rejects_non_finite(self):
        g = grid(8)
        values = np.zeros((8, 8))
        values[3, 4] = np.inf
        with pytest.raises(ParameterError, match="non-finite"):
            forward_transform(RealField(g, values))

    def test_rejects_misshapen_values(self):
        with pytest.raises(ParameterError, match="expected shape"):
            forward_transform(RealField(grid(8), np.zeros((8, 4))))

    def test_parseval(self):
        for n in (8, 16, 32):
            g = grid(n)
            f = random_field(g, n + 1)
            F = forward_transform(f)
            quad = np.sum(f.values ** 2) * g.dx ** 2
            spectral = g.length ** 2 * np.sum(g.weights * np.abs(F.coeffs) ** 2)
            assert abs(quad - spectral) <= 1e-10 * quad


    def test_transforms_leave_their_argument_untouched(self):
        g = grid(32)
        f = random_field(g, seed=4)
        values = f.values.copy()
        F = forward_transform(f)
        assert np.array_equal(f.values, values)
        coeffs = F.coeffs.copy()
        back = inverse_transform(F)
        assert np.array_equal(F.coeffs, coeffs)
        sup_and_gradient_sup(F)
        assert np.array_equal(F.coeffs, coeffs)
        # results own their memory: later transforms do not overwrite them
        kept = back.values.copy()
        inverse_transform(forward_transform(random_field(g, seed=5)))
        assert np.array_equal(back.values, kept)


class TestFractionalLaplacian:
    """``Grid.kmag_pow(gamma)`` is the symbol of (-Laplace)^{gamma/2}."""

    def test_unit_mode_is_eigenfunction(self):
        g = grid()
        x1, _ = g.points()
        F = forward_transform(RealField(g, np.sin(x1)))
        for gamma in (0.3, 1.0, 2.0):
            out = inverse_transform(SpectralField(g, g.kmag_pow(gamma) * F.coeffs))
            assert np.max(np.abs(out.values - np.sin(x1))) < 1e-12

    def test_mode_two(self):
        g = grid()
        x1, _ = g.points()
        F = forward_transform(RealField(g, np.sin(2 * x1)))
        out = inverse_transform(SpectralField(g, g.kmag_pow(1.0) * F.coeffs))
        assert np.max(np.abs(out.values - 2 * np.sin(2 * x1))) < 1e-13

    def test_gamma_two_matches_minus_laplacian(self):
        g = grid(16)
        F = forward_transform(random_field(g, 5))
        expected = (g.k1 ** 2 + g.k2 ** 2) * F.coeffs
        assert np.max(np.abs(g.kmag_pow(2.0) * F.coeffs - expected)) < 1e-12

    def test_positive_semidefinite(self):
        g = grid(16)
        F = forward_transform(random_field(g, 9))
        for gamma in (0.5, 1.0, 2.0):
            out = g.kmag_pow(gamma) * F.coeffs
            quad = g.length ** 2 * np.sum(np.conj(F.coeffs) * out).real
            assert quad >= 0.0


class TestRieszVelocity:
    def test_sin_x1(self):
        g = grid()
        x1, _ = g.points()
        u1, u2 = velocity(RealField(g, np.sin(x1)))
        assert np.max(np.abs(u1)) < 1e-14
        assert np.max(np.abs(u2 - np.cos(x1))) < 1e-14

    def test_cos_x2(self):
        g = grid()
        _, x2 = g.points()
        u1, u2 = velocity(RealField(g, np.cos(x2)))
        assert np.max(np.abs(u1 - np.sin(x2))) < 1e-14
        assert np.max(np.abs(u2)) < 1e-14

    def test_constant_field(self):
        g = grid(8)
        F = forward_transform(RealField(g, np.full((8, 8), 3.7)))
        assert np.all(full_multipliers(g)[:2] * F.coeffs == 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_divergence_free(self, seed):
        g = grid(32)
        u1, u2 = full_multipliers(g)[:2] * forward_transform(random_field(g, seed)).coeffs
        div = g.k1 * u1 + g.k2 * u2
        assert np.max(np.abs(div)) < 1e-13

    def test_output_is_real(self):
        # the full-lattice complex reference, with the same Nyquist lines
        # zeroed, is real and agrees with the half-spectrum velocity
        g = grid(16)
        f = random_field(g, 11)
        m = np.fft.fftfreq(16, d=1 / 16)
        k1, k2 = m[:, None], m[None, :]
        kk = np.hypot(k1, k2)
        inv_k = np.where(kk > 0, 1.0 / np.where(kk > 0, kk, 1.0), 0.0)
        inv_k[8, :] = inv_k[:, 8] = 0.0
        full = direct_dft(f.values, 16)
        for u, symbol in zip(velocity(f), (-1j * k2 * inv_k, 1j * k1 * inv_k)):
            ref = np.fft.ifft2(symbol * full) * 16 ** 2
            assert np.max(np.abs(ref.imag)) < 1e-13
            assert np.max(np.abs(u - ref.real)) < 1e-13


class TestNorms:
    def test_zero(self):
        g = grid(8)
        F = SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
        assert sobolev_norm(F, 1.0) == 0.0

    def test_sin_all_orders(self):
        g = grid()
        x1, _ = g.points()
        F = forward_transform(RealField(g, np.sin(x1)))
        expected = math.sqrt(2.0 * math.pi ** 2)
        for s in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert abs(sobolev_norm(F, s) - expected) < 1e-12
        # s = 0 agrees with grid quadrature
        quad = math.sqrt(np.sum(np.sin(x1) ** 2)) * g.dx
        assert abs(sobolev_norm(F, 0.0) - quad) < 1e-12

    def test_multiplier_homogeneity(self):
        g = grid()
        x1, _ = g.points()
        F = forward_transform(RealField(g, np.sin(2 * x1)))
        assert abs(sobolev_norm(F, 1.0) - 2.0 * sobolev_norm(F, 0.0)) < 1e-12

    def test_single_mode_ratio_exact(self):
        g = grid()
        x1, x2 = g.points()
        F = forward_transform(RealField(g, np.sin(3 * x1 + 0.0 * x2)))
        a, b = 1.7, 0.4
        ratio = sobolev_norm(F, a) / sobolev_norm(F, b)
        assert abs(ratio - 3.0 ** (a - b)) < 1e-12

    def test_zero_mode_conventions(self):
        g = grid(8)
        F = forward_transform(RealField(g, np.full((8, 8), 2.0)))
        # s = 0 includes the mean, s > 0 does not
        assert abs(sobolev_norm(F, 0.0) - 2.0 * g.length) < 1e-12
        assert sobolev_norm(F, 1.0) == 0.0

    @pytest.mark.parametrize("n", [8, 98, 256])
    def test_l2_is_the_sum_weighted_by_kmag_to_the_zero_bit_for_bit(self, n):
        g = grid(n)
        F = forward_transform(random_field(g, n))
        energy = g.weights * (F.coeffs.real ** 2 + F.coeffs.imag ** 2)
        assert sobolev_norm(F, 0.0) == g.length * float(
            np.sqrt(np.sum(g.kmag_pow(0.0) * energy)))

    def test_negative_order_rejected(self):
        g = grid(8)
        F = forward_transform(random_field(g))
        with pytest.raises(ParameterError):
            sobolev_norm(F, -0.5)

    @pytest.mark.parametrize("order", [math.nan, math.inf])
    def test_non_finite_order_rejected(self, order):
        F = forward_transform(random_field(grid(8)))
        with pytest.raises(ParameterError, match="finite"):
            sobolev_norms(F, [1.0, order])

    def test_linf_and_gradient_sup(self):
        g = grid()
        x1, x2 = g.points()
        f = RealField(g, np.sin(x1))
        assert abs(np.max(np.abs(f.values)) - 1.0) < 1e-14
        assert abs(sup_and_gradient_sup(forward_transform(f))[1] - 1.0) < 1e-13
        f2 = RealField(g, np.sin(x1) + np.sin(x2))
        grad_sup = sup_and_gradient_sup(forward_transform(f2))[1]
        assert abs(grad_sup - math.sqrt(2.0)) < 1e-13

    def test_gradient_sup_fourier_bound(self):
        g = grid(32)
        f = random_field(g, 13)
        F = forward_transform(f)
        bound = float(np.sum(g.weights * g.kmag * np.abs(F.coeffs)))
        assert sup_and_gradient_sup(F)[1] <= bound * (1.0 + 1e-12)


SOURCES = PRESETS + ("dealiased noise", "noise", "zero")


def sample_field(g, source, seed):
    """A preset, grid noise (not dealiased) or its dealiased part, or zero."""
    if source in PRESETS:
        return make_initial(source, g, seed=seed)
    F = forward_transform(random_field(g, seed) if source != "zero"
                          else RealField(g, np.zeros((g.n, g.n))))
    return dealias(F) if source == "dealiased noise" else F


@pytest.mark.parametrize("n", [8, 16, 48, 128])
@pytest.mark.parametrize("source", SOURCES)
def test_sup_leaves_the_grid_values_of_inverse_transform(n, source):
    # the sample's inverse of F gives the values of dealias(F) bit for bit,
    # which record_norms returns, and its max and min give sup |f| as the
    # in-place abs did
    F = sample_field(grid(n), source, 5 if source in PRESETS else n)
    linf, _ = sup_and_gradient_sup(F)
    series = NormSeries()
    values, hi, lo = record_norms(SolverState(0.0, F, SolverConfig(gamma=1.0)), series)
    values = values.copy()
    assert series.column("linf")[0] == linf
    expected = inverse_transform(dealias(F)).values
    assert np.array_equal(values, expected)
    assert (hi, lo) == (expected.max(), expected.min())
    assert linf == np.abs(expected).max()
    assert math.copysign(1.0, linf) == 1.0  # never -0.0, which prints as "-0"


def sample(F):
    """record_norms' row, its (values, hi, lo) and sup_and_gradient_sup."""
    series = NormSeries(betas=(0.5, 1.0))
    values, hi, lo = record_norms(SolverState(0.0, F, SolverConfig(gamma=1.0)), series)
    values = values.copy()
    sups = sup_and_gradient_sup(F)
    return [series.column(name)[0] for name in series.columns], values, hi, lo, sups


def bits(x):
    """The float64 bit patterns of x, so that -0.0 and +0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", [8, 16, 48, 128])
@pytest.mark.parametrize("source", PRESETS + ("noise",))
def test_the_sample_reads_the_2_3_rule_block(n, source):
    # modes past the 2/3 rule, grid noise's or a preset's roundoff, do not
    # reach the sup norms: F samples as dealias(F) and as the state that
    # initial_state builds from it
    F = sample_field(grid(n), source, 5 if source in PRESETS else n)
    sups = sup_and_gradient_sup(F)
    assert np.array_equal(bits(sups), bits(sup_and_gradient_sup(dealias(F))))
    series = NormSeries()
    record_norms(initial_state(F, SolverConfig(gamma=1.0)), series)
    row = [series.column(name)[0] for name in ("linf", "grad_sup")]
    assert np.array_equal(bits(row), bits(sups))


@pytest.mark.parametrize("n", [8, 12, 98, 196, 206, 256])
@pytest.mark.parametrize("source", PRESETS + ("noise",))
def test_the_block_sample_matches_a_full_width_one_bit_for_bit(n, source):
    # on a dealiased spectrum, the sample gives the bits of the full-width
    # arithmetic it replaced: gradient factors on the whole half lattice,
    # zero on their own axis' Nyquist line, and column passes over every
    # column
    g = grid(n)
    F = dealias(sample_field(g, source, 5 if source in PRESETS else n))
    off1, off2 = np.abs(g.m1) < n // 2, np.abs(g.m2) < n // 2
    spec = np.stack([F.coeffs, 1j * (g.k1 * off1) * F.coeffs,
                     1j * (g.k2 * off2) * F.coeffs])
    np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
    f, d1, d2 = np.fft.irfft(spec, n=n, axis=-1, norm="forward")
    linf = max(abs(f.max()), abs(f.min()))
    grad_sup = float(np.sqrt((d1 * d1 + d2 * d2).max()))
    row, values, hi, lo, sups = sample(F)
    assert np.array_equal(bits(values), bits(f))
    assert np.array_equal(bits([hi, lo]), bits([f.max(), f.min()]))
    assert np.array_equal(bits(sups), bits([linf, grad_sup]))
    assert np.array_equal(bits([row[1], row[6]]), bits([linf, grad_sup]))  # linf, grad_sup


class TestSampleBatch:
    """``spectral._sample`` inverts (F, i k1 F, i k2 F) on the 2/3-rule
    block as one batch and takes the max and min of f and sup |grad f| from
    it; ``record_norms`` takes the Sobolev norms from ``sobolev_norms``."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32).map(lambda k: 2 * k), seed=st.integers(0, 2 ** 16),
           source=st.sampled_from(SOURCES))
    @example(n=8, seed=0, source="zero")
    @example(n=128, seed=1, source="random_h1")
    @example(n=256, seed=2, source="noise")
    def test_matches_the_three_field_batch_bit_for_bit(self, n, seed, source):
        g = grid(n)
        F = sample_field(g, source, seed)
        # the sup norms read F's 2/3-rule block, the Sobolev norms all of F
        kept = dealias(F).coeffs
        spec = np.stack([kept, *(full_multipliers(g)[2:] * kept)])
        f, d1, d2 = _inverse(g, spec, np.empty((3, n, n)))
        linf, grad_sup = np.abs(f).max(), float(np.sqrt((d1 * d1 + d2 * d2).max()))
        norms = sobolev_norms(F, (0.0, 1.0, 1.5, 2.0, 1.5, 2.0))
        assert np.array_equal(f, inverse_transform(dealias(F)).values)
        row, values, hi, lo, sups = sample(F)
        assert row == [0.0, linf, *norms[:4], grad_sup, *norms[4:]]
        assert math.copysign(1.0, row[1]) == 1.0  # +0.0 for the zero field
        assert np.array_equal(values, f)
        assert (hi, lo) == (f.max(), f.min())
        assert sups == (linf, grad_sup)

    @pytest.mark.parametrize("failing", ["_inverse", "_sup_norm", "sobolev_norms"])
    def test_an_error_in_the_batch_reaches_the_caller(self, failing, monkeypatch):
        # record_norms calls sobolev_norms by the name diagnostics imports
        module = diagnostics if failing == "sobolev_norms" else spectral
        F = make_initial("random_h1", grid(32), seed=4)
        expected = sample(F)
        real = getattr(module, failing)

        def fail(*args, **kwargs):
            raise Boom(failing)

        monkeypatch.setattr(module, failing, fail)
        series = NormSeries()
        with pytest.raises(Boom, match=failing):
            record_norms(SolverState(0.0, F, SolverConfig(gamma=1.0)), series)
        assert len(series) == 0  # a failed sample appends no row
        # and the next sample gives the same bits
        monkeypatch.setattr(module, failing, real)
        got = sample(F)
        assert got[0] == expected[0] and np.array_equal(got[1], expected[1])

    def test_the_batch_runs_in_the_callers_errstate(self):
        # the squared gradient of a 1e200-sized field overflows
        F = SpectralField(grid(16), np.full(grid(16).spectral_shape, 1e200, dtype=complex))
        with np.errstate(over="raise", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="overflow"):
            sup_and_gradient_sup(F)
        with np.errstate(all="ignore"):
            linf, grad_sup = sup_and_gradient_sup(F)
        assert grad_sup == math.inf

    def test_the_batch_runs_on_the_calling_thread(self, monkeypatch):
        F = make_initial("random_h1", grid(32), seed=3)
        ran = []

        def watch(name):
            half = getattr(spectral, name)

            def watched(*args, **kwargs):
                ran.append((name, threading.current_thread()))
                return half(*args, **kwargs)
            monkeypatch.setattr(spectral, name, watched)

        for name in ("_inverse", "_sup_norm"):
            watch(name)
        sample(F)
        worker = threading.Thread(target=sample, args=(F,))
        worker.start()
        worker.join()
        here = threading.current_thread()
        # each sample calls sup_and_gradient_sup once beside record_norms
        assert ran == [("_inverse", here), ("_sup_norm", here)] * 2 + [
            ("_inverse", worker), ("_sup_norm", worker)] * 2


class Boom(Exception):
    pass


class TestDealias:
    def test_low_modes_unchanged(self):
        g = grid(24)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[3, 2] = 1.0
        coeffs[-3, 2] = 1.0
        F = SpectralField(g, coeffs)
        assert np.array_equal(dealias(F).coeffs, coeffs)

    def test_high_modes_zeroed(self):
        g = grid(24)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[11, 0] = 1.0
        coeffs[-11, 0] = 1.0
        assert np.all(dealias(SpectralField(g, coeffs)).coeffs == 0)

    def test_every_mode_outside_becomes_positive_zero(self):
        # what a step writes there, whatever it held: a mask multiply would
        # leave -0.0 under a negative part and NaN under a non-finite one
        g = grid(24)
        F = forward_transform(random_field(g, 3))
        outside = ~g.dealias_mask
        F.coeffs[outside] = np.resize([-1.0 - 1.0j, np.nan, complex(-np.inf, 0.0)],
                                      int(outside.sum()))
        out = dealias(F).coeffs
        assert np.array_equal(out[g.dealias_mask], F.coeffs[g.dealias_mask])
        assert np.all(out[outside] == 0)
        assert not np.any(np.signbit(out[outside].real) | np.signbit(out[outside].imag))

    def test_idempotent(self):
        g = grid(16)
        F = forward_transform(random_field(g, 2))
        once = dealias(F)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

