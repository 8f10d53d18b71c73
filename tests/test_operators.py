import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfrft import (
    AlignmentError,
    InvalidGridError,
    InvalidParameterError,
    SampledSignal,
    ShapeMismatchError,
    UniformGrid,
    frac_convolve,
    frac_correlate,
    frac_product,
    gen_chirp,
    gen_gaussian,
    make_angle,
    modulate_op,
    shift_op,
)

from dense_oracle import relative_l2_error

PI = math.pi


def delta_like(grid):
    """Unit-area spike at t = 0."""
    samples = np.zeros(grid.count, complex)
    at_zero = int(np.argmin(np.abs(grid.points())))
    assert grid.point(at_zero) == 0.0
    samples[at_zero] = 1.0 / grid.step
    return SampledSignal(grid, samples)


def conv_loop_oracle(f, g, angle):
    """Direct double-loop evaluation of the weighted convolution."""
    t = f.grid.points()
    dt = f.grid.step
    n = f.grid.count
    cot = angle.cot_phi
    start = f.grid.start
    out = np.zeros(n, complex)
    for i in range(n):
        for m in range(n):
            k = round((t[i] - t[m] - start) / dt)
            if 0 <= k < n:
                out[i] += (f.samples[m] * g.samples[k]
                           * np.exp(1j * t[m] * (t[m] - t[i]) * cot))
    return dt * out


def corr_loop_oracle(f, g, angle):
    t = f.grid.points()
    dt = f.grid.step
    n = f.grid.count
    cot = angle.cot_phi
    start = f.grid.start
    out = np.zeros(n, complex)
    for i in range(n):
        for m in range(n):
            k = round((t[i] + t[m] - start) / dt)
            if 0 <= k < n:
                out[i] += (np.conj(f.samples[m]) * g.samples[k]
                           * np.exp(1j * t[m] * (t[m] + t[i]) * cot))
    return dt * out


class TestShift:
    def test_zero_shift_is_identity(self, gaussian_pair):
        f, _ = gaussian_pair
        np.testing.assert_array_equal(shift_op(f, 0.0).samples, f.samples)

    def test_delta_moves_one_sample(self, small_grid):
        spike = delta_like(small_grid)
        moved = shift_op(spike, small_grid.step)
        at_zero = int(np.argmin(np.abs(small_grid.points())))
        assert moved.samples[at_zero] == 0.0
        assert moved.samples[at_zero + 1] == spike.samples[at_zero]

    def test_round_trip_zero_fills(self, small_grid):
        x = gen_gaussian(small_grid, 6.0, 1.0, 0.0)
        d = 10 * small_grid.step
        back = shift_op(shift_op(x, d), -d)
        n_shift = 10
        np.testing.assert_array_equal(back.samples[:-n_shift],
                                      x.samples[:-n_shift])
        assert np.all(back.samples[-n_shift:] == 0.0)

    def test_off_lattice_delay_rejected(self, small_grid, gaussian_pair):
        with pytest.raises(AlignmentError):
            shift_op(gaussian_pair[0], 0.3 * small_grid.step)

    @pytest.mark.parametrize("delay", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_delay_rejected(self, small_grid, gaussian_pair, delay):
        # not OverflowError or a bare ValueError from round(): every
        # library error is a SmfrftError
        with pytest.raises(AlignmentError, match="shift delay"):
            shift_op(gaussian_pair[0], delay)

    def test_oversized_shift_rejected(self, small_grid, gaussian_pair):
        with pytest.raises(InvalidParameterError):
            shift_op(gaussian_pair[0], small_grid.count * small_grid.step)


class TestModulate:
    def test_zero_frequency_is_identity(self, gaussian_pair):
        f, _ = gaussian_pair
        np.testing.assert_array_equal(modulate_op(f, 0.0).samples, f.samples)

    def test_preserves_magnitudes(self, gaussian_pair):
        f, _ = gaussian_pair
        np.testing.assert_allclose(np.abs(modulate_op(f, 3.7).samples),
                                   np.abs(f.samples), rtol=1e-15)

    @given(q1=st.floats(-10, 10), q2=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_composition_adds_frequencies(self, q1, q2):
        grid = UniformGrid(-2.0, 0.25, 16)
        x = gen_gaussian(grid, 0.0, 1.0, 0.0)
        twice = modulate_op(modulate_op(x, q1), q2)
        once = modulate_op(x, q1 + q2)
        np.testing.assert_allclose(twice.samples, once.samples, rtol=1e-12,
                                   atol=1e-15)

    def test_overflowing_phase_rejected(self, small_grid, gaussian_pair):
        # refused before numpy sees q*t: no RuntimeWarning comes first
        with pytest.raises(InvalidParameterError, match=r"q=1e\+308 on "):
            modulate_op(gaussian_pair[0], 1e308)


class TestFracConvolve:
    def test_matches_double_loop_oracle(self, small_grid, quarter_angle):
        f = gen_gaussian(small_grid, 0.2, 1.0, 1.0)
        g = gen_chirp(small_grid, 0.7, 1.2)
        got = frac_convolve(f, g, quarter_angle)
        np.testing.assert_allclose(got.samples,
                                   conv_loop_oracle(f, g, quarter_angle),
                                   rtol=1e-10, atol=1e-14)

    def test_delta_sifts(self, small_grid, quarter_angle, gaussian_pair):
        f, _ = gaussian_pair
        out = frac_convolve(f, delta_like(small_grid), quarter_angle)
        np.testing.assert_allclose(out.samples, f.samples, rtol=1e-12,
                                   atol=1e-15)

    def test_right_angle_is_plain_convolution(self, small_grid, gaussian_pair):
        f, g = gaussian_pair
        got = frac_convolve(f, g, make_angle(PI / 2))
        # unweighted zero-extended discrete convolution via numpy
        origin = round(small_grid.start / small_grid.step)
        full = np.convolve(f.samples, g.samples)
        idx = np.arange(small_grid.count) - origin
        plain = np.where((idx >= 0) & (idx < full.shape[0]),
                         full[np.clip(idx, 0, full.shape[0] - 1)], 0.0)
        np.testing.assert_allclose(got.samples, small_grid.step * plain,
                                   rtol=1e-12, atol=1e-14)

    def test_commutative_for_decaying_operands(self, small_grid, rng):
        angles = [make_angle(p) for p in (PI / 6, PI / 4, PI / 3, 2 * PI / 5)]
        for _ in range(20):
            c1, c2 = rng.uniform(-2, 2, 2)
            w1, w2 = rng.uniform(0.5, 1.4, 2)
            q1, q2 = rng.uniform(-2, 2, 2)
            f = SampledSignal(small_grid,
                              gen_gaussian(small_grid, c1, w1, q1).samples
                              + gen_gaussian(small_grid, -c2, w2, -q2).samples)
            g = gen_gaussian(small_grid, c2, w2, q2)
            angle = angles[int(rng.integers(len(angles)))]
            fg = frac_convolve(f, g, angle)
            gf = frac_convolve(g, f, angle)
            assert relative_l2_error(fg.samples, gf.samples) <= 1e-10

    def test_zero_absorber(self, small_grid, gaussian_pair, quarter_angle):
        f, _ = gaussian_pair
        zero = SampledSignal(small_grid, np.zeros(small_grid.count, complex))
        assert np.all(frac_convolve(f, zero, quarter_angle).samples == 0)

    def test_grid_mismatch_rejected(self, quarter_angle):
        f = gen_gaussian(UniformGrid(-8.0, 0.125, 128), 0, 1, 0)
        g = gen_gaussian(UniformGrid(-4.0, 0.125, 64), 0, 1, 0)
        with pytest.raises(ShapeMismatchError):
            frac_convolve(f, g, quarter_angle)

    def test_off_lattice_origin_rejected(self, quarter_angle):
        grid = UniformGrid(-8.05, 0.125, 128)
        f = gen_gaussian(grid, 0, 1, 0)
        with pytest.raises(AlignmentError):
            frac_convolve(f, f, quarter_angle)

    def test_bilinear(self, small_grid, quarter_angle, rng):
        f1 = gen_gaussian(small_grid, 0.5, 0.8, 1.0)
        f2 = gen_chirp(small_grid, 1.0, 1.0)
        g = gen_gaussian(small_grid, -0.5, 1.0, -2.0)
        a, b = 2.0 - 1j, -0.7 + 0.4j
        mixed = SampledSignal(small_grid, a * f1.samples + b * f2.samples)
        lhs = frac_convolve(mixed, g, quarter_angle).samples
        rhs = (a * frac_convolve(f1, g, quarter_angle).samples
               + b * frac_convolve(f2, g, quarter_angle).samples)
        assert relative_l2_error(lhs, rhs) <= 1e-12


class TestFracProduct:
    def test_right_angle_is_plain_product(self, small_grid, gaussian_pair):
        f, g = gaussian_pair
        got = frac_product(f, g, make_angle(PI / 2))
        np.testing.assert_allclose(got.samples, f.samples * g.samples,
                                   rtol=1e-12, atol=1e-16)

    def test_unit_second_factor(self, small_grid, quarter_angle, gaussian_pair):
        f, _ = gaussian_pair
        ones = SampledSignal(small_grid, np.ones(small_grid.count, complex))
        got = frac_product(f, ones, quarter_angle)
        t = small_grid.points()
        weight = np.exp(0.5j * quarter_angle.cot_phi * t * t)
        np.testing.assert_allclose(got.samples, f.samples * weight, rtol=1e-14)

    def test_magnitudes_multiply(self, small_grid, gaussian_pair):
        f, g = gaussian_pair
        for phi in (0.3, 1.2, 2.5):
            got = frac_product(f, g, make_angle(phi))
            np.testing.assert_allclose(np.abs(got.samples),
                                       np.abs(f.samples) * np.abs(g.samples),
                                       rtol=1e-12, atol=1e-16)


    def test_overflowing_chirp_phase_rejected(self):
        # the weight's phase cot t^2 / 2 overflows: the grid is named,
        # before numpy sees t*t
        x = SampledSignal(UniformGrid(1e200, 1e190, 4), np.ones(4))
        with pytest.raises(InvalidGridError, match=r"start=1e\+200.*phi=0.7"):
            frac_product(x, x, make_angle(0.7))


class TestFracCorrelate:
    def test_matches_double_loop_oracle(self, small_grid, quarter_angle):
        f = gen_gaussian(small_grid, 0.2, 1.0, 1.0)
        g = gen_chirp(small_grid, 0.7, 1.2)
        got = frac_correlate(f, g, quarter_angle)
        np.testing.assert_allclose(got.samples,
                                   corr_loop_oracle(f, g, quarter_angle),
                                   rtol=1e-10, atol=1e-14)

    def test_right_angle_real_cross_correlation(self, small_grid):
        # real f at phi = pi/2: ordinary discrete cross-correlation
        f = gen_gaussian(small_grid, 0.5, 0.8, 0.0)
        g = gen_gaussian(small_grid, -0.3, 1.1, 0.0)
        got = frac_correlate(f, g, make_angle(PI / 2))
        np.testing.assert_allclose(got.samples,
                                   corr_loop_oracle(f, g, make_angle(PI / 2)),
                                   rtol=1e-12, atol=1e-14)

    def test_delta_first_operand(self, small_grid, quarter_angle, gaussian_pair):
        _, g = gaussian_pair
        out = frac_correlate(delta_like(small_grid), g, quarter_angle)
        np.testing.assert_allclose(out.samples, g.samples, rtol=1e-12,
                                   atol=1e-15)

    def test_gaussian_autocorrelation_real_and_peaked(self, small_grid):
        f = gen_gaussian(small_grid, 0.0, 1.0, 0.0)
        out = frac_correlate(f, f, make_angle(PI / 2))
        assert np.max(np.abs(out.samples.imag)) <= 1e-12
        peak = int(np.argmax(out.samples.real))
        assert small_grid.point(peak) == 0.0

    def test_conjugate_linear_in_first_slot(self, small_grid, quarter_angle):
        f1 = gen_gaussian(small_grid, 0.5, 0.8, 1.0)
        f2 = gen_chirp(small_grid, 1.0, 1.0)
        g = gen_gaussian(small_grid, -0.5, 1.0, -2.0)
        a, b = 2.0 - 1j, -0.7 + 0.4j
        mixed = SampledSignal(small_grid, a * f1.samples + b * f2.samples)
        lhs = frac_correlate(mixed, g, quarter_angle).samples
        rhs = (np.conj(a) * frac_correlate(f1, g, quarter_angle).samples
               + np.conj(b) * frac_correlate(f2, g, quarter_angle).samples)
        assert relative_l2_error(lhs, rhs) <= 1e-12

    def test_zero_absorber(self, small_grid, gaussian_pair, quarter_angle):
        f, _ = gaussian_pair
        zero = SampledSignal(small_grid, np.zeros(small_grid.count, complex))
        assert np.all(frac_correlate(f, zero, quarter_angle).samples == 0)


@pytest.mark.parametrize("operator, oracle", [(frac_convolve, conv_loop_oracle),
                                              (frac_correlate, corr_loop_oracle)],
                         ids=["convolve", "correlate"])
def test_lags_off_the_support_take_no_fft(operator, oracle, quarter_angle, rng):
    # a grid that starts N steps past the origin: every lag t -+ tau falls
    # off the second operand's support, so the window is empty and zero
    grid = UniformGrid(64 * 0.125, 0.125, 64)
    f, g = (SampledSignal(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
            for _ in range(2))
    with mock.patch.object(np.fft, "fft", side_effect=AssertionError("FFT")):
        got = operator(f, g, quarter_angle)
    assert not np.any(got.samples) and not np.any(oracle(f, g, quarter_angle))
