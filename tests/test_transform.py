import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfrft import (
    AlignmentError,
    GridCompatibilityError,
    InvalidGridError,
    SampledSignal,
    Spectrum,
    SuiteConfig,
    UniformGrid,
    fast_ugrid,
    frac_convolve,
    frac_correlate,
    gen_chirp,
    gen_gaussian,
    ismfrft_direct,
    ismfrft_fast,
    make_angle,
    smfrft_direct,
    smfrft_fast,
)
from smfrft import transform
from smfrft.transform import smfrft_quadrature
from smfrft.corpus import default_pairs

import dense_oracle
import fast_reference
import gaussian_chirp
from dense_oracle import relative_l2_error, smfrft_kernel

PI = math.pi


def random_signal(grid, rng):
    data = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
    return SampledSignal(grid, data)


def assert_matches_kernel_sum(got, x, u, angle):
    """Each value against dt * sum_n x[n] * kernel(t_n, u_k), term by term."""
    t = x.grid.points()
    for k, uk in enumerate(u):
        ref = x.grid.step * sum(
            x.samples[n] * smfrft_kernel(t[n], uk, angle)
            for n in range(x.grid.count)
        )
        assert got[k] == pytest.approx(ref, rel=1e-12)


class TestDirectQuadrature:
    def test_matches_pointwise_kernel_sum(self, small_grid, quarter_angle):
        # ties the dense oracle, which gates the chirp-z path, to the
        # scalar kernel definition at uneven points
        x = gen_gaussian(small_grid, 0.3, 0.9, 1.2)
        u = np.array([-2.0, -0.3, 0.0, 1.7])
        got = dense_oracle.smfrft_quadrature(x, u, quarter_angle)
        assert_matches_kernel_sum(got, x, u, quarter_angle)

    @pytest.mark.parametrize("u0,du,count", [(-2.0, 0.3, 13), (1.7, -0.45, 9),
                                             (0.4, 0.0, 1)])
    def test_chirp_z_matches_pointwise_kernel_sum(self, small_grid,
                                                  quarter_angle, u0, du, count):
        # the chirp-z path against the scalar kernel on even u-grids,
        # ascending, descending and a single point
        x = gen_gaussian(small_grid, 0.3, 0.9, 1.2)
        u = u0 + du * np.arange(count)
        got = smfrft_quadrature(x, u0, du, count, quarter_angle)
        assert_matches_kernel_sum(got, x, u, quarter_angle)

    def test_zero_signal(self, small_grid, quarter_angle):
        x = SampledSignal(small_grid, np.zeros(small_grid.count, complex))
        spec = smfrft_direct(x, fast_ugrid(small_grid), quarter_angle)
        assert np.all(spec.values == 0)

    def test_gaussian_right_angle_at_origin(self):
        # closed form: integral of exp(-t^2/2) is sqrt(2*pi), so the
        # transform at u = 0 collapses to exp(-j*pi/4)
        grid = UniformGrid(-16.0, 32.0 / 2048, 2048)
        x = gen_gaussian(grid, 0.0, 1.0, 0.0)
        val = smfrft_quadrature(x, 0.0, 0.0, 1, make_angle(PI / 2))[0]
        assert val == pytest.approx(cmath.exp(-0.25j * PI), rel=1e-6)
        assert val == pytest.approx(0.7071067811865476 - 0.7071067811865475j,
                                    rel=1e-6)

    def test_gaussian_right_angle_closed_form(self):
        grid = UniformGrid(-16.0, 32.0 / 2048, 2048)
        x = gen_gaussian(grid, 0.0, 1.0, 0.0)
        u = -4.0 + 0.2 * np.arange(41)
        got = smfrft_quadrature(x, -4.0, 0.2, 41, make_angle(PI / 2))
        expected = cmath.exp(-0.25j * PI) * np.exp(-u * u / 2.0)
        assert relative_l2_error(got, expected) < 1e-6


class TestFastPath:
    def test_zero_signal(self, std_grid):
        x = SampledSignal(std_grid, np.zeros(std_grid.count, complex))
        spec = smfrft_fast(x, make_angle(PI / 3))
        assert np.all(spec.values == 0)

    def test_overflowing_chirp_phase_rejected(self):
        # cot t^2 / 2 overflows a double: the grid is named, before numpy
        # sees t*t
        x = SampledSignal(UniformGrid(1e200, 1e190, 4), np.ones(4))
        with pytest.raises(InvalidGridError, match=r"start=1e\+200.*phi=0.7"):
            smfrft_fast(x, make_angle(0.7))

    def test_matches_direct_on_fast_grid(self):
        grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
        x = gen_gaussian(grid, 0.0, 1.0, 0.0)
        angle = make_angle(PI / 3)
        fast = smfrft_fast(x, angle)
        direct = smfrft_direct(x, fast.ugrid, angle)
        assert relative_l2_error(fast.values, direct.values) <= 1e-9

    @pytest.mark.parametrize("n", [100, 257])
    def test_round_trip_any_length(self, n, rng):
        # chirp + FFT needs no power of two: even and odd N invert exactly
        grid = UniformGrid(-(n // 2) * (16.0 / n), 16.0 / n, n)
        x = random_signal(grid, rng)
        back = ismfrft_fast(smfrft_fast(x, make_angle(PI / 4)))
        assert back.grid == grid
        assert relative_l2_error(back.samples, x.samples) <= 1e-12

    def test_chirp_compaction(self, quarter_angle):
        # chirp at the kernel's own rate loses its quadratic phase in the
        # pre-multiply, so |spectrum| equals that of the bare envelope
        # under the plain Fourier angle
        grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
        chirp = gen_chirp(grid, rate=quarter_angle.cot_phi, envelope_width=2.0)
        envelope = gen_gaussian(grid, 0.0, 2.0, 0.0)
        compacted = smfrft_fast(chirp, quarter_angle)
        reference = smfrft_fast(envelope, make_angle(PI / 2))
        assert relative_l2_error(np.abs(compacted.values),
                                 np.abs(reference.values)) <= 1e-9
        peak_u = compacted.ugrid.points()[np.argmax(np.abs(compacted.values))]
        assert abs(peak_u) < 2 * compacted.ugrid.step

    def test_right_angle_reduces_to_scaled_dft(self, rng):
        # e^{-j pi/4} times the dt-scaled unitary DFT, bins fftshifted
        grid = UniformGrid(-16.0, 32.0 / 512, 512)
        x = random_signal(grid, rng)
        spec = smfrft_fast(x, make_angle(PI / 2))
        u = spec.ugrid.points()
        dft = np.fft.fftshift(np.fft.fft(x.samples))
        reference = (cmath.exp(-0.25j * PI) / math.sqrt(2 * PI) *
                     grid.step * np.exp(-1j * grid.start * u) * dft)
        assert relative_l2_error(spec.values, reference) <= 1e-12

    def test_parseval(self, rng):
        grid = UniformGrid(-16.0, 32.0 / 512, 512)
        signals = [
            gen_gaussian(grid, 0.3, 0.8, 2.0),
            gen_chirp(grid, 5.0, 1.5),
            random_signal(grid, rng),
        ]
        for x in signals:
            for phi in (0.3, PI / 4, PI / 2, 2.8):
                spec = smfrft_fast(x, make_angle(phi))
                assert abs(spec.energy() - x.energy()) / x.energy() <= 1e-12

    def test_angle_continuity(self):
        grid = UniformGrid(-16.0, 32.0 / 512, 512)
        x = gen_gaussian(grid, 0.0, 1.0, 0.0)
        base = smfrft_fast(x, make_angle(PI / 4))
        nudged = smfrft_fast(x, make_angle(PI / 4 + 1e-9))
        assert relative_l2_error(nudged.values, base.values) <= 1e-6


class TestInverse:
    def test_direct_inverse_of_zeros(self, std_grid):
        angle = make_angle(PI / 3)
        spec = Spectrum(fast_ugrid(std_grid),
                        np.zeros(std_grid.count, complex), angle)
        out = ismfrft_direct(spec, std_grid)
        assert np.all(out.samples == 0)

    def test_direct_inverse_round_trip(self):
        grid = UniformGrid(-16.0, 32.0 / 512, 512)
        x = gen_gaussian(grid, 0.5, 1.2, -2.0)
        angle = make_angle(PI / 3)
        back = ismfrft_direct(smfrft_fast(x, angle), grid)
        assert relative_l2_error(back.samples, x.samples) <= 1e-9

    def test_fast_inverse_reads_the_spectrum_grid_start(self, rng):
        # a spectrum on the FFT-bin grid shifted by 0.3 and by five bins:
        # the fast inverse is the quadrature inverse, not a sum that
        # assumes the bins start at -N/2
        grid = UniformGrid(-8.0, 16.0 / 256, 256)
        bins = fast_ugrid(grid)
        angle = make_angle(0.9)
        for shift in (0.3, 5 * bins.step):
            spectrum = Spectrum(UniformGrid(bins.start + shift, bins.step, 256),
                                random_signal(grid, rng).samples, angle, tgrid=grid)
            back = ismfrft_fast(spectrum).samples
            assert back.tobytes() == ismfrft_direct(spectrum, grid).samples.tobytes()
            want = dense_oracle.ismfrft_direct(spectrum, grid)
            assert relative_l2_error(back, want) <= 1e-12

    def test_single_bin_spectrum(self):
        # one-term sum: each output sample is a pure phasor times constants
        grid = UniformGrid(-4.0, 8.0 / 16, 16)
        angle = make_angle(PI / 2)
        ugrid = fast_ugrid(grid)
        values = np.zeros(16, complex)
        k0 = 5
        values[k0] = 1.0
        out = ismfrft_direct(Spectrum(ugrid, values, angle), grid)
        t = grid.points()
        const = cmath.exp(0.25j * PI) / math.sqrt(2 * PI)
        expected = const * ugrid.step * np.exp(1j * ugrid.point(k0) * t)
        np.testing.assert_allclose(out.samples, expected, rtol=1e-12, atol=1e-15)

    def test_fast_round_trip_random_signals(self, rng):
        grid = UniformGrid(-16.0, 32.0 / 256, 256)
        for phi in (0.2, PI / 4, PI / 2, 2.9):
            angle = make_angle(phi)
            x = random_signal(grid, rng)
            back = ismfrft_fast(smfrft_fast(x, angle))
            assert relative_l2_error(back.samples, x.samples) <= 1e-10

    @given(log2n=st.integers(1, 12), start=st.floats(-100.0, 100.0),
           step=st.floats(1e-3, 10.0),
           phi=st.floats(0.01, PI - 0.01, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fast_round_trip_random_grids(self, log2n, start, step, phi,
                                          seed):
        grid = UniformGrid(start, step, 2 ** log2n)
        angle = make_angle(phi)
        x = random_signal(grid, np.random.default_rng(seed))
        back = ismfrft_fast(smfrft_fast(x, angle))
        assert relative_l2_error(back.samples, x.samples) <= 1e-12

    def test_fast_round_trip_other_composition(self, rng):
        grid = UniformGrid(-16.0, 32.0 / 256, 256)
        angle = make_angle(1.1)
        spec = smfrft_fast(random_signal(grid, rng), angle)
        again = smfrft_fast(ismfrft_fast(spec), angle)
        assert relative_l2_error(again.values, spec.values) <= 1e-10

    def test_fast_inverse_of_zeros(self, std_grid):
        angle = make_angle(0.9)
        spec = Spectrum(fast_ugrid(std_grid),
                        np.zeros(std_grid.count, complex), angle,
                        tgrid=std_grid)
        assert np.all(ismfrft_fast(spec).samples == 0)

    def test_fast_inverse_requires_reciprocal_grids(self, std_grid):
        angle = make_angle(0.9)
        bad_ugrid = UniformGrid(-10.0, 20.0 / std_grid.count, std_grid.count)
        spec = Spectrum(bad_ugrid, np.zeros(std_grid.count, complex), angle,
                        tgrid=std_grid)
        with pytest.raises(GridCompatibilityError):
            ismfrft_fast(spec)

    def test_fast_inverse_requires_time_grid(self, std_grid):
        angle = make_angle(0.9)
        spec = Spectrum(fast_ugrid(std_grid),
                        np.zeros(std_grid.count, complex), angle)
        with pytest.raises(GridCompatibilityError):
            ismfrft_fast(spec)


class TestConventionalTransform:
    # the comparison transform has one evaluator, the dense oracle's
    def test_gaussian_right_angle(self):
        grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
        x = gen_gaussian(grid, 0.0, 1.0, 0.0)
        ugrid = UniformGrid(-4.0, 8.0 / 64, 64)
        values = dense_oracle.frft_direct(x, ugrid, make_angle(PI / 2))
        u = ugrid.points()
        assert relative_l2_error(values, np.exp(-u * u / 2)) < 1e-6

    def test_right_angle_relation_to_simplified(self, rng):
        # kernels differ by exactly sqrt(j) when cot(phi) = 0
        grid = UniformGrid(-16.0, 32.0 / 512, 512)
        x = random_signal(grid, rng)
        angle = make_angle(PI / 2)
        ugrid = UniformGrid(-8.0, 16.0 / 128, 128)
        conventional = dense_oracle.frft_direct(x, ugrid, angle)
        simplified = smfrft_direct(x, ugrid, angle)
        sqrt_j = cmath.exp(0.25j * PI)
        assert relative_l2_error(conventional,
                                 sqrt_j * simplified.values) <= 1e-12

    def test_zero_signal(self, std_grid):
        x = SampledSignal(std_grid, np.zeros(std_grid.count, complex))
        values = dense_oracle.frft_direct(x, fast_ugrid(std_grid), make_angle(1.0))
        assert np.all(values == 0)


def complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestLinearConvolve:
    @staticmethod
    def assert_window(a, b, offset, count):
        """linear_convolve's window against np.convolve, zero outside it."""
        full = np.convolve(a, b)
        expected = np.zeros(count, complex)
        for k in range(count):
            if 0 <= k + offset < full.shape[0]:
                expected[k] = full[k + offset]
        got = transform.linear_convolve(a, b, offset, count)
        assert got.shape == (count,)
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-13 * np.max(np.abs(full)))
        assert np.all(got[expected == 0] == 0)

    def test_window_matches_numpy_with_zero_fill(self, rng):
        a, b = complex_normal(rng, 9), complex_normal(rng, 12)   # 20 values
        # wholly before, straddling the start, inside, straddling the end,
        # wholly past the end
        for offset in (-15, -4, 3, 15, 25):
            self.assert_window(a, b, offset, 10)

    @pytest.mark.parametrize("sizes", [(100, 2), (2, 100)], ids=["a", "b"])
    def test_window_narrower_than_an_operand(self, sizes, rng):
        # one value from the middle: the buffer still holds the longer operand
        a, b = (complex_normal(rng, size) for size in sizes)
        self.assert_window(a, b, 50, 1)

    def test_odd_bluestein_window(self, rng):
        # N inputs, a lag chirp of N + M - 1 and the M values from N - 1 on:
        # a buffer of N + M - 1 = 113 values rounded up, the wrap never read
        n, m = 37, 77
        self.assert_window(complex_normal(rng, n), complex_normal(rng, n + m - 1),
                           n - 1, m)

    def test_empty_window_takes_no_fft(self, rng):
        a, b = complex_normal(rng, 9), complex_normal(rng, 12)
        with mock.patch.object(np.fft, "fft", side_effect=AssertionError("FFT")):
            for offset, count in ((-15, 10), (20, 10), (0, 0)):
                got = transform.linear_convolve(a, b, offset, count)
                assert got.shape == (count,) and not np.any(got)


class TestDeterminism:
    def test_repeat_calls_are_bitwise_equal(self, rng):
        grid = UniformGrid(-16.0, 32.0 / 2048, 2048)
        x = random_signal(grid, rng)
        y = random_signal(grid, rng)
        angle = make_angle(1.0)
        ugrid = fast_ugrid(grid)
        for op in (lambda: smfrft_quadrature(x, ugrid.start - 0.3, ugrid.step,
                                             ugrid.count, angle),
                   lambda: frac_convolve(x, y, angle).samples,
                   lambda: frac_correlate(x, y, angle).samples):
            assert np.array_equal(op(), op())


class TestFastPathBits:
    """The fast transforms and the quadrature give the bits of
    ``fast_reference``, which keeps every temporary and writes each chain
    of products as one expression.
    numpy elides a temporary from 256 KiB on, which would swap the
    operands of a product written the other way round: at N = 2048 no
    complex array reaches that size, at 16384 every complex array does
    (the float t*t does not) and at 2^17 all do."""

    @pytest.mark.parametrize("n", [2048, 16384, 2**17])
    def test_forward_and_inverse_match_reference(self, n, rng):
        for start in (-16.0, -13.7):  # origin on the lattice, and off it
            grid = UniformGrid(start, 32.0 / n, n)
            x = random_signal(grid, rng)
            for phi in (0.3, PI / 4, 2.0, -1.2):
                angle = make_angle(phi)
                got = smfrft_fast(x, angle)
                want = fast_reference.smfrft_fast(x, angle)
                assert got.ugrid == want.ugrid
                assert got.values.tobytes() == want.values.tobytes()
                spectrum = Spectrum(got.ugrid, random_signal(got.ugrid, rng).samples,
                                    angle, tgrid=grid)
                back = ismfrft_fast(spectrum)
                assert back.grid == grid
                assert (back.samples.tobytes()
                        == fast_reference.ismfrft_fast(spectrum).samples.tobytes())

    @pytest.mark.parametrize("n", [2048, 2**15])
    def test_quadrature_matches_reference(self, n, rng):
        # Bluestein's buffer is 2N points: 64 KiB at N = 2048, 1 MiB at 2^15;
        # the lattice route's is N points. Each route is pinned both ways: the
        # shifted u, a reversed sub-range of -u and -u itself (the inverse
        # DFT) sit on the FFT-bin lattice, a step of 0.9 du does not; the
        # inverse onto the time grid is on it
        grid = UniformGrid(-13.7, 32.0 / n, n)
        x = random_signal(grid, rng)
        ugrid = fast_ugrid(grid)
        forward = ((ugrid.start - 0.7, ugrid.step, n),
                   (-ugrid.point(n - 1), ugrid.step, n // 3),
                   (-ugrid.start, -ugrid.step, n),
                   (ugrid.start, 0.9 * ugrid.step, n))
        assert [transform._dft_turn(n, grid.step, step, count, -1)
                for _, step, count in forward] == [-1, -1, 1, 0]
        inverse = (grid, UniformGrid(-3.0, 0.01, n // 2 + 1))
        assert [transform._dft_turn(n, ugrid.step, t.step, t.count, 1)
                for t in inverse] == [1, 0]
        for phi in (0.3, -1.2):
            angle = make_angle(phi)
            for u in forward:
                assert (smfrft_quadrature(x, *u, angle).tobytes()
                        == fast_reference.smfrft_quadrature(x, *u, angle).tobytes())
            spectrum = smfrft_direct(x, ugrid, angle)
            for tgrid in inverse:
                got = ismfrft_direct(spectrum, tgrid).samples
                want = fast_reference.ismfrft_direct(spectrum, tgrid).samples
                assert got.tobytes() == want.tobytes()


# x(t) = exp(-a t^2 + b t + c): a Gaussian of width 1, and one off the
# origin with its own chirp and carrier
GAUSSIAN_CHIRPS = [(0.5, 0.0, 0.0), (0.5 + 0.3j, 1.0 + 2.0j, -0.25)]
CLOSED_FORM_ANGLES = (0.5, PI / 3, PI / 2, 2.5)
# the cli-pipeline size with its start on the lattice, and a start off it
FAST_GRIDS = [UniformGrid(-256.0, 512.0 / 2**17, 2**17),
              UniformGrid(-13.7, 1.0 / 64, 2048)]


def peak_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestClosedForm:
    """The transforms against ``gaussian_chirp``'s closed form: the largest
    error over the grid, relative to the peak."""

    def test_formula_matches_a_40_digit_integral(self):
        mpmath = pytest.importorskip("mpmath")
        # each angle once, the two signals in turn
        for (a, b, c), phi, u in zip(GAUSSIAN_CHIRPS * 2, CLOSED_FORM_ANGLES,
                                     (-1.5, 0.0, 2.5, 0.7)):
            with mpmath.workdps(40):
                big_a = mpmath.mpc(a) - 0.5j * mpmath.cot(phi)
                big_b = mpmath.mpc(b) - 1j * mpmath.mpf(u)
                # exp(-a t^2 + b t) is below 1e-48 beyond |t| = 16
                integral = mpmath.quad(
                    lambda t: mpmath.exp(-big_a * t * t + big_b * t + c), [-16, 16])
                want = complex(integral / mpmath.sqrt(2j * mpmath.pi))
            got = gaussian_chirp.spectrum(u, a, b, c, phi)
            assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("grid", FAST_GRIDS, ids=["2^17", "off-lattice"])
    def test_fast_forward_inverse_and_round_trip(self, grid):
        t, u = grid.points(), fast_ugrid(grid).points()
        for a, b, c in GAUSSIAN_CHIRPS:
            x = SampledSignal(grid, gaussian_chirp.signal(t, a, b, c))
            for phi in CLOSED_FORM_ANGLES:
                angle = make_angle(phi)
                exact = gaussian_chirp.spectrum(u, a, b, c, phi)
                spectrum = smfrft_fast(x, angle)
                assert peak_error(spectrum.values, exact) <= 1e-13
                back = ismfrft_fast(Spectrum(spectrum.ugrid, exact, angle, tgrid=grid))
                assert peak_error(back.samples, x.samples) <= 1e-13
                round_trip = ismfrft_fast(spectrum).samples
                assert relative_l2_error(round_trip, x.samples) <= 1e-15

    def test_quadrature(self):
        grid = FAST_GRIDS[1]
        t = grid.points()
        for ugrid in (fast_ugrid(grid), UniformGrid(-6.3, 12.2 / 300, 301)):
            u = ugrid.points()
            for a, b, c in GAUSSIAN_CHIRPS:
                x = SampledSignal(grid, gaussian_chirp.signal(t, a, b, c))
                for phi in CLOSED_FORM_ANGLES:
                    got = smfrft_quadrature(x, ugrid.start, ugrid.step,
                                            ugrid.count, make_angle(phi))
                    exact = gaussian_chirp.spectrum(u, a, b, c, phi)
                    assert peak_error(got, exact) <= 1e-13

    def test_quadrature_on_the_lattice_at_2_17(self):
        # the lattice route at the cli-pipeline size, forward onto the
        # FFT-bin grid and a shift of it, and back: its computed phases stay
        # within about pi/2 (Bluestein's chain erred ~9e-13)
        grid = FAST_GRIDS[0]
        t, ugrid = grid.points(), fast_ugrid(grid)
        for a, b, c in GAUSSIAN_CHIRPS:
            x = SampledSignal(grid, gaussian_chirp.signal(t, a, b, c))
            for phi in CLOSED_FORM_ANGLES:
                angle = make_angle(phi)
                for shifted in (ugrid, UniformGrid(ugrid.start + 0.3, ugrid.step,
                                                   ugrid.count)):
                    exact = gaussian_chirp.spectrum(shifted.points(), a, b, c, phi)
                    got = smfrft_quadrature(x, shifted.start, shifted.step,
                                            shifted.count, angle)
                    assert peak_error(got, exact) <= 2e-13
                exact = Spectrum(ugrid, gaussian_chirp.spectrum(
                    ugrid.points(), a, b, c, phi), angle)
                back = ismfrft_direct(exact, grid).samples
                assert peak_error(back, x.samples) <= 2e-13

    @pytest.mark.parametrize("grid", [SuiteConfig().time_grid(), FAST_GRIDS[1]],
                             ids=["suite", "off-lattice"])
    def test_corpus_operands_are_their_triples(self, grid):
        t = grid.points()
        for pair, triples in zip(default_pairs(grid), gaussian_chirp.CORPUS_PAIRS,
                                 strict=True):
            for x, (a, b, c) in zip(pair, triples, strict=True):
                assert peak_error(x.samples, gaussian_chirp.signal(t, a, b, c)) <= 1e-14

    @pytest.mark.parametrize("grid", [FAST_GRIDS[1], UniformGrid(-32.0, 1.0 / 64, 4096)],
                             ids=["off-lattice", "wide"])
    def test_fast_and_direct_onto_shifted_and_negated_bins(self, grid):
        # every output grid on the FFT-bin lattice: the bins, shifted off
        # them, and negated (shifted again); Bluestein's route is refused
        t, bins = grid.points(), fast_ugrid(grid)
        last = bins.point(bins.count - 1)
        ugrids = [bins, UniformGrid(bins.start + 0.3, bins.step, bins.count),
                  UniformGrid(-last, bins.step, bins.count),
                  UniformGrid(-last - 7.3, bins.step, bins.count)]
        with mock.patch.object(transform, "linear_convolve",
                               side_effect=AssertionError("took Bluestein's route")):
            for a, b, c in GAUSSIAN_CHIRPS:
                x = SampledSignal(grid, gaussian_chirp.signal(t, a, b, c))
                for phi in CLOSED_FORM_ANGLES:
                    angle = make_angle(phi)
                    spectra = [smfrft_fast(x, angle)] + [
                        smfrft_direct(x, ugrid, angle) for ugrid in ugrids]
                    for spectrum in spectra:
                        exact = gaussian_chirp.spectrum(spectrum.ugrid.points(),
                                                        a, b, c, phi)
                        assert peak_error(spectrum.values, exact) <= 1e-13

    def test_start_too_far_for_its_step_is_refused(self):
        # start/step overflows: no numpy warning, no OverflowError from
        # round(), an error that names the grid
        grid = UniformGrid(1e300, 1e-10, 4)
        angle = make_angle(0.7)
        x = SampledSignal(grid, np.ones(4))
        spectrum = Spectrum(fast_ugrid(grid), np.ones(4), angle, tgrid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlignmentError, match="time grid start"):
                smfrft_fast(x, angle)
            with pytest.raises(AlignmentError, match="time grid start"):
                ismfrft_fast(spectrum)


class TestLinearity:
    def test_all_five_operations(self, rng):
        grid = UniformGrid(-8.0, 16.0 / 128, 128)
        angle = make_angle(1.0)
        ugrid = fast_ugrid(grid)
        x = random_signal(grid, rng)
        y = random_signal(grid, rng)
        alpha, beta = 1.7 - 0.3j, -0.8 + 1.1j

        def lin_sig(op):
            mixed = SampledSignal(grid, alpha * x.samples + beta * y.samples)
            lhs = op(mixed)
            rhs = alpha * op(x) + beta * op(y)
            return relative_l2_error(lhs, rhs)

        assert lin_sig(lambda s: smfrft_direct(s, ugrid, angle).values) <= 1e-12
        assert lin_sig(lambda s: smfrft_fast(s, angle).values) <= 1e-12
        assert lin_sig(lambda s: dense_oracle.frft_direct(s, ugrid, angle)) <= 1e-12

        sx = smfrft_fast(x, angle)
        sy = smfrft_fast(y, angle)
        mixed_spec = Spectrum(sx.ugrid, alpha * sx.values + beta * sy.values,
                              angle, tgrid=grid)
        lhs = ismfrft_fast(mixed_spec).samples
        rhs = (alpha * ismfrft_fast(sx).samples
               + beta * ismfrft_fast(sy).samples)
        assert relative_l2_error(lhs, rhs) <= 1e-12

        lhs = ismfrft_direct(mixed_spec, grid).samples
        rhs = (alpha * ismfrft_direct(sx, grid).samples
               + beta * ismfrft_direct(sy, grid).samples)
        assert relative_l2_error(lhs, rhs) <= 1e-12


class TestTimeFrequencyShift:
    """The quadrature's exact time-frequency-shift identity. Delaying x by
    k whole samples, d = k dt, and modulating it by e^{jqt} turns its
    transform into e^{-j(u - q)d + (j/2) d^2 cot} X(u - q - d cot): the
    substitution t = t' + d in the sum, term by term. x fills N samples of
    a grid widened by |k|, so the shift drops none. The image grid lies
    q + d cot off the u grid, q a fraction of its step, so the two sides
    split their output starts differently. Each side rounds its kernel
    phases u t and its chirp phases cot t^2 / 2, so the sides may differ
    by a few eps times those phases over the samples' L2 norm
    (independent rounding errors add in quadrature)."""

    @pytest.mark.parametrize("route", ["lattice", "bluestein"])
    @given(n=st.integers(16, 4096), lag=st.integers(1, 1024),
           sign=st.sampled_from([-1, 1]), offset=st.floats(0.1, 0.9),
           span=st.floats(4.0, 64.0), phi=st.floats(0.1, PI - 0.1),
           s=st.sampled_from([-2, -1, 1, 2]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_shifted_and_modulated_transform(self, route, n, lag, sign, offset,
                                             span, phi, s, seed):
        k = sign * (1 + lag % (n // 4))
        count = n + abs(k)
        dt = span / n
        grid = UniformGrid((offset - count // 2) * dt, dt, count)
        rng = np.random.default_rng(seed)
        x = np.zeros(count, dtype=np.complex128)
        x[max(0, -k):max(0, -k) + n] = (rng.standard_normal(n)
                                        + 1j * rng.standard_normal(n))
        # the FFT-bin step of the widened grid takes the lattice route,
        # 0.9 of it Bluestein's
        du = 2 * PI / (count * dt) * (1.0 if route == "lattice" else 0.9)
        assert bool(transform._dft_turn(count, dt, du, count, -1)) == (
            route == "lattice")
        angle = make_angle(phi)
        cot = angle.cot_phi
        d, q = k * dt, 0.37 * du * s
        t = grid.points()
        u0 = -(count // 2) * du
        v0 = u0 - q - d * cot
        u = np.arange(count) * du + u0
        y = SampledSignal(grid, np.roll(x, k) * np.exp(1j * q * t))
        lhs = smfrft_quadrature(y, u0, du, count, angle)
        rhs = np.exp(-1j * (u - q) * d + 0.5j * d * d * cot) * smfrft_quadrature(
            SampledSignal(grid, x), v0, du, count, angle)
        u_max = max(abs(u0), abs(u[-1]), abs(v0), abs(v0 + (count - 1) * du))
        t_max = max(abs(t[0]), abs(t[-1]))
        bound = (8 * np.finfo(float).eps * (1 + u_max * t_max + abs(cot) * t_max ** 2)
                 * dt * np.linalg.norm(x) / math.sqrt(2 * PI))
        assert np.max(np.abs(lhs - rhs)) <= bound
