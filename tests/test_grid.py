import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfrft import (
    InvalidGridError,
    InvalidParameterError,
    SampledSignal,
    ShapeMismatchError,
    Spectrum,
    UniformGrid,
    gen_chirp,
    gen_gaussian,
    make_angle,
)

from smfrft.grid import _Fresh

from dense_oracle import relative_l2_error


class TestMakeGrid:
    def test_default_harness_span(self):
        grid = UniformGrid(-8.0, 0.015625, 1024)
        assert grid.point(0) == -8.0
        assert grid.point(1023) == pytest.approx(7.984375, abs=0.0)

    def test_smallest_legal_grid(self):
        grid = UniformGrid(0, 1, 2)
        assert list(grid.points()) == [0.0, 1.0]

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidGridError):
            UniformGrid(0, -1, 4)

    @pytest.mark.parametrize("count", [0, 1, -3])
    def test_short_grid_rejected(self, count):
        with pytest.raises(InvalidGridError):
            UniformGrid(0.0, 0.5, count)

    def test_points_match_point_bitwise(self):
        grid = UniformGrid(-16.0, 32.0 / 2048, 2048)
        pts = grid.points()
        for k in (0, 1, 17, 1024, 2047):
            assert pts[k] == grid.point(k)

    @given(
        start=st.floats(-100, 100),
        step=st.floats(1e-6, 10),
        count=st.integers(2, 400),
    )
    @settings(max_examples=50, deadline=None)
    def test_span_identity(self, start, step, count):
        grid = UniformGrid(start, step, count)
        pts = grid.points()
        assert np.all(np.diff(pts) > 0)
        span = grid.point(count - 1) - grid.point(0)
        assert span == pytest.approx((count - 1) * step, rel=1e-15)


class TestGenerators:
    def test_gaussian_peak_value(self, std_grid):
        x = gen_gaussian(std_grid, center=0.0, width=1.0, carrier=0.0)
        at_zero = np.argmin(np.abs(std_grid.points()))
        assert x.samples[at_zero] == 1.0

    def test_gaussian_at_unit_offset(self):
        grid = UniformGrid(-4.0, 1.0, 9)
        x = gen_gaussian(grid, center=0.0, width=1.0, carrier=0.0)
        t1 = list(grid.points()).index(1.0)
        assert x.samples[t1] == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert x.samples[t1] == pytest.approx(0.6065306597126334)

    def test_carrier_phase_vanishes_at_origin(self):
        grid = UniformGrid(-4.0, 1.0, 9)
        x = gen_gaussian(grid, center=0.0, width=1.0, carrier=2.0)
        assert x.samples[4] == 1.0 + 0.0j

    def test_gaussian_rejects_bad_width(self, std_grid):
        with pytest.raises(InvalidParameterError):
            gen_gaussian(std_grid, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            gen_gaussian(std_grid, 0.0, -1.0, 0.0)

    def test_gaussian_energy(self, std_grid):
        # dt * sum |x|^2 ~ sqrt(pi) * w when the envelope fits with margin
        for width in (0.5, 1.0, 2.0):
            x = gen_gaussian(std_grid, center=0.0, width=width, carrier=3.0)
            assert x.energy() == pytest.approx(math.sqrt(math.pi) * width,
                                               rel=1e-6)

    def test_energy_overflow_refused(self, std_grid):
        # |x|^2 of one 1e308 sample overflows; an inf energy would turn
        # every energy ratio into nan
        samples = np.zeros(std_grid.count, complex)
        samples[100] = 1e308
        x = SampledSignal(std_grid, samples)
        with pytest.raises(InvalidParameterError, match="overflows"):
            x.energy()
        with pytest.raises(InvalidParameterError, match="overflows"):
            Spectrum(std_grid, samples, make_angle(1.0)).energy()

    def test_chirp_zero_rate_is_gaussian(self, std_grid):
        chirp = gen_chirp(std_grid, rate=0.0, envelope_width=1.3)
        gauss = gen_gaussian(std_grid, center=0.0, width=1.3, carrier=0.0)
        np.testing.assert_array_equal(chirp.samples, gauss.samples)

    def test_chirp_quadratic_phase_value(self):
        # wide envelope makes the Gaussian factor 1 to machine precision
        grid = UniformGrid(-4.0, 1.0, 9)
        x = gen_chirp(grid, rate=1.0, envelope_width=1e8)
        t1 = list(grid.points()).index(1.0)
        expected = complex(math.cos(0.5), -math.sin(0.5))
        assert x.samples[t1] == pytest.approx(expected, rel=1e-14)
        assert x.samples[t1] == pytest.approx(0.8775825618903728
                                              - 0.479425538604203j)

    def test_chirp_rejects_bad_width(self, std_grid):
        with pytest.raises(InvalidParameterError):
            gen_chirp(std_grid, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("generator, name", [
        (lambda g, v: gen_gaussian(g, v, 1.0, 0.0), "center"),
        (lambda g, v: gen_gaussian(g, 0.0, v, 0.0), "width"),
        (lambda g, v: gen_gaussian(g, 0.0, 1.0, v), "carrier"),
        (lambda g, v: gen_chirp(g, v, 1.0), "rate"),
        (lambda g, v: gen_chirp(g, 1.0, v), "envelope_width"),
    ], ids=["center", "width", "carrier", "rate", "envelope_width"])
    def test_non_finite_parameter_named(self, std_grid, generator, name, value):
        # refused before any numpy work: an inf center or width would
        # otherwise give an all-zero or constant signal
        with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
            generator(std_grid, value)

    def test_chirp_cancels_against_kernel_chirp(self, std_grid, quarter_angle):
        # rate = cot(pi/4): multiplying by e^{+j t^2 cot/2} must remove the
        # quadratic phase sample-by-sample
        assert quarter_angle.cot_phi == pytest.approx(1.0, rel=1e-15)
        t = std_grid.points()
        chirp = gen_chirp(std_grid, rate=quarter_angle.cot_phi,
                          envelope_width=2.0)
        flattened = chirp.samples * np.exp(0.5j * quarter_angle.cot_phi * t * t)
        envelope = gen_gaussian(std_grid, 0.0, 2.0, 0.0).samples
        np.testing.assert_allclose(flattened.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(flattened.real, envelope.real, atol=1e-15)

    def test_generators_are_deterministic(self, std_grid):
        a = gen_chirp(std_grid, 3.0, 1.5)
        b = gen_chirp(std_grid, 3.0, 1.5)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("grid, generator, exponent", [
        (UniformGrid(0.0, 1e160, 64), lambda g: gen_chirp(g, 1.0, 1.0),
         "envelope exponent t^2"),
        (UniformGrid(1e100, 1.0, 4), lambda g: gen_chirp(g, 1e300, 1.0),
         "chirp phase"),
        (UniformGrid(0.0, 1e160, 64), lambda g: gen_gaussian(g, 0.0, 1.0, 0.0),
         "envelope exponent (t - center)^2"),
        (UniformGrid(-16.0, 1.0, 4), lambda g: gen_gaussian(g, 0.0, 1e-200, 0.0),
         "envelope exponent (t - center)^2"),
        (UniformGrid(1e100, 1.0, 4), lambda g: gen_gaussian(g, 1e100, 1.0, 1e300),
         "carrier phase"),
    ], ids=["chirp-grid", "chirp-rate", "gaussian-grid", "gaussian-width",
            "gaussian-carrier"])
    def test_overflow_refused_naming_the_grid(self, grid, generator, exponent):
        # refused before any array arithmetic, so no RuntimeWarning (an
        # error in this suite) comes first
        with pytest.raises(InvalidParameterError) as err:
            generator(grid)
        assert str(err.value).startswith(exponent)
        assert str(err.value).endswith(f"overflows a double on {grid}")


class TestSampledSignal:
    def test_sample_count_must_match_grid(self, small_grid):
        with pytest.raises(ShapeMismatchError):
            SampledSignal(small_grid, np.zeros(small_grid.count - 1, complex))

    def test_non_finite_samples_rejected(self, small_grid):
        bad = np.zeros(small_grid.count, complex)
        bad[3] = np.nan
        with pytest.raises(InvalidParameterError):
            SampledSignal(small_grid, bad)

    def test_samples_are_immutable(self, small_grid):
        x = gen_gaussian(small_grid, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            x.samples[0] = 5.0

    @pytest.mark.parametrize("build", [
        lambda grid, a: SampledSignal(grid, a).samples,
        lambda grid, a: Spectrum(grid, a, make_angle(1.0)).values,
    ], ids=["signal", "spectrum"])
    def test_caller_array_is_copied(self, small_grid, build):
        # the caller keeps its array: changing it later leaves the value
        samples = np.arange(small_grid.count, dtype=np.complex128)
        held = build(small_grid, samples)
        samples[:] = -1.0
        assert np.array_equal(held, np.arange(small_grid.count))
        assert samples.flags.writeable

    def test_fresh_array_is_taken_not_copied(self, small_grid):
        samples = np.arange(small_grid.count, dtype=np.complex128)
        x = SampledSignal(small_grid, _Fresh(samples))
        assert x.samples is samples and not samples.flags.writeable
        bad = samples.copy()
        bad[3] = np.nan
        with pytest.raises(InvalidParameterError):
            SampledSignal(small_grid, _Fresh(bad))

    def test_equal_and_hashed_by_identity(self, small_grid):
        # a signal equals only itself, not a copy with the same samples,
        # and serves as a dict key
        x = gen_gaussian(small_grid, 0.0, 1.0, 0.0)
        copy = SampledSignal(x.grid, x.samples)
        assert x == x and hash(x) == hash(x)
        assert x != copy and not x == copy
        keys = {x: "x", copy: "copy", (x, 1): "x at 1"}
        assert len(keys) == 3
        assert keys[x] == "x" and keys[copy] == "copy" and keys[x, 1] == "x at 1"


class TestRelativeL2Error:
    # the tests' residual norm, kept in the dense oracle
    def test_identical_vectors(self):
        v = np.array([1 + 2j, 3.0, -1j])
        assert relative_l2_error(v, v) == 0.0

    def test_double_of_reference(self):
        b = np.array([1.0 + 0j])
        assert relative_l2_error(2 * b, b) == 1.0

    def test_orthogonal_unit_vectors(self):
        a = np.array([1 + 0j, 0])
        b = np.array([0, 1 + 0j])
        assert relative_l2_error(a, b) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            relative_l2_error(np.zeros(3), np.zeros(4))

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_l2_error(np.ones(3), np.zeros(3))

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        a = np.array([1.0, 2.0 + 1j, -0.5])
        b = np.array([0.5, 1.9 - 2j, 0.25])
        assert relative_l2_error(scale * a, scale * b) == pytest.approx(
            relative_l2_error(a, b), rel=1e-12)
