import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfrft import (
    SQRT_J2PI,
    SQRT_J_OVER_2PI,
    DegenerateAngleError,
    make_angle,
)

from dense_oracle import frft_kernel, smfrft_kernel

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestMakeAngle:
    def test_right_angle(self):
        a = make_angle(math.pi / 2)
        assert a.cot_phi == pytest.approx(0.0, abs=1e-16)

    def test_quarter_pi(self):
        a = make_angle(math.pi / 4)
        assert a.cot_phi == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("phi", [0.0, math.pi, -math.pi, 2 * math.pi])
    def test_degenerate_angles(self, phi):
        with pytest.raises(DegenerateAngleError):
            make_angle(phi)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite(self, phi):
        with pytest.raises(DegenerateAngleError):
            make_angle(phi)


class TestSmfrftKernel:
    def test_origin_value(self):
        # exponent vanishes; remaining constant is 1/sqrt(j*2*pi)
        val = smfrft_kernel(0.0, 0.0, make_angle(math.pi / 3))
        expected = INV_SQRT_2PI * cmath.exp(-0.25j * math.pi)
        assert val == pytest.approx(expected, rel=1e-15)
        assert val == pytest.approx(0.2820947917738781 - 0.2820947917738781j)

    def test_right_angle_is_fourier_kernel(self):
        a = make_angle(math.pi / 2)
        for t, u in [(1.0, math.pi), (0.3, -2.0), (-1.7, 0.9)]:
            expected = (1.0 / SQRT_J2PI) * cmath.exp(-1j * t * u)
            assert smfrft_kernel(t, u, a) == pytest.approx(expected, rel=1e-12)

    def test_right_angle_unit_pi_point(self):
        val = smfrft_kernel(1.0, math.pi, make_angle(math.pi / 2))
        assert abs(val) == pytest.approx(0.3989422804014327, rel=1e-12)
        expected_phase = -math.pi / 4 - math.pi
        assert cmath.phase(val) == pytest.approx(
            math.remainder(expected_phase, 2 * math.pi), rel=1e-9)

    def test_quarter_pi_point(self):
        val = smfrft_kernel(1.0, 0.0, make_angle(math.pi / 4))
        assert abs(val) == pytest.approx(INV_SQRT_2PI, rel=1e-12)
        assert cmath.phase(val) == pytest.approx(0.5 - math.pi / 4, rel=1e-12)

    def test_negated_frequency_identity(self):
        # literal rewrite: kernel at -u flips the sign of the t*u term only
        a = make_angle(1.1)
        for t, u in [(0.7, 2.0), (-1.3, 0.4)]:
            direct = smfrft_kernel(t, -u, a)
            rewritten = (1.0 / SQRT_J2PI) * cmath.exp(
                1j * t * u + 0.5j * t * t * a.cot_phi)
            assert direct == pytest.approx(rewritten, rel=1e-15)

    @given(
        t=st.floats(-20, 20),
        u=st.floats(-50, 50),
        phi=st.floats(0.2, math.pi - 0.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_unimodular_chirps(self, t, u, phi):
        val = smfrft_kernel(t, u, make_angle(phi))
        assert abs(val) == pytest.approx(INV_SQRT_2PI, rel=1e-12)


class TestFrftKernel:
    def test_right_angle_origin(self):
        val = frft_kernel(0.0, 0.0, make_angle(math.pi / 2))
        assert val == pytest.approx(0.3989422804014327 + 0j, abs=1e-15)

    def test_right_angle_reduces_to_unitary_ft(self):
        a = make_angle(math.pi / 2)
        for t, u in [(1.0, 2.0), (-0.4, 1.1), (2.5, -3.0)]:
            expected = INV_SQRT_2PI * cmath.exp(-1j * u * t)
            assert frft_kernel(t, u, a) == pytest.approx(expected, rel=1e-12)

    def test_quarter_pi_closed_form(self):
        # sqrt((1-j)/(2 pi)) * exp(j (1 - sqrt(2))) evaluated independently
        val = frft_kernel(1.0, 1.0, make_angle(math.pi / 4))
        expected = cmath.sqrt((1 - 1j) / (2 * math.pi)) * cmath.exp(
            1j * (1 - math.sqrt(2)))
        assert val == pytest.approx(expected, rel=1e-14)
        assert abs(val) == pytest.approx(2 ** 0.25 / math.sqrt(2 * math.pi),
                                         rel=1e-14)

    def test_amplitude_tracks_cotangent(self):
        for phi in (0.4, 1.0, 2.2):
            a = make_angle(phi)
            expected = (1 + a.cot_phi ** 2) ** 0.25 / math.sqrt(2 * math.pi)
            assert abs(frft_kernel(0.3, -0.8, a)) == pytest.approx(
                expected, rel=1e-13)


class TestBranchConstants:
    def test_square_recovers_j2pi(self):
        assert SQRT_J2PI ** 2 == pytest.approx(2j * math.pi, rel=1e-15)

    def test_product_of_roots_is_j(self):
        assert SQRT_J2PI * SQRT_J_OVER_2PI == pytest.approx(1j, rel=1e-15)

    def test_reciprocal_has_conjugate_phase(self):
        assert 1.0 / SQRT_J2PI == pytest.approx(
            0.2820947917738781 - 0.2820947917738781j, rel=1e-15)

    def test_quoted_values(self):
        assert SQRT_J2PI == pytest.approx(1.7724538509055159 * (1 + 1j),
                                          rel=1e-12)
        assert SQRT_J2PI.real == pytest.approx(1.772454, abs=1e-6)
        assert SQRT_J2PI.imag == pytest.approx(1.772454, abs=1e-6)
        assert SQRT_J_OVER_2PI.real == pytest.approx(0.282095, abs=1e-6)
        assert SQRT_J_OVER_2PI.imag == pytest.approx(0.282095, abs=1e-6)
