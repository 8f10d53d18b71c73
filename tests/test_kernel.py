import cmath
import contextlib
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smfrft.theorems as theorems
from smfrft import (
    SQRT_J2PI,
    SQRT_J_OVER_2PI,
    DegenerateAngleError,
    InvalidParameterError,
    SampledSignal,
    SuiteConfig,
    fast_ugrid,
    frac_convolve,
    frac_correlate,
    frac_product,
    ismfrft_direct,
    ismfrft_fast,
    make_angle,
    modulate_op,
    run_suite,
    smfrft_direct,
    smfrft_fast,
)
from smfrft import kernel, transform
from smfrft.kernel import time_chirp
from smfrft.transform import smfrft_quadrature

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


@contextlib.contextmanager
def reuse_scope():
    """A reuse scope as ``run_suite`` opens one; yields its dict."""
    memo = {}
    token = kernel._reuse.set(memo)
    try:
        yield memo
    finally:
        kernel._reuse.reset(token)


def held_arrays(memo):
    """Every array that a scope's values hold."""
    return [a for value in memo.values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]


def scope_probe(monkeypatch):
    """Patch ``run_suite``'s checks to record, after each, weak references
    to the arrays its reuse scope holds, and the angles and operand ids of
    its spectra, the check's angle and operand ids, and the keys of its
    other entries; returns both lists."""
    refs, spectra = [], []

    def probed(identity, f, g, angle, *args, _fn=theorems._residuals):
        try:
            return _fn(identity, f, g, angle, *args)
        finally:
            memo = kernel._reuse.get()
            refs.extend(weakref.ref(a) for a in held_arrays(memo))
            spectral = [k for k in memo if k[0] is theorems._spectrum]
            spectra.append(({k[3] for k in spectral}, {k[1] for k in spectral},
                            angle, {id(f), id(g)}, set(memo) - set(spectral)))
    monkeypatch.setattr(theorems, "_residuals", probed)
    return refs, spectra


class TestReuseScope:
    @staticmethod
    def calls(grid, rng):
        """Every evaluator that looks up a chirp, a carrier or a chirp-z
        plan."""
        x, y = (SampledSignal(grid, rng.standard_normal(grid.count)
                              + 1j * rng.standard_normal(grid.count))
                for _ in range(2))
        angle = make_angle(0.9)
        ugrid = fast_ugrid(grid)
        u = (ugrid.start - 0.7, ugrid.step, ugrid.count)
        spectrum = smfrft_direct(x, ugrid, angle)
        return (lambda: smfrft_quadrature(x, *u, angle),
                lambda: smfrft_quadrature(x, 0.7 - ugrid.start, -ugrid.step, 100,
                                          angle),
                lambda: ismfrft_direct(spectrum, grid).samples,
                lambda: smfrft_fast(x, angle).values,
                lambda: ismfrft_fast(smfrft_fast(x, angle)).samples,
                lambda: frac_convolve(x, y, angle).samples,
                lambda: frac_correlate(x, y, angle).samples,
                lambda: frac_product(x, y, angle).samples,
                lambda: modulate_op(x, 1.3).samples,
                lambda: theorems._spectrum(x, *u, angle, conj=True))

    def test_calls_outside_a_scope_equal_calls_inside_one(self, std_grid, rng):
        for op in self.calls(std_grid, rng):
            fresh = op()
            with reuse_scope() as memo:
                cold = op()
                assert memo
                warm = op()
            assert fresh.tobytes() == cold.tobytes() == warm.tobytes()
            assert kernel._reuse.get() is None

    def test_nothing_is_kept_outside_a_scope(self, std_grid, rng):
        # each call's arrays die with it: no chirp, plan or spectrum
        # outlives the call that built it
        for op in self.calls(std_grid, rng):
            op()   # numpy's one-time set-up
            tracemalloc.start()
            try:
                op()
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert kept < 16 * std_grid.count

    def test_reused_arrays_are_read_only(self, std_grid, rng):
        with reuse_scope() as memo:
            for op in self.calls(std_grid, rng):
                op()
            arrays = held_arrays(memo)
        arrays += [*transform._bluestein_plan(512, -8.0, 0.03, 1.5, 0.2, 256, -1),
                   *transform._lattice_plan(512, -8.005, 0.03, 1.5, 2 * math.pi / 15.36,
                                            256, -1, 0.5, ("time", "u"))[2:],
                   time_chirp(std_grid, make_angle(0.4))]
        assert len(arrays) > 10
        for held in arrays:
            with pytest.raises(ValueError):
                held[0] = 0.0

    @pytest.mark.parametrize("overrides", [{}, {"q_values": (0.0, 1e308)}],
                             ids=["returns", "raises"])
    def test_run_suite_holds_nothing_after_it_ends(self, monkeypatch,
                                                   overrides):
        # the second config overflows a carrier phase after some checks ran
        refs, _ = scope_probe(monkeypatch)
        cfg = SuiteConfig(n=64, angles=(math.pi / 4, math.pi / 2),
                          pair_indices=(0, 1), **overrides)
        if overrides:
            with pytest.raises(InvalidParameterError, match="carrier phase"):
                run_suite(cfg)
        else:
            run_suite(cfg)
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        assert kernel._reuse.get() is None

    def test_spectra_live_for_one_angle_and_pair(self, monkeypatch):
        # chirps and chirp-z plans live for the run; the operand spectra
        # of one (angle, pair) are dropped when it ends
        _, spectra = scope_probe(monkeypatch)
        run_suite(SuiteConfig(n=64, angles=(math.pi / 4, math.pi / 2),
                              pair_indices=(0, 1)))
        assert len(spectra) > 20
        kept = set()
        for angles, operands, angle, pair, others in spectra:
            assert angles == {angle} and operands == pair
            assert others >= kept
            kept = others
        assert {k[2].phi for k in kept if k[0] is time_chirp} == {math.pi / 4,
                                                                  math.pi / 2}
