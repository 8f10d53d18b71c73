import cmath
import collections
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
    Angle,
    DegenerateAngleError,
    InvalidGridError,
    InvalidParameterError,
    SampledSignal,
    SuiteConfig,
    UniformGrid,
    fast_ugrid,
    frac_convolve,
    frac_correlate,
    frac_product,
    ismfrft_direct,
    ismfrft_fast,
    make_angle,
    modulate_op,
    run_suite,
    shift_op,
    smfrft_direct,
    smfrft_fast,
)
from smfrft import kernel, operators, transform
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
    """Every array that a scope's values hold, the samples of its signals
    included."""
    held = [item for value in memo.values()
            for item in (value if isinstance(value, tuple) else (value,))]
    return [item.samples if isinstance(item, SampledSignal) else item
            for item in held if isinstance(item, (np.ndarray, SampledSignal))]


def scope_probe(monkeypatch):
    """Patch ``run_suite``'s checks to record, after each, weak references
    to the arrays its reuse scope holds and, of the entries that one
    (angle, pair) reads (``theorems._PAIR_LIVED``), their angles, the ids
    of the operands they hold, each shifted or modulated operand traced
    back to its source, and their number per tag; beside the check's
    angle and operand ids and the keys of the scope's other entries.
    Returns both lists."""
    refs, spectra = [], []
    derived = (operators._shifted, operators._modulated)

    def probed(identity, f, g, angle, *args, _fn=theorems._residuals):
        try:
            return _fn(identity, f, g, angle, *args)
        finally:
            memo = kernel._reuse.get()
            refs.extend(weakref.ref(a) for a in held_arrays(memo))
            lived = {k: v for k, v in memo.items()
                     if k[0] in theorems._PAIR_LIVED}
            source = {id(v[1]): v[0] for k, v in lived.items() if k[0] in derived}

            def root(x):
                while id(x) in source:
                    x = source[id(x)]
                return id(x)
            spectra.append(({a for k in lived for a in k if isinstance(a, Angle)},
                            {root(x) for v in lived.values() for x in v
                             if isinstance(x, SampledSignal)},
                            collections.Counter(k[0].__name__ for k in lived),
                            angle, {id(f), id(g)}, set(memo) - set(lived)))
    monkeypatch.setattr(theorems, "_residuals", probed)
    return refs, spectra


class TestReuseScope:
    @staticmethod
    def calls(grid, rng):
        """Every evaluator that looks up a chirp, a carrier, a chirp-z plan,
        an operand spectrum or a shifted or modulated operand."""
        x, y = (SampledSignal(grid, rng.standard_normal(grid.count)
                              + 1j * rng.standard_normal(grid.count))
                for _ in range(2))
        angle = make_angle(0.9)
        ugrid = fast_ugrid(grid)
        u = (ugrid.start - 0.7, ugrid.step, ugrid.count)
        spectrum = smfrft_direct(x, ugrid, angle)
        d = 3 * grid.step
        return (lambda: smfrft_quadrature(x, *u, angle),
                lambda: smfrft_quadrature(x, 0.7 - ugrid.start, -ugrid.step, 100,
                                          angle),
                lambda: ismfrft_direct(spectrum, grid).samples,
                lambda: smfrft_fast(x, angle).values,
                lambda: ismfrft_fast(smfrft_fast(x, angle)).samples,
                lambda: frac_convolve(x, y, angle).samples,
                lambda: frac_correlate(x, y, angle).samples,
                lambda: frac_convolve(shift_op(x, d), modulate_op(y, 1.3),
                                      angle).samples,
                lambda: frac_correlate(modulate_op(shift_op(x, d), -1.3),
                                       shift_op(y, -d), angle).samples,
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
        f, g = (SampledSignal(std_grid, rng.standard_normal(std_grid.count))
                for _ in range(2))
        with reuse_scope() as memo:
            for op in self.calls(std_grid, rng):
                op()
            # a check that keeps its left side for the printed form
            theorems._residuals(theorems.IdentityId.CORR_TFSHIFT_L, f, g,
                                make_angle(0.9), 0.5, 1.0, fast_ugrid(std_grid))
            arrays = held_arrays(memo)
        # the operand spectra of both kinds, the shifted and modulated
        # operands' samples and a time-frequency-shift phase among them
        tags = collections.Counter(k[0] for k in memo)
        assert {k[3] for k in memo if k[0] is operators._operand_spectrum} == {
            False, True}
        assert tags[operators._shifted] and tags[operators._modulated]
        assert tags[theorems._tf_shifted]
        arrays += [*transform._lattice_plan(512, -8.005, 0.03, 1.5, 2 * math.pi / 15.36,
                                            256, -1, 0.5, ("time", "u"))[2:],
                   time_chirp(std_grid, make_angle(0.4))]
        assert len(arrays) > 50
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
        # chirps, carriers, chirp-z plans and time-frequency-shift phases
        # live for the run; the spectra, the shifted and modulated operands
        # and the checks of one (angle, pair) are dropped when it ends
        _, spectra = scope_probe(monkeypatch)
        run_suite(SuiteConfig(n=64, angles=(math.pi / 4, math.pi / 2),
                              pair_indices=(0, 1)))
        assert len(spectra) > 20
        kept = set()
        for angles, operands, counts, angle, pair, others in spectra:
            assert counts["check"] and angles == {angle} and operands == pair
            assert others >= kept
            kept = others
        assert {k[2].phi for k in kept if k[0] is time_chirp} == {math.pi / 4,
                                                                  math.pi / 2}
        assert {k[1].phi for k in kept if k[0] is theorems._tf_shifted} == {
            math.pi / 4, math.pi / 2}
        # an (angle, pair) ends with its 15 checks (per operator the plain
        # one and three (d, q) for each shifted operand, and the product)
        # and 8 spectra on u grids; with 2 shifted and 6 modulated
        # operands and the operators' 12 chirped operand spectra: f, g and
        # their 6 images, and f and the 3 images of it that the correlation
        # conjugates and reverses
        assert spectra[-1][2] == {"check": 15, "_spectrum": 8, "_shifted": 2,
                                  "_modulated": 6, "_operand_spectrum": 12}

    def test_refusals_are_not_memoized(self):
        # a chirp or a carrier whose phase overflows is refused on the first
        # call and again on a repeated one, and nothing is kept for it
        wide = UniformGrid(-1e200, 1e199, 4)
        x = SampledSignal(wide, np.ones(4))
        angle = make_angle(0.9)
        with reuse_scope() as memo:
            for _ in range(2):
                with pytest.raises(InvalidGridError, match="chirp phase"):
                    time_chirp(wide, angle)
                with pytest.raises(InvalidGridError, match="chirp phase"):
                    frac_convolve(x, x, angle)
                with pytest.raises(InvalidParameterError, match="carrier phase"):
                    modulate_op(x, 1e200)
            assert not memo
