import collections
import itertools
import json
import math

import numpy as np
import pytest

import smfrft.kernel as kernel
import smfrft.theorems as theorems
import smfrft.transform as transform
from smfrft import (
    AlignmentError,
    IdentityId,
    InvalidParameterError,
    SampledSignal,
    SuiteConfig,
    UniformGrid,
    check,
    fast_ugrid,
    frac_correlate,
    gen_chirp,
    gen_gaussian,
    make_angle,
    modulate_op,
    report_rows,
    reports_to_json,
    run_suite,
    shift_op,
    smfrft_direct,
)
from smfrft.corpus import PAIR_COUNT, default_pairs
from smfrft.transform import smfrft_quadrature

import closed_forms
import dense_oracle
from dense_oracle import relative_l2_error

PI = math.pi


@pytest.fixture
def theorem_grid():
    return UniformGrid(-16.0, 32.0 / 512, 512)


@pytest.fixture
def theorem_ugrid(theorem_grid):
    return fast_ugrid(theorem_grid)


@pytest.fixture
def operands(theorem_grid):
    f = gen_gaussian(theorem_grid, 0.2, 1.0, 0.8)
    g = gen_gaussian(theorem_grid, -0.4, 0.9, -1.2)
    return f, g


class TestConjTransform:
    # the overline spectrum the certificate uses: _spectrum with conj
    def test_real_signal_equals_plain_transform(self, theorem_grid):
        f = gen_gaussian(theorem_grid, 0.3, 1.0, 0.0)
        ugrid = fast_ugrid(theorem_grid)
        angle = make_angle(PI / 3)
        overline = theorems._spectrum(f, ugrid.start, ugrid.step, ugrid.count,
                                      angle, conj=True)
        plain = smfrft_direct(f, ugrid, angle)
        np.testing.assert_array_equal(overline, plain.values)

    def test_pure_imaginary_signal(self, theorem_grid):
        g = gen_gaussian(theorem_grid, 0.0, 1.0, 0.0)
        jf = SampledSignal(theorem_grid, 1j * g.samples)
        ugrid = fast_ugrid(theorem_grid)
        angle = make_angle(PI / 3)
        overline = theorems._spectrum(jf, ugrid.start, ugrid.step, ugrid.count,
                                      angle, conj=True)
        plain = smfrft_direct(g, ugrid, angle)
        # rounding level against the spectrum's scale: entries in the
        # ~1e-16 tails carry rounding of the whole FFT sum
        scale = np.max(np.abs(plain.values))
        np.testing.assert_allclose(overline, -1j * plain.values,
                                   rtol=1e-15, atol=1e-15 * scale)

    def test_naive_conjugate_reading_fails(self, theorem_grid):
        # the overline operator transforms the conjugated signal; taking
        # the conjugate of the transform instead keeps a conjugated kernel
        # chirp and breaks the correlation identity away from pi/2
        f = gen_gaussian(theorem_grid, 0.4, 1.0, 1.5)   # complex, non-even
        g = gen_gaussian(theorem_grid, -0.2, 0.8, -0.7)
        angle = make_angle(PI / 4)
        ugrid = fast_ugrid(theorem_grid)
        u = (ugrid.start, ugrid.step, ugrid.count)
        minus_u = (-ugrid.start, -ugrid.step, ugrid.count)
        lhs = smfrft_quadrature(frac_correlate(f, g, angle), *u, angle)
        c2pi = theorems.SQRT_J2PI
        true_rhs = c2pi * smfrft_quadrature(f.conjugate(), *minus_u, angle) \
            * smfrft_quadrature(g, *u, angle)
        naive_rhs = c2pi * np.conj(smfrft_quadrature(f, *minus_u, angle)) \
            * smfrft_quadrature(g, *u, angle)
        assert relative_l2_error(lhs, true_rhs) <= 1e-4
        assert relative_l2_error(lhs, naive_rhs) > 1e-2


class TestTimeFrequencyShiftProperty:
    # the property behind every shifted and modulated right-hand side,
    # against the time-domain route: shift, modulate, then transform
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("phi", [0.3, PI / 4, 1.2, PI / 2, 2.5])
    def test_matches_time_domain_route(self, n, phi):
        grid = UniformGrid(-16.0, 32.0 / n, n)
        angle = make_angle(phi)
        ugrid = fast_ugrid(grid)
        u = (ugrid.start, ugrid.step, ugrid.count)
        minus_u = (-ugrid.start, -ugrid.step, ugrid.count)
        signals = (gen_gaussian(grid, 0.2, 1.0, 0.8),
                   gen_chirp(grid, 0.9, 1.2))
        for x, conj, v, d, q in itertools.product(
                signals, (False, True), (u, minus_u), (0.0, 0.5, -1.0),
                (0.0, 1.0, -2.0)):
            moved = modulate_op(shift_op(x.conjugate() if conj else x, d), q)
            route = smfrft_quadrature(moved, *v, angle)
            phase, spectrum = theorems._tf_shifted(x, angle, d, q, v, conj)
            assert relative_l2_error(phase * spectrum, route) <= 1e-12, (
                conj, v[0], d, q)

    def test_unit_phase_at_zero_delay_changes_no_bit(self, operands,
                                                     theorem_ugrid, monkeypatch):
        # at d = 0 the phase e^{-j(v-q)d + (j/2) d^2 cot} is exactly 1, so
        # every right-hand side that skips it has the bits of one that
        # evaluates it
        f, g = operands
        angle = make_angle(0.7)
        cases = [(op, side, q) for op in ("conv", "corr") for side in "LR"
                 for q in (0.0, 1.0, -2.0)]
        skipped = [theorems.rhs_tfshift(f, g, angle, 0.0, q, theorem_ugrid, op,
                                        side)
                   for op, side, q in cases]

        def evaluated(x, angle, d, q, v, conj=False):
            start, step, count = v
            points = np.arange(count, dtype=np.float64) * step + start
            phase = np.exp(-1j * (points - q) * d + 0.5j * d * d * angle.cot_phi)
            return phase, theorems._spectrum(x, start - q - d * angle.cot_phi,
                                             step, count, angle, conj)
        monkeypatch.setattr(theorems, "_tf_shifted", evaluated)
        for (op, side, q), want in zip(cases, skipped):
            got = theorems.rhs_tfshift(f, g, angle, 0.0, q, theorem_ugrid, op,
                                       side)
            assert got.tobytes() == want.tobytes(), (op, side, q)


class TestIndividualChecks:
    def test_convolution_passes(self, operands, theorem_ugrid):
        f, g = operands
        report = check(IdentityId.CONV, f, g, make_angle(PI / 3),
                       theorem_ugrid, 1e-4)
        assert report.passed
        assert report.residual_paper_form == report.residual_derived_form
        assert report.chosen_form == "agree"

    def test_convolution_zero_operand_is_vacuous(self, theorem_grid,
                                                 theorem_ugrid):
        zero = SampledSignal(theorem_grid,
                             np.zeros(theorem_grid.count, complex))
        g = gen_gaussian(theorem_grid, 0.0, 1.0, 0.0)
        report = check(IdentityId.CONV, zero, g, make_angle(PI / 3),
                       theorem_ugrid, 1e-4)
        assert report.passed
        assert report.tolerance == theorems.ABSOLUTE_TOLERANCE
        assert report.residual_paper_form <= 1e-14

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_shift_convolution(self, operands, theorem_ugrid, side):
        f, g = operands
        report = check(IdentityId("CONV_SHIFT_" + side), f, g,
                       make_angle(PI / 4), theorem_ugrid, 1e-4, d=0.5)
        assert report.passed
        assert report.chosen_form == "agree"

    def test_shift_convolution_zero_delay_matches_base(self, operands,
                                                       theorem_ugrid):
        f, g = operands
        angle = make_angle(PI / 3)
        base = check(IdentityId.CONV, f, g, angle, theorem_ugrid, 1e-4)
        shifted = check(IdentityId.CONV_SHIFT_L, f, g, angle, theorem_ugrid,
                        1e-4, d=0.0)
        assert shifted.residual_paper_form == pytest.approx(
            base.residual_paper_form, rel=1e-12)

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_modulation_convolution(self, operands, theorem_ugrid, side):
        f, g = operands
        report = check(IdentityId("CONV_MOD_" + side), f, g,
                       make_angle(PI / 3), theorem_ugrid, 1e-4, q=1.0)
        assert report.passed

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_tfshift_convolution(self, operands, theorem_ugrid, side):
        f, g = operands
        report = check(IdentityId("CONV_TFSHIFT_" + side), f, g,
                       make_angle(PI / 4), theorem_ugrid, 1e-4, d=0.5, q=1.0)
        assert report.passed

    def test_product(self, operands, theorem_grid):
        f, g = operands
        report = check(IdentityId.PROD, f, g, make_angle(PI / 3),
                       fast_ugrid(theorem_grid), 1e-3)
        assert report.passed

    def test_product_wide_second_factor(self):
        # a constant factor is not admissible; a wide Gaussian stands in
        grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
        f = gen_gaussian(grid, 0.0, 1.0, 0.5)
        g = gen_gaussian(grid, 0.0, 8.0, 0.0)
        report = check(IdentityId.PROD, f, g, make_angle(PI / 3),
                       fast_ugrid(grid), 1e-3)
        assert report.passed

    def test_product_right_angle(self, operands, theorem_grid):
        f, g = operands
        assert check(IdentityId.PROD, f, g, make_angle(PI / 2),
                     fast_ugrid(theorem_grid), 1e-3).passed

    def test_product_u_grid_off_lattice_rejected(self, operands, theorem_grid):
        # the spectral convolution is read at lattice index k - start/du
        f, g = operands
        ugrid = fast_ugrid(theorem_grid)
        off = UniformGrid(ugrid.start + 0.5 * ugrid.step, ugrid.step,
                          ugrid.count)
        with pytest.raises(AlignmentError):
            check(IdentityId.PROD, f, g, make_angle(PI / 3), off, 1e-3)

    def test_correlation(self, operands, theorem_ugrid):
        f, g = operands
        report = check(IdentityId.CORR, f, g, make_angle(PI / 4),
                       theorem_ugrid, 1e-4)
        assert report.passed

    def test_correlation_real_autocorrelation(self, theorem_grid):
        f = gen_gaussian(theorem_grid, 0.0, 1.0, 0.0)
        angle = make_angle(PI / 2)
        report = check(IdentityId.CORR, f, f, angle, fast_ugrid(theorem_grid),
                       1e-6)
        assert report.passed
        out = frac_correlate(f, f, angle)
        assert np.max(np.abs(out.samples.imag)) <= 1e-10

    def test_correlation_zero_second_operand(self, theorem_grid,
                                             theorem_ugrid):
        f = gen_gaussian(theorem_grid, 0.0, 1.0, 0.0)
        zero = SampledSignal(theorem_grid,
                             np.zeros(theorem_grid.count, complex))
        report = check(IdentityId.CORR, f, zero, make_angle(PI / 4),
                       theorem_ugrid, 1e-4)
        assert report.passed
        assert report.residual_paper_form <= 1e-14

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_shift_correlation(self, operands, theorem_ugrid, side):
        f, g = operands
        report = check(IdentityId("CORR_SHIFT_" + side), f, g,
                       make_angle(PI / 4), theorem_ugrid, 1e-4, d=0.5)
        assert report.passed
        assert report.chosen_form == "agree"

    @pytest.mark.parametrize("side", ["L", "R"])
    def test_modulation_correlation(self, operands, theorem_ugrid, side):
        f, g = operands
        report = check(IdentityId("CORR_MOD_" + side), f, g,
                       make_angle(PI / 3), theorem_ugrid, 1e-4, q=1.0)
        assert report.passed

    def test_tfshift_correlation_right_side_agrees(self, operands,
                                                   theorem_ugrid):
        f, g = operands
        report = check(IdentityId.CORR_TFSHIFT_R, f, g, make_angle(PI / 4),
                       theorem_ugrid, 1e-4, d=0.5, q=1.0)
        assert report.passed
        assert report.chosen_form == "agree"


    @pytest.mark.parametrize("identity, params", [
        (IdentityId.CONV, {"d": 0.5}), (IdentityId.PROD, {"q": 1.0}),
        (IdentityId.CONV_SHIFT_L, {"q": 1.0}),
        (IdentityId.CORR_MOD_R, {"d": 0.5}),
    ])
    def test_unswept_parameter_rejected(self, operands, theorem_ugrid,
                                        identity, params):
        f, g = operands
        with pytest.raises(InvalidParameterError, match="takes no"):
            check(identity, f, g, make_angle(PI / 4), theorem_ugrid, 1e-4,
                  **params)


class TestAdjudication:
    def test_shifted_correlation_right_angle_phase(self, operands,
                                                   theorem_grid):
        # the printed pi/2 special case flips the phase sign; the general
        # formula specialized to cot = 0 is the one that holds
        f, g = operands
        report = check(IdentityId.CORR_SHIFT_L, f, g, make_angle(PI / 2),
                       fast_ugrid(theorem_grid), 1e-6, d=0.5)
        assert report.passed
        assert report.chosen_form == "derived"
        assert report.residual_derived_form <= 1e-6
        assert report.residual_paper_form > 1e-2

    @pytest.mark.parametrize("d", [0.5, -1.0])
    def test_shifted_correlation_printed_form(self, operands, theorem_grid, d):
        # the printed pi/2 form is the derived one at -d: the phase is the
        # printed e^{-jud}, and cot(pi/2) leaves the d cot terms below
        # rounding
        f, g = operands
        angle = make_angle(PI / 2)
        ugrid = fast_ugrid(theorem_grid)
        row = theorems._FAMILIES[IdentityId.CORR_SHIFT_L]
        printed = closed_forms.rhs_corr_shift_printed(f, g, angle, d, ugrid)
        assert relative_l2_error(row.printed_rhs(f, g, angle, d, 0.0, ugrid),
                                 printed) <= 1e-12

    def test_shifted_correlation_fractional_angles_agree(self, operands,
                                                         theorem_ugrid):
        f, g = operands
        report = check(IdentityId.CORR_SHIFT_L, f, g, make_angle(PI / 3),
                       theorem_ugrid, 1e-4, d=0.5)
        assert report.chosen_form == "agree"

    @pytest.mark.parametrize("d,q", [(0.5, 1.0), (0.5, 0.0), (0.0, 1.0),
                                     (0.0, 0.0)])
    def test_tfshift_correlation_left_side(self, operands, theorem_ugrid,
                                           d, q):
        # the printed form drops the negation of the spectrum argument and
        # carries a different phase pattern; the derivation-consistent
        # form wins at every parameter set for non-even operands
        f, g = operands
        report = check(IdentityId.CORR_TFSHIFT_L, f, g, make_angle(PI / 4),
                       theorem_ugrid, 1e-4, d=d, q=q)
        assert report.passed
        assert report.chosen_form == "derived"
        assert report.residual_derived_form <= 1e-4
        assert report.residual_paper_form > 1e-2

    @pytest.mark.parametrize("phi", [PI / 4, PI / 2])
    @pytest.mark.parametrize("d,q", [(0.5, 1.0), (0.5, 0.0), (0.0, 1.0),
                                     (0.0, 0.0)])
    def test_tfshift_correlation_printed_form(self, operands, theorem_grid,
                                              phi, d, q):
        # the printed left form the report adjudicates is the form as
        # printed, written out on its own in closed_forms
        f, g = operands
        angle = make_angle(phi)
        ugrid = fast_ugrid(theorem_grid)
        row = theorems._FAMILIES[IdentityId.CORR_TFSHIFT_L]
        printed = closed_forms.rhs_corr_tfshift_printed(f, g, angle, d, q, ugrid)
        assert relative_l2_error(row.printed_rhs(f, g, angle, d, q, ugrid),
                                 printed) <= 1e-12


class TestSpecializationLattice:
    # tfshift formulas must collapse onto the simpler families bitwise-ish
    def test_conv_tfshift_specializes(self, operands, theorem_grid):
        f, g = operands
        angle = make_angle(PI / 4)
        ugrid = fast_ugrid(theorem_grid)
        for side in ("L", "R"):
            tf = theorems.rhs_tfshift(f, g, angle, 0.5, 0.0, ugrid, "conv", side)
            sh = closed_forms.rhs_conv_shift(f, g, angle, 0.5, ugrid, side)
            assert relative_l2_error(tf, sh) <= 1e-12
            tf = theorems.rhs_tfshift(f, g, angle, 0.0, 1.0, ugrid, "conv", side)
            mod = closed_forms.rhs_conv_modulation(f, g, angle, 1.0, ugrid, side)
            assert relative_l2_error(tf, mod) <= 1e-12
            tf = theorems.rhs_tfshift(f, g, angle, 0.0, 0.0, ugrid, "conv", side)
            base = closed_forms.rhs_convolution(f, g, angle, ugrid)
            assert relative_l2_error(tf, base) <= 1e-12

    def test_corr_tfshift_specializes(self, operands, theorem_grid):
        f, g = operands
        angle = make_angle(PI / 3)
        ugrid = fast_ugrid(theorem_grid)
        for side in ("L", "R"):
            tf = theorems.rhs_tfshift(f, g, angle, 0.5, 0.0, ugrid, "corr", side)
            sh = closed_forms.rhs_corr_shift_derived(f, g, angle, 0.5, ugrid, side)
            assert relative_l2_error(tf, sh) <= 1e-12
            tf = theorems.rhs_tfshift(f, g, angle, 0.0, 1.0, ugrid, "corr", side)
            mod = closed_forms.rhs_corr_modulation(f, g, angle, 1.0, ugrid, side)
            assert relative_l2_error(tf, mod) <= 1e-12
            tf = theorems.rhs_tfshift(f, g, angle, 0.0, 0.0, ugrid, "corr", side)
            base = closed_forms.rhs_correlation(f, g, angle, ugrid)
            assert relative_l2_error(tf, base) <= 1e-12


class TestIndependence:
    def test_rhs_builders_never_run_time_domain_operators(self, operands,
                                                          theorem_grid,
                                                          monkeypatch):
        # structural invariant: the right-hand sides must stay independent
        # of the operators whose outputs they are checked against
        f, g = operands
        angle = make_angle(PI / 4)
        ugrid = fast_ugrid(theorem_grid)

        def boom(*args, **kwargs):
            raise AssertionError("RHS builder invoked a time-domain operator")

        monkeypatch.setattr(theorems, "frac_convolve", boom)
        monkeypatch.setattr(theorems, "frac_correlate", boom)
        monkeypatch.setattr(theorems, "frac_product", boom)
        for identity in IdentityId:
            theorems.rhs_values(identity, f, g, angle, 0.5, 1.0, ugrid)
        rows = theorems._FAMILIES
        rows[IdentityId.CORR_SHIFT_L].printed_rhs(f, g, angle, 0.5, 0.0, ugrid)
        rows[IdentityId.CORR_TFSHIFT_L].printed_rhs(f, g, angle, 0.5, 1.0, ugrid)
        with pytest.raises(AssertionError):
            theorems.lhs_signal(IdentityId.CONV, f, g, angle, 0.0, 0.0)


class TestSuite:
    def small_config(self, **kw):
        defaults = dict(n=256, angles=(PI / 4, PI / 2), d_values=(0.0, 0.5),
                        q_values=(0.0, 1.0), pair_indices=(0,))
        defaults.update(kw)
        return SuiteConfig(**defaults)

    def test_small_run_passes(self):
        reports = run_suite(self.small_config())
        assert all(r.passed for r in reports)
        combos = {(r.identity, r.phi, r.d, r.q) for r in reports}
        assert len(combos) == len(reports)   # one record per combination

    def test_record_counts(self):
        reports = run_suite(self.small_config())
        # per angle: 3 base + 4 shift-family x2 + 4 mod-family x2 + 4 tf x4
        per_angle = 3 * 1 + 4 * 2 + 4 * 2 + 4 * 4
        assert len(reports) == 2 * per_angle
        assert {r.identity for r in reports} == set(IdentityId)

    def test_shared_checks_do_the_same_work(self, monkeypatch):
        # records share one computed check where the general builders
        # collapse onto a simpler family, printed forms included, and the
        # right-hand sides of one (angle, pair) share their operand
        # spectra; these counts pin both
        counts = collections.Counter()
        for name in ("smfrft_quadrature", "frac_convolve", "frac_correlate",
                     "frac_product"):
            def counted(*args, _name=name, _fn=getattr(theorems, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(theorems, name, counted)
        run_suite(self.small_config())
        assert counts == {"smfrft_quadrature": 54, "frac_convolve": 14,
                          "frac_correlate": 14, "frac_product": 2}

    def test_a_run_makes_a_pinned_number_of_ffts(self, monkeypatch):
        # per (angle, pair): the 27 quadratures one FFT each (24 forward,
        # 3 inverse), the 14 weighted operators one inverse FFT each and one
        # forward FFT per distinct chirped operand (12, shared through the
        # reuse scope; 28 if each call took its own), and the product's
        # spectral convolution two forward and one inverse
        counts = collections.Counter()
        for name in ("fft", "ifft"):
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        run_suite(self.small_config())
        assert counts == {"fft": 2 * (24 + 12 + 2), "ifft": 2 * (3 + 14 + 1)}

    def test_a_run_builds_each_chirp_z_plan_once(self, monkeypatch):
        # a plan lives for the run, so each of its 9 chirp-z geometries is
        # built once; the next run builds them again, as nothing outlives it.
        # Every geometry sits on the FFT-bin lattice: none takes Bluestein's
        # route, the one caller of transform.linear_convolve (rhs_product
        # calls its own imported name, and the operators compose its steps)
        built = {"_lattice_plan": [], "linear_convolve": []}
        for name in built:
            def counted(*geometry, _name=name, _fn=getattr(transform, name)):
                built[_name].append(geometry)
                return _fn(*geometry)
            monkeypatch.setattr(transform, name, counted)
        for run in (1, 2):
            run_suite(self.small_config())
            lattice = built["_lattice_plan"]
            assert len(lattice) == len(set(lattice)) * run == 9 * run
            assert built["linear_convolve"] == []

    def test_reuse_changes_no_number(self):
        # every record equals, bit for bit, the check that computes its
        # spectra afresh (check never memoizes)
        cfg = self.small_config()
        tgrid = cfg.time_grid()
        f, g = default_pairs(tgrid)[0]
        ugrid = fast_ugrid(tgrid)
        reports = run_suite(cfg)
        assert len(reports) == 70
        for r in reports:
            fresh = check(r.identity, f, g, make_angle(r.phi), ugrid,
                          cfg.tolerance_for(r.identity, r.phi), d=r.d, q=r.q)
            assert repr(r) == repr(fresh)
        assert kernel._reuse.get() is None

    def test_spectrum_memo_tells_inputs_apart(self, operands, theorem_grid,
                                              reuse_scope):
        # a grid with the same start and count but another step, the
        # conjugate, another angle and another operand are all misses
        f, g = operands
        ugrid = fast_ugrid(theorem_grid)
        u = (ugrid.start, ugrid.step, ugrid.count)
        calls = [(f, u, PI / 4, False), (f, u, PI / 4, True),
                 (f, (ugrid.start, 2 * ugrid.step, ugrid.count), PI / 4, False),
                 (f, u, PI / 3, False), (g, u, PI / 4, False),
                 (f, u, PI / 4, False)]
        with reuse_scope() as memo:
            for x, grid, phi, conj in calls:
                angle = make_angle(phi)
                fresh = smfrft_quadrature(x.conjugate() if conj else x,
                                          *grid, angle)
                got = theorems._spectrum(x, *grid, angle, conj=conj)
                assert got.tobytes() == fresh.tobytes()
        assert len([k for k in memo if k[0] is theorems._spectrum]) == 5

    def test_check_memo_tells_keys_apart(self, operands, theorem_grid,
                                         reuse_scope):
        # another operand, (d, q), angle, operator or operand order is a
        # miss; a family that collapses onto a computed check is a hit,
        # and a printed form reads the left side that another family built
        f, g = operands
        ugrid = fast_ugrid(theorem_grid)
        tf_l, tf_r = IdentityId.CONV_TFSHIFT_L, IdentityId.CONV_TFSHIFT_R
        calls = [(tf_l, f, g, PI / 4, 0.5, 1.0), (tf_r, f, g, PI / 4, 0.5, 1.0),
                 (tf_l, f, g, PI / 4, 0.5, 0.0), (tf_l, f, g, PI / 4, 0.0, 1.0),
                 (tf_l, f, g, PI / 3, 0.5, 1.0), (tf_l, g, f, PI / 4, 0.5, 1.0),
                 (IdentityId.CORR_TFSHIFT_R, f, g, PI / 4, 0.5, 1.0),
                 (IdentityId.CORR, f, g, PI / 4, 0.0, 0.0),
                 (IdentityId.CONV_SHIFT_L, f, g, PI / 4, 0.5, 0.0),
                 (IdentityId.CONV_MOD_L, f, g, PI / 4, 0.0, 1.0),
                 (IdentityId.CORR_MOD_R, f, g, PI / 4, 0.0, 0.0),
                 (IdentityId.CORR_TFSHIFT_L, f, g, PI / 4, 0.0, 0.0),
                 (IdentityId.CORR_SHIFT_L, f, g, PI / 2, 0.5, 0.0),
                 (IdentityId.CORR_TFSHIFT_L, f, g, PI / 2, 0.5, 0.0)]
        calls = [(identity, x, y, make_angle(phi), d, q, ugrid)
                 for identity, x, y, phi, d, q in calls]
        fresh = [theorems._residuals(*args) for args in calls]
        with reuse_scope() as memo:
            assert [theorems._residuals(*args) for args in calls] == fresh
        assert len([k for k in memo if k[0] is theorems.check]) == 9

    def test_empty_corpus_is_refused(self):
        # no certificate of nothing: the config refuses before any work
        with pytest.raises(InvalidParameterError,
                           match="pair_indices: must not be empty"):
            self.small_config(pair_indices=())

    def test_zero_tolerance_fails(self):
        cfg = self.small_config(
            identities=(IdentityId.CONV,), angles=(PI / 4,),
            tolerance_fractional=0.0, tolerance_pi_half=0.0,
            tolerance_product=0.0,
        )
        reports = run_suite(cfg)
        assert not all(r.passed for r in reports)

    def test_identity_filter(self):
        cfg = self.small_config(identities=(IdentityId.CONV, IdentityId.PROD))
        reports = run_suite(cfg)
        assert {r.identity for r in reports} == {IdentityId.CONV,
                                                 IdentityId.PROD}

    def test_report_rows_key_order(self):
        cfg = self.small_config(identities=(IdentityId.CONV,),
                                angles=(PI / 4,))
        rows = report_rows(run_suite(cfg))
        assert list(rows[0].keys()) == [
            "identity", "phi", "d", "q", "n", "residual_paper_form",
            "residual_derived_form", "tolerance", "pass", "chosen_form",
        ]
        parsed = json.loads(reports_to_json(run_suite(cfg)))
        assert parsed[0]["identity"] == "CONV"
        assert parsed[0]["pass"] is True

    def test_failure_carries_context(self, monkeypatch):
        # an exception outside the library's errors is a bug, not bad input
        cfg = self.small_config(identities=(IdentityId.CORR,),
                                angles=(PI / 4,))

        def boom(*args, **kwargs):
            raise ValueError("synthetic")

        monkeypatch.setattr(theorems, "rhs_tfshift", boom)
        with pytest.raises(RuntimeError, match="CORR .*phi=0.785"):
            run_suite(cfg)

    def test_library_error_keeps_its_class(self, monkeypatch):
        cfg = self.small_config(identities=(IdentityId.CORR,),
                                angles=(PI / 4,))

        def boom(*args, **kwargs):
            raise AlignmentError("synthetic")

        monkeypatch.setattr(theorems, "rhs_tfshift", boom)
        with pytest.raises(AlignmentError, match=(
                r"^CORR at phi=0\.785\d* d=0\.0 q=0\.0: synthetic$")):
            run_suite(cfg)

    @pytest.mark.parametrize("overrides, record, message", [
        ({"q_values": (0.0, 1e308)}, r"CONV_MOD_L at phi=\S+ d=0\.0 q=1e\+308",
         "carrier phase"),
        ({"start": -1e152, "span": 2e152}, r"CONV at phi=\S+ d=0\.0 q=0\.0",
         "residual norms"),
        # q t stays finite on the grid, but the right side's q d does not
        ({"start": -1.0, "span": 2.0, "d_values": (1.5,),
          "q_values": (1.5e308,), "identities": ("CONV_TFSHIFT_L",)},
         r"CONV_TFSHIFT_L at phi=\S+ d=1\.5 q=1\.5e\+308", "residual norms"),
        # the chirp passes, but the right side's chirp-z phase d cot dt
        # does not
        ({"start": -1.5e149, "span": 3e149, "angles": (1e-10,),
          "d_values": (2.390625e149,), "identities": ("CONV_SHIFT_L",)},
         r"CONV_SHIFT_L at phi=1e-10 d=2\.39\S+ q=0\.0", "residual norms"),
    ], ids=["carrier-phase", "residual-norm", "delay-phase", "chirp-z-phase"])
    def test_overflow_names_the_record(self, overrides, record, message):
        # sides that overflow a double are bad input, not a failed identity
        with pytest.raises(InvalidParameterError,
                           match=f"^{record}: {message}"):
            run_suite(SuiteConfig(n=64, **overrides))


class TestTruncationFreeWindow:
    # The default window (start -16, span 32) cuts the corpus chirps off,
    # which leaves CONV/CORR residuals near 1e-7. On the doubled window at
    # the default dt every operand has decayed to rounding level at the
    # edges, so the clean residuals are ~1e-13 and a 1e-11 bound sees
    # defects that the default tolerances let through.
    BOUND = 1e-11

    @staticmethod
    def worst_residual():
        reports = run_suite(SuiteConfig(n=4096, start=-32.0, span=64.0))
        assert len(reports) == 175
        worst = max(min(r.residual_paper_form, r.residual_derived_form)
                    for r in reports)
        return worst, all(r.passed for r in reports)

    def test_every_record_within_bound(self):
        worst, _ = self.worst_residual()
        assert worst <= self.BOUND

    def test_scaled_cot_in_tf_shift_fails(self, monkeypatch):
        # cot * (1 + 1e-6) in the time-frequency-shift property passes all
        # 175 records at the default tolerances, but not this gate
        def scaled(x, angle, d, q, v, conj=False):
            cot = angle.cot_phi * (1 + 1e-6)
            start, step, count = v
            points = np.arange(count, dtype=np.float64) * step + start
            phase = np.exp(-1j * (points - q) * d + 0.5j * d * d * cot)
            return phase, theorems._spectrum(x, start - q - d * cot, step,
                                             count, angle, conj)

        monkeypatch.setattr(theorems, "_tf_shifted", scaled)
        worst, passed = self.worst_residual()
        assert passed
        assert worst > self.BOUND


class TestSuiteConfigValidation:
    def test_defaults_and_names(self):
        cfg = SuiteConfig(identities=["CONV", IdentityId.PROD],
                          angles=[PI / 4], pair_indices=[0, 2])
        assert cfg.identities == (IdentityId.CONV, IdentityId.PROD)
        assert cfg.angles == (PI / 4,)
        assert cfg.pair_indices == (0, 2)
        assert len(default_pairs(SuiteConfig().time_grid())) == PAIR_COUNT

    @pytest.mark.parametrize("overrides", [
        {"n": "abc"}, {"n": 1}, {"n": 2.0}, {"n": True},
        {"span": 0.0}, {"start": float("nan")}, {"angles": 5},
        {"angles": ["x"]}, {"pair_indices": [5]}, {"pair_indices": [-1]},
        {"identities": ["NOPE"]}, {"identities": "CONV"},
        {"d_values": [0.3]}, {"d_values": [32.0]}, {"start": -16.01},
        {"tolerance_fractional": -1.0}, {"pair_indices": []},
        {"identities": ["CONV", "CONV"]},
        {"identities": ["CONV", IdentityId.CONV]},
        {"angles": [PI / 4, PI / 4]}, {"d_values": [0.0, -0.0]},
        {"d_values": [0.5, 0.0, 0.5]}, {"q_values": [1.0, 1.0]},
        {"q_values": [-0.0, 0.0]}, {"pair_indices": [0, 0]},
        {"identities": []}, {"angles": ()}, {"d_values": []},
        {"q_values": ()},
    ])
    def test_bad_fields_rejected(self, overrides):
        with pytest.raises(InvalidParameterError):
            SuiteConfig(**overrides)


class TestDenseCrossCheck:
    def test_suite_verdicts_match_dense_evaluators(self, monkeypatch):
        # the certificate must not rest on FFT code alone: rerun it with
        # the dense quadrature and operator sums patched in for the
        # chirp-z and FFT evaluators and require the same verdicts
        cfg = SuiteConfig(n=1024, angles=(PI / 3, PI / 2))
        fft_rows = report_rows(run_suite(cfg))
        calls = collections.Counter()
        def dense_quadrature(x, start, step, count, angle):
            u = start + step * np.arange(count, dtype=np.float64)
            return dense_oracle.smfrft_quadrature(x, u, angle)
        for name, fn in (("smfrft_quadrature", dense_quadrature),
                         ("frac_convolve", dense_oracle.frac_convolve),
                         ("frac_correlate", dense_oracle.frac_correlate)):
            def dense(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(theorems, name, dense)
        dense_rows = report_rows(run_suite(cfg))
        assert set(calls) == {"smfrft_quadrature", "frac_convolve",
                              "frac_correlate"}
        assert len(fft_rows) == len(dense_rows) == 70
        for fast, dense in zip(fft_rows, dense_rows):
            for key in ("identity", "phi", "d", "q", "pass", "chosen_form"):
                assert fast[key] == dense[key], (key, fast, dense)
            for key in ("residual_paper_form", "residual_derived_form"):
                assert fast[key] == pytest.approx(dense[key], rel=1e-6), (
                    key, fast, dense)
