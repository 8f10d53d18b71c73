"""Fast evaluators against the dense oracle, at rounding level.

The fast pair (chirp + FFT), the quadrature (chirp-z) and the weighted
operators (chirp-factorized FFT convolutions) must reproduce the dense
sums of ``dense_oracle`` within 1e-12 relative on random signals, angles
and grids at N <= 1024, powers of two or not. The quadrature, which may
be asked for a few u points where the sum cancels, is measured against
the signal's scale, or its own norm where that is larger. The chirp-z's
two routes are gated apart: the length-N DFT on the FFT-bin lattice, and
Bluestein's everywhere else.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smfrft import (
    SampledSignal,
    Spectrum,
    UniformGrid,
    fast_ugrid,
    frac_convolve,
    frac_correlate,
    ismfrft_direct,
    ismfrft_fast,
    make_angle,
    modulate_op,
    shift_op,
    smfrft_direct,
    smfrft_fast,
)
from smfrft import transform
from smfrft.transform import smfrft_quadrature

import dense_oracle
from dense_oracle import relative_l2_error

GATE = 1e-12

# |cot| <= 2.5 and spans of 32 keep every phase below a few thousand
# radians, where double rounding of the phases themselves stays ~1e-13
angles = st.floats(math.pi / 8, 7 * math.pi / 8).map(make_angle)
sizes = st.sampled_from([16, 100, 128, 257, 512, 1024])


def random_signal(grid, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
    return SampledSignal(grid, data)


def points(start, step, count):
    """The points start + k*step, k < count, of a (start, step, count) grid."""
    return np.arange(count, dtype=np.float64) * step + start


@st.composite
def u_grids(draw, grid, min_count=1):
    """The fast-bin u grid as (start, step, count): possibly a sub-range of
    at least ``min_count`` points, possibly negated, shifted by any
    amount. Its step stays the FFT-bin step."""
    bins = fast_ugrid(grid)
    lo = draw(st.integers(0, grid.count - min_count))
    hi = draw(st.integers(lo + min_count, grid.count))
    start, step, count = bins.start, bins.step, grid.count
    if draw(st.booleans()):
        start, count = bins.point(lo), hi - lo
    if draw(st.booleans()):
        start, step = -start, -step
    return start + draw(st.floats(-20.0, 20.0)), step, count


@st.composite
def quadrature_draws(draw):
    """A random signal on a span-32 grid, an evenly spaced u grid as
    (start, step, count), an angle."""
    n = draw(sizes)
    grid = UniformGrid(-(n // 2) * (32.0 / n), 32.0 / n, n)
    x = random_signal(grid, draw(st.integers(0, 2**32 - 1)))
    return x, draw(u_grids(grid)), draw(angles)


def quadrature_error(values, x, u, angle) -> float:
    """||values - dense|| over the signal's scale, sqrt(M)*dt*sum|x|/sqrt(2*pi)
    for M points, or over ||dense|| if that is larger. The scale bounds
    |X(u)| at every u, so a point where the sum cancels to far below it
    is not measured against its own small |X|."""
    dense = dense_oracle.smfrft_quadrature(x, u, angle)
    scale = (math.sqrt(len(u)) * x.grid.step * np.sum(np.abs(x.samples))
             / math.sqrt(2 * math.pi))
    error = float(np.linalg.norm(values - dense))
    return error / max(float(np.linalg.norm(dense)), scale)


# a cancellation point: |X| there is ~150x below its typical value, so
# |fast - dense| / |dense| reads 1.5e-11 while the scaled error reads 2e-15
CANCELLING = (random_signal(UniformGrid(-16.0, 1 / 32, 1024), 0),
              (-82.86, 0.0, 1), make_angle(math.pi / 8))


@given(draw=quadrature_draws())
@example(draw=CANCELLING)
@settings(max_examples=40, deadline=None)
def test_quadrature_matches_dense(draw):
    x, ugrid, angle = draw
    values = smfrft_quadrature(x, *ugrid, angle)
    assert quadrature_error(values, x, points(*ugrid), angle) <= GATE


@given(draw=quadrature_draws())
@example(draw=CANCELLING)
@settings(max_examples=40, deadline=None)
def test_quadrature_gate_fails_a_phase_error(draw):
    # every kernel phase (cot/2) t^2 - t u off by 1e-9 relative
    x, ugrid, angle = draw
    u = points(*ugrid)
    eps = 1e-9
    skewed = make_angle(math.atan2(1.0, angle.cot_phi * (1 + eps)))
    wrong = dense_oracle.smfrft_quadrature(x, u * (1 + eps), skewed)
    assert quadrature_error(wrong, x, u, angle) > GATE


def dft_route():
    """A context in which a chirp-z that takes Bluestein's route fails."""
    return mock.patch.object(transform, "_bluestein_plan",
                             side_effect=AssertionError("took Bluestein's route"))


# odd and even N, powers of two or not
lattice_sizes = st.sampled_from([15, 16, 100, 257, 1000, 1023, 1024])


@st.composite
def lattice_draws(draw):
    """A random signal, a grid of at least a quarter of its FFT-bin u
    points as (start, step, count), shifted by any amount and possibly
    negated, and an angle. The grid keeps the FFT-bin step, so every draw
    lies on the lattice."""
    n = draw(lattice_sizes)
    grid = UniformGrid(-(n // 2) * (32.0 / n), 32.0 / n, n)
    x = random_signal(grid, draw(st.integers(0, 2**32 - 1)))
    return x, draw(u_grids(grid, min_count=(n + 3) // 4)), draw(angles)


@given(draw=lattice_draws())
@settings(max_examples=40, deadline=None)
def test_dft_route_matches_dense(draw):
    x, ugrid, angle = draw
    with dft_route():
        values = smfrft_quadrature(x, *ugrid, angle)
    assert quadrature_error(values, x, points(*ugrid), angle) <= GATE


@given(n=lattice_sizes, seed=st.integers(0, 2**32 - 1), angle=angles,
       shift=st.floats(-20.0, 20.0), start=st.floats(-8.0, 8.0),
       fraction=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_dft_route_inverse_matches_dense(n, seed, angle, shift, start, fraction):
    # a shifted FFT-bin spectrum onto any time grid of its reciprocal step
    # with at most N points
    grid = UniformGrid(-(n // 2) * (32.0 / n), 32.0 / n, n)
    bins = fast_ugrid(grid)
    ugrid = UniformGrid(bins.start + shift, bins.step, n)
    spectrum = Spectrum(ugrid, random_signal(grid, seed).samples, angle)
    tgrid = UniformGrid(start, grid.step, max(2, round(fraction * n)))
    with dft_route():
        back = ismfrft_direct(spectrum, tgrid).samples
    assert relative_l2_error(
        back, dense_oracle.ismfrft_direct(spectrum, tgrid)) <= GATE


@pytest.mark.parametrize("n", [257, 1024])
@pytest.mark.parametrize("off, route", [(np.finfo(np.float64).eps, "_lattice_plan"),
                                        (1e-9, "_bluestein_plan")],
                         ids=["1-eps", "1e-9"])
def test_lattice_boundary(n, off, route):
    # a step 1 eps off the lattice is a DFT, 1e-9 off is not; both, and
    # their inverses, meet the gate
    grid = UniformGrid(-(n // 2) * (32.0 / n), 32.0 / n, n)
    x = random_signal(grid, n)
    angle = make_angle(1.1)
    bins = fast_ugrid(grid)
    u = (bins.start, bins.step * (1 + off), n)
    spectrum = Spectrum(bins, x.samples, angle)
    tgrid = UniformGrid(grid.start, grid.step * (1 + off), n)
    with mock.patch.object(transform, route,
                           wraps=getattr(transform, route)) as plan:
        values = smfrft_quadrature(x, *u, angle)
        back = ismfrft_direct(spectrum, tgrid).samples
    assert plan.call_count == 2
    assert quadrature_error(values, x, points(*u), angle) <= GATE
    assert relative_l2_error(
        back, dense_oracle.ismfrft_direct(spectrum, tgrid)) <= GATE


def test_direct_takes_its_grid_step_onto_the_lattice():
    # 20 FFT-bin points shifted by 73: the step read back from the rounded
    # points is 7 eps off the lattice, the grid's own step is on it
    grid = UniformGrid(-16.0, 1.0 / 32, 1024)
    bins = fast_ugrid(grid)
    ugrid = UniformGrid(bins.start + 500 * bins.step + 73.0, bins.step, 20)
    u = ugrid.points()
    du = (u[-1] - u[0]) / (ugrid.count - 1)
    assert transform._dft_turn(grid.count, grid.step, du, ugrid.count, -1) == 0
    x = random_signal(grid, 20)
    angle = make_angle(1.1)
    with dft_route():
        values = smfrft_direct(x, ugrid, angle).values
    assert quadrature_error(values, x, ugrid.points(), angle) <= GATE


@given(n=sizes, seed=st.integers(0, 2**32 - 1), angle=angles,
       offset=st.integers(-64, 64), scale=st.floats(0.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_inverse_matches_dense(n, seed, angle, offset, scale):
    # output grids around the ones the transform pair uses, so that the
    # phases u*t, and with them both sums' rounding, stay desk-sized
    grid = UniformGrid(-(n // 2) * (32.0 / n), 32.0 / n, n)
    ugrid = fast_ugrid(grid)
    spectrum = Spectrum(ugrid, random_signal(grid, seed + 1).samples, angle)
    tgrid = UniformGrid(grid.point(offset), grid.step * scale, n)
    back = ismfrft_direct(spectrum, tgrid).samples
    assert relative_l2_error(
        back, dense_oracle.ismfrft_direct(spectrum, tgrid)) <= GATE


@st.composite
def operand_grids(draw):
    """Span-32 grids with the origin on the lattice, from starting at
    zero through centred to ending at zero, and a little beyond."""
    n = draw(sizes)
    step = 32.0 / n
    origin = draw(st.integers(-n, n // 4))
    return UniformGrid(origin * step, step, n)


@given(grid=operand_grids(), seed=st.integers(0, 2**32 - 1), angle=angles)
@settings(max_examples=40, deadline=None)
def test_fast_matches_dense(grid, seed, angle):
    x = random_signal(grid, seed)
    fast = smfrft_fast(x, angle)
    assert fast.ugrid == fast_ugrid(grid)
    dense = dense_oracle.smfrft_quadrature(x, fast.ugrid.points(), angle)
    assert relative_l2_error(fast.values, dense) <= GATE


@given(grid=operand_grids(), seed=st.integers(0, 2**32 - 1), angle=angles)
@settings(max_examples=40, deadline=None)
def test_fast_inverse_matches_dense(grid, seed, angle):
    spectrum = Spectrum(fast_ugrid(grid), random_signal(grid, seed).samples,
                        angle, tgrid=grid)
    back = ismfrft_fast(spectrum)
    assert back.grid == grid
    assert relative_l2_error(
        back.samples, dense_oracle.ismfrft_direct(spectrum, grid)) <= GATE


@given(grid=operand_grids(), seeds=st.tuples(st.integers(0, 2**32 - 1),
                                             st.integers(0, 2**32 - 1)),
       angle=angles, shift=st.integers(-8, 8), q=st.floats(-5.0, 5.0),
       which=st.sampled_from(["plain", "shift_f", "shift_g", "mod_f", "mod_g"]))
@settings(max_examples=40, deadline=None)
def test_operators_match_dense(grid, seeds, angle, shift, q, which):
    f = random_signal(grid, seeds[0])
    g = random_signal(grid, seeds[1])
    d = shift * grid.step
    if which == "shift_f":
        f = shift_op(f, d)
    elif which == "shift_g":
        g = shift_op(g, d)
    elif which == "mod_f":
        f = modulate_op(f, q)
    elif which == "mod_g":
        g = modulate_op(g, q)
    for fast_op, dense_op in ((frac_convolve, dense_oracle.frac_convolve),
                              (frac_correlate, dense_oracle.frac_correlate)):
        fast = fast_op(f, g, angle).samples
        dense = dense_op(f, g, angle).samples
        if not np.any(dense):
            # the zero-extended lags miss g entirely; nothing to compare
            assert not np.any(fast)
            continue
        assert relative_l2_error(fast, dense) <= GATE
