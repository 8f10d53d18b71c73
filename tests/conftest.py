import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from smfrft import UniformGrid, gen_gaussian, kernel, make_angle


@pytest.fixture
def small_grid():
    # 128 points over [-8, 8); origin on the lattice
    return UniformGrid(-8.0, 16.0 / 128, 128)


@pytest.fixture
def std_grid():
    # the harness's default span at reduced resolution, fast enough for
    # unit tests
    return UniformGrid(-16.0, 32.0 / 512, 512)


@pytest.fixture
def gaussian_pair(small_grid):
    f = gen_gaussian(small_grid, center=0.2, width=1.0, carrier=0.8)
    g = gen_gaussian(small_grid, center=-0.4, width=0.9, carrier=-1.1)
    return f, g


@pytest.fixture
def quarter_angle():
    return make_angle(math.pi / 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` runs ``call()`` under tracemalloc and returns
    the peak of traced memory above the level at its start, in bytes.
    numpy reports its array buffers to tracemalloc, so they count; FFT
    plans and work buffers (pocketfft's own allocations) do not. Tracing
    is stopped again afterwards unless it was already on."""
    def measure(call) -> int:
        running = tracemalloc.is_tracing()
        if not running:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            if not running:
                tracemalloc.stop()

    return measure


@pytest.fixture
def reuse_scope():
    """``with reuse_scope() as memo:`` opens a reuse scope as ``run_suite``
    opens one and binds its dict."""
    @contextlib.contextmanager
    def scope():
        memo = {}
        token = kernel._reuse.set(memo)
        try:
            yield memo
        finally:
            kernel._reuse.reset(token)

    return scope
