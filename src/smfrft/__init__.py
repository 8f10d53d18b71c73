"""Simplified fractional Fourier transform toolbox.

Forward/inverse transforms (the chirp-FFT path plus chirp-z rectangle-rule
quadrature on any uniform grid), the weighted convolution / product /
correlation operators of the matching fractional domain, and a
verification harness that checks every spectral identity against
independently computed sides.
"""

from .errors import (
    AlignmentError,
    AngleMismatchError,
    DegenerateAngleError,
    DegenerateReferenceError,
    FftSizeError,
    GridCompatibilityError,
    InvalidGridError,
    InvalidParameterError,
    ShapeMismatchError,
)
from .grid import (
    SampledSignal,
    Spectrum,
    UniformGrid,
    gen_chirp,
    gen_gaussian,
    make_grid,
    relative_l2_error,
)
from .kernel import (
    Angle,
    frft_kernel,
    make_angle,
    smfrft_kernel,
    sqrt_j2pi,
    sqrt_j_over_2pi,
)
from .operators import (
    frac_convolve,
    frac_correlate,
    frac_product,
    modulate_op,
    shift_op,
)
from .theorems import (
    CheckConfig,
    IdentityId,
    IdentityReport,
    SuiteConfig,
    check,
    conj_transform,
    report_rows,
    reports_to_json,
    run_suite,
    suite_passed,
)
from .transform import (
    fast_ugrid,
    frft_direct,
    ismfrft_direct,
    ismfrft_fast,
    smfrft_direct,
    smfrft_fast,
    smfrft_quadrature,
)

__version__ = "0.1.0"
