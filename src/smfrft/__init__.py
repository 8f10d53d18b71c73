"""Simplified fractional Fourier transform toolbox.

Forward/inverse transforms (the chirp-FFT path plus chirp-z rectangle-rule
quadrature on any uniform grid), the weighted convolution / product /
correlation operators of the matching fractional domain, and a
verification harness that checks every spectral identity against
independently computed sides.
"""

from .errors import (
    AlignmentError,
    DegenerateAngleError,
    GridCompatibilityError,
    InvalidGridError,
    InvalidParameterError,
    ShapeMismatchError,
    SmfrftError,
)
from .grid import (
    SampledSignal,
    Spectrum,
    UniformGrid,
    gen_chirp,
    gen_gaussian,
)
from .kernel import (
    SQRT_J2PI,
    SQRT_J_OVER_2PI,
    Angle,
    make_angle,
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
    report_rows,
    reports_to_json,
    run_suite,
    suite_passed,
)
from .transform import (
    fast_ugrid,
    ismfrft_direct,
    ismfrft_fast,
    smfrft_direct,
    smfrft_fast,
    smfrft_quadrature,
)

__version__ = "0.1.0"
