"""Simplified fractional Fourier transform toolbox.

Forward/inverse transforms (the chirp-FFT path plus chirp-z rectangle-rule
quadrature on any uniform grid), the weighted convolution / product /
correlation operators of the matching fractional domain, and a
verification harness that checks every spectral identity against
independently computed sides.

Submodules load on first use (PEP 562), so ``import smfrft`` loads no
numpy and the ``smfrft`` command can set up the process first.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("AlignmentError", "DegenerateAngleError", "GridCompatibilityError",
               "InvalidGridError", "InvalidParameterError", "ShapeMismatchError",
               "SmfrftError"),
    "grid": ("SampledSignal", "Spectrum", "UniformGrid", "gen_chirp", "gen_gaussian"),
    "kernel": ("SQRT_J2PI", "SQRT_J_OVER_2PI", "Angle", "make_angle"),
    "operators": ("frac_convolve", "frac_correlate", "frac_product", "modulate_op",
                  "shift_op"),
    "theorems": ("IdentityId", "IdentityReport", "SuiteConfig", "check", "report_rows",
                 "reports_to_json", "run_suite"),
    "transform": ("fast_ugrid", "ismfrft_direct", "ismfrft_fast", "smfrft_direct",
                  "smfrft_fast"),
    "corpus": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, *_EXPORTS]  # `import *` gives the submodules too

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
