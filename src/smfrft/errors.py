"""Typed errors raised across the library.

All derive from ``SmfrftError``, a ValueError, so generic callers and the
CLI catch them with one class while tests can distinguish the failure
modes.
"""


class SmfrftError(ValueError):
    """Base class of every error the library raises on bad input."""


class InvalidGridError(SmfrftError):
    """Grid construction violated step > 0 or count >= 2."""


class InvalidParameterError(SmfrftError):
    """A generator or operator parameter is outside its domain."""


class ShapeMismatchError(SmfrftError):
    """Two arrays or signals that must share a shape/grid do not."""


class DegenerateAngleError(SmfrftError):
    """Rotation angle too close to a multiple of pi; cot(phi) undefined."""


class AlignmentError(SmfrftError):
    """A time offset does not land on the sampling lattice."""


class GridCompatibilityError(SmfrftError):
    """Spectrum and time grids do not form an exact transform pair."""
