"""Exception hierarchy shared by every wittloc module."""

from typing import Optional


class WittlocError(Exception):
    """Base class for all library errors."""


class UnsupportedField(WittlocError):
    """Field descriptor outside the supported list (Q, R, F_p, one quadratic step)."""


class FieldMismatch(WittlocError):
    """Operands live over different fields."""


class DegenerateForm(WittlocError):
    """Gram matrix has determinant zero."""


class NonSymmetric(WittlocError):
    """Gram matrix is not symmetric."""


class ZeroInput(WittlocError):
    """A nonzero integer/element was required."""


class Undecided(WittlocError):
    """Membership could not be certified either way: raised only by
    ``quadext.principal_ideal_certificate`` when its bounded multiplier
    search finds no witness for a class in the base-change kernel."""


class UnknownGenerator(WittlocError):
    """Generator symbol does not belong to the presentation."""


class PresentationMismatch(WittlocError):
    """Ring operands belong to different presentations."""


class UnsupportedIrrep(WittlocError):
    """No closed Euler-class formula for this representation shape."""


class NonInvertibleNormalEuler(WittlocError):
    """Normal bundle Euler class cannot be inverted for the residue."""


class UnsupportedResidueField(WittlocError):
    """Fixed component has a residue field the engine does not model."""


class BadDimension(WittlocError):
    """Projective-space builder dimension outside {2n-1, 2n}."""


class BadParameters(WittlocError):
    """Grassmannian builder parameters out of range."""


class InconsistentField(WittlocError):
    """Problem components disagree about the base field."""


class ExprSyntaxError(WittlocError):
    """Literal expression or input document failed to parse; ``pos`` is the
    offset into the text, or None for an error that points into no text."""

    def __init__(self, message: str, pos: Optional[int] = None):
        super().__init__(message if pos is None else f"{message} (at offset {pos})")
        self.pos = pos
