"""Exception hierarchy for the tardos package.

Everything raised deliberately by this package derives from TardosError, so
callers can catch one type at the boundary. Parameter/domain problems also
derive from ValueError, and codebook file problems from OSError, to stay
compatible with generic handling.
"""


class TardosError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TardosError, ValueError):
    """A value is outside its documented domain or inconsistent with others;
    ``param`` (when known) names the argument whose value failed."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class QuadratureError(TardosError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the achieved error estimate so callers can report it.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class InfeasibleError(TardosError):
    """No parameter choice satisfies the constraints in the requested regime.

    Raised e.g. when the closed-form recipe is evaluated outside its validity
    region, or when a randomized search exhausts its iterations without one
    feasible point. ``counts`` (when present) maps failed-constraint names to
    how many iterations failed there.
    """

    def __init__(self, message, counts=None):
        super().__init__(message)
        self.counts = dict(counts) if counts else {}


class EmptyWindowError(InfeasibleError):
    """A requested interval (length-coefficient window, threshold interval) is empty."""


class CapacityError(TardosError):
    """The requested codebook exceeds the configured memory budget."""


class CodebookFormatError(TardosError, OSError):
    """A codebook file cannot be parsed."""


class CodebookVersionError(CodebookFormatError):
    """The codebook file declares an unsupported format version."""


class CodebookChecksumError(CodebookFormatError):
    """The codebook file checksum does not match its contents."""


class CodebookTruncatedError(CodebookFormatError):
    """The codebook file ends before the declared payload is complete."""
