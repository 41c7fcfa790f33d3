"""Exception types shared across the package."""


class FracLayerError(Exception):
    """Base class for all package errors."""


class NonIntegrable(FracLayerError):
    """Profile lacks the local smoothness the singular cell needs."""


class TruncationDominates(FracLayerError):
    """Estimated tail remainder exceeds the requested tolerance."""


class RegularityMismatch(FracLayerError):
    """Profile lacks the derivative order a check requires."""


class QuadratureNearJump(FracLayerError):
    """Evaluation point too close to a jump of a piecewise barrier."""


class FlatnessViolated(FracLayerError):
    """x^3 * sup|phi''| proxy fails to decrease along the sample points."""


class InvariantViolated(FracLayerError):
    """Constructed object does not satisfy its declared invariant."""


class ExponentNotIntegrable(FracLayerError):
    """A barrier tail exponent is <= 1, so the tail is not integrable."""


class ParamOrderViolated(FracLayerError):
    """Construction parameters violate the ordering constraints."""


class BridgeNotPositive(FracLayerError):
    """Middle bridge of a potential dips below zero and could not be raised."""


class DegenerateOscillation(FracLayerError):
    """Oscillatory well requested with an exponent <= 2."""


class BridgeNotMonotone(FracLayerError):
    """Middle bridge of the layer profile has a nonpositive derivative."""


class LogRangeOverflow(FracLayerError):
    """Requested scales exceed double range even in log coordinates."""


class OutOfPiece(FracLayerError):
    """Evaluation point outside the requested piece of a profile."""


class OutOfRange(FracLayerError):
    """Value outside the attained range of the profile on its working domain."""


class Diverged(FracLayerError):
    """A descent step raised the energy even at the explicit step size."""


class StalledAboveTolerance(FracLayerError):
    """Descent hit the iteration cap with the residual above tolerance."""


class PanelBudgetExceeded(FracLayerError):
    """An operator evaluation would need more panels than its budget."""


class InputFileError(FracLayerError):
    """An input file is missing or malformed, or holds too few usable points."""


class NotBracketed(FracLayerError):
    """A root-find's bracket ends have function values of the same sign."""


class RootNotConverged(FracLayerError):
    """A root-find ran out of iterations or met a NaN function value."""
