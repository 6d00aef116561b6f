"""Exception hierarchy shared by all modules."""


class HdxError(Exception):
    """Base class for all validation and domain errors."""


class SizeCapError(HdxError):
    """An operation would exceed a documented size cap.

    Caps can be raised with the HDX_SIZE_CAP environment variable
    (a multiplier applied to every default cap).
    """


# -- complex construction ----------------------------------------------------

class MixedDimension(HdxError):
    pass


class ZeroWeight(HdxError):
    pass


class DuplicateTopFace(HdxError):
    pass


class IsolatedVertex(HdxError):
    pass


class DimensionTooLarge(HdxError):
    pass


class EmptyPart(HdxError):
    pass


class TruncationExceedsRank(HdxError):
    pass


class NotAFace(HdxError):
    pass


# -- walks -------------------------------------------------------------------

class LevelOutOfRange(HdxError):
    pass


class EmptyWalk(HdxError):
    pass


class NotPartite(HdxError):
    pass


class OverlappingColors(HdxError):
    pass


# -- spectra -----------------------------------------------------------------

class NotReversible(HdxError):
    pass


class InconsistentMarginals(HdxError):
    pass


class NotApplicable(HdxError):
    pass


class HypothesisViolated(HdxError):
    pass


class OrderingViolated(HdxError):
    pass


class TooLarge(SizeCapError):
    pass


class NotConverged(HdxError):
    """An iterative eigensolve ended with a residual above its tolerance."""


# -- grassmann ---------------------------------------------------------------

class DimensionArithmetic(HdxError):
    pass


# -- stav / agreement / decoder ----------------------------------------------

class ParameterRange(HdxError):
    pass


class ColorSize(HdxError):
    pass


class ZeroConditioning(HdxError):
    pass


class PartialGlobal(HdxError):
    pass


class SupportMismatch(HdxError):
    pass


class MarginalMismatch(HdxError):
    pass


class OrphanA(HdxError):
    pass


class NoGoodColors(HdxError):
    pass


# -- cli ----------------------------------------------------------------------

class UsageError(HdxError):
    pass
