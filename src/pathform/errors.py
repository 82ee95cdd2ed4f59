"""Exception types shared across the package."""


class PathformError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(PathformError):
    pass


class NonProbability(PathformError):
    """Atoms and masses are not a probability on R^d (`IntensityMeasure.validate`)."""


class AtomAtOrigin(PathformError):
    """A jump measure charged the origin (or a sampler produced it)."""


class UnsupportedVariant(PathformError):
    """Operation not defined for this measure variant."""


class UnsupportedMeasure(PathformError):
    """Operation requires a finite-support lattice measure."""


class TimeOutOfRange(PathformError):
    pass


class ZeroMark(PathformError):
    pass


class ZeroShift(PathformError):
    pass


class HorizonMismatch(PathformError):
    pass


class UnsortedTimes(PathformError):
    pass


class BoundViolation(PathformError):
    """A functional exceeded its declared sup bound."""


class NoSuchJump(PathformError):
    """No jump with the requested mark exists on the path."""


class TruncationTooCoarse(PathformError):
    """A certified truncation error exceeds the requested tolerance."""


class GridTooLarge(PathformError):
    """An exact computation would allocate more than the oracle's budget."""


class ConfigError(PathformError):
    """Invalid run configuration; `fields` lists every offending path."""

    def __init__(self, fields):
        self.fields = list(fields)
        msgs = "; ".join(f"{path}: {msg}" for path, msg in self.fields)
        super().__init__(f"invalid configuration: {msgs}")
