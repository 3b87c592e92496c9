"""Exception types raised across the package.

Input and data problems derive from :class:`InputError`; failures of the
numeric machinery derive from :class:`NumericError`. The CLI maps these to
exit codes 2 and 3 respectively.
"""


class SinkmassError(Exception):
    """Base class for all package errors."""


class InputError(SinkmassError):
    """Malformed input data, files, or configuration."""


class NumericError(SinkmassError):
    """Numeric failure (rank deficiency, non-finite loss, ...)."""


# --- parsing / ingest ---

class MalformedRow(InputError):
    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if message else f"line {line_no}")


class EmptyFile(InputError):
    pass


class UnsupportedFormat(InputError):
    pass


class NonSquareRaster(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class PadTooLarge(InputError):
    pass


class RasterLargerThanTarget(InputError):
    pass


# --- features ---

class TooFewFrames(InputError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"need at least 2 frames to compute sinking speed, got {n}")


class NonPositiveMass(InputError):
    pass


# --- linear models ---

class TooFewRows(InputError):
    pass


class RankDeficient(NumericError):
    pass


class MissingSpeed(InputError):
    pass


class EmptyInput(InputError):
    pass


# --- neural ---

class ShapeMismatch(InputError):
    pass


class MissingMetadata(InputError):
    pass


class MissingSecondView(InputError):
    pass


class NonPositiveTargetInLogSpace(InputError):
    pass


class NonFiniteLoss(NumericError):
    pass


class NonFinitePrediction(NumericError):
    pass


class EmptySplit(InputError):
    pass


class IncompatibleArchitecture(InputError):
    pass


# --- evaluation ---

class EmptyPredictions(InputError):
    pass


class ZeroVariance(NumericError):
    pass


class TooFewEntries(InputError):
    pass


class TaxonTooSmall(InputError):
    pass


class DuplicateSpecimenAcrossFolds(InputError):
    pass


class LabelMismatch(InputError):
    pass


# --- synth ---

class InvalidConfig(InputError):
    pass


class SilhouetteTooLarge(InputError):
    pass


# --- cli / experiments ---

class ValidationFailed(InputError):
    """A dataset that ingest parsed but whose records break an invariant."""


class UnknownTaxon(InputError):
    pass


class ModelMissing(InputError):
    pass


class NoResults(InputError):
    pass


class UsageError(InputError):
    """A command line the argument parser rejects."""
