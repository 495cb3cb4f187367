"""Exception hierarchy shared across the pipeline."""


class LabelForgeError(Exception):
    """Base class for all errors raised by this package."""


# --- file I/O ---

class BadMagic(LabelForgeError):
    pass


class TruncatedFile(LabelForgeError):
    pass


class ZeroDimension(LabelForgeError):
    pass


class IoFailure(LabelForgeError):
    pass


class DuplicateIndex(LabelForgeError):
    pass


class MissingIndex(LabelForgeError):
    pass


class NegativeLabel(LabelForgeError):
    pass


class CorruptArtifact(LabelForgeError):
    pass


class InvalidData(LabelForgeError, ValueError):
    """A container invariant does not hold for the values given."""


class ZeroNormRow(LabelForgeError):
    def __init__(self, index: int):
        super().__init__(f"row {index} has zero L2 norm")
        self.index = index


# --- synthesis / splits ---

class InsufficientIds(LabelForgeError):
    pass


class RateOutOfRange(LabelForgeError):
    pass


# --- graph / clustering ---

class NotNormalized(LabelForgeError):
    pass


class KOutOfRange(LabelForgeError):
    pass


class EmptyThresholds(LabelForgeError):
    pass


class NoProposals(LabelForgeError):
    pass


class LengthMismatch(LabelForgeError):
    pass


# --- statistics ---

class DegenerateScores(LabelForgeError):
    pass


class TooFewSamples(LabelForgeError):
    pass


class NonConvergence(LabelForgeError):
    pass


class QuantileOutOfRange(LabelForgeError):
    pass


class OneSidedData(LabelForgeError):
    pass


# --- classification / training ---

class DimensionMismatch(LabelForgeError):
    pass


class TooFewClusters(LabelForgeError):
    pass


class NoPositives(LabelForgeError):
    pass


class LabelCollision(LabelForgeError):
    pass


class EmptyTrainingSet(LabelForgeError):
    pass


class NoEncoder(LabelForgeError):
    pass


class ProbeIdMissing(LabelForgeError):
    pass


class TrainingDiverged(LabelForgeError):
    pass


# --- pipeline orchestration ---

class ConfigError(LabelForgeError):
    pass


class StaleArtifact(LabelForgeError):
    """An earlier stage's output was written under a different config."""


class StageFailure(LabelForgeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
