"""Exception hierarchy shared across the pipeline: one class per way a
caller or a user reacts. The message names the cause."""


class LabelForgeError(Exception):
    """Base class for all errors raised by this package."""


class IoFailure(LabelForgeError):
    """A file could not be opened, read or written."""


class CorruptArtifact(LabelForgeError):
    """A file's contents are wrong, or it disagrees with the artifacts beside
    it."""


class InvalidData(LabelForgeError, ValueError):
    """A value breaks a container invariant or a function's precondition."""


class NonConvergence(LabelForgeError):
    """An iterative fit did not converge."""


class OneSidedData(LabelForgeError):
    """Too few scores fall on one side of the Otsu threshold to fit them, or
    the scores on one side are all equal."""


class TooFewClusters(LabelForgeError):
    """A clustering has too few clusters to train a classifier on."""


class TrainingDiverged(LabelForgeError):
    """A training run reached a non-finite loss or weight."""


class ChildFailure(LabelForgeError):
    """A forked child process ended without sending a readable result."""


class ConfigError(LabelForgeError):
    """A config file or command-line value is rejected; ``forge`` exits 1."""


class StaleArtifact(LabelForgeError):
    """An earlier stage's output was written under a different config."""


class StageFailure(LabelForgeError):
    """A stage stopped on ``cause``; ``forge`` exits 2."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
