"""Exception types shared across the toolkit."""


class RwdetectError(Exception):
    """Base class for all toolkit errors."""


# -- packet ingestion ---------------------------------------------------------

class BadMagic(RwdetectError):
    """Input is not a classic pcap file."""


class UnsupportedLinkType(RwdetectError):
    """pcap link type is not Ethernet."""


class SchemaMismatch(RwdetectError):
    """CSV header does not match the expected schema."""


class RowError(RwdetectError):
    """A CSV data row failed validation."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Ipv6Unsupported(RowError):
    """An address field contains ':'; only IPv4 is supported."""


# -- conversation aggregation -------------------------------------------------

class ClockSkew(RwdetectError):
    """A packet timestamp precedes the declared capture start."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class InvariantViolation(RowError):
    """Imported conversation totals disagree with their directional sums."""


# -- datasets and features ----------------------------------------------------

class EmptyDataset(RwdetectError):
    """Operation requires at least one sample."""


class EmptyInput(RwdetectError):
    """Operation requires non-empty input."""


class DimensionMismatch(RwdetectError):
    """Vector length does not match the expected feature count."""


# -- classifiers --------------------------------------------------------------

class SingleClassDataset(RwdetectError):
    """Training requires at least one sample of each class."""


class InvalidHyperparams(RwdetectError):
    """A hyperparameter is outside its legal range."""


class NonFiniteFeature(RwdetectError):
    """A feature value is NaN or infinite."""


class VersionMismatch(RwdetectError):
    """Model file was written by an unsupported format version."""


class ChecksumFailure(RwdetectError):
    """Model file integrity check failed."""


class MalformedModel(RwdetectError):
    """Model file structure cannot be parsed."""


# -- evaluation ---------------------------------------------------------------

class LengthMismatch(RwdetectError):
    """Prediction and truth sequences differ in length."""


class TooFewSamples(RwdetectError):
    """Dataset is too small for the requested split."""


# -- detection ----------------------------------------------------------------

class SinkFailure(RwdetectError):
    """Alert sink raised while consuming an alert."""

    def __init__(self, message: str, summary=None):
        super().__init__(message)
        self.summary = summary
