"""Exception and warning types shared across the package."""


class DataError(Exception):
    """Base class for malformed or inconsistent input data.

    The CLI maps any DataError to exit code 1; usage errors exit with 2.
    """


class BadMagic(DataError):
    """File does not start with the expected magic bytes or version."""


class DimensionMismatch(DataError):
    """Shapes, dims, or declared sizes disagree."""


class NonFiniteEntry(DataError):
    """A matrix contains NaN or Inf; carries the offending row and column."""

    def __init__(self, row: int, col: int, context: str = ""):
        self.row = int(row)
        self.col = int(col)
        where = f" in {context}" if context else ""
        super().__init__(f"non-finite value at row {self.row}, col {self.col}{where}")


class NonUnitRow(DataError):
    """A row's L2 norm is out of the range unit (or zero) rows keep to."""


class DuplicateId(DataError):
    """An utterance id appears more than once in a manifest."""

    def __init__(self, utterance_id: str, line: int):
        self.utterance_id = utterance_id
        self.line = int(line)
        super().__init__(f"duplicate utterance id {utterance_id!r} on line {self.line}")


class NonPositiveDuration(DataError):
    """A duration is not positive and finite; carries the value and the manifest line (a
    selector's, the row of its durations)."""

    def __init__(self, value, line: int):
        self.value = value
        self.line = int(line)
        super().__init__(f"duration_s must be > 0, got {value!r} on line {self.line}")


class MalformedLine(DataError):
    """A manifest line is not a valid record; carries the line number."""

    def __init__(self, line: int, reason: str):
        self.line = int(line)
        super().__init__(f"line {self.line}: {reason}")


class InvalidDims(DataError):
    """Projection dimensions are out of range."""


class TooFewRows(DataError):
    """An operation needs more rows than the input provides."""


class EmptyTargets(DataError):
    """A target dataset supplies no embedding rows."""


class MissingView(DataError):
    """A weighted view is absent from the candidates or the targets."""


class EmptyTargetSet(DataError):
    """A target set contains no datasets."""


class EmptyCorpus(DataError):
    """Selection over a corpus with no utterances."""


class DegenerateSplit(DataError):
    """Probe train/held-out split lacks two distinct labels on a side."""


class ZeroRowWarning(UserWarning):
    """Zero embedding rows passed through normalization unchanged."""


class DegenerateInput(UserWarning):
    """All clustering inputs identical; fell back to a single cluster."""


class SmallPoolWarning(UserWarning):
    """Prefilter pool is small relative to the expected pick count."""
