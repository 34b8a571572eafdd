"""Exception types shared across the package."""


class RecallTreeError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RecallTreeError, ValueError):
    """A dataset line could not be parsed.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)


class DomainError(RecallTreeError, ValueError):
    """A value is syntactically fine but outside its allowed domain."""


class ModelFormatError(RecallTreeError, ValueError):
    """A model file has a bad magic number or unsupported version."""


class CorruptedModelError(ModelFormatError):
    """A model file is truncated or internally inconsistent."""


class ModelTypeError(ModelFormatError):
    """``save_model`` was given an object that is not a model."""


class UntrainedModelError(RecallTreeError, RuntimeError):
    """Prediction was requested from a model that has seen no training data."""
