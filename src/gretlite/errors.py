"""Exception types shared across the engine."""


class GretliteError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(GretliteError):
    """Invalid class definitions or class lookups."""


class GraphError(GretliteError):
    """Illegal instance-level operation on a graph."""


class ParseError(GretliteError):
    """Syntax or static error in query, script, or file-format text."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class QueryError(GretliteError):
    """Runtime error while evaluating a query."""


class TransformError(GretliteError):
    """Error while executing a transformation script."""


class UsageError(GretliteError):
    """A command line the CLI cannot run: missing files, clashing options."""
