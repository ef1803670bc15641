"""Transformation scripts: parsing and execution with traceability."""

from gretlite.transform.engine import (
    ExecutionResult,
    TraceabilityMap,
    execute,
)
from gretlite.transform.ops import Transformation
from gretlite.transform.parser import parse_script

__all__ = [
    "ExecutionResult",
    "TraceabilityMap",
    "Transformation",
    "execute",
    "parse_script",
]
