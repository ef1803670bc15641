"""Transformation scripts: parsing and execution with traceability."""
