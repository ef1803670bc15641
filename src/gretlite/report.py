"""Canonical textual reports: query results and traceability listings."""

from gretlite.values import ValueMap, render_value, rendered_entries


def render_result(value) -> str:
    """Printable form of a query result.

    A top-level map becomes one `key -> value` line per entry (sorted by
    rendered key); everything else is the canonical one-line rendering.
    """
    if isinstance(value, ValueMap):
        return "".join(f"{k} -> {v}\n" for k, v in rendered_entries(value))
    return render_value(value) + "\n"


def trace_report(trace) -> str:
    """One `Class: archetype -> element` line per entry of `trace`, a
    `TraceabilityMap`."""
    return "".join([
        f"{class_name}: {render_value(archetype)} -> {element.ref()}\n"
        for class_name in trace.classes()
        for archetype, element in trace.entries(class_name)])
