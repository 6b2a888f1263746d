"""Ordered map over a list; ``compare`` maps its eps grid through it."""


def map_ordered(fn, items):
    """``[fn(x) for x in items]``, kept as a named call because the
    benchmark's tracer probes ``parallel.map_ordered`` and its tests count
    the items passed to it."""
    return [fn(x) for x in items]
