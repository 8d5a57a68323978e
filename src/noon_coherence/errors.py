"""Exceptions for failure modes that must never pass silently."""


class NoOscillationError(RuntimeError):
    """Two-state population transfer was not detected within the scan window."""


class AliasingError(ValueError):
    """The phase grid is too coarse to resolve the requested fringe frequency."""
