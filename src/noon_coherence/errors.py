"""Exceptions for failure modes that must never pass silently."""


class NoOscillationError(RuntimeError):
    """Two-state population transfer was not detected within the scan window."""


class AliasingError(ValueError):
    """The phase grid is too coarse to resolve the requested fringe frequency."""


class NumericalError(ArithmeticError):
    """A computation drifted beyond its numerical tolerance (e.g. lost norm)."""
