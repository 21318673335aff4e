"""Exception types shared across the package, and the whole-number rule."""

import numpy as np

# The longest float64 array numpy can size at all (a session's detector
# means, an audit's phases).
MAX_FLOAT64S = np.iinfo(np.intp).max // 8


class ValidationError(ValueError):
    """Raised when a parameter or input fails a precondition check.

    Subclasses ValueError so callers that only know stdlib semantics still
    catch it, while the CLI can map it to a dedicated exit code.
    """


def whole(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` in ``[low, high]``: numpy integers pass, a bool or
    float does not. ``PCG64.advance`` overflows on a numpy integer, so the
    result is always a Python ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be {bound}, got {value}")
    return value
