"""Exception types shared across the package, and the whole- and real-number rules."""

import math

import numpy as np

# The longest float64 array numpy can size at all (a session's detector
# means); it also caps an audit's code count.
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


def real(name: str, value, low=None, high=None, ends: str = "[]") -> float:
    """``value`` as a finite ``float`` between ``low`` and ``high`` (``None``: no
    bound), each end closed or open as ``ends`` says, such as ``"[)"``. Ints,
    numpy integers and numpy floats pass; a bool (numpy's too), a string, a
    complex or ``None`` does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    below = low is not None and (value < low if ends[0] == "[" else value <= low)
    above = high is not None and (value > high if ends[1] == "]" else value >= high)
    if below or above:
        bound = (f"{'>=' if ends[0] == '[' else '>'} {low}" if high is None
                 else f"{'<=' if ends[1] == ']' else '<'} {high}" if low is None
                 else f"in {ends[0]}{low}, {high}{ends[1]}")
        raise ValidationError(f"{name} must be {bound}, got {value}")
    return value
