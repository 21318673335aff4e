"""Active global-phase randomizer: the stepped-pattern generator and its DAC grid.

A functional generator steps through one 12-bit code per pulse period,
starting an adjustable trigger delay after the frame trigger, and idles at
zero phase outside the pattern window. Frames of ``DEFAULT_FRAME_LEN`` codes
retrigger back to back. The generator's clocking (period, trigger delay,
mirror round trip) is part of :class:`plugplay_qkd.protocol.SessionConfig`,
and the double-pass modulator it drives, with where each pass lands on the
code grid, is modelled in :mod:`plugplay_qkd.protocol`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = [
    "CODE_LEVELS",
    "DEFAULT_FRAME_LEN",
    "PHASE_PER_CODE",
    "generate_pattern",
    "code_to_phase",
]

CODE_LEVELS = 4096
DEFAULT_FRAME_LEN = 504
PHASE_PER_CODE = 2.0 * math.pi / CODE_LEVELS


def generate_pattern(rng: np.random.Generator, n_codes: int) -> np.ndarray:
    """Draw ``n_codes`` independent uniform codes from ``rng`` as an int32 array.

    One draw of ``k * m`` codes equals ``k`` consecutive draws of ``m``, so
    a stream does not depend on how it is cut into frames.
    """
    if n_codes <= 0:
        raise ValidationError(f"need a positive number of codes, got {n_codes}")
    return rng.integers(0, CODE_LEVELS, size=n_codes, dtype=np.int32)


def code_to_phase(code):
    """Map a 12-bit code (scalar or array) to its phase in radians.

    The DAC grid is linear: code ``c`` maps to ``2*pi*c / 4096``, covering
    [0, 2*pi) in 4096 equal steps.
    """
    arr = np.asarray(code)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("phase codes must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= CODE_LEVELS):
        raise ValidationError(f"phase codes must lie in [0, {CODE_LEVELS - 1}]")
    phase = arr * PHASE_PER_CODE
    if np.isscalar(code) or arr.ndim == 0:
        return float(phase)
    return phase
