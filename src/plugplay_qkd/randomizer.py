"""Active global-phase randomizer: the stepped-pattern generator and its timing.

A functional generator steps through one 12-bit code per pulse period,
starting an adjustable trigger delay after the frame trigger, and idles at
zero phase outside the pattern window. Frames of ``DEFAULT_FRAME_LEN`` codes
retrigger back to back. The double-pass modulator it drives, and where each
pass lands on the code grid, are modelled in :mod:`plugplay_qkd.protocol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "CODE_LEVELS",
    "DEFAULT_FRAME_LEN",
    "PHASE_PER_CODE",
    "RandomizerTiming",
    "generate_pattern",
    "code_to_phase",
]

CODE_LEVELS = 4096
DEFAULT_FRAME_LEN = 504
PHASE_PER_CODE = 2.0 * math.pi / CODE_LEVELS


@dataclass(frozen=True)
class RandomizerTiming:
    """Clocking of the pattern generator relative to the pulse train.

    ``delay_ns`` is the trigger-to-first-step offset knob; scanning it is how
    the alignment between phase steps and pulse arrivals is verified.
    ``roundtrip_ns`` is the modulator-to-mirror-and-back flight time
    separating the two modulation passes of one pulse.
    """

    period_ns: float = 200.0
    delay_ns: float = 0.0
    roundtrip_ns: float = 20.0

    def __post_init__(self) -> None:
        for name in ("period_ns", "delay_ns", "roundtrip_ns"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.period_ns <= 0.0:
            raise ValidationError(f"pattern step period must be positive, got {self.period_ns} ns")
        if self.roundtrip_ns < 0.0:
            raise ValidationError(f"mirror round trip must be >= 0, got {self.roundtrip_ns} ns")


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
