"""Active global-phase randomizer: stepped-pattern generator plus modulator.

A functional generator is armed once per frame. After an adjustable trigger
delay it steps through one 12-bit code per pulse period and idles at zero
phase outside the pattern window. The phase modulator it drives is built for
double-pass operation: each pass phases a single linear polarization axis,
and the Faraday mirror behind it swaps H and V between the passes, so every
polarization component is modulated exactly once per reflection. The two
passes happen ``roundtrip_ns`` apart and generally sample different codes
when the pattern is stepping at that moment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._textio import PathOrFile, open_text
from .errors import ValidationError
from .optics import PolarizedAmplitude, Pulse

__all__ = [
    "CODE_LEVELS",
    "DEFAULT_FRAME_LEN",
    "PHASE_PER_CODE",
    "RandomizerTiming",
    "PhasePattern",
    "generate_pattern",
    "code_to_phase",
    "phase_at",
    "modulate_pi",
    "save_pattern",
    "load_pattern",
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


class PhasePattern:
    """One frame of 12-bit phase codes, one code per pulse period."""

    __slots__ = ("codes",)

    def __init__(self, codes: Iterable[int]):
        arr = np.asarray(codes)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("pattern must be a non-empty 1-d sequence of codes")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError("pattern codes must be integers")
        if arr.min() < 0 or arr.max() >= CODE_LEVELS:
            raise ValidationError(f"pattern codes must lie in [0, {CODE_LEVELS - 1}]")
        arr = arr.astype(np.int32, copy=True)
        arr.setflags(write=False)
        self.codes = arr

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhasePattern):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def __repr__(self) -> str:
        return f"PhasePattern(len={len(self)})"


def generate_pattern(rng: np.random.Generator, frame_len: int = DEFAULT_FRAME_LEN) -> PhasePattern:
    """Draw a fresh frame of independent uniform codes from ``rng``."""
    if frame_len <= 0:
        raise ValidationError(f"frame length must be positive, got {frame_len}")
    return PhasePattern(rng.integers(0, CODE_LEVELS, size=frame_len, dtype=np.int32))


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


def phase_at(t_ns: float, pattern: PhasePattern, timing: RandomizerTiming) -> float:
    """Generator output phase at time ``t_ns`` within one frame.

    The first code becomes active at ``delay_ns`` and each code holds for one
    period. Before the pattern starts and after it ends the output idles at
    zero phase.
    """
    slot = math.floor((t_ns - timing.delay_ns) / timing.period_ns)
    if 0 <= slot < len(pattern):
        return code_to_phase(int(pattern.codes[slot]))
    return 0.0


def modulate_pi(pulse: Pulse, pattern: PhasePattern, timing: RandomizerTiming) -> Pulse:
    """Double-pass, polarization-insensitive phase modulation of one pulse.

    The forward pass phases the component that is V-aligned at the modulator;
    the mirror swaps H and V; the return pass (``roundtrip_ns`` later) phases
    the other component. Net effect: H and V are exchanged and each picks up
    the generator phase sampled on its own pass.
    """
    phi_fwd = phase_at(pulse.t_ns, pattern, timing)
    phi_ret = phase_at(pulse.t_ns + timing.roundtrip_ns, pattern, timing)
    amp = pulse.amplitude
    out = PolarizedAmplitude(
        h=amp.v * cmath.exp(1j * phi_ret),
        v=amp.h * cmath.exp(1j * phi_fwd),
    )
    return Pulse(out, pulse.t_ns)


def save_pattern(pattern: PhasePattern, destination: PathOrFile) -> None:
    """Write a pattern as plain text, one decimal code per line."""
    with open_text(destination) as fh:
        fh.write("\n".join(str(int(c)) for c in pattern.codes) + "\n")


def load_pattern(source: PathOrFile, expected_frame_len: int | None = None) -> PhasePattern:
    """Read a pattern saved by :func:`save_pattern`, validating every code."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    codes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            codes.append(int(line))
        except ValueError:
            raise ValidationError(f"line {lineno}: not an integer code: {line!r}") from None
    if not codes:
        raise ValidationError("pattern file contains no codes")
    pattern = PhasePattern(np.asarray(codes))
    if expected_frame_len is not None and len(pattern) != expected_frame_len:
        raise ValidationError(
            f"pattern has {len(pattern)} codes, expected {expected_frame_len}"
        )
    return pattern
