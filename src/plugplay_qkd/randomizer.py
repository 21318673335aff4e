"""Active global-phase randomizer: the stepped-pattern generator and its DAC grid.

A functional generator steps through one 12-bit code per pulse period,
starting an adjustable trigger delay after the frame trigger, and idles at
zero phase outside the pattern window. Frames of ``DEFAULT_FRAME_LEN`` codes
retrigger back to back. The generator's clocking (period, trigger delay,
mirror round trip) is part of :class:`plugplay_qkd.protocol.SessionConfig`,
and the double-pass modulator it drives, with where each pass lands on the
code grid, is modelled in :mod:`plugplay_qkd.protocol`.

The codes themselves are one stream of independent uniform draws, of which
:func:`generate_pattern` returns any window straight from raw PCG64 words.
A :class:`RawStream` reads such words at any position through one
generator, so a session reads each of its random substreams, and the
uniformity audit its pattern stream, through one generator per run: the
kernel reads one pattern window per block of bits, and the audit its stream
a window at a time from the start. Every session draw but the polarization
is a raw read; detection draws are words cut at an integer limit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MAX_FLOAT64S, ValidationError, whole

CODE_BITS = 12
CODE_LEVELS = 1 << CODE_BITS
DEFAULT_FRAME_LEN = 504
PHASE_PER_CODE = 2.0 * math.pi / CODE_LEVELS


class RawStream:
    """The raw PCG64 stream of ``seed`` (a ``SeedSequence``, or any seed
    ``PCG64`` takes), read anywhere through one generator.

    Each read moves the generator with ``advance`` from the word after the
    last read to the first word it asks for, forward or back, in about a
    microsecond, where building a generator from a ``SeedSequence`` takes
    several times longer. Raw words are what numpy's RNG policy keeps stable
    across versions; no ``Generator`` is built over them.
    """

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        # the word the generator hands out next
        self._next = 0

    def read(self, dtype, start: int, count: int) -> np.ndarray:
        """Elements ``[start, start + count)`` of the stream read as
        little-endian ``dtype`` (uint8, uint32 or uint64), as a writable array.

        PCG64 hands out each 64-bit word's low half first, so the uint32 and
        uint8 streams are the little-endian halves and bytes of its words.
        """
        per_word = 8 // np.dtype(dtype).itemsize
        word, skip = divmod(start, per_word)
        n_words = -(-(skip + count) // per_word)
        if word != self._next:
            # mod the 2**128-word period, a step back is a long step forward
            self._bitgen.advance((word - self._next) % (1 << 128))
        self._next = word + n_words
        raw = self._bitgen.random_raw(n_words)
        # the little-endian view is the same on any host
        return raw.astype("<u8", copy=False).view(dtype)[skip : skip + count]


def generate_pattern(source: RawStream, n_codes: int, start: int = 0) -> np.ndarray:
    """Codes ``[start, start + n_codes)`` of the pattern stream of ``source``,
    a :class:`RawStream`, which moves its one generator to each window asked
    of it, as an int32 array. Any other source is a ``ValidationError``.

    The stream of ``RawStream(seed)`` is exactly what
    ``Generator(PCG64(seed)).integers(0, 4096, dtype=np.int32)`` draws, in
    one call or frame by frame, taken from the raw PCG64 words instead.
    numpy maps each such code from one uint32 by Lemire's multiply ``(u *
    4096) >> 32``, which never rejects for a power-of-two range: a code is
    the top 12 bits of its uint32, and code ``k`` is uint32 ``k`` of the raw
    stream (see :meth:`RawStream.read`).
    """
    if not isinstance(source, RawStream):
        raise ValidationError(f"source must be a RawStream, got {type(source).__name__}")
    n_codes = whole("n_codes", n_codes, 1, MAX_FLOAT64S)
    start = whole("start", start, 0)
    codes = source.read("<u4", start, n_codes)
    codes >>= 32 - CODE_BITS
    return codes.view("<i4").astype(np.int32, copy=False)


def code_to_phase(code):
    """Map 12-bit codes to their phases in radians, as float64 (a scalar
    code gives an ``np.float64``).

    The DAC grid is linear: code ``c`` maps to ``2*pi*c / 4096``, covering
    [0, 2*pi) in 4096 equal steps.
    """
    arr = np.asarray(code)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("phase codes must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= CODE_LEVELS):
        raise ValidationError(f"phase codes must lie in [0, {CODE_LEVELS - 1}]")
    return arr * PHASE_PER_CODE
