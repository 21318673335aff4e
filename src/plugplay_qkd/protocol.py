"""Bidirectional phase-coding BB84 session simulation.

Per bit, on the 5 MHz pulse clock:

* Bob's source pulse splits on his asymmetric interferometer into a leading
  reference (short arm) and a trailing signal (long arm, which carries the
  insertion loss of his phase modulator).
* Both travel the fiber to Alice. Her encoder phases the signal with one of
  the four BB84 quarter-turn phases, the global-phase randomizer phases
  everything reflecting off her Faraday mirror (double pass, swapping H and
  V), and the pair is attenuated to the target mean photon number before
  heading back.
* On the return trip the roles swap: the reference now takes Bob's long arm
  (picking up the insertion loss and his basis phase) while the signal takes
  the short arm. Each interfering path therefore traverses long+short
  exactly once, so the two pulses arrive simultaneous and balanced in
  amplitude, which is what pushes the matched-basis error rate to the dark
  count floor.

Every phase in a session is a whole number of 12-bit DAC codes: a pattern
step is one code in [0, 4096), and each BB84 quarter turn is exactly 1024
codes. The detector means therefore depend only on two integer code
differences per bit, one per polarization component, and the kernel reads
their cosines from a 4096-entry table whose quarter points are pinned
exact, so an ideal matched bit puts exactly zero mean photon number on the
wrong detector.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import MAX_FLOAT64S, ValidationError, real, whole
from .randomizer import (
    CODE_LEVELS,
    DEFAULT_FRAME_LEN,
    PHASE_PER_CODE,
    generate_pattern,
)

BASES = ("X", "Y")

# cos(2*pi*k / 4096) for every code difference k. The quarter points are
# pinned exact (cos puts 1024 and 3072 at 6e-17 and -1.8e-16), so a matched
# bit leaves its wrong detector dark and a mismatched one splits evenly.
_COS = np.cos(np.arange(CODE_LEVELS) * PHASE_PER_CODE)
_COS[[CODE_LEVELS // 4, 3 * CODE_LEVELS // 4]] = 0.0
_COS[CODE_LEVELS // 2] = -1.0
_COS.setflags(write=False)
_QUARTER_TURN_CODES = CODE_LEVELS // 4

# Bits per kernel block: its float64 temporaries stay in a 2 MB L2 cache.
_KERNEL_BLOCK = 1 << 15

_SUBSTREAM_ROLES = ("pattern", "alice", "bob", "polarization", "detection")


def _substream(seed: int, role: str) -> np.random.SeedSequence:
    """The ``role`` substream of the session seeded by ``seed``: child
    ``_SUBSTREAM_ROLES.index(role)`` of ``SeedSequence(seed)``, as ``spawn``
    makes it, built without spawning its siblings."""
    return np.random.SeedSequence(seed, spawn_key=(_SUBSTREAM_ROLES.index(role),))


def _substreams(seed: int) -> dict:
    return {role: _substream(seed, role) for role in _SUBSTREAM_ROLES}


def pattern_stream(seed: int, n_codes: int, start: int = 0) -> np.ndarray:
    """Pattern codes ``[start, start + n_codes)`` of the session seeded by ``seed``.

    Frames retrigger back to back, so a session's codes are one stream: the
    window ``[start, start + n_codes)`` of its pattern substream (see
    :func:`~plugplay_qkd.randomizer.generate_pattern`), which the kernel
    reads a block's slots at a time. It does not depend on the frame length.
    """
    return generate_pattern(_substream(whole("seed", seed, 0), "pattern"), n_codes, start)


# SessionConfig's real fields as (name, low, high, ends) for errors.real, in check order: timing,
# then the detectors, then the rest, so a config with several faults always names the same one.
_REAL_FIELDS = (
    ("period_ns", 0, None, "()"), ("delay_ns", None, None, "[]"), ("roundtrip_ns", 0, None, "[]"),
    ("efficiency", 0, 1, "[]"), ("dark_prob", 0, 1, "[)"),
    ("mu_target", 0, None, "[]"), ("tau_mzi_ns", 0, None, "()"), ("insertion_loss_db", 0, None, "[]"),
    ("fiber_km", 0, None, "[]"), ("fiber_loss_db_per_km", 0, None, "[]"),
)


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one key exchange session.

    The pattern generator steps every ``period_ns``, starting ``delay_ns``
    after its trigger (scanning that delay verifies the alignment), and
    ``roundtrip_ns`` separates the two modulation passes of one pulse.
    ``mu_target`` is the mean photon number of the reference and signal
    pulses together as they leave Alice.

    The real fields are checked in the order and ranges of ``_REAL_FIELDS``
    and stored as ``float``; ``n_bits`` and ``seed`` come after them.
    """

    n_bits: int = 843_000
    seed: int = 0
    mu_target: float = 0.1
    period_ns: float = 200.0
    delay_ns: float = 0.0
    roundtrip_ns: float = 20.0
    tau_mzi_ns: float = 50.0
    insertion_loss_db: float = 3.0
    fiber_km: float = 5.0
    fiber_loss_db_per_km: float = 0.2
    efficiency: float = 0.10
    dark_prob: float = 1e-5
    randomizer_enabled: bool = True
    double_click_policy: str = "discard"
    polarization: tuple[complex, complex] | None = None

    def __post_init__(self) -> None:
        for name, low, high, ends in _REAL_FIELDS:
            object.__setattr__(self, name, real(name, getattr(self, name), low, high, ends))
        object.__setattr__(self, "n_bits", whole("n_bits", self.n_bits, 1, MAX_FLOAT64S))
        object.__setattr__(self, "seed", whole("seed", self.seed, 0))
        # all four modulation passes of a bit must fit inside one pattern step
        span = self.tau_mzi_ns + self.roundtrip_ns
        if span >= self.period_ns:
            raise ValidationError(
                "arm delay plus mirror round trip must be shorter than the pulse period "
                f"({span} ns >= {self.period_ns} ns)"
            )
        if self.double_click_policy not in ("discard", "random"):
            raise ValidationError(
                f"double_click_policy must be 'discard' or 'random', got {self.double_click_policy!r}"
            )
        if not isinstance(self.randomizer_enabled, (bool, np.bool_)):
            raise ValidationError(f"randomizer_enabled must be a bool, got {self.randomizer_enabled!r}")
        _path_amplitude(self)
        pol = self.polarization
        if pol is not None:
            # a number has no len(), a set no order; a 2-d array's rows are not entries
            pair = isinstance(pol, Sequence) or getattr(pol, "ndim", 0) == 1
            if not pair or len(pol) != 2:
                raise ValidationError(f"polarization must be a (h, v) pair, got {pol!r}")
            # complex() would read "1" as 1 and True as 1, and end "x" in a bare ValueError
            if not all(isinstance(c, (int, float, complex, np.number)) and not isinstance(c, bool) for c in pol):
                raise ValidationError(f"polarization entries must be numbers, got {pol!r}")
            _unit_pair(*(complex(c) for c in pol))

    def first_event_ns(self) -> float:
        """Arrival time of bit 0's reference pulse at the randomizer.

        Chosen so the four modulation passes of each bit sit centered inside
        one pattern step when the trigger delay is zero; 'aligned' then means
        pattern transitions fall halfway between consecutive bits.
        """
        return 0.5 * (self.period_ns - self.tau_mzi_ns - self.roundtrip_ns)


# The record columns; column k is bit k of a bit's flags byte.
_COLUMNS = ("alice_basis", "alice_bit", "bob_basis", "clicked_d0", "clicked_d1")

# PCG64.advance by this many words steps back one word (mod 2**128)
_ONE_WORD_BACK = (1 << 128) - 1


class _ByteReader:
    """Consecutive bytes of the raw PCG64 stream of ``seed`` from byte
    ``first`` on: each call ``read(count)`` returns the next ``count`` as a
    writable uint8 array.

    The bytes are the little-endian bytes of the raw words, as in
    :func:`~plugplay_qkd.randomizer._raw_window`, all read through one PCG64:
    a read that ends inside a word steps the generator back over that word,
    so the next read starts in it again.
    """

    def __init__(self, seed, first: int):
        self._bitgen = np.random.PCG64(seed).advance(first // 8)
        self._skip = first % 8

    def __call__(self, count: int) -> np.ndarray:
        skip = self._skip
        raw = self._bitgen.random_raw(-(-(skip + count) // 8))
        self._skip = (skip + count) % 8
        if self._skip:
            self._bitgen.advance(_ONE_WORD_BACK)
        # the little-endian view is the same on any host
        return raw.astype("<u8", copy=False).view(np.uint8)[skip : skip + count]


class _FlagReader:
    """Consecutive bytes whose top bit is bit ``k`` of ``flags``, from bit 0
    on: each call ``read(count)`` returns the next ``count``."""

    def __init__(self, flags: np.ndarray, k: int):
        self._flags, self._shift, self._next = flags, 7 - k, 0

    def __call__(self, count: int) -> np.ndarray:
        self._next += count
        return self._flags[self._next - count : self._next] << self._shift


def _choice_readers(source, n: int) -> tuple:
    """Readers of Alice's basis, her bit and Bob's basis for bits ``[0, n)``,
    in bit order: each call ``read(count)`` gives the next ``count`` bits'
    choices as the top bits of a writable uint8 array.

    ``source`` is a flags column (see :class:`DetectionRecords`) or a
    session's ``(alice, bob)`` substreams. A session's choices are exactly
    ``integers(0, 2, size=n, dtype=np.int8)`` drawn twice from Alice's
    generator and once from Bob's, taken from the raw PCG64 words instead.
    numpy maps each such value from one byte of a uint32 stream, low byte
    first and a fresh word per call, by Lemire's multiply ``(byte * 2) >>
    8``, which never rejects for a range of 2: the value is the byte's top
    bit. So Alice's basis is bytes ``[0, n)`` of Alice's raw stream, her bit
    bytes ``[4w, 4w + n)`` after the ``w = ceil(n / 4)`` uint32 words her
    basis used, and Bob's basis bytes ``[0, n)`` of Bob's (see
    :class:`_ByteReader`).
    """
    if isinstance(source, np.ndarray):
        return tuple(_FlagReader(source, k) for k in range(3))
    alice, bob = source
    return _ByteReader(alice, 0), _ByteReader(alice, 4 * -(-n // 4)), _ByteReader(bob, 0)


def _choice_flags(alice_basis: np.ndarray, alice_bit: np.ndarray, bob_basis: np.ndarray) -> np.ndarray:
    """Flag bits 0, 1 and 2 (see :class:`DetectionRecords`) of bytes whose top
    bits are the three choices, as read by :func:`_choice_readers`."""
    return (alice_basis >> 7) | ((alice_bit >> 7) << 1) | ((bob_basis >> 7) << 2)


def _clicked_rows(clicked: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The bits in ``[start, stop)`` set in the packed bitmap ``clicked``,
    ascending; only the bitmap's nonzero bytes are unpacked."""
    first = start // 8
    chunk = clicked[first : -(-stop // 8)]
    nonzero = chunk.nonzero()[0]
    byte, bit = np.unpackbits(chunk[nonzero]).reshape(-1, 8).nonzero()
    rows = 8 * (first + nonzero[byte]) + bit
    return rows[rows.searchsorted(start) : rows.searchsorted(stop)]


def _choice_column(k: int) -> property:
    """A read-only record column: choice ``k`` of every bit, as int8."""

    def column(self) -> np.ndarray:
        col = _choice_readers(self._choices, self._n)[k](self._n)
        col >>= 7
        return col.view(np.int8)

    return property(column, doc=f"{_COLUMNS[k]} of every bit, as int8 (re-read from its source on each access).")


def _click_column(k: int) -> property:
    """A read-only record column: bit ``k`` of every bit's flags, a click, as bool."""

    def column(self) -> np.ndarray:
        col = np.zeros(self._n, dtype=bool)
        col[np.unpackbits(self._clicked, count=self._n).view(bool)] = (self._clicks >> k) & 1
        return col

    return property(column, doc=f"{_COLUMNS[k]} of every bit, as bool (scattered from the clicks on each access).")


class DetectionRecords:
    """Per-bit outcomes of one session: what its choices and clicks were.

    Each bit has one flags byte: bit 0 is Alice's basis (an index into
    :data:`BASES`), bit 1 her bit, bit 2 Bob's basis, and bits 3 and 4 the
    clicks of D0 and D1. The records keep only what the choices do not fix:
    the bit count; the choices' source; a packed bitmap of the bits where a
    detector clicked (``ceil(n / 8)`` bytes, bit ``i`` at bit ``7 - i % 8``
    of byte ``i // 8``); and the whole flags byte of each clicked bit, in
    bit order. Records from :func:`run_session` take their choices from the
    session's seed, whose raw streams are re-read wherever they are needed
    (see :func:`_choice_readers`). So they hold n/8 bytes plus one per
    clicked bit: about 0.13 B/bit at the defaults, where about 0.5% of bits
    click, and 1.125 B/bit when every bit clicks.

    ``DetectionRecords(flags)`` builds records from ``flags``, a 1-d
    ``uint8`` column of such bytes, uncopied, which is then their choices'
    source; any other column, or a byte with bit 5, 6 or 7 set, is a
    ``ValidationError``. The five columns are read-only properties, derived
    on each read, bases and bits as int8 and clicks as bool. The
    pre-detection mean photon numbers, which phase-randomization invariance
    is stated about, are not kept here; :func:`detector_means` returns them.
    """

    __slots__ = ("_n", "_choices", "_clicked", "_clicks")

    alice_basis = _choice_column(0)
    alice_bit = _choice_column(1)
    bob_basis = _choice_column(2)
    clicked_d0 = _click_column(3)
    clicked_d1 = _click_column(4)

    def __init__(self, flags: np.ndarray):
        column = isinstance(flags, np.ndarray) and flags.dtype == np.uint8 and flags.ndim == 1
        # sift and the export read bits 5 to 7 as clear
        if not column or (flags.size and flags.max() >= 32):
            raise ValidationError("flags must be a 1-d uint8 column of bytes below 32")
        # a click sets flag bit 3 or 4
        clicked = flags >= 8
        self._n, self._choices, self._clicked, self._clicks = len(flags), flags, np.packbits(clicked), flags[clicked]

    @classmethod
    def _of(cls, n: int, choices, clicked: np.ndarray, clicks: np.ndarray) -> DetectionRecords:
        """Records of ``n`` bits from their parts, unchecked (see the class docstring)."""
        records = object.__new__(cls)
        records._n, records._choices, records._clicked, records._clicks = n, choices, clicked, clicks
        return records

    def __len__(self) -> int:
        return self._n


@dataclass(frozen=True)
class QberEstimate:
    """Sifted-key error rate with its binomial standard error, both NaN
    when no bit was sifted."""

    qber: float
    std_error: float
    n_sifted: int
    n_errors: int


def _polarization(config: SessionConfig, streams: dict) -> tuple[complex, complex]:
    """The session's normalised polarization state ``(h0, v0)``.

    One state holds for the whole session: the fiber drifts slowly compared
    to a frame. With no override it is drawn uniformly (Haar).
    """
    if config.polarization is None:
        z = np.random.default_rng(streams["polarization"]).normal(size=4)
        h0, v0 = complex(z[0], z[1]), complex(z[2], z[3])
    else:
        h0, v0 = (complex(c) for c in config.polarization)
    return _unit_pair(h0, v0)


def _unit_pair(h: complex, v: complex) -> tuple[complex, complex]:
    """``(h, v)`` divided by its norm, if it is finite and positive.

    Only where the squared norm overflows or falls below the normal range
    (where it keeps too few digits) is the pair first scaled by a power of
    two, bringing its largest component into [0.5, 1); every other pair is
    divided as it is.
    """
    parts = (h.real, h.imag, v.real, v.imag)
    if not all(map(math.isfinite, parts)) or not any(parts):
        raise ValidationError("polarization must be finite with positive norm")
    try:
        norm2 = abs(h) ** 2 + abs(v) ** 2
    except OverflowError:  # a component's square, or a complex abs, past float range
        norm2 = math.inf
    if not 2.0**-1022 <= norm2 < math.inf:
        shift = -math.frexp(max(map(abs, parts)))[1]
        hr, hi, vr, vi = (math.ldexp(x, shift) for x in parts)
        h, v = complex(hr, hi), complex(vr, vi)
        norm2 = abs(h) ** 2 + abs(v) ** 2
    norm = math.sqrt(norm2)
    return h / norm, v / norm


def _pass_shift(first_ns: float, n: int, n_codes: int, config: SessionConfig) -> int:
    """Slot shift of a pass that bit 0 makes at ``first_ns``: bits pass one period
    apart, so bit ``i`` samples slot ``i + shift`` (slot grid: see :func:`run_session`)."""
    quotient = (first_ns - config.delay_ns) / config.period_ns
    # clipping keeps a far-off (even infinite) quotient off the grid without
    # building a huge integer; every clipped shift still idles all n bits
    return math.floor(min(max(quotient, -n), n_codes))


def _path_amplitude(config: SessionConfig) -> float:
    """Amplitude of each interfering path at Bob's coupler, per unit source amplitude.

    At the coupler the reference has crossed short-then-long (insertion loss
    and basis phase on the way back), the signal long-then-short. Both paths
    see the long arm exactly once, so one shared amplitude keeps the balance
    exact down to the last bit. A loss budget whose attenuation or detector
    means leave float64 range is a ``ValidationError``.
    """
    long_arm = 10.0 ** (-config.insertion_loss_db / 20.0)
    fiber = 10.0 ** (-config.fiber_loss_db_per_km * config.fiber_km / 20.0)
    half = 1.0 / math.sqrt(2.0)
    ref_out = half * fiber  # per unit source amplitude, arriving at Alice
    sig_out = half * long_arm * fiber
    try:
        att = math.sqrt(config.mu_target / (ref_out**2 + sig_out**2))
    except ZeroDivisionError:
        att = math.inf
    path_amp = half * fiber * att * fiber * long_arm
    # a detector mean peaks at 2 * path_amp**2
    if not math.isfinite(2.0 * path_amp * path_amp):
        raise ValidationError(
            f"loss budget out of float64 range at mean photon target {config.mu_target}: "
            f"{config.insertion_loss_db} dB insertion loss, {config.fiber_km} km of fiber "
            f"at {config.fiber_loss_db_per_km} dB/km"
        )
    return path_amp


# Each bit's coding offset in codes, by its choice flags (flag bits 0 to 2):
# Alice's coding phase minus Bob's basis phase, 2 * alice_bit + alice_basis -
# bob_basis quarter turns, as int32 like the code differences it is added to.
_CODING = np.array([(2 * ((f >> 1) & 1) + (f & 1) - ((f >> 2) & 1)) * _QUARTER_TURN_CODES for f in range(8)],
                   dtype=np.int32)
_CODING.setflags(write=False)


def _block_means(
    choices: np.ndarray, code_diffs: tuple[np.ndarray, np.ndarray], a_h: float, a_v: float
) -> tuple[np.ndarray, np.ndarray]:
    """Detector means ``(mu_d0, mu_d1)`` of a set of bits.

    ``choices`` are the choice flags of those bits (flag bits 0 to 2, see
    :func:`_choice_flags`) and
    ``code_diffs`` the randomizer's signal-minus-reference code differences
    of their return and forward pass pairs, ``(sig_ret - ref_ret, sig_fwd -
    ref_fwd)``, as int32. The mirror swaps H and V: the H component leaving
    Alice was V on the way in and took its phase on the return pass, V on
    the forward pass. Each detector mean is a_H (1 +- cos dH) + a_V (1 +-
    cos dV), where the signal-minus-reference phase difference in codes is
    the randomizer's plus Alice's coding phase minus Bob's basis phase, in
    quarter turns.
    """
    ret_diff, fwd_diff = code_diffs
    coding = _CODING[choices]
    cos_h = _COS[(ret_diff + coding) & (CODE_LEVELS - 1)]
    cos_v = _COS[(fwd_diff + coding) & (CODE_LEVELS - 1)]
    return a_h * (1.0 + cos_h) + a_v * (1.0 + cos_v), a_h * (1.0 - cos_h) + a_v * (1.0 - cos_v)


def _session_means(config: SessionConfig, streams: dict):
    """The session's detector means at any of its bits, and their ceiling.

    Returns ``(means, peak)``: ``means(start, stop, bits, choices)`` gives
    ``(mu_d0, mu_d1)`` at the ascending bit indexes ``bits`` of the block
    ``[start, stop)``, whose choice flags are ``choices``, and no detector
    mean of the session exceeds ``peak``. Each call fills one window over
    the slots the block's passes touch, with the idle code 0 off the grid,
    and gathers the bits' codes from it once per distinct slot shift;
    rounding can spread a bit's four passes, which fit in one pattern step,
    over three slots, and the window spans them all.
    """
    n = config.n_bits
    h0, v0 = _polarization(config, streams)
    # the session runs whole frames; a disabled randomizer has none
    n_codes = -(-n // DEFAULT_FRAME_LEN) * DEFAULT_FRAME_LEN if config.randomizer_enabled else 0
    t0 = config.first_event_ns()
    # the passes in order: reference forward and return, signal forward and return
    shifts = [_pass_shift(first_ns, n, n_codes, config) for first_ns in (
        t0, t0 + config.roundtrip_ns, t0 + config.tau_mzi_ns, t0 + config.tau_mzi_ns + config.roundtrip_ns)]
    lowest, highest = min(shifts), max(shifts)
    path_amp = _path_amplitude(config)
    # the mirror swaps H and V (see _block_means)
    a_h = abs(v0 * path_amp) ** 2
    a_v = abs(h0 * path_amp) ** 2

    def means(start: int, stop: int, bits: np.ndarray, choices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the block's passes sample slots [first, stop + highest); [lo, hi) is on the grid
        first = start + lowest
        window = np.zeros(stop + highest - first, dtype=np.int32)
        lo, hi = max(first, 0), min(stop + highest, n_codes)
        if lo < hi:
            window[lo - first : hi - first] = generate_pattern(streams["pattern"], hi - lo, lo)
        by_shift = {shift: window[bits + (shift - first)] for shift in set(shifts)}
        ref_fwd, ref_ret, sig_fwd, sig_ret = (by_shift[shift] for shift in shifts)
        return _block_means(choices, (sig_ret - ref_ret, sig_fwd - ref_fwd), a_h, a_v)

    # cos <= 1 puts each term of _block_means at or below 2 a_h or 2 a_v, also
    # in float64: rounding is monotone and doubling exact
    return means, 2.0 * (a_h + a_v)


def _click_bound(config: SessionConfig, peak: float) -> float:
    """An upper bound on every click probability of a session whose detector
    means stay at or below ``peak``.

    A detector clicks with p = 1 - (1 - dark) exp(-eta mu) <= dark + eta mu,
    because 1 - exp(-x) <= x and exp(-x) <= 1, and mu <= peak. The computed
    p can exceed the exact one by a few ulps of 1, and the bound's own
    rounding is relative; the two margins cover both. A bound of 1 or more
    makes every bit a candidate.
    """
    return config.dark_prob + config.efficiency * peak * (1.0 + 1e-9) + 1e-12


def _block_clicks(
    config: SessionConfig, means, bound: float, rngs: tuple[np.random.Generator, ...], readers: tuple,
    start: int, stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The bits of the block ``[start, stop)`` where a detector clicked, and
    their flag bytes (see :class:`DetectionRecords`).

    ``rngs`` draw D0's clicks, D1's clicks and the 'random' policy's coins,
    which read the detection substream's uniform draws ``[0, n)``,
    ``[n, 2n)`` and ``[2n, 3n)`` of an ``n``-bit session; each draw is one
    64-bit output, so blocks read the same numbers as three whole-session
    draws. ``readers`` are the session's choice readers (see
    :func:`_choice_readers`), each read for the block's bits. A detector
    clicks when its uniform lies below its click probability, so a bit whose
    two uniforms both reach ``bound`` (see :func:`_click_bound`) clicks on
    neither. Only the other, candidate bits have their choices gathered,
    their means computed (from ``means``, see :func:`_session_means`) and
    their clicks drawn.

    One block-length column is alive at a time. D0's is cut to its
    below-bound (index, uniform) pairs before D1's is drawn, D1's is cut to
    the candidates before the choice bytes are read, each of which is cut
    to the candidates before the next is read, and the coins are drawn
    last. A candidate whose D0 uniform reached the bound gets 1.0 in its
    place, which no click probability exceeds, so it still does not click.
    """
    rng_d0, rng_d1, rng_coin = rngs
    u = rng_d0.random(stop - start)
    below0 = np.flatnonzero(u < bound)
    u0_below = u[below0]
    del u
    u = rng_d1.random(stop - start)
    below = u < bound
    below[below0] = True
    candidates = np.flatnonzero(below)
    u1 = u[candidates]
    del u, below
    u0 = np.ones(candidates.size)
    u0[np.searchsorted(candidates, below0)] = u0_below
    bits = candidates + start
    choices = _choice_flags(*(read(stop - start)[candidates] for read in readers))
    mu_d0, mu_d1 = means(start, stop, bits, choices)
    eta = config.efficiency
    dark = config.dark_prob
    p0 = 1.0 - (1.0 - dark) * np.exp(-eta * mu_d0)
    p1 = 1.0 - (1.0 - dark) * np.exp(-eta * mu_d1)
    clicked_d0 = u0 < p0
    clicked_d1 = u1 < p1
    if config.double_click_policy == "random":
        both = clicked_d0 & clicked_d1
        keep0 = rng_coin.random(stop - start)[candidates] < 0.5
        clicked_d0[both] = keep0[both]
        clicked_d1[both] = ~keep0[both]
    hit = clicked_d0 | clicked_d1
    flags = choices | (clicked_d0.view(np.uint8) << 3) | (clicked_d1.view(np.uint8) << 4)
    return bits[hit], flags[hit]


def _keep_clicks(clicked: np.ndarray, clicks: np.ndarray, rows: np.ndarray, flags: np.ndarray) -> None:
    """Set the bits ``rows`` (ascending) in the packed bitmap ``clicked`` and
    append their flag bytes ``flags`` to ``clicks``, which grows in place, so
    no copy of the kept flag bytes is ever alive beside them."""
    np.bitwise_or.at(clicked, rows >> 3, (0x80 >> (rows & 7)).astype(np.uint8))
    clicks.resize(len(clicks) + len(flags), refcheck=False)
    clicks[len(clicks) - len(flags) :] = flags


def run_session(config: SessionConfig) -> DetectionRecords:
    """Simulate one session and return its per-bit records.

    Alice's and Bob's random choices, the pattern codes, the shared
    polarization drift and the detector noise each come from an independent
    substream of ``config.seed``, so toggling the randomizer leaves every
    other random draw untouched.

    Frames of ``DEFAULT_FRAME_LEN`` codes retrigger back to back, and the
    session runs whole frames, so its codes form one continuous grid of
    ``ceil(n_bits / DEFAULT_FRAME_LEN)`` frames of half-open slots: code
    ``k`` is active on
    ``[delay_ns + k*period_ns, delay_ns + (k+1)*period_ns)``, so a pass
    landing exactly on a step edge takes the code that starts there. Before
    and after the grid the generator idles at code 0. A disabled randomizer
    is the same computation with every pass idle.

    The clicks are drawn in blocks of ``_KERNEL_BLOCK`` bits. Each block
    draws its two detection uniform columns first, one at a time, each cut
    to its bits below the session's click bound before the next is drawn.
    Only then does it read its choices, the top bits of the raw bytes of
    Alice's and Bob's streams, exactly the values
    ``Generator.integers(0, 2, dtype=np.int8)`` would draw, through one
    reader per choice for the whole session (see :func:`_choice_readers`),
    and gather them at the candidate bits, those with a uniform below the
    bound. Only for those are the detector means and click probabilities
    computed (see :func:`_block_clicks`); every other bit has no click. At
    the defaults about 1% of bits are candidates. Each block also gathers
    its codes once per distinct slot shift from one window, idle off the
    grid and drawn from the pattern stream's raw words on it (see
    :func:`_session_means`).

    The records keep the session's choice substreams, a packed bitmap of
    the clicked bits and their flag bytes (see :class:`DetectionRecords`),
    each block's clicks set in the bitmap and appended to the flag bytes
    in place: about 0.13 B/bit at the defaults and 1.125 B/bit when every
    bit clicks. The session holds its records and one block's temporaries,
    never a full-length column; :func:`detector_means` returns the means of
    every bit.
    """
    n = config.n_bits
    streams = _substreams(config.seed)
    source = (streams["alice"], streams["bob"])
    readers = _choice_readers(source, n)
    means, peak = _session_means(config, streams)
    bound = _click_bound(config, peak)
    rngs = tuple(  # see _block_clicks
        np.random.Generator(np.random.PCG64(streams["detection"]).advance(k * n)) for k in range(3))
    clicked = np.zeros(-(-n // 8), dtype=np.uint8)
    clicks = np.empty(0, dtype=np.uint8)
    for start in range(0, n, _KERNEL_BLOCK):
        _keep_clicks(clicked, clicks, *_block_clicks(config, means, bound, rngs, readers, start,
                                                     min(n, start + _KERNEL_BLOCK)))
    return DetectionRecords._of(n, source, clicked, clicks)


def detector_means(config: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit pre-detection mean photon numbers ``(mu_d0, mu_d1)`` of a session.

    These are what phase-randomization invariance is stated about. They come
    from the same draws and float arithmetic as :func:`run_session`, block
    by block, each block reading its choices through the same readers and
    drawing its own window of pattern codes, so bit ``i``'s means are
    exactly the ones its click probabilities are computed from; no
    detection uniforms are drawn. The two float64 columns take 16 B/bit and
    the rest one block.
    """
    n = config.n_bits
    streams = _substreams(config.seed)
    readers = _choice_readers((streams["alice"], streams["bob"]), n)
    means, _ = _session_means(config, streams)
    mu_d0, mu_d1 = np.empty(n), np.empty(n)
    for start in range(0, n, _KERNEL_BLOCK):
        stop = min(n, start + _KERNEL_BLOCK)
        choices = _choice_flags(*(read(stop - start) for read in readers))
        mu_d0[start:stop], mu_d1[start:stop] = means(start, stop, np.arange(start, stop), choices)
    return mu_d0, mu_d1


def sift(records: DetectionRecords) -> np.ndarray:
    """Keep conclusive, basis-matched bits; return (alice_bit, bob_bit) pairs.

    Conclusive means exactly one detector clicked (a click on D1 decodes as
    bit 1). Double clicks survive only if the session already rewrote them
    under the 'random' policy; under 'discard' they are dropped here. Only
    the records' flag bytes of the clicked bits are read (see
    :class:`DetectionRecords`), so it takes time and memory in proportion to
    the clicks, not the bits.
    """
    f = records._clicks
    # not both clicks, and alice_basis (bit 0) equal to bob_basis (bit 2)
    f = f[((f >> 3) != 3) & (((f ^ (f >> 2)) & 1) == 0)]
    return np.column_stack((((f >> 1) & 1).view(np.int8), (f >> 4).view(np.int8)))


def estimate_qber(sifted: Union[np.ndarray, Sequence[Sequence[int]]]) -> QberEstimate:
    """Error rate of sifted pairs with binomial standard error sqrt(q*(1-q)/n).

    Zero pairs give ``QberEstimate(nan, nan, 0, 0)``: a session or scan point
    that sifts no bit reports itself as such.
    """
    arr = np.asarray(sifted)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("sifted data must be an (n, 2) array of bit pairs")
    n = int(arr.shape[0])
    if n == 0:
        return QberEstimate(qber=math.nan, std_error=math.nan, n_sifted=0, n_errors=0)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValidationError("sifted pairs must hold only bits 0 and 1")
    n_errors = int(np.count_nonzero(arr[:, 0] != arr[:, 1]))
    qber = n_errors / n
    std_error = math.sqrt(qber * (1.0 - qber) / n)
    return QberEstimate(qber=qber, std_error=std_error, n_sifted=n, n_errors=n_errors)


# Rows formatted per write: about 0.2 B/bit of text at the paper's 843,000
# bits. Each index width gets one buffer of at most this many rows. From row
# 10,000 on, runs start at its multiples, as every power of ten there does, so
# every run of a width shares its buffer's low four index digits.
_CSV_RUN_ROWS = 10_000

# The four ASCII digits of the indexes 0 to 9,999, one row each.
_FOUR_DIGITS = np.stack(
    [np.tile(np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), 10 ** (3 - k)), 10**k) for k in range(4)],
    axis=1)
_FOUR_DIGITS.setflags(write=False)


def export_records_csv(records: DetectionRecords, path: str | os.PathLike) -> None:
    """Write one CSV row per bit: index, bases as letters, clicks as 0/1.

    Rows are formatted one index width at a time. Each width lays out one
    buffer of up to ``_CSV_RUN_ROWS`` ``uint8`` rows, about 0.2 B/bit at the
    paper's 843,000 bits, with its low four index digits and its separators
    in place, and 0 in both click fields, and releases it before the next
    width. Each run of the width then writes its higher index digits, one
    column at a time, and its three choice fields from the run's choice
    bytes, read in order through the records' choice readers (see
    :func:`_choice_readers`). Its clicks are scattered into the click fields
    at its clicked bits, found from the nonzero bytes of the records'
    bitmap, and reset to 0 after the run is written. A warm ``session
    --output`` of the paper's size so holds its records, about 0.13 B/bit,
    the buffer and one run's choice bytes.
    """
    n = len(records)
    readers = _choice_readers(records._choices, n)
    # the character of each choice's 0, in flag-bit order ('Y' follows 'X')
    zeros = (BASES[0], "0", BASES[0])
    # the clicked bits in the runs before this one
    seen = 0
    with open(path, "wb") as fh:
        fh.write(b"bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1\n")
        for width in range(1, len(str(max(n - 1, 0))) + 1):
            first, end = (10 ** (width - 1) if width > 1 else 0), min(10**width, n)
            # after the index: five one-character fields, each after a comma, and "\n"
            rows = np.empty((min(end - first, _CSV_RUN_ROWS), width + 11), dtype=np.uint8)
            low = min(width, 4)
            rows[:, width - low : width] = _FOUR_DIGITS[first % _CSV_RUN_ROWS :][: len(rows), 4 - low :]
            rows[:, width::2] = np.frombuffer(b",,,,,\n", np.uint8)
            # each run sets its clicks and resets them to 0 after its write
            rows[:, width + 7 :: 2] = ord("0")
            # one run per width below row 10,000, then one per 10,000 rows
            for start in range(first, end, _CSV_RUN_ROWS):
                block = rows[: min(end - start, _CSV_RUN_ROWS)]
                if width > 4:
                    for col, digit in enumerate(str(start // _CSV_RUN_ROWS).encode()):
                        block[:, col] = digit
                for k, (read, zero) in enumerate(zip(readers, zeros)):
                    choice = read(len(block))
                    choice >>= 7
                    choice += ord(zero)
                    block[:, width + 1 + 2 * k] = choice
                hit = _clicked_rows(records._clicked, start, start + len(block)) - start
                flags = records._clicks[seen : seen + len(hit)]
                seen += len(hit)
                # through each click field's column, which is faster than a 2-d index
                block[:, width + 7][hit] = ord("0") + ((flags >> 3) & 1)
                block[:, width + 9][hit] = ord("0") + (flags >> 4)
                fh.write(block)
                block[:, width + 7][hit] = block[:, width + 9][hit] = ord("0")
            # release the buffer before the next width's, so one is alive at a time
            rows = block = None
