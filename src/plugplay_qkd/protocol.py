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
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._textio import PathOrFile, open_ascii
from .errors import ValidationError
from .randomizer import (
    CODE_LEVELS,
    DEFAULT_FRAME_LEN,
    PHASE_PER_CODE,
    generate_pattern,
)

__all__ = [
    "BASES",
    "SessionConfig",
    "DetectionRecords",
    "QberEstimate",
    "pattern_stream",
    "run_session",
    "sift",
    "estimate_qber",
    "export_records_csv",
]

BASES = ("X", "Y")

# cos(2*pi*k / 4096) for every code difference k. The quarter points are
# pinned exact (cos puts 1024 and 3072 at 6e-17 and -1.8e-16), so a matched
# bit leaves its wrong detector dark and a mismatched one splits evenly.
_COS = np.cos(np.arange(CODE_LEVELS) * PHASE_PER_CODE)
_COS[[CODE_LEVELS // 4, 3 * CODE_LEVELS // 4]] = 0.0
_COS[CODE_LEVELS // 2] = -1.0
_COS.setflags(write=False)
_QUARTER_TURN_CODES = CODE_LEVELS // 4

_SUBSTREAM_ROLES = ("pattern", "alice", "bob", "polarization", "detection")


def _substreams(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(_SUBSTREAM_ROLES))
    return dict(zip(_SUBSTREAM_ROLES, children))


def pattern_stream(seed: int, n_codes: int) -> np.ndarray:
    """The first ``n_codes`` pattern codes of the session seeded by ``seed``.

    Frames retrigger back to back, so a session's codes are one stream drawn
    from its pattern substream. One draw yields the same codes as frame-by-frame
    draws, so the stream does not depend on the frame length.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(_substreams(seed)["pattern"])
    return generate_pattern(rng, n_codes)


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one key exchange session.

    The pattern generator steps every ``period_ns``, starting ``delay_ns``
    after its trigger (scanning that delay verifies the alignment), and
    ``roundtrip_ns`` separates the two modulation passes of one pulse.
    """

    n_bits: int = 843_000
    seed: int = 0
    mu_target: float = 0.1
    mu_convention: str = "pair"
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
        # timing first, then the detectors, then the rest: a config with
        # several faults always reports the same one
        for name in ("period_ns", "delay_ns", "roundtrip_ns"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.period_ns <= 0.0:
            raise ValidationError(f"pattern step period must be positive, got {self.period_ns} ns")
        if self.roundtrip_ns < 0.0:
            raise ValidationError(f"mirror round trip must be >= 0, got {self.roundtrip_ns} ns")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError(f"detector efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValidationError(f"dark count probability must be in [0, 1), got {self.dark_prob}")
        for name in ("mu_target", "tau_mzi_ns", "insertion_loss_db", "fiber_km", "fiber_loss_db_per_km"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.n_bits < 1:
            raise ValidationError(f"n_bits must be >= 1, got {self.n_bits}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.mu_target < 0.0:
            raise ValidationError(f"mean photon target must be >= 0, got {self.mu_target}")
        if self.mu_convention not in ("pair", "signal"):
            raise ValidationError(
                f"mu_convention must be 'pair' or 'signal', got {self.mu_convention!r}"
            )
        if self.tau_mzi_ns <= 0.0:
            raise ValidationError(f"arm delay must be positive, got {self.tau_mzi_ns} ns")
        if self.insertion_loss_db < 0.0:
            raise ValidationError(
                f"insertion loss must be >= 0 dB, got {self.insertion_loss_db}"
            )
        if self.fiber_km < 0.0:
            raise ValidationError(f"fiber length must be >= 0, got {self.fiber_km} km")
        if self.fiber_loss_db_per_km < 0.0:
            raise ValidationError(
                f"fiber loss must be >= 0 dB/km, got {self.fiber_loss_db_per_km}"
            )
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
        if self.polarization is not None:
            if len(self.polarization) != 2:
                raise ValidationError("polarization must be a (h, v) pair")
            h, v = (complex(c) for c in self.polarization)
            norm = abs(h) ** 2 + abs(v) ** 2
            if not math.isfinite(norm) or norm <= 0.0:
                raise ValidationError("polarization must be finite with positive norm")

    def first_event_ns(self) -> float:
        """Arrival time of bit 0's reference pulse at the randomizer.

        Chosen so the four modulation passes of each bit sit centered inside
        one pattern step when the trigger delay is zero; 'aligned' then means
        pattern transitions fall halfway between consecutive bits.
        """
        return 0.5 * (self.period_ns - self.tau_mzi_ns - self.roundtrip_ns)


class DetectionRecords:
    """Column-oriented store of per-bit outcomes for one session.

    Bases are stored as int8 indexes into :data:`BASES`. ``mu_d0``/``mu_d1``
    hold the pre-detection mean photon numbers at the two ports, which is
    what phase-randomization invariance is stated about.
    """

    __slots__ = ("alice_basis", "alice_bit", "bob_basis", "clicked_d0", "clicked_d1", "mu_d0", "mu_d1")

    def __init__(
        self,
        alice_basis: np.ndarray,
        alice_bit: np.ndarray,
        bob_basis: np.ndarray,
        clicked_d0: np.ndarray,
        clicked_d1: np.ndarray,
        mu_d0: np.ndarray,
        mu_d1: np.ndarray,
    ):
        cols = (alice_basis, alice_bit, bob_basis, clicked_d0, clicked_d1, mu_d0, mu_d1)
        n = len(alice_basis)
        if any(len(c) != n for c in cols):
            raise ValidationError("record columns must have equal length")
        self.alice_basis = np.asarray(alice_basis, dtype=np.int8)
        self.alice_bit = np.asarray(alice_bit, dtype=np.int8)
        self.bob_basis = np.asarray(bob_basis, dtype=np.int8)
        self.clicked_d0 = np.asarray(clicked_d0, dtype=bool)
        self.clicked_d1 = np.asarray(clicked_d1, dtype=bool)
        self.mu_d0 = np.asarray(mu_d0, dtype=np.float64)
        self.mu_d1 = np.asarray(mu_d1, dtype=np.float64)
        for col in (self.alice_basis, self.alice_bit, self.bob_basis):
            if n and col.view(np.uint8).max() > 1:
                raise ValidationError("basis and bit columns must hold only 0 and 1")

    def __len__(self) -> int:
        return len(self.alice_basis)


@dataclass(frozen=True)
class QberEstimate:
    """Sifted-key error rate with its binomial standard error."""

    qber: float
    std_error: float
    n_sifted: int
    n_errors: int


def _pass_codes(codes: np.ndarray, n: int, first_ns: float, config: SessionConfig) -> np.ndarray:
    """Code each of ``n`` bits sees on one modulation pass, where bit 0 makes
    that pass at ``first_ns`` (slot grid: see :func:`run_session`).

    Consecutive bits pass one period apart, so bit ``i`` samples slot
    ``i + shift`` for one constant ``shift``; outside the grid the code is 0.
    """
    quotient = (first_ns - config.delay_ns) / config.period_ns
    # clipping keeps a far-off (even infinite) quotient off the grid without
    # building a huge integer; every clipped shift still idles all n bits
    shift = math.floor(min(max(quotient, -n), codes.size))
    out = np.zeros(n, dtype=np.int32)
    lo, hi = max(0, -shift), min(n, codes.size - shift)
    if lo < hi:
        out[lo:hi] = codes[lo + shift : hi + shift]
    return out


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
    """
    n = config.n_bits
    streams = _substreams(config.seed)
    rng_alice = np.random.default_rng(streams["alice"])
    rng_bob = np.random.default_rng(streams["bob"])
    rng_det = np.random.default_rng(streams["detection"])

    alice_basis = rng_alice.integers(0, 2, size=n, dtype=np.int8)
    alice_bit = rng_alice.integers(0, 2, size=n, dtype=np.int8)
    bob_basis = rng_bob.integers(0, 2, size=n, dtype=np.int8)

    # One polarization state for the whole session: the fiber drifts slowly
    # compared to a frame. With no override it is drawn uniformly (Haar).
    if config.polarization is None:
        rng_pol = np.random.default_rng(streams["polarization"])
        z = rng_pol.normal(size=4)
        h0 = complex(z[0], z[1])
        v0 = complex(z[2], z[3])
    else:
        h0, v0 = (complex(c) for c in config.polarization)
    norm = math.sqrt(abs(h0) ** 2 + abs(v0) ** 2)
    h0 /= norm
    v0 /= norm

    if config.randomizer_enabled:
        n_frames = -(-n // DEFAULT_FRAME_LEN)
        codes = pattern_stream(config.seed, n_frames * DEFAULT_FRAME_LEN)
    else:
        codes = np.zeros(0, dtype=np.int32)
    t0 = config.first_event_ns()
    ref_fwd = _pass_codes(codes, n, t0, config)
    ref_ret = _pass_codes(codes, n, t0 + config.roundtrip_ns, config)
    sig_fwd = _pass_codes(codes, n, t0 + config.tau_mzi_ns, config)
    sig_ret = _pass_codes(codes, n, t0 + config.tau_mzi_ns + config.roundtrip_ns, config)

    long_arm = 10.0 ** (-config.insertion_loss_db / 20.0)
    fiber = 10.0 ** (-config.fiber_loss_db_per_km * config.fiber_km / 20.0)
    half = 1.0 / math.sqrt(2.0)
    ref_out = half * fiber  # per unit source amplitude, arriving at Alice
    sig_out = half * long_arm * fiber

    if config.mu_convention == "pair":
        att = math.sqrt(config.mu_target / (ref_out**2 + sig_out**2))
    else:
        att = math.sqrt(config.mu_target) / sig_out

    # At Bob's coupler the reference has crossed short-then-long (insertion
    # loss and basis phase on the way back), the signal long-then-short. Both
    # paths see the long arm exactly once, so one shared amplitude keeps the
    # balance exact down to the last bit.
    path_amp = half * fiber * att * fiber * long_arm

    # The mirror swaps H and V: the H component leaving Alice was V on the
    # way in and took its phase on the return pass, V on the forward pass.
    # Each detector mean is a_H (1 +- cos dH) + a_V (1 +- cos dV), where the
    # signal-minus-reference phase difference in codes is the randomizer's
    # plus Alice's coding phase minus Bob's basis phase, in quarter turns.
    a_h = abs(v0 * path_amp) ** 2
    a_v = abs(h0 * path_amp) ** 2
    # int32: 1024 * 3 overflows the int8 choice columns
    quarter_turns = (2 * alice_bit + alice_basis - bob_basis).astype(np.int32)
    coding = quarter_turns * _QUARTER_TURN_CODES
    cos_h = _COS[(sig_ret - ref_ret + coding) & (CODE_LEVELS - 1)]
    cos_v = _COS[(sig_fwd - ref_fwd + coding) & (CODE_LEVELS - 1)]
    mu_d0 = a_h * (1.0 + cos_h) + a_v * (1.0 + cos_v)
    mu_d1 = a_h * (1.0 - cos_h) + a_v * (1.0 - cos_v)

    eta = config.efficiency
    dark = config.dark_prob
    p0 = 1.0 - (1.0 - dark) * np.exp(-eta * mu_d0)
    p1 = 1.0 - (1.0 - dark) * np.exp(-eta * mu_d1)
    clicked_d0 = rng_det.random(n) < p0
    clicked_d1 = rng_det.random(n) < p1
    if config.double_click_policy == "random":
        both = clicked_d0 & clicked_d1
        keep0 = rng_det.random(n) < 0.5
        clicked_d0 = np.where(both, keep0, clicked_d0)
        clicked_d1 = np.where(both, ~keep0, clicked_d1)

    return DetectionRecords(
        alice_basis=alice_basis,
        alice_bit=alice_bit,
        bob_basis=bob_basis,
        clicked_d0=clicked_d0,
        clicked_d1=clicked_d1,
        mu_d0=mu_d0,
        mu_d1=mu_d1,
    )


def sift(records: DetectionRecords) -> np.ndarray:
    """Keep conclusive, basis-matched bits; return (alice_bit, bob_bit) pairs.

    Conclusive means exactly one detector clicked (a click on D1 decodes as
    bit 1). Double clicks survive only if the session already rewrote them
    under the 'random' policy; under 'discard' they are dropped here.
    """
    conclusive = records.clicked_d0 ^ records.clicked_d1
    keep = conclusive & (records.alice_basis == records.bob_basis)
    alice = records.alice_bit[keep]
    bob = records.clicked_d1[keep].astype(np.int8)
    return np.column_stack((alice, bob))


def estimate_qber(sifted: Union[np.ndarray, Sequence[Sequence[int]]]) -> QberEstimate:
    """Error rate of sifted pairs with binomial standard error sqrt(q*(1-q)/n)."""
    arr = np.asarray(sifted)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("sifted data must be an (n, 2) array of bit pairs")
    n = int(arr.shape[0])
    if n == 0:
        raise ValidationError("cannot estimate an error rate from zero sifted bits")
    n_errors = int(np.count_nonzero(arr[:, 0] != arr[:, 1]))
    qber = n_errors / n
    std_error = math.sqrt(qber * (1.0 - qber) / n)
    return QberEstimate(qber=qber, std_error=std_error, n_sifted=n, n_errors=n_errors)


# Everything after the bit index of a records CSV row, as one row of ASCII
# bytes per 5-bit key (alice basis, alice bit, bob basis, click d0, click d1).
_ROW_TAILS = np.frombuffer(
    "".join(
        f",{BASES[k >> 4 & 1]},{k >> 3 & 1},{BASES[k >> 2 & 1]},{k >> 1 & 1},{k & 1}\n" for k in range(32)
    ).encode(),
    dtype=np.uint8,
).reshape(32, -1)
# Rows formatted per write: bounds the text held at once to a few MB.
_CSV_BLOCK_ROWS = 65_536


def export_records_csv(records: DetectionRecords, destination: PathOrFile) -> None:
    """Write one CSV row per bit: index, bases as letters, clicks as 0/1."""
    key = records.alice_basis.astype(np.uint8) << 4
    key |= records.alice_bit.astype(np.uint8) << 3
    key |= records.bob_basis.astype(np.uint8) << 2
    key |= records.clicked_d0.astype(np.uint8) << 1
    key |= records.clicked_d1.astype(np.uint8)
    with open_ascii(destination) as write:
        write(b"bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1\n")
        start = 0
        while start < key.size:
            width = len(str(start))
            # a group stops short of the next power of ten, so its rows share one width
            stop = min(key.size, start + _CSV_BLOCK_ROWS, 10**width)
            rows = np.empty((stop - start, width + _ROW_TAILS.shape[1]), dtype=np.uint8)
            index = np.arange(start, stop)
            for col in range(width - 1, -1, -1):
                index, digit = np.divmod(index, 10)
                rows[:, col] = digit
            rows[:, :width] += ord("0")
            rows[:, width:] = _ROW_TAILS[key[start:stop]]
            write(rows)
            start = stop
