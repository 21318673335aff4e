"""Unit tests for the session kernel, sifting and error estimation."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import oracle
from conftest import held_bytes, peak_bytes
from plugplay_qkd import (
    DetectionRecords,
    SessionConfig,
    ValidationError,
    detector_means,
    estimate_qber,
    export_records_csv,
    run_session,
    sift,
)
from plugplay_qkd import protocol
from plugplay_qkd.cli import _scan_delays
from plugplay_qkd.experiments import (
    DiscreteUniformPhase,
    FixedPhase,
    UniformPhase,
    delay_scan,
    fock_density_matrix,
    uniformity_chisq,
)
from plugplay_qkd.protocol import BASES, _COLUMNS, _KERNEL_BLOCK, _substreams, pattern_stream
from plugplay_qkd.randomizer import CODE_LEVELS, generate_pattern

SE_HALF_1000 = 0.015811388300841896  # sqrt(0.25 / 1000)
SE_1PC_1000 = 0.003146426544510455  # sqrt(0.01 * 0.99 / 1000)


def test_basis_bit_coding_phases():
    # the BB84 encoder phases the scalar oracle applies, basis index 0 = X
    assert oracle.coding_phase(0, 0) == 0.0
    assert oracle.coding_phase(0, 1) == math.pi
    assert oracle.coding_phase(1, 0) == math.pi / 2.0
    assert oracle.coding_phase(1, 1) == 3.0 * math.pi / 2.0


def test_estimate_qber_reference_values():
    perfect = np.zeros((1000, 2), dtype=np.int8)
    est = estimate_qber(perfect)
    assert est.qber == 0.0 and est.std_error == 0.0 and est.n_sifted == 1000

    half = np.zeros((1000, 2), dtype=np.int8)
    half[:500, 1] = 1
    est = estimate_qber(half)
    assert est.qber == 0.5
    assert math.isclose(est.std_error, SE_HALF_1000, rel_tol=1e-12)

    one_percent = np.zeros((1000, 2), dtype=np.int8)
    one_percent[:10, 1] = 1
    est = estimate_qber(one_percent)
    assert est.qber == 0.01
    assert math.isclose(est.std_error, SE_1PC_1000, rel_tol=1e-12)
    assert est.n_errors == 10


def test_estimate_qber_rejects_empty_or_malformed():
    # no sifted bit is an estimate of its own, not an error
    est = estimate_qber(np.zeros((0, 2)))
    assert math.isnan(est.qber) and math.isnan(est.std_error)
    assert (est.n_sifted, est.n_errors) == (0, 0)
    with pytest.raises(ValidationError):
        estimate_qber(np.zeros(7))


def test_estimate_qber_refuses_values_that_are_not_bits():
    # each was counted: a 3 as an error (qber 0.5), a 0.5 pair as a match (qber 0)
    for pairs in ([[0, 3], [1, 1]], [[0.5, 0.5]], [[0, -1]], [[1, math.nan]]):
        with pytest.raises(ValidationError, match="only bits 0 and 1"):
            estimate_qber(pairs)
    # booleans are bits
    est = estimate_qber(np.array([[True, False], [True, True]]))
    assert est.qber == 0.5 and est.n_errors == 1


def test_sift_keeps_only_conclusive_matched_records():
    records = oracle.pack_records(
        alice_basis=[0, 0, 1, 0, 1],
        alice_bit=[0, 1, 1, 0, 0],
        bob_basis=[1, 0, 1, 0, 1],
        clicked_d0=[True, False, False, False, True],
        clicked_d1=[False, True, True, True, True],
    )
    # row 0: basis mismatch; row 3: click, matched; row 4: double click
    pairs = sift(records)
    assert pairs.tolist() == [[1, 1], [1, 1], [0, 1]]


def test_sift_excludes_no_click_records():
    records = oracle.pack_records([0], [1], [0], [False], [False])
    assert sift(records).shape == (0, 2)


def test_sift_fraction_is_binomial_half():
    rng = np.random.default_rng(314)
    n = 1_000_000
    alice_basis = rng.integers(0, 2, n, dtype=np.int8)
    bob_basis = rng.integers(0, 2, n, dtype=np.int8)
    records = oracle.pack_records(alice_basis, np.zeros(n, dtype=np.int8), bob_basis,
                                  np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
    frac = len(sift(records)) / n
    assert abs(frac - 0.5) < 5.0 * math.sqrt(0.25 / n)


def _sift_by_mask(records):
    """Reference sift: one whole-length mask of conclusive, basis-matched bits."""
    mask = (records.clicked_d0 != records.clicked_d1) & (records.alice_basis == records.bob_basis)
    return np.column_stack((records.alice_bit[mask], records.clicked_d1[mask].astype(np.int8)))


_SLICE = _KERNEL_BLOCK


# random clicks at lengths around the kernel block's edges, then whole
# columns of one kind of event; with every bit on D0 the bases match, so every
# bit sifts
@pytest.mark.parametrize(
    ("n", "clicks"),
    [(_SLICE - 1, "random"), (_SLICE + 1, "random"), (2 * _SLICE + 1, "random"), (0, "random"),
     (2 * _SLICE + 1, "d0"), (2 * _SLICE + 1, "double"), (2 * _SLICE + 1, "none")],
    ids=["slice-1", "slice+1", "2slice+1", "empty", "all-d0", "all-double", "no-click"],
)
def test_sift_matches_whole_column_reference(n, clicks):
    rng = np.random.default_rng(n)
    choices = rng.integers(0, 2, size=(3, n), dtype=np.int8)
    d0, d1 = {"random": rng.random((2, n)) < 0.3, "d0": (np.ones(n, bool), np.zeros(n, bool)),
              "double": np.ones((2, n), bool), "none": np.zeros((2, n), bool)}[clicks]
    if clicks == "d0":
        choices[2] = choices[0]
    records = oracle.pack_records(*choices, d0, d1)
    pairs, expected = sift(records), _sift_by_mask(records)
    assert pairs.shape == expected.shape and pairs.dtype == expected.dtype
    assert np.array_equal(pairs, expected)
    if clicks == "d0":
        assert len(pairs) == n and not pairs[:, 1].any()


def test_sift_memory_is_bounded():
    # sift reads only the clicked bits' flag bytes, about 0.016 B/bit here;
    # a whole-length comparison column alone would take 1 B/bit
    records = run_session(SessionConfig(n_bits=843_000, seed=42))
    peak, pairs = peak_bytes(lambda: sift(records))
    assert np.array_equal(pairs, _sift_by_mask(records))
    assert peak / len(records) < 0.3


def test_detection_records_views():
    records = oracle.pack_records([0, 1], [1, 0], [0, 1], [True, False], [False, True])
    assert len(records) == 2
    assert records.alice_basis.dtype == np.int8 and records.clicked_d0.dtype == bool
    assert [BASES[b] for b in records.bob_basis] == ["X", "Y"]
    assert records.alice_bit.tolist() == [1, 0]
    assert records.clicked_d0.tolist() == [True, False]


def test_detection_records_take_one_flags_column():
    flags = np.array([0, 31, 9, 22], dtype=np.uint8)
    records = DetectionRecords(flags)
    assert records._choices is flags and len(records) == 4
    assert records.alice_basis.tolist() == [0, 1, 1, 0] and records.clicked_d1.tolist() == [False, True, False, True]
    assert len(DetectionRecords(np.zeros(0, dtype=np.uint8))) == 0
    # sift and the export read bits 5 to 7 as clear
    for bad in (flags.astype(np.int8), flags.reshape(2, 2), flags.tolist(), np.array([0, 32], dtype=np.uint8),
                np.array([255], dtype=np.uint8)):
        with pytest.raises(ValidationError, match="^flags must be a 1-d uint8 column of bytes below 32$"):
            DetectionRecords(bad)


# each role is built alone, as the child numpy's spawn would give it, in the
# order the roles were first spawned; the golden digests rest on that order
@pytest.mark.parametrize("seed", [0, 7, 42, 123_456_789, 2**70 + 3])
def test_substreams_are_the_spawned_children(seed):
    children = np.random.SeedSequence(seed).spawn(5)
    streams = _substreams(seed)
    assert list(streams) == ["pattern", "alice", "bob", "polarization", "detection"]
    for (role, stream), child in zip(streams.items(), children):
        assert stream.spawn_key == child.spawn_key, role
        assert np.array_equal(stream.generate_state(8), child.generate_state(8)), role
        assert np.array_equal(protocol._substream(seed, role).generate_state(8), child.generate_state(8))


_2_17 = 1 << 17


def _generator_choices(streams, n):
    """The int8 choices the generators draw for an ``n``-bit session:
    Alice's basis and bit, then Bob's basis."""
    rng_alice = np.random.default_rng(streams["alice"])
    rng_bob = np.random.default_rng(streams["bob"])
    return (rng_alice.integers(0, 2, size=n, dtype=np.int8), rng_alice.integers(0, 2, size=n, dtype=np.int8),
            rng_bob.integers(0, 2, size=n, dtype=np.int8))


def _session_readers(streams, n):
    return protocol._choice_readers((streams["alice"], streams["bob"]), n)


# Alice's bit starts at uint32 word ceil(n / 4), so an n not divisible by 4
# leaves part of her basis' last word unused, and an odd word count starts
# her bit in the high half of a 64-bit word; n runs from one bit to one past
# the paper's session, on both sides of the kernel block and of 2**17 and 2**18
@pytest.mark.parametrize("seed", [0, 7, 123_456_789])
@pytest.mark.parametrize(
    "n", [1, 7, 13, 32_767, 32_769, 84_300, 100_003, _2_17 - 1, _2_17, _2_17 + 1, 2 * _2_17 - 1, 2 * _2_17,
          2 * _2_17 + 1, 843_000, 843_001])
def test_choices_are_the_generators_int8_draws(seed, n):
    streams = _substreams(seed)
    for k, (read, want) in enumerate(zip(_session_readers(streams, n), _generator_choices(streams, n))):
        got = read(n)
        assert got.dtype == np.uint8 and got.shape == (n,) and got.flags.writeable, _COLUMNS[k]
        assert np.array_equal(got >> 7, want), _COLUMNS[k]


# reads that start and end inside a word, and empty ones, carry on where the
# last read ended; Alice's bit starts at byte 4 of a word when ceil(n / 4) is
# odd (57 and 60 bits) and at a word's start when it is even (64 bits)
@pytest.mark.parametrize("n", [57, 60, 64])
def test_choice_readers_carry_across_reads(n):
    streams = _substreams(3)
    want = _generator_choices(streams, n)
    pieces = [1, 7, 0, 8, 3, 13, 0, 5, 20]
    pieces.append(n - sum(pieces))
    flags = oracle.pack_records(*want, np.zeros(n, bool), np.zeros(n, bool))._choices
    # the session's raw streams, and records' flags, which are their own source
    for readers in (_session_readers(streams, n), protocol._choice_readers(flags, n)):
        for read, col in zip(readers, want):
            got = np.concatenate([read(count) for count in pieces])
            assert np.array_equal(got >> 7, col)


def test_ideal_components_wrong_detector_exactly_zero():
    """Matched-basis bits put strictly zero mean photons on the wrong port
    with ideal hardware, for all four basis/bit combinations."""
    cfg = SessionConfig(
        n_bits=4000,
        seed=21,
        efficiency=1.0,
        dark_prob=0.0,
        polarization=(1.0, 0.0),
    )
    records = run_session(cfg)
    mu_d0, mu_d1 = detector_means(cfg)
    matched = records.alice_basis == records.bob_basis
    combos = set()
    for basis in (0, 1):
        for bit in (0, 1):
            sel = matched & (records.alice_basis == basis) & (records.alice_bit == bit)
            assert sel.any()
            combos.add((basis, bit))
            wrong = mu_d1[sel] if bit == 0 else mu_d0[sel]
            assert np.all(wrong == 0.0)
    assert len(combos) == 4
    # a basis mismatch is a quarter turn off: the light splits exactly evenly
    mismatched = ~matched
    assert mismatched.any()
    assert np.array_equal(mu_d0[mismatched], mu_d1[mismatched])
    est = estimate_qber(sift(records))
    assert est.qber == 0.0


def test_run_session_deterministic():
    cfg = SessionConfig(n_bits=5000, seed=77)
    a = run_session(cfg)
    b = run_session(cfg)
    for col in _COLUMNS:
        assert np.array_equal(getattr(a, col), getattr(b, col))
    for mu_a, mu_b in zip(detector_means(cfg), detector_means(cfg)):
        assert np.array_equal(mu_a, mu_b)


def test_records_carry_no_float_column():
    # the detector means stay in block temporaries: the records are a uint8
    # bitmap of the clicked bits and those bits' uint8 flags, and every
    # column read from them is int8 or bool
    records = run_session(SessionConfig(n_bits=1000, seed=5, delay_ns=70.0))
    assert DetectionRecords.__slots__ == ("_n", "_choices", "_clicked", "_clicks")
    assert records._clicked.dtype == np.uint8 and records._clicked.shape == (125,)
    assert records._clicks.dtype == np.uint8 and records._clicks.ndim == 1
    assert [getattr(records, col).dtype for col in _COLUMNS] == [np.int8] * 3 + [bool] * 2


def _records_digest(cfg):
    """SHA-256 of the bytes of the session's five record columns, in constructor
    order, then of its two detector-mean columns."""
    digest = hashlib.sha256()
    records = run_session(cfg)
    for name in _COLUMNS:
        digest.update(getattr(records, name).tobytes())
    for mu_d in detector_means(cfg):
        digest.update(mu_d.tobytes())
    return digest.hexdigest()


# Records of 100,003-bit sessions (a multiple of neither 8 nor the kernel
# block), pinned so any change to the draw layout or to the order of the
# float arithmetic fails here. At 0, 65 and -135 ns all four passes of a bit
# share one slot, so those sessions equal the randomizer-off one; at the
# default settings double clicks are too rare for the policy to change a record.
_IDLE_DIGESTS = {
    0: "fa25c30ba4e574e445cf185332e1a3e054f85f0e031124422eeaca202f5977bf",
    42: "300a96c5841736756376cd421f2b702eb0e83aef352e48549cc4eda9e3f725eb",
}
# randomizer on, by delay: a step falls between the V pair's passes at 70 ns,
# between both pairs' at 100 ns and between the return pair's only at 120 ns
_STRADDLED_DIGESTS = {
    70.0: {
        0: "fce573caacf731a0aab0f4490e274340a55b3e25a8b0d01e9b088c970d380184",
        42: "a3430a361b2216c6184dad0fd43263b6dcc9c8f2e03cf72296fb93d32b06c15b",
    },
    100.0: {
        0: "9526e29e2cae35c801686479ca815de56ed96803a093479894a3b4df7e418c57",
        42: "757242986a389f951edbbaaa6b35780770e715994be7338b866cbcd953522dfc",
    },
    120.0: {
        0: "55c3da7112a5df7949a2c0a4a1d412de956704161c59659ec9116b0754e4d2f7",
        42: "d08cbb8a6582ea713efb07541a6dfdff2a0b6441bc91bf5558b6b84dc4e7dd11",
    },
}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("delay", [0.0, 65.0, 70.0, 100.0, 120.0, -135.0])
def test_records_match_golden_digests(seed, delay):
    for enabled, policy in itertools.product((True, False), ("discard", "random")):
        cfg = SessionConfig(n_bits=100_003, seed=seed, delay_ns=delay,
                            randomizer_enabled=enabled, double_click_policy=policy)
        digests = _STRADDLED_DIGESTS[delay] if enabled and delay in _STRADDLED_DIGESTS else _IDLE_DIGESTS
        assert _records_digest(cfg) == digests[seed], (enabled, policy)


# One photon on half-efficient detectors: the click bound is about 0.27, so
# the kernel skips most bits, and double clicks are common enough for the
# 'random' policy's coins to shape the records. The last case's arm delay plus
# round trip is the largest float below the period, and its signal return
# pass lands exactly on the step edge at 200 ns, alone in the next slot.
_EDGE_TAU_NS = float(np.nextafter(200.0, 0.0)) - 20.0


@pytest.mark.parametrize(
    ("seed", "delay", "tau", "policy", "digest"),
    [
        (0, 100.0, 50.0, "discard", "4e2297880212c976c1e6de31d6e571bdb4f308457be9e888dcc72bf1a89818e8"),
        (0, 100.0, 50.0, "random", "99e3bd0a3e5ae3214461627b2f4709da19880851a3dfc0379c57f619a47e06c6"),
        (0, 120.0, 50.0, "discard", "ec457c265a11a17e55ad23a0bf16494fe4ae9be432fc16de40f34e9075c49352"),
        (0, 120.0, 50.0, "random", "8d89300eb236ffbc67c1d5ab074afca7f0ba8994ea12f073cc16551c1f47f9de"),
        (42, 200.0, _EDGE_TAU_NS, "random", "740223137b634f17e2a91c94c35694796b1befd99a0a542a95db8342e7146151"),
    ],
)
def test_skipping_kernel_records_match_golden_digests(seed, delay, tau, policy, digest):
    cfg = SessionConfig(n_bits=100_003, seed=seed, delay_ns=delay, tau_mzi_ns=tau, mu_target=1.0,
                        efficiency=0.5, double_click_policy=policy)
    assert _records_digest(cfg) == digest


def test_edge_session_straddles_only_its_last_pass():
    cfg = SessionConfig(n_bits=600, tau_mzi_ns=_EDGE_TAU_NS, delay_ns=200.0)
    assert cfg.tau_mzi_ns + cfg.roundtrip_ns == np.nextafter(cfg.period_ns, 0.0)
    t0 = cfg.first_event_ns()
    passes = (t0, t0 + cfg.roundtrip_ns, t0 + cfg.tau_mzi_ns, t0 + cfg.tau_mzi_ns + cfg.roundtrip_ns)
    assert passes[-1] == cfg.delay_ns
    assert [protocol._pass_shift(p, cfg.n_bits, 1008, cfg) for p in passes] == [-1, -1, -1, 0]


# A 7.3 ns period where rounding of (t - delay) / period spreads bit 0's four
# passes over three slots though they fit in one step; five photons on
# 90%-efficient detectors make clicks plentiful. Digest computed before the
# kernel read its pass codes from one idle-padded window.
_SPREAD_CFG = SessionConfig(n_bits=70_001, seed=5, mu_target=5.0, efficiency=0.9, period_ns=7.3,
                            tau_mzi_ns=5.6545130764362925, roundtrip_ns=1.6454869235637013,
                            delay_ns=-34426.799999999996)


def test_three_slot_session_matches_golden_digest():
    cfg = _SPREAD_CFG
    t0 = cfg.first_event_ns()
    passes = (t0, t0 + cfg.roundtrip_ns, t0 + cfg.tau_mzi_ns, t0 + cfg.tau_mzi_ns + cfg.roundtrip_ns)
    assert [protocol._pass_shift(p, cfg.n_bits, 70_056, cfg) for p in passes] == [4715, 4716, 4716, 4717]
    assert _records_digest(cfg) == "5216e8dae31c2e2803365e0c5b82c5b3b6d0084324a3ad3b77af44174f14f4b2"


# 20 photons on perfect detectors at a straddling delay: most bits click on
# both detectors, so the 'random' policy's coin draws shape the records
@pytest.mark.parametrize(
    ("seed", "policy", "digest"),
    [
        (0, "discard", "f2c8dcd3506e459569cc72562dcde78d4d6dd5b9333cf0764a1243af688bb990"),
        (42, "discard", "76f5764d2b2b4ac9bd19153a083c197d00b9c1a30176b30d6f9e874395d300d8"),
        (0, "random", "c5c715a4a249bbc1918b70165896ac07baf4796ae79fadc8fc288b3a7e401a2b"),
        (42, "random", "66c47be9a5b7322873bc52a23cddd4e49cc9c24266936c1ed0cdece664c82f77"),
    ],
)
def test_double_click_records_match_golden_digests(seed, policy, digest):
    cfg = SessionConfig(n_bits=100_003, seed=seed, delay_ns=70.0, mu_target=20.0,
                        efficiency=1.0, double_click_policy=policy)
    assert _records_digest(cfg) == digest


def test_random_policy_coins_match_one_whole_session_draw():
    # the records are the 'discard' policy's clicks with each double click
    # rewritten from one whole-session draw of the coins, uniforms [2n, 3n)
    # of the detection substream; at these settings some kernel blocks hold
    # a double click and others none, so a block that drew its coins out of
    # step would show
    cfg = SessionConfig(n_bits=300_001, seed=2, mu_target=0.3, double_click_policy="random")
    n = cfg.n_bits
    raw = run_session(replace(cfg, double_click_policy="discard"))
    both = raw.clicked_d0 & raw.clicked_d1
    per_block = np.add.reduceat(both, np.arange(0, n, _KERNEL_BLOCK))
    assert per_block.min() == 0 and np.count_nonzero(per_block) >= 5
    coins = np.random.default_rng(_substreams(cfg.seed)["detection"]).random(3 * n)[2 * n :] < 0.5
    records = run_session(cfg)
    for name in ("alice_basis", "alice_bit", "bob_basis"):
        assert np.array_equal(getattr(records, name), getattr(raw, name))
    assert np.array_equal(records.clicked_d0, np.where(both, coins, raw.clicked_d0))
    assert np.array_equal(records.clicked_d1, np.where(both, ~coins, raw.clicked_d1))


def test_paper_session_matches_golden_digest():
    cfg = SessionConfig(n_bits=843_000, seed=42)
    assert _records_digest(cfg) == "aa28a1cbcdb32bf37df6969396825d489ca8be8ae9e4a55c86aadd0b66df4dd9"


def test_randomizer_toggle_leaves_detector_means_unchanged():
    on = detector_means(SessionConfig(n_bits=3000, seed=5))
    off = detector_means(SessionConfig(n_bits=3000, seed=5, randomizer_enabled=False))
    for mu_on, mu_off in zip(on, off):
        assert np.abs(mu_on - mu_off).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 42])
def test_pattern_stream_is_the_per_frame_session_stream(seed):
    rng = np.random.default_rng(_substreams(seed)["pattern"])
    frames = np.concatenate([rng.integers(0, CODE_LEVELS, size=504, dtype=np.int32) for _ in range(3)])
    np.testing.assert_array_equal(pattern_stream(seed, 1000), frames[:1000])
    np.testing.assert_array_equal(pattern_stream(seed, 1512), frames)


# odd starts begin on the high uint32 half of a raw PCG64 word
@pytest.mark.parametrize("start", [0, 1, 2, 131_071, 131_072, 131_073])
@pytest.mark.parametrize("seed", [0, 7])
def test_pattern_stream_window_is_a_slice_of_the_stream(seed, start):
    for n_codes in (1, 2, 7, 131_072):
        np.testing.assert_array_equal(
            pattern_stream(seed, n_codes, start), pattern_stream(seed, start + n_codes)[start:]
        )


def test_pattern_stream_validation():
    with pytest.raises(ValidationError):
        pattern_stream(-1, 10)
    with pytest.raises(ValidationError):
        pattern_stream(1, 0)


# 65/135 and -65/-135 put one of a bit's passes exactly on a step edge
# (oracle.phase_at is the half-open slot rule); at +-1e12 every pass idles.
@pytest.mark.parametrize(
    "delay",
    [0.0, 35.0, 70.0, 100.0, 120.0, -90.0, 200.0, 65.0, 135.0, -65.0, -135.0, 1e12, -1e12],
)
def test_kernel_matches_scalar_op_composition(delay):
    cfg = SessionConfig(
        n_bits=1200,
        seed=int(abs(delay)) + 11,
        delay_ns=delay,
    )
    mu_d0, mu_d1 = detector_means(cfg)
    mus = oracle.session_means(cfg)
    assert np.allclose(mu_d0, mus[:, 0], rtol=1e-12, atol=1e-15)
    assert np.allclose(mu_d1, mus[:, 1], rtol=1e-12, atol=1e-15)
    if abs(delay) >= 1e12:
        idle_d0, idle_d1 = detector_means(replace(cfg, randomizer_enabled=False))
        assert np.array_equal(mu_d0, idle_d0)
        assert np.array_equal(mu_d1, idle_d1)


# a straddling delay gives the V pair two different slot shifts, so every
# block must take its codes from the right place on both passes
@pytest.mark.parametrize("n_bits", [_KERNEL_BLOCK - 1, _KERNEL_BLOCK, _KERNEL_BLOCK + 1])
def test_kernel_matches_scalar_across_block_edges(n_bits):
    cfg = SessionConfig(n_bits=n_bits, seed=81, delay_ns=70.0)
    mu_d0, mu_d1 = detector_means(cfg)
    mus = oracle.session_means(cfg)
    assert np.allclose(mu_d0, mus[:, 0], rtol=1e-12, atol=1e-15)
    assert np.allclose(mu_d1, mus[:, 1], rtol=1e-12, atol=1e-15)


# by delay, and the session whose passes take three slots
_BLOCK_CONFIGS = {
    str(delay): SessionConfig(n_bits=1200, seed=6, delay_ns=delay, mu_target=20.0,
                              efficiency=1.0, double_click_policy="random")
    for delay in (70.0, 200.0, -1e12)
} | {"three-slot": _SPREAD_CFG}


@pytest.mark.parametrize("name", list(_BLOCK_CONFIGS))
def test_records_do_not_depend_on_the_kernel_block(name, monkeypatch):
    # blocks of 7 bits cut every frame, pass window and grid edge differently;
    # double clicks are common, so the 'random' coins are read block by block;
    # the digest covers both run_session's records and detector_means' columns
    cfg = _BLOCK_CONFIGS[name]
    whole = _records_digest(cfg)
    monkeypatch.setattr(protocol, "_KERNEL_BLOCK", 7)
    assert _records_digest(cfg) == whole


def _session_click_bound(cfg):
    streams = _substreams(cfg.seed)
    _, peak = protocol._session_means(cfg, streams)
    return protocol._click_bound(cfg, peak)


# aligned (cos = +-1 exactly: a matched bit puts the whole ceiling on one
# detector) and straddling delays
@pytest.mark.parametrize("polarization", [(1, 0), (0, 1), (1, 1j)])
def test_click_bound_dominates_every_click_probability(polarization):
    for dark, eta, mu, delay in itertools.product(
        (0.0, 1e-5, 0.999), (0.0, 0.1, 1.0), (1e-6, 0.1, 20.0, 40.0), (0.0, 70.0)
    ):
        cfg = SessionConfig(n_bits=300, seed=7, delay_ns=delay, dark_prob=dark, efficiency=eta,
                            mu_target=mu, polarization=polarization)
        # the kernel's click law, at every bit's means
        p0, p1 = (1.0 - (1.0 - dark) * np.exp(-eta * mu_d) for mu_d in detector_means(cfg))
        assert max(p0.max(), p1.max()) <= _session_click_bound(cfg), (dark, eta, mu, delay)


@pytest.mark.parametrize("delay", [0.0, 70.0, 200.0, -1e12])
@pytest.mark.parametrize("n_bits", [1, _KERNEL_BLOCK - 1, _KERNEL_BLOCK + 1, 100_003])
def test_records_do_not_depend_on_the_click_bound(delay, n_bits, monkeypatch):
    # a bound of 1 makes every bit a candidate; at these settings the real
    # bound is about 0.27, so most bits are skipped and double clicks are
    # common enough for the 'random' coins to matter
    for enabled, policy in itertools.product((True, False), ("discard", "random")):
        cfg = SessionConfig(n_bits=n_bits, seed=6, delay_ns=delay, mu_target=1.0, efficiency=0.5,
                            randomizer_enabled=enabled, double_click_policy=policy)
        assert 0.2 < _session_click_bound(cfg) < 0.3
        skipping = _records_digest(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_click_bound", lambda config, peak: 1.0)
            assert _records_digest(cfg) == skipping, (enabled, policy)


def _peak_bytes_per_bit(fn, n_bits, **settings):
    """The peak allocation during ``fn(config)`` at ``n_bits`` bits and
    ``settings``, per bit, and the call's result."""
    fn(SessionConfig(n_bits=1, seed=42, **settings))  # the first PCG64 imports the rest of numpy.random
    peak, result = peak_bytes(lambda: fn(SessionConfig(n_bits=n_bits, seed=42, **settings)))
    return peak / n_bits, result


# each reader's read of n choices is their n raw bytes, plus at most one
# word at each end, viewed in place (4096 B covers the padding words and the
# arrays' headers): a copy would add a whole column's transient, which no
# session's bound would catch
@pytest.mark.parametrize("n", [84_300, 843_000])
def test_choices_memory_is_bounded(n):
    streams = _substreams(5)
    _session_readers(streams, 1)  # the first PCG64 imports the rest of numpy.random
    for read, want in zip(_session_readers(streams, n), _generator_choices(streams, n)):
        peak, col = peak_bytes(lambda: read(n))
        assert np.array_equal(col >> 7, want)
        assert peak < n + 4096


def test_pattern_stream_memory_is_bounded():
    # the 4 B/code of raw words the codes are shifted in place from, plus at
    # most one word: the audit draws its codes a window at a time, so its
    # bound would not catch a copy here
    n_codes = 4_000_000
    pattern_stream(3, 1)  # the first PCG64 imports the rest of numpy.random
    peak, codes = peak_bytes(lambda: pattern_stream(3, n_codes))
    assert len(codes) == n_codes
    assert peak / n_codes < 4.01


def test_session_memory_is_bounded():
    # the session holds the records it returns, about 0.136 B/bit, and one
    # block's temporaries (under 0.4 B/bit at 843,000 bits): one detection
    # column at a time, each cut to its below-bound bits before the next is drawn, and
    # the block's pattern codes; means exist only for a block's candidate
    # bits, so no float column of even block length is built for them
    per_bit, records = _peak_bytes_per_bit(run_session, 843_000)
    assert len(records) == 843_000
    assert per_bit < 1.6


# the benchmark's scan point, where one block's temporaries weigh more per
# bit, and the 'random' policy, whose coin column is drawn only after both
# detection columns are cut (two columns at once read 13.3 and 5.98 B/bit
# when the records took 5 B/bit); these bounds held for records of five
# columns, 5 B/bit
@pytest.mark.parametrize(("n_bits", "policy", "bound"), [(84_300, "discard", 9.5), (843_000, "random", 5.6)])
def test_session_memory_is_bounded_per_size_and_policy(n_bits, policy, bound):
    per_bit, records = _peak_bytes_per_bit(run_session, n_bits, double_click_policy=policy)
    assert len(records) == n_bits
    assert per_bit < bound


# the same sessions, bounded when the records kept one flags byte per bit
# (4.66 and 1.37 B/bit then; 3.81 and 0.50 with only the clicked bits' bytes)
@pytest.mark.parametrize(("n_bits", "policy", "bound"), [(84_300, "discard", 5.2), (843_000, "random", 1.6)])
def test_flag_records_session_memory_per_size_and_policy(n_bits, policy, bound):
    per_bit, records = _peak_bytes_per_bit(run_session, n_bits, double_click_policy=policy)
    assert len(records) == n_bits
    assert per_bit < bound


def test_paper_session_records_hold_what_the_seed_does_not_fix():
    # a bitmap of the clicked bits, 1/8 B/bit, and the flags byte of each of
    # the 4,336 clicked bits: the choices are re-read from the seed, so the
    # records hold about 0.136 B/bit
    run_session(SessionConfig(n_bits=1, seed=42))  # the first PCG64 imports the rest of numpy.random
    held, records = held_bytes(lambda: run_session(SessionConfig(n_bits=843_000, seed=42)))
    assert len(records._clicks) == 4_336
    assert held / len(records) < 0.15


def test_click_dense_session_memory_is_its_records_and_one_block():
    # 20 photons on perfect detectors: 100,001 of 100,003 bits click, so the
    # records keep a flags byte for nearly every bit, 1.125 B/bit, and every
    # bit is a candidate. The session holds those records and one block's
    # temporaries, which a one-block session at the same settings measures;
    # each block's clicked indexes alive into the next block would add 2.6 B/bit
    settings = dict(mu_target=20.0, efficiency=1.0)
    one_block, _ = _peak_bytes_per_bit(run_session, _KERNEL_BLOCK, **settings)
    n_bits = 100_003
    per_bit, records = _peak_bytes_per_bit(run_session, n_bits, **settings)
    assert len(records._clicks) > 0.99 * n_bits
    assert per_bit * n_bits < 1.13 * n_bits + one_block * _KERNEL_BLOCK


def test_detector_means_memory_is_bounded():
    # the 16 B/bit of means it returns and one block of temporaries, the
    # block's choice bytes and pattern codes among them
    per_bit, (mu_d0, mu_d1) = _peak_bytes_per_bit(detector_means, 843_000)
    assert len(mu_d0) == len(mu_d1) == 843_000
    assert per_bit < 21


def test_overflowing_slot_quotient_is_the_idle_modulator():
    # (first pass - delay) / period overflows to -inf: every pass is off the grid
    cfg = SessionConfig(
        n_bits=600,
        seed=3,
        period_ns=1e-300,
        delay_ns=1e300,
        roundtrip_ns=0.0,
        tau_mzi_ns=1e-301,
    )
    for mu_d, idle_d in zip(detector_means(cfg), detector_means(replace(cfg, randomizer_enabled=False))):
        assert np.array_equal(mu_d, idle_d)


def test_kernel_matches_scalar_with_randomizer_off():
    cfg = SessionConfig(n_bits=400, seed=9, randomizer_enabled=False)
    mu_d0, mu_d1 = detector_means(cfg)
    mus = oracle.session_means(cfg)
    assert np.allclose(mu_d0, mus[:, 0], rtol=1e-12, atol=1e-15)
    assert np.allclose(mu_d1, mus[:, 1], rtol=1e-12, atol=1e-15)


def test_polarization_norm_is_irrelevant():
    a = detector_means(SessionConfig(n_bits=300, seed=8, polarization=(1.0, 0.5j)))
    # the squared norms of the last two overflow and underflow to zero
    for pol in ((4.0, 2.0j), (2.0**600, 2.0**599 * 1j), (2.0**-600, 2.0**-601 * 1j)):
        b = detector_means(SessionConfig(n_bits=300, seed=8, polarization=pol))
        for mu_a, mu_b in zip(a, b):
            assert np.allclose(mu_a, mu_b, rtol=1e-12), pol
    # squared norms below the normal range are scaled too, so no digit is lost
    assert protocol._unit_pair(1e-160 + 0j, 0j) == (1 + 0j, 0j)
    b = detector_means(SessionConfig(n_bits=300, seed=8, polarization=(1e-160, 0.0)))
    for mu_a, mu_b in zip(detector_means(SessionConfig(n_bits=300, seed=8, polarization=(1.0, 0.0))), b):
        assert np.array_equal(mu_a, mu_b)
    h, _ = protocol._unit_pair(1e-155 + 0j, 1e-156j)
    assert abs(h.real - 1.0 / math.sqrt(1.01)) <= math.ulp(h.real) and h.imag == 0.0
    for pol in ((0.0, 0.0), (math.inf, 0.0), (0.0, complex(1.0, math.nan))):
        with pytest.raises(ValidationError, match="^polarization must be finite with positive norm$"):
            SessionConfig(n_bits=300, polarization=pol)


def test_frame_patterns_are_regenerated():
    # the codes of a session's second frame must not repeat the first
    codes = pattern_stream(13, 1008)
    assert not np.array_equal(codes[:504], codes[504:1008])


# per-bit detector-side energy: the source's unit pulse splits, crosses the
# fiber twice and the long arm once per interfering path, and is attenuated
# to mu_target for the pair
@pytest.mark.parametrize("delay", [0.0, 70.0, -90.0])  # aligned, straddling, misaligned
def test_per_bit_energy_closed_form(delay):
    base = SessionConfig(
        n_bits=2000,
        seed=31,
        mu_target=0.3,
        delay_ns=delay,
        insertion_loss_db=2.2,
        fiber_km=12.5,
        fiber_loss_db_per_km=0.25,
    )
    fiber = 10.0 ** (-base.fiber_loss_db_per_km * base.fiber_km / 10.0)
    long_arm = 10.0 ** (-base.insertion_loss_db / 10.0)
    total = 2.0 * fiber * long_arm * base.mu_target / (1.0 + long_arm)
    mu_d0, mu_d1 = detector_means(base)
    np.testing.assert_allclose(mu_d0 + mu_d1, total, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("delay", [0.0, 70.0])  # two-valued and spread-out means
def test_click_counts_follow_the_click_law(delay):
    cfg = SessionConfig(n_bits=100_000, seed=12, mu_target=2.0, efficiency=0.6, dark_prob=1e-3,
                        delay_ns=delay)
    records = run_session(cfg)
    for mu_d, clicked in zip(detector_means(cfg), (records.clicked_d0, records.clicked_d1)):
        p = np.array([oracle.click_probability(m, cfg) for m in mu_d.tolist()])
        sigma = math.sqrt(float((p * (1.0 - p)).sum()))
        assert abs(int(clicked.sum()) - p.sum()) <= 5.0 * sigma


def test_detector_config_validation():
    with pytest.raises(ValidationError):
        SessionConfig(efficiency=1.5)
    with pytest.raises(ValidationError):
        SessionConfig(efficiency=-0.1)
    with pytest.raises(ValidationError):
        SessionConfig(dark_prob=1.0)


def _double_click_config(policy):
    return SessionConfig(
        n_bits=4000,
        seed=17,
        mu_target=40.0,
        efficiency=1.0,
        dark_prob=0.0,
        double_click_policy=policy,
    )


def test_double_clicks_discarded_by_sift():
    records = run_session(_double_click_config("discard"))
    doubles = records.clicked_d0 & records.clicked_d1
    assert doubles.any()  # bright pulses force coincidences
    pairs = sift(records)
    conclusive = records.clicked_d0 ^ records.clicked_d1
    matched = records.alice_basis == records.bob_basis
    assert len(pairs) == int((conclusive & matched).sum())


def test_double_click_random_policy_rewrites_to_single():
    records = run_session(_double_click_config("random"))
    assert not np.any(records.clicked_d0 & records.clicked_d1)
    assert records.clicked_d0.any() and records.clicked_d1.any()


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=0)
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, seed=-1)
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, mu_target=-0.1)
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, double_click_policy="keep")
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, polarization=(0.0, 0.0))
    # "off" is truthy and used to run with the randomizer on
    for flag in ("off", 0.0, None):
        with pytest.raises(ValidationError, match="randomizer_enabled must be a bool"):
            SessionConfig(n_bits=100, randomizer_enabled=flag)
    assert not SessionConfig(n_bits=100, randomizer_enabled=np.bool_(False)).randomizer_enabled
    # used to end in complex()'s bare ValueError or TypeError, or to read "1" as 1
    for pol in ((1, "x"), (1, "1"), (1.0, None), (True, False), (1.0, np.bool_(False)), "hv"):
        with pytest.raises(ValidationError, match="polarization entries must be numbers"):
            SessionConfig(n_bits=100, polarization=pol)
    # 1.0 used to end in len()'s bare TypeError; a set has no order
    for pol in ((1.0,), (1.0, 0.0, 0.0), 1.0, {1.0, 0.0}, np.eye(2), np.float64(1.0)):
        with pytest.raises(ValidationError, match=r"polarization must be a \(h, v\) pair"):
            SessionConfig(n_bits=100, polarization=pol)
    # the source, splitter, fiber and long-arm parameters are range-checked
    for bad in ({"insertion_loss_db": -0.1}, {"fiber_km": -1.0}, {"fiber_loss_db_per_km": -0.2},
                {"tau_mzi_ns": 0.0}, {"tau_mzi_ns": -1.0}, {"polarization": (math.nan, 0.0)}):
        with pytest.raises(ValidationError):
            SessionConfig(n_bits=100, **bad)
    # all four modulation passes must fit within one pattern step
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, tau_mzi_ns=190.0)
    # timing is checked before the detectors, and both before the rest
    with pytest.raises(ValidationError, match="period_ns"):
        SessionConfig(period_ns=math.inf, efficiency=2.0, fiber_km=-1.0)
    with pytest.raises(ValidationError, match="efficiency"):
        SessionConfig(efficiency=2.0, fiber_km=-1.0, tau_mzi_ns=190.0)
    # the counts come after every real field
    with pytest.raises(ValidationError, match="^fiber_km must be >= 0"):
        SessionConfig(n_bits=0, seed=-1, fiber_km=-1.0)
    with pytest.raises(ValidationError):
        run_session(SessionConfig(n_bits=100, tau_mzi_ns=190.0))


def test_loss_budget_must_keep_the_means_in_float64_range():
    # 16,000 km overflows the attenuation to inf, which would give NaN means;
    # 16,200 km underflows a pulse amplitude to zero
    for fiber_km in (16_000.0, 16_200.0):
        with pytest.raises(ValidationError, match="loss budget"):
            SessionConfig(n_bits=100, fiber_km=fiber_km)
    # 15,000 km is lossy but representable: tiny finite means, no warning
    mu_d0, mu_d1 = detector_means(SessionConfig(n_bits=100, fiber_km=15_000.0))
    assert np.isfinite(mu_d0).all() and np.isfinite(mu_d1).all()
    assert 0.0 < (mu_d0 + mu_d1).max() < 1e-300


def test_config_rejects_more_bits_than_numpy_can_hold():
    # checked before anything is allocated: 10**20 bits used to end in a
    # numpy "maximum allowed dimension" traceback
    with pytest.raises(ValidationError, match="n_bits"):
        SessionConfig(n_bits=10**20)
    largest = np.iinfo(np.intp).max // 8  # bits in the largest float64 column
    assert SessionConfig(n_bits=largest).n_bits == largest
    with pytest.raises(ValidationError, match="n_bits"):
        SessionConfig(n_bits=largest + 1)


# Every real-valued parameter of the package: its name in messages, a call
# that puts a value in its place, and a valid value. SessionConfig's rows come
# in its check order.
_REAL_SITES = {
    **{field: (field, lambda v, field=field: SessionConfig(n_bits=100, **{field: v}), valid)
       for field, valid in (("period_ns", 200.0), ("delay_ns", 30.0), ("roundtrip_ns", 20.0),
                            ("efficiency", 0.1), ("dark_prob", 1e-5), ("mu_target", 0.1),
                            ("tau_mzi_ns", 50.0), ("insertion_loss_db", 3.0), ("fiber_km", 5.0),
                            ("fiber_loss_db_per_km", 0.2))},
    "mu": ("mu", lambda v: fock_density_matrix(v, UniformPhase(), n_max=4), 0.1),
    "phi": ("phi", lambda v: FixedPhase(v), 0.3),
    "delays_ns": ("delays_ns", lambda v: delay_scan(SessionConfig(n_bits=200), [-1.0, v]), 30.0),
    "scan_range_ns": ("scan_range_ns", lambda v: _scan_delays(v, 10.0), 20.0),
    "scan_step_ns": ("scan_step_ns", lambda v: _scan_delays(20.0, v), 10.0),
}
_NOT_REAL = {"str": "0.1", "bool": True, "numpy_bool": np.bool_(True), "None": None, "complex": 1 + 0j}


# the config rows keep the ids of the test's first version, which covered
# only eight of SessionConfig's fields
@pytest.mark.parametrize("field", list(_REAL_SITES))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(field, value):
    name, call, _ = _REAL_SITES[field]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite, got {value}"


# each used to end in a bare TypeError (a string, None, a complex) or to be
# read as 1.0 (a bool)
@pytest.mark.parametrize("kind", list(_NOT_REAL))
@pytest.mark.parametrize("site", list(_REAL_SITES))
def test_reals_refuse_what_is_not_a_real_number(site, kind):
    name, call, _ = _REAL_SITES[site]
    with pytest.raises(ValidationError, match=f"^{name} must be a real number, got "):
        call(_NOT_REAL[kind])


@pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("site", list(_REAL_SITES))
def test_reals_accept_numpy_numbers(site, kind):
    # stored as a float: the same result (and repr) as the plain float
    _, call, valid = _REAL_SITES[site]
    given = kind(valid)
    same, got = call(float(given)), call(given)
    if isinstance(same, np.ndarray):
        assert got.tobytes() == same.tobytes()
    else:
        assert repr(got) == repr(same)


_BELOW_ZERO = -5e-324  # the largest float below 0


# one past each end, and an int past float range
@pytest.mark.parametrize(
    "site, value, message",
    [("period_ns", 0, "period_ns must be > 0, got 0.0"),
     ("roundtrip_ns", _BELOW_ZERO, "roundtrip_ns must be >= 0, got -5e-324"),
     ("efficiency", _BELOW_ZERO, "efficiency must be in [0, 1], got -5e-324"),
     ("efficiency", np.nextafter(1.0, 2.0), "efficiency must be in [0, 1], got 1.0000000000000002"),
     ("dark_prob", _BELOW_ZERO, "dark_prob must be in [0, 1), got -5e-324"),
     ("dark_prob", 1.0, "dark_prob must be in [0, 1), got 1.0"),
     ("mu_target", _BELOW_ZERO, "mu_target must be >= 0, got -5e-324"),
     ("mu_target", 10**400, "mu_target must be finite, got inf"),
     ("tau_mzi_ns", 0, "tau_mzi_ns must be > 0, got 0.0"),
     ("insertion_loss_db", _BELOW_ZERO, "insertion_loss_db must be >= 0, got -5e-324"),
     ("fiber_km", _BELOW_ZERO, "fiber_km must be >= 0, got -5e-324"),
     ("fiber_loss_db_per_km", _BELOW_ZERO, "fiber_loss_db_per_km must be >= 0, got -5e-324"),
     ("mu", _BELOW_ZERO, "mu must be >= 0, got -5e-324"),
     ("mu", -(10**400), "mu must be finite, got -inf"),
     ("scan_range_ns", 0.0, "scan_range_ns must be > 0, got 0.0"),
     ("scan_step_ns", 0.0, "scan_step_ns must be > 0, got 0.0")],
    ids=["period_ns-low", "roundtrip_ns-low", "efficiency-low", "efficiency-high", "dark_prob-low",
         "dark_prob-high", "mu_target-low", "mu_target-huge_int", "tau_mzi_ns-low",
         "insertion_loss_db-low", "fiber_km-low", "fiber_loss_db_per_km-low", "mu-low",
         "mu-huge_negative_int", "scan_range_ns-low", "scan_step_ns-low"],
)
def test_reals_refuse_one_past_each_end(site, value, message):
    _, call, _ = _REAL_SITES[site]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value",
    [("roundtrip_ns", 0), ("efficiency", 0), ("efficiency", 1), ("dark_prob", 0), ("mu_target", 0),
     ("insertion_loss_db", 0), ("fiber_km", 0), ("fiber_loss_db_per_km", 0)],
)
def test_config_accepts_each_closed_end(field, value):
    stored = getattr(SessionConfig(n_bits=100, **{field: value}), field)
    assert type(stored) is float and stored == value


# Every whole-number parameter of the package: its name in messages, a call
# that puts a value in its place, and its lowest valid value.
_WHOLE_SITES = {
    "n_bits": ("n_bits", lambda v: SessionConfig(n_bits=v), 1),
    "seed": ("seed", lambda v: SessionConfig(n_bits=100, seed=v), 0),
    "pattern_stream-seed": ("seed", lambda v: pattern_stream(v, 100), 0),
    "pattern_stream-n_codes": ("n_codes", lambda v: pattern_stream(3, v), 1),
    "pattern_stream-start": ("start", lambda v: pattern_stream(3, 100, v), 0),
    "generate_pattern": ("n_codes", lambda v: generate_pattern(np.random.SeedSequence(5), v), 1),
    "generate_pattern-start": ("start", lambda v: generate_pattern(np.random.SeedSequence(5), 3, v), 0),
    "max_workers": ("max_workers", lambda v: delay_scan(SessionConfig(n_bits=200), [0.0, 1.0], max_workers=v), 1),
    "n_bins": ("n_bins", lambda v: uniformity_chisq(np.full(4096, 1), n_bins=v), 2),
    "n_values": ("n_values", lambda v: DiscreteUniformPhase(v), 1),
    "n_max": ("n_max", lambda v: fock_density_matrix(0.1, UniformPhase(), n_max=v), 1),
}
_NOT_WHOLE = {"fraction": 1.5, "float": 10.0, "bool": True, "str": "3"}
_LARGEST = np.iinfo(np.intp).max // 8  # the longest float64 array
_INT64_MAX = np.iinfo(np.int64).max


# each SessionConfig row used to pass validation and fail inside run_session
# with a numpy or SeedSequence TypeError; elsewhere such values were refused
# by a numpy TypeError, or silently truncated (n_max=2.5 gave a 4x4 matrix)
@pytest.mark.parametrize(
    "site, value",
    [("n_bits", 1000.0), ("n_bits", 1.5), ("n_bits", True), ("n_bits", np.float64(1000.0)),
     ("n_bits", "1000"), ("seed", 1.5), ("seed", 7.0), ("seed", False), ("seed", None), ("seed", "3")]
    + [(site, value) for site in list(_WHOLE_SITES)[2:] for value in _NOT_WHOLE.values()],
    ids=["n_bits-float", "n_bits-fraction", "n_bits-bool", "n_bits-numpy_float", "n_bits-str",
         "seed-fraction", "seed-float", "seed-bool", "seed-None", "seed-str"]
    + [f"{site}-{kind}" for site in list(_WHOLE_SITES)[2:] for kind in _NOT_WHOLE],
)
def test_config_rejects_non_integer_counts(site, value):
    name, call, _ = _WHOLE_SITES[site]
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("site", list(_WHOLE_SITES))
def test_whole_numbers_accept_numpy_integers(site):
    # at the lowest valid value, as a numpy integer: the same result as the int
    _, call, low = _WHOLE_SITES[site]
    same, given = call(low), call(np.int64(low))
    if isinstance(same, np.ndarray):
        assert np.array_equal(given, same)
    else:
        assert repr(given) == repr(same)


# one past each edge; nothing is allocated at an upper bound
@pytest.mark.parametrize(
    "site, value, message",
    [("n_bits", 0, f"n_bits must be in [1, {_LARGEST}], got 0"),
     ("n_bits", _LARGEST + 1, f"n_bits must be in [1, {_LARGEST}], got {_LARGEST + 1}"),
     ("seed", -1, "seed must be >= 0, got -1"),
     ("pattern_stream-seed", -1, "seed must be >= 0, got -1"),
     ("pattern_stream-n_codes", 0, f"n_codes must be in [1, {_LARGEST}], got 0"),
     ("pattern_stream-n_codes", 2**70, f"n_codes must be in [1, {_LARGEST}], got {2**70}"),
     ("pattern_stream-start", -1, "start must be >= 0, got -1"),
     ("generate_pattern", 0, f"n_codes must be in [1, {_LARGEST}], got 0"),
     ("generate_pattern", _LARGEST + 1, f"n_codes must be in [1, {_LARGEST}], got {_LARGEST + 1}"),
     ("generate_pattern-start", -1, "start must be >= 0, got -1"),
     ("max_workers", 0, "max_workers must be >= 1, got 0"),
     ("n_bins", 1, "n_bins must be >= 2, got 1"),
     ("n_values", 0, f"n_values must be in [1, {_INT64_MAX}], got 0"),
     # its circular moment takes k % n_values in int64
     ("n_values", _INT64_MAX + 1, f"n_values must be in [1, {_INT64_MAX}], got {_INT64_MAX + 1}"),
     ("n_max", 0, f"n_max must be in [1, {math.isqrt(_LARGEST // 2) - 1}], got 0"),
     # (n_max + 1)^2 complex128 entries pass numpy's limit
     ("n_max", math.isqrt(_LARGEST // 2),
      f"n_max must be in [1, {math.isqrt(_LARGEST // 2) - 1}], got {math.isqrt(_LARGEST // 2)}")],
    ids=["n_bits-low", "n_bits-high", "seed-low", "pattern_stream-seed-low", "pattern_stream-n_codes-low",
         "pattern_stream-n_codes-high", "pattern_stream-start-low", "generate_pattern-low", "generate_pattern-high",
         "generate_pattern-start-low", "max_workers-low",
         "n_bins-low", "n_values-low", "n_values-high", "n_max-low", "n_max-high"],
)
def test_whole_numbers_refuse_one_past_each_bound(site, value, message):
    _, call, _ = _WHOLE_SITES[site]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == message


def test_config_accepts_numpy_integers():
    # a numpy n_bits used to reach PCG64.advance and overflow there
    cfg = SessionConfig(n_bits=np.int64(100), seed=np.uint32(7))
    assert type(cfg.n_bits) is int and type(cfg.seed) is int
    assert _records_digest(cfg) == _records_digest(SessionConfig(n_bits=100, seed=7))


def _records_csv_by_row(records):
    """Reference export: one formatted line per bit."""
    lines = ["bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1"]
    cols = (records.alice_basis.tolist(), records.alice_bit.tolist(), records.bob_basis.tolist(),
            records.clicked_d0.tolist(), records.clicked_d1.tolist())
    for i, (a_basis, a_bit, b_basis, d0, d1) in enumerate(zip(*cols)):
        lines.append(f"{i},{BASES[a_basis]},{a_bit},{BASES[b_basis]},{int(d0)},{int(d1)}")
    return "\n".join(lines) + "\n"


# rows change index width at each power of ten, and from row 10,000 on the
# export formats aligned runs of 10,000 rows, each writing its index digits
# above the low four; 1,000,001 rows reach width 7, and 1,100,001 rows reuse
# the width-7 buffer under a new two-digit prefix
@pytest.mark.parametrize(
    "n",
    [1, 10, 1001, 65_537, 0, 9, 11, 100, 101, 100_001, 99_999, 100_000, 200_001, 1_000_001, 1_100_001,
     19_999, 20_000, 20_001, 40_001, 10_000, 10_001],
)
def test_records_csv_matches_row_by_row_reference(n, tmp_path):
    rng = np.random.default_rng(n)
    records = oracle.pack_records(*(rng.integers(0, 2, size=(5, n)).astype(bool)))
    expected = _records_csv_by_row(records).encode("ascii")
    target = tmp_path / "records.csv"
    export_records_csv(records, target)
    assert target.read_bytes() == expected


# every one of the 32 flag bytes, at lengths across a kernel block's edge,
# reads back its five columns, and sift and the export, which read the
# clicked bits' flag bytes and the flags' choices, match their references,
# which read the columns
@pytest.mark.parametrize("n", [_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
def test_all_32_outcome_bytes(n, tmp_path):
    rng = np.random.default_rng(n)
    flags = np.concatenate([np.arange(32, dtype=np.uint8), rng.integers(0, 32, n - 32, dtype=np.uint8)])
    cols = [((flags >> k) & 1).astype(np.int8 if k < 3 else bool) for k in range(5)]
    records = DetectionRecords(flags)
    for name, col in zip(_COLUMNS, cols):
        assert getattr(records, name).dtype == col.dtype and np.array_equal(getattr(records, name), col), name
    _assert_sift_and_export_match_references(records, tmp_path)


# mu 20 with ideal detectors: double clicks in both of Bob's bases, which
# 'discard' keeps in the records and the 'random' coins rewrite to one click
def test_sift_and_export_of_a_double_clicking_session(tmp_path):
    cfg = SessionConfig(n_bits=_SLICE + 1, seed=3, mu_target=20.0, efficiency=1.0)
    kept, rewritten = run_session(cfg), run_session(replace(cfg, double_click_policy="random"))
    double = kept.clicked_d0 & kept.clicked_d1
    assert set(kept.bob_basis[double].tolist()) == {0, 1}
    assert np.all(rewritten.clicked_d0[double] != rewritten.clicked_d1[double])
    for records in (kept, rewritten):
        _assert_sift_and_export_match_references(records, tmp_path)


def _assert_sift_and_export_match_references(records, tmp_path):
    pairs, expected = sift(records), _sift_by_mask(records)
    assert pairs.dtype == expected.dtype and np.array_equal(pairs, expected)
    export_records_csv(records, tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_bytes() == _records_csv_by_row(records).encode("ascii")


def test_records_csv_export_memory_is_bounded(tmp_path):
    # the paper's 843,000-bit session writes 14.7 MB of text; the export
    # formats it a run of 10,000 rows at a time into one 170 KB buffer
    records = run_session(SessionConfig(n_bits=843_000, seed=42))
    peak, _ = peak_bytes(lambda: export_records_csv(records, tmp_path / "records.csv"))
    assert (tmp_path / "records.csv").stat().st_size > 14_000_000
    assert peak < 250_000


def test_export_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    # the export truncates what was there: a shorter CSV over a longer one
    # leaves no tail of the old file
    target = tmp_path / "records.csv"
    export_records_csv(run_session(SessionConfig(n_bits=20_000, seed=2)), target)
    longer = target.stat().st_size
    records = run_session(SessionConfig(n_bits=1_000, seed=2))
    export_records_csv(records, target)
    assert target.stat().st_size < longer
    assert target.read_bytes() == _records_csv_by_row(records).encode("ascii")


def test_cosine_table_digest():
    # every golden digest that hashes detector means rests on these 4,096
    # cosines; a platform whose cos differs in a last bit fails here by name
    table = protocol._COS.astype("<f8").tobytes()
    assert hashlib.sha256(table).hexdigest() == "4a6a45d2074117833e7e046c48858a08184227abef9ddfe048571c3ba0da0424"


def test_lookup_tables_are_read_only():
    # the kernel's cosines and coding offsets and the export's digits are
    # shared by every call
    assert not protocol._COS.flags.writeable
    assert not protocol._CODING.flags.writeable
    assert not protocol._FOUR_DIGITS.flags.writeable


def test_records_csv_export(tmp_path):
    records = run_session(SessionConfig(n_bits=8, seed=2))
    target = tmp_path / "records.csv"
    export_records_csv(records, target)
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1"
    assert len(lines) == 9
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[1] in ("X", "Y") and fields[3] in ("X", "Y")
    assert fields[2] in ("0", "1")
    assert fields[4] in ("0", "1") and fields[5] in ("0", "1")
