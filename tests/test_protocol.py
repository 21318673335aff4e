"""Unit tests for the session kernel, sifting and error estimation."""

import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracle
from plugplay_qkd import (
    DetectionRecords,
    SessionConfig,
    ValidationError,
    estimate_qber,
    export_records_csv,
    run_session,
    sift,
)
from plugplay_qkd.protocol import BASES, _CSV_BLOCK_ROWS, _substreams, pattern_stream
from plugplay_qkd.randomizer import generate_pattern

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
    with pytest.raises(ValidationError):
        estimate_qber(np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        estimate_qber(np.zeros(7))


def _records(alice_basis, alice_bit, bob_basis, d0, d1):
    n = len(alice_basis)
    return DetectionRecords(
        alice_basis=np.array(alice_basis, dtype=np.int8),
        alice_bit=np.array(alice_bit, dtype=np.int8),
        bob_basis=np.array(bob_basis, dtype=np.int8),
        clicked_d0=np.array(d0, dtype=bool),
        clicked_d1=np.array(d1, dtype=bool),
        mu_d0=np.zeros(n),
        mu_d1=np.zeros(n),
    )


def test_sift_keeps_only_conclusive_matched_records():
    records = _records(
        alice_basis=[0, 0, 1, 0, 1],
        alice_bit=[0, 1, 1, 0, 0],
        bob_basis=[1, 0, 1, 0, 1],
        d0=[True, False, False, False, True],
        d1=[False, True, True, True, True],
    )
    # row 0: basis mismatch; row 3: click, matched; row 4: double click
    pairs = sift(records)
    assert pairs.tolist() == [[1, 1], [1, 1], [0, 1]]


def test_sift_excludes_no_click_records():
    records = _records([0], [1], [0], [False], [False])
    assert sift(records).shape == (0, 2)


def test_sift_fraction_is_binomial_half():
    rng = np.random.default_rng(314)
    n = 1_000_000
    alice_basis = rng.integers(0, 2, n, dtype=np.int8)
    bob_basis = rng.integers(0, 2, n, dtype=np.int8)
    records = _records(alice_basis, np.zeros(n, dtype=np.int8), bob_basis,
                       np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
    frac = len(sift(records)) / n
    assert abs(frac - 0.5) < 5.0 * math.sqrt(0.25 / n)


def test_detection_records_views():
    records = _records([0, 1], [1, 0], [0, 1], [True, False], [False, True])
    assert len(records) == 2
    assert records.alice_basis.dtype == np.int8 and records.clicked_d0.dtype == bool
    assert [BASES[b] for b in records.bob_basis] == ["X", "Y"]
    assert records.alice_bit.tolist() == [1, 0]
    assert records.clicked_d0.tolist() == [True, False]
    with pytest.raises(ValidationError):
        _records([0, 1], [1, 0], [0], [True, False], [False, True])


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("value", [2, -1])
def test_detection_records_reject_non_binary_choices(column, value):
    cols = [[0, 1], [1, 0], [0, 1], [True, False], [False, True]]
    cols[column][1] = value
    with pytest.raises(ValidationError):
        _records(*cols)


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
    matched = records.alice_basis == records.bob_basis
    combos = set()
    for basis in (0, 1):
        for bit in (0, 1):
            sel = matched & (records.alice_basis == basis) & (records.alice_bit == bit)
            assert sel.any()
            combos.add((basis, bit))
            wrong = records.mu_d1[sel] if bit == 0 else records.mu_d0[sel]
            assert np.all(wrong == 0.0)
    assert len(combos) == 4
    # a basis mismatch is a quarter turn off: the light splits exactly evenly
    mismatched = ~matched
    assert mismatched.any()
    assert np.array_equal(records.mu_d0[mismatched], records.mu_d1[mismatched])
    est = estimate_qber(sift(records))
    assert est.qber == 0.0


def test_run_session_deterministic():
    cfg = SessionConfig(n_bits=5000, seed=77)
    a = run_session(cfg)
    b = run_session(cfg)
    for col in ("alice_basis", "alice_bit", "bob_basis", "clicked_d0", "clicked_d1",
                "mu_d0", "mu_d1"):
        assert np.array_equal(getattr(a, col), getattr(b, col))


def test_randomizer_toggle_leaves_detector_means_unchanged():
    on = run_session(SessionConfig(n_bits=3000, seed=5))
    off = run_session(SessionConfig(n_bits=3000, seed=5, randomizer_enabled=False))
    assert np.abs(on.mu_d0 - off.mu_d0).max() <= 1e-12
    assert np.abs(on.mu_d1 - off.mu_d1).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 42])
def test_pattern_stream_is_the_per_frame_session_stream(seed):
    rng = np.random.default_rng(_substreams(seed)["pattern"])
    frames = np.concatenate([generate_pattern(rng, 504) for _ in range(3)])
    np.testing.assert_array_equal(pattern_stream(seed, 1000), frames[:1000])
    np.testing.assert_array_equal(pattern_stream(seed, 1512), frames)


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
    records = run_session(cfg)
    mus = oracle.session_means(cfg)
    assert np.allclose(records.mu_d0, mus[:, 0], rtol=1e-12, atol=1e-15)
    assert np.allclose(records.mu_d1, mus[:, 1], rtol=1e-12, atol=1e-15)
    if abs(delay) >= 1e12:
        idle = run_session(replace(cfg, randomizer_enabled=False))
        assert np.array_equal(records.mu_d0, idle.mu_d0)
        assert np.array_equal(records.mu_d1, idle.mu_d1)


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
    records = run_session(cfg)
    idle = run_session(replace(cfg, randomizer_enabled=False))
    assert np.array_equal(records.mu_d0, idle.mu_d0)
    assert np.array_equal(records.mu_d1, idle.mu_d1)


def test_kernel_matches_scalar_with_randomizer_off():
    cfg = SessionConfig(n_bits=400, seed=9, randomizer_enabled=False)
    records = run_session(cfg)
    mus = oracle.session_means(cfg)
    assert np.allclose(records.mu_d0, mus[:, 0], rtol=1e-12, atol=1e-15)
    assert np.allclose(records.mu_d1, mus[:, 1], rtol=1e-12, atol=1e-15)


def test_signal_mu_convention_scales_totals():
    pair_cfg = SessionConfig(n_bits=500, seed=4, polarization=(1.0, 0.0))
    sig_cfg = replace(pair_cfg, mu_convention="signal")
    pair_rec = run_session(pair_cfg)
    sig_rec = run_session(sig_cfg)
    pair_total = (pair_rec.mu_d0 + pair_rec.mu_d1).mean()
    sig_total = (sig_rec.mu_d0 + sig_rec.mu_d1).mean()
    # signal-pulse normalization emits (1 + 10^(loss/10)) more total light
    expected_ratio = 1.0 + 10.0 ** (pair_cfg.insertion_loss_db / 10.0)
    assert math.isclose(sig_total / pair_total, expected_ratio, rel_tol=1e-12)


def test_polarization_norm_is_irrelevant():
    a = run_session(SessionConfig(n_bits=300, seed=8, polarization=(1.0, 0.5j)))
    b = run_session(SessionConfig(n_bits=300, seed=8, polarization=(4.0, 2.0j)))
    assert np.allclose(a.mu_d0, b.mu_d0, rtol=1e-12)
    assert np.allclose(a.mu_d1, b.mu_d1, rtol=1e-12)


def test_frame_patterns_are_regenerated():
    # the codes of a session's second frame must not repeat the first
    codes = pattern_stream(13, 1008)
    assert not np.array_equal(codes[:504], codes[504:1008])


# per-bit detector-side energy: the source's unit pulse splits, crosses the
# fiber twice and the long arm once per interfering path, and is attenuated
# to mu_target either for the pair or for the signal alone
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
    expected = {
        "pair": 2.0 * fiber * long_arm * base.mu_target / (1.0 + long_arm),
        "signal": 2.0 * fiber * base.mu_target,
    }
    for convention, total in expected.items():
        records = run_session(replace(base, mu_convention=convention))
        np.testing.assert_allclose(records.mu_d0 + records.mu_d1, total, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("delay", [0.0, 70.0])  # two-valued and spread-out means
def test_click_counts_follow_the_click_law(delay):
    cfg = SessionConfig(n_bits=100_000, seed=12, mu_target=2.0, efficiency=0.6, dark_prob=1e-3,
                        delay_ns=delay)
    records = run_session(cfg)
    for mu_d, clicked in ((records.mu_d0, records.clicked_d0), (records.mu_d1, records.clicked_d1)):
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
        SessionConfig(n_bits=100, mu_convention="both")
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, double_click_policy="keep")
    with pytest.raises(ValidationError):
        SessionConfig(n_bits=100, polarization=(0.0, 0.0))
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
    with pytest.raises(ValidationError):
        run_session(SessionConfig(n_bits=100, tau_mzi_ns=190.0))


@pytest.mark.parametrize(
    "field",
    ["mu_target", "tau_mzi_ns", "insertion_loss_db", "fiber_km", "fiber_loss_db_per_km",
     "period_ns", "delay_ns", "roundtrip_ns"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ValidationError, match=field):
        SessionConfig(n_bits=100, **{field: value})


def _records_csv_by_row(records):
    """Reference export: one formatted line per bit."""
    lines = ["bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1"]
    for i in range(len(records)):
        lines.append(
            f"{i},{BASES[records.alice_basis[i]]},{records.alice_bit[i]},"
            f"{BASES[records.bob_basis[i]]},{int(records.clicked_d0[i])},{int(records.clicked_d1[i])}"
        )
    return "\n".join(lines) + "\n"


# rows change index width at each power of ten; at 100,001 rows the last
# change (row 100,000) falls inside the second 65,536-row block
@pytest.mark.parametrize("n", [1, 10, 1001, _CSV_BLOCK_ROWS + 1, 0, 9, 11, 100, 101, 100_001])
def test_records_csv_matches_row_by_row_reference(n, tmp_path):
    rng = np.random.default_rng(n)
    records = _records(*(rng.integers(0, 2, size=(5, n)).astype(bool)))
    expected = _records_csv_by_row(records).encode("ascii")
    buf = io.StringIO()
    export_records_csv(records, buf)
    assert buf.getvalue().encode("ascii") == expected
    target = tmp_path / "records.csv"
    export_records_csv(records, target)
    assert target.read_bytes() == expected


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
def test_records_csv_to_a_text_handle(encoding):
    # the rows land after text the caller wrote first, in the handle's encoding
    records = _records(*(np.random.default_rng(3).integers(0, 2, size=(5, 1001)).astype(bool)))
    raw = io.BytesIO()
    fh = io.TextIOWrapper(raw, encoding=encoding)
    fh.write("# note\n")
    export_records_csv(records, fh)
    fh.flush()
    assert raw.getvalue().decode(encoding) == "# note\n" + _records_csv_by_row(records)


def test_records_csv_export_memory_is_bounded(tmp_path):
    # the paper's 843,000-bit session writes 14.7 MB of text; the export
    # formats it a block at a time, so its own allocations stay a few MB
    records = run_session(SessionConfig(n_bits=843_000, seed=42))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        export_records_csv(records, tmp_path / "records.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (tmp_path / "records.csv").stat().st_size > 14_000_000
    assert peak < 6_000_000


def test_records_csv_export():
    records = run_session(SessionConfig(n_bits=8, seed=2))
    buf = io.StringIO()
    export_records_csv(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1"
    assert len(lines) == 9
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[1] in ("X", "Y") and fields[3] in ("X", "Y")
    assert fields[2] in ("0", "1")
    assert fields[4] in ("0", "1") and fields[5] in ("0", "1")
