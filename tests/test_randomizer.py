"""Unit tests for the pattern generator and its timing, and for the test
oracle's slot rule and double-pass modulator that the kernel is checked
against."""

import cmath
import math

import numpy as np
import pytest

from oracle import apply_phase, faraday_swap, interfere, modulate_pi, phase_at, photon_number
from plugplay_qkd import SessionConfig, ValidationError, code_to_phase
from plugplay_qkd.randomizer import CODE_LEVELS, generate_pattern

CHI2_P999_DF255 = 330.51974363400586  # 0.999 quantile of chi-square, 255 dof


def test_generate_pattern_length_and_range():
    codes = generate_pattern(np.random.default_rng(1), 504)
    assert codes.shape == (504,) and codes.dtype == np.int32
    assert codes.min() >= 0
    assert codes.max() < CODE_LEVELS


def test_generate_pattern_deterministic():
    a = generate_pattern(np.random.default_rng(7), 504)
    b = generate_pattern(np.random.default_rng(7), 504)
    c = generate_pattern(np.random.default_rng(8), 504)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 16950])
@pytest.mark.parametrize("frame_len", [1, 7, 504])
def test_single_draw_is_the_per_frame_stream(seed, frame_len):
    """A session draws its k frames in one call; the uniformity audit draws
    them frame by frame. Both must be the same code stream."""
    k = 9
    whole = generate_pattern(np.random.default_rng(seed), k * frame_len)
    rng = np.random.default_rng(seed)
    frames = np.concatenate([generate_pattern(rng, frame_len) for _ in range(k)])
    assert np.array_equal(whole, frames)


def test_generate_pattern_rejects_empty_frame():
    with pytest.raises(ValidationError):
        generate_pattern(np.random.default_rng(0), 0)


def test_generate_pattern_uniformity_chisq():
    # 1e6 codes, 256 equal bins; statistic concentrates near 255 and must stay
    # under the 0.999 quantile for this pinned seed
    rng = np.random.default_rng(20240321)
    codes = np.concatenate([generate_pattern(rng, 504) for _ in range(1985)])[:1_000_000]
    counts = np.bincount(codes // 16, minlength=256)
    expected = codes.size / 256
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert 150.0 < statistic < CHI2_P999_DF255


def test_code_to_phase_reference_points():
    assert code_to_phase(0) == 0.0
    assert code_to_phase(2048) == math.pi
    assert code_to_phase(1024) == math.pi / 2.0


def test_code_to_phase_affine_and_monotone():
    phases = code_to_phase(np.arange(CODE_LEVELS))
    gaps = np.diff(phases)
    assert np.all(gaps > 0)
    step = 2.0 * math.pi / CODE_LEVELS
    assert np.allclose(gaps, step, rtol=0, atol=1e-15)
    assert gaps.max() <= step + 1e-15
    assert phases[-1] < 2.0 * math.pi


def test_code_to_phase_validates_range():
    with pytest.raises(ValidationError):
        code_to_phase(-1)
    with pytest.raises(ValidationError):
        code_to_phase(CODE_LEVELS)
    with pytest.raises(ValidationError):
        code_to_phase(np.array([0, 5000]))
    with pytest.raises(ValidationError):
        code_to_phase(2048.0)  # non-integer


def test_phase_at_slot_boundaries():
    pattern = np.array([100, 200, 300])
    cfg = SessionConfig(period_ns=200.0, delay_ns=40.0)
    assert phase_at(40.0, pattern, cfg) == code_to_phase(100)
    assert phase_at(240.0, pattern, cfg) == code_to_phase(200)
    assert phase_at(39.0, pattern, cfg) == 0.0  # pre-trigger hold
    assert phase_at(40.0 + 3 * 200.0, pattern, cfg) == 0.0  # past the end


def test_phase_at_piecewise_constant():
    rng = np.random.default_rng(5)
    pattern = generate_pattern(rng, 8)
    cfg = SessionConfig(period_ns=200.0, delay_ns=-35.0)
    for slot in range(8):
        start = -35.0 + slot * 200.0
        expected = code_to_phase(int(pattern[slot]))
        for offset in (0.0, 1e-6, 100.0, 199.999999):
            assert phase_at(start + offset, pattern, cfg) == expected


def test_phase_at_translation_by_one_period():
    pattern = generate_pattern(np.random.default_rng(6), 16)
    base = SessionConfig(period_ns=200.0, delay_ns=10.0)
    shifted = SessionConfig(period_ns=200.0, delay_ns=210.0)
    for t in np.linspace(-300.0, 3600.0, 131):
        assert phase_at(float(t) + 200.0, pattern, shifted) == phase_at(float(t), pattern, base)


def test_modulate_common_phase_equals_swap_plus_phase():
    """Whenever both passes sample the same slot the modulator reduces to a
    polarization swap plus one common phase. Exhaustive over transition
    placements on a small frame."""
    pattern = np.array([111, 2222, 3333])
    rt = 20.0
    amp = (0.6, 0.8j)
    for delay in np.arange(-250.0, 650.0, 7.0):
        cfg = SessionConfig(period_ns=200.0, delay_ns=float(delay), roundtrip_ns=rt)
        for t in np.arange(0.0, 600.0, 13.0):
            phi_fwd = phase_at(float(t), pattern, cfg)
            phi_ret = phase_at(float(t) + rt, pattern, cfg)
            if phi_fwd != phi_ret:
                continue  # transition inside the window, not the common case
            out = modulate_pi(amp, float(t), pattern, cfg)
            ref = faraday_swap(apply_phase(amp, phi_fwd, phi_fwd))
            assert out == ref
            assert math.isclose(photon_number(out), photon_number(amp), rel_tol=1e-12)


def test_modulate_pure_h_takes_forward_phase_then_swaps():
    pattern = np.array([1024, 0])  # code 1024 -> pi/2
    cfg = SessionConfig(period_ns=200.0, delay_ns=0.0, roundtrip_ns=20.0)
    h, v = modulate_pi((1.0, 0.0), 50.0, pattern, cfg)
    assert h == 0.0
    assert abs(v - cmath.exp(1j * math.pi / 2.0)) < 1e-12


def test_modulate_split_window_visibility_oracle():
    """A transition between the two passes degrades interference by exactly
    the power fraction of the mismatched component: wrong-port fraction is
    f * sin^2(delta/2)."""
    rng = np.random.default_rng(90)
    cfg = SessionConfig(period_ns=200.0, delay_ns=0.0, roundtrip_ns=20.0)
    for _ in range(200):
        code_a, code_b = (int(c) for c in rng.integers(0, CODE_LEVELS, size=2))
        pattern = np.array([code_a, code_b])
        z = rng.normal(size=4)
        norm = math.sqrt((z**2).sum())
        amp = (complex(z[0], z[1]) / norm, complex(z[2], z[3]) / norm)
        # reference: both passes inside slot 0; signal: passes straddle slots
        ref = modulate_pi(amp, 100.0, pattern, cfg)
        sig = modulate_pi(amp, 190.0, pattern, cfg)
        mu0, mu1 = interfere(sig, ref)
        delta = code_to_phase(code_b) - code_to_phase(code_a)
        f_mismatch = abs(amp[1]) ** 2  # swapped onto H, phased on the return pass
        expected = f_mismatch * math.sin(delta / 2.0) ** 2
        assert math.isclose(mu1 / (mu0 + mu1), expected, rel_tol=1e-11, abs_tol=1e-12)


def test_timing_validation():
    # the generator's timing lives in the session config, checked first
    with pytest.raises(ValidationError, match="pattern step period"):
        SessionConfig(period_ns=0.0)
    with pytest.raises(ValidationError, match="pattern step period"):
        SessionConfig(period_ns=-200.0)
    with pytest.raises(ValidationError, match="mirror round trip must be >= 0"):
        SessionConfig(roundtrip_ns=-1.0)
    with pytest.raises(ValidationError, match="delay_ns"):
        SessionConfig(delay_ns=math.inf)
