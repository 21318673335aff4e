"""Unit tests for the scalar optics of the test oracle (``tests/oracle.py``).

The kernel-vs-oracle comparisons in ``test_protocol.py`` mean something
only if the oracle's own building blocks obey the textbook laws, which
these tests pin on single pulses.
"""

import cmath
import math

import numpy as np
import pytest

from oracle import (
    apply_phase,
    attenuate_to_mean_photon,
    click_probability,
    faraday_swap,
    interfere,
    mzi_split,
    photon_number,
    propagate_fiber,
)
from plugplay_qkd import DetectorConfig

# closed-form reference values, frozen
P_CLICK_ETA01_MU01 = 0.009950166250831893  # 1 - exp(-0.01)
FIBER_5KM_02DB = 0.7943282347242815  # 10 ** -0.1
HALF_POWER_3_0103_DB = 0.4999999950079739  # 10 ** (-3.0103 / 10)


def _random_amplitude(rng):
    re_im = rng.normal(size=4)
    return (complex(re_im[0], re_im[1]), complex(re_im[2], re_im[3]))


def test_split_lossless_is_fifty_fifty():
    (ref, t_ref), (sig, t_sig) = mzi_split((1.0, 0.0), 0.0, insertion_loss_db=0.0, tau_mzi_ns=50.0)
    assert math.isclose(photon_number(ref), 0.5, rel_tol=1e-12)
    assert math.isclose(photon_number(sig), 0.5, rel_tol=1e-12)
    assert t_sig - t_ref == 50.0


def test_split_insertion_loss_weakens_signal():
    (ref, _), (sig, _) = mzi_split((1.0, 0.0), 0.0, insertion_loss_db=3.0103, tau_mzi_ns=50.0)
    # 3.0103 dB halves the power again: 0.5 * 0.5
    assert math.isclose(photon_number(sig), 0.5 * HALF_POWER_3_0103_DB, rel_tol=1e-12)
    assert math.isclose(photon_number(sig), 0.25, rel_tol=1e-7)
    assert photon_number(sig) < photon_number(ref)


def test_split_vacuum_in_vacuum_out():
    (ref, _), (sig, _) = mzi_split((0.0, 0.0), 10.0, 3.0, 50.0)
    assert photon_number(ref) == 0.0
    assert photon_number(sig) == 0.0


def test_split_arm_delay_exact():
    for tau in (1.0, 50.0, 77.5):
        (_, t_ref), (_, t_sig) = mzi_split((0.3, 0.4j), 123.0, 3.0, tau)
        assert t_sig - t_ref == tau


def test_faraday_swap_examples():
    assert faraday_swap((1.0, 0.0)) == (0.0, 1.0)
    assert faraday_swap((0.6, 0.8j)) == (0.8j, 0.6)


def test_faraday_swap_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = _random_amplitude(rng)
        assert faraday_swap(faraday_swap(a)) == a


def test_apply_phase_pi_flips_sign():
    h, v = apply_phase((1.0, 0.0), math.pi, 0.0)
    assert abs(h - (-1.0)) < 1e-12
    assert v == 0.0


def test_apply_phase_zero_is_identity():
    a = (0.3 + 0.1j, -0.2j)
    assert apply_phase(a, 0.0, 0.0) == a


def test_apply_phase_preserves_photon_number():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = _random_amplitude(rng)
        out = apply_phase(a, 1.23, 4.56)
        assert math.isclose(photon_number(out), photon_number(a), rel_tol=1e-12)


def test_attenuate_hits_target_total():
    ref, sig = attenuate_to_mean_photon((1.0, 0.0), (1.0, 0.0), 0.1)
    assert math.isclose(photon_number(ref) + photon_number(sig), 0.1, rel_tol=1e-12)
    # amplitudes shrink by 1/sqrt(20)
    assert math.isclose(abs(ref[0]), 1.0 / math.sqrt(20.0), rel_tol=1e-12)


def test_attenuate_identity_at_current_total():
    ref, sig = (0.5, 0.0), (0.0, 0.5j)
    total = photon_number(ref) + photon_number(sig)
    out_ref, out_sig = attenuate_to_mean_photon(ref, sig, total)
    assert math.isclose(photon_number(out_ref) + photon_number(out_sig), total, rel_tol=1e-12)
    assert math.isclose(abs(out_ref[0]), 0.5, rel_tol=1e-12)


def test_attenuate_preserves_power_ratio_and_phase():
    ref = (math.sqrt(2.0), 0.0)
    sig = (1.0 * cmath.exp(0.7j), 0.0)
    out_ref, out_sig = attenuate_to_mean_photon(ref, sig, 0.09)
    ratio = photon_number(out_ref) / photon_number(out_sig)
    assert math.isclose(ratio, 2.0, rel_tol=1e-12)
    # relative phase untouched
    assert math.isclose(cmath.phase(out_sig[0] / out_ref[0]), 0.7, rel_tol=1e-12)


def test_interfere_constructive_destructive():
    amp = (math.sqrt(0.05), 0.0)
    neg = (-math.sqrt(0.05), 0.0)
    mu0, mu1 = interfere(amp, amp)
    assert math.isclose(mu0, 0.1, rel_tol=1e-12)
    assert mu1 == 0.0
    mu0, mu1 = interfere(amp, neg)
    assert mu0 == 0.0
    assert math.isclose(mu1, 0.1, rel_tol=1e-12)


def test_interfere_quadrature_splits_evenly():
    s = (math.sqrt(0.05) * cmath.exp(1j * math.pi / 2.0), 0.0)
    r = (math.sqrt(0.05), 0.0)
    mu0, mu1 = interfere(s, r)
    assert math.isclose(mu0, 0.05, rel_tol=1e-12)
    assert math.isclose(mu1, 0.05, rel_tol=1e-12)


def test_interfere_orthogonal_polarizations_do_not_interfere():
    s = (math.sqrt(0.05), 0.0)
    r = (0.0, math.sqrt(0.05))
    mu0, mu1 = interfere(s, r)
    assert math.isclose(mu0, 0.05, rel_tol=1e-12)
    assert math.isclose(mu1, 0.05, rel_tol=1e-12)


def test_interfere_energy_conservation_random_suite():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        s = _random_amplitude(rng)
        r = _random_amplitude(rng)
        mu0, mu1 = interfere(s, r)
        total = photon_number(s) + photon_number(r)
        assert math.isclose(mu0 + mu1, total, rel_tol=1e-12)


def test_interfere_global_phase_invariance():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        s = _random_amplitude(rng)
        r = _random_amplitude(rng)
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        base = interfere(s, r)
        shifted = interfere(apply_phase(s, gamma, gamma), apply_phase(r, gamma, gamma))
        assert math.isclose(base[0], shifted[0], rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(base[1], shifted[1], rel_tol=1e-12, abs_tol=1e-12)


def test_interfere_visibility_law():
    # co-polarized equal-power pulses: destructive fraction is sin^2(delta/2)
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        power = rng.uniform(0.01, 2.0)
        delta = rng.uniform(0.0, 2.0 * math.pi)
        r = (math.sqrt(power), 0.0)
        s = apply_phase(r, delta, delta)
        mu0, mu1 = interfere(s, r)
        assert math.isclose(mu1 / (mu0 + mu1), math.sin(delta / 2.0) ** 2,
                            rel_tol=1e-12, abs_tol=1e-12)


def test_click_probability_reference_values():
    off = DetectorConfig(efficiency=0.1, dark_prob=0.0)
    assert click_probability(0.0, off) == 0.0
    assert math.isclose(click_probability(0.1, off), P_CLICK_ETA01_MU01, rel_tol=1e-12)
    assert click_probability(1e9, DetectorConfig(efficiency=0.5, dark_prob=0.0)) == pytest.approx(1.0)
    dark_only = DetectorConfig(efficiency=0.1, dark_prob=1e-5)
    # 1 - (1 - d) loses a few low bits to cancellation
    assert math.isclose(click_probability(0.0, dark_only), 1e-5, rel_tol=1e-11)


def test_click_probability_monotone_in_mu():
    cfg = DetectorConfig(efficiency=0.25, dark_prob=1e-4)
    mus = np.linspace(0.0, 5.0, 101)
    probs = [click_probability(float(m), cfg) for m in mus]
    assert all(b >= a for a, b in zip(probs, probs[1:]))


def test_fiber_loss_reference_value():
    out = propagate_fiber((1.0, 0.0), 5.0, 0.2)
    assert math.isclose(photon_number(out), FIBER_5KM_02DB, rel_tol=1e-12)


def test_fiber_identity_cases():
    amp = (0.5, 0.5j)
    assert photon_number(propagate_fiber(amp, 0.0, 0.2)) == photon_number(amp)
    assert photon_number(propagate_fiber(amp, 5.0, 0.0)) == photon_number(amp)
