"""Scalar reference model of the optical round trip, for the tests.

The session kernel (:func:`plugplay_qkd.protocol.run_session`) works on
whole sessions at once, on integer phase codes and a cosine table. This
module states the same physics a second way: one pulse at a time, as
complex Jones vectors ``(h, v)`` over the linear polarization basis in units
of sqrt(photons), with explicit arrival times in nanoseconds at the
randomizer. The tests compare the two bit by bit. It also holds the exact
Poisson photon-number distribution that the Fock-space picture must match.

Nothing here validates its inputs; callers pass values a valid
:class:`~plugplay_qkd.protocol.SessionConfig` allows.
"""

import cmath
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from plugplay_qkd.protocol import _substreams
from plugplay_qkd.randomizer import DEFAULT_FRAME_LEN, code_to_phase, generate_pattern


def photon_number(amp):
    h, v = amp
    return abs(h) ** 2 + abs(v) ** 2


def scaled(amp, factor):
    return (amp[0] * factor, amp[1] * factor)


def _db_to_amplitude(loss_db):
    # power loss in dB; amplitudes scale with the square root of power
    return 10.0 ** (-loss_db / 20.0)


def mzi_split(amp, t_ns, insertion_loss_db, tau_mzi_ns):
    """Asymmetric interferometer: ``((reference, t), (signal, t))``.

    Each output carries half the input power; the signal leaves via the long
    arm ``tau_mzi_ns`` later and with that arm's insertion loss.
    """
    half = 1.0 / math.sqrt(2.0)
    reference = (scaled(amp, half), t_ns)
    signal = (scaled(amp, half * _db_to_amplitude(insertion_loss_db)), t_ns + tau_mzi_ns)
    return reference, signal


def propagate_fiber(amp, length_km, loss_db_per_km):
    """Distributed fiber loss, one direction of travel."""
    return scaled(amp, _db_to_amplitude(loss_db_per_km * length_km))


def apply_phase(amp, phi_h, phi_v):
    return (amp[0] * cmath.exp(1j * phi_h), amp[1] * cmath.exp(1j * phi_v))


def faraday_swap(amp):
    """Ideal Faraday-mirror reflection: H and V exchanged."""
    return (amp[1], amp[0])


def coding_phase(basis, bit):
    """Alice's encoder phase for basis index 0 (X) or 1 (Y): a quarter turn per step."""
    return (2 * bit + basis) * (math.pi / 2.0)


def phase_at(t_ns, codes, cfg):
    """Generator phase at ``t_ns`` under the session config ``cfg``: code
    ``k`` holds on the half-open slot ``[delay + k*period, delay + (k+1)*period)``;
    off the codes it idles at 0."""
    slot = math.floor((t_ns - cfg.delay_ns) / cfg.period_ns)
    if 0 <= slot < len(codes):
        return code_to_phase(int(codes[slot]))
    return 0.0


def modulate_pi(amp, t_ns, codes, cfg):
    """Double-pass modulator in front of the Faraday mirror.

    The forward pass phases the component that is V at the modulator, the
    mirror swaps H and V, and the return pass ``roundtrip_ns`` later phases
    the other one: H and V are exchanged and each takes its own pass's phase.
    """
    phi_fwd = phase_at(t_ns, codes, cfg)
    phi_ret = phase_at(t_ns + cfg.roundtrip_ns, codes, cfg)
    return (amp[1] * cmath.exp(1j * phi_ret), amp[0] * cmath.exp(1j * phi_fwd))


def attenuate_to_mean_photon(reference, signal, mu_target):
    """One real factor on both pulses so the pair totals ``mu_target``."""
    factor = math.sqrt(mu_target / (photon_number(reference) + photon_number(signal)))
    return scaled(reference, factor), scaled(signal, factor)


def interfere(signal, reference):
    """Balanced output coupler: ``(mu_d0, mu_d1)`` at the constructive and
    destructive ports; each polarization component interferes on its own."""
    mu_d0 = 0.5 * (abs(signal[0] + reference[0]) ** 2 + abs(signal[1] + reference[1]) ** 2)
    mu_d1 = 0.5 * (abs(signal[0] - reference[0]) ** 2 + abs(signal[1] - reference[1]) ** 2)
    return mu_d0, mu_d1


def click_probability(mu_d, cfg):
    """Gated threshold detector of the session config ``cfg`` on a Poissonian
    mean of ``mu_d`` photons."""
    return 1.0 - (1.0 - cfg.dark_prob) * math.exp(-cfg.efficiency * mu_d)


def session_means(cfg):
    """Per-bit ``(mu_d0, mu_d1)`` of the session ``cfg``, one bit at a time
    through the scalar operations above.

    Alice's and Bob's choices and the polarization come from the session's
    own substreams. The pattern is drawn frame by frame, as the hardware
    retriggers, and the frames run back to back as one stepped pattern.
    """
    streams = _substreams(cfg.seed)
    rng_alice = np.random.default_rng(streams["alice"])
    rng_bob = np.random.default_rng(streams["bob"])
    n = cfg.n_bits
    alice_basis = rng_alice.integers(0, 2, size=n, dtype=np.int8)
    alice_bit = rng_alice.integers(0, 2, size=n, dtype=np.int8)
    bob_basis = rng_bob.integers(0, 2, size=n, dtype=np.int8)

    if cfg.polarization is None:
        z = np.random.default_rng(streams["polarization"]).normal(size=4)
        h0, v0 = complex(z[0], z[1]), complex(z[2], z[3])
    else:
        h0, v0 = (complex(c) for c in cfg.polarization)
    norm = math.sqrt(abs(h0) ** 2 + abs(v0) ** 2)
    source = (h0 / norm, v0 / norm)

    codes = []  # a disabled randomizer idles at zero phase on every pass
    if cfg.randomizer_enabled:
        rng_pattern = np.random.default_rng(streams["pattern"])
        n_frames = -(-n // DEFAULT_FRAME_LEN)
        frames = [generate_pattern(rng_pattern, DEFAULT_FRAME_LEN) for _ in range(n_frames)]
        codes = np.concatenate(frames)

    loss_db, tau = cfg.insertion_loss_db, cfg.tau_mzi_ns
    km, db_per_km = cfg.fiber_km, cfg.fiber_loss_db_per_km
    mus = np.empty((n, 2))
    for i in range(n):
        t_emit = cfg.first_event_ns() + i * cfg.period_ns
        (ref, t_ref), (sig, t_sig) = mzi_split(source, t_emit, loss_db, tau)
        ref = propagate_fiber(ref, km, db_per_km)
        sig = propagate_fiber(sig, km, db_per_km)
        phi_a = coding_phase(int(alice_basis[i]), int(alice_bit[i]))
        sig = apply_phase(sig, phi_a, phi_a)
        ref = modulate_pi(ref, t_ref, codes, cfg)
        sig = modulate_pi(sig, t_sig, codes, cfg)
        ref, sig = attenuate_to_mean_photon(ref, sig, cfg.mu_target)
        ref = propagate_fiber(ref, km, db_per_km)
        sig = propagate_fiber(sig, km, db_per_km)
        # the way back through Bob: the reference crosses the long arm (its
        # loss and Bob's basis phase), the signal the short arm
        phi_b = coding_phase(int(bob_basis[i]), 0)
        ref = scaled(apply_phase(ref, phi_b, phi_b), _db_to_amplitude(loss_db))
        mus[i] = interfere(sig, ref)
    return mus


def poisson_deviation(diagonal, mu):
    """Largest relative distance of ``diagonal`` from the Poisson pmf of the
    float ``mu``: exp(-mu) to 50 digits times mu**n / n! held exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        weight = (-Decimal(mu)).exp()
        worst = Decimal(0)
        for n, value in enumerate(diagonal.tolist()):
            term = Fraction(mu) ** n / math.factorial(n)
            pmf = weight * Decimal(term.numerator) / Decimal(term.denominator)
            worst = max(worst, abs(Decimal(value) / pmf - 1))
    return float(worst)
