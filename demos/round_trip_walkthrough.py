"""
One bit, step by step
=====================

Follow a few bits of a short session through the optical round trip and
watch the photon numbers. The stages come from the session configuration,
the randomizer phases from the session's pattern stream, and the detector
means from the records that run_session returns.
"""

import math

from plugplay_qkd import SessionConfig, code_to_phase, pattern_stream, run_session

BASES = "XY"

# Eight bits with the source fixed to H polarization.
config = SessionConfig(n_bits=8, seed=3, polarization=(1.0, 0.0))
records = run_session(config)
# At zero trigger delay bit i's reference pulse makes its forward pass
# through the randomizer in pattern step i, so it takes code i of the stream.
randomizer_phases = code_to_phase(pattern_stream(config.seed, config.n_bits))

# Bob fires a one-photon pulse into his unbalanced interferometer. The short
# arm gives the leading "reference", the long arm (3 dB lossier, 50 ns later)
# gives the trailing "signal".
long_arm = 10.0 ** (-config.insertion_loss_db / 10.0)
fiber = 10.0 ** (-config.fiber_loss_db_per_km * config.fiber_km / 10.0)
t_ref = config.first_event_ns()
print(f"after the splitter:  reference {0.5:.4f} ph at {t_ref:g} ns, "
      f"signal {0.5 * long_arm:.4f} ph at {t_ref + config.tau_mzi_ns:g} ns")

# 5 km of fiber to Alice, 0.2 dB/km.
print(f"arriving at Alice:   pair total {0.5 * (1.0 + long_arm) * fiber:.4f} ph")

# Alice encodes her bit on the signal pulse only: 0 or pi in X, pi/2 or
# 3pi/2 in Y. Her Faraday mirror reflects both pulses with H and V
# exchanged, and the randomizer in front of it adds one pattern-step phase
# to both, since at zero trigger delay both reflect within the same step.
# The pair leaves attenuated to the target mean photon number.
print(f"leaving Alice:       pair total {config.mu_target:.4f} ph")

# Back through the same fiber, then through Bob's interferometer the other
# way around: the reference now takes the long arm (loss + his basis phase),
# the signal the short arm. After that both have crossed long+short once.
print()
print("bit  Alice  phase    Bob  randomizer  mu(D0)     mu(D1)     click probs")
for i in range(len(records)):
    basis, bit = int(records.alice_basis[i]), int(records.alice_bit[i])
    coding_phase = (2 * bit + basis) * math.pi / 2.0
    mu_d0, mu_d1 = float(records.mu_d0[i]), float(records.mu_d1[i])
    p0 = 1.0 - (1.0 - config.dark_prob) * math.exp(-config.efficiency * mu_d0)
    p1 = 1.0 - (1.0 - config.dark_prob) * math.exp(-config.efficiency * mu_d1)
    print(f"{i:3d}  {BASES[basis]}{bit}     {coding_phase:.4f}   {BASES[records.bob_basis[i]]}    "
          f"{randomizer_phases[i]:.4f}      {mu_d0:.3e}  {mu_d1:.3e}  {p0:.2e} / {p1:.2e}")

# Matched basis: everything lands on the port that decodes Alice's bit (D1
# for bit 1) and the wrong port holds exactly zero, whatever phase the
# randomizer added. Mismatched basis: an even split, which sifting throws
# away.
