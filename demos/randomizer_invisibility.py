"""
The randomizer is invisible to the legitimate receiver
======================================================

Run the same session twice, once with the global-phase randomizer driving
its stepped pattern and once with it idle, and compare what the detectors
see bit by bit.
"""

import numpy as np

from plugplay_qkd import SessionConfig, code_to_phase, estimate_qber, pattern_stream, run_session, sift

on_cfg = SessionConfig(n_bits=50_000, seed=7)
off_cfg = SessionConfig(n_bits=50_000, seed=7, randomizer_enabled=False)

on = run_session(on_cfg)
off = run_session(off_cfg)

# At zero trigger delay bit i's reference pulse leaves with the phase of
# pattern step i; an idle generator holds code 0.
phases_on = code_to_phase(pattern_stream(on_cfg.seed, on_cfg.n_bits))
phases_off = np.zeros(off_cfg.n_bits)

# The emitted global phase is wildly different...
print(f"distinct emitted phases, randomizer on:  {len(np.unique(phases_on))}")
print(f"distinct emitted phases, randomizer off: {len(np.unique(phases_off))}")

# ...but the light reaching the detectors is identical, because both
# interfering paths reflect off the same mirror within one pattern step and
# the common phase drops out of the interference.
d0 = np.abs(on.mu_d0 - off.mu_d0).max()
d1 = np.abs(on.mu_d1 - off.mu_d1).max()
print(f"largest per-bit detector-mean difference: D0 {d0:.3e}, D1 {d1:.3e}")

est_on = estimate_qber(sift(on))
est_off = estimate_qber(sift(off))
print(f"sifted error rate on:  {est_on.qber:.4f} ({est_on.n_sifted} bits)")
print(f"sifted error rate off: {est_off.qber:.4f} ({est_off.n_sifted} bits)")

# An eavesdropper without a phase reference is the one who notices: see
# density_matrices.py for what randomization does to the state she holds.
