"""
Auditing the emitted phases
===========================

A phase randomizer is only as good as its driving pattern. Histogram a
million generator codes against the uniform distribution on [0, 2*pi) and
let a chi-square test judge them, then do the same for two broken drivers.
"""

import numpy as np

from plugplay_qkd import code_to_phase, pattern_stream, uniformity_chisq

# the first million codes the generator feeds the modulator in session 42
phases = code_to_phase(pattern_stream(42, 1_000_000))

statistic, threshold = uniformity_chisq(phases, n_bins=256)
print(f"healthy generator:  chi2 = {statistic:9.1f}  (99% threshold {threshold:.1f})"
      f"  -> {'reject' if statistic > threshold else 'consistent with uniform'}")

# A stuck DAC emits one code forever. The statistic saturates at
# n * (bins - 1), about as non-uniform as a sample can get.
stuck = code_to_phase(np.full(phases.size, 1734))
statistic, _ = uniformity_chisq(stuck, n_bins=256)
print(f"stuck at one code:  chi2 = {statistic:9.1f}  -> reject")

# A subtler failure: the generator only reaches half the range.
rng2 = np.random.default_rng(1)
half_range = code_to_phase(rng2.integers(0, 2048, size=phases.size))
statistic, _ = uniformity_chisq(half_range, n_bins=256)
print(f"half-range driver:  chi2 = {statistic:9.1f}  -> reject")

# The same audit is wired into the command line:
#   plugplay-qkd verify-uniformity --codes 1000000
# exits 0 when the stream passes and 3 when it is rejected.
