"""
What the randomizer does to the quantum state
=============================================

The detectors cannot tell the randomizer is on, but an observer holding the
pulses without a phase reference can. In the photon-number basis a weak
coherent pulse keeps large off-diagonal coherences; randomizing its global
phase kills them and leaves a plain Poissonian mixture.
"""

import math

import numpy as np

from plugplay_qkd import (
    DiscreteUniformPhase,
    FixedPhase,
    UniformPhase,
    fock_density_matrix,
    offdiag_norm,
)

MU = 0.1  # mean photon number of the attenuated pair

for label, dist in (
    ("no randomization (fixed phase)", FixedPhase(0.0)),
    ("two phase values", DiscreteUniformPhase(2)),
    ("full 4096-level randomization", DiscreteUniformPhase(4096)),
    ("continuous randomization", UniformPhase()),
):
    rho = fock_density_matrix(MU, dist, n_max=6)
    print(f"{label:32s} largest off-diagonal = {offdiag_norm(rho):.6f}")

print()
rho = fock_density_matrix(MU, UniformPhase(), n_max=6)
poisson = [math.exp(-MU) * MU**n / math.factorial(n) for n in range(7)]
print("n    diagonal      Poisson pmf")
for n, (d, p) in enumerate(zip(np.diag(rho).real, poisson)):
    print(f"{n}    {d:.3e}    {p:.3e}")

# The first rows: the fixed-phase pulse keeps a 0.286 coherence between the
# vacuum and one-photon components; two discrete phases only suppress the
# odd-order coherences; 4096 equidistant phases are already exact for any
# truncation this deep, indistinguishable from the continuous limit. The
# surviving diagonal is the Poisson photon-number distribution, which is why
# an eavesdropper gains nothing from the pulse's absolute phase.
