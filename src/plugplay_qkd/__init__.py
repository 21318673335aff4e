"""Simulator of a bidirectional phase-coding QKD link with active global-phase randomization.

The package models the full optical round trip of a two-way ("plug & play")
BB84 system: pulse pair generation on an asymmetric interferometer, fiber
transport, phase encoding, a stepped-pattern global-phase randomizer wrapped
around a Faraday mirror, attenuation to single-photon level, and gated
threshold detection. On top of the session simulator sit the verification
experiments: the trigger-delay scan of the sifted error rate, a chi-square
uniformity audit of the emitted phases, and the photon-number density
matrices that show what randomization does to an observer without a phase
reference.
"""

from .errors import ValidationError
from .experiments import (
    DelayScanResult,
    DiscreteUniformPhase,
    FixedPhase,
    UniformPhase,
    delay_scan,
    export_csv,
    export_density_csv,
    fock_density_matrix,
    offdiag_norm,
    uniformity_chisq,
)
from .protocol import (
    DetectionRecords,
    QberEstimate,
    SessionConfig,
    detector_means,
    estimate_qber,
    export_records_csv,
    pattern_stream,
    run_session,
    sift,
)
from .randomizer import code_to_phase

__version__ = "0.1.0"

# What the command line, the demos and the acceptance suite use, plus the
# types those return. Everything else is reached through its module.
__all__ = [
    "ValidationError",
    "SessionConfig",
    "DetectionRecords",
    "QberEstimate",
    "run_session",
    "detector_means",
    "sift",
    "estimate_qber",
    "export_records_csv",
    "pattern_stream",
    "code_to_phase",
    "DelayScanResult",
    "delay_scan",
    "export_csv",
    "uniformity_chisq",
    "UniformPhase",
    "DiscreteUniformPhase",
    "FixedPhase",
    "fock_density_matrix",
    "offdiag_norm",
    "export_density_csv",
    "__version__",
]
