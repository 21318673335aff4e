"""Acceptance suite for the simulator.

Each test checks one headline capability end to end and reports a single
PASS/FAIL line (collected into the terminal summary by conftest). Seeds are
pinned so every run works through identical random draws.
"""

import math

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from oracle import apply_phase, interfere, photon_number, poisson_deviation
from plugplay_qkd import (
    DiscreteUniformPhase,
    FixedPhase,
    SessionConfig,
    UniformPhase,
    code_to_phase,
    delay_scan,
    estimate_qber,
    fock_density_matrix,
    offdiag_norm,
    run_session,
    sift,
)
from plugplay_qkd.cli import main as cli_main

ACCEPT_SEED = 16950
N_BITS = 843_000
SCAN_DELAYS = [float(d) for d in range(-200, 201, 10)]
ROUNDTRIPS = (0.0, 10.0, 20.0, 40.0)

RHO01_MU01 = 0.2861347153139552  # e**-0.1 * sqrt(0.1)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def roundtrip_scans():
    """Full trigger-delay sweeps at four mirror round-trip times."""
    scans = {}
    for rt in ROUNDTRIPS:
        config = SessionConfig(
            n_bits=N_BITS,
            seed=ACCEPT_SEED,
            roundtrip_ns=rt,
        )
        scans[rt] = delay_scan(config, SCAN_DELAYS, max_workers=4)
    return scans


def test_criterion_1_delay_scan_alignment_signature(roundtrip_scans):
    scan = roundtrip_scans[20.0]
    delays = np.array(scan.delays_ns)
    qbers = scan.qbers

    central = qbers[np.abs(delays) <= 60.0]
    central_ok = bool(np.all(central < 0.01))

    plateau = qbers[np.isin(np.abs(delays), (90.0, 100.0, 110.0))]
    plateau_ok = bool(np.all((plateau >= 0.485) & (plateau <= 0.515)))

    waist = (qbers > 0.05) & (qbers < 0.45)
    waist_ok = bool(np.any(waist & (delays < 0)) and np.any(waist & (delays > 0)))

    _report(
        1,
        "delay scan shows aligned floor, scrambled plateau and transition waists",
        central_ok and plateau_ok and waist_ok,
        f"central max {central.max():.4f}, plateau [{plateau.min():.4f}, {plateau.max():.4f}], "
        f"waist points neg/pos {int((waist & (delays < 0)).sum())}/{int((waist & (delays > 0)).sum())}",
    )


def test_criterion_2_fully_misaligned_error_rate_is_one_half():
    config = SessionConfig(
        n_bits=1_200_000,
        seed=0,
        delay_ns=100.0,
    )
    records = run_session(config)
    est = estimate_qber(sift(records))
    deviation = abs(est.qber - 0.5)
    stat_ok = deviation <= 3.0 * est.std_error

    # supporting identity: the error rate averages sin^2(delta/2) over the
    # phase-step grid, whose mean is exactly one half
    grid_mean = float(np.mean(np.sin(code_to_phase(np.arange(4096)) / 2.0) ** 2))
    grid_ok = abs(grid_mean - 0.5) < 1e-12

    _report(
        2,
        "a fully misaligned pattern step scrambles the sifted key to 50%",
        stat_ok and grid_ok,
        f"qber {est.qber:.5f} is {deviation / est.std_error:.2f} sigma from 0.5 "
        f"over {est.n_sifted} sifted bits; grid mean {grid_mean:.15f}",
    )


def test_criterion_3_randomization_invisible_at_the_detectors():
    on = run_session(SessionConfig(n_bits=10_000, seed=ACCEPT_SEED))
    off = run_session(
        SessionConfig(n_bits=10_000, seed=ACCEPT_SEED, randomizer_enabled=False)
    )
    worst = max(
        float(np.abs(on.mu_d0 - off.mu_d0).max()),
        float(np.abs(on.mu_d1 - off.mu_d1).max()),
    )
    _report(
        3,
        "toggling the randomizer leaves every per-bit detector mean unchanged",
        worst <= 1e-12,
        f"largest mean photon difference {worst:.3e} over 10000 bits",
    )


def test_criterion_4_interference_energy_and_visibility():
    rng = np.random.default_rng(404)
    worst_energy = 0.0
    worst_visibility = 0.0
    for _ in range(1000):
        z = rng.normal(size=8)
        s = (complex(z[0], z[1]), complex(z[2], z[3]))
        r = (complex(z[4], z[5]), complex(z[6], z[7]))
        mu0, mu1 = interfere(s, r)
        worst_energy = max(
            worst_energy, abs(mu0 + mu1 - (photon_number(s) + photon_number(r)))
        )

        delta = rng.uniform(0.0, 2.0 * math.pi)
        shifted = apply_phase(s, delta, delta)
        v0, v1 = interfere(shifted, s)
        worst_visibility = max(
            worst_visibility, abs(v1 / (v0 + v1) - math.sin(delta / 2.0) ** 2)
        )
    _report(
        4,
        "the output coupler conserves energy and follows the visibility law",
        worst_energy <= 1e-12 and worst_visibility <= 1e-12,
        f"worst energy violation {worst_energy:.3e}, "
        f"worst visibility violation {worst_visibility:.3e}",
    )


def test_criterion_5_photon_number_matrix_dephasing():
    worst_offdiag = 0.0
    worst_poisson = 0.0
    for mu in (0.1, 0.5, 1.0):
        rho = fock_density_matrix(mu, UniformPhase(), n_max=20)
        worst_offdiag = max(worst_offdiag, offdiag_norm(rho))
        worst_poisson = max(worst_poisson, poisson_deviation(rho.diagonal, mu))
    uniform_ok = worst_offdiag <= 1e-15 and worst_poisson <= 1e-12

    fixed = fock_density_matrix(0.1, FixedPhase(0.0), n_max=20)
    rho01_dev = abs(fixed.entries[0, 1].real / RHO01_MU01 - 1.0)
    fixed_ok = rho01_dev <= 1e-12

    fine = fock_density_matrix(0.1, DiscreteUniformPhase(4096), n_max=20)
    flat = fock_density_matrix(0.1, UniformPhase(), n_max=20)
    discrete_ok = bool(np.array_equal(fine.entries, flat.entries))

    _report(
        5,
        "phase randomization leaves a Poissonian photon-number mixture",
        uniform_ok and fixed_ok and discrete_ok,
        f"max off-diagonal {worst_offdiag:.1e}, max Poisson deviation {worst_poisson:.1e}, "
        f"fixed-phase coherence deviation {rho01_dev:.1e}, "
        f"4096-step randomization exactly diagonal: {discrete_ok}",
    )


def test_criterion_6_cli_uniformity_audit(capsys):
    accepted = cli_main(["verify-uniformity", "--codes", "1000000"])
    rejected = cli_main(["verify-uniformity", "--codes", "1000000", "--constant-code", "0"])
    capsys.readouterr()
    _report(
        6,
        "the phase audit accepts the generator stream and rejects a constant one",
        accepted == 0 and rejected == 3,
        f"exit codes {accepted} and {rejected}",
    )


def test_criterion_7_sensitivity_grows_with_mirror_roundtrip(roundtrip_scans):
    counts = []
    for rt in ROUNDTRIPS:
        qbers = roundtrip_scans[rt].qbers
        counts.append(int(((qbers > 0.05) & (qbers < 0.45)).sum()))
    zero_ok = counts[0] == 0
    monotone_ok = all(a <= b for a, b in zip(counts, counts[1:]))
    grows_ok = counts[-1] > 0
    _report(
        7,
        "partial-overlap delays multiply as the mirror round trip lengthens",
        zero_ok and monotone_ok and grows_ok,
        "intermediate-rate points per sweep "
        + ", ".join(f"{rt:g} ns: {c}" for rt, c in zip(ROUNDTRIPS, counts)),
    )
