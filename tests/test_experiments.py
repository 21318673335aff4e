"""Unit tests for the delay scan, phase audit and photon-number picture."""

import cmath
import decimal
import io
import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from scipy import special, stats

from oracle import poisson_deviation

from plugplay_qkd import (
    DelayScanResult,
    DiscreteUniformPhase,
    FixedPhase,
    FockDensityMatrix,
    QberEstimate,
    SessionConfig,
    UniformPhase,
    ValidationError,
    code_to_phase,
    delay_scan,
    estimate_qber,
    export_csv,
    export_density_csv,
    fock_density_matrix,
    offdiag_norm,
    run_session,
    sift,
    uniformity_chisq,
)
from plugplay_qkd.experiments import _chi2_ppf99, _gamma_half, _gamma_q, scan_point_seed

CHI2_P99_DF255 = 310.45738821990585
# Correctly rounded 99th percentiles for df 1 and 4095: the root of
# P(df/2, x/2) = float(0.99) found with mpmath.findroot on
# mpmath.gammainc(df/2, 0, x/2, regularized=True) at 60 digits, then rounded
# once to the nearest double.
CHI2_P99_DF1 = 6.634896601021214
CHI2_P99_DF4095 = 4308.467865579965
EXP_M01 = 0.9048374180359595  # e**-0.1
RHO01_MU01 = 0.2861347153139552  # e**-0.1 * sqrt(0.1)
RHO02_MU01 = 0.06398166741645539  # e**-0.1 * 0.1 / sqrt(2)
RHO03_MU01 = 0.011681400836928636  # e**-0.1 * 0.1**1.5 / sqrt(6)


# ---------------------------------------------------------------------------
# Delay scan


def _scan_config(**overrides):
    base = dict(n_bits=20_000, seed=1234)
    base.update(overrides)
    return SessionConfig(**base)


def test_scan_point_seed_frozen_values():
    assert scan_point_seed(1234, 0) == 6882349382922872486
    assert scan_point_seed(1234, 1) == 15014303649274444028
    assert scan_point_seed(1235, 0) == 13645669612122645961


def test_single_point_scan_matches_plain_session():
    cfg = _scan_config()
    result = delay_scan(cfg, [70.0])
    point_cfg = replace(cfg, seed=scan_point_seed(cfg.seed, 0), delay_ns=70.0)
    assert result.estimates[0] == estimate_qber(sift(run_session(point_cfg)))
    assert result.delays_ns == (70.0,)


def test_scan_structure_and_prefix_stability():
    cfg = _scan_config(n_bits=5_000)
    delays = [-100.0, -50.0, 0.0, 50.0, 100.0]
    full = delay_scan(cfg, delays)
    assert len(full) == 5
    assert full.delays_ns == tuple(delays)
    assert full.qbers.shape == (5,)
    # extending the sweep must not disturb earlier points
    prefix = delay_scan(cfg, delays[:3])
    assert prefix.estimates == full.estimates[:3]


def test_scan_independent_of_worker_count():
    cfg = _scan_config(n_bits=4_000)
    delays = [-80.0, 0.0, 90.0, 160.0]
    serial = delay_scan(cfg, delays, max_workers=1)
    threaded = delay_scan(cfg, delays, max_workers=3)
    assert serial == threaded


def test_scan_validation():
    cfg = _scan_config(n_bits=100)
    with pytest.raises(ValidationError):
        delay_scan(cfg, [])
    with pytest.raises(ValidationError):
        delay_scan(cfg, [0.0, 0.0])
    with pytest.raises(ValidationError):
        delay_scan(cfg, [10.0, -10.0])
    with pytest.raises(ValidationError):
        delay_scan(cfg, [0.0, math.inf])
    with pytest.raises(ValidationError):
        delay_scan(cfg, [0.0], max_workers=0)


def test_scan_point_failure_names_the_delay():
    # blind detectors never click, so the point has nothing to sift
    cfg = _scan_config(n_bits=50, efficiency=0.0, dark_prob=0.0)
    with pytest.raises(ValidationError, match=r"scan point at 70(\.0)? ns"):
        delay_scan(cfg, [70.0])


def test_scan_result_validation():
    est = QberEstimate(0.0, 0.0, 1, 0)
    with pytest.raises(ValidationError):
        DelayScanResult(delays_ns=(0.0, 1.0), estimates=(est,))
    assert len(DelayScanResult(delays_ns=(), estimates=())) == 0


def test_reference_split_waist_rate_is_one_quarter():
    """Offsetting the trigger so only the leading pulse straddles a step
    randomizes half the interference phase. With the light split evenly
    between polarization components that costs a 25% error rate."""
    cfg = SessionConfig(
        n_bits=1_000_000,
        seed=1,
        delay_ns=70.0,
        polarization=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    )
    records = run_session(cfg)
    est = estimate_qber(sift(records))
    sigma = math.sqrt(0.25 * 0.75 / est.n_sifted)
    assert abs(est.qber - 0.25) <= 3.0 * sigma


# ---------------------------------------------------------------------------
# Phase uniformity audit


def test_chisq_zero_for_perfectly_even_sample():
    centers = (np.arange(256) + 0.5) * (2.0 * math.pi / 256.0)
    statistic, threshold = uniformity_chisq(np.repeat(centers, 10))
    assert statistic == 0.0
    assert threshold == CHI2_P99_DF255


def test_chisq_threshold_is_the_99th_percentile():
    _, threshold = uniformity_chisq(np.zeros(2560))
    assert threshold == CHI2_P99_DF255
    assert abs(stats.chi2.cdf(threshold, 255) - 0.99) < 1e-12


@pytest.mark.parametrize("df, expected", [(1, CHI2_P99_DF1), (255, CHI2_P99_DF255),
                                          (4095, CHI2_P99_DF4095)])
def test_chi2_quantile_pinned_values(df, expected):
    assert _chi2_ppf99(df) == expected


@pytest.mark.parametrize("df", [1, 2, 3, 15, 255, 1023, 4095, 65535])
def test_chi2_quantile_matches_scipy(df):
    ours = _chi2_ppf99(df)
    theirs = stats.chi2.ppf(0.99, df)
    assert abs(ours - theirs) <= 4 * math.ulp(theirs)


@pytest.mark.parametrize("a2, y", [(1, 0.3), (1, 3.3), (6, 2.0), (6, 9.0), (255, 100.0),
                                   (255, 127.0), (255, 155.0), (4095, 2154.0)])
def test_upper_gamma_both_branches_match_scipy(a2, y):
    # y < a + 1 takes the series, y >= a + 1 the continued fraction
    a = a2 / 2
    with decimal.localcontext() as ctx:
        ctx.prec = 45
        q, density = _gamma_q(Decimal(a2) / 2, Decimal(y), _gamma_half(a2), Decimal("1e-43"))
    assert math.isclose(float(q), special.gammaincc(a, y), rel_tol=1e-13)
    # scipy's pdf goes through log space and is 1.8e-12 off at a = 2047.5
    assert math.isclose(float(density), stats.gamma.pdf(y, a), rel_tol=1e-11)


def test_chisq_degenerate_sample_hits_closed_form():
    n = 2560
    statistic, threshold = uniformity_chisq(np.full(n, 1.234))
    assert statistic == n * 255.0  # all mass in one bin
    assert statistic > threshold


def test_chisq_dac_grid_bins_exactly():
    # at every power-of-two bin count each equal run of the 4096-level grid
    # must land in its own bin, with no boundary code leaking into a
    # neighbour through rounding; the grid is tiled to 10 samples per bin
    for n_bins in (2**k for k in range(1, 13)):
        codes = np.tile(np.arange(4096), -(-10 * n_bins // 4096))
        statistic, _ = uniformity_chisq(code_to_phase(codes), n_bins=n_bins)
        assert statistic == 0.0, n_bins


def test_chisq_invariant_under_whole_turn_shifts():
    rng = np.random.default_rng(99)
    codes = rng.integers(0, 256, size=4000) * 16 + 8  # bin centers
    phases = code_to_phase(codes)
    turns = 2.0 * math.pi * rng.integers(-3, 4, size=4000)
    base, _ = uniformity_chisq(phases)
    shifted, _ = uniformity_chisq(phases + turns)
    negated, _ = uniformity_chisq(phases - 2.0 * math.pi)
    assert shifted == base
    assert negated == base


def test_chisq_accepts_a_real_pattern_stream():
    rng = np.random.default_rng(20240321)
    codes = rng.integers(0, 4096, size=200_000)
    statistic, threshold = uniformity_chisq(code_to_phase(codes))
    assert statistic < threshold


def test_chisq_validation():
    with pytest.raises(ValidationError):
        uniformity_chisq(np.zeros((10, 10)))
    with pytest.raises(ValidationError):
        uniformity_chisq(np.zeros(2559))
    with pytest.raises(ValidationError):
        uniformity_chisq(np.zeros(100), n_bins=1)
    # non-finite samples would otherwise be counted in bin 0
    for bad in (math.nan, math.inf, -math.inf):
        phases = np.zeros(2560)
        phases[7] = bad
        with pytest.raises(ValidationError, match="finite"):
            uniformity_chisq(phases)


# ---------------------------------------------------------------------------
# Photon-number picture


def test_circular_moments():
    uni = UniformPhase()
    assert uni.circular_moment(0) == 1.0 + 0.0j
    assert uni.circular_moment(3) == 0.0j
    disc = DiscreteUniformPhase(4)
    np.testing.assert_array_equal(
        disc.circular_moment(np.array([-4, 0, 3, 8])),
        np.array([1.0, 1.0, 0.0, 1.0], dtype=complex),
    )
    fixed = FixedPhase(0.7)
    assert cmath.isclose(fixed.circular_moment(2), cmath.exp(1.4j), rel_tol=1e-15)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
def test_uniform_phase_gives_poissonian_diagonal(mu):
    rho = fock_density_matrix(mu, UniformPhase(), n_max=20)
    assert offdiag_norm(rho) == 0.0
    expected = stats.poisson.pmf(np.arange(21), mu)
    np.testing.assert_allclose(rho.diagonal, expected, rtol=1e-12)
    assert math.isclose(rho.trace, stats.poisson.cdf(20, mu), rel_tol=1e-12)


def test_uniform_phase_reference_entry():
    rho = fock_density_matrix(0.1, UniformPhase(), n_max=20)
    assert math.isclose(rho.entries[0, 0].real, EXP_M01, rel_tol=1e-14)


def test_fixed_phase_keeps_coherences():
    rho = fock_density_matrix(0.1, FixedPhase(0.0), n_max=20)
    assert math.isclose(rho.entries[0, 1].real, RHO01_MU01, rel_tol=1e-13)
    assert math.isclose(rho.entries[0, 2].real, RHO02_MU01, rel_tol=1e-13)
    assert math.isclose(offdiag_norm(rho), RHO01_MU01, rel_tol=1e-13)

    phi = 1.9
    spun = fock_density_matrix(0.1, FixedPhase(phi), n_max=5)
    # entry (n, m) spins as exp(i*(n-m)*phi)
    assert cmath.isclose(spun.entries[0, 1], RHO01_MU01 * cmath.exp(-1j * phi), rel_tol=1e-12)
    assert cmath.isclose(spun.entries[1, 0], RHO01_MU01 * cmath.exp(1j * phi), rel_tol=1e-12)
    np.testing.assert_allclose(spun.entries, spun.entries.conj().T, atol=1e-15)


def test_discrete_phase_keeps_every_third_coherence():
    rho = fock_density_matrix(0.1, DiscreteUniformPhase(3), n_max=6)
    ns = np.arange(7)
    survives = (ns[:, None] - ns[None, :]) % 3 == 0
    np.testing.assert_array_equal(rho.entries != 0, survives)
    assert math.isclose(abs(rho.entries[0, 3]), RHO03_MU01, rel_tol=1e-13)
    np.testing.assert_array_equal(rho.entries, rho.entries.conj().T)


def test_dac_resolution_randomization_is_complete():
    # 4096 equidistant phases dephase every coherence a 20-photon truncation
    # can express, exactly like the continuous limit
    fine = fock_density_matrix(0.1, DiscreteUniformPhase(4096), n_max=20)
    flat = fock_density_matrix(0.1, UniformPhase(), n_max=20)
    np.testing.assert_array_equal(fine.entries, flat.entries)


def test_single_phase_value_means_no_randomization():
    rho = fock_density_matrix(0.1, DiscreteUniformPhase(1), n_max=10)
    fixed = fock_density_matrix(0.1, FixedPhase(0.0), n_max=10)
    np.testing.assert_array_equal(rho.entries, fixed.entries)


def test_two_phase_values_keep_even_coherences():
    rho = fock_density_matrix(0.1, DiscreteUniformPhase(2), n_max=20)
    assert math.isclose(offdiag_norm(rho), RHO02_MU01, rel_tol=1e-13)


@pytest.mark.parametrize("mu", [0.1, 5.0, 50.0])
def test_density_matrix_equals_gammaln_form(mu):
    n_max = 60
    ns = np.arange(n_max + 1)
    amps = np.exp(-mu / 2.0 + 0.5 * (ns * math.log(mu) - special.gammaln(ns + 1.0)))
    for dist in (UniformPhase(), DiscreteUniformPhase(3), FixedPhase(0.3)):
        rho = fock_density_matrix(mu, dist, n_max=n_max)
        expected = np.outer(amps, amps) * dist.circular_moment(ns[:, None] - ns[None, :])
        # math.lgamma and gammaln each sit within an ulp or so of log(n!),
        # which reaches ~190 at n = 60; exp turns an ulp there (2.8e-14)
        # into the same relative error, so the two forms agree to 1e-13
        np.testing.assert_allclose(rho.entries, expected, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(rho.entries == 0, expected == 0)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
def test_density_diagonal_is_the_exact_poisson_pmf(mu):
    # the product recurrence stays within 9.8e-16 of the exact pmf here; a
    # log-space form (exp of lgamma sums) drifts to 1.1e-14 by n = 20
    rho = fock_density_matrix(mu, UniformPhase(), n_max=20)
    assert poisson_deviation(rho.diagonal, mu) <= 2e-15


@pytest.mark.parametrize(
    "mu, cdf",
    # Poisson cdf at 1600, summed exactly at 80 digits
    [(1400.0, 0.99999992062719213690), (1480.0, 0.99901726279206337143), (1500.0, 0.99492914164116584589)],
)
def test_density_trace_near_the_underflow_is_the_poisson_cdf(mu, cdf):
    # e^{-700} is a normal float, e^{-740} a subnormal one with about three
    # significant digits and e^{-750} zero: no recurrence may start from
    # the last two, so they keep log space (1.1e-13 off at mu 1500)
    rho = fock_density_matrix(mu, UniformPhase(), n_max=1600)
    assert math.isclose(rho.trace, cdf, rel_tol=1e-12)


def test_vacuum_density_matrix():
    for dist in (UniformPhase(), FixedPhase(1.0), DiscreteUniformPhase(5)):
        rho = fock_density_matrix(0.0, dist, n_max=4)
        assert rho.entries[0, 0] == 1.0 + 0.0j
        assert np.count_nonzero(rho.entries) == 1
        assert rho.trace == 1.0


def test_fock_validation():
    with pytest.raises(ValidationError):
        fock_density_matrix(-0.1, UniformPhase())
    with pytest.raises(ValidationError):
        fock_density_matrix(0.1, UniformPhase(), n_max=0)
    with pytest.raises(ValidationError):
        DiscreteUniformPhase(0)
    with pytest.raises(ValidationError):
        FixedPhase(math.inf)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_fock_rejects_non_finite_mu(mu):
    with pytest.raises(ValidationError):
        fock_density_matrix(mu, UniformPhase())

def test_offdiag_norm_examples():
    flat = fock_density_matrix(0.3, UniformPhase(), n_max=8)
    assert offdiag_norm(flat) == 0.0
    fixed = fock_density_matrix(0.1, FixedPhase(0.0), n_max=8)
    assert math.isclose(offdiag_norm(fixed), RHO01_MU01, rel_tol=1e-13)


# ---------------------------------------------------------------------------
# CSV export


def test_scan_csv_round_trip():
    cfg = _scan_config(n_bits=2_000)
    result = delay_scan(cfg, [-50.0, 0.0, 100.0])
    buf = io.StringIO()
    export_csv(result, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "delay_ns,qber,std_error,n_sifted,n_errors"
    assert len(lines) == 4
    for line, delay, est in zip(lines[1:], result.delays_ns, result.estimates):
        fields = line.split(",")
        assert float(fields[0]) == delay
        assert math.isclose(float(fields[1]), est.qber, rel_tol=1e-8, abs_tol=1e-8)
        assert math.isclose(float(fields[2]), est.std_error, rel_tol=1e-8, abs_tol=1e-8)
        assert int(fields[3]) == est.n_sifted
        assert int(fields[4]) == est.n_errors


def test_scan_csv_empty_result_writes_header_only():
    buf = io.StringIO()
    export_csv(DelayScanResult(delays_ns=(), estimates=()), buf)
    assert buf.getvalue() == "delay_ns,qber,std_error,n_sifted,n_errors\n"


def test_scan_csv_to_path(tmp_path):
    est = QberEstimate(qber=0.5, std_error=0.015811388300841896, n_sifted=1000, n_errors=500)
    result = DelayScanResult(delays_ns=(10.0,), estimates=(est,))
    target = tmp_path / "scan.csv"
    export_csv(result, target)
    text = target.read_text()
    assert text.splitlines()[1] == "10,0.5,0.0158113883,1000,500"


def test_density_csv_layout():
    rho = fock_density_matrix(0.1, UniformPhase(), n_max=3)
    buf = io.StringIO()
    export_density_csv(rho, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,m,real,imag"
    assert len(lines) == 1 + 16
    assert lines[1] == f"0,0,{EXP_M01:.12g},0"
    assert lines[2] == "0,1,0,0"
    parsed = [line.split(",") for line in lines[1:]]
    assert [(int(p[0]), int(p[1])) for p in parsed[:5]] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
    ]


def test_density_matrix_container():
    rho = fock_density_matrix(0.5, UniformPhase(), n_max=4)
    assert isinstance(rho, FockDensityMatrix)
    assert rho.mu == 0.5 and rho.n_max == 4
    assert rho.entries.shape == (5, 5)
    assert rho.diagonal.shape == (5,)
