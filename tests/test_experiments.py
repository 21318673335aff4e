"""Unit tests for the delay scan, phase audit and photon-number picture."""

import cmath
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from oracle import poisson_deviation, reference_chisq

from plugplay_qkd import (
    DelayScanResult,
    DiscreteUniformPhase,
    FixedPhase,
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
    pattern_stream,
    run_session,
    sift,
    uniformity_chisq,
)
from plugplay_qkd import experiments, protocol
from plugplay_qkd.experiments import scan_point_seed

CHI2_P99_DF255 = 310.45738821990585
# Correctly rounded 99th percentiles for df 1, 63 and 4095: the root of
# P(df/2, x/2) = float(0.99) found with mpmath.findroot on
# mpmath.gammainc(df/2, 0, x/2, regularized=True) at 60 digits, then rounded
# once to the nearest double.
CHI2_P99_DF1 = 6.634896601021214
CHI2_P99_DF63 = 92.01002361413198
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


def _record_pool_sizes(monkeypatch) -> list:
    """Replace the scan's thread pool with one that records its size and maps
    serially, so no thread is started however large the size."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    return sizes


def _usable_cpus() -> int:
    """The CPUs this process may run on, read independently of the package."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_usable_cpus(monkeypatch, cpus):
    """Pin the process to ``cpus`` CPUs of a 1024-CPU machine; ``None``
    removes the affinity mask and makes the machine's CPU count unknown."""
    if cpus is None:
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1024)


def test_scan_pool_never_exceeds_the_cpus(monkeypatch):
    # the pool starts a thread per submitted point up to its size, so an
    # uncapped 10**6 would start one thread per point
    cfg = _scan_config(n_bits=50)
    delays = [10.0 * k for k in range(_usable_cpus() + 2)]
    serial = delay_scan(cfg, delays)
    sizes = _record_pool_sizes(monkeypatch)
    assert delay_scan(cfg, delays, max_workers=10**6) == serial
    assert sizes == [_usable_cpus()]


@pytest.mark.parametrize("cpus, n_points, asked, size", [
    (4, 9, 10**6, 4),   # the CPUs it may run on cap it, not the machine's
    (64, 3, 10**6, 3),  # the points cap it
    (64, 9, 2, 2),      # the request stands
    (None, 5, 10**6, 1),  # an unknown CPU count allows one
])
def test_scan_pool_size(cpus, n_points, asked, size, monkeypatch):
    _set_usable_cpus(monkeypatch, cpus)
    sizes = _record_pool_sizes(monkeypatch)
    delay_scan(_scan_config(n_bits=50), [10.0 * k for k in range(n_points)], max_workers=asked)
    assert sizes == [size]


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
    # a number, a string or a 2-d array is not a delay list
    for delays in (1.0, "12", b"12", np.zeros((2, 1))):
        with pytest.raises(ValidationError, match="^delays_ns must be a sequence of delays, got "):
            delay_scan(cfg, delays)


def test_scan_reports_an_empty_point_as_itself(tmp_path):
    # blind detectors never click, so no point has anything to sift
    cfg = _scan_config(n_bits=50, efficiency=0.0, dark_prob=0.0)
    result = delay_scan(cfg, [0.0, 70.0])
    for est in result.estimates:
        assert math.isnan(est.qber) and math.isnan(est.std_error)
        assert (est.n_sifted, est.n_errors) == (0, 0)
    target = tmp_path / "scan.csv"
    export_csv(result, target)
    assert target.read_text().splitlines()[1:] == ["0,nan,nan,0,0", "70,nan,nan,0,0"]
    # the point's estimate is the estimator's own
    point_cfg = replace(cfg, seed=scan_point_seed(cfg.seed, 1), delay_ns=70.0)
    est = estimate_qber(sift(run_session(point_cfg)))
    assert math.isnan(est.qber) and math.isnan(est.std_error)
    assert (est.n_sifted, est.n_errors) == (0, 0)


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


def test_paper_session_qber_is_below_one_percent_at_99_percent_confidence():
    # the CLI's default session; the one-sided 99% Clopper-Pearson upper
    # bound on its error rate reads 0.00745
    est = estimate_qber(sift(run_session(SessionConfig(seed=42))))
    assert (est.n_sifted, est.n_errors) == (2144, 7)
    assert stats.beta.ppf(0.99, est.n_errors + 1, est.n_sifted - est.n_errors) < 0.01


def test_drawn_polarization_is_haar():
    # a Haar-random state puts |h0|^2 uniform on [0, 1] (the Bloch sphere's
    # z is 2|h0|^2 - 1, uniform by Archimedes); p reads 0.84
    h_share = [abs(protocol._polarization(SessionConfig(n_bits=1, seed=seed), protocol._substreams(seed))[0]) ** 2
               for seed in range(2000)]
    assert stats.kstest(h_share, "uniform").pvalue >= 1e-3


# ---------------------------------------------------------------------------
# Phase uniformity audit


def _one_code(n, code=803):
    # a stuck generator: n draws of one code
    counts = np.zeros(4096, dtype=np.int64)
    counts[code] = n
    return counts


def test_chisq_zero_for_perfectly_even_sample():
    # ten draws of each bin's middle code
    counts = np.zeros(4096, dtype=np.int64)
    counts[8::16] = 10
    statistic, threshold = uniformity_chisq(counts)
    assert statistic == 0.0
    assert threshold == CHI2_P99_DF255


def test_chisq_threshold_is_the_99th_percentile():
    _, threshold = uniformity_chisq(_one_code(2560))
    assert threshold == CHI2_P99_DF255
    assert abs(stats.chi2.cdf(threshold, 255) - 0.99) < 1e-12


def _threshold(df):
    # the threshold uniformity_chisq reports at df + 1 bins
    return uniformity_chisq(np.full(4096, 10), n_bins=df + 1)[1]


# scipy's own chi2.ppf is 11 ulps off at df 63, so that value is pinned here
# and not compared with scipy below
@pytest.mark.parametrize("df, expected", [(1, CHI2_P99_DF1), (63, CHI2_P99_DF63),
                                          (255, CHI2_P99_DF255), (4095, CHI2_P99_DF4095)])
def test_chi2_quantile_pinned_values(df, expected):
    assert _threshold(df) == expected


@pytest.mark.parametrize("df", [1, 3, 7, 15, 31, 127, 255, 511, 1023, 2047, 4095])
def test_chi2_quantile_matches_scipy(df):
    ours = _threshold(df)
    theirs = stats.chi2.ppf(0.99, df)
    assert abs(ours - theirs) <= 4 * math.ulp(theirs)


def test_chisq_degenerate_sample_hits_closed_form():
    n = 2560
    statistic, threshold = uniformity_chisq(_one_code(n))
    assert statistic == n * 255.0  # all mass in one bin
    assert statistic > threshold


def test_chisq_dac_grid_bins_exactly():
    # at every power-of-two bin count each bin is an equal run of the grid, so
    # an even tally scores 0.0, from ten draws a bin on average up
    for n_bins in (2**k for k in range(1, 13)):
        for per_code in (-(-10 * n_bins // 4096), 1000):
            assert uniformity_chisq(np.full(4096, per_code), n_bins=n_bins)[0] == 0.0, n_bins
    # why no other count is taken: 96 bins hold 42 or 43 grid codes each, so
    # an even tally of 1000 draws per code would score 500.0, far past the
    # threshold
    with pytest.raises(ValidationError, match="^n_bins must divide the 4096 DAC codes evenly"):
        uniformity_chisq(np.full(4096, 1000), n_bins=96)


@pytest.fixture(scope="module")
def generator_counts():
    return np.bincount(pattern_stream(42, 10**6), minlength=4096)


# each count leaves the 4096-code grid in unequal shares, so the package's own
# generator would fail (at 96 bins it scored 216.54 against 129.97)
@pytest.mark.parametrize("n_bins", [3, 26, 96, 100, 1000, 4097, 8192])
def test_chisq_refuses_bins_that_do_not_split_the_dac_grid(n_bins, generator_counts):
    message = (f"^n_bins must divide the 4096 DAC codes evenly "
               rf"\(a power of two up to 4096\), got {n_bins}$")
    with pytest.raises(ValidationError, match=message):
        uniformity_chisq(generator_counts, n_bins=n_bins)
    with pytest.raises(ValidationError, match=message):
        uniformity_chisq(np.full(4096, 1000), n_bins=n_bins)


def test_chisq_accepts_a_real_pattern_stream():
    rng = np.random.default_rng(20240321)
    codes = rng.integers(0, 4096, size=200_000)
    statistic, threshold = uniformity_chisq(np.bincount(codes, minlength=4096))
    assert statistic < threshold


def test_chisq_validation():
    with pytest.raises(ValidationError, match="need at least 2560 samples for 256 bins, got 2559"):
        uniformity_chisq(_one_code(2559))
    with pytest.raises(ValidationError, match="n_bins must be >= 2"):
        uniformity_chisq(_one_code(100), n_bins=1)
    # a sample of phases is not a tally, and a NaN count is no count; the
    # counts are checked ahead of the bin count
    for sample in (code_to_phase(np.arange(4096)), np.full(4096, math.nan)):
        with pytest.raises(ValidationError, match="^code counts must be integers, got dtype float64$"):
            uniformity_chisq(sample, n_bins=1)
    with pytest.raises(ValidationError, match=r"^need one count per DAC code \(4096\), got shape \(0,\)$"):
        uniformity_chisq(np.array([], dtype=int), n_bins=1)


def _audit_samples(n):
    # code streams: uniform over the grid; confined to its lower half; and
    # each code the first or last of a run of 2**k codes, the edges of the
    # bins at every width
    rng = np.random.default_rng(n)
    base = rng.integers(0, 4096, size=n)
    low = (1 << rng.integers(0, 12, size=n)) - 1
    edges = np.where(rng.random(n) < 0.5, base & ~low, base | low)
    return {"uniform": base, "half_range": rng.integers(0, 2048, size=n), "edges": edges}


@pytest.mark.parametrize("n_bins", [2, 32, 256, 1024, 4096])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocked_chisq_matches_the_unblocked_formula(n_bins, offset):
    # the package sums the tally over runs of codes; the reference bins each
    # drawn code on its own
    n = (1 << 16) + offset
    for name, codes in _audit_samples(n).items():
        counts = np.bincount(codes, minlength=4096)
        assert uniformity_chisq(counts, n_bins=n_bins)[0] == reference_chisq(codes, n_bins), name


@pytest.mark.parametrize("n_bins", [2, 32, 256, 1024, 4096])
def test_counted_chisq_is_the_chisq_of_the_repeated_sample(n_bins):
    # about a third of the counts are zero, so some codes, the first and last
    # among them, may carry no weight at all
    rng = np.random.default_rng(n_bins)
    counts = rng.integers(0, 60, size=4096) * (rng.random(4096) < 0.7)
    statistic = uniformity_chisq(counts, n_bins=n_bins)
    assert statistic[0] == reference_chisq(np.repeat(np.arange(4096), counts), n_bins)
    # any integer dtype holding the counts gives the same result
    for dtype in (np.uint8, np.int16, np.uint64):
        assert uniformity_chisq(counts.astype(dtype), n_bins=n_bins) == statistic, dtype


def test_counted_chisq_keeps_totals_past_float_precision_exact():
    # one count past 2**53 beside a count of one: float weights would lose the one
    counts = np.zeros(4096, dtype=np.int64)
    counts[0], counts[2048] = 2**53, 1
    n = 2**53 + 1
    expected = n / 2
    want = float((2**53 - expected) ** 2 / expected + (1 - expected) ** 2 / expected)
    assert uniformity_chisq(counts, n_bins=2)[0] == want
    assert uniformity_chisq(_one_code(n, code=0), n_bins=2)[0] == float(n)


@pytest.mark.parametrize(
    "counts, message",
    [(np.full(4096, -1), "^code counts must be >= 0$"),
     (np.r_[np.ones(4095, dtype=int), -1], "^code counts must be >= 0$"),
     (np.ones(4096), "^code counts must be integers, got dtype float64$"),
     (np.ones(4096, dtype=bool), "^code counts must be integers, got dtype bool$"),
     (["1"] * 4096, "^code counts must be integers, got dtype <U1$"),
     (np.ones((4096, 1), dtype=int), r"^need one count per DAC code \(4096\), got shape \(4096, 1\)$"),
     (np.ones(4095, dtype=int), r"^need one count per DAC code \(4096\), got shape \(4095,\)$"),
     (5, r"^need one count per DAC code \(4096\), got shape \(\)$"),
     (np.zeros(4096, dtype=int), "^need at least 2560 samples for 256 bins, got 0$"),
     (np.r_[np.ones(2559, dtype=int), np.zeros(1537, dtype=int)],
      "^need at least 2560 samples for 256 bins, got 2559$"),
     (np.full(4096, 2**62, dtype=np.uint64), r"^code counts must total less than 2\*\*62$"),
     (np.full(4096, 2**63 - 1), r"^code counts must total less than 2\*\*62$"),
     (_one_code(2**62), r"^code counts must total less than 2\*\*62$")],
    ids=["negative", "one-negative", "float", "bool", "str", "2-d", "short", "scalar", "all-zero",
         "undersampled", "uint64-past-int64", "total-past-int64", "total-at-the-bound"],
)
def test_counted_chisq_validation(counts, message):
    with pytest.raises(ValidationError, match=message):
        uniformity_chisq(counts)


# ---------------------------------------------------------------------------
# Photon-number picture


def test_circular_moments():
    uni = UniformPhase()
    assert repr(uni) == "UniformPhase()"
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
    np.testing.assert_allclose(np.diag(rho).real, expected, rtol=1e-12)
    assert math.isclose(np.trace(rho).real, stats.poisson.cdf(20, mu), rel_tol=1e-12)


def test_uniform_phase_reference_entry():
    rho = fock_density_matrix(0.1, UniformPhase(), n_max=20)
    assert math.isclose(rho[0, 0].real, EXP_M01, rel_tol=1e-14)


def test_fixed_phase_keeps_coherences():
    rho = fock_density_matrix(0.1, FixedPhase(0.0), n_max=20)
    assert math.isclose(rho[0, 1].real, RHO01_MU01, rel_tol=1e-13)
    assert math.isclose(rho[0, 2].real, RHO02_MU01, rel_tol=1e-13)
    assert math.isclose(offdiag_norm(rho), RHO01_MU01, rel_tol=1e-13)

    phi = 1.9
    spun = fock_density_matrix(0.1, FixedPhase(phi), n_max=5)
    # entry (n, m) spins as exp(i*(n-m)*phi)
    assert cmath.isclose(spun[0, 1], RHO01_MU01 * cmath.exp(-1j * phi), rel_tol=1e-12)
    assert cmath.isclose(spun[1, 0], RHO01_MU01 * cmath.exp(1j * phi), rel_tol=1e-12)
    np.testing.assert_allclose(spun, spun.conj().T, atol=1e-15)


@pytest.mark.parametrize("phi", [0.0, -0.0, 0.3, 0.5, -2.0, math.pi, -math.pi])
def test_fixed_phase_within_half_a_turn_is_used_as_given(phi):
    # the reduction onto [-pi, pi] is the identity there, so the moments are
    # exp(i k phi) of the given phase, bit for bit
    k = np.arange(-20, 21)
    np.testing.assert_array_equal(FixedPhase(phi).circular_moment(k), np.exp(1j * k.astype(np.float64) * phi))


@pytest.mark.parametrize("phi", [0.3, -2.0, 3.0, 100.0])
def test_fixed_phase_is_periodic(phi):
    np.testing.assert_allclose(fock_density_matrix(0.1, FixedPhase(phi + 2.0 * math.pi)),
                               fock_density_matrix(0.1, FixedPhase(phi)), rtol=0, atol=1e-12)


def test_discrete_phase_keeps_every_third_coherence():
    rho = fock_density_matrix(0.1, DiscreteUniformPhase(3), n_max=6)
    ns = np.arange(7)
    survives = (ns[:, None] - ns[None, :]) % 3 == 0
    np.testing.assert_array_equal(rho != 0, survives)
    assert math.isclose(abs(rho[0, 3]), RHO03_MU01, rel_tol=1e-13)
    np.testing.assert_array_equal(rho, rho.conj().T)


def test_dac_resolution_randomization_is_complete():
    # 4096 equidistant phases dephase every coherence a 20-photon truncation
    # can express, exactly like the continuous limit
    fine = fock_density_matrix(0.1, DiscreteUniformPhase(4096), n_max=20)
    flat = fock_density_matrix(0.1, UniformPhase(), n_max=20)
    np.testing.assert_array_equal(fine, flat)


def test_single_phase_value_means_no_randomization():
    rho = fock_density_matrix(0.1, DiscreteUniformPhase(1), n_max=10)
    fixed = fock_density_matrix(0.1, FixedPhase(0.0), n_max=10)
    np.testing.assert_array_equal(rho, fixed)


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
        np.testing.assert_allclose(rho, expected, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(rho == 0, expected == 0)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
def test_density_diagonal_is_the_exact_poisson_pmf(mu):
    # the product recurrence stays within 9.8e-16 of the exact pmf here; a
    # log-space form (exp of lgamma sums) drifts to 1.1e-14 by n = 20
    rho = fock_density_matrix(mu, UniformPhase(), n_max=20)
    assert poisson_deviation(np.diag(rho).real, mu) <= 2e-15


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
    assert math.isclose(np.trace(rho).real, cdf, rel_tol=1e-12)


def test_vacuum_density_matrix():
    for dist in (UniformPhase(), FixedPhase(1.0), DiscreteUniformPhase(5)):
        rho = fock_density_matrix(0.0, dist, n_max=4)
        assert rho[0, 0] == 1.0 + 0.0j
        assert np.count_nonzero(rho) == 1
        assert np.trace(rho).real == 1.0


def test_negative_zero_mean_photon_is_the_vacuum():
    # the recurrence's sqrt(-0.0 / n) is -0.0, which a CSV would print as "-0"
    for dist in (UniformPhase(), FixedPhase(0.3), DiscreteUniformPhase(3)):
        rho = fock_density_matrix(-0.0, dist, n_max=4)
        assert rho.tobytes() == fock_density_matrix(0.0, dist, n_max=4).tobytes()
        assert not np.signbit(rho.view(np.float64)).any()


def test_fock_validation():
    with pytest.raises(ValidationError):
        fock_density_matrix(-0.1, UniformPhase())
    with pytest.raises(ValidationError):
        fock_density_matrix(0.1, UniformPhase(), n_max=0)
    # refused before allocating: (n_max + 1)^2 complex128 entries pass numpy's limit
    with pytest.raises(ValidationError, match="n_max"):
        fock_density_matrix(0.1, UniformPhase(), n_max=math.isqrt(np.iinfo(np.intp).max // 16))
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


def test_scan_csv_round_trip(tmp_path):
    cfg = _scan_config(n_bits=2_000)
    result = delay_scan(cfg, [-50.0, 0.0, 100.0])
    target = tmp_path / "scan.csv"
    export_csv(result, target)
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "delay_ns,qber,std_error,n_sifted,n_errors"
    assert len(lines) == 4
    for line, delay, est in zip(lines[1:], result.delays_ns, result.estimates):
        fields = line.split(",")
        assert float(fields[0]) == delay
        assert math.isclose(float(fields[1]), est.qber, rel_tol=1e-8, abs_tol=1e-8)
        assert math.isclose(float(fields[2]), est.std_error, rel_tol=1e-8, abs_tol=1e-8)
        assert int(fields[3]) == est.n_sifted
        assert int(fields[4]) == est.n_errors


def test_scan_csv_empty_result_writes_header_only(tmp_path):
    target = tmp_path / "scan.csv"
    export_csv(DelayScanResult(delays_ns=(), estimates=()), target)
    assert target.read_bytes() == b"delay_ns,qber,std_error,n_sifted,n_errors\n"


def test_scan_csv_to_path(tmp_path):
    est = QberEstimate(qber=0.5, std_error=0.015811388300841896, n_sifted=1000, n_errors=500)
    result = DelayScanResult(delays_ns=(10.0,), estimates=(est,))
    target = tmp_path / "scan.csv"
    export_csv(result, target)
    text = target.read_text()
    assert text.splitlines()[1] == "10,0.5,0.0158113883,1000,500"


def test_density_csv_layout(tmp_path):
    rho = fock_density_matrix(0.1, UniformPhase(), n_max=3)
    target = tmp_path / "density.csv"
    export_density_csv(rho, target)
    lines = target.read_text().strip().split("\n")
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
    assert type(rho) is np.ndarray
    assert rho.shape == (5, 5) and rho.dtype == np.complex128
