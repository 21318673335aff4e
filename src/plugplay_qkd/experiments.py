"""Verification experiments built on top of the session simulator.

Three independent ways of checking the randomizer does its job:

* :func:`delay_scan` reproduces the timing-alignment measurement: sifted
  error rate versus the generator trigger delay. Aligned timing leaves the
  key unaffected; misaligned timing scrambles it.
* :func:`uniformity_chisq` audits the emitted phases directly with a
  chi-square test against the uniform distribution on [0, 2*pi). Its sample
  is how often each of the 4096 DAC codes was drawn, binned into a
  power-of-two number of equal runs of codes from 2 to 4096.
* :func:`fock_density_matrix` gives the analytic photon-number picture: what
  the attenuated pulses look like to an observer with no phase reference,
  for perfect, discrete or absent phase randomization.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import MAX_FLOAT64S, ValidationError, real, whole
from .protocol import QberEstimate, SessionConfig, estimate_qber, run_session, sift
from .randomizer import CODE_LEVELS


# ---------------------------------------------------------------------------
# Delay scan


@dataclass(frozen=True)
class DelayScanResult:
    """Error-rate estimates over a sweep of generator trigger delays."""

    delays_ns: tuple[float, ...]
    estimates: tuple[QberEstimate, ...]

    def __post_init__(self) -> None:
        if len(self.delays_ns) != len(self.estimates):
            raise ValidationError("delay and estimate counts differ")

    @property
    def qbers(self) -> np.ndarray:
        return np.array([e.qber for e in self.estimates])

    def __len__(self) -> int:
        return len(self.delays_ns)


def scan_point_seed(base_seed: int, point_index: int) -> int:
    """Session seed for one scan point.

    Mixing the base seed with the point index through a seed sequence keeps
    points statistically independent while leaving the whole scan a pure
    function of the base seed.
    """
    ss = np.random.SeedSequence([base_seed, point_index])
    return int(ss.generate_state(1, np.uint64)[0])


def qber_or_nan(sifted: np.ndarray) -> QberEstimate:
    """:func:`estimate_qber` of sifted pairs, or, when there are none, NaN
    error rate and standard error with ``n_sifted=0``."""
    if len(sifted) == 0:
        return QberEstimate(qber=math.nan, std_error=math.nan, n_sifted=0, n_errors=0)
    return estimate_qber(sifted)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, which ``os.cpu_count()`` ignores, else the machine's count or 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def delay_scan(config: SessionConfig, delays_ns: Sequence[float],
               max_workers: int = 1) -> DelayScanResult:
    """Run one session per trigger delay and collect sifted error rates.

    ``config`` supplies everything but the trigger delay and per-point seed.
    Results are deterministic in ``config.seed`` and the delay list, and do
    not depend on ``max_workers``. A point with no sifted bit reports itself
    as such (see :func:`qber_or_nan`).
    """
    # a string iterates by character, and a number or a 2-d array's rows are not delays
    if isinstance(delays_ns, (str, bytes)) or not (
            isinstance(delays_ns, Sequence) or getattr(delays_ns, "ndim", 0) == 1):
        raise ValidationError(f"delays_ns must be a sequence of delays, got {delays_ns!r}")
    delays = [real("delays_ns", d) for d in delays_ns]
    if not delays:
        raise ValidationError("scan needs at least one delay")
    if any(b <= a for a, b in zip(delays, delays[1:])):
        raise ValidationError("scan delays must be strictly increasing")
    max_workers = whole("max_workers", max_workers, 1)

    def one_point(index: int) -> QberEstimate:
        point_config = replace(config, seed=scan_point_seed(config.seed, index), delay_ns=delays[index])
        return qber_or_nan(sift(run_session(point_config)))

    # map submits every point at once, and the pool starts a thread per
    # submit up to its size, so the size is capped by the points and the CPUs
    # the process may run on
    workers = min(max_workers, len(delays), _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        estimates = list(pool.map(one_point, range(len(delays))))
    return DelayScanResult(delays_ns=tuple(delays), estimates=tuple(estimates))


# ---------------------------------------------------------------------------
# Phase uniformity audit

# The 99th percentile of chi-square with n_bins - 1 degrees of freedom at each
# bin count an audit takes: the root of P((n_bins - 1)/2, x/2) = float(0.99),
# correctly rounded (mpmath at 60 digits)
_CHI2_P99 = {
    2: 6.634896601021214, 4: 11.34486673014437, 8: 18.47530690658236,
    16: 30.57791416689249, 32: 52.19139483319192, 64: 92.01002361413198,
    128: 166.98739013667387, 256: 310.45738821990585, 512: 588.2977941452372,
    1024: 1131.158738963494, 2048: 2198.7844972643143, 4096: 4308.467865579965,
}


def _audit_bins(n_bins, n_samples: int) -> int:
    """``n_bins`` as an ``int``, if ``n_samples`` phases can fill it fairly: at
    least two bins, ten samples a bin on average, and a power of two up to
    the 4096 DAC codes.

    Only those counts give every bin an equal run of the DAC grid; at any
    other, even a perfectly even tally of the grid fails the test.
    """
    n_bins = whole("n_bins", n_bins, 2)
    if n_samples < 10 * n_bins:
        raise ValidationError(
            f"need at least {10 * n_bins} samples for {n_bins} bins, got {n_samples}"
        )
    if n_bins not in _CHI2_P99:
        raise ValidationError(
            f"n_bins must divide the {CODE_LEVELS} DAC codes evenly "
            f"(a power of two up to {CODE_LEVELS}), got {n_bins}"
        )
    return n_bins


def uniformity_chisq(code_counts, n_bins: int = 256) -> tuple[float, float]:
    """Chi-square statistic of a DAC code sample against uniformity on [0, 2*pi).

    ``code_counts`` holds how often each of the 4096 DAC codes was drawn, as
    non-negative integers totalling less than 2**62. Returns ``(statistic,
    threshold)`` where ``threshold`` is the 99th percentile of chi-square
    with ``n_bins - 1`` degrees of freedom, read from a table; a statistic
    above it rejects uniformity at the 1% level. ``n_bins`` must be a power
    of two from 2 to 4096, so that bin ``j`` is the run of ``4096 // n_bins``
    codes whose phases lie in [2*pi*j/n_bins, 2*pi*(j+1)/n_bins) (at 96
    bins, 42 or 43 codes each, a perfectly even tally would score 500.0
    against 129.97). The sample must average at least ten counts per bin.
    """
    counts = np.asarray(code_counts)
    if counts.dtype.kind not in "iu":
        raise ValidationError(f"code counts must be integers, got dtype {counts.dtype}")
    if counts.shape != (CODE_LEVELS,):
        raise ValidationError(f"need one count per DAC code ({CODE_LEVELS}), got shape {counts.shape}")
    if counts.min() < 0:
        raise ValidationError("code counts must be >= 0")
    # a float64 sum is within a part in 10**12 of the total, so below 2**62
    # neither the int64 total nor an int64 bin can wrap
    if float(counts.sum(dtype=np.float64)) >= 2.0**62:
        raise ValidationError("code counts must total less than 2**62")
    counts = counts.astype(np.int64, copy=False)
    n_samples = int(counts.sum())
    n_bins = _audit_bins(n_bins, n_samples)
    binned = counts.reshape(n_bins, -1).sum(axis=1)
    expected = n_samples / n_bins
    statistic = float(((binned - expected) ** 2 / expected).sum())
    return statistic, _CHI2_P99[n_bins]


# ---------------------------------------------------------------------------
# Photon-number (Fock) picture


class UniformPhase:
    """Perfect continuous phase randomization on [0, 2*pi)."""

    def circular_moment(self, k):
        return np.where(np.asarray(k) == 0, 1.0 + 0.0j, 0.0 + 0.0j)

    def __repr__(self) -> str:
        return "UniformPhase()"


@dataclass(frozen=True)
class DiscreteUniformPhase:
    """Phase drawn uniformly from N equidistant values 2*pi*j/N."""

    n_values: int

    def __post_init__(self) -> None:
        # the moment's k % n_values is taken in int64
        object.__setattr__(self, "n_values", whole("n_values", self.n_values, 1, np.iinfo(np.int64).max))

    def circular_moment(self, k):
        return np.where(np.asarray(k) % self.n_values == 0, 1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class FixedPhase:
    """No randomization: every pulse carries the same global phase."""

    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", real("phi", self.phi))

    def circular_moment(self, k):
        # the phase taken onto [-pi, pi] (exactly, and the identity there), so
        # k * phi stays finite for any finite phi
        return np.exp(1j * np.asarray(k, dtype=np.float64) * math.remainder(self.phi, 2 * math.pi))



def fock_density_matrix(mu: float, phase_dist, n_max: int = 20) -> np.ndarray:
    """Density matrix of a coherent pulse whose global phase is randomized, as
    the ``(n_max + 1, n_max + 1)`` complex array over photon numbers 0 to ``n_max``.

    Entry (n, m) of a coherent state with mean photon number ``mu`` and phase
    phi is ``exp(-mu) * mu**((n+m)/2) / sqrt(n! m!) * exp(i (n-m) phi)``;
    averaging over the phase distribution replaces the last factor with its
    circular moment of order n-m. Continuous randomization therefore leaves a
    diagonal (Poissonian) mixture, N discrete phases keep every n = m (mod N)
    coherence, and a fixed phase keeps the pure coherent state.
    """
    mu = abs(real("mu", mu, 0))  # -0.0 would put negative zeros into the vacuum's row and column
    # (n_max + 1)^2 complex128 entries, two float64s each
    dim = whole("n_max", n_max, 1, math.isqrt(MAX_FLOAT64S // 2) - 1) + 1
    ns = np.arange(dim)
    # amp_n = e^{-mu/2} mu^{n/2} / sqrt(n!) by the recurrence
    # amp_n = amp_{n-1} sqrt(mu/n), an ulp or so per step where exp of a
    # log-space sum loses about log(n!) ulps; at mu = 0 it gives the vacuum.
    # The recurrence needs e^{-mu/2} as a normal float; beyond mu ~ 1417 log
    # space remains.
    weight = math.exp(-mu / 2.0)
    if weight >= np.finfo(np.float64).tiny:
        amps = np.cumprod(np.concatenate(([weight], np.sqrt(mu / ns[1:]))))
    else:
        log_fact = np.array([math.lgamma(n + 1.0) for n in range(dim)])
        amps = np.exp(-mu / 2.0 + 0.5 * (ns * math.log(mu) - log_fact))
    order = ns[:, None] - ns[None, :]
    return np.outer(amps, amps) * phase_dist.circular_moment(order)


def offdiag_norm(rho: np.ndarray) -> float:
    """Largest magnitude among off-diagonal entries; zero iff fully dephased."""
    off = rho - np.diag(np.diag(rho))
    return float(np.abs(off).max())


# ---------------------------------------------------------------------------
# CSV export


def export_csv(result: DelayScanResult, path: str | os.PathLike) -> None:
    """Write a scan as CSV: delay_ns,qber,std_error,n_sifted,n_errors.

    A point with no sifted bit reads ``nan,nan,0,0`` after its delay.
    """
    lines = ["delay_ns,qber,std_error,n_sifted,n_errors"]
    for delay, est in zip(result.delays_ns, result.estimates):
        lines.append(
            f"{delay:.9g},{est.qber:.9g},{est.std_error:.9g},{est.n_sifted},{est.n_errors}"
        )
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def export_density_csv(rho: np.ndarray, path: str | os.PathLike) -> None:
    """Write a density matrix as CSV rows n,m,real,imag."""
    lines = ["n,m,real,imag"]
    for (n, m), z in np.ndenumerate(rho):
        lines.append(f"{n},{m},{z.real:.12g},{z.imag:.12g}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
