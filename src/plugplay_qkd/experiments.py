"""Verification experiments built on top of the session simulator.

Three independent ways of checking the randomizer does its job:

* :func:`delay_scan` reproduces the timing-alignment measurement: sifted
  error rate versus the generator trigger delay. Aligned timing leaves the
  key unaffected; misaligned timing scrambles it.
* :func:`uniformity_chisq` audits the emitted phase sample directly with a
  chi-square test against the uniform distribution on [0, 2*pi).
* :func:`fock_density_matrix` gives the analytic photon-number picture: what
  the attenuated pulses look like to an observer with no phase reference,
  for perfect, discrete or absent phase randomization.
"""

from __future__ import annotations

import decimal
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Sequence

import numpy as np

from ._textio import PathOrFile, open_ascii
from .errors import ValidationError
from .protocol import QberEstimate, SessionConfig, estimate_qber, run_session, sift

__all__ = [
    "DelayScanResult",
    "delay_scan",
    "scan_point_seed",
    "uniformity_chisq",
    "UniformPhase",
    "DiscreteUniformPhase",
    "FixedPhase",
    "FockDensityMatrix",
    "fock_density_matrix",
    "offdiag_norm",
    "export_csv",
    "export_density_csv",
]


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


def delay_scan(
    config: SessionConfig,
    delays_ns: Sequence[float],
    max_workers: int = 1,
) -> DelayScanResult:
    """Run one session per trigger delay and collect sifted error rates.

    ``config`` supplies everything but the trigger delay and per-point seed.
    Results are deterministic in ``config.seed`` and the delay list, and do
    not depend on ``max_workers``.
    """
    delays = [float(d) for d in delays_ns]
    if not delays:
        raise ValidationError("scan needs at least one delay")
    if any(not math.isfinite(d) for d in delays):
        raise ValidationError("scan delays must be finite")
    if any(b <= a for a, b in zip(delays, delays[1:])):
        raise ValidationError("scan delays must be strictly increasing")
    if max_workers < 1:
        raise ValidationError(f"max_workers must be >= 1, got {max_workers}")

    def one_point(index: int) -> QberEstimate:
        delay = delays[index]
        point_config = replace(config, seed=scan_point_seed(config.seed, index), delay_ns=delay)
        try:
            return estimate_qber(sift(run_session(point_config)))
        except ValidationError as exc:
            raise ValidationError(f"scan point at {delay} ns: {exc}") from exc

    indexes = range(len(delays))
    if max_workers == 1:
        estimates = [one_point(i) for i in indexes]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            estimates = list(pool.map(one_point, indexes))
    return DelayScanResult(delays_ns=tuple(delays), estimates=tuple(estimates))


# ---------------------------------------------------------------------------
# Phase uniformity audit

# pi to 50 digits, for Gamma at the half-integer shapes of odd df
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")
_QUANTILE_DIGITS = 45
# the 0.99 quantile of the standard normal, for the Wilson-Hilferty start
_Z99 = 2.3263478740408408


def _gamma_half(df: int) -> Decimal:
    """Gamma(df/2) in the current decimal context.

    That is (df/2 - 1)! for even df and (1/2)(3/2)...(df/2 - 1) sqrt(pi),
    the factorial ratio (2k)! / (4^k k!) times sqrt(pi), for df = 2k + 1.
    The product is rounded factor by factor, because converting an exact
    factorial of tens of thousands of digits to decimal takes seconds.
    """
    gamma = _PI.sqrt() if df % 2 else Decimal(1)
    factor = Decimal(df) / 2 - 1
    while factor > 0:
        gamma *= factor
        factor -= 1
    return gamma


def _gamma_q(a: Decimal, y: Decimal, gamma_a: Decimal, tol: Decimal) -> tuple[Decimal, Decimal]:
    """Regularized upper incomplete gamma Q(a, y) and the gamma(a) density at y.

    Uses the series of P = 1 - Q below y = a + 1 and the continued fraction
    of Q (modified Lentz) above it, in the current decimal context.
    """
    density = (a * y.ln() - y).exp() / (gamma_a * y)
    if y < a + 1:
        term = total = 1 / a
        shape = a
        while term >= total * tol:
            shape += 1
            term = term * y / shape
            total += term
        return 1 - density * y * total, density
    tiny = Decimal("1e-300")
    b = y + 1 - a
    c = 1 / tiny
    d = 1 / b
    frac = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if d != 0 else tiny)
        c = b + an / c
        if c == 0:
            c = tiny
        delta = c * d
        frac *= delta
        if abs(delta - 1) < tol:
            return density * y * frac, density


@functools.lru_cache(maxsize=64)
def _chi2_ppf99(df: int) -> float:
    """99th percentile of chi-square with ``df`` degrees of freedom, correctly rounded.

    Solves Q(df/2, x/2) = 1 - p for p = float(0.99) by Newton's method in
    45-digit decimal arithmetic from the Wilson-Hilferty guess; the root is
    then rounded once, to the float nearest it.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = _QUANTILE_DIGITS
        # Gamma(df/2) passes 1e999999, the default exponent limit, near df = 4e5
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        a = Decimal(df) / 2
        gamma_a = _gamma_half(df)
        tol = Decimal(10) ** (2 - _QUANTILE_DIGITS)
        target = 1 - Decimal(0.99)
        h = 2.0 / (9.0 * df)
        y = Decimal(0.5 * df * (1.0 - h + _Z99 * math.sqrt(h)) ** 3)
        for _ in range(100):
            q, density = _gamma_q(a, y, gamma_a, tol)
            step = (q - target) / density
            # Q falls with y, so a tail above target moves the root right
            y_next = y + step if y + step > 0 else y / 2
            done = abs(y_next - y) <= y * tol
            y = y_next
            if done:
                break
        return float(2 * y)


def uniformity_chisq(phases: np.ndarray, n_bins: int = 256) -> tuple[float, float]:
    """Chi-square statistic of a phase sample against uniformity on [0, 2*pi).

    Returns ``(statistic, threshold)`` where ``threshold`` is the 99th
    percentile of chi-square with ``n_bins - 1`` degrees of freedom; a
    statistic above it rejects uniformity at the 1% level. The sample must
    average at least ten counts per bin or the test is meaningless.
    """
    arr = np.asarray(phases, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("phase sample must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValidationError("phase sample must be finite")
    if n_bins < 2:
        raise ValidationError(f"need at least 2 bins, got {n_bins}")
    if arr.size < 10 * n_bins:
        raise ValidationError(
            f"need at least {10 * n_bins} samples for {n_bins} bins, got {arr.size}"
        )
    two_pi = 2.0 * math.pi
    wrapped = np.mod(arr, two_pi)
    # multiply before dividing: for a power-of-two bin count (2 to 4096) this
    # bins the 4096-step DAC grid exactly; other counts can put a grid code
    # one bin low through rounding (code 2048 at 26 bins)
    idx = np.floor(wrapped * (n_bins / two_pi)).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    expected = arr.size / n_bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    threshold = _chi2_ppf99(n_bins - 1)
    return statistic, threshold


# ---------------------------------------------------------------------------
# Photon-number (Fock) picture


class UniformPhase:
    """Perfect continuous phase randomization on [0, 2*pi)."""

    def circular_moment(self, k):
        k_arr = np.asarray(k)
        out = np.where(k_arr == 0, 1.0 + 0.0j, 0.0 + 0.0j)
        return complex(out) if k_arr.ndim == 0 else out

    def __repr__(self) -> str:
        return "UniformPhase()"


@dataclass(frozen=True)
class DiscreteUniformPhase:
    """Phase drawn uniformly from N equidistant values 2*pi*j/N."""

    n_values: int

    def __post_init__(self) -> None:
        if self.n_values < 1:
            raise ValidationError(f"need at least 1 phase value, got {self.n_values}")

    def circular_moment(self, k):
        k_arr = np.asarray(k)
        out = np.where(k_arr % self.n_values == 0, 1.0 + 0.0j, 0.0 + 0.0j)
        return complex(out) if k_arr.ndim == 0 else out


@dataclass(frozen=True)
class FixedPhase:
    """No randomization: every pulse carries the same global phase."""

    phi: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValidationError("phase must be finite")

    def circular_moment(self, k):
        k_arr = np.asarray(k, dtype=np.float64)
        out = np.exp(1j * k_arr * self.phi)
        return complex(out) if np.asarray(k).ndim == 0 else out


@dataclass(frozen=True)
class FockDensityMatrix:
    """Photon-number-basis density matrix truncated at ``n_max`` photons."""

    entries: np.ndarray
    mu: float
    n_max: int

    @property
    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.entries)).copy()

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def fock_density_matrix(mu: float, phase_dist, n_max: int = 20) -> FockDensityMatrix:
    """Density matrix of a coherent pulse whose global phase is randomized.

    Entry (n, m) of a coherent state with mean photon number ``mu`` and phase
    phi is ``exp(-mu) * mu**((n+m)/2) / sqrt(n! m!) * exp(i (n-m) phi)``;
    averaging over the phase distribution replaces the last factor with its
    circular moment of order n-m. Continuous randomization therefore leaves a
    diagonal (Poissonian) mixture, N discrete phases keep every n = m (mod N)
    coherence, and a fixed phase keeps the pure coherent state.
    """
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValidationError(f"mean photon number must be finite and >= 0, got {mu}")
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    dim = n_max + 1
    ns = np.arange(dim)
    if mu == 0.0:
        amps = np.zeros(dim)
        amps[0] = 1.0
    else:
        # amp_n = e^{-mu/2} mu^{n/2} / sqrt(n!) by the recurrence
        # amp_n = amp_{n-1} sqrt(mu/n), an ulp or so per step where exp of a
        # log-space sum loses about log(n!) ulps. The recurrence needs
        # e^{-mu/2} as a normal float; beyond mu ~ 1417 log space remains.
        weight = math.exp(-mu / 2.0)
        if weight >= np.finfo(np.float64).tiny:
            amps = np.cumprod(np.concatenate(([weight], np.sqrt(mu / ns[1:]))))
        else:
            log_fact = np.array([math.lgamma(n + 1.0) for n in range(dim)])
            amps = np.exp(-mu / 2.0 + 0.5 * (ns * math.log(mu) - log_fact))
    order = ns[:, None] - ns[None, :]
    entries = np.outer(amps, amps) * phase_dist.circular_moment(order)
    return FockDensityMatrix(entries=entries, mu=float(mu), n_max=int(n_max))


def offdiag_norm(rho: FockDensityMatrix) -> float:
    """Largest magnitude among off-diagonal entries; zero iff fully dephased."""
    mat = np.asarray(rho.entries)
    off = mat - np.diag(np.diag(mat))
    return float(np.abs(off).max())


# ---------------------------------------------------------------------------
# CSV export


def export_csv(result: DelayScanResult, destination: PathOrFile) -> None:
    """Write a scan as CSV: delay_ns,qber,std_error,n_sifted,n_errors."""
    lines = ["delay_ns,qber,std_error,n_sifted,n_errors"]
    for delay, est in zip(result.delays_ns, result.estimates):
        lines.append(
            f"{delay:.9g},{est.qber:.9g},{est.std_error:.9g},{est.n_sifted},{est.n_errors}"
        )
    with open_ascii(destination) as write:
        write(("\n".join(lines) + "\n").encode("ascii"))


def export_density_csv(rho: FockDensityMatrix, destination: PathOrFile) -> None:
    """Write a density matrix as CSV rows n,m,real,imag."""
    lines = ["n,m,real,imag"]
    dim = rho.n_max + 1
    for n in range(dim):
        for m in range(dim):
            z = rho.entries[n, m]
            lines.append(f"{n},{m},{z.real:.12g},{z.imag:.12g}")
    with open_ascii(destination) as write:
        write(("\n".join(lines) + "\n").encode("ascii"))
