"""The benchmark's workloads: which CLI calls each runs, and how each is checked.

Every op is one ``plugplay_qkd.cli.main(argv)`` call. Ops cycle over four
session seeds drawn from the benchmark seed, so a run repeats each seed and
the determinism check (equal digests for equal keys) sees every seed twice
or more.

Output checks are scaled to the standard error of the quantity they test
rather than to fixed bands: a sifted error rate estimated from ``n`` bits
has standard error ``sqrt(p (1 - p) / n)``, and a check allows ``K_SIGMA``
of them.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import stats

K_SIGMA = 5.0
ALIGNED_FLOOR = 0.01
# The audit's own threshold is the 99th percentile, so a fair stream is
# rejected 1% of the time. The benchmark asks the stronger question of
# whether the printed statistic is plausible for a uniform stream at all.
UNIFORM_ALPHA = 1e-6
AUDIT_BINS = 256
MEAN_PHOTON = 0.1
RHO01 = math.exp(-MEAN_PHOTON) * math.sqrt(MEAN_PHOTON)

SCAN_RANGE_NS = 200.0
SCAN_STEP_NS = 10.0
SCAN_ROUNDTRIP_NS = 20.0
SCAN_DELAYS = [-SCAN_RANGE_NS + k * SCAN_STEP_NS for k in range(41)]
# with a 20 ns round trip and 50 ns arm delay, every pass of a bit shares one
# pattern step for |delay| <= 60 ns and straddles one for |delay| in 90..110 ns
ALIGNED_NS = 60.0
PLATEAU_NS = (90.0, 100.0, 110.0)

SIZES = {
    "full": {"session_bits": 843_000, "scan_bits": 84_300, "audit_codes": 4_000_000},
    "smoke": {"session_bits": 20_000, "scan_bits": 20_000, "audit_codes": 100_000},
}

QBER_LINE = re.compile(r"^qber=(\S+) std_error=(\S+) n_sifted=(\d+) n_errors=(\d+)$", re.M)
VERIFY_LINE = re.compile(
    r"^chi-square statistic (\S+) vs 99th-percentile threshold (\S+) \((\d+) bins, (\d+) codes\)$",
    re.M,
)
DENSITY_LINE = re.compile(r"^mu=(\S+) dist=(\S+) trace=(\S+) max_offdiag=(\S+)$", re.M)
RECORDS_HEADER = b"bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1"
SCAN_HEADER = "delay_ns,qber,std_error,n_sifted,n_errors"


@dataclass
class OpRun:
    """What one ``cli.main`` call returned and printed."""

    rc: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str] = None


@dataclass
class Op:
    """One CLI call plus how to judge it.

    ``key`` names the inputs: two ops with the same key must print and write
    identical output. ``check`` returns ``(problems, digest)``; a digest seen
    before under the same key is verified once and then only compared.
    """

    kind: str
    argv: list
    items: int
    key: str
    check: Callable[["Op", OpRun, bool], tuple[list, str]]
    output: Optional[Path] = None
    bits: int = 0


def op_seeds(seed: int, count: int = 4) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def floor_problem(label: str, qber: float, n_sifted: int) -> Optional[str]:
    sigma = math.sqrt(ALIGNED_FLOOR * (1.0 - ALIGNED_FLOOR) / n_sifted)
    limit = ALIGNED_FLOOR + K_SIGMA * sigma
    if qber > limit:
        return f"{label}: aligned qber {qber:.6f} above {limit:.6f} (1% + {K_SIGMA:g} sigma, n={n_sifted})"
    return None


def plateau_problem(label: str, qber: float, n_sifted: int) -> Optional[str]:
    sigma = math.sqrt(0.25 / n_sifted)
    if abs(qber - 0.5) > K_SIGMA * sigma:
        return f"{label}: plateau qber {qber:.6f} more than {K_SIGMA:g} sigma ({sigma:.4f}) from 0.5"
    return None


def _exit_problem(run: OpRun, expected: int) -> Optional[str]:
    if run.error is not None:
        return f"raised: {run.error.strip().splitlines()[-1]}"
    if run.rc != expected:
        return f"exit code {run.rc}, expected {expected}: {run.stderr.strip()[:200]}"
    return None


def records_qber(raw: bytes, n_bits: int) -> tuple[int, int]:
    """Recompute (n_sifted, n_errors) from an exported records CSV.

    Every row ends in ``,B,b,B,c,c`` (bases as letters, bit and clicks as
    digits), so the columns sit at fixed offsets before each newline.
    """
    data = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if raw[: ends[0]] != RECORDS_HEADER or ends[-1] != len(raw) - 1:
        raise ValueError("bad header or trailing bytes")
    ends = ends[1:]
    if len(ends) != n_bits:
        raise ValueError(f"{len(ends)} rows, expected {n_bits}")
    starts = np.concatenate(([len(RECORDS_HEADER) + 1], ends[:-1] + 1))
    index = np.arange(n_bits)
    digits = np.where(index == 0, 1, np.floor(np.log10(np.maximum(index, 1))).astype(np.int64) + 1)
    if not np.array_equal(ends - starts - 10, digits):
        raise ValueError("row widths do not match sequential bit indexes")
    for back in (10, 8, 6, 4, 2):
        if not np.all(data[ends - back] == ord(",")):
            raise ValueError("misplaced column separators")
    a_basis, a_bit, b_basis, d0, d1 = (data[ends - back] for back in (9, 7, 5, 3, 1))
    if not (np.isin(a_basis, (ord("X"), ord("Y"))).all() and np.isin(b_basis, (ord("X"), ord("Y"))).all()):
        raise ValueError("basis column holds something other than X or Y")
    for col in (a_bit, d0, d1):
        if not np.isin(col, (ord("0"), ord("1"))).all():
            raise ValueError("bit column holds something other than 0 or 1")
    keep = (d0 != d1) & (a_basis == b_basis)
    return int(keep.sum()), int((a_bit != d1)[keep].sum())


def check_session(op: Op, run: OpRun, deep: bool) -> tuple[list, str]:
    problem = _exit_problem(run, 0)
    if problem:
        return [problem], ""
    match = QBER_LINE.search(run.stdout)
    if not match:
        return ["no qber line in output"], ""
    printed_qber, n_sifted, n_errors = match.group(1), int(match.group(3)), int(match.group(4))
    raw = op.output.read_bytes() if op.output else b""
    digest = _sha(run.stdout.encode()) + _sha(raw)
    if not deep:
        return [], digest
    problems = []
    if n_sifted == 0 or n_errors > n_sifted or f"{n_errors / n_sifted:.6f}" != printed_qber:
        problems.append(f"printed qber {printed_qber} does not match {n_errors}/{n_sifted}")
    elif (p := floor_problem("session", n_errors / n_sifted, n_sifted)):
        problems.append(p)
    if op.output:
        if f"wrote {op.bits} records to {op.output}" not in run.stdout:
            problems.append("no 'wrote ... records' line")
        try:
            recomputed = records_qber(raw, op.bits)
        except (ValueError, IndexError) as exc:
            problems.append(f"records CSV: {exc}")
        else:
            if recomputed != (n_sifted, n_errors):
                problems.append(f"records CSV gives (sifted, errors) {recomputed}, printed ({n_sifted}, {n_errors})")
    return problems, digest


def check_scan(op: Op, run: OpRun, deep: bool) -> tuple[list, str]:
    problem = _exit_problem(run, 0)
    if problem:
        return [problem], ""
    text = op.output.read_text(encoding="ascii")
    digest = _sha(run.stdout.encode()) + _sha(text.encode())
    if not deep:
        return [], digest
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER or len(lines) != len(SCAN_DELAYS) + 1:
        return ["scan CSV has the wrong header or row count"], digest
    problems, printed = [], []
    for delay, line in zip(SCAN_DELAYS, lines[1:]):
        fields = line.split(",")
        d, q = float(fields[0]), float(fields[1])
        n_sifted, n_errors = int(fields[3]), int(fields[4])
        if d != delay or n_sifted == 0 or abs(q - n_errors / n_sifted) > 1e-8:
            problems.append(f"scan row {line!r} is inconsistent")
            continue
        q = n_errors / n_sifted
        printed.append(f"delay_ns={delay:g} qber={q:.6f} n_sifted={n_sifted}")
        label = f"delay {delay:g} ns"
        if abs(delay) <= ALIGNED_NS:
            problems.append(floor_problem(label, q, n_sifted))
        elif abs(delay) in PLATEAU_NS:
            problems.append(plateau_problem(label, q, n_sifted))
    printed.append(f"wrote {len(SCAN_DELAYS)} points to {op.output}")
    if run.stdout.splitlines() != printed:
        problems.append("printed scan lines do not match the CSV")
    return [p for p in problems if p], digest


def check_verify(op: Op, run: OpRun, deep: bool) -> tuple[list, str]:
    if run.error is not None or run.rc not in (0, 3):
        return [_exit_problem(run, 0)], ""
    match = VERIFY_LINE.search(run.stdout)
    if not match:
        return ["no chi-square line in output"], ""
    statistic, threshold = float(match.group(1)), float(match.group(2))
    bins, codes = int(match.group(3)), int(match.group(4))
    digest = _sha(run.stdout.encode())
    if not deep:
        return [], digest
    problems = []
    if (bins, codes) != (AUDIT_BINS, op.items):
        problems.append(f"audited {codes} codes in {bins} bins, asked for {op.items} in {AUDIT_BINS}")
    if abs(threshold - stats.chi2.ppf(0.99, bins - 1)) > 0.01:
        problems.append(f"threshold {threshold} is not the 99th percentile of chi2({bins - 1})")
    if run.rc != (3 if statistic > threshold else 0):
        problems.append(f"exit code {run.rc} disagrees with statistic {statistic} vs {threshold}")
    if op.kind == "verify-constant":
        if run.rc != 3 or "REJECTED" not in run.stdout:
            problems.append("constant-code stream was not rejected")
    elif stats.chi2.sf(statistic, bins - 1) < UNIFORM_ALPHA:
        problems.append(f"pattern stream statistic {statistic} has p < {UNIFORM_ALPHA:g}")
    return problems, digest


def check_density(op: Op, run: OpRun, deep: bool) -> tuple[list, str]:
    problem = _exit_problem(run, 0)
    if problem:
        return [problem], ""
    text = op.output.read_text(encoding="ascii")
    digest = _sha(run.stdout.encode()) + _sha(text.encode())
    if not deep:
        return [], digest
    match = DENSITY_LINE.search(run.stdout)
    lines = text.splitlines()
    if not match or lines[0] != "n,m,real,imag":
        return ["density output is malformed"], digest
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    n, m = rows[:, 0].astype(int), rows[:, 1].astype(int)
    entries = rows[:, 2] + 1j * rows[:, 3]
    problems = []
    trace = float(rows[n == m, 2].sum())
    if abs(trace - 1.0) > 1e-9 or abs(float(match.group(3)) - 1.0) > 1e-9:
        problems.append(f"trace {trace} (printed {match.group(3)}) is not 1")
    offdiag = float(np.abs(entries[n != m]).max())
    dist = match.group(2)
    if dist.startswith("fixed"):
        if abs(offdiag / RHO01 - 1.0) > 1e-9:
            problems.append(f"fixed-phase coherence {offdiag} is not {RHO01}")
    elif offdiag >= 1e-15 or float(match.group(4)) >= 1e-15:
        problems.append(f"{dist}: off-diagonal {offdiag} is not below 1e-15")
    return problems, digest


@dataclass
class Workload:
    """Op builders take (op seeds, sizes, work directory)."""

    name: str
    items: str
    expected_spans: tuple
    make_cycle: Callable
    # untimed op whose allocation peak is measured
    make_reference: Callable
    # untimed ops of the end-to-end run that only feed the output checks
    make_checks: Callable
    # traced-run extras as (kind, op); "probe-alloc" runs under tracemalloc
    make_probes: Callable
    threads: int = 1


def _session_op(seed: int, bits: int, work: Path, output: bool = True, randomizer: str = "on") -> Op:
    path = work / "records.csv" if output else None
    argv = ["session", "--bits", str(bits), "--seed", str(seed), "--randomizer", randomizer]
    if path:
        argv += ["--output", str(path)]
    kind = "session" if randomizer == "on" else "session-randomizer-off"
    return Op(kind, argv, bits, f"{kind}:{seed}:{bits}:{output}", check_session, path, bits)


def _scan_op(seed: int, bits: int, work: Path, threads: int) -> Op:
    path = work / "scan.csv"
    argv = ["scan", "--bits", str(bits), "--seed", str(seed),
            "--scan-range-ns", f"{SCAN_RANGE_NS:g}", "--scan-step-ns", f"{SCAN_STEP_NS:g}",
            "--roundtrip-ns", f"{SCAN_ROUNDTRIP_NS:g}", "--threads", str(threads), "--output", str(path)]
    # same key at every worker count: the estimates must not depend on it
    return Op("scan", argv, bits * len(SCAN_DELAYS), f"scan:{seed}:{bits}", check_scan, path, bits)


def _verify_op(seed: Optional[int], codes: int) -> Op:
    argv = ["verify-uniformity", "--codes", str(codes), "--bins", str(AUDIT_BINS)]
    if seed is None:
        argv += ["--constant-code", "0"]
        return Op("verify-constant", argv, codes, f"constant:{codes}", check_verify)
    argv += ["--seed", str(seed)]
    return Op("verify", argv, codes, f"verify:{seed}:{codes}", check_verify)


def _density_op(dist: str, work: Path) -> Op:
    path = work / "density.csv"
    argv = ["density", "--mean-photon", f"{MEAN_PHOTON:g}", "--n-max", "20",
            "--phase-dist", dist, "--output", str(path)]
    return Op("density", argv, 0, f"density:{dist}", check_density, path)


def _session_probes(seeds, bits, work, pairs):
    """Allocation probe, then sessions paired by seed with the randomizer on and off."""
    probes = [("probe-alloc", _session_op(seeds[0], bits, work, output=False))]
    for i in range(pairs):
        for state in ("on", "off"):
            op = _session_op(seeds[i % len(seeds)], bits, work, output=False, randomizer=state)
            probes.append((f"probe-randomizer-{state}-{i}", op))
    return probes


def session_export(nproc: int) -> Workload:
    return Workload(
        name="session_export",
        items="bits",
        expected_spans=("cli.main", "protocol.run_session", "protocol.sift", "protocol.estimate_qber",
                        "protocol.export_records_csv", "randomizer.generate_pattern"),
        make_cycle=lambda seeds, sizes, work: [_session_op(s, sizes["session_bits"], work) for s in seeds],
        make_reference=lambda seeds, sizes, work: _session_op(seeds[0], sizes["session_bits"], work),
        make_checks=lambda seeds, sizes, work: [],
        make_probes=lambda seeds, sizes, work: _session_probes(seeds, sizes["session_bits"], work, 3),
    )


def delay_scan(nproc: int) -> Workload:
    def probes(seeds, sizes, work):
        one = _scan_op(seeds[0], sizes["scan_bits"], work, 1)
        return [("probe-1worker", one)] + _session_probes(seeds, sizes["scan_bits"], work, 5)

    return Workload(
        name="delay_scan",
        items="bits",
        expected_spans=("cli.main", "experiments.delay_scan", "protocol.run_session", "protocol.sift",
                        "protocol.estimate_qber", "experiments.export_csv", "randomizer.generate_pattern"),
        threads=nproc,
        make_cycle=lambda seeds, sizes, work: [_scan_op(s, sizes["scan_bits"], work, nproc) for s in seeds],
        make_reference=lambda seeds, sizes, work: _scan_op(seeds[0], sizes["scan_bits"], work, nproc),
        # shares its key with the nproc-worker ops: the estimates must not depend on the worker count
        make_checks=lambda seeds, sizes, work: [_scan_op(seeds[0], sizes["scan_bits"], work, 1)],
        make_probes=probes,
    )


def phase_audit(nproc: int) -> Workload:
    def cycle(seeds, sizes, work):
        codes = sizes["audit_codes"]
        v = [_verify_op(s, codes) for s in seeds]
        # seven ops in ten are audits (six of the pattern stream, one of a
        # constant stream), so the median and the tail are audit latencies
        return [v[0], v[1], _density_op("uniform", work), v[2], v[3], _density_op("discrete:4096", work),
                v[0], v[1], _density_op("fixed:0.3", work), _verify_op(None, codes)]

    return Workload(
        name="phase_audit",
        items="codes",
        expected_spans=("cli.main", "randomizer.generate_pattern", "randomizer.code_to_phase",
                        "experiments.uniformity_chisq", "experiments.fock_density_matrix",
                        "experiments.export_density_csv"),
        make_cycle=cycle,
        make_reference=lambda seeds, sizes, work: _verify_op(seeds[0], sizes["audit_codes"]),
        make_checks=lambda seeds, sizes, work: [],
        make_probes=lambda seeds, sizes, work: [],
    )


WORKLOADS = {w.__name__: w for w in (session_export, delay_scan, phase_audit)}
