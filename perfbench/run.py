"""Benchmark of the plugplay-qkd command line, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload session_export --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each op is one in-process ``plugplay_qkd.cli.main(argv)`` call on the
package under ``src/``. With ``--trace 0`` the run times set-up (fresh
interpreters importing the package) and then ops for ``--seconds``, and
prints the end-to-end metrics. With ``--trace 1`` it runs each op twice,
untraced and traced, records spans around the calls between the package's
modules (see ``spans.py``) and prints the per-layer metrics of
``layers.json``. Every op's output is checked; a failed check, a nonzero
exit the check does not expect or an exception counts the op as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

from spans import SpanGuardError, Tracer, install, self_seconds
from workloads import SIZES, WORKLOADS, OpRun, op_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# the highest percentile reported as the tail has at least this many samples beyond it
TAIL_BEYOND = 10



def metric_units(trace: int) -> dict[str, str]:
    """Name to unit of the metrics ``BENCHMARK.json`` declares for a trace mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "plugplay_qkd" / "__init__.py").is_file():
        raise ImportError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import plugplay_qkd
    from plugplay_qkd import cli, experiments, protocol, randomizer

    if Path(plugplay_qkd.__file__).resolve().parent != SRC / "plugplay_qkd":
        raise ImportError(f"plugplay_qkd imported from {plugplay_qkd.__file__}, not {SRC}")
    return plugplay_qkd, (cli, experiments, protocol, randomizer)


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing the CLI, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import plugplay_qkd.cli"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter could not import the package: {proc.stderr.strip()}")
    return times


def fingerprint(package, workload, seed, seconds, trace, sizes, seeds) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or commit
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package_version": package.__version__,
        "git_commit": commit,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "op_seeds": seeds,
        "threads": workload.threads,
    }


class Runner:
    """Runs ops, checks their output and keeps the counts of one run."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def call(self, op, tracer=None, kind="workload"):
        run = self.execute(op, tracer, kind)
        self.judge(op, run)
        return run

    def execute(self, op, tracer=None, kind="workload"):
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.cli_main(op.argv)
                else:
                    with tracer.op(kind), tracer.span("cli.main"):
                        rc = self.cli_main(op.argv)
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        return OpRun(rc, out.getvalue(), err.getvalue(), seconds, error)

    def judge(self, op, run) -> None:
        self.attempted += 1
        known = self.digests.get(op.key)
        try:
            problems, digest = op.check(op, run, known is None)
        except Exception as exc:  # malformed or missing output fails the op, not the run
            problems, digest = [f"output check raised {type(exc).__name__}: {exc}"], ""
        if not problems and known is not None and digest != known:
            problems = [f"output differs from an earlier op with the same inputs ({op.key})"]
        if not problems and known is None:
            self.digests[op.key] = digest
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {op.kind} {' '.join(op.argv)}: {problem}", file=sys.stderr)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the median.

    Returns (value, percentile, samples beyond it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = min(n - 1, max(n - 1 - TAIL_BEYOND, n // 2))
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def run_end_to_end(workload, runner, seconds, sizes, seeds, work, setup_repeats):
    setup = statistics.median(measure_setup(setup_repeats))

    reference = workload.make_reference(seeds, sizes, work)
    tracemalloc.start()
    try:
        run = runner.execute(reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runner.judge(reference, run)
    for op in workload.make_checks(seeds, sizes, work):
        runner.call(op)

    cycle = workload.make_cycle(seeds, sizes, work)
    latencies, items = [], 0
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        op = cycle[len(latencies) % len(cycle)]
        latencies.append(runner.call(op).seconds)
        items += op.items
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": setup,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "items_per_s": items / sum(latencies),
        "peak_alloc_bytes_per_item": peak / reference.items,
    }
    notes = {
        "setup_s": f"median of {setup_repeats} fresh interpreters importing plugplay_qkd.cli",
        "op_p50_s": f"{len(latencies)} timed ops",
        "op_tail_s": f"p{pct:.0f}, {beyond} of {len(latencies)} samples beyond it",
        "items_per_s": f"{workload.items} per second of op time",
        "peak_alloc_bytes_per_item": f"tracemalloc peak of one untimed {reference.kind} op "
                                     f"({reference.items} {workload.items})",
    }
    return metrics, notes


def layer_metrics(tracer, workload, pairs, probe_ops) -> dict:
    """Per-layer metrics from the spans of traced workload ops and probes."""
    n_ops = sum(1 for kind in tracer.op_kind.values() if kind == "workload")
    by_name = defaultdict(list)
    by_op_name = defaultdict(list)
    children = defaultdict(list)
    for s in tracer.spans:
        kind = tracer.op_kind.get(s.op_id)
        if kind == "workload":
            by_name[s.name].append(s)
            children[s.parent_id].append(s)
        else:
            by_op_name[(s.op_id, s.name)].append(s)

    def busy(name):
        return sum(s.seconds for s in by_name[name]) / n_ops

    def calls(name):
        return len(by_name[name]) / n_ops

    def total(name, key):
        return sum(s.counts[key] for s in by_name[name] if s.counts and key in s.counts)

    def rate(name, key):
        seconds = sum(s.seconds for s in by_name[name])
        return total(name, key) / seconds if seconds else 0.0

    def probe_seconds(op_id, name):
        return sum(s.seconds for s in by_op_name[(op_id, name)])

    share = 0.0
    ratios = [probe_seconds(probe_ops[f"probe-randomizer-off-{i}"], "protocol.run_session")
              / probe_seconds(probe_ops[f"probe-randomizer-on-{i}"], "protocol.run_session")
              for i in range(len(probe_ops)) if f"probe-randomizer-on-{i}" in probe_ops]
    if ratios:
        share = 1.0 - statistics.median(ratios)
    efficiency = 0.0
    scans = [s.seconds for s in by_name["experiments.delay_scan"]]
    if "probe-1worker" in probe_ops and scans:
        one = probe_seconds(probe_ops["probe-1worker"], "experiments.delay_scan")
        efficiency = one / (workload.threads * statistics.median(scans))
    peak_per_bit = max((peak / bits for peak, bits in tracer.alloc_peaks), default=0.0)
    exports = [s.counts["bytes"] for s in by_name["protocol.export_records_csv"] if s.counts]
    points = [s.counts["points"] for s in by_name["experiments.delay_scan"] if s.counts]
    bits_in = total("protocol.sift", "bits")
    self_times = [self_seconds(s, children[s.span_id]) for s in by_name["cli.main"]]
    untraced = sum(u for u, _ in pairs)

    return {
        "protocol.run_session.calls": calls("protocol.run_session"),
        "protocol.run_session.busy_s": busy("protocol.run_session"),
        "protocol.run_session.bits_per_s": rate("protocol.run_session", "bits"),
        "protocol.run_session.p50_s": statistics.median(
            [s.seconds for s in by_name["protocol.run_session"]] or [0.0]),
        "protocol.run_session.randomizer_share": share,
        "protocol.run_session.peak_alloc_bytes_per_bit": peak_per_bit,
        "protocol.export_records_csv.busy_s": busy("protocol.export_records_csv"),
        "protocol.export_records_csv.rows_per_s": rate("protocol.export_records_csv", "rows"),
        "protocol.export_records_csv.bytes": statistics.mean(exports) if exports else 0.0,
        "protocol.sift.busy_s": busy("protocol.sift"),
        "protocol.sift.sifted_per_bit": total("protocol.sift", "sifted") / bits_in if bits_in else 0.0,
        "protocol.estimate_qber.busy_s": busy("protocol.estimate_qber"),
        "experiments.delay_scan.busy_s": busy("experiments.delay_scan"),
        "experiments.delay_scan.points": statistics.mean(points) if points else 0.0,
        "experiments.delay_scan.parallel_efficiency": efficiency,
        "experiments.export_csv.busy_s": busy("experiments.export_csv"),
        "experiments.uniformity_chisq.busy_s": busy("experiments.uniformity_chisq"),
        "experiments.uniformity_chisq.samples_per_s": rate("experiments.uniformity_chisq", "samples"),
        "experiments.fock_density_matrix.busy_s": busy("experiments.fock_density_matrix"),
        "experiments.export_density_csv.busy_s": busy("experiments.export_density_csv"),
        "randomizer.generate_pattern.calls": calls("randomizer.generate_pattern"),
        "randomizer.generate_pattern.busy_s": busy("randomizer.generate_pattern"),
        "randomizer.generate_pattern.codes_per_s": rate("randomizer.generate_pattern", "codes"),
        "randomizer.code_to_phase.busy_s": busy("randomizer.code_to_phase"),
        "cli.main.self_s": statistics.mean(self_times) if self_times else 0.0,
        "trace.overhead_frac": sum(t for _, t in pairs) / untraced - 1.0 if untraced else 0.0,
    }


def run_traced(workload, runner, modules, seconds, sizes, seeds, work):
    tracer = Tracer()
    restore = install(tracer, modules)
    probe_ops = {}
    try:
        for kind, op in workload.make_probes(seeds, sizes, work):
            # allocation tracking slows everything, so only its own probe runs under it
            tracer.track_alloc = kind == "probe-alloc"
            if tracer.track_alloc:
                tracemalloc.start()
            try:
                run = runner.execute(op, tracer, kind)
            finally:
                if tracer.track_alloc:
                    tracemalloc.stop()
                    tracer.track_alloc = False
            runner.judge(op, run)
            probe_ops[kind] = max(tracer.op_kind)
    finally:
        restore()

    cycle = workload.make_cycle(seeds, sizes, work)
    pairs = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        op = cycle[len(pairs) % len(cycle)]
        times = {}
        # alternate which of the pair goes first
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced:
                restore = install(tracer, modules)
                try:
                    times[True] = runner.call(op, tracer).seconds
                finally:
                    restore()
            else:
                times[False] = runner.call(op).seconds
        pairs.append((times[False], times[True]))

    seen = {s.name for s in tracer.spans if tracer.op_kind.get(s.op_id) == "workload"}
    missing = [name for name in workload.expected_spans if name not in seen]
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{workload.name}.csv")
    if missing:
        raise SpanGuardError(
            f"workload {workload.name}: no call recorded for expected span(s) {', '.join(missing)}; "
            "a package module no longer looks these names up where the tracer wraps them"
        )
    return layer_metrics(tracer, workload, pairs, probe_ops)


def run_workload(name: str, seed: int, seconds: int, trace: int, size: str = "full",
                 setup_repeats: int = SETUP_REPEATS, quiet: bool = False) -> dict:
    package, modules = import_package()
    workload = WORKLOADS[name](nproc())
    sizes = SIZES[size]
    seeds = op_seeds(seed)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(modules[0].main)
    try:
        if trace:
            metrics = run_traced(workload, runner, modules, seconds, sizes, seeds, work)
            notes = {}
        else:
            metrics, notes = run_end_to_end(workload, runner, seconds, sizes, seeds, work, setup_repeats)
        units = metric_units(trace)
    finally:
        for leftover in work.iterdir():
            leftover.unlink()
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set drifted: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print_fn = (lambda *a, **k: None) if quiet else print
    print_fn(f"workload {name} seed {seed} seconds {seconds} trace {trace} size {size}")
    for key in units:
        note = f"  ({notes[key]})" if key in notes else ""
        print_fn(f"  {key:45s} {metrics[key]:.6g} {units[key]}{note}")
    if not trace:
        print_fn(f"  {'failed_frac':45s} {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} of {runner.attempted} ops)")
    record = {"fingerprint": fingerprint(package, workload, seed, seconds, trace, sizes, seeds),
              "result": result}
    print_fn("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def smoke() -> int:
    """Every workload at tiny size, untraced and traced, in one process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=1, trace=trace, size="smoke",
                                  setup_repeats=1, quiet=True)
            values = [m["value"] for m in result["metrics"].values()]
            good = result["correct"] and all(math.isfinite(v) for v in values)
            ok &= good
            print(f"smoke {name} trace {trace}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} ops, {result['failed']} failed)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size, untraced and traced")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
