"""Run the benchmark on several seeds and report each metric's spread.

From the root of a checkout::

    python3 perfbench/repeat.py --workload delay_scan --seeds 5
    python3 perfbench/repeat.py --seeds 10 --write-baseline

For every workload and end-to-end metric it prints the median of the runs,
the distance between the first and third quartiles as a share of the
median, and that spread against the metric's bound in ``BENCHMARK.json``.
Without ``--write-baseline`` it also prints how far each median sits from
the one in ``perfbench/baseline.json``, and fails when that distance is
beyond the bound. ``--write-baseline`` instead makes one traced run per
workload and stores the medians, the per-layer values and the machine
fingerprint in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops: {proc.stderr.strip()}")
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    previous = {} if args.write_baseline else json.loads(
        (HERE / "baseline.json").read_text(encoding="utf-8"))["workloads"]
    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(1, args.seeds + 1)]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            summary[name] = {"median": median, "iqr_share": share, "values": values}
            drift = ""
            if workload in previous:
                shift = median / previous[workload]["end_to_end"][name]["median"] - 1.0
                steady &= abs(shift) <= bound
                drift = f"vs baseline {shift:+.4f} {'ok' if abs(shift) <= bound else 'APART'}  "
            print(f"{workload:15s} {name:27s} median {median:12.6g}  iqr/median {share:7.4f}  "
                  f"bound {bound:5.3f}  {'ok' if ok else 'WIDE'}  {drift}"
                  + " ".join(f"{v:.4g}" for v in values))
        walls = [r["wall_s"] for r in runs]
        print(f"{workload:15s} wall seconds per run: max {max(walls):.1f}, median {statistics.median(walls):.1f}")
        entry = {"end_to_end": summary, "attempted": sum(r["attempted"] for r in runs)}
        if args.write_baseline:
            traced = run_once(workload, 1, seconds, 1)
            print(f"{workload:15s} traced run wall seconds {traced['wall_s']:.1f}")
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            record = json.loads((HERE / "out" / f"result-{workload}-trace1.json").read_text())
            baseline["fingerprint"] = {k: v for k, v in record["fingerprint"].items()
                                       if k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                                "package_version", "git_commit", "sizes")}
        baseline["workloads"][workload] = entry
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
