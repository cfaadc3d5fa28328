"""Benchmark for orbitcodes: prints every metric with its unit, checks the
outputs, and ends with one JSON line.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload simulate --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload simulate --seed 3 --seconds 30 --trace 1

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run. Each run's full figures, with the
Python version, platform, nproc and commit, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 3  # cold set-ups per run; setup_s is their median
TIME_LIMIT_S = 170

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}


class BenchError(Exception):
    pass


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    main = run_worker([*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if trace:
        metrics = {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in main["layers"].items()}
        setups = [main["setup_s"]]
    else:
        setups = [main["setup_s"]] + [
            run_worker([*base, "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUPS - 1)
        ]
        figures = dict(main, setup_s=statistics.median(setups))
        metrics = {m: {"value": figures[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "args": {"workload": name, "seed": seed, "seconds": seconds, "trace": trace},
        "result": result,
        "failed_ratio": main["failed"] / main["attempted"],
        "setup_samples_s": setups,
        "worker": main,
    }
    if trace:
        record["layer_metrics"] = [
            dict(zip(("name", "unit", "better", "should_move", "on_workload"), m))
            for m in LAYER_METRICS
        ]
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def print_lines(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:9} {metric:38} {m['value']:>14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:9} {'failed_ratio':38} {ratio:>14.6g} ratio")
    print(f"{name:9} {'samples':38} {result['attempted']:>14} ops")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; every workload when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print_lines(name, results[name])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
