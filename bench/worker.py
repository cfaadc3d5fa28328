"""One benchmark worker: a fresh interpreter that sets up one workload and
runs it with a single client in a closed loop (the next op starts when
the previous one returns).

run.py starts the workers; by hand:

    python3 bench/worker.py --workload search --seed 1 --seconds 5 --trace 0

The last line of stdout is one JSON object with the worker's figures.
--setup-only stops after set-up; --rounds runs a fixed number of rounds
instead of a timed loop, so two runs do exactly the same ops.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90

sys.path.insert(0, str(HERE))
from tracing import SETUP_OP, Tracer  # noqa: E402
from workloads import WORKLOADS, op_rng, warmup_rng  # noqa: E402


def import_orbitcodes():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import orbitcodes

    if Path(orbitcodes.__file__).resolve().parent != SRC / "orbitcodes":
        raise ImportError(f"orbitcodes came from {orbitcodes.__file__}, not {SRC}")
    return orbitcodes


@contextlib.contextmanager
def traced(tracer: Tracer | None, op: int):
    """Record spans under op id `op` inside the block; no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.op = op
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        rounds: int | None = None, setup_only: bool = False) -> dict:
    t0 = time.perf_counter()
    oc = import_orbitcodes()
    tracer = Tracer() if trace else None
    with traced(tracer, SETUP_OP):
        workload = WORKLOADS[workload_name](oc, seed)
    for kind in dict.fromkeys(workload.KINDS):
        inp = workload.make_input(kind, warmup_rng(workload_name, seed, kind))
        with traced(tracer, SETUP_OP):
            workload.run(kind, inp)
    setup_s = time.perf_counter() - t0
    result = {"workload": workload_name, "seed": seed, "setup_s": setup_s}
    if setup_only:
        return result

    # traced workers alternate untraced and traced rounds, which gives the
    # tracing overhead on the same mix
    records = []
    busy = {False: 0.0, True: 0.0}
    ops_in = {False: 0, True: 0}
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    r = 0
    while (
        r < rounds if rounds is not None
        else time.perf_counter() < deadline or len(records) < MIN_OPS or (trace and r < 2)
    ):
        traced_round = trace and r % 2 == 1
        round_start = time.perf_counter()
        for kind in workload.KINDS:
            index = len(records)
            inp = workload.make_input(kind, op_rng(workload_name, seed, index))
            with traced(tracer if traced_round else None, index):
                start = time.perf_counter()
                try:
                    out, err = workload.run(kind, inp), None
                except Exception as exc:  # a failed op is counted, not fatal
                    traceback.print_exc()
                    out, err = None, traceback.format_exception_only(exc)[-1].strip()
                latency = time.perf_counter() - start
            records.append([index, kind, inp, out, err, latency])
        busy[traced_round] += time.perf_counter() - round_start
        ops_in[traced_round] += len(workload.KINDS)
        r += 1
    elapsed = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for index, kind, inp, out, err, _ in records:
        if err is None:
            try:
                if not workload.check(index, kind, inp, out):
                    err = "output check failed"
            except Exception as exc:
                err = "check raised " + traceback.format_exception_only(exc)[-1].strip()
        if err is not None:
            failures.append({"op": index, "kind": kind, "error": err})

    latencies_ms = [rec[5] * 1000 for rec in records]
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec[1], []).append(rec[5] * 1000)
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    result.update({
        "rounds": r,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "elapsed_s": elapsed,
        "ops_per_s": len(records) / elapsed,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": deciles[8],
        "latency_samples": len(latencies_ms),
        "peak_rss_mb": peak_rss_mb,
        "kind_p50_ms": {kind: statistics.median(v) for kind, v in by_kind.items()},
    })
    if trace:
        layers = tracer.layer_metrics(ops_in[True])
        if busy[False] and busy[True]:
            layers["trace.overhead"] = (
                (ops_in[False] / busy[False]) / (ops_in[True] / busy[True]) - 1
            ) * 100
        else:
            layers["trace.overhead"] = 0.0
        result["traced_ops"] = ops_in[True]
        result["layers"] = layers
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{workload_name}-seed{seed}.spans.json.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(HERE.parent))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 rounds=args.rounds, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
