"""Benchmark midy on one workload.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (see workloads.py), then runs
rounds until S seconds have passed, each round in a fresh single-threaded
worker process that imports midy from ./src and times only the calls into it.
The outputs of the first round are checked against the independent checker;
every later round must repeat them exactly.  The last line of stdout is one
JSON object {correct, attempted, failed, metrics}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones, taken from traced
rounds that alternate with untraced rounds of the same inputs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 60


def run_worker(workload: str, payload: str, trace: bool, spans: Path | None = None) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(SRC)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(
        cmd, input=payload, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def item_latencies(times: list[float], items: list[int]) -> list[float]:
    """Per-item wall time: a call's time shared equally by the items it completes.

    A call that completes no item (an oracle sweep of a modulus of order 1)
    counts in the round's wall time only.
    """
    out = []
    for t, k in zip(times, items):
        if k:
            out += [t / k] * k
    return out


def tail(values: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile of values and how many values lie beyond its rank."""
    ordered = sorted(values)
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(rounds: list[dict], plan, failed_calls: set[int], percentile: int, problems: list):
    completed = sum(k for i, k in enumerate(plan.items) if i not in failed_calls)
    throughput, p50, p_tail = [], [], []
    for r in rounds:
        latencies = item_latencies(r["times"], plan.items)
        value, beyond = tail(latencies, percentile)
        if beyond < 10:
            problems.append(f"p{percentile} has only {beyond} items beyond it in a round")
        throughput.append(completed / r["wall_s"])
        p50.append(statistics.median(latencies) * 1000)
        p_tail.append(value * 1000)
    return {
        "throughput_per_s": (statistics.median(throughput), "items/s"),
        "latency_p50_ms": (statistics.median(p50), "ms"),
        "latency_tail_ms": (statistics.median(p_tail), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], problems: list):
    from sympy import n_order, totient
    from tracer import CACHES

    summaries = [r["trace"] for r in traced]
    first = summaries[0]
    for s in summaries[1:]:
        if s["calls"] != first["calls"] or s["caches"] != first["caches"]:
            problems.append("traced rounds of the same inputs made different calls")
    out = {}
    for name, calls in first["calls"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (
            statistics.median(s["self_s"][name] for s in summaries) * 1000, "ms"
        )
    for cache, info in first["caches"].items():
        lookups = info["hits"] + info["misses"]
        span = CACHES[cache][0]
        if lookups != first["calls"][span]:
            problems.append(f"{cache} saw {lookups} lookups but {span} {first['calls'][span]} calls")
        out[f"{cache}.hit_ratio"] = (info["hits"] / lookups if lookups else 0.0, "ratio")
        out[f"{cache}.entries"] = (info["entries"], "count")
    # all-x expands every unit numerator, x-equals-1 only the numerator 1
    digits = sum(
        (int(totient(n)) if mode == "all-x" else 1) * int(n_order(b, n))
        for n, b, mode in first["oracle_args"]
    )
    oracle_s = out["period.oracle.self_ms"][0] / 1000
    out["period.oracle.digits"] = (digits, "digits")
    out["period.oracle.digits_per_s"] = (digits / oracle_s if oracle_s else 0.0, "digits/s")
    out["constructor.shrink.rechecked"] = (first["rechecked"], "count")
    plain = statistics.median(r["wall_s"] for r in untraced)
    with_spans = statistics.median(r["wall_s"] for r in traced)
    out["trace.untraced_wall_ms"] = (plain * 1000, "ms")
    out["trace.traced_wall_ms"] = (with_spans * 1000, "ms")
    out["trace.overhead_pct"] = (100 * (with_spans - plain) / plain, "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "midy" / "__init__.py").is_file():
        print(f"error: no midy package under {SRC}; run from a checkout of midy", file=sys.stderr)
        return 2
    import checker
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    found = checker.self_test()
    if found:
        print("error: checker self-test failed:\n" + "\n".join(found), file=sys.stderr)
        return 1

    workload = workloads.WORKLOADS[args.workload]
    plan = workload.plan(random.Random(f"{args.workload}:{args.seed}"))
    payload = json.dumps(
        {"workload": args.workload, "calls": plan.calls, "oracle_bound": plan.oracle_bound}
    )
    compileall.compile_dir(str(SRC / "midy"), quiet=1)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    untraced, traced = [], []
    begin = time.monotonic()
    while len(untraced) < MIN_ROUNDS or time.monotonic() - begin < args.seconds:
        untraced.append(run_worker(args.workload, payload, trace=False))
        if args.trace:
            spans = OUT / f"{stem}-spans.csv" if not traced else None
            traced.append(run_worker(args.workload, payload, trace=True, spans=spans))

    problems, failed = workload.check(plan, untraced[0]["outputs"])
    failed_calls = set(failed)
    for r in untraced[1:] + traced:
        if r["outputs"] != untraced[0]["outputs"]:
            problems.append("a round's outputs differ from the first round's")
            break
    if args.trace:
        metrics = per_layer(untraced, traced, problems)
    else:
        metrics = end_to_end(untraced, plan, failed_calls, workload.tail_percentile, problems)
    rounds = len(untraced) + len(traced)
    result = {
        "correct": not problems,
        "attempted": sum(plan.items) * rounds,
        "failed": sum(plan.items[i] for i in failed_calls) * rounds,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "args": vars(args),
        "problems": problems,
        "rounds": [
            {k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mib")} | {"traced": r["trace"] is not None}
            for r in untraced + traced
        ],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
