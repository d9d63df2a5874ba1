"""One round of a workload in a fresh process: import midy, make the calls, time them.

Usage: python3 -I worker.py SRC_DIR [--trace] [--spans PATH] < round.json

Reads the round as JSON on stdin ({"workload", "calls", "oracle_bound"}) and
prints one JSON line: the time to import midy, the wall time of the timed
phase, each call's wall time and output, the peak resident memory, and with
--trace the per-layer summary.  Only the standard library and midy are
imported, so the process's time and memory are midy's.
"""

import sys
import time


def _prepare(workload, calls, oracle_bound):
    """(function, argument tuples, exporter) for a workload; none of it is timed."""
    import contextlib
    import io
    import json

    import midy.analyzer
    import midy.cli
    import midy.constructor
    import midy.period

    # each function looks its entry point up at call time, so traced wrappers apply
    if workload == "oracle-sweep":
        def call(n, b, ds):  # one modulus of verify.oracle_records
            all_x = midy.period.oracle_midy_sweep(n, b, ds, mode="all-x")
            return all_x, midy.period.oracle_midy_sweep(n, b, ds, mode="x-equals-1")

        def export(result):
            all_x, x_one = result
            return {"all-x": sorted(all_x.items()), "x-equals-1": sorted(x_one.items())}

        return call, [tuple(c) for c in calls], export

    if workload == "big-query":
        def call(set_argv, check_argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc_set = midy.cli.main(set_argv)
            with contextlib.redirect_stdout(io.StringIO()) as out2:
                rc_check = midy.cli.main(check_argv)
            return rc_set, out.getvalue(), rc_check, out2.getvalue()

        def document(rc, text):
            if rc != 0:
                return [rc, text]
            doc = json.loads(text)
            del doc["elapsed_ms"]  # a timing, which differs from round to round
            return [rc, doc]

        def export(result):
            rc_set, text_set, rc_check, text_check = result
            return {"set": document(rc_set, text_set), "check": document(rc_check, text_check)}

        args = [
            (
                ["set", "--base", str(b), str(n), "--json"],
                ["check", "--base", str(b), str(n), str(d), "--json"],
            )
            for b, n, d in calls
        ]
        return call, args, export

    if workload == "set-table":
        def call(n, b):
            return midy.analyzer.midy_set(n, b)

        def export(ms):
            return [ms.order, list(ms.members)]

        return call, [tuple(c) for c in calls], export

    if workload == "shrink":
        def call(n, b):
            return midy.constructor.shrink(n, b, oracle_bound=oracle_bound)

        def export(res):
            return {
                "z": res.z,
                "shrunk": res.shrunk_modulus,
                "order": res.final_set.order,
                "members": list(res.final_set.members),
                "steps": [[s.q, s.z] for s in res.steps],
            }

        return call, [tuple(c) for c in calls], export

    raise SystemExit(f"unknown workload {workload!r}")


def _peak_rss_mib() -> float:
    # VmHWM belongs to this process image; getrusage's ru_maxrss would carry
    # over the parent's peak across the fork and exec that started the worker
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class _Failure:
    def __init__(self, exc: Exception):
        self.kind = type(exc).__name__
        self.message = str(exc)


def main(argv: list[str]) -> None:
    import os

    src = os.path.abspath(argv[1])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import midy.cli  # what every `midy` command imports, the prime table included

    setup_s = time.perf_counter() - start

    import json

    if not os.path.abspath(midy.__file__).startswith(src + os.sep):
        raise SystemExit(f"midy was imported from {midy.__file__}, not from {src}")
    round_ = json.load(sys.stdin)
    call, args, export = _prepare(round_["workload"], round_["calls"], round_["oracle_bound"])

    tracer = None
    if "--trace" in argv:
        sys.path.append(os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    perf_counter = time.perf_counter
    times = [0.0] * len(args)
    results = [None] * len(args)
    begin = perf_counter()
    for i, a in enumerate(args):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            results[i] = call(*a)
        except Exception as exc:  # a failed call is recorded and the round goes on
            results[i] = _Failure(exc)
        times[i] = perf_counter() - t0
    wall_s = perf_counter() - begin
    peak_rss_mib = _peak_rss_mib()

    outputs = [
        {"error": r.kind, "message": r.message} if isinstance(r, _Failure) else export(r)
        for r in results
    ]
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "times": times,
        "outputs": outputs,
        "peak_rss_mib": peak_rss_mib,
        "trace": None,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if "--spans" in argv:
            tracer.write(argv[argv.index("--spans") + 1])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv)
