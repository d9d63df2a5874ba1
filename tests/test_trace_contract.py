"""The bench tracer's contract with midy, checked the way bench/run.py checks it.

A traced run wraps ``_factor_pairs`` and ``_order_int`` by rebinding every
module-level name bound to them.  A call that reaches either cache another
way (an alias captured in a default argument or a closure, or ``__wrapped__``)
makes the cache's lookups differ from the span's calls, and a traced run
whose outputs differ from an untraced one is wrong.  Both fail a traced
benchmark run, so both are asserted here on a small big-query, set-table,
shrink and vanish mix, in fresh isolated processes as the bench worker runs them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# two 52-bit semiprimes: Brent rho splits each, as in the big-query workload
SEMIPRIMES = ((3, 60000011 * 45000017), (10, 66000007 * 67000019))
WINDOW = (10**9 + 30 * 4321, 30)  # start and width of a set-table window
# shrink inputs: the oracle re-checks the first four (z*n is 1023, 819, 20
# and 20; (5, 3) takes the q = 2 exceptional branch), (8, 7) is already the
# singleton, and the last two exceed the bound
SHRINKS = ((11, 2), (13, 2), (5, 7), (5, 3), (8, 7), (49, 10), (1316833, 10))
# a vanish threshold whose other prime of b - 1 empties every set: prints 0
VANISH = ["vanish", "--base", "7", "1216", "3"]

SCRIPT = r"""
import contextlib, io, json, sys
from math import gcd
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import midy.analyzer, midy.cli, midy.constructor
from tracer import CACHES, Tracer

semiprimes, (start, width), shrinks, vanish = json.loads(sys.argv[3])
tracer = None
if sys.argv[4] == "traced":
    tracer = Tracer()
    tracer.install()

def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = midy.cli.main(argv + ["--json"])
    doc = json.loads(out.getvalue())
    del doc["elapsed_ms"]
    return code, doc

outputs = []
for b, n in semiprimes:
    code, doc = cli(["set", "--base", str(b), str(n)])
    outputs.append([code, doc])
    order = doc["result"]["order"]
    d = next(q for q in range(2, order + 1) if order % q == 0)
    outputs.append(cli(["check", "--base", str(b), str(n), str(d)]))
for n in range(start, start + width):
    for b in (2, 3, 10):
        if gcd(n, b) == 1:
            ms = midy.analyzer.midy_set(n, b)
            outputs.append([n, b, ms.order, list(ms.members)])
for n, b in shrinks:
    res = midy.constructor.shrink(n, b, oracle_bound=2000)
    steps = [[s.q, s.branch, s.p, s.z] for s in res.steps]
    outputs.append([n, b, res.z, list(res.final_set.members), res.oracle_checked, steps])
outputs.append(cli(vanish))

summary = None
if tracer is not None:
    found = tracer.summary()
    summary = {
        cache: [info["hits"] + info["misses"], found["calls"][CACHES[cache][0]]]
        for cache, info in found["caches"].items()
    }
    summary["spans"] = found["calls"]
    summary["rechecked"] = found["rechecked"]
print(json.dumps({"outputs": outputs, "caches": summary}))
"""


def _run(mode: str) -> dict:
    args = json.dumps([SEMIPRIMES, WINDOW, SHRINKS, VANISH])
    done = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"), args, mode],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_traced_run_keeps_outputs_and_cache_lookups():
    plain, traced = _run("plain"), _run("traced")
    assert traced["outputs"] == plain["outputs"]
    assert all(code == 0 for code, _ in traced["outputs"][:4])
    spans = traced["caches"].pop("spans")
    assert spans["ntcore.factorize"] > 0 and spans["cli.main"] == 5
    assert traced["outputs"][-1] == [0, {"command": "vanish", "inputs": {
        "base": 7, "n": 1216, "p": 3}, "result": 0, "oracle_checked": False}]
    # one set per CLI set command and per table row; shrink builds its sets
    # from its own pass over n, and vanish builds none
    table = len(traced["outputs"]) - 5 - len(SHRINKS)
    assert spans["analyzer.midy_set"] == 2 + table
    assert spans["constructor.shrink"] == len(SHRINKS)
    shrunk = traced["outputs"][-1 - len(SHRINKS) : -1]
    assert [out[4] for out in shrunk] == [True, True, True, True, False, False, False]
    assert traced["caches"].pop("rechecked") == 4
    for cache, (lookups, calls) in traced["caches"].items():
        assert lookups == calls, (cache, lookups, calls)
