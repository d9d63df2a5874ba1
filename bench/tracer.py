"""Spans around midy's layer entry points, installed from outside the program.

midy's modules bind each other's functions at import time
(``from .ntcore import _order_int, factorize``), so a wrapper has to replace
every module-level name bound to the function, not only the one in its home
module.  Spans stay in memory as (item, name, start, end, parent) and are
summarised, and optionally written out, after the timed phase.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (home module, functions behind it).  ntcore.factorize sits on
# _factor_pairs, the cached worker behind factorize, divisors and the group
# exponent of the order descent, so it sees every factorization and its calls
# equal the factor cache's lookups.
TARGETS = {
    "ntcore.factorize": ("midy.ntcore", ("_factor_pairs",)),
    "ntcore.order": ("midy.ntcore", ("_order_int",)),
    "ntcore.is_prime": ("midy.ntcore", ("is_prime",)),
    "period.oracle": ("midy.period", ("oracle_midy_sweep", "oracle_midy")),
    "analyzer.midy_set": ("midy.analyzer", ("midy_set",)),
    "analyzer.check_midy": ("midy.analyzer", ("check_midy",)),
    "constructor.primitive_prime": ("midy.constructor", ("primitive_prime",)),
    "constructor.shrink_step": ("midy.constructor", ("shrink_step",)),
    "constructor.shrink": ("midy.constructor", ("shrink",)),
    "cli.main": ("midy.cli", ("main",)),
}
# cache name -> (span whose calls are its lookups, cached function)
CACHES = {
    "ntcore.factor_cache": ("ntcore.factorize", "_factor_pairs"),
    "ntcore.order_cache": ("ntcore.order", "_order_int"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1  # the request every new span belongs to
        self._stack = [-1]
        self._originals: dict = {}

    def install(self) -> None:
        """Wrap every binding of every target in the loaded midy modules."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "midy"]
        for span, (home, names) in TARGETS.items():
            found = [n for n in names if hasattr(sys.modules[home], n)]
            if not found:
                raise RuntimeError(f"{home} has none of {names} to trace as {span}")
            for fname in found:
                fn = getattr(sys.modules[home], fname)
                self._originals[fname] = fn
                wrapper = self._wrap(span, fn, keep_args=span == "period.oracle")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn, keep_args: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                kept = None
                if keep_args:  # (n, b, mode) of an oracle call
                    kept = (*args[:2], kwargs.get("mode", args[3] if len(args) > 3 else "all-x"))
                spans[index] = (self.item, name, start, end, parent, kept)

        return traced

    def summary(self) -> dict:
        """Calls and self time per span name, oracle arguments, cache figures."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = dict.fromkeys(TARGETS, 0)
        self_s: dict[str, float] = dict.fromkeys(TARGETS, 0.0)
        oracle_args, rechecked = [], set()
        for i, (_, name, start, end, parent, args) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            if name == "period.oracle":
                oracle_args.append(list(args))
                if parent >= 0 and self.spans[parent][1] == "constructor.shrink":
                    rechecked.add(parent)
        caches = {}
        for cache, (_, fname) in CACHES.items():
            info = self._originals[fname].cache_info()
            caches[cache] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
        return {
            "calls": calls,
            "self_s": self_s,
            "oracle_args": oracle_args,
            "rechecked": len(rechecked),
            "caches": caches,
        }

    def write(self, path: str) -> None:
        """Write the spans as CSV: item, name, start and end in seconds, parent row."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("item,name,start_s,end_s,parent\n")
            for item, name, start, end, parent, _ in self.spans:
                handle.write(f"{item},{name},{start:.9f},{end:.9f},{parent}\n")
