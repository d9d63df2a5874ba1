"""Bulk property sweeps behind the CLI ``verify`` command and the test suites.

Each sweep replays one of the library's structural guarantees over a range of
inputs and reports every counterexample instead of stopping at the first.  It
is the one implementation of its property: the unit tests call it at their own
bases and bounds, and its keyword defaults are the CLI's defaults.

A sweep is written as a generator and declared with ``@_suite(name)``.  It
yields once per instance: ``None`` when the property holds, or a dict that
records the failing instance.  The decorator registers it in ``SUITES`` and
turns each call into a ``SweepReport``: the bound arguments, defaults applied,
become ``params``, every yield counts one instance, and the run is timed.
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps
from math import gcd
from time import perf_counter

from .analyzer import (
    cardinality_report,
    check_midy,
    check_midy_gcd,
    midy_set,
    multiplier,
    prime_power_set,
    product_set,
    restrict_set,
)
from .constructor import _is_power_of_two, primitive_prime
from .ntcore import (
    MidyError,
    _check_base,
    _order_int,
    divisors,
    lifted_order,
    multiplicative_order,
    primes_upto,
)
from .period import oracle_midy_sweep


class SweepReport(
    namedtuple("SweepReport", "suite params instances failures elapsed_ms", defaults=((), 0.0))
):
    """One sweep's bound arguments, instance count, failures and wall time.

    The suite runner builds it once, after the sweep has run.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.instances} instances)"
        head = self.failures[0]
        return f"FAIL ({len(self.failures)} of {self.instances} instances), first: {head}"

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "instances": self.instances,
            "passed": self.passed,
            "failures": self.failures[:50],
            "failure_count": len(self.failures),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


SUITES = {}


def _suite(name: str):
    """Register a sweep generator as suite ``name``; calls to it return a SweepReport.

    A base below 2 is refused once here, before any sweep runs.
    """

    def register(sweep):
        @wraps(sweep)
        def run(*args, **kwargs):
            import inspect  # bound at call time, so importing the CLI skips inspect

            bound = inspect.signature(sweep).bind(*args, **kwargs)
            bound.apply_defaults()
            _check_base(bound.arguments.get("base", 2))
            params = dict(bound.arguments)
            t0 = perf_counter()
            instances, failures = 0, []
            for failure in sweep(*args, **kwargs):
                instances += 1
                if failure is not None:
                    failures.append(failure)
            if not instances:  # a sweep that checks nothing must not pass
                raise MidyError(f"suite {name} ran no instance with {params}")
            elapsed_ms = (perf_counter() - t0) * 1000.0
            return SweepReport(name, params, instances, failures, elapsed_ms)

        SUITES[name] = run
        return run

    return register


def _moduli(base: int, max_n: int):
    for n in range(2, max_n + 1):
        if gcd(n, base) != 1:
            continue
        e = _order_int(base, n)
        ds = [d for d in divisors(e) if d >= 2]
        if ds:
            yield n, e, ds


def oracle_records(base: int, max_n: int):
    """Per-(n, d) verdicts of the fast test, the all-x oracle and the x=1 oracle.

    The fast verdicts come from one midy_set per modulus.
    """
    for n, e, ds in _moduli(base, max_n):
        members = set(midy_set(n, base).members)
        all_x = oracle_midy_sweep(n, base, ds, mode="all-x")
        x_one = oracle_midy_sweep(n, base, ds, mode="x-equals-1")
        for d in ds:
            yield {
                "base": base,
                "n": n,
                "d": d,
                "theorem": d in members,
                "all_x": all_x[d],
                "x_equals_1": x_one[d],
            }


@_suite("oracle-equivalence")
def sweep_oracle_equivalence(base: int = 10, max_n: int = 1000):
    """Fast membership test against the all-x digit oracle."""
    for rec in oracle_records(base, max_n):
        yield None if rec["theorem"] == rec["all_x"] else rec


@_suite("mode-equivalence")
def sweep_mode_equivalence(base: int = 10, max_n: int = 1000):
    """All-x oracle against the x=1 oracle."""
    for rec in oracle_records(base, max_n):
        yield None if rec["all_x"] == rec["x_equals_1"] else rec


@_suite("prime-power")
def sweep_prime_power(base: int = 10, max_p: int = 50, max_exp: int = 4):
    """Closed-form prime-power sets against direct enumeration, plus counts."""
    for p in primes_upto(max_p):
        if p == 2 or base % p == 0:
            continue
        for n in range(1, max_exp + 1):
            closed = prime_power_set(base, p, n)
            direct = midy_set(p**n, base)
            card = cardinality_report(base, p, n)
            ok = (
                closed.members == direct.members
                and closed.order == direct.order
                and card.closed_form == len(direct.members)
                and card.disjoint
            )
            yield None if ok else {
                "p": p,
                "n": n,
                "closed": list(closed.members),
                "direct": list(direct.members),
                "count": card.closed_form,
                "disjoint": card.disjoint,
            }


@_suite("order-lift")
def sweep_order_lift(base: int = 10, max_p: int = 50, max_exp: int = 4):
    """Closed-form order lifting against the direct order computation."""
    for p in primes_upto(max_p):
        if p == 2 or base % p == 0:
            continue
        for t in range(1, max_exp + 1):
            lifted = lifted_order(base, p, t)
            direct = multiplicative_order(base, p**t)
            ok = lifted == direct
            yield None if ok else {"p": p, "t": t, "lifted": lifted, "direct": direct}


@_suite("product")
def sweep_product(base: int = 10, max_product: int = 2000):
    """Filtered product sets against direct enumeration of the product modulus."""
    for n in range(2, max_product + 1):
        if gcd(n, base) != 1:
            continue
        e = _order_int(base, n)
        for m in range(1, max_product // n + 1):
            if gcd(m, n) != 1 or gcd(m, base) != 1:
                continue
            if _order_int(base, m * n) != e:
                continue
            filtered = product_set(n, m, base)
            direct = midy_set(m * n, base)
            yield None if filtered.members == direct.members else {
                "n": n,
                "m": m,
                "filtered": list(filtered.members),
                "direct": list(direct.members),
            }


@_suite("upward-closure")
def sweep_upward_closure(base: int = 10, max_n: int = 500):
    """Upward closure, the top element, and midy_set against per-divisor check_midy.

    The set must also carry the period length e as its order.
    """
    for n, e, ds in _moduli(base, max_n):
        ms = midy_set(n, base)
        found = ms.members
        checked = tuple(d for d in ds if check_midy(n, base, d).member)
        members = set(found)
        closed = all(
            d2 in members
            for d1 in members
            for d2 in ds
            if d2 % d1 == 0
        )
        top_ok = not members or e in members
        ok = found == checked and ms.order == e and closed and top_ok
        yield None if ok else {"n": n, "members": list(found)}


@_suite("even-multiplier")
def sweep_even_multiplier(base: int = 10, max_n: int = 500):
    """When 2 is a member, every even divisor d of e has multiplier d/2."""
    for n, e, ds in _moduli(base, max_n):
        if e % 2 or not check_midy(n, base, 2).member:
            continue
        for d in ds:
            if d % 2:
                continue
            m = multiplier(n, base, d)
            yield None if m == d // 2 else {"n": n, "d": d, "multiplier": m}


def _verdict_dict(verdict) -> dict:
    """A MidyVerdict as a JSON object, its certificate a nested object too."""
    cert = verdict.certificate
    return {**verdict._asdict(), "certificate": None if cert is None else cert._asdict()}


@_suite("gcd-form")
def sweep_gcd_form(base: int = 10, max_n: int = 500):
    """Prime-sweep verdicts, certificates included, against the block-sum gcd form.

    The gcd form shares no valuation rule with the prime sweep.  A witness
    prime p must also divide b**k - 1, so its order divides k.
    """
    for n, e, ds in _moduli(base, max_n):
        for d in ds:
            lhs = check_midy(n, base, d)
            rhs = check_midy_gcd(n, base, d)
            cert = lhs.certificate
            ok = lhs == rhs and (cert is None or pow(base, lhs.k, cert.prime) == 1)
            yield None if ok else {
                "n": n, "d": d, "prime_form": _verdict_dict(lhs), "gcd_form": _verdict_dict(rhs)
            }


@_suite("zsig")
def sweep_primitive_prime(max_base: int = 20, max_order: int = 12, scan_limit: int = 100_000):
    """Exceptional pairs and smallest-prime answers against a direct prime scan."""
    primes = primes_upto(scan_limit)
    for b in range(2, max_base + 1):
        for n in range(2, max_order + 1):
            expect_exceptional = (n == 2 and _is_power_of_two(b + 1)) or (n, b) == (6, 2)
            got = primitive_prime(b, n)
            if expect_exceptional:
                yield None if got is None else {"b": b, "n": n, "got": got, "expected": None}
                continue
            smallest = None
            for p in primes:
                if p % n != 1 or b % p == 0:
                    continue
                if _order_int(b, p) == n:
                    smallest = p
                    break
            ok = (
                got is not None
                and _order_int(b, got) == n
                and (got == smallest if smallest is not None else got > scan_limit)
            )
            yield None if ok else {"b": b, "n": n, "got": got, "scan": smallest}


@_suite("restrict")
def sweep_restrict(base: int = 10, max_n: int = 300):
    """Restriction: members of M_b(n2) dividing ord_n1(b) lie in M_b(n1), for n1 | n2."""
    for n2 in range(2, max_n + 1):
        if gcd(n2, base) != 1:
            continue
        for n1 in divisors(n2):
            if n1 >= 2:
                rep = restrict_set(n1, n2, base)
                yield None if rep.holds else {
                    "n1": n1, "n2": n2, "violations": list(rep.violations)
                }
